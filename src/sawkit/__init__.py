"""sawkit: analysis toolkit for surface-treated SAW resonator studies.

Submodules:

* :mod:`sawkit.spectra`   domain types and their text formats
* :mod:`sawkit.synth`     deterministic synthetic measurements
* :mod:`sawkit.resonance` reflection-spectrum fitting and quality factors
* :mod:`sawkit.tls`       tunneling-model formulas and sweep fitters
* :mod:`sawkit.xps`       Shirley backgrounds, band fits, atomic percentages
* :mod:`sawkit.afm`       topograph flattening, roughness, terrace steps
* :mod:`sawkit.walkoff`   beam-steering curves and zero finding
* :mod:`sawkit.lsq`       the shared damped least-squares engine
* :mod:`sawkit.cli`       the ``sawkit`` command-line entry point
"""
from .errors import FitError, ParseError, SawkitError, ValidationError
from .spectra import (
    AfmImage,
    ComplexSpectrum,
    PowerSweepSeries,
    TemperatureSweepSeries,
    WalkoffCurve,
    XpsSpectrum,
)

__version__ = "0.1.0"

__all__ = [
    "AfmImage",
    "ComplexSpectrum",
    "FitError",
    "ParseError",
    "PowerSweepSeries",
    "SawkitError",
    "TemperatureSweepSeries",
    "ValidationError",
    "WalkoffCurve",
    "XpsSpectrum",
    "__version__",
]
