"""XPS surface quantification: charge-shift referencing, iterative Shirley
background subtraction, pseudo-Voigt band deconvolution, and
sensitivity-weighted atomic percentages.

Band profiles are area-normalized pseudo-Voigts, a linear mix of a
Lorentzian (half width at half maximum ``gamma_ev``) and a Gaussian
(standard deviation ``sigma_ev``); a band's fitted amplitude therefore IS
its area.  The bands of one line share ``sigma_ev`` and ``gamma_ev``, as is
usual for the components of one core level: the fit searches the centers
and that one width pair and solves the areas.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import FitError, ValidationError
from .lsq import fit_separable, median, sigma
from .spectra import XpsSpectrum

#: literature binding energy of the Nb3d5/2 line in lithium niobate, used as
#: the charge-referencing landmark
NB3D52_REFERENCE_EV = 207.3

#: nominal O1s band centers (eV): metal oxide, organic C=O, organic C-O
O1S_BAND_CENTERS_EV = (530.0, 531.5, 533.0)

#: Fallback relative sensitivity factors in the style of instrument-vendor
#: handbooks.  These are generic values for demonstration only; quantitative
#: work must supply the table calibrated for the actual tool (factors are
#: proportional to the photoabsorption cross-section and tool-specific).
DEFAULT_SENSITIVITY_FACTORS = {
    "C1s": 0.314,
    "O1s": 0.733,
    "Nb3d": 2.921,
    "Li1s": 0.028,
}


@dataclass(frozen=True)
class SensitivityTable:
    """Relative atomic sensitivity factor per element line."""

    factors: dict

    def __post_init__(self):
        if not self.factors:
            raise ValidationError("sensitivity table is empty")
        for line, f in self.factors.items():
            if f <= 0:
                raise ValidationError(f"sensitivity factor for {line} must be positive")
        object.__setattr__(self, "factors", dict(self.factors))

    @classmethod
    def default(cls):
        return cls(DEFAULT_SENSITIVITY_FACTORS)

    def __getitem__(self, line):
        try:
            return self.factors[line]
        except KeyError:
            raise ValidationError(f"no sensitivity factor for line {line!r}") from None


# ---------------------------------------------------------------------------
# charge referencing
# ---------------------------------------------------------------------------

def charge_shift(spectra):
    """Translate all binding-energy axes so Nb3d5/2 sits at 207.3 eV.

    The measured peak position is the maximum of the first Nb3d spectrum.
    Returns (shifted spectra, shift in eV); counts are untouched, so every
    peak area is preserved exactly.
    """
    spectra = list(spectra)
    nb = [s for s in spectra if s.element_line == "Nb3d"]
    if not nb:
        raise ValidationError("no Nb3d spectrum available for charge referencing")
    ref = nb[0]
    shift = NB3D52_REFERENCE_EV - float(ref.binding_energy_ev[np.argmax(ref.counts)])
    shifted = [XpsSpectrum(s.binding_energy_ev + shift, s.counts, s.element_line)
               for s in spectra]
    return shifted, shift


# ---------------------------------------------------------------------------
# Shirley background
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShirleyBackground:
    binding_energy_ev: np.ndarray  # ascending window grid
    counts: np.ndarray             # data on that grid
    background: np.ndarray
    n_iterations: int

    @property
    def net(self):
        """Background-subtracted counts over the window."""
        return self.counts - self.background

    @property
    def area(self) -> float:
        """Background-subtracted counts integrated over the window (trapezoid)."""
        return float(np.trapezoid(self.net, self.binding_energy_ev))


#: Shirley iteration settings; :func:`shirley_background` says how each acts
SHIRLEY_TOL = 1e-6
SHIRLEY_MAX_ITER = 50


def shirley_background(spectrum: XpsSpectrum, window) -> ShirleyBackground:
    """Iterative Shirley background over ``window = (lo_ev, hi_ev)``.

    The background at energy E interpolates between the endpoint count
    levels in proportion to the background-subtracted area accumulated from
    the low-BE edge up to E (the inelastic step rises toward high binding
    energy).  Endpoint levels are 3-point averages to suppress endpoint
    noise.  Iteration stops when the largest change drops below
    ``SHIRLEY_TOL * (|I_hi - I_lo| + eps)``, and ``SHIRLEY_MAX_ITER`` passes
    without that raise FitError; the converged background is clipped to
    never exceed the data.  A window whose running area, times the step
    ``I_hi - I_lo``, is not finite is refused before the first pass.
    """
    asc = spectrum.ascending()
    be = asc.binding_energy_ev
    counts = asc.counts
    lo_ev, hi_ev = min(window), max(window)
    if lo_ev < be[0] or hi_ev > be[-1]:
        raise ValidationError("window endpoints must lie inside the spectrum")
    sel = (be >= lo_ev) & (be <= hi_ev)
    if np.count_nonzero(sel) < 5:
        raise ValidationError("window narrower than 5 points")
    e = be[sel]
    y = counts[sel]

    i_lo = float(np.mean(y[:3]))
    i_hi = float(np.mean(y[-3:]))
    scale = abs(i_hi - i_lo) + 1e-9 * max(1.0, float(y.max()))

    bg = np.full(y.size, i_lo)
    de = np.gradient(e)
    # the step times the running area of the counts above i_lo bounds the
    # first pass's background; one that overflows never converges
    with np.errstate(over="ignore", invalid="ignore"):
        reach = abs(i_hi - i_lo) * float(np.sum(np.abs(y - i_lo) * de))
    if not np.isfinite(reach):
        raise ValidationError("the running area of the Shirley window is not finite: "
                              "its counts are too large")
    for iteration in range(1, SHIRLEY_MAX_ITER + 1):
        s = y - bg
        # rectangle accumulation: each sample's weight lands at its own
        # position, which keeps an ideal step an exact fixed point
        area = np.cumsum(s * de)
        total = area[-1]
        if abs(total) < 1e-300:
            new_bg = bg.copy()
        else:
            new_bg = i_lo + (i_hi - i_lo) * area / total
        delta = float(np.max(np.abs(new_bg - bg)))
        bg = new_bg
        if delta < SHIRLEY_TOL * scale:
            return ShirleyBackground(e, y, np.minimum(bg, y), iteration)
    raise FitError(f"Shirley background did not converge in {SHIRLEY_MAX_ITER} iterations")


# ---------------------------------------------------------------------------
# band models
# ---------------------------------------------------------------------------

def pseudo_voigt(x, center, sigma, gamma, mix):
    """Area-normalized pseudo-Voigt profile.

    ``mix`` weights the Lorentzian part (HWHM ``gamma``); ``1 - mix`` weights
    the Gaussian part (standard deviation ``sigma``).
    """
    x = np.asarray(x, dtype=float)
    dx = x - center
    lor = (gamma / np.pi) / (dx**2 + gamma**2)
    gau = np.exp(-0.5 * (dx / sigma) ** 2) / (sigma * np.sqrt(2.0 * np.pi))
    return mix * lor + (1.0 - mix) * gau


@dataclass(frozen=True)
class Band:
    center_ev: float
    sigma_ev: float = 0.6
    gamma_ev: float = 0.5
    mix: float = 0.3
    amplitude: float = 0.0       # band area, counts * eV
    center_bound_ev: float = 0.5  # allowed excursion of the center in the fit

    def __post_init__(self):
        if self.sigma_ev <= 0 or self.gamma_ev <= 0:
            raise ValidationError("band widths must be positive")
        if not 0.0 <= self.mix <= 1.0:
            raise ValidationError("mix must lie in [0, 1]")
        if self.amplitude < 0:
            raise ValidationError("amplitude must be >= 0")
        if self.center_bound_ev <= 0:
            raise ValidationError("center bound must be positive")


@dataclass(frozen=True)
class BandModel:
    bands: tuple

    def __post_init__(self):
        bands = tuple(self.bands)
        if not bands:
            raise ValidationError("band model needs at least one band")
        if len({(b.sigma_ev, b.gamma_ev) for b in bands}) > 1:
            raise ValidationError("the bands of one line must share sigma_ev and gamma_ev")
        object.__setattr__(self, "bands", bands)

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        total = np.zeros_like(x)
        for b in self.bands:
            total += b.amplitude * pseudo_voigt(x, b.center_ev, b.sigma_ev,
                                                b.gamma_ev, b.mix)
        return total


@dataclass(frozen=True)
class BandFitResult:
    bands: tuple               # fitted bands; a band's amplitude is its area
    area_errors: np.ndarray
    degenerate: bool           # any band with area uncertainty above its area
    residual_rms: float
    n_iterations: int

    @property
    def model(self) -> BandModel:
        return BandModel(self.bands)

    @property
    def areas(self) -> np.ndarray:
        return np.array([b.amplitude for b in self.bands])


def fit_bands(be_ev, signal, model: BandModel) -> BandFitResult:
    """Fit the bands of ``model`` to a background-subtracted line.

    LM searches each band center, box-constrained to its ``center_bound_ev``
    around the nominal position, and the line's shared ``sigma_ev`` and
    ``gamma_ev``; the band areas are solved, non-negative, at every step
    (:func:`lsq.fit_separable`).  Mix factors stay fixed.  A band carrying
    area whose width falls below the grid step raises FitError.
    """
    be = np.asarray(be_ev, dtype=float)
    y = np.asarray(signal, dtype=float)
    if be.size != y.size or be.size < 5:
        raise ValidationError("need matching energy/signal arrays, >= 5 points")
    if be[0] > be[-1]:
        be, y = be[::-1], y[::-1]
    grid_step = float(median(np.diff(be)))

    bands = model.bands
    n = len(bands)
    sigma0, gamma0 = bands[0].sigma_ev, bands[0].gamma_ev
    mixes = np.array([b.mix for b in bands])
    res = fit_separable(
        lambda p: pseudo_voigt(be[:, None], p[:n], p[n], p[n + 1], mixes), y,
        [*(b.center_ev for b in bands), sigma0, gamma0],
        x_scale=[max(sigma0, gamma0)] * n + [sigma0, gamma0],
        lower=[b.center_ev - b.center_bound_ev for b in bands] + [0.05 * grid_step] * 2,
        upper=[b.center_ev + b.center_bound_ev for b in bands] + [np.inf] * 2)
    centers, (sigma_ev, gamma_ev), areas = res.params[:n], res.params[n:n + 2], res.params[n + 2:]
    fitted = tuple(
        replace(b, center_ev=float(c), sigma_ev=float(sigma_ev), gamma_ev=float(gamma_ev),
                amplitude=float(a))
        for b, c, a in zip(bands, centers, areas))
    total_area = float(areas.sum())
    for b in fitted:
        width = b.mix * b.gamma_ev * 2.0 + (1.0 - b.mix) * b.sigma_ev * 2.355
        # a band carrying real area must stay broader than the grid; a band
        # fitted to (near) zero amplitude may shrink harmlessly
        if width < grid_step and b.amplitude > 0.01 * max(total_area, 1e-30):
            raise FitError(f"band at {b.center_ev:.2f} eV collapsed below the grid step")
    area_errors = sigma(res.covariance)[n + 2:]
    y_scale = max(float(np.max(np.abs(y))), 1e-30)
    degenerate = bool(np.any(area_errors >
                             np.maximum(areas, 0.05 * total_area + 1e-3 * y_scale)))
    return BandFitResult(
        bands=fitted,
        area_errors=area_errors,
        degenerate=degenerate,
        residual_rms=float(np.sqrt(res.cost / y.size)),
        n_iterations=res.n_iterations,
    )


# ---------------------------------------------------------------------------
# quantification
# ---------------------------------------------------------------------------

def _element_symbol(line):
    """'Nb3d' -> 'Nb', 'O1s' -> 'O'; custom labels pass through unchanged."""
    head = ""
    for ch in line:
        if ch.isdigit():
            break
        head += ch
    return head or line


@dataclass(frozen=True)
class XpsQuantReport:
    """Atomic percentages and ratios to niobium."""

    atomic_percent: dict
    ratios_to_nb: dict


def atomic_percentages(integrated_areas, table: SensitivityTable) -> XpsQuantReport:
    """Sensitivity-weighted atomic percentages from integrated line areas.

    percent(x) = (area_x / F_x) / sum_i(area_i / F_i) * 100.  Ratios to Nb
    are included when a Nb3d area is present.
    """
    if not integrated_areas:
        raise ValidationError("no integrated areas supplied")
    for line, area in integrated_areas.items():
        if area < 0:
            raise ValidationError(f"area for {line} must be >= 0")
    weighted = {line: area / table[line] for line, area in integrated_areas.items()}
    total = sum(weighted.values())
    if total <= 0:
        raise ValidationError("all areas are zero; percentages undefined")
    percent = {line: 100.0 * w / total for line, w in weighted.items()}

    ratios = {}
    if "Nb3d" in percent:
        nb = percent["Nb3d"]
        for line, value in percent.items():
            if line == "Nb3d" or nb == 0:
                continue
            ratios[f"{_element_symbol(line)}/Nb"] = value / nb
    return XpsQuantReport(atomic_percent=percent, ratios_to_nb=ratios)
