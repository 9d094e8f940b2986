"""Quantify a synthetic lithium-niobate XPS survey: charge referencing,
Shirley backgrounds, O1s band deconvolution, and atomic percentages.

The surface is generated with a realistic composition, a +1.5 eV charging
shift, and an O1s line carrying both metal-oxide and organic-carbon oxygen
bands, then pushed through the full quantification chain.
"""
import pathlib

import numpy as np

from sawkit.synth import synth_xps_spectrum
from sawkit.svg import Panel, render_panels
from sawkit.xps import (
    O1S_BAND_CENTERS_EV,
    Band,
    BandModel,
    SensitivityTable,
    atomic_percentages,
    charge_shift,
    fit_bands,
    shirley_background,
)

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

CHARGING = 1.5  # eV, removed by Nb3d5/2 referencing

# band areas are chosen so the demo sensitivity table maps them to an
# LN-like composition (roughly O 60%, Nb 22%, Li 10%, C 8%)
lines = {
    # line: (grid, bands (center, sigma, gamma, mix, area), step levels)
    "O1s": (np.linspace(522, 540, 361),
            [(530.0, 0.7, 0.4, 0.2, 9000.0),
             (531.5, 0.7, 0.4, 0.2, 1400.0),
             (533.0, 0.7, 0.4, 0.2, 700.0)], (40, 170)),
    "C1s": (np.linspace(280, 292, 241),
            [(284.8, 0.7, 0.4, 0.2, 630.0)], (25, 55)),
    "Nb3d": (np.linspace(202, 214, 241),
             [(207.3, 0.5, 0.3, 0.2, 9700.0),
              (210.0, 0.5, 0.3, 0.2, 6500.0)], (30, 110)),
    "Li1s": (np.linspace(50, 60, 201),
             [(54.8, 0.6, 0.4, 0.2, 71.0)], (10, 22)),
}

spectra = []
for seed, (line, (be, bands, (lo, hi))) in enumerate(lines.items()):
    shifted_bands = [(c + CHARGING, s, g, m, a) for c, s, g, m, a in bands]
    spectra.append(synth_xps_spectrum(be + CHARGING, shifted_bands,
                                      element_line=line, step=(lo, hi, None, 0),
                                      step_shape="shirley", noise_sigma=1.2,
                                      rng_seed=seed))

referenced, shift = charge_shift(spectra)
print(f"charge shift applied: {shift:+.2f} eV (generated {-CHARGING:+.2f})")

areas = {}
panels = []
o1s_net = None
for sp in referenced:
    asc = sp.ascending()
    window = (float(asc.binding_energy_ev[0]), float(asc.binding_energy_ev[-1]))
    sh = shirley_background(sp, window)
    areas[sp.element_line] = sh.area
    if sp.element_line == "O1s":
        o1s_net = (sh.binding_energy_ev, sh.net)
    panel = Panel(title=sp.element_line, xlabel="binding energy (eV)",
                  ylabel="counts")
    panel.add_line(sh.binding_energy_ev, asc.counts, label="data")
    panel.add_line(sh.binding_energy_ev, sh.background, label="Shirley")
    panels.append(panel)

model = BandModel(tuple(Band(center_ev=c, sigma_ev=0.6, gamma_ev=0.5, mix=0.2)
                        for c in O1S_BAND_CENTERS_EV))
bands_fit = fit_bands(*o1s_net, model)
print("\nO1s band areas (metal oxide / C=O / C-O):")
for band, area in zip(bands_fit.model.bands, bands_fit.areas):
    print(f"  {band.center_ev:6.2f} eV: {area:8.0f} counts*eV")

table = SensitivityTable.default()
report = atomic_percentages(areas, table)
print("\natomic percentages (demo sensitivity table):")
for line, pct in sorted(report.atomic_percent.items()):
    print(f"  {line:5s} {pct:6.2f} %")
print("ratios to Nb:", {k: round(v, 2) for k, v in report.ratios_to_nb.items()})

(OUT / "xps_lines.svg").write_text(render_panels(panels, panel_height=240))
print(f"\nplot written to {OUT}/xps_lines.svg")
