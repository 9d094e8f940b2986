"""Fit a reflection trace from a SAW resonator, with and without a dark mode.

Generates a realistic 688.4 MHz trace (Qi = 6.8e3, Qe = 1.4e4, 40 dB SNR),
runs the Lorentzian fit, then repeats with a weakly coupled dark mode
75 kHz above the primary and fits the coupled model.  Writes overlay plots
to demos/output/.
"""
import pathlib

import numpy as np

from sawkit.resonance import eval_s11, fit_resonance
from sawkit.synth import synth_s11
from sawkit.svg import Panel, render_panels

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

f0 = 688.4e6
qi, qe = 6.8e3, 1.4e4
w0 = 2 * np.pi * f0
kappa_e = w0 / qe
kappa = kappa_e + w0 / qi

ql = 1 / (1 / qi + 1 / qe)
fwhm = f0 / ql
grid = np.linspace(f0 - 2.5 * fwhm, f0 + 2.5 * fwhm, 3001)
depth = 1 - abs(qe - qi) / (qe + qi)

print("=== single-mode fit ===")
trace = synth_s11(f0, kappa, kappa_e, grid, noise_sigma=depth / 100, rng_seed=1)
result = fit_resonance(trace)
print(f"  f0 = {result.params.f0_hz / 1e6:.6f} MHz "
      f"(+/- {result.param_errors['f0_hz']:.1f} Hz)")
print(f"  Qi = {result.qi:.0f} +/- {result.qi_err:.0f}   "
      f"Qe = {result.qe:.0f} +/- {result.qe_err:.0f}   (generated: {qi:.0f} / {qe:.0f})")
print(f"  residual rms = {result.residual_rms:.2e}, "
      f"{result.n_iterations} iterations")

panel = Panel(title="S11 magnitude", xlabel="frequency (Hz)", ylabel="|S11|")
panel.add_points(grid[::10], np.abs(trace.values[::10]), label="data")
panel.add_line(grid, np.abs(eval_s11(result.params, grid)), label="fit")
(OUT / "resonance_fit.svg").write_text(render_panels([panel]), encoding="utf-8")

print("\n=== dark-mode fit ===")
gamma = 2 * np.pi * 10e3
g = 2 * np.pi * 15e3
trace = synth_s11(f0, kappa, kappa_e, grid, dark=(g, 75e3, gamma),
                  noise_sigma=depth / 100, rng_seed=2)
result = fit_resonance(trace, model_kind="dark_mode")
dark = result.params.dark
print(f"  dark mode {(dark.f_dark_hz - result.params.f0_hz) / 1e3:.1f} kHz "
      f"above the primary (generated: 75.0 kHz)")
print(f"  g/2pi = {dark.g_hz / (2 * np.pi * 1e3):.2f} kHz, "
      f"gamma/2pi = {dark.gamma_hz / (2 * np.pi * 1e3):.2f} kHz")

panel = Panel(title="S11 with dark mode", xlabel="frequency (Hz)",
              ylabel="|S11|")
panel.add_points(grid[::10], np.abs(trace.values[::10]), label="data")
panel.add_line(grid, np.abs(eval_s11(result.params, grid)), label="fit")
panel.add_vline(dark.f_dark_hz)
(OUT / "resonance_dark_mode.svg").write_text(render_panels([panel]), encoding="utf-8")
print(f"\nplots written to {OUT}/")
