"""Find drive orientations with zero acoustic beam steering.

Starts from a tabulated walk-off curve (here a synthetic anisotropy shape
with solver-style noise), smooths it, and locates the zero crossings where
diffraction loss from beam steering vanishes.  Also demonstrates the
flux-ratio formula that produces each curve sample from face-integrated
power flow.
"""
import pathlib

import numpy as np

from sawkit.spectra import WalkoffCurve
from sawkit.svg import Panel, render_panels
from sawkit.walkoff import find_zero_crossings, smooth_curve, walkoff_from_flux

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

# one curve sample from raw fluxes
eta = walkoff_from_flux(p_perp=0.42, p_par=3.1, a_perp=1.0, a_par=1.0)
print(f"flux-ratio example: eta = {eta:.2f} deg")

# synthetic anisotropy curve with two zero-steering orientations
rng = np.random.default_rng(0)
theta = np.arange(-90.0, 90.0 + 0.5, 1.0)
clean = 8.0 * np.sin(np.radians(2.0 * (theta + 30.0))) \
    + 2.0 * np.sin(np.radians(4.0 * theta + 25.0))
raw = WalkoffCurve(theta, clean + 0.4 * rng.standard_normal(theta.size))

smoothed = smooth_curve(raw, half_width=3)
zeros = find_zero_crossings(smoothed)
print("zero-steering drive angles:")
for z in zeros:
    print(f"  theta = {z.theta_deg:7.2f} deg  (+/- {z.uncertainty_deg:.2f}), "
          f"slope {z.slope_deg_per_deg:+.3f} deg/deg")

panel = Panel(title="beam steering vs drive angle", xlabel="theta (deg)",
              ylabel="walk-off eta (deg)")
panel.add_points(theta[::3], raw.eta_deg[::3], label="raw")
panel.add_line(theta, smoothed.eta_deg, label="smoothed")
for z in zeros:
    panel.add_vline(z.theta_deg)
(OUT / "walkoff_zeros.svg").write_text(render_panels([panel]), encoding="utf-8")
print(f"\nplot written to {OUT}/walkoff_zeros.svg")
