"""TLS saturation with drive power: forward curves and the inverse fit.

The internal quality factor rises as the drive saturates TLS loss channels
and plateaus at the residual Q.  A strongly TLS-limited device shows a big
swing; a residual-loss-limited device barely moves, which is why power
sweeps resolve the loss product less sharply than temperature sweeps.
"""
import pathlib

import numpy as np

from sawkit.synth import synth_power_sweep
from sawkit.svg import Panel, render_panels
from sawkit.tls import PowerModelParams, fit_power_sweep, qi_power_model

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

strong = PowerModelParams(f_delta_tls=5.66e-4, n_c=1e4, beta=0.5,
                          q_i_res=2.6e3, temperature_k=0.010, f0_hz=690e6)
weak = PowerModelParams(f_delta_tls=5.8e-6, n_c=1e4, beta=0.5,
                        q_i_res=2.6e3, temperature_k=0.010, f0_hz=690e6)

phonons = np.geomspace(1.0, 1e10, 25)
panel = Panel(title="TLS power saturation", xlabel="log10 phonon number",
              ylabel="Q_i")
for label, params in (("strong TLS", strong), ("weak TLS", weak)):
    q = qi_power_model(params, phonons)
    rise = q[-1] / q[0] - 1.0
    print(f"{label}: Q_i rises {rise:.1%} from low to high power")
    panel.add_line(np.log10(phonons), q, label=label)

series = synth_power_sweep(strong, phonons, noise_frac=0.02, rng_seed=3)
fit = fit_power_sweep(series)
p = fit.params
print(f"\nfit of the strong-TLS sweep (2% Q noise, beta free):")
print(f"  F*delta0 = {p.f_delta_tls:.3e}  (generated {strong.f_delta_tls:.3e})")
print(f"  n_c = {p.n_c:.3e}   beta = {p.beta:.3f}   Q_res = {p.q_i_res:.0f}")
if fit.beta_unidentifiable:
    print("  note: beta is not identified by this sweep")
panel.add_points(np.log10(series.mean_phonon_number), series.qi,
                 label="noisy sweep")
(OUT / "power_saturation.svg").write_text(render_panels([panel]), encoding="utf-8")
print(f"\nplot written to {OUT}/power_saturation.svg")
