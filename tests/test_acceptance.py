"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing a PASS line when it holds (run with -s to see them).
"""
import cmath
import json
import math
import time

import numpy as np
import pytest

from sawkit.afm import fit_step_heights, remove_line_tilt, rms_roughness
from sawkit.cli import main as cli_main
from sawkit.resonance import fit_resonance
from sawkit.spectra import AfmImage, ComplexSpectrum
from sawkit.synth import (
    synth_power_sweep,
    synth_s11,
    synth_terrace_image,
    synth_xps_spectrum,
)
from sawkit.tls import (
    PSI_HALF,
    PowerModelParams,
    fit_fdelta,
    fit_power_sweep,
    q_tls,
    qi_power_model,
    re_digamma_half_plus_imag,
)
from sawkit.synth import synth_temperature_sweep
from sawkit.walkoff import find_zero_crossings
from sawkit.spectra import WalkoffCurve
from sawkit.xps import (
    SensitivityTable,
    atomic_percentages,
    pseudo_voigt,
    shirley_background,
)
from sawkit.spectra import XpsSpectrum
from conftest import dip_depth, rates_from_qs, resonance_grid

TWO_PI = 2.0 * math.pi


def _pass(number, label):
    print(f"ACCEPTANCE {number:02d} ({label}): PASS")


def test_criterion_01_resonance_round_trip():
    t_start = time.perf_counter()
    draw = np.random.default_rng(2026)
    ok = 0
    for trial in range(100):
        f0 = draw.uniform(600e6, 800e6)
        qi = math.exp(draw.uniform(math.log(5e3), math.log(1.2e4)))
        qe = math.exp(draw.uniform(math.log(1.2e4), math.log(3e4)))
        kappa, kappa_e = rates_from_qs(f0, qi, qe)
        a = draw.uniform(0.5, 1.5) * cmath.exp(1j * draw.uniform(-math.pi, math.pi))
        tau = draw.uniform(-30e-9, 30e-9)
        grid = resonance_grid(f0, qi, qe, points=6001)  # ~1200 pts/linewidth
        noise = abs(a) * dip_depth(qi, qe) / 100.0  # 40 dB on the dip
        base = synth_s11(f0, kappa, kappa_e, grid, noise_sigma=noise,
                         rng_seed=trial)
        sp = ComplexSpectrum(grid, base.values * a
                             * np.exp(1j * TWO_PI * grid * tau))
        r = fit_resonance(sp)
        if (abs(r.qi - qi) / qi < 0.02 and abs(r.qe - qe) / qe < 0.02
                and abs(r.params.f0_hz - f0) / f0 < 1e-7):
            ok += 1
    elapsed = time.perf_counter() - t_start
    assert ok >= 95, f"only {ok}/100 round trips within tolerance"
    assert elapsed < 10.0, f"took {elapsed:.1f} s"

    # the published-device fixture
    f0, qi_t, qe_t = 688.4e6, 6.8e3, 1.4e4
    kappa, kappa_e = rates_from_qs(f0, qi_t, qe_t)
    grid = resonance_grid(f0, qi_t, qe_t, points=4001)
    sp = synth_s11(f0, kappa, kappa_e, grid,
                   noise_sigma=dip_depth(qi_t, qe_t) / 100.0, rng_seed=0)
    r = fit_resonance(sp)
    assert abs(r.qi - qi_t) / qi_t < 0.02
    assert abs(r.qe - qe_t) / qe_t < 0.02
    assert abs(r.params.f0_hz - f0) / f0 < 1e-7
    _pass(1, f"resonance round trip, {ok}/100 in {elapsed:.1f} s")


def test_criterion_02_dark_mode_round_trip():
    f0 = 679.564e6
    qi_t, qe_t = 6.8e3, 1.4e4
    kappa, kappa_e = rates_from_qs(f0, qi_t, qe_t)
    gamma = TWO_PI * 10e3
    g = TWO_PI * 15e3
    detune = 75e3  # dark mode 75 kHz above the primary
    grid = resonance_grid(f0, qi_t, qe_t, points=4001)
    noise = dip_depth(qi_t, qe_t) / 100.0  # 40 dB
    for seed in range(5):
        sp = synth_s11(f0, kappa, kappa_e, grid, dark=(g, detune, gamma),
                       noise_sigma=noise, rng_seed=seed)
        r = fit_resonance(sp, model_kind="dark_mode")
        dark = r.params.dark
        assert abs(dark.g_hz - g) / g < 0.05
        assert abs(dark.gamma_hz - gamma) / gamma < 0.05
        fitted_detune = dark.f_dark_hz - r.params.f0_hz
        assert abs(fitted_detune - detune) / detune < 0.05
    _pass(2, "dark-mode round trip at 75 kHz detuning")


def test_criterion_03_digamma_accuracy(series_digamma_oracle):
    for y in (0.0, 0.01, 0.1, 1.0, 5.0, 8.0, 20.0, 100.0):
        assert abs(re_digamma_half_plus_imag(y) - series_digamma_oracle(y)) <= 1e-10
    gamma_e = 0.5772156649015328606
    assert abs(re_digamma_half_plus_imag(0.0) - (-gamma_e - 2 * math.log(2))) <= 1e-12
    assert abs(PSI_HALF - (-gamma_e - 2 * math.log(2))) <= 1e-12
    _pass(3, "digamma vs series oracle")


def test_criterion_04_temperature_sweep_inversion():
    temps = np.linspace(0.010, 0.200, 20)
    worst = 100
    for truth in (5.8e-6, 7.7e-6, 1.06e-5, 1.24e-5, 2.48e-5, 7.53e-5):
        ok = 0
        for seed in range(100):
            series = synth_temperature_sweep(truth, 690e6, temps,
                                             noise_sigma_hz=10.0, rng_seed=seed)
            fit = fit_fdelta(series)
            if abs(fit.f_delta_tls - truth) / truth < 0.05:
                ok += 1
        assert ok >= 90, f"f_delta {truth}: only {ok}/100 within 5%"
        worst = min(worst, ok)
    _pass(4, f"temperature-sweep inversion, worst {worst}/100")


def test_criterion_05_q_tls_consistency():
    # independent scalar: exact SI constants, plain arithmetic
    hbar, kb = 1.054571817e-34, 1.380649e-23
    arg = hbar * 2.0 * math.pi * 690e6 / (2.0 * kb * 0.010)
    assert arg == pytest.approx(1.655, abs=2e-3)
    expected = 1.0 / (5.8e-6 * math.tanh(arg))
    got = q_tls(5.8e-6, 690e6, 0.010)
    assert abs(got - expected) / expected <= 1e-12
    assert 1e4 <= got <= 3e5
    _pass(5, f"Q_TLS = {got:.3e} inside [1e4, 3e5]")


def test_criterion_06_power_model_limits_and_recovery():
    p = PowerModelParams(f_delta_tls=5.66e-4, n_c=1e4, beta=1.0, q_i_res=2.6e3,
                         temperature_k=0.010, f0_hz=690e6)
    hbar, kb = 1.054571817e-34, 1.380649e-23
    tanh_arg = math.tanh(hbar * 2 * math.pi * p.f0_hz / (2 * kb * p.temperature_k))
    unsaturated = 1.0 / (p.f_delta_tls * tanh_arg + 1.0 / p.q_i_res)
    assert abs(qi_power_model(p, 1e-12 * p.n_c) - unsaturated) / unsaturated < 1e-3
    assert abs(qi_power_model(p, 1e12 * p.n_c) - p.q_i_res) / p.q_i_res < 1e-3

    truth = PowerModelParams(f_delta_tls=5.66e-4, n_c=1e4, beta=0.5,
                             q_i_res=2.6e3, temperature_k=0.010, f0_hz=690e6)
    for seed in range(10):
        series = synth_power_sweep(truth, np.geomspace(1.0, 1e10, 25),
                                   noise_frac=0.02, rng_seed=seed)
        fit = fit_power_sweep(series)
        assert abs(fit.params.f_delta_tls - truth.f_delta_tls) \
            / truth.f_delta_tls < 0.10
    _pass(6, "power-model limits and noisy recovery")


def test_criterion_07_shirley():
    # fixture 1: zero spectrum
    be = np.linspace(520, 540, 81)
    sh = shirley_background(XpsSpectrum(be, np.zeros(81), "O1s"), (520, 540))
    assert sh.n_iterations <= 50
    assert np.all(sh.background == 0)

    # fixture 2: ideal sharp step between flat plateaus
    be2 = np.arange(0, 17, 1.0) + 520.0
    counts2 = np.where(be2 < 532.5, 100.0, 300.0)
    sp2 = XpsSpectrum(be2, counts2, "O1s")
    sh2 = shirley_background(sp2, (520.0, 536.0))
    assert sh2.n_iterations <= 50
    assert np.all(sh2.background <= counts2 + 1e-12)
    assert np.max(np.abs(sh2.background - counts2)) <= 1e-4 * 200.0

    # fixture 3: peak on an inelastic step, area recovered within 1%
    be3 = np.linspace(522, 538, 321)
    band = (530.0, 0.6, 0.3, 0.15, 5000.0)
    sp3 = synth_xps_spectrum(be3, [band], step=(50, 200, None, 0),
                             step_shape="shirley")
    sh3 = shirley_background(sp3, (522, 538))
    assert sh3.n_iterations <= 50
    sel = (be3 >= sh3.binding_energy_ev[0]) & (be3 <= sh3.binding_energy_ev[-1])
    assert np.all(sh3.background <= sp3.counts[sel] + 1e-12)
    in_window = np.trapezoid(5000.0 * pseudo_voigt(be3, *band[:4]), be3)
    area = sh3.area
    assert abs(area - in_window) / in_window < 0.01
    _pass(7, f"Shirley fixtures, peak area within {abs(area - in_window) / in_window:.2%}")


def test_criterion_08_atomic_percentages():
    table = SensitivityTable({"O1s": 0.733, "Nb3d": 2.921, "Li1s": 0.028})
    areas = {"O1s": 91.1, "Nb3d": 120.7, "Li1s": 0.52}
    base = atomic_percentages(areas, table)
    for c in (2.0, 0.5, 1024.0):
        scaled = atomic_percentages({k: c * v for k, v in areas.items()}, table)
        assert scaled.atomic_percent == base.atomic_percent  # exact

    unit = SensitivityTable({"O1s": 1.0, "Nb3d": 1.0, "Li1s": 1.0})
    report = atomic_percentages({"O1s": 67.0, "Nb3d": 22.3, "Li1s": 10.0}, unit)
    li_nb = report.ratios_to_nb["Li/Nb"]
    assert 0.46 - 0.09 <= li_nb <= 0.46 + 0.09

    eq = atomic_percentages({"O1s": 5.0, "C1s": 5.0},
                            SensitivityTable({"O1s": 1.0, "C1s": 1.0}))
    assert eq.atomic_percent["O1s"] == 50.0
    assert eq.atomic_percent["C1s"] == 50.0
    _pass(8, f"atomic percentages, Li/Nb = {li_nb:.3f}")


def test_criterion_09_afm():
    # constant image: exactly zero roughness
    assert rms_roughness(AfmImage(np.full((32, 32), 2e-9), (1e-9, 1e-9))) == 0.0

    # gaussian-noise image recovers its sigma within 2%
    rng = np.random.default_rng(7)
    img = AfmImage(168.7e-12 * rng.standard_normal((128, 128)), (1e-9, 1e-9))
    assert abs(rms_roughness(img) - 168.7e-12) / 168.7e-12 < 0.02

    # tilt removal is idempotent (to floating-point roundoff)
    terr = synth_terrace_image((64, 64), noise_sigma_m=8e-11,
                               tilt_m_per_px=(2e-12, 1e-12), rng_seed=3)
    once = remove_line_tilt(terr)
    twice = remove_line_tilt(once)
    assert np.max(np.abs(twice.heights_m - once.heights_m)) < 1e-22

    # three-terrace step recovery, 100 seeds per step value
    counts = {}
    for step in (2.0e-10, 2.4e-10):
        ok = 0
        for seed in range(100):
            image = synth_terrace_image((160, 160), step_m=step,
                                        noise_sigma_m=8.0e-11, rng_seed=seed)
            try:
                result = fit_step_heights(image)
            except Exception:
                continue
            if abs(result.mean_step_m - step) / step < 0.15:
                ok += 1
        assert ok >= 90, f"step {step}: only {ok}/100 within 15%"
        counts[step] = ok
    _pass(9, f"AFM, steps {counts[2e-10]}/100 and {counts[2.4e-10]}/100")


def test_criterion_10_walkoff():
    th = np.arange(-90.0, 90.0 + 0.5, 1.0)
    theta0 = -30.0
    eta = np.sin(np.radians(2.0 * (th - theta0)))
    curve = WalkoffCurve(th, eta)
    zeros = find_zero_crossings(curve)
    assert len(zeros) == 2
    assert abs(zeros[0].theta_deg - theta0) < 0.5
    assert abs(zeros[1].theta_deg - (theta0 + 90.0)) < 0.5

    # exact odd symmetry and (dyadic) scale invariance of the zero set
    base = [z.theta_deg for z in zeros]
    assert [z.theta_deg for z in find_zero_crossings(WalkoffCurve(th, -eta))] == base
    for c in (2.0, 0.5, 4.0):
        scaled = [z.theta_deg for z in find_zero_crossings(WalkoffCurve(th, c * eta))]
        assert scaled == base
    _pass(10, "walk-off zeros, symmetry, scale invariance")


def test_criterion_11_cli_determinism(tmp_path):
    def run_all(out_dir):
        out_dir.mkdir()
        trace = out_dir / "trace.csv"
        assert cli_main(["synth", "s11", "--noise", "0.004", "--seed", "9",
                         "--points", "2001", "--output", str(trace)]) == 0
        assert cli_main(["fit-resonance", str(trace), "--out", str(out_dir),
                         "--emit-svg"]) == 0
        sweep = out_dir / "sweep.csv"
        assert cli_main(["synth", "tempsweep", "--noise-hz", "10", "--seed", "9",
                         "--output", str(sweep)]) == 0
        assert cli_main(["fit-tempsweep", str(sweep), "--out", str(out_dir)]) == 0
        grid = out_dir / "grid.txt"
        assert cli_main(["synth", "afm", "--seed", "9", "--nx", "96", "--ny",
                         "96", "--output", str(grid)]) == 0
        assert cli_main(["afm", str(grid), "--fit-steps",
                         "--out", str(out_dir)]) == 0
        return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

    first = run_all(tmp_path / "run1")
    second = run_all(tmp_path / "run2")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    json.loads(first["trace.fit.json"])  # reports stay parseable JSON
    _pass(11, "CLI determinism, byte-identical outputs")
