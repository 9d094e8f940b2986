import cmath
import functools
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import optimize as scipy_optimize

from sawkit import cli, lsq, resonance
from sawkit.errors import FitError, ValidationError
from sawkit.lsq import fit_least_squares
from sawkit.lsq import numeric_jacobian as lsq_numeric_jacobian
from sawkit.resonance import (
    DarkModeParams,
    ResonanceModelParams,
    estimate_initial_params,
    eval_s11,
    fit_resonance,
    q_factors,
)
from sawkit.spectra import ComplexSpectrum
from sawkit.synth import synth_s11
from conftest import assert_sigma_matches_scatter, dip_depth, rates_from_qs, resonance_grid

TWO_PI = 2.0 * math.pi


def report(result):
    """``result`` as the report ``sawkit`` writes of it, read back."""
    return json.loads(cli._canonical_json(result))


def oracle_eval(f, f0, kappa, kappa_e, a=1.0, tau=0.0,
                f_dark=None, gamma=0.0, g=0.0):
    """Independent scalar-complex evaluation of the reflection model."""
    den = complex(kappa / 2.0, TWO_PI * (f - f0))
    if f_dark is not None:
        den += g * g / complex(gamma / 2.0, TWO_PI * (f - f_dark))
    return a * cmath.exp(1j * TWO_PI * f * tau) * (1.0 - kappa_e / den)


class TestEvalS11:
    def test_critical_coupling_zero(self):
        p = ResonanceModelParams(f0_hz=6.9e8, kappa_hz=1e6, kappa_e_hz=5e5)
        assert abs(eval_s11(p, 6.9e8)) < 1e-15

    def test_decoupled_cavity_is_pure_background(self):
        a = 0.8 * cmath.exp(0.3j)
        p = ResonanceModelParams(f0_hz=6.9e8, kappa_hz=1e6, kappa_e_hz=1e-3,
                                 a=a, tau_s=2e-9)
        for f in (6.89e8, 6.9e8, 6.91e8):
            expected = a * cmath.exp(1j * TWO_PI * f * 2e-9)
            assert abs(eval_s11(p, f) - expected) < 1e-8

    def test_strong_dark_mode_shields_response(self):
        # on dark-mode resonance a large g^2/gamma swamps the denominator
        dark = DarkModeParams(f_dark_hz=6.9e8 + 5e4, gamma_hz=2e3, g_hz=5e6)
        p = ResonanceModelParams(f0_hz=6.9e8, kappa_hz=1e6, kappa_e_hz=4e5,
                                 dark=dark)
        at_dark = eval_s11(p, dark.f_dark_hz)
        assert abs(at_dark - 1.0) < 1e-3

    def test_matches_independent_oracle_at_random_points(self, rng):
        for _ in range(10):
            f0 = rng.uniform(6e8, 8e8)
            kappa = rng.uniform(1e5, 5e6)
            kappa_e = kappa * rng.uniform(0.05, 0.95)
            a = rng.uniform(0.3, 1.5) * cmath.exp(1j * rng.uniform(-np.pi, np.pi))
            tau = rng.uniform(-5e-8, 5e-8)
            dark = DarkModeParams(f_dark_hz=f0 + rng.uniform(-2e5, 2e5),
                                  gamma_hz=rng.uniform(1e3, 1e5),
                                  g_hz=rng.uniform(0, 2e5))
            p = ResonanceModelParams(f0_hz=f0, kappa_hz=kappa, kappa_e_hz=kappa_e,
                                     dark=dark, a=a, tau_s=tau)
            f = f0 + rng.uniform(-5e5, 5e5)
            expected = oracle_eval(f, f0, kappa, kappa_e, a, tau,
                                   dark.f_dark_hz, dark.gamma_hz, dark.g_hz)
            assert abs(eval_s11(p, f) - expected) <= 1e-12 * abs(expected)

    def test_background_at_a_reference_frequency(self):
        # a background given at f_ref is the one at f = 0 turned by the delay
        # over f_ref: both parametrisations give the same trace
        a, tau, f_ref = 0.8 * cmath.exp(0.3j), 2.9e-8, 6.9e8
        at_zero = ResonanceModelParams(f0_hz=6.9e8, kappa_hz=1e6, kappa_e_hz=4e5,
                                       a=a, tau_s=tau)
        at_ref = ResonanceModelParams(f0_hz=6.9e8, kappa_hz=1e6, kappa_e_hz=4e5,
                                      a=a * cmath.exp(1j * TWO_PI * f_ref * tau),
                                      tau_s=tau, f_ref_hz=f_ref)
        grid = np.linspace(6.89e8, 6.91e8, 101)
        assert np.allclose(eval_s11(at_ref, grid), eval_s11(at_zero, grid),
                           rtol=0.0, atol=1e-12)
        assert eval_s11(at_ref, f_ref) == pytest.approx(
            a * cmath.exp(1j * TWO_PI * f_ref * tau) * (1.0 - 4e5 / 5e5), abs=1e-15)

    def test_hermitian_symmetry_of_rational_model(self):
        # real background, no delay: mirroring all detunings conjugates S11
        f0 = 6.9e8
        p = ResonanceModelParams(f0_hz=f0, kappa_hz=8e5, kappa_e_hz=3e5,
                                 dark=DarkModeParams(f0, 5e4, 7e4), a=1.2)
        offsets = np.linspace(1e3, 4e5, 57)
        up = eval_s11(p, f0 + offsets)
        down = eval_s11(p, f0 - offsets)
        assert np.allclose(up, np.conj(down), rtol=1e-12, atol=1e-14)

    def test_param_validation(self):
        with pytest.raises(ValidationError):
            ResonanceModelParams(f0_hz=6.9e8, kappa_hz=1e5, kappa_e_hz=2e5)
        with pytest.raises(ValidationError):
            DarkModeParams(f_dark_hz=6.9e8, gamma_hz=-1.0, g_hz=1.0)


class TestQFactors:
    def test_device_values_from_rates(self):
        # frozen from scalar arithmetic: q = f0 / (rate / 2 pi)
        p = ResonanceModelParams(f0_hz=690e6,
                                 kappa_hz=TWO_PI * (49.3e3 + 101.5e3),
                                 kappa_e_hz=TWO_PI * 49.3e3)
        qi, qe = q_factors(p)
        assert qe == pytest.approx(13995.943204868154, rel=1e-12)
        assert qi == pytest.approx(6798.029556650246, rel=1e-12)
        assert qi == pytest.approx(6.8e3, rel=0.01)
        assert qe == pytest.approx(1.4e4, rel=0.01)

    def test_symmetric_coupling(self):
        p = ResonanceModelParams(f0_hz=6.9e8, kappa_hz=2e5, kappa_e_hz=1e5)
        qi, qe = q_factors(p)
        assert qi == pytest.approx(qe, rel=1e-14)


class TestInitialEstimate:
    def test_noiseless_dip_located_within_grid_step(self):
        f0 = 688.4e6
        kappa, kappa_e = rates_from_qs(f0, 6.8e3, 1.4e4)
        grid = resonance_grid(f0, 6.8e3, 1.4e4, points=1001)
        sp = synth_s11(f0, kappa, kappa_e, grid)
        init = estimate_initial_params(sp)
        step = grid[1] - grid[0]
        assert abs(init.f0_hz - f0) <= step
        assert init.kappa_hz == pytest.approx(kappa, rel=0.2)

    def test_flat_trace_rejected(self):
        grid = np.linspace(6.8e8, 7.0e8, 64)
        sp = ComplexSpectrum(grid, np.ones(64, complex))
        with pytest.raises(FitError, match="dip"):
            estimate_initial_params(sp)

    def test_vanishing_background_rejected(self):
        grid = np.linspace(6.8e8, 7.0e8, 64)
        sp = ComplexSpectrum(grid, np.zeros(64, complex))
        with pytest.raises(FitError, match="dip"):
            estimate_initial_params(sp)

    @pytest.mark.parametrize("qi,qe", [(2e4, 5e3), (2e5, 2e3)])
    def test_overcoupled_start_on_its_own_branch(self, qi, qe):
        # Qe < Qi: the same |S11| dip depth also fits kappa - kappa_e, so a
        # magnitude-only start lands on the undercoupled branch
        f0 = 688.4e6
        kappa, kappa_e = rates_from_qs(f0, qi, qe)
        sp = synth_s11(f0, kappa, kappa_e, resonance_grid(f0, qi, qe))
        init = estimate_initial_params(sp)
        assert init.kappa_e_hz == pytest.approx(kappa_e, rel=0.2)

    @pytest.mark.parametrize("grid", [np.linspace(1e200, 1.0001e200, 64),
                                      np.linspace(-1.0, 1.0, 64) * 1e308,
                                      np.linspace(0.0, 1e-170, 64)],
                             ids=["far", "wide", "tiny"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_span_whose_squared_turns_overflow_or_vanish_refused(self, grid):
        # the squared turns 2*pi*(f - fc) of the edges about their centroid
        # overflow, or sum to zero: the span is named, before the flat trace
        # could read as one with no dip or the slope divide by zero
        sp = ComplexSpectrum(grid, np.ones(grid.size, complex))
        with pytest.raises(ValidationError, match="frequency span .* is out of range"):
            estimate_initial_params(sp)

    def test_truncated_dip_rejected(self):
        f0 = 6.9e8
        kappa, kappa_e = rates_from_qs(f0, 6.8e3, 1.4e4)
        fwhm = kappa / TWO_PI
        grid = np.linspace(f0 - 0.2 * fwhm, f0 + 6 * fwhm, 600)
        sp = synth_s11(f0, kappa, kappa_e, grid)
        with pytest.raises(FitError, match="truncat"):
            estimate_initial_params(sp)


def _lorentzian_draw(seed):
    f0, qi, qe = 688.4e6, 6.8e3, 1.4e4
    kappa, kappa_e = rates_from_qs(f0, qi, qe)
    grid = resonance_grid(f0, qi, qe, span_linewidths=5.0, points=2001)
    return fit_resonance(synth_s11(f0, kappa, kappa_e, grid, noise_sigma=0.004,
                                   rng_seed=seed))


def _dark_mode_draw(seed):
    # the 75 kHz dark mode of test_dark_mode_detuning_recovered
    f0 = 679.564e6
    kappa, kappa_e = rates_from_qs(f0, 6.8e3, 1.4e4)
    grid = resonance_grid(f0, 6.8e3, 1.4e4, points=4001)
    sp = synth_s11(f0, kappa, kappa_e, grid, dark=(TWO_PI * 15e3, 75e3, TWO_PI * 10e3),
                   noise_sigma=dip_depth(6.8e3, 1.4e4) / 100.0, rng_seed=seed)
    return fit_resonance(sp, model_kind="dark_mode")


def _delayed_draw(seed):
    # a high-Q mode behind a 29 ns delay and a rotated, attenuated
    # background: 2*pi*f0*tau is 125 rad, so the background at f = 0 would
    # differ from the grid-centre one the fit reports by a large turn
    f0, qi, qe, tau = 688.4e6, 1.9e4, 3e4, 29e-9
    a = 0.4 * cmath.exp(1.3j)
    kappa, kappa_e = rates_from_qs(f0, qi, qe)
    grid = resonance_grid(f0, qi, qe, span_linewidths=5.0, points=6001)
    rng = np.random.default_rng(seed)
    noise = 0.004 * (rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size))
    values = a * synth_s11(f0, kappa, kappa_e, grid).values \
        * np.exp(1j * TWO_PI * grid * tau) + noise
    return fit_resonance(ComplexSpectrum(grid, values))


#: one fitter of a noise draw per case of the seed-scatter test
SIGMA_CASES = {"lorentzian": _lorentzian_draw, "dark_mode": _dark_mode_draw,
               "delayed": _delayed_draw}
_BASE_KEYS = ("f0_hz", "kappa_hz", "kappa_e_hz", "a_re", "a_im", "tau_s", "qi", "qe")
SIGMA_KEYS = (
    [pytest.param("lorentzian", k, id=k) for k in _BASE_KEYS]
    + [pytest.param("dark_mode", k, id=f"dark-{k}")
       for k in _BASE_KEYS + ("f_dark_hz", "gamma_hz", "g_hz")]
    + [pytest.param("delayed", k, id=f"delayed-{k}") for k in _BASE_KEYS])


@functools.cache
def seed_fits(case):
    """Fits of 30 noise draws of one case, shared by the keys of the case."""
    return [SIGMA_CASES[case](seed) for seed in range(30)]


class TestFitResonance:
    def test_device_regime_fixture_recovered(self):
        f0, qi_t, qe_t = 688.4e6, 6.8e3, 1.4e4
        kappa, kappa_e = rates_from_qs(f0, qi_t, qe_t)
        grid = resonance_grid(f0, qi_t, qe_t, points=2001)
        noise = dip_depth(qi_t, qe_t) / 100.0  # 40 dB on the resonance feature
        sp = synth_s11(f0, kappa, kappa_e, grid, noise_sigma=noise, rng_seed=0)
        result = fit_resonance(sp)
        assert result.qi == pytest.approx(qi_t, rel=0.02)
        assert result.qe == pytest.approx(qe_t, rel=0.02)
        assert result.params.f0_hz == pytest.approx(f0, rel=1e-7)
        assert result.param_errors["kappa_e_hz"] > 0

    def test_noiseless_fit_is_exact_model_recovery(self):
        f0 = 688.4e6
        kappa, kappa_e = rates_from_qs(f0, 6.8e3, 1.4e4)
        grid = resonance_grid(f0, 6.8e3, 1.4e4, points=1201)
        sp = synth_s11(f0, kappa, kappa_e, grid)
        result = fit_resonance(sp)
        assert result.residual_rms < 1e-10

    def test_reported_background_reproduces_the_trace(self):
        # a noiseless delayed trace: the background is reported at the grid
        # centre, and the reported parameters give back the trace
        f0, tau = 688.4e6, 29e-9
        kappa, kappa_e = rates_from_qs(f0, 1.9e4, 3e4)
        grid = resonance_grid(f0, 1.9e4, 3e4, points=1201)
        values = 0.4 * cmath.exp(1.3j) * synth_s11(f0, kappa, kappa_e, grid).values \
            * np.exp(1j * TWO_PI * grid * tau)
        params = fit_resonance(ComplexSpectrum(grid, values)).params
        assert params.f_ref_hz == grid[600]
        assert params.a == pytest.approx(0.4 * cmath.exp(1.3j + 1j * TWO_PI * grid[600] * tau),
                                         abs=1e-10)
        assert np.abs(eval_s11(params, grid) - values).max() < 1e-10

    def test_dark_mode_detuning_recovered(self):
        f0 = 679.564e6
        kappa, kappa_e = rates_from_qs(f0, 6.8e3, 1.4e4)
        gamma = TWO_PI * 10e3
        g = TWO_PI * 15e3
        grid = resonance_grid(f0, 6.8e3, 1.4e4, points=4001)
        noise = dip_depth(6.8e3, 1.4e4) / 100.0
        sp = synth_s11(f0, kappa, kappa_e, grid, dark=(g, 75e3, gamma),
                       noise_sigma=noise, rng_seed=2)
        result = fit_resonance(sp, model_kind="dark_mode")
        dark = result.params.dark
        assert (dark.f_dark_hz - result.params.f0_hz) == pytest.approx(75e3, rel=0.05)
        assert dark.g_hz == pytest.approx(g, rel=0.05)
        assert dark.gamma_hz == pytest.approx(gamma, rel=0.05)

    def test_dark_model_on_bare_lorentzian_reports_the_lorentzian_fit(self):
        # without a dark mode the gate rejects the extra pole, and the report
        # is the Lorentzian fit itself, with its own errors
        f0 = 6.9e8
        kappa, kappa_e = rates_from_qs(f0, 6.8e3, 1.4e4)
        grid = resonance_grid(f0, 6.8e3, 1.4e4, points=2001)
        noise = dip_depth(6.8e3, 1.4e4) / 100.0
        for seed in range(12):
            sp = synth_s11(f0, kappa, kappa_e, grid, noise_sigma=noise,
                           rng_seed=seed)
            result = fit_resonance(sp, model_kind="dark_mode")
            lorentz = fit_resonance(sp)
            assert result.params.dark is None
            assert result.params == lorentz.params
            assert result.param_errors == lorentz.param_errors

    def test_spurious_pole_stays_inside_the_trace(self):
        # without a dark mode the extra pole is searched within the trace's
        # span, so its fit converges and the gate leaves the Lorentzian
        f0 = 6.9e8
        kappa, kappa_e = rates_from_qs(f0, 6.8e3, 1.4e4)
        grid = np.linspace(f0 - 400e3, f0 + 400e3, 3001)
        sp = synth_s11(f0, kappa, kappa_e, grid, noise_sigma=0.005, rng_seed=2)
        lorentz = report(fit_resonance(sp))
        dark = report(fit_resonance(sp, model_kind="dark_mode"))
        assert dark.pop("n_iterations") < lsq.MAX_ITER
        lorentz.pop("n_iterations")
        assert dark == lorentz

    @pytest.mark.parametrize("seed", [1, 2])
    def test_dark_mode_near_the_span_edge_recovered(self, seed):
        # 3.5 linewidths out on a +-5 linewidth grid: the bound that keeps
        # the pole inside the trace does not hold back a real dark mode
        f0 = 688.4e6
        kappa, kappa_e = rates_from_qs(f0, 6.8e3, 1.4e4)
        fwhm = kappa / TWO_PI
        grid = resonance_grid(f0, 6.8e3, 1.4e4, span_linewidths=5.0, points=6001)
        sp = synth_s11(f0, kappa, kappa_e, grid,
                       dark=(0.12 * kappa, 3.5 * fwhm, 0.07 * kappa),
                       noise_sigma=0.004, rng_seed=seed)
        dark = fit_resonance(sp, model_kind="dark_mode").params.dark
        assert (dark.f_dark_hz - f0) / fwhm == pytest.approx(3.5, abs=0.01)

    def test_dark_fit_that_does_not_converge_leaves_the_lorentzian(self, monkeypatch):
        # a 9-parameter fit that gives up is reported as the Lorentzian fit,
        # and the iterations count both fits
        f0 = 679.564e6
        kappa, kappa_e = rates_from_qs(f0, 6.8e3, 1.4e4)
        grid = resonance_grid(f0, 6.8e3, 1.4e4, points=4001)
        sp = synth_s11(f0, kappa, kappa_e, grid,
                       dark=(TWO_PI * 15e3, 75e3, TWO_PI * 10e3),
                       noise_sigma=0.004, rng_seed=2)

        def dark_fit_fails(fun, p0, **kwargs):
            if len(p0) == 9:
                raise FitError("no convergence")
            return fit_least_squares(fun, p0, **kwargs)

        lorentz = report(fit_resonance(sp))
        monkeypatch.setattr(resonance, "fit_least_squares", dark_fit_fails)
        dark = report(fit_resonance(sp, model_kind="dark_mode"))
        assert dark.pop("n_iterations") == lorentz.pop("n_iterations") + lsq.MAX_ITER
        assert dark == lorentz

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("model_kind", ["lorentzian", "dark_mode"])
    def test_fit_pinned_at_a_bound_raises_before_the_dark_mode(self, model_kind):
        # on a flat noisy trace the Lorentzian fit leaves 0 < kappa_e < kappa;
        # the dark mode is not seeded from its rates
        grid = np.linspace(100e6, 101e6, 200)
        rng = np.random.default_rng(1)
        sp = ComplexSpectrum(grid, 1.0 + 0.01 * (rng.standard_normal(200)
                                                 + 1j * rng.standard_normal(200)))
        with pytest.raises(FitError, match="physical bound"):
            fit_resonance(sp, model_kind=model_kind)

    def test_cost_non_increasing_and_iteration_count(self):
        f0 = 6.9e8
        kappa, kappa_e = rates_from_qs(f0, 5e3, 2e4)
        grid = resonance_grid(f0, 5e3, 2e4, points=801)
        sp = synth_s11(f0, kappa, kappa_e, grid, noise_sigma=0.005, rng_seed=1)
        result = fit_resonance(sp)
        assert 0 < result.n_iterations <= 200

    def test_roundtrip_property_randomized(self, rng):
        # 30 dB on the dip, >= 10 points per linewidth: kappa and kappa_e
        # within 5%, f0 within 1e-6 relative
        for trial in range(20):
            f0 = rng.uniform(6e8, 8e8)
            qi = math.exp(rng.uniform(math.log(2e3), math.log(1.2e4)))
            qe = math.exp(rng.uniform(math.log(1e4), math.log(3e4)))
            kappa, kappa_e = rates_from_qs(f0, qi, qe)
            a = rng.uniform(0.5, 1.5) * cmath.exp(1j * rng.uniform(-np.pi, np.pi))
            tau = rng.uniform(-3e-8, 3e-8)
            grid = resonance_grid(f0, qi, qe, points=2001)
            noise = abs(a) * dip_depth(qi, qe) / 10.0 ** (30 / 20)
            base = synth_s11(f0, kappa, kappa_e, grid, noise_sigma=noise,
                             rng_seed=trial)
            sp = ComplexSpectrum(grid, base.values * a
                                 * np.exp(1j * TWO_PI * grid * tau))
            result = fit_resonance(sp)
            assert result.params.kappa_hz == pytest.approx(kappa, rel=0.05)
            assert result.params.kappa_e_hz == pytest.approx(kappa_e, rel=0.05)
            assert result.params.f0_hz == pytest.approx(f0, rel=1e-6)

    @pytest.mark.parametrize("model_kind,fits", [("lorentzian", 1), ("dark_mode", 2)])
    def test_one_prefit_per_trace(self, monkeypatch, model_kind, fits):
        f0 = 679.564e6
        kappa, kappa_e = rates_from_qs(f0, 6.8e3, 1.4e4)
        grid = resonance_grid(f0, 6.8e3, 1.4e4, points=4001)
        sp = synth_s11(f0, kappa, kappa_e, grid,
                       dark=(TWO_PI * 15e3, 75e3, TWO_PI * 10e3),
                       noise_sigma=0.004, rng_seed=2)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return fit_least_squares(*args, **kwargs)

        monkeypatch.setattr(resonance, "fit_least_squares", counted)
        fit_resonance(sp, model_kind=model_kind)
        assert len(calls) == fits

    @pytest.mark.parametrize("qi,qe,noise", [(2e5, 2e3, 0.004), (2e5, 2e3, 0.008),
                                             (1e5, 500, 0.004)])
    def test_strongly_overcoupled_traces_fit(self, qi, qe, noise):
        f0 = 6.9e8
        kappa, kappa_e = rates_from_qs(f0, qi, qe)
        grid = resonance_grid(f0, qi, qe, span_linewidths=5.0, points=6001)
        for seed in range(20):
            result = fit_resonance(synth_s11(f0, kappa, kappa_e, grid,
                                             noise_sigma=noise, rng_seed=seed))
            assert result.qe == pytest.approx(qe, rel=0.03)
            assert result.qi == pytest.approx(qi, rel=0.10)

    @pytest.mark.parametrize("qi,qe", [(6.8e3, 1.4e4), (2e4, 5e3), (2e5, 2e3),
                                       (4e3, 3e4)])
    def test_matches_scipy_least_squares(self, qi, qe):
        # same model and data, independent optimizer started at the truth.
        # scipy's finite-difference steps are relative to max(1, |x|), so its
        # parameters are kept near unit size or near zero: f0 as an offset
        # from the grid center, the background at the grid center, and the
        # delay as the phase it turns over the span
        f0, tau = 688.4e6, 12e-9
        a = 0.8 * cmath.exp(2.1j)
        kappa, kappa_e = rates_from_qs(f0, qi, qe)
        grid = resonance_grid(f0, qi, qe, points=2001)
        base = synth_s11(f0, kappa, kappa_e, grid, noise_sigma=0.004, rng_seed=5)
        sp = ComplexSpectrum(grid, a * base.values * np.exp(1j * TWO_PI * grid * tau))
        fc = float(grid[1000])
        span = float(grid[-1] - grid[0])

        def residual(x):
            df0, kap, kap_e, a_re, a_im, turn = x
            bg = (a_re + 1j * a_im) * np.exp(1j * turn * (grid - fc) / span)
            resp = 1.0 - kap_e / (1j * TWO_PI * (grid - fc - df0) + kap / 2.0)
            diff = bg * resp - sp.values
            return np.concatenate([diff.real, diff.imag])

        a_c = a * cmath.exp(1j * TWO_PI * fc * tau)
        ref = scipy_optimize.least_squares(
            residual, [f0 - fc, kappa, kappa_e, a_c.real, a_c.imag, TWO_PI * span * tau],
            x_scale=[kappa / TWO_PI, kappa, kappa, 1.0, 1.0, 1.0], jac="3-point",
            method="lm", ftol=1e-15, xtol=1e-15, gtol=1e-15)
        result = fit_resonance(sp)
        p = result.params
        assert p.f_ref_hz == fc
        for key, ours, theirs in [("f0_hz", p.f0_hz - fc, ref.x[0]),
                                  ("kappa_hz", p.kappa_hz, ref.x[1]),
                                  ("kappa_e_hz", p.kappa_e_hz, ref.x[2]),
                                  ("a_re", p.a.real, ref.x[3]),
                                  ("a_im", p.a.imag, ref.x[4]),
                                  ("tau_s", p.tau_s, ref.x[5] / (TWO_PI * span))]:
            assert abs(ours - theirs) < 0.01 * result.param_errors[key]

    def test_unknown_model_kind_rejected(self):
        grid = np.linspace(1e6, 2e6, 16)
        sp = ComplexSpectrum(grid, np.ones(16, complex))
        with pytest.raises(ValidationError):
            fit_resonance(sp, model_kind="magnitude")

    @pytest.mark.parametrize("case,key", SIGMA_KEYS)
    def test_reported_sigma_matches_seed_scatter(self, case, key):
        # 30 noise draws of one trace: each reported one-sigma error has to
        # match the scatter of the fitted values over the draws, Qi's and
        # Qe's too
        values, sigmas = [], []
        for r in seed_fits(case):
            d = report(r.params)
            values.append({**d, **(d["dark"] or {}), "qi": r.qi, "qe": r.qe}[key])
            sigmas.append({**r.param_errors, "qi": r.qi_err, "qe": r.qe_err}[key])
        assert_sigma_matches_scatter(values, sigmas)

    def test_one_jacobian_per_iteration_and_one_for_the_covariance(self, monkeypatch):
        # the LM steps call the exact Jacobian once per iteration; the only
        # numeric Jacobian is the covariance one at the optimum
        exact, numeric = [], []

        def counted_fit(fun, p0, *, jac, **kwargs):
            def counted_jac(p):
                exact.append(p)
                return jac(p)

            return fit_least_squares(fun, p0, jac=counted_jac, **kwargs)

        def counted_numeric(*args, **kwargs):
            numeric.append(args)
            return lsq_numeric_jacobian(*args, **kwargs)

        monkeypatch.setattr(resonance, "fit_least_squares", counted_fit)
        monkeypatch.setattr(resonance, "numeric_jacobian", counted_numeric)
        result = SIGMA_CASES["dark_mode"](0)
        assert len(exact) == result.n_iterations
        assert len(numeric) == 1

    def test_jacobian_and_covariance_reuse_the_denominator(self, monkeypatch):
        # the exact Jacobian runs at the point LM has just evaluated, so it
        # computes no reciprocal denominator; the covariance columns of a_re,
        # a_im and tau reuse the one of the column before them
        phase = ["search"]
        counts = {"search": 0, "jacobian": 0, "covariance": 0}
        columns = []
        reciprocal = resonance._reciprocal

        def counted_reciprocal(*args):
            counts[phase[0]] += 1
            return reciprocal(*args)

        def in_phase(name, fun):
            def wrapped(*args, **kwargs):
                phase[0] = name
                try:
                    return fun(*args, **kwargs)
                finally:
                    phase[0] = "search"
            return wrapped

        def counted_fit(fun, p0, *, jac, **kwargs):
            return fit_least_squares(fun, p0, jac=in_phase("jacobian", jac), **kwargs)

        def counted_numeric(fun, p, *args, **kwargs):
            columns.append(len(p))
            return in_phase("covariance", lsq_numeric_jacobian)(fun, p, *args, **kwargs)

        monkeypatch.setattr(resonance, "_reciprocal", counted_reciprocal)
        monkeypatch.setattr(resonance, "fit_least_squares", counted_fit)
        monkeypatch.setattr(resonance, "numeric_jacobian", counted_numeric)
        SIGMA_CASES["dark_mode"](0)
        assert counts["search"] > 0
        assert counts["jacobian"] == 0
        assert columns == [9]
        assert 0 < counts["covariance"] < columns[0]


@pytest.mark.parametrize("dark", [False, True], ids=["6-param", "9-param"])
def test_shared_pieces_never_stale(rng, monkeypatch, dark):
    # one set of closures driven through the points a fit visits gives, at
    # every point, bit for bit what fresh closures give there
    handed_out = []
    one_slot = resonance._one_slot

    def recording_one_slot(compute):
        get = one_slot(compute)

        def recorded(*args):
            value = get(*args)
            handed_out.extend(a for a in value if a is not None)
            return value
        return recorded

    f0 = 688.4e6
    kappa, _ = rates_from_qs(f0, 6.8e3, 1.4e4)
    grid = resonance_grid(f0, 6.8e3, 1.4e4, points=2001)
    fc = float(grid[1000])
    data = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    x0, scale = _random_model_point(rng, f0, kappa, float(grid[-1] - grid[0]), dark)
    # LM-like trial points, then one-parameter steps about the last of them as
    # a forward-difference Jacobian takes them, then back to earlier points
    trials = [x0 + 0.1 * scale * rng.standard_normal(x0.size) for _ in range(4)]
    base = trials[-1]
    steps = []
    for i in range(base.size):
        step = base.copy()
        step[i] += np.sqrt(np.finfo(float).eps) * max(abs(base[i]), scale[i])
        steps.append(step)
    points = [x0, *trials, *steps, base, x0, trials[1], trials[1]]

    monkeypatch.setattr(resonance, "_one_slot", recording_one_slot)
    _, residual, jacobian = resonance._fit_functions(grid, data, fc)
    for k, x in enumerate(points):
        # residual then Jacobian, as LM calls them, or the Jacobian alone
        r = residual(x) if k % 3 else None
        jac = jacobian(x)
        _, fresh_residual, fresh_jacobian = resonance._fit_functions(grid, data, fc)
        if r is not None:
            assert np.array_equal(r, fresh_residual(x))
        assert np.array_equal(jac, fresh_jacobian(x))
    assert handed_out
    assert not any(a.flags.writeable for a in handed_out)


def _random_model_point(rng, f0, kappa, span, dark):
    """Internal parameter vector near a mode at ``f0`` of loss rate ``kappa``."""
    kap = kappa * rng.uniform(0.5, 2.0)
    a = rng.uniform(0.3, 1.5) * cmath.exp(1j * rng.uniform(-np.pi, np.pi))
    x = [f0 + rng.uniform(-1.0, 1.0) * kap / TWO_PI, kap, kap * rng.uniform(0.05, 0.95),
         a.real, a.imag, rng.uniform(-3e-8, 3e-8)]
    scale = [kap / TWO_PI, kap, kap, 1.0, 1.0, 1.0 / (TWO_PI * span)]
    if dark:
        gamma = kap * rng.uniform(0.02, 0.5)
        x += [f0 + rng.uniform(-1.0, 1.0) * kap / TWO_PI, gamma,
              math.sqrt(kap * gamma) * rng.uniform(0.1, 1.0)]
        scale += [gamma / TWO_PI, gamma, gamma]
    return np.array(x), np.array(scale)


@pytest.mark.parametrize("dark", [False, True], ids=["6-param", "9-param"])
@pytest.mark.parametrize("qi,qe", [(6.8e3, 1.4e4), (1.9e4, 3e4), (2e5, 2e3)],
                         ids=["device", "delayed-high-q", "overcoupled"])
def test_exact_jacobian_matches_numeric(rng, qi, qe, dark):
    # forward differences of the same residual, with the two frequencies
    # differentiated as offsets from the grid center so that their steps
    # follow the linewidth, not the 0.7 GHz carrier; the rounding of
    # f - f0 still leaves up to 6e-5 of the column norm in those columns
    f0 = 688.4e6
    kappa, _ = rates_from_qs(f0, qi, qe)
    grid = resonance_grid(f0, qi, qe, span_linewidths=5.0, points=6001)
    fc = float(grid[3000])
    span = float(grid[-1] - grid[0])
    data = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    _, residual, jacobian = resonance._fit_functions(grid, data, fc)
    for _ in range(5):
        x, scale = _random_model_point(rng, f0, kappa, span, dark)
        offset = np.zeros(x.size)
        offset[[0, 6][:1 + dark]] = fc
        exact = jacobian(x)
        def shifted(y):
            return residual(y + offset)

        numeric = lsq_numeric_jacobian(shifted, x - offset, shifted(x - offset), scale)
        assert exact.shape == (2 * grid.size, x.size)
        err = np.linalg.norm(exact - numeric, axis=0) / np.linalg.norm(exact, axis=0)
        assert np.all(err < 3e-4), err


def division_form(grid, fc, x):
    """Model and (m, n) Jacobian rows of the internal vector ``x``, written
    with the complex divisions of the reflection formula and each derivative
    taken by hand."""
    f0, kappa, kappa_e, a_re, a_im, tau = x[:6]
    a = a_re + 1j * a_im
    iturn = 1j * TWO_PI * (grid - fc)
    rot = np.exp(iturn * tau)
    den = 1j * TWO_PI * (grid - f0) + kappa / 2.0
    if x.size == 9:
        f_dark, gamma, g = x[6:]
        pole = 1j * TWO_PI * (grid - f_dark) + gamma / 2.0
        den = den + g**2 / pole
    resp = 1.0 - kappa_e / den
    model = a * rot * resp
    dm_dden = a * rot * kappa_e / den**2
    rows = [-1j * TWO_PI * dm_dden, 0.5 * dm_dden, -a * rot / den,
            rot * resp, 1j * rot * resp, iturn * model]
    if x.size == 9:
        dm_dpole = -dm_dden * g**2 / pole**2
        rows += [-1j * TWO_PI * dm_dpole, 0.5 * dm_dpole, dm_dden * 2.0 * g / pole]
    return model, np.array(rows)


@pytest.mark.parametrize("dark", [False, True], ids=["6-param", "9-param"])
@pytest.mark.parametrize("qi,qe", [(6.8e3, 1.4e4), (1.9e4, 3e4), (2e5, 2e3)],
                         ids=["device", "delayed-high-q", "overcoupled"])
def test_kernel_matches_division_form(rng, qi, qe, dark):
    # the products of cached reciprocal pieces against the formula as written
    f0 = 688.4e6
    kappa, _ = rates_from_qs(f0, qi, qe)
    grid = resonance_grid(f0, qi, qe, span_linewidths=5.0, points=6001)
    fc = float(grid[3000])
    span = float(grid[-1] - grid[0])
    data = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    _, residual, jacobian = resonance._fit_functions(grid, data, fc)
    for _ in range(5):
        x, _ = _random_model_point(rng, f0, kappa, span, dark)
        model, rows = division_form(grid, fc, x)
        expected_r = (model - data).view(float)
        expected_j = rows.view(float).T
        r = residual(x)
        assert np.linalg.norm(r - expected_r) <= 1e-13 * np.linalg.norm(expected_r)
        err = np.linalg.norm(jacobian(x) - expected_j, axis=0)
        assert np.all(err <= 1e-13 * np.linalg.norm(expected_j, axis=0)), err


def _peak_vectors(call, n):
    """Peak memory traced during ``call()``, in complex vectors of length n."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / (16 * n)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dark,jacobian_vectors,residual_vectors",
                         [(False, 6, 3), (True, 9, 4)], ids=["6-param", "9-param"])
def test_kernel_allocations(rng, dark, jacobian_vectors, residual_vectors):
    # the Jacobian at the point just evaluated allocates only the array it
    # returns; a residual at a fresh point allocates its pieces (the
    # reciprocal, the dark mode's g / pole, the phasor) and its output
    f0 = 688.4e6
    kappa, _ = rates_from_qs(f0, 6.8e3, 1.4e4)
    grid = resonance_grid(f0, 6.8e3, 1.4e4, span_linewidths=5.0, points=6001)
    n = grid.size
    data = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    _, residual, jacobian = resonance._fit_functions(grid, data, float(grid[3000]))
    span = float(grid[-1] - grid[0])
    x, _ = _random_model_point(rng, f0, kappa, span, dark)
    fresh, _ = _random_model_point(rng, f0, kappa, span, dark)
    residual(x)
    assert _peak_vectors(lambda: jacobian(x), n) < jacobian_vectors + 0.25
    assert _peak_vectors(lambda: residual(fresh), n) < residual_vectors + 0.25


@pytest.mark.parametrize("model_kind,vectors", [("lorentzian", 14), ("dark_mode", 20)])
def test_fit_holds_one_jacobian_at_a_time(model_kind, vectors):
    # a 6001-point fit peaks at its one Jacobian (6 or 9 vectors), the
    # model pieces of one point, the residuals and the covariance's numeric
    # Jacobian; holding the last iteration's Jacobian while the next is built
    # read 16.6 and 25.1 vectors
    f0 = 679.564e6
    kappa, kappa_e = rates_from_qs(f0, 6.8e3, 1.4e4)
    grid = resonance_grid(f0, 6.8e3, 1.4e4, points=6001)
    dark = (TWO_PI * 15e3, 75e3, TWO_PI * 10e3) if model_kind == "dark_mode" else None
    sp = synth_s11(f0, kappa, kappa_e, grid, dark=dark,
                   noise_sigma=dip_depth(6.8e3, 1.4e4) / 100.0, rng_seed=0)
    result = fit_resonance(sp, model_kind)  # the first call also builds what later calls reuse
    assert (result.params.dark is not None) == (dark is not None)
    assert _peak_vectors(lambda: fit_resonance(sp, model_kind), grid.size) < vectors
