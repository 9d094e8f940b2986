import math

import numpy as np
import pytest

from sawkit.errors import FitError, ValidationError
from sawkit.spectra import PowerSweepSeries, TemperatureSweepSeries
from sawkit.synth import synth_power_sweep, synth_temperature_sweep
from sawkit.tls import (
    HBAR,
    KB,
    PowerModelParams,
    fit_fdelta,
    fit_power_sweep,
    q_tls,
    qi_power_model,
    re_digamma_half_plus_imag,
    tls_frequency_shift,
)
from conftest import PSI_HALF, assert_sigma_matches_scatter, flat_power_sweep

#: the y grid the digamma accuracy claim is declared on
DIGAMMA_Y_GRID = (0.0, 0.01, 0.1, 1.0, 5.0, 8.0, 20.0, 100.0)


class TestDigamma:
    def test_special_value_at_half(self):
        # psi(1/2) = -euler_gamma - 2 ln 2
        assert re_digamma_half_plus_imag(0.0) == pytest.approx(PSI_HALF, abs=1e-12)
        expected = -0.5772156649015328606 - 2.0 * math.log(2.0)
        assert re_digamma_half_plus_imag(0.0) == pytest.approx(expected, abs=1e-12)

    def test_even_in_y(self):
        for y in (0.3, 1.7, 9.4, 55.0):
            assert re_digamma_half_plus_imag(y) == re_digamma_half_plus_imag(-y)

    def test_matches_series_oracle_on_grid(self, series_digamma_oracle):
        for y in DIGAMMA_Y_GRID:
            oracle = series_digamma_oracle(y)
            assert re_digamma_half_plus_imag(y) == pytest.approx(oracle, abs=1e-10)

    def test_unit_argument_against_oracle(self, series_digamma_oracle):
        assert re_digamma_half_plus_imag(1.0) == pytest.approx(
            series_digamma_oracle(1.0), abs=1e-10)

    def test_matches_scipy_on_a_dense_grid(self):
        # sweeps reach y = hbar*w0/(kB*T) of a few; the grid goes far beyond
        from scipy.special import psi
        y = np.concatenate([np.linspace(0.0, 20.0, 4001), np.geomspace(1e-6, 1e8, 2001)])
        err = np.abs(re_digamma_half_plus_imag(y) - psi(0.5 + 1j * y).real)
        assert err.max() <= 1e-14

    def test_array_input(self):
        y = np.array([0.0, 1.0, 20.0])
        out = re_digamma_half_plus_imag(y)
        assert out.shape == (3,)
        assert out[0] == pytest.approx(PSI_HALF, abs=1e-12)


class TestFrequencyShift:
    def test_zero_at_reference(self):
        assert tls_frequency_shift(5.8e-6, 6.9e8, 0.2, 0.2) == 0.0

    def test_zero_tls_density(self):
        for t in (0.01, 0.05, 0.15):
            assert tls_frequency_shift(0.0, 6.9e8, t) == 0.0

    def test_low_temperature_redshift_against_oracle(self, series_digamma_oracle):
        f_delta, f0 = 5.8e-6, 6.9e8

        def bracket(t):
            y = HBAR * f0 / (KB * t)
            return series_digamma_oracle(y, n_terms=1_000_000) - math.log(y)

        expected = (f_delta / math.pi) * (bracket(0.010) - bracket(0.200))
        got = tls_frequency_shift(f_delta, f0, 0.010, 0.200)
        assert got < 0
        assert got == pytest.approx(expected, abs=1e-14)

    def test_monotone_in_temperature_on_device_regime(self):
        # the bracket turns over at very low temperature; above that point
        # the shift decreases monotonically as the device cools
        t = np.linspace(0.010, 0.200, 64)
        shift = tls_frequency_shift(5.8e-6, 6.9e8, t)
        i_turn = int(np.argmin(shift))
        assert t[i_turn] < 0.025
        assert np.all(np.diff(shift[i_turn:]) > 0)
        assert np.all(shift[:-1] < 0)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValidationError):
            tls_frequency_shift(1e-5, 6.9e8, -0.01)


def scatter_sweep(seed):
    """One noise draw of the temperature sweep of the seed-scatter tests."""
    return synth_temperature_sweep(2e-5, 6.9e8, np.linspace(0.010, 0.200, 30),
                                   noise_sigma_hz=10.0, rng_seed=seed)


class TestFitFdelta:
    def test_noiseless_roundtrip_exact(self):
        truth = 7.53e-5
        t = np.linspace(0.010, 0.200, 20)
        series = synth_temperature_sweep(truth, 6.9e8, t)
        result = fit_fdelta(series)
        assert result.f_delta_tls == pytest.approx(truth, rel=1e-12)
        assert not result.non_positive

    def test_noisy_recovery_within_five_percent(self):
        truth = 5.8e-6
        t = np.linspace(0.010, 0.200, 20)
        series = synth_temperature_sweep(truth, 6.9e8, t, noise_sigma_hz=10.0,
                                         rng_seed=4)
        result = fit_fdelta(series)
        assert result.f_delta_tls == pytest.approx(truth, rel=0.05)
        assert result.f_delta_err > 0

    def test_zero_shift_consistent_with_zero(self):
        t = np.linspace(0.010, 0.200, 20)
        series = synth_temperature_sweep(0.0, 6.9e8, t, noise_sigma_hz=10.0,
                                         rng_seed=1)
        result = fit_fdelta(series)
        assert abs(result.f_delta_tls) < 3.0 * result.f_delta_err

    def test_linearity_in_shift_scale(self):
        # scaling every shift by c scales the fitted product by c
        t = np.linspace(0.010, 0.200, 16)
        f0 = 6.9e8
        base = synth_temperature_sweep(1e-5, f0, t)
        shifts = base.f0_hz / f0 - 1.0
        for c in (2.0, 0.5, 3.0):
            scaled = TemperatureSweepSeries(t, f0 * (1.0 + c * shifts),
                                            np.zeros(t.size))
            ratio = fit_fdelta(scaled).f_delta_tls / fit_fdelta(base).f_delta_tls
            assert ratio == pytest.approx(c, rel=1e-9)

    def test_reported_sigma_matches_seed_scatter(self):
        # 300 noise draws: every point's noise, the reference point's too,
        # has to show up in each reported one-sigma error
        fits = [fit_fdelta(scatter_sweep(seed)) for seed in range(300)]
        assert_sigma_matches_scatter([r.f_delta_tls for r in fits],
                                     [r.f_delta_err for r in fits])

    def test_sigma_is_that_of_the_weighted_design(self):
        # on the same draws, sigma = sqrt(g (D'D)^-1 g' s2) of the weighted
        # design D = [1, shape] / err, the gradient g of F_delta = d / c by
        # (c, d) and the residual variance s2
        for seed in range(300):
            series = scatter_sweep(seed)
            result = fit_fdelta(series)
            t, err, t_ref = series.temperatures_k, series.f0_err_hz, 0.200
            f_ref = series.f0_hz[np.argmin(np.abs(t - t_ref))]
            shape = tls_frequency_shift(1.0, f_ref, t, reference_temperature_k=t_ref)
            design = np.column_stack([np.ones_like(t), shape]) / err[:, None]
            c = result.f0_hz
            d = result.f_delta_tls * c
            resid = (series.f0_hz - c - d * shape) / err
            s2 = resid @ resid / (t.size - 2)
            grad = np.array([-d / c**2, 1.0 / c])
            expected = np.sqrt(grad @ np.linalg.inv(design.T @ design) @ grad * s2)
            assert result.f_delta_err == pytest.approx(expected, rel=1e-12), seed

    def test_table_values_recover_under_noise(self):
        # loss products spanning the reported device range
        t = np.linspace(0.010, 0.200, 20)
        for truth in (5.8e-6, 7.7e-6, 1.06e-5, 1.24e-5, 2.48e-5, 7.53e-5):
            series = synth_temperature_sweep(truth, 6.9e8, t,
                                             noise_sigma_hz=10.0, rng_seed=7)
            assert fit_fdelta(series).f_delta_tls == pytest.approx(truth, rel=0.05)


class TestQTls:
    def test_device_value_and_range(self):
        # independent scalar arithmetic for the tanh argument
        arg = 1.054571817e-34 * 2.0 * math.pi * 6.9e8 / (2.0 * 1.380649e-23 * 0.010)
        assert arg == pytest.approx(1.655, abs=1e-3)
        expected = 1.0 / (5.8e-6 * math.tanh(arg))
        got = q_tls(5.8e-6, 6.9e8, 0.010)
        assert got == pytest.approx(expected, rel=1e-12)
        assert 1e4 <= got <= 3e5
        assert got == pytest.approx(1.86e5, rel=0.01)

    def test_saturates_at_zero_temperature(self):
        lo = q_tls(5.8e-6, 6.9e8, 1e-6)
        assert lo == pytest.approx(1.0 / 5.8e-6, rel=1e-9)

    def test_reciprocal_scaling(self):
        assert q_tls(2e-5, 6.9e8, 0.01) == pytest.approx(
            q_tls(1e-5, 6.9e8, 0.01) / 2.0, rel=1e-12)

    def test_identity_with_tanh(self):
        for t in (0.005, 0.01, 0.1):
            arg = HBAR * 2.0 * np.pi * 6.9e8 / (2.0 * KB * t)
            prod = q_tls(5.8e-6, 6.9e8, t) * 5.8e-6 * np.tanh(arg)
            assert prod == pytest.approx(1.0, rel=1e-14)


GCIB_LIKE = dict(f_delta_tls=5.66e-4, n_c=1e4, beta=1.0, q_i_res=2.6e3,
                 temperature_k=0.010, f0_hz=6.9e8)


class TestPowerModel:
    def test_unsaturated_limit(self):
        p = PowerModelParams(**GCIB_LIKE)
        arg = HBAR * 2.0 * np.pi * p.f0_hz / (2.0 * KB * p.temperature_k)
        expected = 1.0 / (p.f_delta_tls * np.tanh(arg) + 1.0 / p.q_i_res)
        assert qi_power_model(p, 1e-12 * p.n_c) == pytest.approx(expected, rel=1e-3)

    def test_saturated_limit(self):
        p = PowerModelParams(**GCIB_LIKE)
        assert qi_power_model(p, 1e12 * p.n_c) == pytest.approx(p.q_i_res, rel=1e-3)

    def test_monotone_in_drive(self):
        p = PowerModelParams(**{**GCIB_LIKE, "beta": 0.5})
        n = np.geomspace(1e-3, 1e12, 200)
        q = qi_power_model(p, n)
        assert np.all(np.diff(q) > 0)

    def test_device_curve_against_scalar_evaluation(self):
        # strongly TLS-loaded device whose usable drive window ends at
        # n = 2.8e7 (heating takes over beyond that); the model predicts a
        # ~30% Q rise across the window, checked point by point against an
        # independent scalar evaluation of the saturation formula
        p = PowerModelParams(f_delta_tls=5.66e-4, n_c=8.73e6, beta=0.5,
                             q_i_res=2.6e3, temperature_k=0.010, f0_hz=6.9e8)
        hbar, kb = 1.054571817e-34, 1.380649e-23
        tanh_arg = math.tanh(hbar * 2 * math.pi * 6.9e8 / (2 * kb * 0.010))
        for n in (1.0, 1e3, 1e5, 2.8e7):
            expected = 1.0 / (5.66e-4 * tanh_arg / math.sqrt(1 + (n / 8.73e6) ** 0.5)
                              + 1.0 / 2.6e3)
            assert qi_power_model(p, n) == pytest.approx(expected, rel=1e-12)
        rise = qi_power_model(p, 2.8e7) / qi_power_model(p, 1.0) - 1.0
        assert rise == pytest.approx(0.30, abs=0.03)

    def test_beta_validation(self):
        with pytest.raises(ValidationError):
            PowerModelParams(**{**GCIB_LIKE, "beta": 2.5})


class TestFitPowerSweep:
    def test_noiseless_roundtrip_all_parameters(self):
        p = PowerModelParams(**{**GCIB_LIKE, "beta": 0.5})
        series = synth_power_sweep(p, np.geomspace(1.0, 1e10, 30))
        fit = fit_power_sweep(series)
        assert not fit.beta_fixed
        assert fit.params.f_delta_tls == pytest.approx(p.f_delta_tls, rel=0.01)
        assert fit.params.n_c == pytest.approx(p.n_c, rel=0.01)
        assert fit.params.beta == pytest.approx(p.beta, rel=0.01)
        assert fit.params.q_i_res == pytest.approx(p.q_i_res, rel=0.01)

    def test_noisy_recovery_within_ten_percent(self):
        p = PowerModelParams(**{**GCIB_LIKE, "beta": 0.5})
        for seed in range(10):
            series = synth_power_sweep(p, np.geomspace(1.0, 1e10, 25),
                                       noise_frac=0.02, rng_seed=seed)
            fit = fit_power_sweep(series)
            assert fit.params.f_delta_tls == pytest.approx(p.f_delta_tls, rel=0.10)

    def test_reported_sigma_matches_seed_scatter(self):
        # 60 noise draws: each reported one-sigma error of F*delta_TLS has
        # to match the scatter of the fitted values
        p = PowerModelParams(**{**GCIB_LIKE, "beta": 0.5})
        fits = [fit_power_sweep(synth_power_sweep(p, np.geomspace(1.0, 1e10, 25),
                                                  noise_frac=0.02, rng_seed=seed))
                for seed in range(60)]
        assert_sigma_matches_scatter([f.params.f_delta_tls for f in fits],
                                     [f.param_errors["f_delta_tls"] for f in fits])

    def test_short_sweep_fixes_beta(self):
        p = PowerModelParams(**{**GCIB_LIKE, "beta": 0.5})
        series = synth_power_sweep(p, np.geomspace(1.0, 3.1e3, 12))
        fit = fit_power_sweep(series)
        assert fit.beta_fixed
        assert fit.params.beta == 0.5

    def test_fixed_beta_honored(self):
        p = PowerModelParams(**{**GCIB_LIKE, "beta": 0.7})
        series = synth_power_sweep(p, np.geomspace(1.0, 1e10, 25))
        fit = fit_power_sweep(series, fixed_beta=0.7)
        assert fit.beta_fixed
        assert fit.params.beta == 0.7
        assert fit.params.f_delta_tls == pytest.approx(p.f_delta_tls, rel=0.01)

    def test_weak_saturation_flags_beta_unidentifiable(self):
        # barely visible TLS loss, resolved at delta chi2 = 67: the exponent
        # uncertainty exceeds its value
        p = PowerModelParams(f_delta_tls=2.5e-5, n_c=1e5, beta=0.5,
                             q_i_res=2.6e3, temperature_k=0.010, f0_hz=6.9e8)
        series = synth_power_sweep(p, np.geomspace(1.0, 1e9, 20),
                                   noise_frac=0.01, rng_seed=5)
        fit = fit_power_sweep(series)
        assert not fit.beta_fixed
        assert fit.beta_unidentifiable

    def test_critical_phonon_number_stays_inside_the_drive_range(self):
        # barely visible TLS loss: unbounded, LM can carry n_c beyond the
        # sweep, where the saturation term mimics the constant loss and the
        # residual loss solves to zero (seed 10); bounded, that draw fits at
        # the top of the drive range
        p = PowerModelParams(f_delta_tls=2.5e-5, n_c=1e5, beta=0.5,
                             q_i_res=2.6e3, temperature_k=0.010, f0_hz=6.9e8)
        n = np.geomspace(1.0, 1e9, 20)
        for seed in range(40):
            series = synth_power_sweep(p, n, noise_frac=0.01, rng_seed=seed)
            try:
                fit = fit_power_sweep(series)
            except FitError as err:
                assert "solved to zero" not in str(err), seed
                continue
            assert n.min() * (1 - 1e-12) <= fit.params.n_c <= n.max() * (1 + 1e-12)
        fit = fit_power_sweep(synth_power_sweep(p, n, noise_frac=0.01, rng_seed=10))
        assert fit.params.n_c == pytest.approx(n.max(), rel=1e-12)
        pull = (fit.params.f_delta_tls - p.f_delta_tls) / fit.param_errors["f_delta_tls"]
        assert abs(pull) < 1.0

    def test_saturation_below_the_gate_raises(self):
        # F*delta = 2e-5 on this draw lowers the cost of a constant 1/Q by
        # 30 residual variances, short of lsq.NESTED_MIN_CHI2
        p = PowerModelParams(f_delta_tls=2e-5, n_c=1e5, beta=0.5,
                             q_i_res=2.6e3, temperature_k=0.010, f0_hz=6.9e8)
        series = synth_power_sweep(p, np.geomspace(1.0, 1e9, 20),
                                   noise_frac=0.01, rng_seed=3)
        with pytest.raises(FitError, match="^the sweep shows no TLS saturation"):
            fit_power_sweep(series)

    def test_flat_sweep_raises(self):
        # the TLS loss rate solves to zero, which no saturation model reports
        with pytest.raises(FitError, match="solved to zero"):
            fit_power_sweep(flat_power_sweep())

    @pytest.mark.parametrize("seed", range(20))
    def test_flat_sweep_never_reports_tls_loss(self, seed):
        # whatever the noise draw, a flat sweep is an error: a loss rate
        # solves to zero, or the saturation term fails the nested-model gate
        with pytest.raises(FitError):
            fit_power_sweep(flat_power_sweep(seed))

    def test_constant_q_raises(self):
        # an exactly constant Q is fitted as well by a constant 1/Q
        n = np.geomspace(1.0, 1e8, 12)
        series = PowerSweepSeries(n, np.full(12, 5e3), np.zeros(12), 0.01, 6.9e8)
        with pytest.raises(FitError, match="no TLS saturation"):
            fit_power_sweep(series)
