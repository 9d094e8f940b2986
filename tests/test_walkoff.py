import math

import numpy as np
import pytest

from sawkit.errors import ValidationError
from sawkit.spectra import WalkoffCurve
from sawkit.walkoff import (
    find_tangencies,
    find_zero_crossings,
    smooth_curve,
    walkoff_from_flux,
)


def theta_grid(step=1.0):
    return np.arange(-90.0, 90.0 + step / 2, step)


class TestFluxFormula:
    def test_no_transverse_flux_means_no_steering(self):
        assert walkoff_from_flux(0.0, 2.5, 1.0, 3.0) == 0.0

    def test_equal_normalized_fluxes_give_45_degrees(self):
        assert walkoff_from_flux(3.0, 6.0, 1.0, 2.0) == pytest.approx(45.0,
                                                                      abs=1e-12)

    def test_matches_arctangent_oracle(self, rng):
        for _ in range(50):
            p_perp = rng.uniform(-5, 5)
            p_par = rng.uniform(0.1, 5)
            a_perp = rng.uniform(0.1, 3)
            a_par = rng.uniform(0.1, 3)
            expected = math.degrees(math.atan((p_perp / a_perp) / (p_par / a_par)))
            got = walkoff_from_flux(p_perp, p_par, a_perp, a_par)
            assert got == pytest.approx(expected, abs=1e-12)
            assert -90.0 < got < 90.0

    def test_odd_in_transverse_flux(self, rng):
        for _ in range(20):
            p_perp = rng.uniform(0.01, 5)
            p_par = rng.uniform(0.1, 5)
            plus = walkoff_from_flux(p_perp, p_par, 1.3, 0.7)
            minus = walkoff_from_flux(-p_perp, p_par, 1.3, 0.7)
            assert minus == -plus

    def test_nonpropagating_drive_rejected(self):
        with pytest.raises(ValidationError):
            walkoff_from_flux(1.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            walkoff_from_flux(0.5, 1.0, -1.0, 1.0)


class TestSmoothing:
    def test_constant_curve_unchanged(self):
        curve = WalkoffCurve(theta_grid(), np.full(181, 2.5))
        out = smooth_curve(curve, 4)
        assert np.allclose(out.eta_deg, 2.5, atol=1e-14)

    def test_spike_reduced_by_window_length(self):
        eta = np.zeros(181)
        eta[90] = 3.0
        out = smooth_curve(WalkoffCurve(theta_grid(), eta), 4)
        assert out.eta_deg[90] == pytest.approx(3.0 / 9.0, rel=1e-12)

    def test_mean_preserved_exactly(self, rng):
        eta = rng.standard_normal(181)
        curve = WalkoffCurve(theta_grid(), eta)
        for w in (1, 3, 10, 40):
            out = smooth_curve(curve, w)
            assert out.eta_deg.mean() == pytest.approx(eta.mean(), abs=1e-13)

    def test_noisy_sinusoid_rms_halved(self, rng):
        th = theta_grid()
        clean = np.sin(np.radians(2 * th))
        noisy = clean + 0.3 * rng.standard_normal(th.size)
        out = smooth_curve(WalkoffCurve(th, noisy), 4)
        rms_before = np.sqrt(np.mean((noisy - clean) ** 2))
        rms_after = np.sqrt(np.mean((out.eta_deg - clean) ** 2))
        assert rms_after <= rms_before / 2.0

    def test_oversized_window_rejected(self):
        curve = WalkoffCurve(np.linspace(0, 90, 10), np.zeros(10))
        with pytest.raises(ValidationError):
            smooth_curve(curve, 5)


class TestZeroCrossings:
    def test_sine_zeros_within_half_degree(self):
        th = theta_grid(1.0)
        for theta0 in (-30.0, 10.5):
            curve = WalkoffCurve(th, np.sin(np.radians(2 * (th - theta0))))
            zeros = find_zero_crossings(curve)
            expected = [theta0 + k * 90.0 for k in range(-2, 3)
                        if -90.0 <= theta0 + k * 90.0 <= 90.0]
            assert len(zeros) == len(expected)
            for z, e in zip(zeros, sorted(expected)):
                assert z.theta_deg == pytest.approx(e, abs=0.5)
                assert z.uncertainty_deg == pytest.approx(0.5, abs=1e-12)

    def test_slope_sign_alternates(self):
        th = theta_grid(1.0)
        curve = WalkoffCurve(th, np.sin(np.radians(2 * (th + 30.0))))
        zeros = find_zero_crossings(curve)
        slopes = [z.slope_deg_per_deg for z in zeros]
        assert slopes[0] > 0 > slopes[1]

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["rising", "falling"])
    def test_crossing_at_an_exact_zero_last_sample(self, sign):
        th = theta_grid(1.0)
        zeros = find_zero_crossings(WalkoffCurve(th, sign * (th - 90.0)))
        assert [z.to_json_dict() for z in zeros] == [
            {"theta_deg": 90.0, "slope_deg_per_deg": sign, "uncertainty_deg": 0.5}]

    def test_strictly_positive_curve_empty(self):
        curve = WalkoffCurve(theta_grid(), np.ones(181))
        assert find_zero_crossings(curve) == []

    def test_scale_invariance_of_zero_set(self):
        th = theta_grid(1.0)
        eta = np.sin(np.radians(2 * (th + 17.0))) + 0.05
        base = find_zero_crossings(WalkoffCurve(th, eta))
        for c in (2.0, 0.5, 4.0):  # dyadic scalings are bit-lossless
            scaled = find_zero_crossings(WalkoffCurve(th, c * eta))
            assert [z.theta_deg for z in scaled] == [z.theta_deg for z in base]
        near = find_zero_crossings(WalkoffCurve(th, 3.7 * eta))
        for a, b in zip(near, base):
            assert a.theta_deg == pytest.approx(b.theta_deg, abs=1e-12)

    def test_odd_symmetry_of_zero_set(self):
        th = theta_grid(1.0)
        eta = np.sin(np.radians(2 * (th + 17.0))) + 0.05
        base = find_zero_crossings(WalkoffCurve(th, eta))
        flipped = find_zero_crossings(WalkoffCurve(th, -eta))
        assert [z.theta_deg for z in flipped] == [z.theta_deg for z in base]
        for a, b in zip(flipped, base):
            assert a.slope_deg_per_deg == -b.slope_deg_per_deg

    def test_tangency_reported_separately(self):
        th = theta_grid(1.0)
        curve = WalkoffCurve(th, 0.001 * (th - 10.0) ** 2)
        assert find_zero_crossings(curve) == []
        tangencies = find_tangencies(curve)
        assert len(tangencies) == 1
        assert tangencies[0][0] == pytest.approx(10.0, abs=1.0)
        assert abs(tangencies[0][1]) < 0.1

    def test_off_grid_tangency(self):
        th = theta_grid(1.0)
        curve = WalkoffCurve(th, 0.001 * (th - 10.4) ** 2 + 0.01)
        assert find_zero_crossings(curve) == []
        tangencies = find_tangencies(curve)
        assert len(tangencies) == 1
        assert tangencies[0][1] == pytest.approx(0.01, abs=0.01)
