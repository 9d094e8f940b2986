import numpy as np
import pytest

from sawkit import lsq
from sawkit.errors import FitError
from sawkit.lsq import (fit_least_squares, fit_separable, nested_gate,
                        numeric_jacobian, with_covariance)


def test_recovers_linear_model_with_analytic_covariance(rng):
    x = np.linspace(0, 1, 40)
    design = np.vstack([np.ones_like(x), x]).T
    truth = np.array([2.0, -3.0])
    sigma = 0.05
    y = design @ truth + sigma * rng.standard_normal(x.size)

    def residual(p):
        return design @ p - y

    res = with_covariance(residual, fit_least_squares(residual, [0.0, 0.0],
                                                      x_scale=[1.0, 1.0]), [1.0, 1.0])
    expected = np.linalg.lstsq(design, y, rcond=None)[0]
    assert np.allclose(res.params, expected, atol=1e-9)

    # covariance should match (X'X)^-1 scaled by the residual variance
    dof = x.size - 2
    s2 = res.cost / dof
    cov_expected = np.linalg.inv(design.T @ design) * s2
    assert np.allclose(res.covariance, cov_expected, rtol=1e-6)


def test_rosenbrock_valley():
    def residual(p):
        return np.array([10.0 * (p[1] - p[0] ** 2), 1.0 - p[0]])

    res = fit_least_squares(residual, [-1.2, 1.0], x_scale=[1.0, 1.0])
    assert np.allclose(res.params, [1.0, 1.0], atol=1e-6)


def test_cost_history_non_increasing(rng):
    x = np.linspace(0, 4, 60)
    y = 3.0 * np.exp(-1.3 * x) + 0.02 * rng.standard_normal(x.size)

    def residual(p):
        return p[0] * np.exp(-p[1] * x) - y

    res = fit_least_squares(residual, [1.0, 0.3])
    hist = np.array(res.cost_history)
    assert np.all(np.diff(hist) <= 0)
    assert res.n_iterations <= 200


def test_bound_projection_reports_pinned():
    def residual(p):
        return np.array([p[0] - 5.0, 0.1 * (p[1] - 1.0)])

    res = fit_least_squares(residual, [0.5, 0.5], lower=[0.0, 0.0],
                            upper=[2.0, 10.0])
    assert res.params[0] == 2.0
    assert res.params[1] == pytest.approx(1.0, abs=1e-6)


def test_iteration_cap_raises(monkeypatch):
    def residual(p):
        return np.array([10.0 * (p[1] - p[0] ** 2), 1.0 - p[0]])

    monkeypatch.setattr(lsq, "MAX_ITER", 1)
    with pytest.raises(FitError):
        fit_least_squares(residual, [-1.2, 1.0])


def test_numeric_jacobian_matches_analytic():
    def fun(p):
        return np.array([p[0] ** 2 + p[1], np.sin(p[1])])

    p = np.array([1.5, 0.7])
    jac = numeric_jacobian(fun, p)
    expected = np.array([[3.0, 1.0], [0.0, np.cos(0.7)]])
    assert np.allclose(jac, expected, atol=1e-6)


def exp_plus_offset(x, rng, offset):
    return 3.0 * np.exp(-1.3 * x) + offset + 0.02 * rng.standard_normal(x.size)


def exp_basis(x):
    return lambda p: np.stack([np.exp(-p[0] * x), np.ones_like(x)], axis=1)


def test_separable_matches_full_search(rng):
    # c1*exp(-p*x) + c2: solving (c1, c2) and searching p gives the optimum,
    # errors and covariance of searching all three
    x = np.linspace(0, 4, 60)
    y = exp_plus_offset(x, rng, 0.5)
    def residual(q):
        return q[1] * np.exp(-q[0] * x) + q[2] - y

    full = with_covariance(residual, fit_least_squares(residual, [1.0, 2.0, 0.3],
                                                       x_scale=[1.0] * 3), [1.0] * 3)
    sep = fit_separable(exp_basis(x), y, [1.0], x_scale=[1.0])
    assert np.allclose(sep.params, full.params, rtol=1e-6)
    assert np.allclose(sep.covariance, full.covariance, rtol=1e-6)
    assert sep.cost == pytest.approx(full.cost, rel=1e-9)


def test_separable_absent_component_solves_to_zero():
    # no offset in the data: wherever the noise pulls it negative, the
    # offset is dropped to exactly zero and the rest is the one-column fit
    x = np.linspace(0, 4, 60)
    zeros = 0
    for seed in range(10):
        y = exp_plus_offset(x, np.random.default_rng(seed), 0.0)
        sep = fit_separable(exp_basis(x), y, [1.0], x_scale=[1.0])
        assert np.all(sep.params[1:] >= 0.0)
        if sep.params[2] == 0.0:
            zeros += 1
            alone = fit_least_squares(lambda q: q[1] * np.exp(-q[0] * x) - y,
                                      [1.0, 2.0], x_scale=[1.0, 1.0])
            assert np.allclose(sep.params[:2], alone.params, rtol=1e-6)
    assert zeros >= 3


def test_separable_takes_one_jacobian_per_iteration_and_one_for_the_covariance(
        monkeypatch, rng):
    jacobians = []

    def counted(*args, **kwargs):
        jacobians.append(args)
        return numeric_jacobian(*args, **kwargs)

    monkeypatch.setattr(lsq, "numeric_jacobian", counted)
    x = np.linspace(0, 4, 60)
    sep = fit_separable(exp_basis(x), exp_plus_offset(x, rng, 0.5), [1.0], x_scale=[1.0])
    assert len(jacobians) == sep.n_iterations + 1


def test_nested_gate_counts_in_variances_of_the_larger_model():
    # 100 points, larger model with 10 parameters: s2 = 9 / 90 = 0.1
    delta, resolved = nested_gate(14.0, 9.0, 90)
    assert delta == pytest.approx(50.0)
    assert resolved
    delta, resolved = nested_gate(13.9, 9.0, 90)
    assert delta == pytest.approx(49.0)
    assert not resolved
