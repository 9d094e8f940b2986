import numpy as np
import pytest

from sawkit import lsq
from sawkit.errors import FitError
from sawkit.lsq import fit_least_squares, numeric_jacobian


def test_recovers_linear_model_with_analytic_covariance(rng):
    x = np.linspace(0, 1, 40)
    design = np.vstack([np.ones_like(x), x]).T
    truth = np.array([2.0, -3.0])
    sigma = 0.05
    y = design @ truth + sigma * rng.standard_normal(x.size)

    res = fit_least_squares(lambda p: design @ p - y, [0.0, 0.0], x_scale=[1.0, 1.0])
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
    assert res.pinned_high[0]
    assert not res.pinned_high[1]


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
