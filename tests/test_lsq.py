import tracemalloc
import weakref

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
                                                      jac=lambda p: design), [1.0, 1.0])
    expected = np.linalg.lstsq(design, y, rcond=None)[0]
    assert np.allclose(res.params, expected, atol=1e-9)

    # covariance should match (X'X)^-1 scaled by the residual variance
    dof = x.size - 2
    s2 = res.cost / dof
    cov_expected = np.linalg.inv(design.T @ design) * s2
    assert np.allclose(res.covariance, cov_expected, rtol=1e-6)


def rosenbrock(p):
    return np.array([10.0 * (p[1] - p[0] ** 2), 1.0 - p[0]])


def rosenbrock_jac(p):
    return np.array([[-20.0 * p[0], 10.0], [-1.0, 0.0]])


def test_rosenbrock_valley():
    res = fit_least_squares(rosenbrock, [-1.2, 1.0], jac=rosenbrock_jac)
    assert np.allclose(res.params, [1.0, 1.0], atol=1e-6)


def test_accepted_costs_decrease_to_the_reported_cost(rng):
    # the given Jacobian is taken once per iteration, at the accepted state
    x = np.linspace(0, 4, 60)
    y = 3.0 * np.exp(-1.3 * x) + 0.02 * rng.standard_normal(x.size)

    def residual(p):
        return p[0] * np.exp(-p[1] * x) - y

    costs = []

    def jacobian(p):
        r = residual(p)
        costs.append(float(r @ r))
        decay = np.exp(-p[1] * x)
        return np.column_stack([decay, -p[0] * x * decay])

    res = fit_least_squares(residual, [1.0, 0.3], jac=jacobian)
    assert len(costs) == res.n_iterations
    assert np.all(np.diff(costs) < 0)
    # the fit ends at the last Jacobian's point or one step beyond it whose
    # relative cost drop is under COST_TOL
    assert res.cost <= costs[-1]
    assert res.cost == pytest.approx(costs[-1], rel=lsq.COST_TOL)


def test_stationary_point_costs_no_extra_evaluations():
    # a zero-residual linear fit ends on a step under STEP_TOL, which is
    # never evaluated: one evaluation per iteration plus the start.  Whether
    # the last step is still downhill depends on rounding, so several
    # designs are tried.
    truth = np.array([1.0, -2.0, 3.0])
    for seed in range(8):
        design = np.random.default_rng(seed).standard_normal((50, 3))
        y = design @ truth
        evals = []

        def residual(p):
            evals.append(p)
            return design @ p - y

        res = fit_least_squares(residual, [0.5] * 3, jac=lambda p: design)
        assert len(evals) <= res.n_iterations + 1, seed
        assert np.allclose(res.params, truth)


def test_bound_projection_reports_pinned():
    def residual(p):
        return np.array([p[0] - 5.0, 0.1 * (p[1] - 1.0)])

    res = fit_least_squares(residual, [0.5, 0.5], jac=lambda p: np.diag([1.0, 0.1]),
                            lower=[0.0, 0.0], upper=[2.0, 10.0])
    assert res.params[0] == 2.0
    assert res.params[1] == pytest.approx(1.0, abs=1e-6)


def test_fifty_uphill_trials_end_the_fit():
    # |p| + 1 has its minimum at a kink; the given slope of the right branch
    # sends every damped step from p = 0 to the left, uphill however small,
    # so the fit stops after 50 trials at its start, not on the step size
    evals = []

    def residual(p):
        evals.append(p)
        return np.array([1.0 + abs(p[0])])

    res = fit_least_squares(residual, [0.0], jac=lambda p: np.array([[1.0]]))
    assert res.n_iterations == 1
    assert res.params.tolist() == [0.0] and res.cost == 1.0
    assert len(evals) == 1 + 50


def test_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(lsq, "MAX_ITER", 1)
    with pytest.raises(FitError):
        fit_least_squares(rosenbrock, [-1.2, 1.0], jac=rosenbrock_jac)


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e300], ids=["nan", "inf", "overflow"])
def test_initial_cost_that_is_not_finite_raises(value):
    # 1e300 is finite, but its square is not: the fit is refused before any
    # step, not run on an infinite cost
    evals = []

    def residual(p):
        evals.append(p)
        return np.array([value, p[0]])

    with pytest.raises(FitError, match="not finite at the initial parameters"):
        fit_least_squares(residual, [1.0], jac=lambda p: np.array([[0.0], [1.0]]))
    assert len(evals) == 1


def test_trial_cost_that_overflows_is_rejected_without_a_warning():
    # every step away from p = 5 meets residuals of 1e200, finite but with
    # squares that overflow: the trial cost is inf and the step rejected,
    # where a cost taken as r @ r warned "overflow encountered in matmul"
    def residual(p):
        return np.array([p[0], 0.0]) if p[0] == 5.0 else np.full(2, 1e200)

    res = fit_least_squares(residual, [5.0], jac=lambda p: np.array([[1.0], [0.0]]))
    assert res.params.tolist() == [5.0] and res.cost == 25.0


def test_cost_is_the_sum_of_squares_or_inf(rng):
    # a fixed-order sum: equal to the plain sum of squares to rounding, inf
    # for a residual that is nan, inf or has squares that overflow
    r = rng.normal(size=12002)
    assert lsq._cost(r) == pytest.approx(float(np.sum(r * r)), rel=1e-13)
    for bad in (np.nan, np.inf, 1e200):
        r[6001] = bad
        assert lsq._cost(r) == np.inf


@pytest.mark.parametrize("size", [1, 2, 7, 8, 255, 256])
def test_median_is_np_median_bit_for_bit(rng, size):
    # ties and signed zeros too: np.median means the middle values from +0.0
    draws = [rng.standard_normal(size), rng.integers(-2, 3, size) * 1e-10,
             np.where(rng.random(size) < 0.5, -0.0, 0.0),
             rng.standard_normal((size, 3))]
    for a in draws:
        assert lsq.median(a).tobytes() == np.median(a).tobytes()


def _traced_peak(call):
    """(result, peak bytes traced) of ``call()``."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fit_holds_one_jacobian_at_a_time(rng):
    # the last iteration's Jacobian is gone before the next one is built, so
    # a jac that allocates only its output peaks at one Jacobian plus
    # residual-sized arrays, not two Jacobians
    m, n = 4000, 25
    design = rng.standard_normal((m, n))
    y = design @ np.tanh(np.ones(n))

    def residual(p):
        return design @ np.tanh(p) - y

    def jacobian(p):
        return design * (1.0 - np.tanh(p) ** 2)

    res, peak = _traced_peak(lambda: fit_least_squares(residual, np.zeros(n), jac=jacobian))
    assert res.n_iterations >= 3
    assert peak < 1.5 * design.nbytes


def test_one_slot_drops_its_last_value_before_computing_the_next():
    previous, alive = [], []

    def compute(x):
        alive.append([ref() is not None for ref in previous])
        out = np.full(1000, x)
        previous.append(weakref.ref(out))
        return out, None

    get = lsq._one_slot(compute)
    get(1.0)
    get(1.0)
    get(2.0)
    get(np.array([3.0]))
    assert alive == [[], [False], [False, False]]


def test_numeric_jacobian_of_a_complex_view_allocates_one_residual():
    # each column is differenced in place, so besides its output it holds
    # only the residual fun returns, which as a view numpy cannot reuse
    z = np.exp(1j * np.linspace(0.0, 6.0, 20000))

    def fun(p):
        out = z * p[0]
        out += p[1]
        return out.view(float)

    p = np.array([1.5, 0.2])
    r0 = fun(p)
    jac, peak = _traced_peak(lambda: numeric_jacobian(fun, p, r0, [1.0, 1.0]))
    assert peak < jac.nbytes + 1.5 * r0.nbytes
    assert np.allclose(jac[::2], np.column_stack([z.real, np.ones(z.size)]), atol=1e-6)


def test_numeric_jacobian_matches_analytic():
    def fun(p):
        return np.array([p[0] ** 2 + p[1], np.sin(p[1])])

    p = np.array([1.5, 0.7])
    jac = numeric_jacobian(fun, p, fun(p), [1.0, 1.0])
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

    def jacobian(q):
        decay = np.exp(-q[0] * x)
        return np.column_stack([-q[1] * x * decay, decay, np.ones_like(x)])

    full = with_covariance(residual, fit_least_squares(residual, [1.0, 2.0, 0.3],
                                                       jac=jacobian), [1.0] * 3)
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
            alone = fit_least_squares(
                lambda q: q[1] * np.exp(-q[0] * x) - y, [1.0, 2.0],
                jac=lambda q: np.column_stack([-q[1] * x * np.exp(-q[0] * x),
                                               np.exp(-q[0] * x)]))
            assert np.allclose(sep.params[:2], alone.params, rtol=1e-6)
    assert zeros >= 3


@pytest.mark.parametrize("offset, p, kept", [(0.5, 0.7, 2), (0.0, 1.0, 1)],
                         ids=["both_columns", "offset_dropped"])
def test_separable_jacobian_is_the_derivative_of_its_residual(monkeypatch, offset, p, kept):
    # away from the optimum, where the residual is large enough that
    # Kaufman's one-term form fails this, and where the non-negative solve
    # drops the offset of test_separable_absent_component_solves_to_zero
    x = np.linspace(0, 4, 60)
    y = exp_plus_offset(x, np.random.default_rng(1), offset)
    given = {}

    def capture(fun, p0, *, jac, **kwargs):
        given.update(fun=fun, jac=jac)
        return fit_least_squares(fun, p0, jac=jac, **kwargs)

    monkeypatch.setattr(lsq, "fit_least_squares", capture)
    fit_separable(exp_basis(x), y, [1.0], x_scale=[1.0])
    p = np.array([p])
    assert np.count_nonzero(lsq._nonneg_solve(exp_basis(x)(p), y)[0]) == kept
    numeric = numeric_jacobian(given["fun"], p, given["fun"](p), [1.0])
    assert np.abs(given["jac"](p) - numeric).max() <= 1e-6 * np.abs(numeric).max()


def test_separable_computes_each_point_once(monkeypatch, rng):
    # one basis and one solve per point LM evaluates, which its Jacobian and
    # the covariance read back; only the dB/dp steps call the basis again
    x = np.linspace(0, 4, 60)
    calls = {"basis": 0, "solve": 0, "residual": 0, "jacobian": 0}

    def counting(key, fun):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fun(*args, **kwargs)
        return counted

    def capture(fun, p0, *, jac, **kwargs):
        return fit_least_squares(counting("residual", fun), p0,
                                 jac=counting("jacobian", jac), **kwargs)

    monkeypatch.setattr(lsq, "fit_least_squares", capture)
    monkeypatch.setattr(lsq, "_nonneg_solve", counting("solve", lsq._nonneg_solve))
    m = 1
    fit_separable(counting("basis", exp_basis(x)), exp_plus_offset(x, rng, 0.5), [1.0],
                  x_scale=[1.0])
    assert calls["jacobian"] >= 1
    assert calls["basis"] <= calls["residual"] + m * calls["jacobian"] + m + 1
    assert calls["solve"] <= calls["residual"] + 1


def test_separable_with_every_coefficient_negative(monkeypatch):
    # data below zero everywhere: every column is dropped, the coefficients
    # are zero and the Jacobian there is finite
    x = np.linspace(0, 4, 60)
    y = -(np.exp(-x) + 1.0)
    p = np.array([1.0])
    coef, keep, b_pinv = lsq._nonneg_solve(exp_basis(x)(p), y)
    assert np.array_equal(coef, [0.0, 0.0])
    assert not keep.any()
    assert b_pinv.shape == (0, x.size)
    given = {}

    def capture(fun, p0, *, jac, **kwargs):
        given.update(jac=jac)
        return fit_least_squares(fun, p0, jac=jac, **kwargs)

    monkeypatch.setattr(lsq, "fit_least_squares", capture)
    sep = fit_separable(exp_basis(x), y, p, x_scale=[1.0])
    assert np.array_equal(sep.params[1:], [0.0, 0.0])
    assert np.all(np.isfinite(given["jac"](p)))


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
    # 100 residuals, larger model with 10 parameters: s2 = 9 / 90 = 0.1
    big = lsq.LeastSquaresResult(params=np.zeros(10), residual=np.zeros(100),
                                 cost=9.0, n_iterations=1)
    delta, resolved = nested_gate(14.0, big)
    assert delta == pytest.approx(50.0)
    assert resolved
    delta, resolved = nested_gate(13.9, big)
    assert delta == pytest.approx(49.0)
    assert not resolved
