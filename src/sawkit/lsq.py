"""Damped least squares (Levenberg-Marquardt).

Every nonlinear fitter in the package goes through :func:`fit_least_squares`,
so convergence behavior and iteration accounting are uniform across
analyses.  Residual functions return a 1-d float array; the cost is the
plain sum of squared residuals (callers bake in any weights), and every
cost is one fixed-order sum (:func:`_cost`), so a fit steps the same way at
any BLAS thread count.  Every fit hands the engine its Jacobian: the
resonance model its exact one, :func:`fit_separable` its variable-projection
one.  A fit stops when the step it would take is under ``STEP_TOL``,
before evaluating it, when an accepted step drops the cost by less than
``COST_TOL``, or when no damping finds a downhill step.  A fit holds one
Jacobian at a time: the engine forms ``J'J`` and ``J'r`` from it and lets it
go before it tries a step, and each memo (:func:`_one_slot`) holds the model
pieces of one point.
A model that is a non-negative sum of nonlinear columns goes through
:func:`fit_separable`, which searches only the column parameters and solves
the coefficients (variable projection, Golub & Pereyra 1973).  Whatever
Jacobian the steps took, every covariance is that of one Jacobian at the
optimum (:func:`_scaled_covariance`): a separable fit's is
``[(dB/dp) c, B]`` over its parameters and coefficients, the resonance
fit's one numeric Jacobian of its residual (:func:`with_covariance`), and
``tls.fit_fdelta``, solved in closed form, takes its 2x2 covariance from its
own design matrix.  Every nested-model comparison comes from :func:`nested_gate`.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import FitError

_SQRT_EPS = np.sqrt(np.finfo(float).eps)

#: Levenberg-Marquardt settings; :func:`fit_least_squares` says how each acts
MAX_ITER = 200
COST_TOL = 1e-10
STEP_TOL = 1e-12
LAM0 = 1e-3


#: cost drop, in residual variances of the larger model, from which a
#: nested model's extra parameters count as resolved
NESTED_MIN_CHI2 = 50.0


@dataclass
class LeastSquaresResult:
    params: np.ndarray
    residual: np.ndarray
    cost: float
    n_iterations: int
    covariance: np.ndarray | None = None  # set by with_covariance

    @property
    def param_errors(self):
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))


def numeric_jacobian(fun, p, r0, x_scale):
    """Forward-difference Jacobian of ``fun`` at ``p``, where it is ``r0``.

    Step sizes are sqrt(eps) times the larger of ``|p|`` and ``x_scale``, so
    parameters of wildly different magnitude (Hz next to seconds) differentiate cleanly.
    Each column is differenced and divided in place in the output, so beside
    it the call holds only the residual ``fun`` returns for the step.
    """
    p = np.asarray(p, dtype=float)
    scale = np.maximum(np.abs(p), np.asarray(x_scale, dtype=float))
    jac = np.empty((r0.size, p.size))
    for i in range(p.size):
        h = _SQRT_EPS * scale[i]
        if h == 0.0:
            h = _SQRT_EPS
        p_step = p.copy()
        p_step[i] += h
        col = jac[:, i]
        np.subtract(fun(p_step), r0, out=col)
        col /= h
    return jac


def median(a):
    """``np.median`` of the flattened ``a``, bit for bit, without the import
    of ``numpy.ma`` that ``np.median`` makes: its partition (a nan sorts
    last and is then the median), then the ``np.mean`` of the middle element
    or of the middle two, a sum from +0.0 that turns a -0.0 into +0.0."""
    a = np.ravel(a)
    k, odd = divmod(a.size, 2)
    part = np.partition(a, [k, -1] if odd else [k - 1, k, -1])
    if np.isnan(part[-1]):
        return part[-1]
    return np.mean(part[k - 1 + odd:k + 1])


def _cost(r):
    """``sum(r**2)`` summed in one fixed order, so a fit takes the same steps
    at any BLAS thread count (``np.einsum`` calls no BLAS, where ``r @ r``
    is a ``ddot`` that OpenBLAS splits across threads on long vectors);
    ``inf`` for a residual that is not finite or whose squares overflow,
    which ``np.einsum``, unlike ``@``, sums without a warning."""
    cost = float(np.einsum("i,i->", r, r))
    return cost if np.isfinite(cost) else np.inf


def _damped_step(a, g, d, lam):
    try:
        return np.linalg.solve(a + lam * np.diag(d), -g)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(a + lam * np.diag(d), -g, rcond=None)[0]


def fit_least_squares(fun, p0, *, jac, lower=None, upper=None):
    """Minimize ``sum(fun(p)**2)`` from ``p0`` by damped least squares.

    ``jac`` maps ``p`` to the ``(m, n)`` Jacobian of ``fun``; every fit hands
    in its own, and it is called once per iteration, at the point the last
    accepted step reached.  The Jacobian lives only until ``J'J`` and
    ``J'r`` are formed from it, so it is gone before the trial steps and
    before the next one is built.  It only steers the search; the caller
    attaches the covariance of the optimum.

    The normal equations are damped with the Marquardt scaling
    ``(J'J + lam * diag(J'J))`` and ``lam``, starting at ``LAM0``, is adapted:
    divided by 10 after an accepted (downhill) step, multiplied by 10 after a
    rejected one.  Optional ``lower``/``upper`` box bounds are enforced by
    projecting trial steps.  The fit returns at the first of three stops:

    - the proposed (projected) step's norm is below ``STEP_TOL`` times the
      norm of the point it leads to; the step is not evaluated, and the
      current point is the result;
    - an accepted step lowers the cost by less than ``COST_TOL`` relative;
      the point it leads to is the result;
    - 50 damping trials in one iteration find no downhill step.

    ``n_iterations`` counts the iteration a stop happens in.  Raises
    FitError if the cost at ``p0`` is not finite (a residual that is nan or
    inf, or whose square overflows), or if ``MAX_ITER`` iterations pass
    without a stop.
    """
    p = np.asarray(p0, dtype=float).copy()
    n = p.size
    lo = np.full(n, -np.inf) if lower is None else np.asarray(lower, dtype=float)
    hi = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
    p = np.clip(p, lo, hi)

    r = np.asarray(fun(p), dtype=float)
    cost = _cost(r)
    if not np.isfinite(cost):
        raise FitError("sum of squared residuals is not finite at the initial parameters")
    lam = LAM0

    for n_iter in range(1, MAX_ITER + 1):
        jac_p = jac(p)
        a = jac_p.T @ jac_p
        g = jac_p.T @ r
        del jac_p  # gone before the trial steps and the next Jacobian
        d = np.diag(a).copy()
        d[d <= 0] = max(d.max(), 1.0) * 1e-14

        for _ in range(50):
            step = _damped_step(a, g, d, lam)
            p_try = np.clip(p + step, lo, hi)
            clipped = p_try != p + step
            if np.any(clipped) and not np.all(clipped):
                # re-solve in the free subspace so the bound does not stall
                # progress of the unconstrained parameters
                free = ~clipped
                sub = _damped_step(a[np.ix_(free, free)], g[free], d[free], lam)
                p_try = p_try.copy()
                p_try[free] = np.clip(p[free] + sub, lo[free], hi[free])
            if np.linalg.norm(p_try - p) < STEP_TOL * (np.linalg.norm(p_try) + STEP_TOL):
                return LeastSquaresResult(p, r, cost, n_iter)
            r_try = np.asarray(fun(p_try), dtype=float)
            cost_try = _cost(r_try)
            if cost_try < cost:
                rel_drop = (cost - cost_try) / max(cost, np.finfo(float).tiny)
                p, r, cost = p_try, r_try, cost_try
                if rel_drop < COST_TOL:
                    return LeastSquaresResult(p, r, cost, n_iter)
                lam = max(lam / 10.0, 1e-14)
                break
            lam = min(lam * 10.0, 1e15)
        else:
            # No downhill direction at any damping: stationary to numerical
            # precision, which is as converged as the Jacobian can show.
            return LeastSquaresResult(p, r, cost, n_iter)

    raise FitError(f"no convergence after {MAX_ITER} iterations (cost {cost:.3e})")


def with_covariance(fun, res, x_scale):
    """``res`` with the covariance of its optimum attached: one numeric
    Jacobian of ``fun`` (which is ``res.residual`` at ``res.params``), steps as
    in the fit, through :func:`_scaled_covariance`."""
    x_scale = np.asarray(x_scale, dtype=float)
    jac = numeric_jacobian(fun, res.params, r0=res.residual, x_scale=x_scale)
    return replace(res, covariance=_scaled_covariance(
        jac, res.cost, np.maximum(np.abs(res.params), x_scale)))


def nested_gate(cost_small, big: LeastSquaresResult):
    """(delta chi2, resolved) of the larger nested model fitted as ``big``:
    the cost drop in its residual variances (its cost over residuals less
    parameters), resolved from ``NESTED_MIN_CHI2`` up."""
    s2 = max(big.cost / max(1, big.residual.size - big.params.size), np.finfo(float).tiny)
    delta = float((cost_small - big.cost) / s2)
    return delta, delta >= NESTED_MIN_CHI2


def _one_slot(compute):
    """``compute`` (returning a tuple of arrays or None) remembered for its
    last arguments only, its arrays read-only: ``get(*args)`` recomputes only
    when the exact bytes of ``args`` differ from those of the last call.  The
    last value is dropped before the next is computed, so the slot never
    holds two."""
    slot = [None, None]  # [key, value]

    def get(*args):
        key = b"".join(np.asarray(arg).tobytes() for arg in args)
        if key != slot[0]:
            slot[:] = None, None
            value = compute(*args)
            for arr in value:
                if arr is not None:
                    arr.flags.writeable = False
            slot[:] = key, value
        return slot[1]

    return get


def _nonneg_solve(basis, data):
    """(c, keep, B+): least-squares coefficients >= 0 of ``basis`` for
    ``data``, the columns they use and those columns' pseudo-inverse, so
    ``c[keep] = B+ @ data``.  Columns whose coefficients come out negative are
    dropped and the rest solved again, one ``pinv`` per pass (an active set in
    the spirit of Lawson & Hanson 1974); with none left, ``B+`` is (0, rows)."""
    coef = np.zeros(basis.shape[1])
    keep = np.ones(basis.shape[1], dtype=bool)
    while True:
        b_pinv = np.linalg.pinv(basis[:, keep])
        coef[keep] = b_pinv @ data
        if np.all(coef >= 0.0):
            return coef, keep, b_pinv
        keep &= coef > 0.0
        coef[~keep] = 0.0


def fit_separable(basis, data, p0, *, x_scale, lower=None, upper=None):
    """Fit ``data ~ basis(p) @ c`` with ``c >= 0`` solved at every evaluation.

    LM searches only ``p`` (through :func:`fit_least_squares`); the residual
    it sees is ``r = B c(p) - data`` with ``B = basis(p)``.  It steps on the
    variable-projection Jacobian (Golub & Pereyra 1973)

        dr/dp_j = (I - P) (dB/dp_j) c - (B+)' (dB/dp_j)' r,

    with ``B``, its pseudo-inverse ``B+``, the projection ``P = B B+`` and
    ``c`` restricted to the columns the non-negative solve keeps.  Both terms
    stay: the second, which Kaufman's (1975) form drops, is of the size of
    the residual, and without it a terrace comb of uneven areas misses its
    steps.  The last point's ``B``, solve (``B+`` too) and ``r`` are kept
    (:func:`_one_slot`), so the Jacobian reads them there.  ``dB/dp`` is one
    :func:`numeric_jacobian` of ``basis`` alone, with steps from ``x_scale``.

    The result holds ``p`` followed by ``c``, with the covariance over both of
    the residual ``B c - data`` from its Jacobian ``[(dB/dp) c, B]`` at the
    optimum (every column of ``B``), so it correlates ``c`` with ``p``.
    """
    data = np.asarray(data, dtype=float)

    def solved(p):
        b = basis(p)
        coef, keep, b_pinv = _nonneg_solve(b, data)
        return b, coef, keep, b_pinv, b @ coef - data

    def d_basis(p, b):  # [row, column, p_j]
        d_b = numeric_jacobian(lambda q: basis(q).ravel(), p, b.ravel(), x_scale)
        return d_b.reshape(b.shape + p.shape)

    def jacobian(p):
        b, coef, keep, b_pinv, r = point(p)
        d_b, b = d_basis(p, b)[:, keep], b[:, keep]
        d_b_c = np.einsum("ikj,k->ij", d_b, coef[keep])
        return (d_b_c - b @ (b_pinv @ d_b_c)
                - b_pinv.T @ np.einsum("ikj,i->kj", d_b, r))

    point = _one_slot(solved)
    res = fit_least_squares(lambda p: point(p)[4], p0, jac=jacobian, lower=lower, upper=upper)
    b, coef = point(res.params)[:2]
    params = np.concatenate([res.params, coef])
    col_norm = np.maximum(np.linalg.norm(b, axis=0), np.finfo(float).tiny)
    scale = np.maximum(np.abs(params), np.concatenate([x_scale, 1.0 / col_norm]))
    jac = np.concatenate([np.einsum("ikj,k->ij", d_basis(res.params, b), coef), b], axis=1)
    return replace(res, params=params, covariance=_scaled_covariance(jac, res.cost, scale))


def _scaled_covariance(jac, cost, scale):
    """Covariance of the optimum: (J'J)^-1 scaled by the residual variance.

    The inverse is taken in coordinates normalized by ``scale`` (the
    Jacobian's own step scale), so parameters of very different units (Hz
    next to seconds) share one eigenvalue floor.  Near-null directions of
    the normalized J'J are genuinely unidentified parameters; their
    eigenvalues are floored (not discarded) so the corresponding variances
    come out huge rather than deceptively small; one whose scale squared
    overflows comes out infinite, which a report refuses by its key.
    ``jac`` is scaled in place, so the caller hands over a Jacobian it no
    longer needs.
    """
    dof = max(1, jac.shape[0] - jac.shape[1])
    s2 = cost / dof
    jac *= scale
    w, v = np.linalg.eigh(jac.T @ jac)
    floor = max(float(w.max()), 0.0) * 1e-14 + np.finfo(float).tiny
    inv_w = 1.0 / np.maximum(w, floor)
    with np.errstate(over="ignore", invalid="ignore"):
        return (v * inv_w) @ v.T * np.outer(scale, scale) * s2
