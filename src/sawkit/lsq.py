"""Damped least squares (Levenberg-Marquardt).

Every nonlinear fitter in the package goes through :func:`fit_least_squares`,
so convergence behavior and iteration accounting are uniform across
analyses.  Residual functions return a 1-d float array; the cost is the
plain sum of squared residuals (callers bake in any weights).  The LM steps
use a forward-difference Jacobian unless the caller hands in the exact one
(the resonance model does).  A fit stops when the step it would take is
under ``STEP_TOL``, before evaluating it, when an accepted step drops the
cost by less than ``COST_TOL``, or when no damping finds a downhill step.
A model that is a non-negative sum of nonlinear columns goes through
:func:`fit_separable`, which searches only the column parameters and solves
the coefficients (variable projection, Golub & Pereyra 1973).  Every
reported covariance comes from :func:`with_covariance`, one numeric
Jacobian of a residual at its optimum, also where the steps had an exact
one, so every reported sigma is taken the same way; every nested-model
comparison comes from :func:`nested_gate`.
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


def numeric_jacobian(fun, p, r0=None, x_scale=None):
    """Forward-difference Jacobian of ``fun`` at ``p``.

    Step sizes are sqrt(eps) times a per-parameter scale, so parameters of
    wildly different magnitude (Hz next to seconds) differentiate cleanly.
    """
    p = np.asarray(p, dtype=float)
    if r0 is None:
        r0 = np.asarray(fun(p), dtype=float)
    if x_scale is None:
        x_scale = np.ones_like(p)
    scale = np.maximum(np.abs(p), np.asarray(x_scale, dtype=float))
    jac = np.empty((r0.size, p.size))
    for i in range(p.size):
        h = _SQRT_EPS * scale[i]
        if h == 0.0:
            h = _SQRT_EPS
        p_step = p.copy()
        p_step[i] += h
        jac[:, i] = (np.asarray(fun(p_step), dtype=float) - r0) / h
    return jac


def _damped_step(a, g, d, lam):
    try:
        return np.linalg.solve(a + lam * np.diag(d), -g)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(a + lam * np.diag(d), -g, rcond=None)[0]


def fit_least_squares(fun, p0, *, x_scale=None, lower=None, upper=None, jac=None):
    """Minimize ``sum(fun(p)**2)`` from ``p0`` by damped least squares.

    ``jac``, when given, maps ``p`` to the ``(m, n)`` Jacobian of ``fun`` and
    is called once per iteration in place of :func:`numeric_jacobian`, which
    costs ``n`` evaluations of ``fun``.  It only steers the search: the
    covariance of the optimum comes from :func:`with_covariance`.

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
    FitError if ``MAX_ITER`` iterations pass without a stop.
    """
    p = np.asarray(p0, dtype=float).copy()
    n = p.size
    if x_scale is None:
        x_scale = np.maximum(np.abs(p), 1e-30)
    x_scale = np.asarray(x_scale, dtype=float)
    lo = np.full(n, -np.inf) if lower is None else np.asarray(lower, dtype=float)
    hi = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
    p = np.clip(p, lo, hi)

    r = np.asarray(fun(p), dtype=float)
    if not np.all(np.isfinite(r)):
        raise FitError("residual is not finite at the initial parameters")
    cost = float(r @ r)
    lam = LAM0

    for n_iter in range(1, MAX_ITER + 1):
        if jac is None:
            jac_p = numeric_jacobian(fun, p, r0=r, x_scale=x_scale)
        else:
            jac_p = jac(p)
        a = jac_p.T @ jac_p
        g = jac_p.T @ r
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
            cost_try = float(r_try @ r_try) if np.all(np.isfinite(r_try)) else np.inf
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
            # precision, which is as converged as the Jacobian (numeric or
            # exact) can show.
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


def nested_gate(cost_small, cost_big, dof_big):
    """(delta chi2, resolved) of a larger nested model: the cost drop in the
    larger model's residual variances (``cost_big / dof_big``), resolved
    from ``NESTED_MIN_CHI2`` up."""
    s2 = max(cost_big / max(1, dof_big), np.finfo(float).tiny)
    delta = float((cost_small - cost_big) / s2)
    return delta, delta >= NESTED_MIN_CHI2


def _nonneg_solve(basis, data):
    """Least-squares coefficients of ``basis`` for ``data``, each >= 0: the
    columns whose coefficients come out negative are dropped and the rest
    solved again (an active set in the spirit of Lawson & Hanson 1974)."""
    coef = np.zeros(basis.shape[1])
    keep = np.ones(basis.shape[1], dtype=bool)
    while keep.any():
        coef[keep] = np.linalg.lstsq(basis[:, keep], data, rcond=None)[0]
        if np.all(coef >= 0.0):
            break
        keep &= coef > 0.0
        coef[~keep] = 0.0
    return coef


def fit_separable(basis, data, p0, *, x_scale, lower=None, upper=None):
    """Fit ``data ~ basis(p) @ c`` with ``c >= 0`` solved at every evaluation.

    LM searches only ``p`` (through :func:`fit_least_squares`); the residual
    it sees is ``basis(p) @ c(p) - data``.  The result holds ``p`` followed by
    ``c``, with the covariance of the full residual ``basis(p) @ c - data``
    over both, so it carries the correlation of the coefficients with the
    searched parameters.
    """
    data = np.asarray(data, dtype=float)
    m = len(p0)

    def residual(p):
        b = basis(p)
        return b @ _nonneg_solve(b, data) - data

    res = fit_least_squares(residual, p0, x_scale=x_scale, lower=lower, upper=upper)
    b = basis(res.params)
    coef = _nonneg_solve(b, data)
    col_norm = np.maximum(np.linalg.norm(b, axis=0), np.finfo(float).tiny)
    return with_covariance(lambda q: basis(q[:m]) @ q[m:] - data,
                           replace(res, params=np.concatenate([res.params, coef])),
                           np.concatenate([x_scale, 1.0 / col_norm]))


def _scaled_covariance(jac, cost, scale):
    """Covariance of the optimum: (J'J)^-1 scaled by the residual variance.

    The inverse is taken in coordinates normalized by ``scale`` (the
    Jacobian's own step scale), so parameters of very different units (Hz
    next to seconds) share one eigenvalue floor.  Near-null directions of
    the normalized J'J are genuinely unidentified parameters; their
    eigenvalues are floored (not discarded) so the corresponding variances
    come out huge rather than deceptively small.  ``jac`` is scaled in
    place, so the caller hands over a Jacobian it no longer needs.
    """
    dof = max(1, jac.shape[0] - jac.shape[1])
    s2 = cost / dof
    jac *= scale
    w, v = np.linalg.eigh(jac.T @ jac)
    floor = max(float(w.max()), 0.0) * 1e-14 + np.finfo(float).tiny
    inv_w = 1.0 / np.maximum(w, floor)
    return (v * inv_w) @ v.T * np.outer(scale, scale) * s2
