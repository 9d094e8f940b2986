"""Standard-tunneling-model formulas and the sweep fitters built on them.

The frequency-shift model for a mode at ``f0`` is, relative to a reference
temperature ``T_ref``::

    shift(T) = (F_delta / pi) * [ bracket(T) - bracket(T_ref) ]
    bracket(T) = Re psi(1/2 + i*y) - ln(y),   y = hbar * 2*pi*f0 / (2*pi*kB*T)

so the shift is exactly zero at the reference temperature.  ``F_delta`` is
the product of the TLS filling fraction and the intrinsic loss tangent; it is
the single scalar the temperature-sweep fit extracts.  The power-sweep fit
reads it from the saturation of the internal loss with drive, which is
linear in ``F_delta`` and the residual loss ``1/Q_res``: both are solved and
only the critical phonon number and the exponent are searched.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitError, ValidationError
from .lsq import _scaled_covariance, fit_separable, nested_gate, sigma

HBAR = 1.054571817e-34  # J s (exact SI)
KB = 1.380649e-23       # J / K (exact SI)

# B_{2k}/(2k) for k = 1..8, the correction coefficients of the asymptotic
# series psi(z) ~ ln z - 1/(2z) - sum_k B_{2k} / (2k z^{2k}).
_ASYMPTOTIC_COEFFS = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
    -3617.0 / 8160.0,
)

_RECURRENCE_STEPS = 9


def re_digamma_half_plus_imag(y):
    """Re psi(1/2 + i*y) for real ``y`` (scalar or array).

    Takes nine steps of the upward recurrence psi(z) = psi(z+1) - 1/z, then
    the asymptotic Bernoulli series at z + 9.  Absolute accuracy is better
    than 1e-12 everywhere; the value is even in ``y`` because
    psi(conj z) = conj psi(z).
    """
    y_arr = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y_arr)):
        raise ValidationError("digamma argument must be finite")
    z = 0.5 + 1j * np.abs(y_arr)
    correction = np.zeros_like(y_arr)
    for k in range(_RECURRENCE_STEPS):
        correction += (1.0 / (z + k)).real
    z = z + _RECURRENCE_STEPS
    inv = 1.0 / z
    inv2 = inv * inv
    out = np.log(z) - 0.5 * inv
    term = inv2
    for c in _ASYMPTOTIC_COEFFS:
        out = out - c * term
        term = term * inv2
    out = out.real - correction
    if np.isscalar(y) or y_arr.ndim == 0:
        return float(out)
    return out


def _bracket(f0_hz, temperature_k):
    with np.errstate(divide="ignore", over="ignore"):  # refused below
        y = HBAR * f0_hz / (KB * temperature_k)
    if not np.all(np.isfinite(y)):
        raise ValidationError("hbar*f0/(kB*T) is not finite: a temperature is too small "
                              "for its f0")
    return re_digamma_half_plus_imag(y) - np.log(y)


def tls_frequency_shift(f_delta_tls, f0_hz, temperature_k,
                        reference_temperature_k=0.200):
    """Fractional frequency shift of a mode at ``f0_hz``, zero at the reference.

    ``temperature_k`` may be a scalar or array; all temperatures must be > 0.
    """
    t = np.asarray(temperature_k, dtype=float)
    if np.any(t <= 0) or reference_temperature_k <= 0:
        raise ValidationError("temperatures must be positive")
    if f0_hz <= 0:
        raise ValidationError("f0_hz must be positive")
    shape = _bracket(f0_hz, t) - _bracket(f0_hz, reference_temperature_k)
    out = (f_delta_tls / np.pi) * shape
    if np.isscalar(temperature_k):
        return float(out)
    return out


@dataclass(frozen=True)
class TlsFitResult:
    """Outcome of the one-parameter temperature-sweep fit."""

    f_delta_tls: float
    f_delta_err: float
    f0_hz: float
    reference_temperature_k: float
    residual_rms: float
    #: set when the fitted loss product came out <= 0 (a warning, not an error)
    non_positive: bool = False


def fit_fdelta(series) -> TlsFitResult:
    """Extract the TLS loss product from a temperature sweep.

    The model ``f0(T) = c + c*F_delta*shape(T)`` is linear in ``c``, the
    mode frequency at the reference temperature, and in ``c*F_delta``, so
    the weighted least-squares solution is closed form and the error of
    ``F_delta`` is ``lsq.sigma`` of their 2x2 covariance
    (``lsq._scaled_covariance``).  The bracket inside ``shape`` takes the
    frequency of the sweep point closest to the reference temperature, which
    changes the shift only at second order.
    """
    t = np.asarray(series.temperatures_k, dtype=float)
    f0 = np.asarray(series.f0_hz, dtype=float)
    err = np.asarray(series.f0_err_hz, dtype=float)

    t_ref = series.reference_temperature_k
    f_ref = f0[int(np.argmin(np.abs(t - t_ref)))]
    shape = (_bracket(f_ref, t) - _bracket(f_ref, t_ref)) / np.pi
    # 1/err scaled by the power of two that puts the largest in (1/2, 1]: the
    # scale is exact and cancels from the result, and no weight overflows
    scale = np.ldexp(1.0, np.frexp(err.min())[1] - 1)
    sw = scale / err if np.all(err > 0) else np.ones_like(t)
    design = np.column_stack([np.ones_like(t), shape]) * sw[:, None]
    # solving for the offset from f_ref keeps the shift digits
    (dc, d), _, rank, _ = np.linalg.lstsq(design, (f0 - f_ref) * sw, rcond=None)
    if rank < 2:
        raise FitError("degenerate temperature shape: "
                       "no usable spread in T among the weighted points")
    c = f_ref + dc
    f_delta = d / c

    resid = f0 - c - d * shape
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        cov = _scaled_covariance(design, float(np.sum((resid * sw) ** 2)),
                                 1.0 / np.linalg.norm(design, axis=0))
        f_delta_err = float(sigma(cov, [-d / c**2, 1.0 / c]))
    if not np.isfinite(f_delta_err):
        raise FitError("the error of F_delta is not finite: the squared f0 residuals overflow")
    return TlsFitResult(
        f_delta_tls=float(f_delta),
        f_delta_err=f_delta_err,
        f0_hz=float(c),
        reference_temperature_k=float(t_ref),
        residual_rms=float(np.sqrt(np.mean((resid / c) ** 2))),
        non_positive=bool(f_delta <= 0),
    )


def _thermal_factor(f0_hz, temperature_k):
    """tanh(hbar w / 2 kB T): the share of TLS left unsaturated by temperature;
    1 where kB T underflows to 0."""
    with np.errstate(divide="ignore", over="ignore"):
        return np.tanh(np.divide(HBAR * 2.0 * np.pi * f0_hz, 2.0 * KB * temperature_k))


def q_tls(f_delta_tls, f0_hz, temperature_k):
    """Quality factor set by TLS loss alone at the given temperature."""
    if f_delta_tls <= 0 or f0_hz <= 0 or temperature_k <= 0:
        raise ValidationError("q_tls arguments must all be positive")
    return 1.0 / (f_delta_tls * _thermal_factor(f0_hz, temperature_k))


@dataclass(frozen=True)
class PowerModelParams:
    """Parameters of the power-saturation model for the internal Q."""

    f_delta_tls: float
    n_c: float            # critical phonon number
    beta: float           # saturation exponent, in (0, 2]
    q_i_res: float        # residual (power-independent) internal Q
    temperature_k: float
    f0_hz: float

    def __post_init__(self):
        if min(self.f_delta_tls, self.n_c, self.q_i_res,
               self.temperature_k, self.f0_hz) <= 0:
            raise ValidationError("power-model parameters must be positive")
        if not 0.0 < self.beta <= 2.0:
            raise ValidationError("beta must lie in (0, 2]")


def _saturation(log_ratio, beta):
    """1 / sqrt(1 + (n/n_c)**beta) from ``ln(n/n_c)``, free of overflow."""
    return np.exp(-0.5 * np.logaddexp(0.0, beta * log_ratio))


def qi_power_model(params: PowerModelParams, mean_phonon_number):
    """Total internal Q at a given drive level.

    1/Q_tot = F_delta * tanh(hbar w / 2 kB T) / sqrt(1 + (n/n_c)^beta) + 1/Q_res
    """
    n = np.asarray(mean_phonon_number, dtype=float)
    if np.any(n <= 0):
        raise ValidationError("mean phonon number must be positive")
    with np.errstate(divide="ignore"):  # n / n_c that underflows saturates nothing
        log_ratio = np.log(n / params.n_c)
    tls_loss = (params.f_delta_tls * _thermal_factor(params.f0_hz, params.temperature_k)
                * _saturation(log_ratio, params.beta))
    out = 1.0 / (tls_loss + 1.0 / params.q_i_res)
    if np.isscalar(mean_phonon_number):
        return float(out)
    return out


#: sweeps spanning fewer than this many decades keep beta fixed by default
BETA_FREE_MIN_DECADES = 4.0
DEFAULT_BETA = 0.5


@dataclass(frozen=True)
class PowerSweepFitResult:
    params: PowerModelParams
    param_errors: dict
    beta_fixed: bool
    beta_unidentifiable: bool
    residual_rms: float
    n_iterations: int


def fit_power_sweep(series, fixed_beta=None) -> PowerSweepFitResult:
    """Fit the saturation model to a power sweep, minimizing error in 1/Q.

    ``1/Q = F_delta * tanh(hbar w / 2 kB T) * s(n) + 1/Q_res`` is linear in
    ``F_delta`` and ``1/Q_res``, so LM searches only ``ln n_c`` (and the
    exponent) and the two loss rates are solved, non-negative
    (:func:`lsq.fit_separable`).  ``fixed_beta`` pins the saturation
    exponent; when it is None the exponent is fitted only if the sweep spans
    at least four decades of phonon number (it is weakly identified on
    shorter sweeps) and held at 0.5 otherwise.  ``ln n_c`` is bounded to
    ``[ln n.min(), ln n.max()]``, as the dark pole of a resonance fit is
    bounded to its trace: beyond the drive range the saturation term can
    mimic the constant loss.  A loss rate that solves to zero (a sweep
    without saturation, or without a residual loss) raises FitError, and so
    does a saturation term that does not pass :func:`lsq.nested_gate`
    against a constant 1/Q, and a weight ``qi**2/qi_err`` that overflows or
    underflows to zero.
    """
    n = np.asarray(series.mean_phonon_number, dtype=float)
    qi = np.asarray(series.qi, dtype=float)
    qi_err = np.asarray(series.qi_err, dtype=float)

    if fixed_beta is not None and not 0.0 < fixed_beta <= 2.0:
        raise ValidationError("fixed beta must lie in (0, 2]")
    with np.errstate(over="ignore"):  # an infinite ratio spans enough decades
        decades = np.log10(n.max() / n.min())
    beta_fixed = fixed_beta is not None or bool(decades < BETA_FREE_MIN_DECADES)
    beta0 = DEFAULT_BETA if fixed_beta is None else float(fixed_beta)

    tanh_arg = _thermal_factor(series.f0_hz, series.temperature_k)
    with np.errstate(over="ignore"):  # refused below
        if np.all(qi_err > 0):
            w = qi**2 / qi_err  # 1/sigma of the 1/Q data
        else:
            w = np.full_like(qi, qi.mean())  # uniform in 1/Q units
    if not np.all(np.isfinite(w)):
        raise FitError("a weight qi**2/qi_err of the 1/Q data is not finite: qi is too large")
    if not np.all(w > 0):  # a point of zero weight would drop out unnoticed
        raise FitError("a weight qi**2/qi_err of the 1/Q data underflows to zero: qi is too small")

    # n_c starts where 1/Q has dropped halfway from its low-power value
    order = np.argsort(n)
    with np.errstate(over="ignore"):  # an infinite 1/Q compares as well
        below = np.nonzero(1.0 / qi[order] < 0.5 * (1.0 / qi.min() + 1.0 / qi.max()))[0]
    n_c0 = float(n[order[below[0]]]) if below.size else float(np.sqrt(n.min() * n.max()))

    def basis(p):
        beta = beta0 if beta_fixed else p[1]
        return w[:, None] * np.column_stack(
            [tanh_arg * _saturation(np.log(n) - p[0], beta), np.ones_like(n)])

    m = 1 if beta_fixed else 2  # searched: ln n_c, then beta when free
    data = w / qi
    res = fit_separable(basis, data, [np.log(n_c0), beta0][:m], x_scale=[1.0, 0.5][:m],
                        lower=[np.log(n.min()), 1e-3][:m], upper=[np.log(n.max()), 2.0][:m])
    f_delta, inv_q_res = res.params[-2:]
    if f_delta <= 0.0 or inv_q_res <= 0.0:
        raise FitError("a loss rate solved to zero: the sweep shows no "
                       + ("TLS saturation" if f_delta <= 0.0 else "residual loss"))
    # the saturation term has to beat a constant 1/Q, the weighted mean
    flat_resid = data - w * (w @ data) / (w @ w)
    _, saturates = nested_gate(float(flat_resid @ flat_resid), res)
    if not saturates:
        raise FitError("the sweep shows no TLS saturation")
    n_c = np.exp(res.params[0])
    beta = beta0 if beta_fixed else res.params[1]
    err = sigma(res.covariance)
    errs = {
        "f_delta_tls": float(err[-2]),
        "n_c": float(n_c * err[0]),
        "q_i_res": float(err[-1] / inv_q_res**2),
        "beta": 0.0 if beta_fixed else float(err[1]),
    }
    params = PowerModelParams(
        f_delta_tls=float(f_delta), n_c=float(n_c), beta=float(beta),
        q_i_res=float(1.0 / inv_q_res), temperature_k=float(series.temperature_k),
        f0_hz=float(series.f0_hz),
    )
    return PowerSweepFitResult(
        params=params,
        param_errors=errs,
        beta_fixed=beta_fixed,
        beta_unidentifiable=bool(not beta_fixed and errs["beta"] > beta),
        residual_rms=float(np.sqrt(res.cost / n.size)),
        n_iterations=res.n_iterations,
    )
