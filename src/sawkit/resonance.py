"""Reflection-spectrum fitting: single Lorentzian mode, or a mode loaded by
a weakly coupled dark mode.

The model evaluated against the data is

    S11(f) = a * exp(i * 2*pi*(f - f_ref) * tau)
             * [ 1 - kappa_e / (i*Delta + kappa/2 + g^2 / (i*Delta_b + gamma/2)) ]

with angular detunings ``Delta = 2*pi*(f - f0)`` and
``Delta_b = 2*pi*(f - f_dark)``; dropping the dark term (g = 0) gives the
plain Lorentzian reflection dip.  ``a`` is the background at ``f_ref``, which
a fit sets to the centre of its grid and reports.  Fits minimize the summed
squared complex residual (real and imaginary parts jointly), preserving the
phase information a magnitude-only fit would discard.  Every delay rotation,
the start-up estimate's too, is a :func:`_phasor` of ``2*pi*(f - f_ref)*tau``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitError, ValidationError
from .lsq import (MAX_ITER, _one_slot, _scaled_covariance, fit_least_squares, median,
                  nested_gate, numeric_jacobian, sigma)
from .spectra import ComplexSpectrum


@dataclass(frozen=True)
class DarkModeParams:
    f_dark_hz: float
    gamma_hz: float  # dark-mode internal loss, angular s^-1
    g_hz: float      # coupling rate to the primary mode, angular s^-1

    def __post_init__(self):
        if self.gamma_hz <= 0:
            raise ValidationError("gamma must be positive")
        if self.g_hz < 0:
            raise ValidationError("g must be nonnegative")


@dataclass(frozen=True)
class ResonanceModelParams:
    """Primary-mode rates plus optional dark mode and background."""

    f0_hz: float
    kappa_hz: float    # total loss rate, angular s^-1
    kappa_e_hz: float  # external coupling rate, angular s^-1
    dark: DarkModeParams | None = None
    a: complex = 1.0 + 0.0j  # complex background scale at f_ref_hz
    tau_s: float = 0.0       # cable delay: phase slope exp(i*2*pi*(f - f_ref)*tau)
    f_ref_hz: float = 0.0    # the frequency the background a refers to

    def __post_init__(self):
        if self.kappa_hz <= 0:
            raise ValidationError("kappa must be positive")
        if not 0.0 < self.kappa_e_hz < self.kappa_hz:
            raise ValidationError("need 0 < kappa_e < kappa")
        object.__setattr__(self, "a", complex(self.a))


@dataclass(frozen=True)
class ResonanceFitResult:
    params: ResonanceModelParams
    param_errors: dict
    qi: float
    qi_err: float
    qe: float
    qe_err: float
    residual_rms: float
    n_iterations: int


def _reciprocal(freq_hz, f0_hz, kappa, f_dark_hz=None, gamma=0.0, g=0.0):
    """(inv, g_pole) of the response ``1 - kappa_e * inv``.

    ``inv = 1 / (i*Delta + kappa/2 + g * g_pole)`` with the dark mode's
    ``g_pole = g / (i*Delta_b + gamma/2)``; ``g_pole`` is None without a
    dark mode.  These are the only complex divisions of the model.
    """
    freq = np.asarray(freq_hz, dtype=float)
    den = np.empty(freq.shape, complex)
    den.real = kappa / 2.0
    np.multiply(2.0 * np.pi, freq - f0_hz, out=den.imag)
    g_pole = None
    if f_dark_hz is not None:
        g_pole = np.empty(freq.shape, complex)
        g_pole.real = gamma / 2.0
        np.multiply(2.0 * np.pi, freq - f_dark_hz, out=g_pole.imag)
        np.divide(g, g_pole, out=g_pole)
        den += g * g_pole
    return np.reciprocal(den, out=den), g_pole


def _phasor(phase):
    """``exp(i*phase)`` of a real ``phase``, from its cosine and sine."""
    rot = np.empty(np.shape(phase), complex)
    np.cos(phase, out=rot.real)
    np.sin(phase, out=rot.imag)
    return rot


def _s11(inv, rot, kappa_e, a):
    """``a * rot * (1 - kappa_e * inv)`` from the reciprocal and phasor pieces."""
    out = inv * -kappa_e
    out += 1.0
    out *= rot
    out *= a
    return out


def eval_s11(params: ResonanceModelParams, freq_hz):
    """Model reflection at ``freq_hz`` (scalar or array)."""
    freq = np.asarray(freq_hz, dtype=float)
    dark = params.dark
    dark_mode = () if dark is None else (dark.f_dark_hz, dark.gamma_hz, dark.g_hz)
    inv, _ = _reciprocal(freq, params.f0_hz, params.kappa_hz, *dark_mode)
    out = _s11(inv, _phasor(2.0 * np.pi * (freq - params.f_ref_hz) * params.tau_s),
               params.kappa_e_hz, params.a)
    if np.isscalar(freq_hz):
        return complex(out)
    return out


def q_factors(params: ResonanceModelParams):
    """(Q_internal, Q_external) under the convention Q = 2*pi*f0 / rate."""
    w0 = 2.0 * np.pi * params.f0_hz
    qe = w0 / params.kappa_e_hz
    qi = w0 / (params.kappa_hz - params.kappa_e_hz)
    return qi, qe


def _robust_noise(mag):
    # high-frequency scatter estimate: MAD of successive differences
    d = np.abs(np.diff(mag))
    return 1.4826 * median(d) / np.sqrt(2.0)


def _smooth(x, width):
    kernel = np.ones(width) / width
    return np.convolve(np.pad(x, width, mode="edge"), kernel, mode="same")[width:-width]


def estimate_initial_params(spectrum: ComplexSpectrum) -> ResonanceModelParams:
    """Starting point for a fit: background, resonance position and widths.

    The background ``a * exp(i*2*pi*(f - f_ref)*tau)`` comes from the
    off-resonant edge samples, with ``a`` at the grid centre ``f_ref`` and
    ``tau`` the slope of their phase by the fit's turn, a centred line; a
    span whose squared turns overflow is a ``ValidationError``.  Dividing
    it out leaves ``dev = |1 - S11 / background|``, which equals
    ``kappa_e / |i*Delta + kappa/2|`` on either side of critical coupling,
    so the peak of ``dev`` gives f0 and kappa_e and the full width at half
    maximum of ``dev**2`` gives kappa without choosing a coupling branch.
    ``dev`` must have a finite sum of squares, and the resonance must stand
    out of it by three times its noise and lie fully inside the grid;
    otherwise ``FitError``.
    """
    freq = spectrum.frequencies_hz
    n = freq.size
    fc = float(freq[(n - 1) // 2])

    # background from the off-resonant edges: their phase slope gives the delay
    edge = max(5, n // 10)
    idx = np.concatenate([np.arange(edge), np.arange(n - edge, n)])
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        turn = 2.0 * np.pi * (freq - fc)
        t = turn[idx] - np.mean(turn[idx])
        t2 = np.sum(t * t)
    if not 0.0 < t2 < np.inf:
        raise ValidationError(f"frequency span {freq[0]:.6g} Hz to {freq[-1]:.6g} Hz is out of "
                              "range: its squared offsets from the centre overflow or vanish")
    tau = np.sum(t * np.unwrap(np.angle(spectrum.values[idx]))) / t2
    rot = _phasor(-tau * turn)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused here
        a = np.mean(spectrum.values[idx] * rot[idx])
        if not abs(a) > 0.0:
            raise FitError("no resolvable dip: the off-resonant background vanishes")
        dev = np.abs(1.0 - spectrum.values * rot / a)
        if not np.isfinite(dev @ dev):
            raise FitError("sum of squared deviations from the background is not finite")
    smooth = _smooth(dev, max(3, n // 200))
    i0 = int(np.argmax(smooth))
    baseline = float(median(smooth[idx]))
    if dev[i0] - baseline < 3.0 * max(_robust_noise(dev), 1e-12):
        raise FitError("no resolvable dip: depth is below 3x the trace noise")
    if i0 < 3 or i0 > n - 4:
        raise FitError("resonance dip truncated at the grid edge")

    # dev**2 is a Lorentzian of full width kappa; crossings by interpolation
    power = smooth**2
    target = 0.5 * power[i0]
    left = np.nonzero(power[:i0] < target)[0]
    right = np.nonzero(power[i0:] < target)[0]
    if left.size == 0 or right.size == 0:
        raise FitError("resonance dip truncated: half-depth width not bracketed")
    il = left[-1]
    ir = i0 + right[0]
    f_lo = np.interp(target, [power[il], power[il + 1]], [freq[il], freq[il + 1]])
    f_hi = np.interp(target, [power[ir], power[ir - 1]], [freq[ir], freq[ir - 1]])
    kappa = 2.0 * np.pi * max(f_hi - f_lo, freq[i0 + 1] - freq[i0])
    kappa_e = float(np.clip(kappa * dev[i0] / 2.0, 1e-6 * kappa, 0.999 * kappa))

    return ResonanceModelParams(f0_hz=float(freq[i0]), kappa_hz=float(kappa), kappa_e_hz=kappa_e,
                                a=complex(a), tau_s=float(tau), f_ref_hz=fc)


_MODEL_KINDS = ("lorentzian", "dark_mode")


def _fit_functions(freq, data, fc):
    """(model, residual, jacobian) of the parameter vector.

    The phase slope is taken about ``fc``, the background's reference
    frequency: at the grid centre it keeps tau and arg(a) from trading
    against each other during the fit.  The vector is (f0, kappa, kappa_e,
    a_re, a_im, tau); a 9-vector appends the dark mode (f_dark, gamma, g).
    ``residual`` is ``model - data`` viewed as floats, so its rows interleave
    the real and imaginary part of each frequency, and ``jacobian`` gives its
    exact derivatives in the same rows, one column per parameter.

    The three functions are products of two pieces of the model, each kept
    for the last parameter value it was computed at: the reciprocal
    denominator and the dark mode's ``g / pole`` of :func:`_reciprocal`,
    keyed on the exact bytes of (f0, kappa[, f_dark, gamma, g]), and the
    delay phasor ``exp(i*2*pi*(f - fc)*tau)``, keyed on the exact bytes of
    tau.  So no call divides, and neither piece is recomputed by the
    Jacobian at the point just evaluated, nor by a step from that point in
    kappa_e, a_re or a_im.  The pieces are read-only; each slot drops its
    point's pieces before it computes the next, and lives only as long as
    the closures, so nothing is kept from one fit to the next.  Each
    Jacobian call writes its rows into one fresh array, which it returns
    and the LM engine lets go once it has formed the normal equations.
    """
    turn = 2.0 * np.pi * (freq - fc)
    reciprocal = _one_slot(lambda f0, kappa, dark: _reciprocal(freq, f0, kappa, *dark))
    phasor = _one_slot(lambda tau: (_phasor(turn * tau),))

    def pieces(x):
        """(inv, g_pole, rot) at ``x``."""
        x = np.asarray(x, dtype=float)
        inv, g_pole = reciprocal(x[0], x[1], x[6:])
        (rot,) = phasor(x[5])
        return inv, g_pole, rot

    def model(x):
        inv, _, rot = pieces(x)
        return _s11(inv, rot, x[2], x[3] + 1j * x[4])

    def residual(x):
        out = model(x)
        out -= data
        return out.view(float)

    def jacobian(x):
        inv, g_pole, rot = pieces(x)
        kappa_e, a_re, a_im = x[2:5]
        a = a_re + 1j * a_im
        jt = np.empty((len(x), freq.size), complex)  # one row per parameter
        # e = d model / d a_re = rot * (1 - kappa_e * inv)
        np.multiply(inv, -kappa_e, out=jt[3])
        jt[3] += 1.0
        jt[3] *= rot
        np.multiply(jt[3], 1j, out=jt[4])
        np.multiply(jt[3], a, out=jt[5])
        # d/dtau of the delay's exponent is 1j * turn: a turn by 1j, then
        # each part scaled by turn, with no complex copy of turn
        jt[5] *= 1j
        jt[5].real *= turn
        jt[5].imag *= turn
        # d model / d kappa_e = -a * rot * inv; with it the derivative by the
        # denominator, d model / d den = a * rot * kappa_e * inv**2
        np.multiply(rot, -a, out=jt[2])
        jt[2] *= inv
        np.multiply(jt[2], -0.5 * kappa_e, out=jt[1])  # d den / d kappa = 1/2
        jt[1] *= inv
        np.multiply(jt[1], -4j * np.pi, out=jt[0])  # d den / d f0 = -2*pi*i
        if g_pole is not None:
            # d den / d g = 2 * g_pole, d den / d pole = -g_pole**2
            np.multiply(jt[1], g_pole, out=jt[8])
            np.multiply(jt[8], g_pole, out=jt[7])
            jt[7] *= -1.0
            np.multiply(jt[7], -4j * np.pi, out=jt[6])
            jt[8] *= 4.0
        return jt.view(float).T

    return model, residual, jacobian


def _physical(res):
    """``res`` if its rates hold finite 0 < kappa_e < kappa, else FitError."""
    if not (np.isfinite(res.params[1]) and 0.0 < res.params[2] < res.params[1]):
        raise FitError("fit pinned at a physical bound (kappa_e -> kappa)")
    return res


def fit_resonance(spectrum: ComplexSpectrum, model_kind="lorentzian") -> ResonanceFitResult:
    """Fit a reflection trace and return calibrated parameters with errors.

    One Lorentzian fit runs from :func:`estimate_initial_params`, which
    starts on the right side of critical coupling by itself.  ``model_kind``
    selects the plain Lorentzian or the dark-mode-loaded model; the dark mode
    is seeded from the largest residual feature left by the Lorentzian fit and
    refined in a second fit that keeps its pole within the trace's span.  That
    fit is reported only when ``lsq.nested_gate`` resolves its cost drop;
    otherwise, or when it does not converge, the Lorentzian fit is reported
    with ``dark`` None and ``n_iterations`` counting both fits.  The LM steps
    use the exact Jacobian of the model; every one-sigma uncertainty is
    ``lsq.sigma`` of the ``lsq._scaled_covariance`` of one numeric Jacobian at
    the optimum, those of Qi and Qe of its (f0, kappa, kappa_e) block.
    Residual, Jacobian and model are products of the reciprocal denominator
    (keyed on f0, kappa and the dark mode) and the delay phasor (keyed on
    tau) of the last point evaluated (:func:`_fit_functions`).  The Jacobian
    at an accepted step and the dark-mode seed at the Lorentzian optimum
    recompute neither, and the covariance columns of a_re, a_im and tau
    reuse the reciprocal.
    """
    if model_kind not in _MODEL_KINDS:
        raise ValidationError(f"model_kind must be one of {_MODEL_KINDS}")
    init = estimate_initial_params(spectrum)

    freq = spectrum.frequencies_hz
    data = spectrum.values
    span = float(freq[-1] - freq[0])

    model, residual, jacobian = _fit_functions(freq, data, init.f_ref_hz)
    x0 = [init.f0_hz, init.kappa_hz, init.kappa_e_hz,
          init.a.real, init.a.imag, init.tau_s]
    mag_a = max(abs(init.a), 0.1)
    scale = [init.kappa_hz / (2.0 * np.pi), init.kappa_hz, init.kappa_hz,
             mag_a, mag_a, 1.0 / (2.0 * np.pi * span)]

    res = _physical(fit_least_squares(residual, x0, jac=jacobian))
    n_iterations = res.n_iterations

    if model_kind == "dark_mode":
        rho = _smooth(np.abs(model(res.params) - data), 3)
        kappa_fit = res.params[1]
        # a dark mode narrower than two grid steps is not resolvable; bounding
        # gamma keeps the extra pole from chasing single-sample noise
        gamma_floor = 2.0 * np.pi * 2.0 * span / freq.size
        gamma0 = max(kappa_fit / 10.0, gamma_floor)
        dark0 = [float(freq[int(np.argmax(rho))]), gamma0, np.sqrt(0.1 * kappa_fit * gamma0)]
        dark_scale = scale + [gamma0 / (2.0 * np.pi), gamma0, gamma0]
        try:
            dark_fit = fit_least_squares(residual, list(res.params) + dark0, jac=jacobian,
                                         lower=[-np.inf] * 6 + [freq[0], gamma_floor, 0.0],
                                         upper=[np.inf] * 6 + [freq[-1], np.inf, np.inf])
            n_iterations += dark_fit.n_iterations
        except FitError:
            dark_fit = None  # LM gave up after MAX_ITER iterations
            n_iterations += MAX_ITER
        # Nested-model gate: the extra pole costs three parameters and its
        # position is searched, so a noise-level cost improvement does not
        # establish a dark mode.  Below threshold the Lorentzian fit stands.
        if dark_fit is not None and nested_gate(res.cost, dark_fit)[1]:
            res, scale = _physical(dark_fit), dark_scale
    scale = np.maximum(np.abs(res.params), scale)
    cov = _scaled_covariance(numeric_jacobian(residual, res.params, res.residual, scale),
                             res.cost, scale)

    x = res.params.tolist()
    dark = None
    err_keys = ["f0_hz", "kappa_hz", "kappa_e_hz", "a_re", "a_im", "tau_s"]
    if len(x) == 9:
        dark = DarkModeParams(*x[6:])
        err_keys += ["f_dark_hz", "gamma_hz", "g_hz"]
    params = ResonanceModelParams(*x[:3], dark=dark, a=complex(*x[3:5]), tau_s=x[5],
                                  f_ref_hz=init.f_ref_hz)
    qi, qe = q_factors(params)
    # Qi = 2*pi*f0 / (kappa - kappa_e) by (f0, kappa, kappa_e), and
    # Qe = 2*pi*f0 / kappa_e by (f0, kappa_e)
    f0, loss_i, kappa_e = res.params[0], res.params[1] - res.params[2], res.params[2]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # refused by key
        qi_err = sigma(cov[:3, :3], [qi / f0, -qi / loss_i, qi / loss_i])
        qe_err = sigma(cov[:3:2, :3:2], [qe / f0, -qe / kappa_e])
    return ResonanceFitResult(
        params=params,
        param_errors=dict(zip(err_keys, sigma(cov).tolist())),
        qi=float(qi),
        qi_err=float(qi_err),
        qe=float(qe),
        qe_err=float(qe_err),
        residual_rms=float(np.sqrt(res.cost / freq.size)),
        n_iterations=n_iterations,
    )
