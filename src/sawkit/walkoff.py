"""Beam-steering (walk-off) analysis: the flux-ratio angle formula, curve
smoothing, and robust zero-crossing detection on tabulated walk-off curves.

The curves themselves come from an external anisotropic-elasticity solver;
this module only post-processes them to find drive orientations with zero
steering.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ValidationError
from .spectra import WalkoffCurve

#: |eta| below this at a non-crossing local minimum counts as a tangency
TANGENCY_THRESHOLD_DEG = 0.1


def walkoff_from_flux(p_perp, p_par, a_perp, a_par) -> float:
    """Walk-off angle in degrees from face-integrated power flux.

    eta = atan2(P_perp / A_perp, P_par / A_par), the angle between the power
    flow and the drive direction, normalized by the respective face areas.
    The result lies in (-90, 90); a vanishing or backward parallel flux has
    no propagating drive and is an error.
    """
    if a_perp <= 0 or a_par <= 0:
        raise ValidationError("face areas must be positive")
    if p_par == 0 and p_perp != 0:
        raise ValidationError("p_par = 0: drive is not propagating (eta at +/-90 deg)")
    eta = np.degrees(np.arctan2(p_perp / a_perp, p_par / a_par))
    if abs(eta) >= 90.0:
        raise ValidationError("backward parallel flux puts eta outside (-90, 90)")
    return float(eta)


def smooth_curve(curve: WalkoffCurve, half_width: int) -> WalkoffCurve:
    """Moving-average smoothing with edge-mirrored (symmetric) padding.

    The window is ``2*half_width + 1`` samples.  Symmetric padding makes the
    smoothed curve keep the original mean exactly.
    """
    if half_width < 1:
        raise ValidationError("half_width must be >= 1")
    n = curve.eta_deg.size
    if half_width >= n / 2:
        raise ValidationError("half_width must be smaller than half the curve length")
    w = 2 * half_width + 1
    padded = np.pad(curve.eta_deg, half_width, mode="symmetric")
    kernel = np.ones(w) / w
    smoothed = np.convolve(padded, kernel, mode="valid")
    return WalkoffCurve(curve.theta_deg, smoothed)


@dataclass(frozen=True)
class ZeroCrossing:
    theta_deg: float
    slope_deg_per_deg: float
    uncertainty_deg: float

    def to_json_dict(self):
        return asdict(self)


def _centered_slope(theta, eta, j):
    lo = max(j - 1, 0)
    hi = min(j + 1, theta.size - 1)
    return (eta[hi] - eta[lo]) / (theta[hi] - theta[lo])


def find_zero_crossings(curve: WalkoffCurve):
    """Sign changes of the curve, refined by local linear interpolation.

    Each crossing carries the local slope (centered difference at the nearer
    sample) and an uncertainty of half the local sample spacing.  An empty
    list is a valid result.  Tangential touches produce no sign change; see
    :func:`find_tangencies`.  Signs are compared, not multiplied, so no
    product of two samples can overflow or underflow.
    """
    theta = curve.theta_deg
    eta = curve.eta_deg

    def crossing(t, j, spacing):
        return ZeroCrossing(float(t), float(_centered_slope(theta, eta, j)),
                            float(spacing / 2.0))

    crossings = []
    for i in range(theta.size - 1):
        e0, e1 = eta[i], eta[i + 1]
        if e0 == 0.0:
            # exact sample zero: a crossing only if the signs flip across it
            left = eta[i - 1] if i > 0 else 0.0
            if min(left, e1) < 0 < max(left, e1):
                crossings.append(crossing(theta[i], i, theta[i + 1] - theta[i]))
            continue
        if min(e0, e1) < 0 < max(e0, e1):
            frac = e0 / (e0 - e1)
            t = theta[i] + frac * (theta[i + 1] - theta[i])
            crossings.append(crossing(t, i if frac < 0.5 else i + 1, theta[i + 1] - theta[i]))
    # trailing exact zero, falling or rising through it
    if eta[-1] == 0.0 and eta[-2] != 0.0:
        crossings.append(crossing(theta[-1], theta.size - 1, theta[-1] - theta[-2]))
    return crossings


def find_tangencies(curve: WalkoffCurve):
    """Near-zero local minima of |eta| that never change sign.

    Returns (theta, eta) pairs for local minima of the magnitude below
    ``TANGENCY_THRESHOLD_DEG``, excluding genuine crossings.
    """
    theta = curve.theta_deg
    eta = curve.eta_deg
    mag = np.abs(eta)
    out = []
    for i in range(1, theta.size - 1):
        sides = eta[i - 1], eta[i + 1]
        if (mag[i] <= mag[i - 1] and mag[i] < mag[i + 1] and mag[i] < TANGENCY_THRESHOLD_DEG
                and (min(sides) > 0 or max(sides) < 0)):  # one sign on both sides
            out.append((float(theta[i]), float(eta[i]) + 0.0))  # + 0.0 maps -0.0 to 0.0
    return out
