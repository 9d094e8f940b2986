import numpy as np
import pytest

from sawkit.spectra import PowerSweepSeries

TWO_PI = 2.0 * np.pi
EULER_GAMMA = 0.5772156649015328606


def brute_force_re_digamma(y, n_terms=10_000_000):
    """Independent oracle for Re psi(1/2 + iy): direct series summation.

    Sums n = 0 .. n_terms of [1/(n+1) - Re 1/(n + 1/2 + iy)] minus Euler's
    constant, plus an analytic tail correction for the truncated remainder
    (accurate to well below 1e-12 for n_terms = 1e7).
    """
    y = float(y)
    total = 0.0
    chunk = 1_000_000
    for start in range(0, n_terms + 1, chunk):
        n = np.arange(start, min(start + chunk, n_terms + 1), dtype=float)
        m = n + 0.5
        total += float(np.sum(1.0 / (n + 1.0) - m / (m * m + y * y)))
    m0 = n_terms + 1.5
    tail = -0.5 * (1.0 / m0 + 0.5 / m0**2) + (0.25 + y * y) / (2.0 * m0**2)
    return total - EULER_GAMMA + tail


@pytest.fixture(scope="session")
def series_digamma_oracle():
    return brute_force_re_digamma


def rates_from_qs(f0_hz, qi, qe):
    """(kappa, kappa_e) angular rates for given quality factors."""
    w0 = TWO_PI * f0_hz
    kappa_e = w0 / qe
    return kappa_e + w0 / qi, kappa_e


def resonance_grid(f0_hz, qi, qe, span_linewidths=2.5, points=3001):
    ql = 1.0 / (1.0 / qi + 1.0 / qe)
    fwhm = f0_hz / ql
    return np.linspace(f0_hz - span_linewidths * fwhm,
                       f0_hz + span_linewidths * fwhm, points)


def dip_depth(qi, qe):
    """|S11| drop at resonance for an undercoupled mode with unit background."""
    return 1.0 - abs(qe - qi) / (qe + qi)


def flat_power_sweep():
    """Q = 2600 with 1 % noise over ten decades of drive: nothing saturates."""
    n = np.geomspace(1.0, 1e10, 25)
    qi = 2600.0 * (1.0 + 0.01 * np.random.default_rng(0).standard_normal(n.size))
    return PowerSweepSeries(n, qi, 0.01 * qi, temperature_k=0.010, f0_hz=6.9e8)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
