"""Synthetic measurements built from the analysis modules' own models.

Noise comes from ``rng_seed`` alone, so a seed always gives the same data.
"""
from __future__ import annotations

import numpy as np

from . import tls
from .errors import ValidationError
from .resonance import DarkModeParams, ResonanceModelParams, eval_s11
from .spectra import (AfmImage, ComplexSpectrum, PowerSweepSeries,
                      TemperatureSweepSeries, XpsSpectrum)
from .xps import pseudo_voigt


def synth_s11(f0_hz, kappa_hz, kappa_e_hz, freq_grid_hz, *, dark=None,
              noise_sigma=0.0, rng_seed=0) -> ComplexSpectrum:
    """Synthesize a reflection trace with optional dark mode and noise.

    ``dark`` is ``(g, delta_b_hz, gamma)`` where ``delta_b_hz`` is the dark
    mode's offset from ``f0_hz`` in ordinary Hz and ``g``/``gamma`` are
    angular rates.  Noise is complex Gaussian, ``noise_sigma`` per
    quadrature, drawn deterministically from ``rng_seed``.
    """
    if noise_sigma < 0:
        raise ValidationError("noise_sigma must be >= 0")
    freq = np.asarray(freq_grid_hz, dtype=float)
    dark_mode = None
    if dark is not None:
        g, delta_b_hz, gamma = dark
        dark_mode = DarkModeParams(f_dark_hz=f0_hz + delta_b_hz, gamma_hz=gamma, g_hz=g)
    vals = eval_s11(ResonanceModelParams(f0_hz, kappa_hz, kappa_e_hz, dark=dark_mode), freq)
    if noise_sigma > 0:
        rng = np.random.default_rng(rng_seed)
        vals = vals + noise_sigma * (rng.standard_normal(freq.size)
                                     + 1j * rng.standard_normal(freq.size))
    return ComplexSpectrum(freq, vals)


def synth_temperature_sweep(f_delta_tls, f0_hz, temperatures_k, *,
                            noise_sigma_hz=0.0, rng_seed=0,
                            reference_temperature_k=0.200) -> TemperatureSweepSeries:
    """Generate a temperature sweep from the frequency-shift model."""
    t = np.asarray(temperatures_k, dtype=float)
    if t.size == 0:
        raise ValidationError("temperature list is empty")
    if f_delta_tls < 0:
        raise ValidationError("f_delta_tls must be >= 0")
    shift = tls.tls_frequency_shift(f_delta_tls, f0_hz, t,
                                    reference_temperature_k=reference_temperature_k)
    f0 = f0_hz * (1.0 + np.asarray(shift))
    if noise_sigma_hz > 0:
        rng = np.random.default_rng(rng_seed)
        f0 = f0 + noise_sigma_hz * rng.standard_normal(t.size)
    err = np.full(t.size, float(noise_sigma_hz))
    return TemperatureSweepSeries(t, f0, err,
                                  reference_temperature_k=reference_temperature_k)


def synth_power_sweep(params: tls.PowerModelParams, phonon_numbers, *,
                      noise_frac=0.0, rng_seed=0) -> PowerSweepSeries:
    """Generate a power sweep from the saturation model.

    ``noise_frac`` is the relative Gaussian noise applied to each Q value and
    recorded as its error bar.
    """
    n = np.asarray(phonon_numbers, dtype=float)
    qi = np.asarray(tls.qi_power_model(params, n))
    if noise_frac > 0:
        rng = np.random.default_rng(rng_seed)
        qi = qi * (1.0 + noise_frac * rng.standard_normal(n.size))
    err = noise_frac * qi
    return PowerSweepSeries(n, qi, err, temperature_k=params.temperature_k,
                            f0_hz=params.f0_hz)


def synth_terrace_image(shape=(128, 128), pixel_pitch_m=(1e-9, 1e-9), *,
                        step_m=2.0e-10, n_terraces=3, noise_sigma_m=8.0e-11,
                        tilt_m_per_px=(0.0, 0.0), row_offset_sigma_m=0.0,
                        rng_seed=0) -> AfmImage:
    """Synthesize a terraced topograph: vertical bands ``step_m`` apart.

    Terrace boundaries are jittered per seed, by up to 5 % of the width; a
    draw that leaves a terrace narrower than one column is refused.  Optional
    plane tilt (``tilt_m_per_px`` = (x, y) slopes) and per-row height offsets
    model the usual scan artifacts.
    """
    ny, nx = shape
    if min(ny, nx) < 1:
        raise ValidationError(f"image shape must be positive, got {ny} x {nx}")
    if n_terraces < 1:
        raise ValidationError(f"need at least one terrace, got {n_terraces}")
    if noise_sigma_m < 0:
        raise ValidationError("noise_sigma_m must be >= 0")
    rng = np.random.default_rng(rng_seed)
    edges = np.linspace(0, nx, n_terraces + 1)
    jitter = rng.uniform(-0.05 * nx, 0.05 * nx, n_terraces - 1) if n_terraces > 1 else []
    bounds = [0] + [int(round(e + j)) for e, j in zip(edges[1:-1], jitter)] + [nx]
    narrowest = min(np.diff(bounds))
    if narrowest < 1:
        raise ValidationError(f"{n_terraces} terraces do not fit in {nx} columns: "
                              f"the narrowest drawn terrace is {narrowest} columns wide")
    level = np.zeros(nx)
    for k in range(n_terraces):
        level[bounds[k]:bounds[k + 1]] = k * step_m
    heights = np.tile(level, (ny, 1))
    x = np.arange(nx)
    y = np.arange(ny)[:, None]
    heights = heights + tilt_m_per_px[0] * x + tilt_m_per_px[1] * y
    if row_offset_sigma_m > 0:
        heights = heights + row_offset_sigma_m * rng.standard_normal((ny, 1))
    if noise_sigma_m > 0:
        heights = heights + noise_sigma_m * rng.standard_normal((ny, nx))
    return AfmImage(heights, pixel_pitch_m)


def synth_xps_spectrum(be_grid_ev, bands, *, element_line="O1s", step=(0.0, 0.0),
                       noise_sigma=0.0, rng_seed=0) -> XpsSpectrum:
    """Synthesize an XPS line: pseudo-Voigt bands on a Shirley step.

    ``bands`` is a sequence of (center_ev, sigma_ev, gamma_ev, mix, area);
    ``step`` is (low_level, high_level), the background at the low and the
    high binding-energy end of the grid.  Between them it follows the
    cumulative peak area (trapezoid rule), the profile an ideal inelastic
    background takes.  Counts are floored at zero after noise.
    """
    be = np.asarray(be_grid_ev, dtype=float)
    peak = np.zeros(be.size)
    for c, sigma, gamma, mix, area in bands:
        peak = peak + area * pseudo_voigt(be, c, sigma, gamma, mix)
    lo, hi = step
    counts = peak
    if hi or lo:
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (peak[1:] + peak[:-1]) * np.diff(be))])
        counts = lo + (hi - lo) * cum / cum[-1] + peak
    if noise_sigma > 0:
        rng = np.random.default_rng(rng_seed)
        counts = counts + noise_sigma * rng.standard_normal(be.size)
    counts = np.clip(counts, 0.0, None)
    return XpsSpectrum(be, counts, element_line)
