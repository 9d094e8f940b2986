"""Topograph analysis: scan-line flattening, three-point plane leveling,
RMS roughness, and terrace step heights from an equally spaced comb of
Gaussians fitted to the height histogram, gated against free centers.
The terrace amplitudes are solved, not searched (``lsq.fit_separable``), and
the step result carries the histogram it was fitted to, for plotting.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import FitError, ValidationError
from .lsq import fit_separable, median, nested_gate
from .spectra import AfmImage

#: histogram bins never get finer than this (10 pm)
HIST_BIN_FLOOR_M = 1.0e-11

#: a terrace solved below this share of the largest amplitude is absent
_MIN_AMPLITUDE_SHARE = 0.05

#: the histogram spans the heights within this many core spans of the core,
#: the 0.1st to 99.9th percentile: a dust grain or spike past that fence
#: would set the bin count and stretch the axis.  Every terrace above 0.1 %
#: of the area lies inside the core however the area is shared, so a
#: dominant terrace cannot shrink the fence onto itself, as it would an
#: interquartile range
_FENCE_CORE_SPANS = 1.0


def remove_line_tilt(image: AfmImage, order=1) -> AfmImage:
    """Subtract a least-squares polynomial of ``order`` from every scan row.

    Rows run along the fast axis.  The result is idempotent: residual rows
    are orthogonal to the polynomial basis, so a second pass changes nothing.
    """
    if order not in (0, 1, 2):
        raise ValidationError("order must be 0, 1, or 2")
    h = image.heights_m
    nx = h.shape[1]
    # anchor each row at its first pixel so constant rows flatten to an
    # exact zero instead of least-squares roundoff
    anchored = h - h[:, :1]
    x = np.linspace(-1.0, 1.0, nx)
    basis = np.vander(x, order + 1, increasing=True)  # (nx, order+1)
    coef, *_ = np.linalg.lstsq(basis, anchored.T, rcond=None)
    return AfmImage(anchored - (basis @ coef).T, image.pixel_pitch_m)


def three_point_level(image: AfmImage, p1, p2, p3) -> AfmImage:
    """Subtract the plane through three sampled pixels (3x3 medians).

    Points are (x, y) pixel coordinates and must not be collinear.  The
    subtracted plane passes exactly through the three median heights, so the
    reference terrace lands at zero.
    """
    h = image.heights_m
    dx, dy = image.pixel_pitch_m
    pts = [p1, p2, p3]
    for px, py in pts:
        if not (0 <= px < image.nx and 0 <= py < image.ny):
            raise ValidationError(f"point ({px}, {py}) outside the image")
    (x1, y1), (x2, y2), (x3, y3) = pts
    cross = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
    if cross == 0:
        raise ValidationError("the three points are collinear")
    a = np.array([[px * dx, py * dy, 1.0] for px, py in pts])
    # slicing clips the 3x3 window at the far edges, max(..., 0) at the near
    z = np.array([median(h[max(py - 1, 0):py + 2, max(px - 1, 0):px + 2])
                  for px, py in pts])
    cx, cy, c0 = np.linalg.solve(a, z)
    xs = np.arange(image.nx) * dx
    ys = np.arange(image.ny)[:, None] * dy
    return AfmImage(h - (cx * xs + cy * ys + c0), image.pixel_pitch_m)


def rms_roughness(image: AfmImage) -> float:
    """R_q: root mean square height deviation over all pixels (meters).

    Heights whose squared deviations overflow are a ValidationError.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        # anchoring at one pixel first keeps a constant image at exactly zero
        d = image.heights_m - image.heights_m.flat[0]
        rq = float(np.sqrt(np.mean((d - d.mean()) ** 2)))
    if not np.isfinite(rq):
        raise ValidationError("R_q is not finite: the squared height deviations overflow")
    return rq


def _gaussians(x, centers, sigmas):
    return np.exp(-0.5 * ((np.asarray(x)[:, None] - centers) / sigmas) ** 2)


@dataclass(frozen=True)
class StepHeightResult:
    """Terrace statistics from the Gaussian fit to the height histogram."""

    centers_m: tuple          # fitted terrace centers, ascending
    sigma_m: float            # fitted terrace width, shared by every terrace
    amplitudes: tuple         # solved terrace peaks, pixels per bin
    step_heights_m: tuple     # consecutive center differences
    mean_step_m: float
    mean_step_err_m: float    # one sigma, from the fit covariance
    unequal_delta_chi2: float  # cost drop of free centers below the comb, in residual variances
    equal_steps: bool         # that drop stayed under lsq.NESTED_MIN_CHI2
    histogram: tuple = field(default=(), repr=False)  # fitted (bin centers, counts); no JSON

    def __post_init__(self):
        if self.sigma_m <= 0:
            raise ValidationError("fitted width must be positive")
        if any(b <= a for a, b in zip(self.centers_m, self.centers_m[1:])):
            raise ValidationError("centers must be strictly ascending")

    def evaluate(self, x):
        """The fitted histogram model (pixels per bin) at heights ``x``."""
        return _gaussians(x, self.centers_m, self.sigma_m) @ np.asarray(self.amplitudes)

    def to_json_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "histogram"}


def _sorted_percentile(h, q, rank=None):
    """``np.percentile(h, q)`` of the sorted 1-d ``h``, read by rank with
    numpy's own arithmetic: at the ``rank`` (``np.ceil`` for its
    ``method="higher"``, ``np.floor`` for ``"lower"``) of the virtual index
    ``(n - 1) q``, or, with no ``rank``, by its linear method's two-sided
    lerp.  Neither partitions a copy of ``h``, nor imports ``numpy.ma`` as
    the linear method does."""
    virtual = (h.size - 1) * (q / 100)
    if rank is not None:
        return h[int(rank(virtual))]
    i = min(int(virtual), h.size - 1)
    a, b = h[i], h[min(i + 1, h.size - 1)]
    t = virtual - i
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def height_histogram(image: AfmImage):
    """(bin centers, counts) with Freedman-Diaconis widths, floored at 10 pm,
    over the heights inside the fences one core span beyond the 0.1st and
    99.9th percentiles (pixels past them are not counted).  The heights are
    sorted once: the percentiles (:func:`_sorted_percentile`) and extremes
    read the sorted copy, and each bin counts the pixels between the ranks of
    its edges, half-open like ``np.histogram``'s bins and the last one
    closed, without its per-pixel index arrays."""
    h = np.sort(image.heights_m, axis=None)
    # rounding the core's ranks inward keeps the most extreme pixel on each
    # side out of it, so one spike cannot widen it even in a small image;
    # a flat core still gets a margin of one floor bin
    core_lo = _sorted_percentile(h, 0.1, np.ceil)
    core_hi = _sorted_percentile(h, 99.9, np.floor)
    margin = _FENCE_CORE_SPANS * max(core_hi - core_lo, HIST_BIN_FLOOR_M)
    lo = max(h[0], core_lo - margin)
    hi = min(h[-1], core_hi + margin)
    q75, q25 = _sorted_percentile(h, 75), _sorted_percentile(h, 25)
    width = max(2.0 * (q75 - q25) / h.size ** (1.0 / 3.0), HIST_BIN_FLOOR_M)
    # rounding down keeps every actual bin at or above the floor width
    n_bins = max(int((hi - lo) / width), 1)
    edges = np.histogram_bin_edges(h, bins=n_bins, range=(lo, hi))
    ranks = np.searchsorted(h, edges)
    ranks[-1] = np.searchsorted(h, edges[-1], side="right")
    counts = np.diff(ranks)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, counts


def fit_step_heights(image: AfmImage) -> StepHeightResult:
    """Terrace step heights of a leveled image from its height histogram.

    The model is ``sum_k A_k exp(-((x - mu0 - k*h) / sigma)**2 / 2)``, k = 0..2:
    LM searches (mu0, h, sigma) and solves the A_k.  The search starts at
    the count quantiles (k + 1/2)/3, with sigma the counts' spread about the
    nearest of them; the comb origin stays within the histogram's span.
    Fewer than three modes (equal Gaussians closer than 2 sigma merge; a
    terrace under 5 % of the largest amplitude is absent) raise FitError.
    A refit with free centers gates the equal spacing like the dark mode:
    under ``lsq.NESTED_MIN_CHI2`` both steps are ``h``, else the free ones.
    """
    x, counts = height_histogram(image)
    y = counts.astype(float)
    k = np.arange(3)
    bin_w = x[1] - x[0] if x.size > 1 else HIST_BIN_FLOOR_M
    start = x[np.searchsorted(np.cumsum(y) / y.sum(), (k + 0.5) / 3)]
    spread = np.sqrt(np.average(np.min((x[:, None] - start) ** 2, axis=1), weights=y))
    h0 = (start[2] - start[0]) / 2.0
    sigma0 = max(spread, 2.0 * bin_w)
    comb = fit_separable(lambda p: _gaussians(x, p[0] + k * p[1], p[2]), y,
                         [start.mean() - h0, h0, sigma0], x_scale=[sigma0] * 3,
                         lower=[x[0], 0.0, 0.5 * bin_w], upper=[x[-1], np.inf, np.inf])
    (mu0, h, sigma), amps = comb.params[:3], comb.params[3:]
    kept = (mu0 + k * h)[amps >= _MIN_AMPLITUDE_SHARE * amps.max()]
    n_modes = 1 + int(np.sum(np.diff(kept) >= 2.0 * sigma))
    if n_modes < 3:
        raise FitError(f"found {n_modes} resolvable height modes, need 3")

    free = fit_separable(lambda p: _gaussians(x, p[:3], p[3]), y, [*(mu0 + k * h), sigma],
                         x_scale=[sigma] * 4, lower=[-np.inf] * 3 + [0.5 * bin_w])
    delta_chi2, unequal = nested_gate(comb.cost, free)
    if not unequal:
        centers, steps, err = mu0 + k * h, (h, h), comb.param_errors[1]
    else:
        centers, sigma, amps = free.params[:3], free.params[3], free.params[4:]
        if not centers[0] < centers[1] < centers[2]:
            raise FitError("fitted modes degenerate: centers not distinct")
        steps, cov = np.diff(centers), free.covariance
        err = np.sqrt(max(cov[0, 0] + cov[2, 2] - 2.0 * cov[0, 2], 0.0)) / 2.0
    return StepHeightResult(
        centers_m=tuple(float(c) for c in centers),
        sigma_m=float(sigma),
        amplitudes=tuple(float(a) for a in amps),
        step_heights_m=tuple(float(s) for s in steps),
        mean_step_m=float(np.mean(steps)),
        mean_step_err_m=float(err),
        unequal_delta_chi2=delta_chi2,
        equal_steps=not unequal,
        histogram=(x, counts),
    )
