"""Domain containers, text formats, and synthetic-data generators.

All analysis modules and every property test consume the types defined here.
Unit conventions used throughout the package:

* frequencies are absolute and in Hz;
* loss and coupling rates (kappa, kappa_e, gamma, g) are angular, in s^-1,
  so a modal quality factor is ``2*pi*f0 / rate``;
* XPS axes are binding energies in eV, AFM heights and pixel pitches in m.

Three text formats are normative for this artifact and produced bit-exactly
by the matching serializers:

* reflection trace:  ``# key=value`` metadata lines, a ``freq_hz,re,im``
  header, then one CSV row per frequency point;
* XPS line scan:  a ``# line=<element>`` header (plus optional ``# key=value``
  metadata), a ``be_ev,counts`` header, then CSV rows;
* AFM grid:  a ``nx ny dx_m dy_m`` header line followed by ``ny`` rows of
  ``nx`` whitespace-separated heights in meters.

Temperature sweeps (``temperature_K,f0_hz,f0_err_hz``), power sweeps
(``n_mean,qi,qi_err``) and walk-off curves (``theta_deg,eta_deg``) use plain
CSV with the same comment convention.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tls
from .errors import ParseError, ValidationError

def _frozen_array(value, dtype=float):
    arr = np.array(value, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ComplexSpectrum:
    """A frequency-indexed complex reflection trace (raw S11 measurement)."""

    frequencies_hz: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        f = _frozen_array(self.frequencies_hz)
        v = _frozen_array(self.values, dtype=complex)
        if f.ndim != 1 or f.size < 8:
            raise ValidationError("need at least 8 frequency points")
        if v.shape != f.shape:
            raise ValidationError("values length must equal frequencies length")
        if not np.all(np.isfinite(f)):
            raise ValidationError("frequencies must be finite")
        if np.any(np.diff(f) <= 0):
            raise ValidationError("frequencies must be strictly increasing")
        if not np.all(np.isfinite(v.real) & np.isfinite(v.imag)):
            raise ValidationError("reflection values must be finite")
        object.__setattr__(self, "frequencies_hz", f)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "meta", dict(self.meta))


@dataclass(frozen=True)
class TemperatureSweepSeries:
    """Per-temperature fitted mode frequencies for one resonance."""

    temperatures_k: np.ndarray
    f0_hz: np.ndarray
    f0_err_hz: np.ndarray
    reference_temperature_k: float = 0.200

    def __post_init__(self):
        t = _frozen_array(self.temperatures_k)
        f = _frozen_array(self.f0_hz)
        e = _frozen_array(self.f0_err_hz)
        if t.ndim != 1 or f.shape != t.shape or e.shape != t.shape:
            raise ValidationError("temperature/f0/err columns must have equal length")
        if np.unique(t).size < 4:
            raise ValidationError("need at least 4 distinct temperatures")
        if np.any(t <= 0) or np.any(t > 1.0):
            raise ValidationError("temperatures must lie in (0, 1] K")
        if not 0.0 < self.reference_temperature_k <= 1.0:
            raise ValidationError("reference temperature must lie in (0, 1] K")
        if np.any(f <= 0) or np.any(e < 0):
            raise ValidationError("f0 must be positive and errors nonnegative")
        object.__setattr__(self, "temperatures_k", t)
        object.__setattr__(self, "f0_hz", f)
        object.__setattr__(self, "f0_err_hz", e)


@dataclass(frozen=True)
class PowerSweepSeries:
    """Internal quality factor versus mean phonon number at one temperature."""

    mean_phonon_number: np.ndarray
    qi: np.ndarray
    qi_err: np.ndarray
    temperature_k: float
    f0_hz: float

    def __post_init__(self):
        n = _frozen_array(self.mean_phonon_number)
        q = _frozen_array(self.qi)
        e = _frozen_array(self.qi_err)
        if n.ndim != 1 or q.shape != n.shape or e.shape != n.shape:
            raise ValidationError("phonon/qi/err columns must have equal length")
        if n.size < 5:
            raise ValidationError("need at least 5 sweep points")
        if np.any(n <= 0) or np.any(q <= 0) or np.any(e < 0):
            raise ValidationError("phonon numbers and qi must be positive")
        if np.log10(n.max() / n.min()) < 3.0 - 1e-9:
            raise ValidationError("sweep must span at least 3 decades of phonon number")
        if self.temperature_k <= 0 or self.f0_hz <= 0:
            raise ValidationError("temperature and f0 must be positive")
        object.__setattr__(self, "mean_phonon_number", n)
        object.__setattr__(self, "qi", q)
        object.__setattr__(self, "qi_err", e)


@dataclass(frozen=True)
class XpsSpectrum:
    """Binding-energy-indexed photoelectron counts for one elemental line."""

    binding_energy_ev: np.ndarray
    counts: np.ndarray
    element_line: str

    def __post_init__(self):
        be = _frozen_array(self.binding_energy_ev)
        c = _frozen_array(self.counts)
        if be.ndim != 1 or be.size < 2 or c.shape != be.shape:
            raise ValidationError("energy/counts columns must be 1-d and equal length")
        d = np.diff(be)
        if not (np.all(d > 0) or np.all(d < 0)):
            raise ValidationError("binding-energy axis must be strictly monotone")
        if np.any(c < 0) or not np.all(np.isfinite(c)):
            raise ValidationError("counts must be finite and nonnegative")
        if not self.element_line:
            raise ValidationError("element_line label must be non-empty")
        object.__setattr__(self, "binding_energy_ev", be)
        object.__setattr__(self, "counts", c)

    def ascending(self):
        """The same spectrum with the energy axis ascending."""
        if self.binding_energy_ev[0] < self.binding_energy_ev[-1]:
            return self
        return XpsSpectrum(self.binding_energy_ev[::-1], self.counts[::-1],
                           self.element_line)


@dataclass(frozen=True)
class AfmImage:
    """A topograph: row-major height matrix plus the pixel pitch."""

    heights_m: np.ndarray
    pixel_pitch_m: tuple  # (dx, dy), meters per pixel

    def __post_init__(self):
        h = _frozen_array(self.heights_m)
        if h.ndim != 2 or h.shape[0] < 16 or h.shape[1] < 16:
            raise ValidationError("image must be at least 16 x 16")
        if not np.all(np.isfinite(h)):
            raise ValidationError("heights must be finite")
        dx, dy = self.pixel_pitch_m
        if dx <= 0 or dy <= 0:
            raise ValidationError("pixel pitch must be positive")
        object.__setattr__(self, "heights_m", h)
        object.__setattr__(self, "pixel_pitch_m", (float(dx), float(dy)))

    @property
    def ny(self):
        return self.heights_m.shape[0]

    @property
    def nx(self):
        return self.heights_m.shape[1]


@dataclass(frozen=True)
class WalkoffCurve:
    """Beam-steering (walk-off) angle sampled against drive direction."""

    theta_deg: np.ndarray
    eta_deg: np.ndarray

    def __post_init__(self):
        th = _frozen_array(self.theta_deg)
        et = _frozen_array(self.eta_deg)
        if th.ndim != 1 or et.shape != th.shape or th.size < 2:
            raise ValidationError("theta/eta columns must be 1-d and equal length")
        if np.any(np.diff(th) <= 0):
            raise ValidationError("theta must be strictly increasing")
        if th[-1] - th[0] < 90.0:
            raise ValidationError("curve must span at least 90 degrees")
        if not (np.all(np.isfinite(th)) and np.all(np.isfinite(et))):
            raise ValidationError("curve samples must be finite")
        object.__setattr__(self, "theta_deg", th)
        object.__setattr__(self, "eta_deg", et)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _split_lines(text):
    """Yield (1-based line number, stripped content) for non-blank lines."""
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line:
            yield i, line


def _parse_csv_body(text, header, n_fields):
    """Common comment/header/row scanning for the CSV formats.

    Returns (meta dict, list of (line_no, fields)).
    """
    meta = {}
    rows = []
    header_seen = False
    for lineno, line in _split_lines(text):
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                meta[key.strip()] = value.strip()
            continue
        if not header_seen:
            got = [t.strip() for t in line.split(",")]
            if got != list(header):
                raise ParseError(f"expected header {','.join(header)!r}, got {line!r}",
                                 line=lineno)
            header_seen = True
            continue
        fields = [t.strip() for t in line.split(",")]
        if len(fields) != n_fields:
            raise ParseError(f"expected {n_fields} fields, got {len(fields)}",
                             line=lineno)
        try:
            rows.append((lineno, [float(t) for t in fields]))
        except ValueError:
            raise ParseError(f"non-numeric field in row {line!r}", line=lineno) from None
    if not header_seen:
        raise ParseError(f"missing header {','.join(header)!r}")
    return meta, rows


def _meta_float(meta, key, default=None):
    """A numeric ``# key=value`` metadata entry, or ``default`` if absent."""
    value = meta.get(key, default)
    if value is None:
        raise ParseError(f"missing '# {key}=...' metadata line")
    try:
        return float(value)
    except ValueError:
        raise ParseError(f"non-numeric metadata '# {key}={value}'") from None


def parse_s11_csv(text) -> ComplexSpectrum:
    """Parse a reflection trace.  See the module docstring for the format."""
    meta, rows = _parse_csv_body(text, ("freq_hz", "re", "im"), 3)
    if len(rows) < 8:
        raise ParseError(f"need at least 8 data rows, got {len(rows)}")
    freq = np.array([r[1][0] for r in rows])
    vals = np.array([complex(r[1][1], r[1][2]) for r in rows])
    bad = np.nonzero(np.diff(freq) <= 0)[0]
    if bad.size:
        raise ParseError("frequency not strictly increasing", line=rows[bad[0] + 1][0])
    try:
        return ComplexSpectrum(freq, vals, meta)
    except ValidationError as exc:
        raise ParseError(str(exc)) from exc


def parse_xps_csv(text) -> XpsSpectrum:
    """Parse an XPS line scan; the ``# line=<element>`` header is required."""
    meta, rows = _parse_csv_body(text, ("be_ev", "counts"), 2)
    if "line" not in meta:
        raise ParseError("missing '# line=<element>' header")
    if len(rows) < 2:
        raise ParseError("need at least 2 data rows")
    be = np.array([r[1][0] for r in rows])
    counts = np.array([r[1][1] for r in rows])
    neg = np.nonzero(counts < 0)[0]
    if neg.size:
        raise ParseError("negative counts", line=rows[neg[0]][0])
    d = np.diff(be)
    if not (np.all(d > 0) or np.all(d < 0)):
        bad = np.nonzero(d * d[0] <= 0)[0]
        raise ParseError("binding-energy axis not strictly monotone",
                         line=rows[bad[0] + 1][0])
    return XpsSpectrum(be, counts, meta["line"])


def parse_afm_grid(text) -> AfmImage:
    """Parse an AFM height grid; header is ``nx ny dx_m dy_m``."""
    lines = list(_split_lines(text))
    lines = [(n, s) for n, s in lines if not s.startswith("#")]
    if not lines:
        raise ParseError("empty AFM grid file")
    head_no, head = lines[0]
    parts = head.split()
    if len(parts) != 4:
        raise ParseError("header must be 'nx ny dx_m dy_m'", line=head_no)
    try:
        nx, ny = int(parts[0]), int(parts[1])
        dx, dy = float(parts[2]), float(parts[3])
    except ValueError:
        raise ParseError("non-numeric header field", line=head_no) from None
    data_rows = lines[1:]
    if len(data_rows) != ny:
        raise ParseError(f"header claims {ny} rows but {len(data_rows)} present",
                         line=head_no)
    heights = np.empty((ny, nx))
    for j, (lineno, line) in enumerate(data_rows):
        fields = line.split()
        if len(fields) != nx:
            raise ParseError(f"expected {nx} heights, got {len(fields)}", line=lineno)
        try:
            row = np.array([float(t) for t in fields])
        except ValueError:
            raise ParseError("non-numeric height", line=lineno) from None
        if not np.all(np.isfinite(row)):
            raise ParseError("non-finite height", line=lineno)
        heights[j] = row
    try:
        return AfmImage(heights, (dx, dy))
    except ValidationError as exc:
        raise ParseError(str(exc)) from exc


def parse_tempsweep_csv(text) -> TemperatureSweepSeries:
    """Parse a ``temperature_K,f0_hz,f0_err_hz`` sweep.

    An optional ``# reference_temperature_K=...`` metadata line overrides the
    0.200 K default.
    """
    meta, rows = _parse_csv_body(text, ("temperature_K", "f0_hz", "f0_err_hz"), 3)
    cols = np.array([r[1] for r in rows])
    if cols.size == 0:
        raise ParseError("no data rows")
    t_ref = _meta_float(meta, "reference_temperature_K", 0.200)
    try:
        return TemperatureSweepSeries(cols[:, 0], cols[:, 1], cols[:, 2],
                                      reference_temperature_k=t_ref)
    except ValidationError as exc:
        raise ParseError(str(exc)) from exc


def parse_powersweep_csv(text) -> PowerSweepSeries:
    """Parse an ``n_mean,qi,qi_err`` sweep.

    ``# temperature_K=...`` and ``# f0_hz=...`` metadata lines carry the
    operating point the model needs.
    """
    meta, rows = _parse_csv_body(text, ("n_mean", "qi", "qi_err"), 3)
    cols = np.array([r[1] for r in rows])
    if cols.size == 0:
        raise ParseError("no data rows")
    temperature_k = _meta_float(meta, "temperature_K")
    f0_hz = _meta_float(meta, "f0_hz")
    try:
        return PowerSweepSeries(cols[:, 0], cols[:, 1], cols[:, 2],
                                temperature_k=temperature_k, f0_hz=f0_hz)
    except ValidationError as exc:
        raise ParseError(str(exc)) from exc


def parse_walkoff_csv(text) -> WalkoffCurve:
    """Parse a ``theta_deg,eta_deg`` walk-off curve."""
    _, rows = _parse_csv_body(text, ("theta_deg", "eta_deg"), 2)
    cols = np.array([r[1] for r in rows])
    if cols.size == 0:
        raise ParseError("no data rows")
    try:
        return WalkoffCurve(cols[:, 0], cols[:, 1])
    except ValidationError as exc:
        raise ParseError(str(exc)) from exc


# ---------------------------------------------------------------------------
# serialization (inverse of the parsers, bit-stable formatting)
# ---------------------------------------------------------------------------

def _fmt(x):
    return format(float(x), ".17g")


def _meta_lines(meta):
    return [f"# {k}={v}" for k, v in sorted(meta.items())]


def format_s11_csv(spectrum: ComplexSpectrum) -> str:
    lines = _meta_lines(spectrum.meta)
    lines.append("freq_hz,re,im")
    for f, v in zip(spectrum.frequencies_hz, spectrum.values):
        lines.append(f"{_fmt(f)},{_fmt(v.real)},{_fmt(v.imag)}")
    return "\n".join(lines) + "\n"


def format_xps_csv(spectrum: XpsSpectrum) -> str:
    lines = [f"# line={spectrum.element_line}", "be_ev,counts"]
    for be, c in zip(spectrum.binding_energy_ev, spectrum.counts):
        lines.append(f"{_fmt(be)},{_fmt(c)}")
    return "\n".join(lines) + "\n"


def format_afm_grid(image: AfmImage) -> str:
    dx, dy = image.pixel_pitch_m
    lines = [f"{image.nx} {image.ny} {_fmt(dx)} {_fmt(dy)}"]
    for row in image.heights_m:
        lines.append(" ".join(_fmt(h) for h in row))
    return "\n".join(lines) + "\n"


def format_tempsweep_csv(series: TemperatureSweepSeries) -> str:
    lines = [f"# reference_temperature_K={_fmt(series.reference_temperature_k)}",
             "temperature_K,f0_hz,f0_err_hz"]
    for t, f, e in zip(series.temperatures_k, series.f0_hz, series.f0_err_hz):
        lines.append(f"{_fmt(t)},{_fmt(f)},{_fmt(e)}")
    return "\n".join(lines) + "\n"


def format_powersweep_csv(series: PowerSweepSeries) -> str:
    lines = [f"# f0_hz={_fmt(series.f0_hz)}",
             f"# temperature_K={_fmt(series.temperature_k)}",
             "n_mean,qi,qi_err"]
    for n, q, e in zip(series.mean_phonon_number, series.qi, series.qi_err):
        lines.append(f"{_fmt(n)},{_fmt(q)},{_fmt(e)}")
    return "\n".join(lines) + "\n"


def format_walkoff_csv(curve: WalkoffCurve) -> str:
    lines = ["theta_deg,eta_deg"]
    for th, et in zip(curve.theta_deg, curve.eta_deg):
        lines.append(f"{_fmt(th)},{_fmt(et)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

def bare_s11(freq_hz, f0_hz, kappa, kappa_e, f_dark_hz=None, gamma=0.0, g=0.0):
    """Reflection of a single mode, optionally loaded by a dark mode.

    ``kappa``, ``kappa_e``, ``gamma`` and ``g`` are angular rates (s^-1);
    no background scale or cable delay is applied here.
    """
    delta = 2.0 * np.pi * (np.asarray(freq_hz, dtype=float) - f0_hz)
    den = 1j * delta + kappa / 2.0
    if f_dark_hz is not None:
        delta_b = 2.0 * np.pi * (np.asarray(freq_hz, dtype=float) - f_dark_hz)
        den = den + g**2 / (1j * delta_b + gamma / 2.0)
    return 1.0 - kappa_e / den


def synth_s11(f0_hz, kappa_hz, kappa_e_hz, freq_grid_hz, *, dark=None,
              noise_sigma=0.0, rng_seed=0, meta=None) -> ComplexSpectrum:
    """Synthesize a reflection trace with optional dark mode and noise.

    ``dark`` is ``(g, delta_b_hz, gamma)`` where ``delta_b_hz`` is the dark
    mode's offset from ``f0_hz`` in ordinary Hz and ``g``/``gamma`` are
    angular rates.  Noise is complex Gaussian, ``noise_sigma`` per
    quadrature, drawn deterministically from ``rng_seed``.
    """
    if not kappa_hz > kappa_e_hz > 0:
        raise ValidationError("rates must satisfy kappa > kappa_e > 0")
    if noise_sigma < 0:
        raise ValidationError("noise_sigma must be >= 0")
    freq = np.asarray(freq_grid_hz, dtype=float)
    if dark is not None:
        g, delta_b_hz, gamma = dark
        if gamma <= 0 or g < 0:
            raise ValidationError("dark mode needs gamma > 0 and g >= 0")
        vals = bare_s11(freq, f0_hz, kappa_hz, kappa_e_hz,
                        f_dark_hz=f0_hz + delta_b_hz, gamma=gamma, g=g)
    else:
        vals = bare_s11(freq, f0_hz, kappa_hz, kappa_e_hz)
    if noise_sigma > 0:
        rng = np.random.default_rng(rng_seed)
        vals = vals + noise_sigma * (rng.standard_normal(freq.size)
                                     + 1j * rng.standard_normal(freq.size))
    return ComplexSpectrum(freq, vals, meta or {})


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


def synth_power_sweep(params: "tls.PowerModelParams", phonon_numbers, *,
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

    Terrace boundaries are jittered per seed, and optional plane tilt
    (``tilt_m_per_px`` = (x, y) slopes) and per-row height offsets model the
    usual scan artifacts.
    """
    ny, nx = shape
    rng = np.random.default_rng(rng_seed)
    edges = np.linspace(0, nx, n_terraces + 1)
    jitter = rng.uniform(-0.05 * nx, 0.05 * nx, n_terraces - 1) if n_terraces > 1 else []
    bounds = [0] + [int(round(e + j)) for e, j in zip(edges[1:-1], jitter)] + [nx]
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


def synth_xps_spectrum(be_grid_ev, bands, *, element_line="O1s",
                       step=(0.0, 0.0, None, 1.0), step_shape="sigmoid",
                       baseline=0.0, noise_sigma=0.0, rng_seed=0) -> XpsSpectrum:
    """Synthesize an XPS line: pseudo-Voigt bands on an inelastic step.

    ``bands`` is a sequence of (center_ev, sigma_ev, gamma_ev, mix, area);
    ``step`` is (low_level, high_level, center_ev, width_ev) with the high
    side at high binding energy (center None puts it mid-window).  With
    ``step_shape="shirley"`` the step instead follows the cumulative peak
    area (trapezoid rule), the profile an ideal inelastic background takes;
    center/width are then ignored.  Counts are floored at zero after noise.
    """
    from .xps import pseudo_voigt  # local import; xps builds on this module

    be = np.asarray(be_grid_ev, dtype=float)
    counts = np.full(be.size, float(baseline))
    peak = np.zeros(be.size)
    for c, sigma, gamma, mix, area in bands:
        peak = peak + area * pseudo_voigt(be, c, sigma, gamma, mix)
    lo, hi, center, width = step
    if hi or lo:
        if step_shape == "shirley":
            cum = np.concatenate([[0.0], np.cumsum(0.5 * (peak[1:] + peak[:-1])
                                                   * np.diff(be))])
            counts = counts + lo + (hi - lo) * cum / cum[-1]
        else:
            if center is None:
                center = 0.5 * (be.min() + be.max())
            counts = counts + lo + (hi - lo) / (1.0 + np.exp(-(be - center)
                                                             / max(width, 1e-9)))
    counts = counts + peak
    if noise_sigma > 0:
        rng = np.random.default_rng(rng_seed)
        counts = counts + noise_sigma * rng.standard_normal(be.size)
    counts = np.clip(counts, 0.0, None)
    return XpsSpectrum(be, counts, element_line)
