"""Domain containers and the text formats they are read from and written to.

All analysis modules and every property test consume the types defined here.
Unit conventions used throughout the package:

* frequencies are absolute and in Hz;
* loss and coupling rates (kappa, kappa_e, gamma, g) are angular, in s^-1,
  so a modal quality factor is ``2*pi*f0 / rate``;
* XPS axes are binding energies in eV, AFM heights and pixel pitches in m.

Three text formats are normative for this artifact:

* reflection trace:  ``# key=value`` metadata lines, a ``freq_hz,re,im``
  header, then one CSV row per frequency point;
* XPS line scan:  a ``# line=<element>`` header (plus optional ``# key=value``
  metadata), a ``be_ev,counts`` header, then CSV rows;
* AFM grid:  a ``nx ny dx_m dy_m`` header line followed by ``ny`` rows of
  ``nx`` whitespace-separated heights in meters.

Temperature sweeps (``temperature_K,f0_hz,f0_err_hz``), power sweeps
(``n_mean,qi,qi_err``) and walk-off curves (``theta_deg,eta_deg``) use plain
CSV with the same comment convention.  Every value must be finite.  A file
that breaks a container's invariant is reported as a
:class:`~sawkit.errors.ParseError`.  Reflection
traces, AFM grids and both sweeps, the kinds ``sawkit synth`` writes, also
have serializers, which write them bit-exactly.

Every parser takes the file's bytes, decoded as UTF-8 while they are read
(bytes that are not UTF-8 are a ParseError), or a ``str``.  Lines end as
universal newlines end them: at LF, CRLF or a lone CR, mixed or not.  The
``# key=value`` comments before the header are the metadata; a ``#`` line
after it is a plain comment.  Each reader takes the comments and the header
line by line, then streams the rest of the lines into one ``np.loadtxt``
call, so it holds neither the decoded text nor a list of its lines: blank
lines, ``#`` comments between rows and spaces around fields are all
accepted.  The rules on row values (finite, strictly increasing, in range)
are checked only in each container's ``__post_init__``, which reports the
first offending row as :attr:`ValidationError.row
<sawkit.errors.ValidationError>`.  Only once a row is found faulty, by the
loader or by the container, is the stream walked again from its start, line
by line, to name the faulty line in the error.  A metadata or header value
the container refuses, such as ``# f0_hz=-6.9e8`` or a pixel pitch that is
not positive, is named as :attr:`ValidationError.field
<sawkit.errors.ValidationError>`, and the reader reports it with the line it
read that value from.
"""
from __future__ import annotations

import functools
import io
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, ValidationError


def _freeze_table(obj, shape_error, finite_error, *, size, ndim=1, **dtypes):
    """Set the fields ``dtypes`` names to read-only copies: the columns of one table.

    Each copy has the dtype given for its field.  All must have one shape, of
    ``ndim`` dimensions each at least ``size`` long, else
    ``ValidationError(shape_error)``; the first row of the table that holds a
    value that is not finite raises ``ValidationError(finite_error, row=...)``.
    Returns the copies in order.
    """
    cols = [np.array(getattr(obj, name), dtype=dtype) for name, dtype in dtypes.items()]
    shape = cols[0].shape
    if len(shape) != ndim or min(shape) < size or any(c.shape != shape for c in cols):
        raise ValidationError(shape_error)
    finite = [np.isfinite(c).all(axis=tuple(range(1, ndim))) for c in cols]
    _reject_rows(~np.logical_and.reduce(finite), finite_error)
    for name, c in zip(dtypes, cols):
        c.setflags(write=False)
        object.__setattr__(obj, name, c)
    return cols


def _reject_rows(bad, message, first=0):
    """Raise ``ValidationError(message, row=first + i)`` at the first ``i`` where
    ``bad`` holds; ``first=1`` maps a mask over consecutive pairs to the later row."""
    hits = np.flatnonzero(bad)
    if hits.size:
        raise ValidationError(message, row=first + int(hits[0]))


@dataclass(frozen=True)
class ComplexSpectrum:
    """A frequency-indexed complex reflection trace (raw S11 measurement)."""

    frequencies_hz: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        f, _ = _freeze_table(self, "need at least 8 frequency points, one value for each",
                             "non-finite frequency or reflection value", size=8,
                             frequencies_hz=float, values=complex)
        _reject_rows(np.diff(f) <= 0, "frequencies must be strictly increasing", first=1)
        object.__setattr__(self, "meta", dict(self.meta))


@dataclass(frozen=True)
class TemperatureSweepSeries:
    """Per-temperature fitted mode frequencies for one resonance."""

    temperatures_k: np.ndarray
    f0_hz: np.ndarray
    f0_err_hz: np.ndarray
    reference_temperature_k: float = 0.200

    def __post_init__(self):
        t, f, e = _freeze_table(self, "temperature/f0/err columns must have equal length",
                                "non-finite temperature, f0 or error", size=0,
                                temperatures_k=float, f0_hz=float, f0_err_hz=float)
        # the distinct values of the sorted column, without np.unique's
        # import of numpy.ma
        if 1 + np.count_nonzero(np.diff(np.sort(t))) < 4:
            raise ValidationError("need at least 4 distinct temperatures")
        _reject_rows((t <= 0) | (t > 1.0), "temperatures must lie in (0, 1] K")
        if not 0.0 < self.reference_temperature_k <= 1.0:
            raise ValidationError("reference temperature must lie in (0, 1] K",
                                  field="reference_temperature_k")
        _reject_rows((f <= 0) | (e < 0), "f0 must be positive and errors nonnegative")


@dataclass(frozen=True)
class PowerSweepSeries:
    """Internal quality factor versus mean phonon number at one temperature."""

    mean_phonon_number: np.ndarray
    qi: np.ndarray
    qi_err: np.ndarray
    temperature_k: float
    f0_hz: float

    def __post_init__(self):
        n, q, e = _freeze_table(self, "need at least 5 sweep points, each with qi and error",
                                "non-finite phonon number, qi or error", size=5,
                                mean_phonon_number=float, qi=float, qi_err=float)
        _reject_rows((n <= 0) | (q <= 0) | (e < 0),
                     "phonon numbers and qi must be positive and errors nonnegative")
        if np.log10(n.max() / n.min()) < 3.0 - 1e-9:
            raise ValidationError("sweep must span at least 3 decades of phonon number")
        for name in ("temperature_k", "f0_hz"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValidationError("temperature and f0 must be positive and finite",
                                      field=name)


@dataclass(frozen=True)
class XpsSpectrum:
    """Binding-energy-indexed photoelectron counts for one elemental line."""

    binding_energy_ev: np.ndarray
    counts: np.ndarray
    element_line: str

    def __post_init__(self):
        be, c = _freeze_table(self, "energy/counts columns must be 1-d and equal length",
                              "non-finite energy or counts", size=2,
                              binding_energy_ev=float, counts=float)
        step = np.sign(np.diff(be))
        _reject_rows(step * step[0] < 1, "binding-energy axis must be strictly monotone",
                     first=1)
        _reject_rows(c < 0, "counts must be nonnegative")
        if not self.element_line:
            raise ValidationError("element_line label must be non-empty", field="element_line")

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
        _freeze_table(self, "image must be at least 16 x 16", "non-finite height",
                      size=16, ndim=2, heights_m=float)
        dx, dy = self.pixel_pitch_m
        if not (0 < dx < np.inf and 0 < dy < np.inf):
            raise ValidationError("pixel pitch must be positive and finite",
                                  field="pixel_pitch_m")
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
        th, _ = _freeze_table(self, "theta/eta columns must be 1-d and equal length",
                              "non-finite curve sample", size=2,
                              theta_deg=float, eta_deg=float)
        _reject_rows(np.diff(th) <= 0, "theta must be strictly increasing", first=1)
        if th[-1] - th[0] < 90.0:
            raise ValidationError("curve must span at least 90 degrees")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _stream(source):
    """A text stream over ``source``: bytes, decoded as UTF-8 while they are
    read, or a str.  Either way its lines end as universal newlines end
    them, at LF, CRLF or a lone CR, and it can go back to its start."""
    if isinstance(source, str):
        return io.StringIO(source, newline=None)
    return io.TextIOWrapper(io.BytesIO(source), encoding="utf-8")


def _parser(read):
    """The public parser that runs ``read`` on a :func:`_stream` over its
    ``str`` or ``bytes`` source; bytes that are not UTF-8 are a ParseError."""
    @functools.wraps(read)
    def parse(source):
        try:
            with _stream(source) as stream:
                return read(stream)
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc}") from None
    return parse


def _numbered_rows(stream):
    """(1-based line number, stripped line) of the header and each data row.

    Walks ``stream`` again from its start and yields its non-blank lines
    that are not ``#`` comments.  Only the error paths below walk it, to
    name a line.
    """
    stream.seek(0)
    for number, line in enumerate(stream, start=1):
        line = line.strip()
        if line and line[0] != "#":
            yield number, line


def _row_error(stream, message, row):
    """A ParseError naming the line of data row ``row``; row -1 is the header."""
    lineno, _ = next(itertools.islice(_numbered_rows(stream), row + 1, None))
    return ParseError(message, line=lineno)


def _unreadable(stream, ncols, delimiter, exc):
    """The ParseError for rows that ``np.loadtxt`` did not read as ``ncols`` floats.

    Walks the rows after the header to name the first bad line: a wrong field
    count, or a field the loader rejects (``1_000`` is one, though ``float``
    takes it).
    """
    for lineno, line in itertools.islice(_numbered_rows(stream), 1, None):
        fields = line.partition("#")[0].split(delimiter)
        if len(fields) != ncols:
            return ParseError(f"expected {ncols} fields, got {len(fields)}", line=lineno)
        try:
            np.loadtxt([line], delimiter=delimiter, comments="#")
        except ValueError:
            return ParseError(f"non-numeric field in row {line!r}", line=lineno)
    return ParseError(f"unreadable rows: {exc}")


def _head(stream):
    """Read ``stream`` from its start up to its header line.

    Returns ((meta dict, 1-based line of each meta key), the header's line
    number, the stripped header), the last two None when every line is blank
    or a comment.  The ``# key=value`` comments before the header are the
    metadata; the stream is left after the header.
    """
    meta, meta_lines = {}, {}
    for number, line in enumerate(stream, start=1):
        line = line.strip()
        if line[:1] == "#":
            key, eq, value = line[1:].partition("=")
            if eq:
                meta[key.strip()] = value.strip()
                meta_lines[key.strip()] = number
        elif line:
            return (meta, meta_lines), number, line
    return (meta, meta_lines), None, None


def _load_rows(stream, ncols, delimiter):
    """The rows left in ``stream`` (blank lines and comments allowed) as one
    float array of ``ncols`` columns, by one ``np.loadtxt`` call; a fault in
    them is named by its line through :func:`_unreadable`."""
    lines = filter(None, map(str.strip, stream))
    first = next((line for line in lines if line[0] != "#"), None)
    if first is None:  # np.loadtxt warns on no rows at all
        return np.empty((0, ncols))
    try:
        rows = np.loadtxt(itertools.chain([first], lines), delimiter=delimiter,
                          comments="#", ndmin=2)
    except UnicodeDecodeError:  # a ValueError too, but no row is at fault
        raise
    except ValueError as exc:
        raise _unreadable(stream, ncols, delimiter, exc) from None
    if rows.shape[1] != ncols:
        raise _unreadable(stream, ncols, delimiter, f"{rows.shape[1]} columns")
    return rows


def _read_csv(stream, header):
    """Read the ``# key=value`` comments, check the header line, load the rows.

    Returns ((meta dict, 1-based line of each meta key), float array of
    shape ``(rows, len(header))``).  A fault found in the rows, here or by
    the container built from them, is named by its line through
    :func:`_row_error` or :func:`_unreadable`.
    """
    meta, head, line = _head(stream)
    if head is None:
        raise ParseError(f"missing header {','.join(header)!r}")
    if [t.strip() for t in line.split(",")] != list(header):
        raise ParseError(f"expected header {','.join(header)!r}, got {line!r}", line=head)
    rows = _load_rows(stream, len(header), ",")
    if not len(rows):
        raise ParseError("no data rows")
    return meta, rows


def _build(stream, cls, *args, field_lines=None, **kwargs):
    """Construct a domain object read from ``stream``; a violated invariant
    becomes a ParseError naming the line of the first offending row, or the
    line ``field_lines`` gives for the offending field."""
    try:
        return cls(*args, **kwargs)
    except ValidationError as exc:
        if exc.row is None:
            raise ParseError(str(exc), line=(field_lines or {}).get(exc.field)) from exc
        raise _row_error(stream, str(exc), exc.row) from exc


def _meta_float(meta, meta_lines, key, default=None):
    """A numeric ``# key=value`` metadata entry, or ``default`` if absent."""
    value = meta.get(key, default)
    if value is None:
        raise ParseError(f"missing '# {key}=...' metadata line")
    try:
        return float(value)
    except ValueError:
        raise ParseError(f"non-numeric metadata '# {key}={value}'",
                         line=meta_lines[key]) from None


@_parser
def parse_s11_csv(stream) -> ComplexSpectrum:
    """Parse a reflection trace.  See the module docstring for the format."""
    (meta, _), cols = _read_csv(stream, ("freq_hz", "re", "im"))
    # assigned, not re + 1j*im, which would turn a -0.0 real part into 0.0
    values = np.empty(len(cols), dtype=complex)
    values.real = cols[:, 1]
    values.imag = cols[:, 2]
    return _build(stream, ComplexSpectrum, cols[:, 0], values, meta)


@_parser
def parse_xps_csv(stream) -> XpsSpectrum:
    """Parse an XPS line scan; the ``# line=<element>`` header is required."""
    (meta, meta_lines), cols = _read_csv(stream, ("be_ev", "counts"))
    if "line" not in meta:
        raise ParseError("missing '# line=<element>' header")
    return _build(stream, XpsSpectrum, *cols.T, meta["line"],
                  field_lines={"element_line": meta_lines["line"]})


@_parser
def parse_afm_grid(stream) -> AfmImage:
    """Parse an AFM height grid; header is ``nx ny dx_m dy_m``."""
    _, head, header = _head(stream)
    if head is None:
        raise ParseError("empty AFM grid file")
    parts = header.split()
    if len(parts) != 4:
        raise ParseError("header must be 'nx ny dx_m dy_m'", line=head)
    try:
        nx, ny = int(parts[0]), int(parts[1])
        dx, dy = float(parts[2]), float(parts[3])
    except ValueError:
        raise ParseError("non-numeric header field", line=head) from None
    if nx < 0 or ny < 0:
        raise ParseError("negative grid dimension", line=head)
    heights = _load_rows(stream, nx, None)
    if len(heights) != ny:
        raise ParseError(f"header claims {ny} rows but {len(heights)} present", line=head)
    return _build(stream, AfmImage, heights, (dx, dy), field_lines={"pixel_pitch_m": head})


@_parser
def parse_tempsweep_csv(stream) -> TemperatureSweepSeries:
    """Parse a ``temperature_K,f0_hz,f0_err_hz`` sweep.

    An optional ``# reference_temperature_K=...`` metadata line overrides the
    0.200 K default.
    """
    (meta, meta_lines), cols = _read_csv(stream, ("temperature_K", "f0_hz", "f0_err_hz"))
    key = "reference_temperature_K"
    return _build(stream, TemperatureSweepSeries, *cols.T,
                  reference_temperature_k=_meta_float(meta, meta_lines, key, 0.200),
                  field_lines={"reference_temperature_k": meta_lines.get(key)})


@_parser
def parse_powersweep_csv(stream) -> PowerSweepSeries:
    """Parse an ``n_mean,qi,qi_err`` sweep.

    ``# temperature_K=...`` and ``# f0_hz=...`` metadata lines carry the
    operating point the model needs.
    """
    (meta, meta_lines), cols = _read_csv(stream, ("n_mean", "qi", "qi_err"))
    return _build(stream, PowerSweepSeries, *cols.T,
                  temperature_k=_meta_float(meta, meta_lines, "temperature_K"),
                  f0_hz=_meta_float(meta, meta_lines, "f0_hz"),
                  field_lines={"temperature_k": meta_lines["temperature_K"],
                               "f0_hz": meta_lines["f0_hz"]})


@_parser
def parse_walkoff_csv(stream) -> WalkoffCurve:
    """Parse a ``theta_deg,eta_deg`` walk-off curve."""
    _, cols = _read_csv(stream, ("theta_deg", "eta_deg"))
    return _build(stream, WalkoffCurve, *cols.T)


# ---------------------------------------------------------------------------
# serialization (inverse of the parsers, bit-stable formatting)
# ---------------------------------------------------------------------------

def _fmt(x):
    return format(float(x), ".17g")


def _write_csv(meta_pairs, header, *columns):
    """``# key=value`` lines, the header, then one row per index of ``columns``."""
    lines = [f"# {k}={v}" for k, v in meta_pairs]
    lines.append(",".join(header))
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    lines.extend(",".join(map(_fmt, row)) for row in rows)
    return "\n".join(lines) + "\n"


def format_s11_csv(spectrum: ComplexSpectrum) -> str:
    return _write_csv(sorted(spectrum.meta.items()), ("freq_hz", "re", "im"),
                      spectrum.frequencies_hz, spectrum.values.real,
                      spectrum.values.imag)


def format_afm_grid(image: AfmImage) -> str:
    dx, dy = image.pixel_pitch_m
    lines = [f"{image.nx} {image.ny} {_fmt(dx)} {_fmt(dy)}"]
    for row in image.heights_m:
        lines.append(" ".join(_fmt(h) for h in row))
    return "\n".join(lines) + "\n"


def format_tempsweep_csv(series: TemperatureSweepSeries) -> str:
    return _write_csv([("reference_temperature_K", _fmt(series.reference_temperature_k))],
                      ("temperature_K", "f0_hz", "f0_err_hz"),
                      series.temperatures_k, series.f0_hz, series.f0_err_hz)


def format_powersweep_csv(series: PowerSweepSeries) -> str:
    return _write_csv([("f0_hz", _fmt(series.f0_hz)),
                       ("temperature_K", _fmt(series.temperature_k))],
                      ("n_mean", "qi", "qi_err"),
                      series.mean_phonon_number, series.qi, series.qi_err)
