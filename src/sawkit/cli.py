"""Batch command-line front end.

fit-resonance, fit-tempsweep, fit-powersweep, afm and walkoff analyze each
input on its own: ``build_parser`` registers each one's ``analyze(args,
read)`` and report suffix on the batch driver ``_run_batch``.  ``read()``
returns the input's bytes, which each analysis passes straight to its
``spectra`` parser, looked up on the module at call time, so they are
freed before the fit; the parser decodes them as it reads, so the whole
text is never built.  xps-quant combines its inputs into one report; synth
writes fixture files from ``--seed``.  Reports are canonical JSON (sorted
keys, newline-terminated) and plots deterministic SVG, so reruns are
byte-identical and CI diffs stay meaningful.  An analysis hands its result
dataclasses to the report as they are: the writer's one hook writes each as
its fields, and ``_REPORT_KEYS`` lists every key that differs from its field
and every field left out.  A failing input produces an ``<stem>.error.json``
record and, with ``--keep-going``, the batch continues; the exit code is 0 only when
every input succeeded.  ``main`` records a failed command, such as a batch
with no input, as ``<command>.error.json`` under ``--out``.  Every failure
is also reported on stderr, so one whose record cannot be written is still
seen.  Inputs and configs are read, and reports written, as UTF-8 whatever
the locale; an input not in UTF-8 is recorded like any malformed one.
Lines end as universal newlines end them (LF, CRLF or a lone CR), and
``# key=value`` metadata is read before the header only.

A process builds the argument parser once: the first ``main`` call builds
it and later calls only parse and dispatch, so an in-process batch driver
pays ``parse_args`` per command, not the construction of the whole tree.
A shell invocation of ``sawkit`` runs ``main`` once either way.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import afm as afm_mod
from . import resonance, spectra, synth, tls, walkoff, xps
from .errors import ParseError, SawkitError, ValidationError
from .svg import Panel, render_panels

TWO_PI = 2.0 * np.pi

#: every parser of the tree: an abbreviated flag is refused like an unknown one
_parser = functools.partial(argparse.ArgumentParser, allow_abbrev=False)


#: report keys that differ from their result field's name, by (result type,
#: field); None leaves the field out of the report
_REPORT_KEYS = {
    (tls.TlsFitResult, "reference_temperature_k"): "reference_temperature_K",
    (tls.PowerModelParams, "temperature_k"): "temperature_K",
    (xps.Band, "amplitude"): "area",
    (xps.Band, "center_bound_ev"): None,
    (afm_mod.StepHeightResult, "histogram"): None,
}


def _report_fields(obj):
    """``json.dumps``' hook: a result dataclass as its fields under their
    report keys (:data:`_REPORT_KEYS`), a complex field ``x`` as ``x_re`` and
    ``x_im``; a numpy array or scalar as its Python value."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if not dataclasses.is_dataclass(obj):
        raise TypeError(f"{type(obj).__name__} is not a report value")
    doc = {}
    for f in dataclasses.fields(obj):
        key, value = _REPORT_KEYS.get((type(obj), f.name), f.name), getattr(obj, f.name)
        if key is None:
            continue
        if isinstance(value, complex):
            doc[f"{key}_re"], doc[f"{key}_im"] = value.real, value.imag
        else:
            doc[key] = value
    return doc


def _canonical_json(obj) -> str:
    """``obj`` as sorted, indented JSON, its result dataclasses written by
    :func:`_report_fields`; a number that is nan or infinite, which JSON
    cannot hold, is a SawkitError naming its key."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False,
                          default=_report_fields) + "\n"
    except ValueError:
        plain = json.loads(json.dumps(obj, default=_report_fields))
        raise SawkitError(f"{_non_finite_key(plain)} is not a finite number") from None


def _non_finite_key(obj, path="report"):
    """The key path of the first number in ``obj`` that is nan or infinite,
    in the order the JSON is written, or None."""
    if isinstance(obj, float):
        return None if np.isfinite(obj) else path
    if isinstance(obj, dict):
        items = ((f"{path}.{key}", obj[key]) for key in sorted(obj))
    elif isinstance(obj, (list, tuple)):
        items = ((f"{path}[{i}]", value) for i, value in enumerate(obj))
    else:
        return None
    return next(filter(None, (_non_finite_key(value, key) for key, value in items)), None)


def _write_atomic(path: Path, text: str):
    """Write ``text`` to ``path`` through ``<name>.tmp``, which a failed
    write or rename removes again."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _gather_inputs(paths):
    files = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            files.extend(sorted(q for q in path.iterdir() if q.is_file()))
        else:
            files.append(path)
    return files


def _write_report(args, name, report, panels=None):
    """Write ``<name>.json`` and, under --emit-svg, the plot ``panels()`` builds."""
    out = Path(args.out)
    _write_atomic(out / f"{name}.json", _canonical_json(report))
    if panels is not None and args.emit_svg:
        _write_atomic(out / f"{name}.svg", render_panels(panels()))


def _write_error(args, name, exc, source=None):
    """Report a failure on stderr, then record it as ``<name>.error.json``."""
    print(f"error: {source or name}: {exc}", file=sys.stderr)
    record = {"error": str(exc)}
    if source is not None:
        record["input"] = str(source)
    _write_atomic(Path(args.out) / f"{name}.error.json", _canonical_json(record))


def _run_batch(args, suffix, analyze, summarize=None):
    """Analyze every input file on its own, honoring --keep-going.

    ``analyze(args, read)`` returns ``(report, panels)``, where ``read()``
    returns the input's bytes: an analysis that holds no reference to them
    lets them go once parsed.  The report goes to
    ``<stem>.<suffix>.json`` and the plot to ``<stem>.<suffix>.svg``, and
    ``summarize(args, reports)`` sees the reports that were written.
    Returns the exit code: 0 only when every input succeeded.  Raises,
    before anything is analyzed, when the inputs name no file at all or two
    files share a stem (their reports would overwrite each other).
    """
    files = _gather_inputs(args.inputs)
    if not files:
        raise SawkitError(f"no input files found in {', '.join(args.inputs)}")
    by_stem = {}
    for f in files:
        if f.stem in by_stem:
            args.source = f
            raise ValidationError(f"{by_stem[f.stem]} and {f} share the stem {f.stem!r}; "
                                  "their reports would overwrite each other")
        by_stem[f.stem] = f
    failed, reports = False, []
    for f in files:
        try:
            report, panels = analyze(args, f.read_bytes)
            _write_report(args, f"{f.stem}.{suffix}", report, panels)
            reports.append(report)
        except (SawkitError, OSError) as exc:
            failed = True
            _write_error(args, f.stem, exc, source=f)
            if not args.keep_going:
                break
    if summarize is not None:
        summarize(args, reports)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# fit-resonance
# ---------------------------------------------------------------------------

def _resonance_panels(spectrum, result):
    freq = spectrum.frequencies_hz
    fit = resonance.eval_s11(result.params, freq)
    mag = Panel(title="reflection magnitude", xlabel="frequency (Hz)",
                ylabel="|S11|")
    mag.add_points(freq, np.abs(spectrum.values), label="data")
    mag.add_line(freq, np.abs(fit), label="fit")
    ph = Panel(title="reflection phase", xlabel="frequency (Hz)",
               ylabel="arg S11 (rad)")
    ph.add_points(freq, np.unwrap(np.angle(spectrum.values)), label="data")
    ph.add_line(freq, np.unwrap(np.angle(fit)), label="fit")
    return [mag, ph]


def _fit_resonance(args, read):
    spectrum = spectra.parse_s11_csv(read())
    model = "dark_mode" if args.model == "dark" else "lorentzian"
    result = resonance.fit_resonance(spectrum, model_kind=model)
    return result, lambda: _resonance_panels(spectrum, result)


# ---------------------------------------------------------------------------
# fit-tempsweep / fit-powersweep
# ---------------------------------------------------------------------------

def _fit_tempsweep(args, read):
    series = spectra.parse_tempsweep_csv(read())
    result = tls.fit_fdelta(series)

    def panels():
        t = series.temperatures_k
        shift = series.f0_hz / result.f0_hz - 1.0
        grid = np.linspace(t.min(), t.max(), 200)
        model = tls.tls_frequency_shift(
            result.f_delta_tls, result.f0_hz, grid,
            reference_temperature_k=series.reference_temperature_k)
        panel = Panel(title="TLS frequency shift", xlabel="temperature (K)",
                      ylabel="relative shift")
        panel.add_points(t, shift, label="data")
        panel.add_line(grid, model, label="fit")
        return [panel]

    return result, panels


def _fit_powersweep(args, read):
    series = spectra.parse_powersweep_csv(read())
    result = tls.fit_power_sweep(series, fixed_beta=args.fixed_beta)

    def panels():
        n = series.mean_phonon_number
        grid = np.geomspace(n.min(), n.max(), 200)
        panel = Panel(title="TLS power saturation",
                      xlabel="log10 mean phonon number", ylabel="Q_i")
        panel.add_points(np.log10(n), series.qi, label="data")
        panel.add_line(np.log10(grid),
                       tls.qi_power_model(result.params, grid), label="fit")
        return [panel]

    return result, panels


# ---------------------------------------------------------------------------
# xps-quant
# ---------------------------------------------------------------------------

#: the keys a config and each of its bands may hold (a band's area is fitted)
_XPS_CONFIG_KEYS = ("notes", "sensitivity", "windows", "bands")
_BAND_KEYS = tuple(f.name for f in dataclasses.fields(xps.Band) if f.name != "amplitude")


def _check_xps_config(cfg):
    """Reject a config with a key ``_load_xps_config`` would not read, or
    with JSON types it cannot use."""
    def numbers(values):
        return all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)

    def known(keys, allowed, where):
        for key in keys:
            if key not in allowed:
                raise ValidationError(f"config: unknown {where}key {key!r}; "
                                      f"expected one of {', '.join(allowed)}")

    if not (isinstance(cfg, dict) and all(isinstance(cfg.get(key, {}), dict)
                                          for key in ("sensitivity", "windows", "bands"))):
        raise ValidationError("config: expected an object with object-valued "
                              "sensitivity, windows and bands")
    known(cfg, _XPS_CONFIG_KEYS, "")
    if not numbers(cfg.get("sensitivity", {}).values()):
        raise ValidationError("config: sensitivity factors must be numbers")
    for line, window in cfg.get("windows", {}).items():
        if not (isinstance(window, list) and len(window) == 2 and numbers(window)):
            raise ValidationError(f"config: the {line} window must be [lo_ev, hi_ev]")
    for line, bands in cfg.get("bands", {}).items():
        if not (isinstance(bands, list) and all(
                isinstance(b, dict) and "center_ev" in b and numbers(b.values())
                for b in bands)):
            raise ValidationError(f"config: every {line} band needs a center_ev "
                                  "and numbers only")
        for b in bands:
            known(b, _BAND_KEYS, f"{line} band ")


def _load_xps_config(path):
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8")) if path else {}
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"config {path}: {exc}") from None
    _check_xps_config(cfg)
    table = xps.SensitivityTable(cfg["sensitivity"]) if "sensitivity" in cfg \
        else xps.SensitivityTable.default()
    band_cfg = {line: xps.BandModel(tuple(xps.Band(**b) for b in bands))
                for line, bands in cfg.get("bands", {}).items()}
    return table, cfg.get("windows", {}), band_cfg


def cmd_xps_quant(args) -> int:
    table, windows, band_cfg = _load_xps_config(args.config)
    parsed = []
    for source in _gather_inputs(args.inputs):
        args.source = source  # the spectrum being read, named in its error record
        sp = spectra.parse_xps_csv(source.read_bytes())
        if any(sp.element_line == other.element_line for other in parsed):
            raise ValidationError(f"line {sp.element_line} is given twice; "
                                  "one spectrum per element line")
        parsed.append(sp)
    args.source = None
    if not parsed:
        raise SawkitError("no XPS spectra found")
    if args.no_charge_shift:
        shifted, shift = parsed, 0.0
    else:
        shifted, shift = xps.charge_shift(parsed)
    areas, band_areas, band_fits, panels = {}, {}, {}, []
    for sp in shifted:
        be = sp.ascending().binding_energy_ev
        window = windows.get(sp.element_line, (float(be[0]), float(be[-1])))
        sh = xps.shirley_background(sp, window)
        areas[sp.element_line] = max(sh.area, 0.0)
        panel = Panel(title=f"{sp.element_line}", xlabel="binding energy (eV)",
                      ylabel="counts")
        panel.add_line(sh.binding_energy_ev, sh.counts, label="data")
        panel.add_line(sh.binding_energy_ev, sh.background, label="background")
        if sp.element_line in band_cfg:
            fit = xps.fit_bands(sh.binding_energy_ev, sh.net, band_cfg[sp.element_line])
            band_areas[sp.element_line] = fit.areas
            band_fits[sp.element_line] = fit
            panel.add_line(sh.binding_energy_ev,
                           sh.background + fit.model.evaluate(sh.binding_energy_ev),
                           label="bands")
        panels.append(panel)
    doc = _report_fields(xps.atomic_percentages(areas, table)) | {
        "charge_shift_ev": shift, "areas": areas, "band_areas": band_areas,
        "band_fits": band_fits}
    _write_report(args, "xps_quant", doc, lambda: panels)
    return 0


# ---------------------------------------------------------------------------
# afm
# ---------------------------------------------------------------------------

def _parse_level_points(text):
    pairs = [chunk.split(",") for chunk in text.split()]
    try:
        if len(pairs) == 3 and all(len(p) == 2 for p in pairs):
            return [(int(x), int(y)) for x, y in pairs]
    except ValueError:
        pass
    raise ValidationError(f"--level-points needs three integer x,y pairs, got {text!r}")


def _afm(args, read):
    image = spectra.parse_afm_grid(read())
    # the flattened copy is a temporary, gone before the steps are fitted
    doc = {"r_q_m": afm_mod.rms_roughness(afm_mod.remove_line_tilt(image, order=args.order)),
           "order": args.order}
    hist_img = image
    if args.level_points:
        hist_img = afm_mod.three_point_level(image, *_parse_level_points(args.level_points))
        doc["leveled"] = True
    steps = None
    if args.fit_steps:
        steps = afm_mod.fit_step_heights(hist_img)
        doc["steps"] = steps

    def panels():
        centers, counts = (afm_mod.height_histogram(hist_img) if steps is None
                           else steps.histogram)
        panel = Panel(title="height histogram", xlabel="height (m)", ylabel="pixels")
        panel.add_line(centers, counts, label="histogram")
        if steps is not None:
            grid = np.linspace(centers.min(), centers.max(), 400)
            panel.add_line(grid, steps.evaluate(grid), label="terrace fit")
        return [panel]

    return doc, panels


def _afm_summary(args, reports):
    """``afm_summary.json`` over the written reports, when there are two or more."""
    rq_values = [doc["r_q_m"] for doc in reports]
    if len(rq_values) > 1:
        summary = {"n_images": len(rq_values),
                   "r_q_mean_m": float(np.mean(rq_values)),
                   "r_q_std_m": float(np.std(rq_values, ddof=1))}
        _write_report(args, "afm_summary", summary)


# ---------------------------------------------------------------------------
# walkoff
# ---------------------------------------------------------------------------

def _walkoff(args, read):
    if args.half_width < 0:
        raise ValidationError(f"--half-width must be >= 0, got {args.half_width}")
    curve = spectra.parse_walkoff_csv(read())
    smoothed = walkoff.smooth_curve(curve, args.half_width) if args.half_width > 0 else curve
    zeros = walkoff.find_zero_crossings(smoothed)
    tangencies = walkoff.find_tangencies(smoothed)
    doc = {
        "zeros": zeros,
        "tangencies": [{"theta_deg": t, "eta_deg": e} for t, e in tangencies],
        "half_width": args.half_width,
    }

    def panels():
        panel = Panel(title="beam steering", xlabel="drive angle (deg)",
                      ylabel="walk-off (deg)")
        panel.add_line(curve.theta_deg, curve.eta_deg, label="raw")
        if args.half_width > 0:
            panel.add_line(smoothed.theta_deg, smoothed.eta_deg, label="smoothed")
        for z in zeros:
            panel.add_vline(z.theta_deg)
        return [panel]

    return doc, panels


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    out = Path(args.output) if args.output else Path(args.out) / f"{args.kind}.csv"
    _write_atomic(out, _synth_text(args))
    return 0


def _synth_text(args) -> str:
    """The fixture file of kind ``args.kind``, drawn from ``args.seed``; a
    float flag that is nan or infinite is refused by name first."""
    for name, value in vars(args).items():
        if isinstance(value, float) and not np.isfinite(value):
            raise ValidationError(f"--{name.replace('_', '-')} must be finite, got {value}")
    if args.kind != "afm" and args.points < 1:
        raise ValidationError(f"--points must be >= 1, got {args.points}")
    if args.kind == "s11":
        if not (args.qi > 0 and args.qe > 0):
            raise ValidationError("--qi and --qe must be positive")
        w0 = TWO_PI * args.f0_hz
        kappa_e = w0 / args.qe
        kappa = kappa_e + w0 / args.qi
        ql = 1.0 / (1.0 / args.qi + 1.0 / args.qe)
        fwhm = args.f0_hz / ql
        grid = np.linspace(args.f0_hz - args.span_linewidths * fwhm,
                           args.f0_hz + args.span_linewidths * fwhm, args.points)
        dark = None
        if args.dark_delta_hz is not None:
            dark = (TWO_PI * args.dark_g_hz, args.dark_delta_hz,
                    TWO_PI * args.dark_gamma_hz)
        sp = synth.synth_s11(args.f0_hz, kappa, kappa_e, grid, dark=dark,
                             noise_sigma=args.noise, rng_seed=args.seed)
        return spectra.format_s11_csv(sp)
    if args.kind == "tempsweep":
        temps = np.linspace(args.t_min_k, args.t_max_k, args.points)
        series = synth.synth_temperature_sweep(
            args.f_delta, args.f0_hz, temps, noise_sigma_hz=args.noise_hz,
            rng_seed=args.seed, reference_temperature_k=args.t_ref_k)
        return spectra.format_tempsweep_csv(series)
    if args.kind == "powersweep":
        params = tls.PowerModelParams(
            f_delta_tls=args.f_delta, n_c=args.n_c, beta=args.beta,
            q_i_res=args.q_res, temperature_k=args.temperature_k,
            f0_hz=args.f0_hz)
        if not (args.n_min > 0 and args.n_max > 0):
            raise ValidationError("--n-min and --n-max must be positive")
        phonons = np.geomspace(args.n_min, args.n_max, args.points)
        series = synth.synth_power_sweep(params, phonons, noise_frac=args.noise_frac,
                                         rng_seed=args.seed)
        return spectra.format_powersweep_csv(series)
    image = synth.synth_terrace_image(  # afm, the kind left
        (args.ny, args.nx), (args.pitch_m, args.pitch_m),
        step_m=args.step_m, n_terraces=args.terraces,
        noise_sigma_m=args.noise_m,
        tilt_m_per_px=(args.tilt_x, args.tilt_y), rng_seed=args.seed)
    return spectra.format_afm_grid(image)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``sawkit`` parser, built on the first call and shared after it.

    ``parse_args`` returns a fresh namespace on every call, so one parser
    serves every ``main`` call of a process.
    """
    parser = _parser(
        prog="sawkit",
        description="Batch analyses for SAW-resonator surface characterization")
    parser.set_defaults(source=None)  # the input a failed command names, if any
    common = _parser(add_help=False)
    common.add_argument("--out", default=".", metavar="DIR",
                        help="output directory (default: current directory)")
    batch = _parser(add_help=False, parents=[common])
    batch.add_argument("inputs", nargs="+", help="input files or directories")
    batch.add_argument("--emit-svg", action="store_true",
                       help="also write SVG plots next to the JSON reports")
    per_file = _parser(add_help=False, parents=[batch])
    per_file.add_argument("--keep-going", action="store_true",
                          help="continue the batch past failing inputs")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_parser)

    p = sub.add_parser("fit-resonance", parents=[per_file],
                       help="fit S11 traces to the resonance model")
    p.add_argument("--model", choices=("lorentzian", "dark"), default="lorentzian")
    p.set_defaults(func=functools.partial(_run_batch, suffix="fit", analyze=_fit_resonance))

    p = sub.add_parser("fit-tempsweep", parents=[per_file],
                       help="extract the TLS loss product from temperature sweeps")
    p.set_defaults(func=functools.partial(_run_batch, suffix="tls", analyze=_fit_tempsweep))

    p = sub.add_parser("fit-powersweep", parents=[per_file],
                       help="fit the TLS power-saturation model")
    p.add_argument("--fixed-beta", type=float, default=None,
                   help="hold the saturation exponent at this value")
    p.set_defaults(func=functools.partial(_run_batch, suffix="power", analyze=_fit_powersweep))

    p = sub.add_parser("xps-quant", parents=[batch],
                       help="quantify a directory of per-line XPS CSVs")
    p.add_argument("--config", default=None,
                   help="JSON with sensitivity table, windows, and band models")
    p.add_argument("--no-charge-shift", action="store_true",
                   help="skip Nb3d5/2 charge referencing")
    p.set_defaults(func=cmd_xps_quant)

    p = sub.add_parser("afm", parents=[per_file], help="analyze AFM height grids")
    p.add_argument("--order", type=int, choices=(0, 1, 2), default=1,
                   help="per-row polynomial order for tilt removal")
    p.add_argument("--level-points", default=None, metavar="'x1,y1 x2,y2 x3,y3'",
                   help="three-point plane leveling before the histogram")
    p.add_argument("--fit-steps", action="store_true",
                   help="fit terrace step heights from the height histogram")
    p.set_defaults(func=functools.partial(_run_batch, suffix="afm", analyze=_afm,
                                          summarize=_afm_summary))

    p = sub.add_parser("walkoff", parents=[per_file],
                       help="find zero-steering drive angles in walk-off curves")
    p.add_argument("--half-width", type=int, default=0,
                   help="moving-average half width (0 = no smoothing)")
    p.set_defaults(func=functools.partial(_run_batch, suffix="walkoff", analyze=_walkoff))

    fixture = _parser(add_help=False, parents=[common])
    fixture.add_argument("--seed", type=int, default=0, help="random seed of the noise")
    fixture.add_argument("--output", default=None, help="output file path")
    trace = _parser(add_help=False, parents=[fixture])
    trace.add_argument("--f0-hz", type=float, default=688.4e6)
    trace.add_argument("--points", type=int, default=2001)
    sweep = _parser(add_help=False, parents=[trace])
    sweep.add_argument("--f-delta", type=float, default=7.53e-5)
    p = sub.add_parser("synth", help="generate deterministic fixture files")
    p.set_defaults(func=cmd_synth)
    kinds = p.add_subparsers(dest="kind", required=True, parser_class=_parser)
    p = kinds.add_parser("s11", parents=[trace], help="S11 reflection trace")
    p.add_argument("--qi", type=float, default=6.8e3)
    p.add_argument("--qe", type=float, default=1.4e4)
    p.add_argument("--span-linewidths", type=float, default=5.0)
    p.add_argument("--noise", type=float, default=0.0,
                   help="complex noise sigma per quadrature")
    p.add_argument("--dark-delta-hz", type=float, default=None,
                   help="dark-mode offset from f0 (Hz); enables the dark mode")
    p.add_argument("--dark-g-hz", type=float, default=15e3,
                   help="dark-mode coupling g/2pi in Hz")
    p.add_argument("--dark-gamma-hz", type=float, default=10e3,
                   help="dark-mode loss gamma/2pi in Hz")
    p = kinds.add_parser("tempsweep", parents=[sweep], help="TLS temperature sweep")
    p.add_argument("--t-min-k", type=float, default=0.010)
    p.add_argument("--t-max-k", type=float, default=0.200)
    p.add_argument("--t-ref-k", type=float, default=0.200)
    p.add_argument("--noise-hz", type=float, default=0.0,
                   help="frequency noise per point (Hz)")
    p = kinds.add_parser("powersweep", parents=[sweep], help="TLS power sweep")
    p.add_argument("--n-c", type=float, default=1e4)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--q-res", type=float, default=2.6e3)
    p.add_argument("--temperature-k", type=float, default=0.010)
    p.add_argument("--n-min", type=float, default=1.0)
    p.add_argument("--n-max", type=float, default=1e10)
    p.add_argument("--noise-frac", type=float, default=0.0, help="relative Q noise")
    p = kinds.add_parser("afm", parents=[fixture], help="terraced AFM height grid")
    p.add_argument("--nx", type=int, default=128)
    p.add_argument("--ny", type=int, default=128)
    p.add_argument("--pitch-m", type=float, default=1e-9)
    p.add_argument("--step-m", type=float, default=2.0e-10)
    p.add_argument("--noise-m", type=float, default=8.0e-11)
    p.add_argument("--terraces", type=int, default=3)
    p.add_argument("--tilt-x", type=float, default=0.0)
    p.add_argument("--tilt-y", type=float, default=0.0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SawkitError, OSError) as exc:
        try:
            _write_error(args, args.command.replace("-", "_"), exc, source=args.source)
        except OSError as record_exc:  # e.g. --out names a file
            print(f"error: no error record written: {record_exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
