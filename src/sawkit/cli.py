"""Batch command-line front end.

fit-resonance, fit-tempsweep, fit-powersweep, afm and walkoff analyze each
input on its own through one batch driver; xps-quant combines its inputs
into one report; synth writes fixture files from ``--seed``.  Reports are
canonical JSON (sorted keys, newline-terminated) and plots deterministic SVG,
so reruns are byte-identical and diffs in CI stay meaningful.  A failing
input produces an ``<stem>.error.json`` record and, with ``--keep-going``,
the batch continues; the exit code is 0 only when every input succeeded.
xps-quant and synth, which write one file per run, record a failure as
``xps_quant.error.json`` or ``synth.error.json`` under ``--out``.
Inputs and configs are read, and reports written, as UTF-8 whatever the
locale; an input that is not UTF-8 is recorded like any other malformed one.

A process builds the argument parser once: the first ``main`` call builds
it and later calls only parse and dispatch, so an in-process batch driver
pays ``parse_args`` per command, not the construction of the whole tree.
A shell invocation of ``sawkit`` runs ``main`` once either way.
"""
from __future__ import annotations

import argparse
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


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


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


def _read_input(path: Path) -> str:
    """The text of one input file; bytes that are not UTF-8 are a ParseError."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}") from None


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
    """Record a failure as ``<name>.error.json`` and report it on stderr."""
    record = {"error": str(exc)}
    if source is not None:
        record["input"] = str(source)
    _write_atomic(Path(args.out) / f"{name}.error.json", _canonical_json(record))
    print(f"error: {source or name}: {exc}", file=sys.stderr)


def _run_batch(args, suffix, analyze):
    """Analyze every input file on its own, honoring --keep-going.

    ``analyze(text)`` returns ``(report, panels)``; the report goes to
    ``<stem>.<suffix>.json`` and the plot to ``<stem>.<suffix>.svg``.
    Returns the exit code: 0 only when every input succeeded, and 1 when
    the inputs name no file at all.
    """
    files = _gather_inputs(args.inputs)
    if not files:
        _write_error(args, args.command.replace("-", "_"),
                     SawkitError(f"no input files found in {', '.join(args.inputs)}"))
        return 1
    failures = 0
    for f in files:
        try:
            _write_report(args, f"{f.stem}.{suffix}", *analyze(_read_input(f)))
        except (SawkitError, OSError) as exc:
            failures += 1
            _write_error(args, f.stem, exc, source=f)
            if not args.keep_going:
                return 1
    return 1 if failures else 0


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


def cmd_fit_resonance(args) -> int:
    model = "dark_mode" if args.model == "dark" else "lorentzian"

    def analyze(text):
        spectrum = spectra.parse_s11_csv(text)
        result = resonance.fit_resonance(spectrum, model_kind=model)
        return result.to_json_dict(), lambda: _resonance_panels(spectrum, result)

    return _run_batch(args, "fit", analyze)


# ---------------------------------------------------------------------------
# fit-tempsweep / fit-powersweep
# ---------------------------------------------------------------------------

def cmd_fit_tempsweep(args) -> int:
    def analyze(text):
        series = spectra.parse_tempsweep_csv(text)
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

        return result.to_json_dict(), panels

    return _run_batch(args, "tls", analyze)


def cmd_fit_powersweep(args) -> int:
    def analyze(text):
        series = spectra.parse_powersweep_csv(text)
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

        return result.to_json_dict(), panels

    return _run_batch(args, "power", analyze)


# ---------------------------------------------------------------------------
# xps-quant
# ---------------------------------------------------------------------------

def _check_xps_config(cfg):
    """Reject a config whose JSON types ``_load_xps_config`` cannot use."""
    def numbers(values):
        return all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)

    if not (isinstance(cfg, dict) and all(isinstance(cfg.get(key, {}), dict)
                                          for key in ("sensitivity", "windows", "bands"))):
        raise ValidationError("config: expected an object with object-valued "
                              "sensitivity, windows and bands")
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


def _load_xps_config(path):
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8")) if path else {}
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"config {path}: {exc}") from None
    _check_xps_config(cfg)
    table = xps.SensitivityTable(cfg["sensitivity"]) if "sensitivity" in cfg \
        else xps.SensitivityTable.default()
    band_cfg = {}
    for line, bands in cfg.get("bands", {}).items():
        band_cfg[line] = xps.BandModel(tuple(
            xps.Band(center_ev=b["center_ev"], sigma_ev=b.get("sigma_ev", 0.6),
                     gamma_ev=b.get("gamma_ev", 0.5), mix=b.get("mix", 0.3),
                     center_bound_ev=b.get("center_bound_ev", 0.5))
            for b in bands))
    return table, cfg.get("windows", {}), band_cfg


def cmd_xps_quant(args) -> int:
    source = None  # the spectrum being read, named in its error record
    try:
        table, windows, band_cfg = _load_xps_config(args.config)
        parsed = []
        for source in _gather_inputs(args.inputs):
            parsed.append(spectra.parse_xps_csv(_read_input(source)))
        source = None
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
                band_areas[sp.element_line] = [float(a) for a in fit.areas]
                band_fits[sp.element_line] = fit.to_json_dict()
                panel.add_line(sh.binding_energy_ev,
                               sh.background + fit.model.evaluate(sh.binding_energy_ev),
                               label="bands")
            panels.append(panel)
        report = xps.atomic_percentages(areas, table, band_areas=band_areas)
        doc = report.to_json_dict()
        doc["charge_shift_ev"] = shift
        doc["areas"] = {k: float(v) for k, v in areas.items()}
        doc["band_fits"] = band_fits
        _write_report(args, "xps_quant", doc, lambda: panels)
    except (SawkitError, OSError) as exc:
        _write_error(args, "xps_quant", exc, source=source)
        return 1
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


def cmd_afm(args) -> int:
    rq_values = []

    def analyze(text):
        image = spectra.parse_afm_grid(text)
        flattened = afm_mod.remove_line_tilt(image, order=args.order)
        rq = afm_mod.rms_roughness(flattened)
        rq_values.append(rq)
        doc = {"r_q_m": rq, "order": args.order}
        hist_img = image
        if args.level_points:
            hist_img = afm_mod.three_point_level(image,
                                                 *_parse_level_points(args.level_points))
            doc["leveled"] = True
        steps = None
        if args.fit_steps:
            steps = afm_mod.fit_step_heights(hist_img)
            doc["steps"] = steps.to_json_dict()

        def panels():
            centers, counts = (afm_mod.height_histogram(hist_img) if steps is None
                               else steps.histogram)
            panel = Panel(title="height histogram", xlabel="height (m)",
                          ylabel="pixels")
            panel.add_line(centers, counts, label="histogram")
            if steps is not None:
                grid = np.linspace(centers.min(), centers.max(), 400)
                panel.add_line(grid, steps.evaluate(grid), label="terrace fit")
            return [panel]

        return doc, panels

    code = _run_batch(args, "afm", analyze)
    if len(rq_values) > 1:
        summary = {"n_images": len(rq_values),
                   "r_q_mean_m": float(np.mean(rq_values)),
                   "r_q_std_m": float(np.std(rq_values, ddof=1))}
        _write_report(args, "afm_summary", summary)
    return code


# ---------------------------------------------------------------------------
# walkoff
# ---------------------------------------------------------------------------

def cmd_walkoff(args) -> int:
    def analyze(text):
        curve = spectra.parse_walkoff_csv(text)
        smoothed = walkoff.smooth_curve(curve, args.half_width) \
            if args.half_width > 0 else curve
        zeros = walkoff.find_zero_crossings(smoothed)
        tangencies = walkoff.find_tangencies(smoothed)
        doc = {
            "zeros": [z.to_json_dict() for z in zeros],
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

    return _run_batch(args, "walkoff", analyze)


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    out = Path(args.output) if args.output else Path(args.out) / f"{args.kind}.csv"
    try:
        _write_atomic(out, _synth_text(args))
    except (SawkitError, OSError) as exc:
        _write_error(args, "synth", exc)
        return 1
    return 0


def _synth_text(args) -> str:
    """The fixture file of kind ``args.kind``, drawn from ``args.seed``."""
    if args.kind == "s11":
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
        phonons = np.geomspace(args.n_min, args.n_max, args.points)
        series = synth.synth_power_sweep(params, phonons, noise_frac=args.noise_frac,
                                         rng_seed=args.seed)
        return spectra.format_powersweep_csv(series)
    if args.kind == "afm":
        image = synth.synth_terrace_image(
            (args.ny, args.nx), (args.pitch_m, args.pitch_m),
            step_m=args.step_m, n_terraces=args.terraces,
            noise_sigma_m=args.noise_m,
            tilt_m_per_px=(args.tilt_x, args.tilt_y), rng_seed=args.seed)
        return spectra.format_afm_grid(image)
    # argparse restricts the choices
    raise SawkitError(f"unknown synth kind {args.kind}")  # pragma: no cover


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``sawkit`` parser, built on the first call and shared after it.

    ``parse_args`` returns a fresh namespace on every call, so one parser
    serves every ``main`` call of a process.
    """
    parser = argparse.ArgumentParser(
        prog="sawkit",
        description="Batch analyses for SAW-resonator surface characterization")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=".", metavar="DIR",
                        help="output directory (default: current directory)")
    batch = argparse.ArgumentParser(add_help=False, parents=[common])
    batch.add_argument("inputs", nargs="+", help="input files or directories")
    batch.add_argument("--emit-svg", action="store_true",
                       help="also write SVG plots next to the JSON reports")
    per_file = argparse.ArgumentParser(add_help=False, parents=[batch])
    per_file.add_argument("--keep-going", action="store_true",
                          help="continue the batch past failing inputs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-resonance", parents=[per_file],
                       help="fit S11 traces to the resonance model")
    p.add_argument("--model", choices=("lorentzian", "dark"), default="lorentzian")
    p.set_defaults(func=cmd_fit_resonance)

    p = sub.add_parser("fit-tempsweep", parents=[per_file],
                       help="extract the TLS loss product from temperature sweeps")
    p.set_defaults(func=cmd_fit_tempsweep)

    p = sub.add_parser("fit-powersweep", parents=[per_file],
                       help="fit the TLS power-saturation model")
    p.add_argument("--fixed-beta", type=float, default=None,
                   help="hold the saturation exponent at this value")
    p.set_defaults(func=cmd_fit_powersweep)

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
    p.set_defaults(func=cmd_afm)

    p = sub.add_parser("walkoff", parents=[per_file],
                       help="find zero-steering drive angles in walk-off curves")
    p.add_argument("--half-width", type=int, default=0,
                   help="moving-average half width (0 = no smoothing)")
    p.set_defaults(func=cmd_walkoff)

    p = sub.add_parser("synth", parents=[common],
                       help="generate deterministic fixture files")
    p.add_argument("kind", choices=("s11", "tempsweep", "powersweep", "afm"))
    p.add_argument("--seed", type=int, default=0, help="random seed of the noise")
    p.add_argument("--output", default=None, help="output file path")
    p.add_argument("--f0-hz", type=float, default=688.4e6)
    p.add_argument("--qi", type=float, default=6.8e3)
    p.add_argument("--qe", type=float, default=1.4e4)
    p.add_argument("--span-linewidths", type=float, default=5.0)
    p.add_argument("--points", type=int, default=2001)
    p.add_argument("--noise", type=float, default=0.0,
                   help="s11: complex noise sigma per quadrature")
    p.add_argument("--dark-delta-hz", type=float, default=None,
                   help="dark-mode offset from f0 (Hz); enables the dark mode")
    p.add_argument("--dark-g-hz", type=float, default=15e3,
                   help="dark-mode coupling g/2pi in Hz")
    p.add_argument("--dark-gamma-hz", type=float, default=10e3,
                   help="dark-mode loss gamma/2pi in Hz")
    p.add_argument("--f-delta", type=float, default=7.53e-5)
    p.add_argument("--t-min-k", type=float, default=0.010)
    p.add_argument("--t-max-k", type=float, default=0.200)
    p.add_argument("--t-ref-k", type=float, default=0.200)
    p.add_argument("--noise-hz", type=float, default=0.0,
                   help="tempsweep: frequency noise per point (Hz)")
    p.add_argument("--n-c", type=float, default=1e4)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--q-res", type=float, default=2.6e3)
    p.add_argument("--temperature-k", type=float, default=0.010)
    p.add_argument("--n-min", type=float, default=1.0)
    p.add_argument("--n-max", type=float, default=1e10)
    p.add_argument("--noise-frac", type=float, default=0.0,
                   help="powersweep: relative Q noise")
    p.add_argument("--nx", type=int, default=128)
    p.add_argument("--ny", type=int, default=128)
    p.add_argument("--pitch-m", type=float, default=1e-9)
    p.add_argument("--step-m", type=float, default=2.0e-10)
    p.add_argument("--noise-m", type=float, default=8.0e-11)
    p.add_argument("--terraces", type=int, default=3)
    p.add_argument("--tilt-x", type=float, default=0.0)
    p.add_argument("--tilt-y", type=float, default=0.0)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
