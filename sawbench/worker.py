"""The timed process: a closed loop with one client over one workload.

Runs every input of the manifest through ``sawkit.cli.main`` in-process,
one input at a time, in whole rounds, until ``--seconds`` have passed.  One
warm-up input runs first and is not timed.  Outputs of the first round are
kept for the correctness checks; every later round must reproduce them
byte for byte and with the same exit codes.

With ``--trace 1`` rounds alternate between untraced and traced (first
round untraced); the traced rounds give the per-layer figures and the
difference of the two kinds gives the cost of tracing itself.

Writes a JSON result to ``--result``.  Run it through ``run.py``, which
sets the environment (one BLAS thread, ``PYTHONPATH=src``).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import sawkit.cli

from tracing import Tracer

#: functions that must be called on each workload when it is traced
_S11 = ("spectra.parse_s11_csv", "resonance.estimate_initial_params",
        "resonance.fit_resonance", "lsq.fit_least_squares",
        "lsq.numeric_jacobian", "cli.main")
EXPECTED_CALLS = {
    "s11_lorentz_svg": _S11 + ("svg.render_panels",),
    "s11_dark_json": _S11,
    "surface_mix": (
        "spectra.parse_tempsweep_csv", "spectra.parse_powersweep_csv",
        "spectra.parse_xps_csv", "spectra.parse_afm_grid", "spectra.parse_walkoff_csv",
        "tls.fit_fdelta", "tls.fit_power_sweep", "xps.shirley_background",
        "xps.fit_bands", "afm.remove_line_tilt", "afm.height_histogram",
        "afm.fit_step_heights", "walkoff.smooth_curve", "walkoff.find_zero_crossings",
        "walkoff.find_tangencies", "lsq.fit_least_squares", "lsq.numeric_jacobian",
        "svg.render_panels", "cli.main"),
}

#: per-layer time metrics: name -> (layer, inclusive or self time)
TIME_METRICS = {
    "spectra.parse_ms": ("spectra.parse", 0),
    "resonance.init_ms": ("resonance.init", 0),
    "resonance.self_ms": ("resonance.fit", 1),
    "lsq.fit_ms": ("lsq.fit", 0),
    "lsq.jacobian_ms": ("lsq.jacobian", 0),
    "svg.render_ms": ("svg.render", 0),
    "cli.self_ms": ("cli", 1),
    "tls.fit_ms": ("tls.fit", 0),
    "xps.shirley_ms": ("xps.shirley", 0),
    "xps.bands_ms": ("xps.bands", 0),
    "afm.flatten_ms": ("afm.flatten", 0),
    "afm.histogram_ms": ("afm.histogram", 0),
    "afm.steps_ms": ("afm.steps", 0),
    "walkoff.ms": ("walkoff", 0),
}

#: per-layer counts reported per input: name -> counter
COUNT_METRICS = {
    "lsq.fits_per_input": "lsq.fits",
    "lsq.iterations_per_input": "lsq.iterations",
    "lsq.residual_evals_per_input": "lsq.residual_evals",
    "xps.shirley_iterations": "xps.shirley_iterations",
}


def _digest(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


def _run_input(entry, out_dir):
    """Run one input's commands; return (seconds, exit codes)."""
    t0 = time.perf_counter()
    codes = [sawkit.cli.main(argv + ["--out", str(out_dir)]) for argv in entry["commands"]]
    return time.perf_counter() - t0, codes


def layer_metrics(tracer, untraced_ms, traced_ms):
    n_inputs = len(traced_ms)
    times = tracer.layer_times()
    keys = list(times)
    out = {}
    for name, (layer, which) in TIME_METRICS.items():
        values = [times[k][layer][which] * 1e3 if layer in times[k] else 0.0 for k in keys]
        out[name] = statistics.median(values)
    totals = {}
    for c in tracer.counts_by_input.values():
        for key, value in c.items():
            totals[key] = totals.get(key, 0) + value
    for name, key in COUNT_METRICS.items():
        out[name] = totals.get(key, 0) / n_inputs
    parse_s = sum(t["spectra.parse"][0] for t in times.values() if "spectra.parse" in t)
    out["spectra.parse_mb_per_s"] = (totals.get("spectra.parse_bytes", 0) / 1e6 / parse_s
                                     if parse_s else 0.0)
    trials = totals.get("lsq.trial_steps", 0)
    out["lsq.accepted_step_ratio"] = totals.get("lsq.accepted_steps", 0) / trials if trials else 0.0
    plots = totals.get("svg.plots", 0)
    out["svg.kb_per_plot"] = totals.get("svg.bytes", 0) / 1024 / plots if plots else 0.0
    out["trace.overhead_ms_per_input"] = (statistics.median(traced_ms)
                                          - statistics.median(untraced_ms))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True, type=Path)
    args = parser.parse_args(argv)

    manifest = json.loads(args.manifest.read_text())
    inputs = manifest["inputs"]
    tracer = Tracer() if args.trace else None

    _run_input(inputs[0], args.out / "warm" / inputs[0]["id"])

    first = {}           # input id -> (exit codes, output digests)
    mismatches = []
    latencies = {0: [], 1: []}  # traced flag -> per-input ms
    rounds = 0
    start = time.perf_counter()
    while (rounds < (2 if tracer is not None else 1)
           or time.perf_counter() - start < args.seconds):
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        try:
            for i, entry in enumerate(inputs):
                out_dir = args.out / ("first" if rounds == 0 else "cur") / entry["id"]
                if traced:
                    tracer.input = (rounds, i)
                seconds, codes = _run_input(entry, out_dir)
                latencies[int(traced)].append(seconds * 1e3)
                got = (codes, _digest(out_dir))
                if rounds == 0:
                    first[entry["id"]] = got
                elif got != first[entry["id"]]:
                    mismatches.append(f"round {rounds}: {entry['id']} differs from round 0")
        finally:
            if traced:
                tracer.uninstall()
        rounds += 1

    result = {
        "rounds": rounds,
        "commands_per_round": sum(len(e["commands"]) for e in inputs),
        "latencies_ms": latencies[0],
        "exit_codes": {k: v[0] for k, v in first.items()},
        "mismatches": mismatches,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.require(EXPECTED_CALLS[manifest["workload"]])
        metrics = layer_metrics(tracer, latencies[0], latencies[1])
        written = sum(p.stat().st_size for p in (args.out / "first").rglob("*") if p.is_file())
        metrics["cli.written_kb_per_input"] = written / 1024 / len(inputs)
        result["per_layer"] = metrics
        with open(args.out / "spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    args.result.write_text(json.dumps(result) + "\n")


if __name__ == "__main__":
    sys.exit(main())
