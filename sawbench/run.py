"""Benchmark of the sawkit analysis chain.

    python3 sawbench/run.py --workload s11_lorentz_svg --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  One run:

1. generates the workload's inputs from ``--seed`` (``gen.py``, its own
   process, so neither its time nor its memory is measured);
2. times ``import sawkit.cli`` in fresh interpreters (``setup_s``, the
   median of several);
3. runs the timed closed loop in a fresh process (``worker.py``) with one
   BLAS thread;
4. checks every output of the first round against the generated truth
   (``check.py``) and that later rounds reproduced it byte for byte;
5. prints the metrics; the last line of standard output is one JSON object
   with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` they are its per-layer ones.  Working files go to
``.bench_work/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7
DEADLINE_S = 170.0
SETUP_CODE = "import sawkit.cli; sawkit.cli.build_parser()"


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run(cmd, env, deadline, **kwargs):
    """Run a child to completion, killing it at the deadline."""
    with subprocess.Popen(cmd, env=env, **kwargs) as proc:
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SystemExit(f"error: {cmd[1]} did not finish before the deadline")
    if code != 0:
        raise SystemExit(f"error: {' '.join(cmd[:2])} exited with code {code}")


def measure_setup(env, deadline):
    """Median wall time of fresh interpreters importing sawkit.cli."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    _run(cmd, env, deadline)  # compiles bytecode on a fresh checkout
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        _run(cmd, env, deadline)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def check_outputs(manifest, result, out_root):
    """Errors in the first round's outputs, plus failures by message."""
    import check  # numpy and scipy load only after the timed process ended

    errors = list(result["mismatches"])
    failures = []
    for entry in manifest["inputs"]:
        out_dir = out_root / entry["id"]
        for argv, code in zip(entry["commands"], result["exit_codes"][entry["id"]]):
            if code == 0:
                errors += [f"{entry['id']}: {e}"
                           for e in check.check_command(argv, out_dir, entry["truth"], manifest)]
                continue
            record = out_dir / check.error_record(argv)
            try:
                message = json.loads(record.read_text())["error"]
            except (OSError, ValueError, KeyError):
                message = "no error record"
            failures.append(f"{entry['id']}: {argv[0]}: {message}")
    return errors, failures


def end_to_end(result, setup_s):
    lat = result["latencies_ms"]
    return {
        "setup_s": setup_s,
        "inputs_per_s": len(lat) / (sum(lat) / 1e3),
        "input_ms_p50": statistics.median(lat),
        "input_ms_p90": statistics.quantiles(lat, n=10)[8],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    if not (root / "src" / "sawkit" / "cli.py").is_file():
        raise SystemExit("error: no sawkit sources under src/; run from a source checkout")

    work = root / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = _env()
    _run([sys.executable, str(HERE / "gen.py"), "--workload", args.workload,
          "--seed", str(args.seed), "--out", str(work / "inputs")], env, deadline)
    setup_s = measure_setup(env, deadline)
    log_path = work / "worker.log"
    try:
        with open(log_path, "w") as log:
            _run([sys.executable, str(HERE / "worker.py"), "--manifest",
                  str(work / "inputs" / "manifest.json"), "--out", str(work),
                  "--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--result", str(work / "result.json")], env, deadline, stderr=log)
    except SystemExit:
        sys.stderr.write(log_path.read_text()[-4000:])
        raise
    result = json.loads((work / "result.json").read_text())
    manifest = json.loads((work / "inputs" / "manifest.json").read_text())

    sys.path.insert(0, str(HERE))
    errors, failures = check_outputs(manifest, result, work / "first")
    attempted = result["rounds"] * result["commands_per_round"]
    failed = result["rounds"] * len(failures)

    if args.trace:
        values, wanted = result["per_layer"], spec["per_layer"]
    else:
        values, wanted = end_to_end(result, setup_s), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {result['rounds']}  inputs timed {len(result['latencies_ms'])}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    print(f"  attempted {attempted}  failed {failed}")
    for line in failures:
        print(f"  failed every round: {line}")
    for line in errors:
        print(f"  CHECK FAILED: {line}")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
