"""Run-to-run spread of the end-to-end metrics, against their bounds.

    python3 sawbench/spread.py --seeds 1-10 [--workloads s11_dark_json ...]

Runs ``run.py`` once per seed and workload (``--trace 0``, the run length
of BENCHMARK.json) and prints, for every end-to-end metric, the median of
the runs and the distance between their first and third quartiles as a
share of the median, next to the metric's bound.  It also prints the share
of failed operations of each run, which must be the same in every run.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)

    ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, str(Path(__file__).parent / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"], capture_output=True, text=True, check=True)
            runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
        shares = {(r["failed"], r["attempted"]) for r in runs}
        print(f"{workload}: {len(runs)} runs, correct {all(r['correct'] for r in runs)}, "
              f"failed/attempted {sorted(shares)}")
        ok &= all(r["correct"] for r in runs)
        ok &= len({f / a for f, a in shares}) == 1
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            verdict = "ok" if spread < m["bound"] / 3 else "WIDE"
            print(f"  {m['name']:14s} median {median:10.4g} {m['unit']:4s} "
                  f"spread {spread:6.3f}  bound {m['bound']:.2f}  {verdict}")
            print(f"  {'':14s} runs " + " ".join(f"{v:.4g}" for v in values))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
