"""What only a child process shows: the console entry point, and reports that
do not depend on the BLAS thread count.

OpenBLAS splits a long dot product across its threads, and the order of the
sum then depends on how many it runs.  Each thread case runs one child with
``OPENBLAS_NUM_THREADS=1`` and one with ``=2``, at once, and compares every
byte the two write.  On a machine with one core OpenBLAS runs one thread
whatever it is asked, and the cases show nothing there.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sawkit
from sawkit.cli import main
from test_mutations import INPUTS, write_xps_line

SRC = str(Path(sawkit.__file__).resolve().parents[1])

#: each ``cli.main`` argv of ``sys.argv[1]`` (JSON), writing under ``sys.argv[2]``
RUN_EACH = ("import json, sys\nfrom sawkit.cli import main\n"
            "print(json.dumps([main(argv + ['--out', sys.argv[2]])"
            " for argv in json.loads(sys.argv[1])]))")


def child_env(threads):
    return {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def written(out):
    return {path.relative_to(out).as_posix(): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


def at_one_and_two_threads(tmp_path, args):
    """Run ``python *args <out>`` with 1 and with 2 BLAS threads, both at
    once, each with an ``<out>`` of its own; return the stdout of each and
    the bytes each wrote, by file name."""
    children = [subprocess.Popen([sys.executable, *args, str(tmp_path / f"threads{n}")],
                                 cwd=tmp_path, env=child_env(n), text=True,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                for n in (1, 2)]
    outputs = [child.communicate(timeout=120) for child in children]
    for child, (_, err) in zip(children, outputs):
        assert child.returncode == 0, err
    return [(stdout, written(tmp_path / f"threads{n}"))
            for n, (stdout, _) in zip((1, 2), outputs)]


#: model -> (synth flags of a 6001-point trace, fit flags); the bytes of both
#: reports once differed between one and two threads
TRACES = {
    "lorentzian": (["--points", "6001", "--noise", "0.004", "--seed", "3"], ["--emit-svg"]),
    "dark": (["--f0-hz", "679.564e6", "--qi", "6800", "--qe", "14000", "--points", "6001",
              "--noise", "0.004", "--seed", "1", "--dark-delta-hz", "75e3",
              "--dark-g-hz", "15e3", "--dark-gamma-hz", "10e3"], ["--model", "dark"]),
}


@pytest.mark.parametrize("model", sorted(TRACES))
def test_fit_resonance_writes_the_same_bytes_at_any_blas_thread_count(tmp_path, model):
    synth_flags, fit_flags = TRACES[model]
    assert main(["synth", "s11", *synth_flags, "--output", str(tmp_path / "t.csv")]) == 0
    (_, one), (_, two) = at_one_and_two_threads(
        tmp_path, ["-m", "sawkit", "fit-resonance", "t.csv", *fit_flags, "--out"])
    assert sorted(one) == (["t.fit.json", "t.fit.svg"] if model == "lorentzian"
                           else ["t.fit.json"])
    assert one == two


def test_every_other_command_writes_the_same_bytes_at_any_blas_thread_count(tmp_path):
    # the clean inputs of the mutation test, but a 256 x 256 AFM grid
    commands = []
    for command in ("fit-tempsweep", "fit-powersweep", "walkoff"):
        write, flags, _, _ = INPUTS[command]
        write(tmp_path / f"{command}.csv")
        commands.append([command, f"{command}.csv", *flags])
    (tmp_path / "xps").mkdir()
    write_xps_line("O1s", 530.0, 5000.0, 1)(tmp_path / "xps" / "O1s.csv")
    write_xps_line("Nb3d", 207.3, 5000.0, 2)(tmp_path / "xps" / "Nb3d.csv")
    (tmp_path / "cfg.json").write_text(json.dumps({"bands": {"O1s": [{"center_ev": 530.0}]}}),
                                       encoding="utf-8")
    commands.append(["xps-quant", "xps", "--config", "cfg.json", "--emit-svg"])
    assert main(["synth", "afm", "--nx", "256", "--ny", "256", "--seed", "0",
                 "--output", str(tmp_path / "grid.txt")]) == 0
    commands.append(["afm", "grid.txt", "--fit-steps", "--emit-svg"])
    (codes, one), (_, two) = at_one_and_two_threads(tmp_path, ["-c", RUN_EACH,
                                                               json.dumps(commands)])
    assert json.loads(codes) == [0] * len(commands)
    assert len(one) == 2 * len(commands)  # a report and a plot each
    assert one == two


def test_failing_input_exits_1_with_its_record_and_no_traceback(tmp_path):
    # one value of 1e308, whose square overflows, with every RuntimeWarning
    # an error on the way
    trace = tmp_path / "big.csv"
    assert main(["synth", "s11", "--noise", "0.004", "--seed", "1", "--output", str(trace)]) == 0
    lines = trace.read_text(encoding="utf-8").split("\n")
    freq, _, imag = lines[1000].split(",")
    lines[1000] = f"{freq},1e308,{imag}"
    trace.write_text("\n".join(lines), encoding="utf-8")
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "sawkit",
                           "fit-resonance", "big.csv", "--out", "out"], cwd=tmp_path,
                          env=child_env(1), capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    record = json.loads((tmp_path / "out" / "big.error.json").read_text(encoding="utf-8"))
    assert record["error"] == "sum of squared deviations from the background is not finite"
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: big.csv: ")
    assert not (tmp_path / "out" / "big.fit.json").exists()
