"""Mutated inputs through every analysis command: a report or an error record, never a traceback.

One small input per command is written once; a fixed list of mutations is
applied to it, and each mutated input runs in-process through ``cli.main``
with every RuntimeWarning raised as an error.  The mutations set one token
(a data field, a metadata value or an AFM header field) to 0, +-1e308,
1e-320, nan, inf or junk, cut a row short, swap two rows, or put a byte that
is not UTF-8 in a row.  Each run must return 0 or 1 with nothing escaping
``main``, an exit 1 must leave an error record, and every JSON file written
must parse with ``NaN`` and ``Infinity`` refused.  Beside the fixed list,
``hypothesis`` draws the line, the field and the token from a fixed seed, so
rows the list never touches (the last row, an AFM pixel mid-grid) are
mutated too.  No run may make LAPACK print an "illegal value" line.
"""
import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sawkit.cli import main

TOKENS = ("0", "1e308", "-1e308", "1e-320", "nan", "inf", "junk")


def synth(kind, *flags):
    def write(path):
        assert main(["synth", kind, *flags, "--output", str(path)]) == 0
    return write


def write_walkoff(path):
    """A curve of 4 degree amplitude: a product of two samples of 1e308 and
    one of the others overflows."""
    th = np.arange(-90.0, 91.0, 2.0)
    eta = 4.0 * np.sin(np.radians(2 * (th + 30.0)))
    path.write_text("theta_deg,eta_deg\n"
                    + "\n".join(f"{t},{e}" for t, e in zip(th, eta)) + "\n", encoding="utf-8")


def write_xps_line(line, center, area, seed):
    from sawkit.synth import synth_xps_spectrum

    def write(path):
        be = np.linspace(center - 8, center + 8, 161)
        sp = synth_xps_spectrum(be, [(center, 0.6, 0.4, 0.2, area)], element_line=line,
                                step=(20, 60), noise_sigma=0.8, rng_seed=seed)
        path.write_text(f"# line={line}\nbe_ev,counts\n"
                        + "\n".join(f"{b},{c}" for b, c in
                                    zip(sp.binding_energy_ev, sp.counts)) + "\n",
                        encoding="utf-8")
    return write


#: command -> (writer of its input, flags, 1-based lines whose first four
#: tokens are mutated, the 1-based row that is cut, swapped with the next and
#: given a stray byte).  The sweeps and the trace are the ``sawkit synth`` runs whose
#: mutations once warned: powersweep line 8, tempsweep line 5, the trace's
#: first frequency.
INPUTS = {
    "fit-resonance": (synth("s11", "--noise", "0.004", "--seed", "1"),
                      ["--emit-svg"], (2, 1001), 1001),
    "fit-tempsweep": (synth("tempsweep", "--noise-hz", "10", "--seed", "1", "--points", "30"),
                      ["--emit-svg"], (1, 3, 5), 5),
    "fit-powersweep": (synth("powersweep", "--noise-frac", "0.01", "--seed", "3",
                             "--points", "41"), ["--emit-svg"], (1, 2, 4, 8), 8),
    "afm": (synth("afm", "--nx", "48", "--ny", "48", "--seed", "0"),
            ["--fit-steps", "--emit-svg"], (1, 2, 25), 25),
    "walkoff": (write_walkoff, ["--emit-svg"], (2, 31), 31),
    "xps-quant": (write_xps_line("O1s", 530.0, 5000.0, 1), ["--emit-svg"], (1, 3, 80), 80),
}


def set_token(line, field, token):
    """``line`` with its ``field``-th token set to ``token``; a ``# key=value``
    line has one token, its value."""
    if line.startswith("#"):
        return f"{line.partition('=')[0]}={token}", field == 0
    sep = "," if "," in line else " "
    fields = line.split(sep) if sep == "," else line.split()
    if field >= len(fields):
        return line, False
    fields[field] = token
    return sep.join(fields), True


def mutations(data, token_lines, row):
    """(name, mutated bytes) of every mutation of ``data``."""
    lines = data.decode("utf-8").split("\n")

    def with_line(number, text):
        out = list(lines)
        out[number - 1] = text
        return "\n".join(out).encode("utf-8")

    for number in token_lines:
        for field in range(4):
            for token in TOKENS:
                text, changed = set_token(lines[number - 1], field, token)
                if changed:
                    yield f"line {number} field {field} = {token}", with_line(number, text)
    target = lines[row - 1]
    middle = len(target) // 2
    yield f"line {row} cut at its middle", with_line(row, target[:middle])
    yield f"line {row} without its last field", with_line(row, target.rpartition(
        "," if "," in target else " ")[0])
    swapped = list(lines)
    swapped[row - 1], swapped[row] = swapped[row], swapped[row - 1]
    yield f"lines {row} and {row + 1} swapped", "\n".join(swapped).encode("utf-8")
    head, _, tail = data.partition(target.encode("utf-8"))
    yield f"stray byte in line {row}", (head + target[:middle].encode("utf-8") + b"\xff"
                                        + target[middle:].encode("utf-8") + tail)
    yield "file cut mid-row", data[:len(data) * 2 // 3]


def refuse_constant(name):
    raise ValueError(f"{name} in a report")


def run_mutated(argv, out):
    """What went wrong running ``argv`` with warnings as errors, or None."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv + ["--out", str(out)])
    except Exception as exc:  # anything escaping main is the finding
        return f"{type(exc).__name__} escaped main: {exc}"
    if code not in (0, 1):
        return f"exit {code}"
    written = sorted(out.glob("*.json"))
    if code == 1 and not any(p.name.endswith(".error.json") for p in written):
        return "exit 1 without an error record"
    for path in written:
        try:
            json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse_constant)
        except ValueError as exc:
            return f"{path.name}: {exc}"
    return None


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """command -> (the argv before its input, its clean input, flags, the
    input's bytes), each input written once."""
    root = tmp_path_factory.mktemp("clean")
    nb = root / "Nb3d.csv"  # the mutated O1s line is quantified against Nb3d
    write_xps_line("Nb3d", 207.3, 5000.0, 2)(nb)
    inputs = {}
    for command, (write, flags, _, _) in INPUTS.items():
        good = root / f"{command}.csv"
        write(good)
        argv = [command, str(nb)] if command == "xps-quant" else [command]
        inputs[command] = argv, good, flags, good.read_bytes()
    return inputs


def assert_no_lapack_complaint(capfd):
    out, err = capfd.readouterr()
    assert "illegal value" not in out + err


@pytest.mark.parametrize("command", sorted(INPUTS))
def test_mutated_input_ends_in_a_report_or_an_error_record(tmp_path, capfd, clean, command):
    argv, good, flags, data = clean[command]
    _, _, token_lines, row = INPUTS[command]
    assert run_mutated(argv + [str(good)] + flags, tmp_path / "good") is None
    found = []
    for i, (name, mutated) in enumerate(mutations(data, token_lines, row)):
        path = tmp_path / f"m{i}.csv"
        path.write_bytes(mutated)
        problem = run_mutated(argv + [str(path)] + flags, tmp_path / f"out{i}")
        if problem:
            found.append(f"{name}: {problem}")
    assert not found, "\n".join(found)
    assert_no_lapack_complaint(capfd)


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_drawn_mutation_ends_in_a_report_or_an_error_record(tmp_path, capfd, clean, data):
    command = data.draw(st.sampled_from(sorted(INPUTS)), label="command")
    argv, _, flags, text = clean[command]
    lines = text.decode("utf-8").split("\n")[:-1]  # every input ends in a newline
    number = data.draw(st.integers(1, len(lines)), label="line")
    line = lines[number - 1]
    n_fields = 1 if line.startswith("#") else len(line.split("," if "," in line else None))
    field = data.draw(st.integers(0, n_fields - 1), label="field")
    token = data.draw(st.sampled_from(TOKENS), label="token")
    mutated, changed = set_token(line, field, token)
    assert changed
    lines[number - 1] = mutated
    run = tmp_path / f"{command}-{number}-{field}-{token}"
    run.mkdir(exist_ok=True)
    path = run / "mutated.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run_mutated(argv + [str(path)] + flags, run / "out") is None
    assert_no_lapack_complaint(capfd)
