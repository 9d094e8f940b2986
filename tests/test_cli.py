import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

from sawkit import afm, cli
from sawkit.cli import main
from sawkit.spectra import format_powersweep_csv, parse_tempsweep_csv
from conftest import flat_power_sweep


def run(args):
    return main([str(a) for a in args])


def read_json(path):
    return json.loads(path.read_text())


class TestSynth:
    def test_byte_identical_under_same_seed(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert run(["synth", "s11", "--noise", "0.005", "--seed", "3",
                        "--output", out]) == 0
        assert a.read_bytes() == b.read_bytes()
        c = tmp_path / "c.csv"
        run(["synth", "s11", "--noise", "0.005", "--seed", "4", "--output", c])
        assert a.read_bytes() != c.read_bytes()

    def test_tempsweep_zero_loss_gives_constant_frequency(self, tmp_path):
        out = tmp_path / "ts.csv"
        assert run(["synth", "tempsweep", "--f-delta", "0", "--output", out]) == 0
        series = parse_tempsweep_csv(out.read_text())
        assert np.all(series.f0_hz == series.f0_hz[0])

    def test_synth_afm_end_to_end_step_recovery(self, tmp_path):
        grid = tmp_path / "terraces.txt"
        assert run(["synth", "afm", "--nx", "160", "--ny", "160", "--step-m",
                    "2.4e-10", "--seed", "5", "--output", grid]) == 0
        assert run(["afm", grid, "--fit-steps", "--out", tmp_path]) == 0
        doc = read_json(tmp_path / "terraces.afm.json")
        assert doc["steps"]["mean_step_m"] == pytest.approx(2.4e-10, rel=0.15)

    def test_synth_afm_reports_step_gate(self, tmp_path):
        grid = tmp_path / "terraces.txt"
        assert run(["synth", "afm", "--nx", "160", "--ny", "160", "--seed", "5",
                    "--output", grid]) == 0
        assert run(["afm", grid, "--fit-steps", "--out", tmp_path, "--emit-svg"]) == 0
        steps = read_json(tmp_path / "terraces.afm.json")["steps"]
        assert steps["equal_steps"] is True
        assert steps["unequal_delta_chi2"] < 50.0
        assert steps["step_heights_m"][0] == steps["step_heights_m"][1]
        assert "terrace fit" in (tmp_path / "terraces.afm.svg").read_text()

    def test_step_fit_and_plot_share_one_histogram(self, tmp_path, monkeypatch):
        grid = tmp_path / "terraces.txt"
        assert run(["synth", "afm", "--nx", "160", "--ny", "160", "--seed", "5",
                    "--output", grid]) == 0
        calls = []
        histogram = afm.height_histogram
        monkeypatch.setattr(afm, "height_histogram",
                            lambda image: calls.append(image) or histogram(image))
        assert run(["afm", grid, "--fit-steps", "--out", tmp_path, "--emit-svg"]) == 0
        assert len(calls) == 1
        assert (tmp_path / "terraces.afm.svg").exists()


class TestFitResonance:
    def synth_trace(self, tmp_path, name, seed=0, noise="0.004"):
        path = tmp_path / name
        run(["synth", "s11", "--f0-hz", "688.4e6", "--qi", "6800", "--qe",
             "14000", "--points", "2001", "--noise", noise, "--seed", seed,
             "--output", path])
        return path

    def test_fit_json_matches_generation(self, tmp_path):
        trace = self.synth_trace(tmp_path, "m.csv")
        assert run(["fit-resonance", trace, "--out", tmp_path]) == 0
        doc = read_json(tmp_path / "m.fit.json")
        assert doc["qi"] == pytest.approx(6800, rel=0.02)
        assert doc["qe"] == pytest.approx(14000, rel=0.02)
        assert doc["params"]["dark"] is None

    def test_outputs_byte_identical_across_runs(self, tmp_path):
        trace = self.synth_trace(tmp_path, "m.csv")
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        for out in (out1, out2):
            assert run(["fit-resonance", trace, "--out", out, "--emit-svg"]) == 0
        assert (out1 / "m.fit.json").read_bytes() == (out2 / "m.fit.json").read_bytes()
        assert (out1 / "m.fit.svg").read_bytes() == (out2 / "m.fit.svg").read_bytes()

    def test_emit_svg_panels(self, tmp_path):
        trace = self.synth_trace(tmp_path, "m.csv")
        assert run(["fit-resonance", trace, "--out", tmp_path, "--emit-svg"]) == 0
        svg = (tmp_path / "m.fit.svg").read_text()
        assert svg.startswith("<svg")
        assert "reflection magnitude" in svg
        assert "reflection phase" in svg
        assert "polyline" in svg

    def test_fit_line_is_drawn_over_the_data(self, tmp_path):
        # in each panel the 4.4 px data band comes first in the file, so the
        # 1.4 px fit polyline is painted over it
        trace = self.synth_trace(tmp_path, "m.csv")
        assert run(["fit-resonance", trace, "--out", tmp_path, "--emit-svg"]) == 0
        svg = (tmp_path / "m.fit.svg").read_text()
        widths = re.findall(r'<polyline [^>]*stroke-width="([0-9.]+)"', svg)
        assert widths == ["4.4", "1.4"] * 2

    def test_long_trace_plot_stays_small(self, tmp_path):
        path = tmp_path / "long.csv"
        run(["synth", "s11", "--f0-hz", "688.4e6", "--qi", "6800", "--qe", "14000",
             "--points", "6001", "--noise", "0.004", "--seed", "1", "--output", path])
        assert run(["fit-resonance", path, "--out", tmp_path, "--emit-svg"]) == 0
        assert (tmp_path / "long.fit.svg").stat().st_size <= 80 * 1024

    def test_dark_model_flag(self, tmp_path):
        path = tmp_path / "d.csv"
        run(["synth", "s11", "--f0-hz", "679.564e6", "--qi", "6800", "--qe",
             "14000", "--points", "3001", "--noise", "0.004", "--seed", "2",
             "--dark-delta-hz", "75e3", "--dark-g-hz", "15e3",
             "--dark-gamma-hz", "10e3", "--output", path])
        assert run(["fit-resonance", path, "--model", "dark",
                    "--out", tmp_path]) == 0
        doc = read_json(tmp_path / "d.fit.json")
        dark = doc["params"]["dark"]
        detune = dark["f_dark_hz"] - doc["params"]["f0_hz"]
        assert detune == pytest.approx(75e3, rel=0.05)


class TestSweepCommands:
    def test_tempsweep_roundtrip(self, tmp_path):
        csv = tmp_path / "sweep.csv"
        run(["synth", "tempsweep", "--f-delta", "7.53e-5", "--f0-hz", "690e6",
             "--points", "20", "--noise-hz", "10", "--seed", "6",
             "--output", csv])
        assert run(["fit-tempsweep", csv, "--out", tmp_path, "--emit-svg"]) == 0
        doc = read_json(tmp_path / "sweep.tls.json")
        assert doc["f_delta_tls"] == pytest.approx(7.53e-5, rel=0.05)
        assert (tmp_path / "sweep.tls.svg").exists()

    def test_powersweep_roundtrip(self, tmp_path):
        csv = tmp_path / "power.csv"
        run(["synth", "powersweep", "--f-delta", "5.66e-4", "--q-res", "2600",
             "--points", "25", "--noise-frac", "0.02", "--seed", "1",
             "--output", csv])
        assert run(["fit-powersweep", csv, "--out", tmp_path]) == 0
        doc = read_json(tmp_path / "power.power.json")
        assert doc["params"]["f_delta_tls"] == pytest.approx(5.66e-4, rel=0.10)

    def test_flat_powersweep_writes_error_record(self, tmp_path):
        csv = tmp_path / "flat.csv"
        csv.write_text(format_powersweep_csv(flat_power_sweep()))
        assert run(["fit-powersweep", csv, "--out", tmp_path]) == 1
        assert "solved to zero" in read_json(tmp_path / "flat.error.json")["error"]
        assert not (tmp_path / "flat.power.json").exists()


class TestXpsQuant:
    def write_line(self, path, line, center, area, rng_seed):
        from sawkit.spectra import format_xps_csv
        from sawkit.synth import synth_xps_spectrum
        be = np.linspace(center - 8, center + 8, 201)
        sp = synth_xps_spectrum(be, [(center, 0.6, 0.4, 0.2, area)],
                                element_line=line, step=(20, 60, None, 0),
                                step_shape="shirley", noise_sigma=0.8,
                                rng_seed=rng_seed)
        path.write_text(format_xps_csv(sp))

    def test_equal_factors_equal_areas_equal_percentages(self, tmp_path):
        indir = tmp_path / "xps"
        indir.mkdir()
        self.write_line(indir / "O1s.csv", "O1s", 530.0, 5000.0, 1)
        self.write_line(indir / "Nb3d.csv", "Nb3d", 207.3, 5000.0, 2)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sensitivity": {"O1s": 1.0, "Nb3d": 1.0}}))
        assert run(["xps-quant", indir, "--config", cfg, "--out", tmp_path,
                    "--emit-svg"]) == 0
        doc = read_json(tmp_path / "xps_quant.json")
        assert doc["atomic_percent"]["O1s"] == pytest.approx(50.0, abs=1.0)
        assert doc["ratios_to_nb"]["O/Nb"] == pytest.approx(1.0, abs=0.05)
        assert (tmp_path / "xps_quant.svg").exists()

    def test_band_fit_diagnostics_written(self, tmp_path):
        indir = tmp_path / "xps"
        indir.mkdir()
        self.write_line(indir / "O1s.csv", "O1s", 530.0, 5000.0, 1)
        self.write_line(indir / "Nb3d.csv", "Nb3d", 207.3, 5000.0, 2)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bands": {"O1s": [{"center_ev": 530.0}]}}))
        assert run(["xps-quant", indir, "--config", cfg, "--out", tmp_path]) == 0
        doc = read_json(tmp_path / "xps_quant.json")
        fit = doc["band_fits"]["O1s"]
        assert [b["area"] for b in fit["bands"]] == doc["band_areas"]["O1s"]
        assert len(fit["area_errors"]) == 1
        assert fit["degenerate"] is False
        assert fit["n_iterations"] >= 1
        assert list(doc["band_fits"]) == ["O1s"]

    def test_shipped_config(self, tmp_path):
        indir = tmp_path / "xps"
        indir.mkdir()
        self.write_line(indir / "O1s.csv", "O1s", 530.0, 5000.0, 1)
        self.write_line(indir / "Nb3d.csv", "Nb3d", 207.3, 5000.0, 2)
        config = Path(__file__).resolve().parents[1] / "config" / "xps_quant.json"
        assert run(["xps-quant", indir, "--config", config, "--out", tmp_path]) == 0
        bands = read_json(tmp_path / "xps_quant.json")["band_fits"]["O1s"]["bands"]
        assert len(bands) == 3
        assert len({(b["sigma_ev"], b["gamma_ev"]) for b in bands}) == 1
        assert sum(b["area"] for b in bands) == pytest.approx(5000.0, rel=0.05)

    def test_missing_nb_is_error(self, tmp_path):
        indir = tmp_path / "xps"
        indir.mkdir()
        self.write_line(indir / "O1s.csv", "O1s", 530.0, 5000.0, 1)
        assert run(["xps-quant", indir, "--out", tmp_path]) != 0
        assert (tmp_path / "xps_quant.error.json").exists()

    def test_non_utf8_line_file_is_recorded(self, tmp_path):
        indir = tmp_path / "xps"
        indir.mkdir()
        self.write_line(indir / "Nb3d.csv", "Nb3d", 207.3, 5000.0, 2)
        (indir / "O1s.csv").write_bytes(NOT_UTF8)
        out = tmp_path / "results"
        assert run(["xps-quant", indir, "--out", out]) == 1
        record = read_json(out / "xps_quant.error.json")
        assert "not UTF-8" in record["error"]
        assert record["input"].endswith("O1s.csv")
        assert not (out / "xps_quant.json").exists()


class TestAfmCommand:
    def test_constant_grid_zero_roughness(self, tmp_path):
        rows = ["24 24 1e-09 1e-09"] + [" ".join(["1.5e-9"] * 24)] * 24
        grid = tmp_path / "flat.txt"
        grid.write_text("\n".join(rows) + "\n")
        assert run(["afm", grid, "--out", tmp_path]) == 0
        doc = read_json(tmp_path / "flat.afm.json")
        assert doc["r_q_m"] == 0.0

    def test_multi_image_summary(self, tmp_path):
        indir = tmp_path / "grids"
        indir.mkdir()
        for i in range(3):
            run(["synth", "afm", "--nx", "64", "--ny", "64", "--seed", i,
                 "--output", indir / f"g{i}.txt"])
        assert run(["afm", indir, "--out", tmp_path]) == 0
        summary = read_json(tmp_path / "afm_summary.json")
        assert summary["n_images"] == 3
        assert summary["r_q_mean_m"] > 0


class TestWalkoffCommand:
    def test_zero_report(self, tmp_path):
        th = np.arange(-90.0, 91.0, 1.0)
        eta = np.sin(np.radians(2 * (th + 30.0)))
        csv = tmp_path / "curve.csv"
        csv.write_text("theta_deg,eta_deg\n"
                       + "\n".join(f"{t},{e}" for t, e in zip(th, eta)) + "\n")
        assert run(["walkoff", csv, "--half-width", "2", "--out", tmp_path,
                    "--emit-svg"]) == 0
        doc = read_json(tmp_path / "curve.walkoff.json")
        zeros = sorted(z["theta_deg"] for z in doc["zeros"])
        assert zeros == pytest.approx([-30.0, 60.0], abs=0.5)
        assert (tmp_path / "curve.walkoff.svg").exists()


def write_walkoff(path, seed):
    th = np.arange(-90.0, 91.0, 1.0)
    eta = np.sin(np.radians(2 * (th + 30.0 + seed)))
    path.write_text("theta_deg,eta_deg\n"
                    + "\n".join(f"{t},{e}" for t, e in zip(th, eta)) + "\n")


#: per-file command -> (report suffix, writer of a good input from a seed)
PER_FILE_COMMANDS = {
    "fit-resonance": ("fit", lambda path, seed: run(
        ["synth", "s11", "--points", "2001", "--noise", "0.004", "--seed", seed,
         "--output", path])),
    "fit-tempsweep": ("tls", lambda path, seed: run(
        ["synth", "tempsweep", "--points", "20", "--noise-hz", "10",
         "--seed", seed, "--output", path])),
    "fit-powersweep": ("power", lambda path, seed: run(
        ["synth", "powersweep", "--points", "25", "--noise-frac", "0.02",
         "--seed", seed, "--output", path])),
    "afm": ("afm", lambda path, seed: run(
        ["synth", "afm", "--nx", "64", "--ny", "64", "--seed", seed,
         "--output", path])),
    "walkoff": ("walkoff", write_walkoff),
}


def afm_with_level_points(points):
    def build(tmp_path):
        PER_FILE_COMMANDS["afm"][1](tmp_path / "g.txt", 0)
        return ["afm", tmp_path / "g.txt", "--level-points", points, "--keep-going"], "g"
    return build


def xps_with_config(text):
    """``text`` (str or raw bytes) None leaves the config file missing."""
    def build(tmp_path):
        TestXpsQuant().write_line(tmp_path / "Nb3d.csv", "Nb3d", 207.3, 5000.0, 2)
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_bytes(text if isinstance(text, bytes) else text.encode())
        return ["xps-quant", tmp_path / "Nb3d.csv", "--config", cfg], "xps_quant"
    return build


#: bytes no UTF-8 decoder accepts: a UTF-16 byte-order mark, then UTF-16 text
NOT_UTF8 = b"\xff\xfe" + "frequency_hz,re,im\n".encode("utf-16-le")


def sweep_with_metadata(kind, key):
    """A sweep whose ``# key=`` metadata value is not a number."""
    def build(tmp_path):
        sweep = tmp_path / "s.csv"
        run(["synth", kind, "--points", "20", "--output", sweep])
        lines = [f"# {key}=abc" if line.startswith(f"# {key}=") else line
                 for line in sweep.read_text().splitlines()]
        sweep.write_text("\n".join(lines) + "\n")
        return [f"fit-{kind}", sweep, "--keep-going"], "s"
    return build


def synth_with_flags(kind, *flags):
    def build(tmp_path):
        return ["synth", kind, *flags], "synth"
    return build


#: malformed flag, config or metadata -> builder of (argv, error record stem)
OUTSIDE_INPUT_ERRORS = {
    "level-points-missing-coordinate": afm_with_level_points("1,2 3"),
    "level-points-non-integer": afm_with_level_points("1,2 3,4 5,x"),
    "band-without-center": xps_with_config(
        json.dumps({"bands": {"Nb3d": [{"sigma_ev": 0.6}]}})),
    "bands-with-different-widths": xps_with_config(json.dumps({"bands": {"Nb3d": [
        {"center_ev": 207.3, "sigma_ev": 0.5}, {"center_ev": 210.0, "sigma_ev": 0.7}]}})),
    "malformed-config": xps_with_config("{not json"),
    "config-not-utf8": xps_with_config(NOT_UTF8),
    "missing-config": xps_with_config(None),
    "config-non-numeric-sensitivity": xps_with_config(
        json.dumps({"sensitivity": {"Nb3d": "x"}})),
    "config-bands-not-a-list": xps_with_config(json.dumps({"bands": {"Nb3d": 3}})),
    "config-top-level-list": xps_with_config(json.dumps([1, 2])),
    "non-numeric-reference-temperature": sweep_with_metadata(
        "tempsweep", "reference_temperature_K"),
    "non-numeric-f0": sweep_with_metadata("powersweep", "f0_hz"),
    "non-numeric-temperature": sweep_with_metadata("powersweep", "temperature_K"),
    "synth-negative-qi": synth_with_flags("s11", "--qi", "-5"),
    "synth-too-few-s11-points": synth_with_flags("s11", "--points", "3"),
    "synth-afm-too-narrow": synth_with_flags("afm", "--nx", "4"),
    "synth-beta-out-of-range": synth_with_flags("powersweep", "--beta", "5"),
    "synth-too-few-temperatures": synth_with_flags("tempsweep", "--points", "2"),
}


def run_batch_with_bad_middle(tmp_path, command, keep_going, bad_bytes):
    """Run ``command`` over inputs a, b, c where b holds ``bad_bytes``."""
    suffix, write_good = PER_FILE_COMMANDS[command]
    indir = tmp_path / "inputs"
    indir.mkdir()
    write_good(indir / "a.csv", 1)
    (indir / "b.csv").write_bytes(bad_bytes)
    write_good(indir / "c.csv", 2)
    out = tmp_path / "results"
    argv = [command, indir, "--out", out] + (["--keep-going"] if keep_going else [])
    assert run(argv) == 1
    assert (out / f"a.{suffix}.json").exists()
    record = read_json(out / "b.error.json")
    assert "b.csv" in record["input"]
    assert (out / f"c.{suffix}.json").exists() == keep_going
    return record


class TestBatchErrors:
    @pytest.mark.parametrize("keep_going", [True, False], ids=["keep-going", "stop"])
    @pytest.mark.parametrize("command", sorted(PER_FILE_COMMANDS))
    def test_corrupt_input_mid_batch(self, tmp_path, command, keep_going):
        run_batch_with_bad_middle(tmp_path, command, keep_going, b"corrupt\n")

    @pytest.mark.parametrize("keep_going", [True, False], ids=["keep-going", "stop"])
    @pytest.mark.parametrize("command", sorted(PER_FILE_COMMANDS))
    def test_non_utf8_input_mid_batch(self, tmp_path, command, keep_going):
        record = run_batch_with_bad_middle(tmp_path, command, keep_going, NOT_UTF8)
        assert "not UTF-8" in record["error"]

    @pytest.mark.parametrize("command", sorted(PER_FILE_COMMANDS))
    def test_empty_batch_is_an_error(self, tmp_path, command):
        indir = tmp_path / "empty"
        indir.mkdir()
        out = tmp_path / "results"
        assert run([command, indir, "--out", out]) == 1
        record = f"{command.replace('-', '_')}.error.json"
        assert "no input files found" in read_json(out / record)["error"]
        assert [p.name for p in out.iterdir()] == [record]

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        PER_FILE_COMMANDS["fit-resonance"][1](tmp_path / "s11.csv", 1)
        out = tmp_path / "results"
        (out / "s11.fit.json").mkdir(parents=True)  # the report cannot replace it
        assert run(["fit-resonance", tmp_path / "s11.csv", "--out", out]) == 1
        assert read_json(out / "s11.error.json")["error"]
        assert not list(out.glob("*.tmp"))

    @pytest.mark.parametrize("case", sorted(OUTSIDE_INPUT_ERRORS))
    def test_outside_input_errors_are_recorded(self, tmp_path, case):
        argv, name = OUTSIDE_INPUT_ERRORS[case](tmp_path)
        out = tmp_path / "results"
        assert run(argv + ["--out", out]) == 1
        assert read_json(out / f"{name}.error.json")["error"]


class TestParserStrictness:
    def test_unknown_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["synth", "s11", "--frobnicate", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["fit-resonance", "t.csv", "--seed", "1"],
        ["xps-quant", "xps", "--seed", "1"],
        ["synth", "s11", "--keep-going"],
        ["synth", "s11", "--emit-svg"],
        ["xps-quant", "xps", "--keep-going"],
    ], ids=["fit-resonance-seed", "xps-quant-seed", "synth-keep-going", "synth-emit-svg",
            "xps-quant-keep-going"])
    def test_removed_options_rejected(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            run(["transmogrify"])


class TestParserReuse:
    """One parser serves every ``main`` call of a process."""

    def test_parser_built_once_per_process(self, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        sweep = tmp_path / "sweep.csv"
        assert run(["synth", "tempsweep", "--points", "20", "--output", sweep]) == 0
        n_tree = len(built)
        assert built.count("sawkit") == 1
        write_walkoff(tmp_path / "curve.csv", 0)
        assert run(["fit-tempsweep", sweep, "--out", tmp_path]) == 0
        assert run(["walkoff", tmp_path / "curve.csv", "--out", tmp_path]) == 0
        assert len(built) == n_tree

    def test_main_uses_the_built_parser(self, monkeypatch):
        parsed = []
        parser = cli.build_parser()
        parse_args = parser.parse_args
        monkeypatch.setattr(parser, "parse_args",
                            lambda argv: parsed.append(argv) or parse_args(argv))
        with pytest.raises(SystemExit):
            run(["transmogrify"])
        assert parsed == [["transmogrify"]]
        assert cli.build_parser() is parser

    def test_fixed_beta_does_not_carry_over(self, tmp_path):
        csv = tmp_path / "power.csv"
        PER_FILE_COMMANDS["fit-powersweep"][1](csv, 1)
        fixed, free = tmp_path / "fixed", tmp_path / "free"
        assert run(["fit-powersweep", csv, "--fixed-beta", "0.5", "--out", fixed]) == 0
        assert read_json(fixed / "power.power.json")["beta_fixed"] is True
        assert run(["fit-powersweep", csv, "--out", free]) == 0
        assert read_json(free / "power.power.json")["beta_fixed"] is False

    def test_emit_svg_does_not_carry_over(self, tmp_path):
        curve = tmp_path / "curve.csv"
        write_walkoff(curve, 0)
        plotted, plain = tmp_path / "plotted", tmp_path / "plain"
        assert run(["walkoff", curve, "--emit-svg", "--out", plotted]) == 0
        assert (plotted / "curve.walkoff.svg").exists()
        assert run(["walkoff", curve, "--out", plain]) == 0
        assert [p.name for p in plain.iterdir()] == ["curve.walkoff.json"]

    def test_rejected_flag_leaves_the_next_call_working(self, tmp_path):
        curve = tmp_path / "curve.csv"
        write_walkoff(curve, 0)
        with pytest.raises(SystemExit) as exc:
            run(["walkoff", curve, "--frobnicate", "--out", tmp_path])
        assert exc.value.code == 2
        assert run(["walkoff", curve, "--out", tmp_path]) == 0
        assert (tmp_path / "curve.walkoff.json").exists()
