import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sawkit import afm, cli, spectra, tls
from sawkit.cli import main
from sawkit.errors import ParseError, SawkitError
from sawkit.spectra import (
    TemperatureSweepSeries,
    format_powersweep_csv,
    format_tempsweep_csv,
    parse_afm_grid,
    parse_tempsweep_csv,
)
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

    def test_line_ends_do_not_change_the_report(self, tmp_path):
        # the parser reads the file's bytes, and lines end as universal
        # newlines end them: a copy with CR or CRLF ends fits to the bytes
        # the LF file fits to
        trace = self.synth_trace(tmp_path, "m.csv")
        data = trace.read_bytes()
        for end in (b"\r", b"\r\n"):
            copy = tmp_path / end.hex() / "m.csv"
            copy.parent.mkdir()
            copy.write_bytes(data.replace(b"\n", end))
            assert (spectra.parse_s11_csv(copy.read_bytes()).values.tobytes()
                    == spectra.parse_s11_csv(data).values.tobytes())
        for directory in ("lf", "0d", "0d0a"):
            source = trace if directory == "lf" else tmp_path / directory / "m.csv"
            assert run(["fit-resonance", source, "--emit-svg",
                        "--out", tmp_path / "out" / directory]) == 0
        for name in ("m.fit.json", "m.fit.svg"):
            lf = (tmp_path / "out" / "lf" / name).read_bytes()
            assert (tmp_path / "out" / "0d" / name).read_bytes() == lf
            assert (tmp_path / "out" / "0d0a" / name).read_bytes() == lf

    def test_byte_that_is_not_utf8_mid_file_is_recorded(self, tmp_path):
        # the bytes are decoded as the rows are read, so a bad byte far into
        # the file still fails the input, as a recorded ParseError
        trace = self.synth_trace(tmp_path, "m.csv")
        lines = trace.read_bytes().split(b"\n")
        lines[100] = lines[100].replace(b",", b"\xff,", 1)   # row 100
        trace.write_bytes(b"\n".join(lines))
        with pytest.raises(ParseError, match="not UTF-8"):
            spectra.parse_s11_csv(trace.read_bytes())
        assert run(["fit-resonance", trace, "--out", tmp_path / "out"]) == 1
        error = read_json(tmp_path / "out" / "m.error.json")["error"]
        assert error.startswith("line 101: not UTF-8 text: ")
        assert not (tmp_path / "out" / "m.fit.json").exists()

    def refuse_one_value(self, tmp_path, index, real, imag=None):
        """The fit of a trace whose line ``index`` (from 0, the header's) is
        set to ``real`` (and ``imag``) is refused with a record, not reported
        with Infinity."""
        trace = self.synth_trace(tmp_path, "m.csv")
        lines = trace.read_text().split("\n")
        freq, _, im = lines[index].split(",")
        lines[index] = f"{freq},{real},{imag or im}"
        trace.write_text("\n".join(lines))
        assert run(["fit-resonance", trace, "--out", tmp_path / "out"]) == 1
        error = read_json(tmp_path / "out" / "m.error.json")["error"]
        assert error == "sum of squared deviations from the background is not finite"
        assert not (tmp_path / "out" / "m.fit.json").exists()

    def test_value_whose_square_overflows_is_refused(self, tmp_path):
        # one finite value of 1e308 makes the squared deviation infinite: the
        # initial estimate refuses it, with no overflow warning
        self.refuse_one_value(tmp_path, 1000, "1e308")

    def test_edge_value_whose_product_overflows_is_refused(self, tmp_path):
        # 1.7e308 + 1.7e308j among the edge samples the background is taken
        # from overflows its delay-turned product, with no warning either
        self.refuse_one_value(tmp_path, 5, "1.7e308", "1.7e308")

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

    def test_dark_model_without_a_dark_mode_reports_the_lorentzian(self, tmp_path):
        trace = self.synth_trace(tmp_path, "m.csv", noise="0.005")
        assert run(["fit-resonance", trace, "--model", "dark", "--out", tmp_path / "d"]) == 0
        assert run(["fit-resonance", trace, "--out", tmp_path / "l"]) == 0
        dark, lorentz = (read_json(tmp_path / out / "m.fit.json") for out in "dl")
        assert dark["params"]["dark"] is None
        assert dark.pop("n_iterations") > lorentz.pop("n_iterations")
        assert dark == lorentz


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

    def tempsweep_with_errors(self, tmp_path, errors):
        """A 20-point sweep with 10 Hz noise, its f0_err_hz set by ``errors``."""
        csv = tmp_path / "sweep.csv"
        run(["synth", "tempsweep", "--points", "20", "--noise-hz", "10", "--seed", "6",
             "--output", csv])
        series = parse_tempsweep_csv(csv.read_bytes())
        err = errors(series.f0_err_hz.copy())
        csv.write_text(format_tempsweep_csv(TemperatureSweepSeries(
            series.temperatures_k, series.f0_hz, err, series.reference_temperature_k)))
        return csv

    def test_tempsweep_error_whose_reciprocal_overflows_is_recorded(self, tmp_path):
        # one f0_err_hz of 1e-320: 1/err overflows, which escaped as a
        # LinAlgError; with the weights scaled to that point the others
        # carry none, and the fit is refused with a record
        def one_tiny(err):
            err[3] = 1e-320
            return err

        csv = self.tempsweep_with_errors(tmp_path, one_tiny)
        assert run(["fit-tempsweep", csv, "--out", tmp_path]) == 1
        assert "no usable spread" in read_json(tmp_path / "sweep.error.json")["error"]
        assert not (tmp_path / "sweep.tls.json").exists()

    def test_tempsweep_tiny_errors_give_the_report_of_equal_errors(self, tmp_path):
        # every f0_err_hz at 1e-300: the squared weights overflowed and the
        # report read "f_delta_err": NaN; scaled, equal errors weigh equally
        # whatever their size
        csv = self.tempsweep_with_errors(tmp_path, lambda err: np.full_like(err, 1e-300))
        assert run(["fit-tempsweep", csv, "--out", tmp_path / "tiny"]) == 0
        csv = self.tempsweep_with_errors(tmp_path, lambda err: err)
        assert run(["fit-tempsweep", csv, "--out", tmp_path / "ten"]) == 0
        tiny = read_json(tmp_path / "tiny" / "sweep.tls.json")
        assert tiny == pytest.approx(read_json(tmp_path / "ten" / "sweep.tls.json"), rel=1e-9)
        assert np.isfinite(tiny["f_delta_err"]) and tiny["f_delta_err"] > 0

    def test_non_finite_report_value_is_recorded_by_its_key(self, tmp_path, monkeypatch):
        # JSON has no nan: the writer refuses it, naming the key, and the
        # batch records the failure instead of writing "NaN"
        fit_fdelta = tls.fit_fdelta

        def nan_error(series):
            return dataclasses.replace(fit_fdelta(series), f_delta_err=float("nan"))

        monkeypatch.setattr(tls, "fit_fdelta", nan_error)
        csv = self.tempsweep_with_errors(tmp_path, lambda err: err)
        assert run(["fit-tempsweep", csv, "--out", tmp_path]) == 1
        error = read_json(tmp_path / "sweep.error.json")["error"]
        assert error == "report.f_delta_err is not a finite number"
        assert not (tmp_path / "sweep.tls.json").exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_powersweep_roundtrip(self, tmp_path):
        csv = tmp_path / "power.csv"
        run(["synth", "powersweep", "--f-delta", "5.66e-4", "--q-res", "2600",
             "--points", "25", "--noise-frac", "0.02", "--seed", "1",
             "--output", csv])
        assert run(["fit-powersweep", csv, "--out", tmp_path]) == 0
        doc = read_json(tmp_path / "power.power.json")
        assert doc["params"]["f_delta_tls"] == pytest.approx(5.66e-4, rel=0.10)

    def test_powersweep_weight_that_underflows_is_refused(self, tmp_path):
        # qi = 1e-320 on one row: qi**2 / qi_err underflowed to 0, and the
        # fit ran without that point and exited 0 with no word of it
        csv = tmp_path / "power.csv"
        run(["synth", "powersweep", "--noise-frac", "0.01", "--seed", "3", "--points", "41",
             "--output", csv])
        lines = csv.read_text().split("\n")
        n_mean, _, qi_err = lines[7].split(",")
        lines[7] = f"{n_mean},1e-320,{qi_err}"
        csv.write_text("\n".join(lines))
        assert run(["fit-powersweep", csv, "--out", tmp_path]) == 1
        assert read_json(tmp_path / "power.error.json")["error"] == (
            "a weight qi**2/qi_err of the 1/Q data underflows to zero: qi is too small")
        assert not (tmp_path / "power.power.json").exists()

    def test_flat_powersweep_writes_error_record(self, tmp_path):
        csv = tmp_path / "flat.csv"
        csv.write_text(format_powersweep_csv(flat_power_sweep()))
        assert run(["fit-powersweep", csv, "--out", tmp_path]) == 1
        assert "solved to zero" in read_json(tmp_path / "flat.error.json")["error"]
        assert not (tmp_path / "flat.power.json").exists()

    def test_powersweep_plot(self, tmp_path):
        csv = tmp_path / "power.csv"
        PER_FILE_COMMANDS["fit-powersweep"][1](csv, 1)
        assert run(["fit-powersweep", csv, "--out", tmp_path, "--emit-svg"]) == 0
        svg = (tmp_path / "power.power.svg").read_text()
        assert "TLS power saturation" in svg and "log10 mean phonon number" in svg
        assert ">data<" in svg and ">fit<" in svg


class TestXpsQuant:
    def write_line(self, path, line, center, area, rng_seed):
        from sawkit.synth import synth_xps_spectrum
        be = np.linspace(center - 8, center + 8, 201)
        sp = synth_xps_spectrum(be, [(center, 0.6, 0.4, 0.2, area)],
                                element_line=line, step=(20, 60), noise_sigma=0.8,
                                rng_seed=rng_seed)
        path.write_text(f"# line={line}\nbe_ev,counts\n"
                        + "\n".join(f"{b},{c}" for b, c in
                                    zip(sp.binding_energy_ev, sp.counts)) + "\n")

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

    def test_repeated_line_is_error(self, tmp_path):
        # two O1s files must not quietly become one: the report is refused
        indir = tmp_path / "xps"
        indir.mkdir()
        self.write_line(indir / "O1s_a.csv", "O1s", 530.0, 100.0, 1)
        self.write_line(indir / "O1s_b.csv", "O1s", 530.0, 900.0, 3)
        self.write_line(indir / "Nb3d.csv", "Nb3d", 207.3, 5000.0, 2)
        assert run(["xps-quant", indir, "--out", tmp_path]) == 1
        assert not (tmp_path / "xps_quant.json").exists()
        record = read_json(tmp_path / "xps_quant.error.json")
        assert "O1s is given twice" in record["error"]
        assert record["input"] == str(indir / "O1s_b.csv")

    def test_missing_nb_is_error(self, tmp_path):
        indir = tmp_path / "xps"
        indir.mkdir()
        self.write_line(indir / "O1s.csv", "O1s", 530.0, 5000.0, 1)
        assert run(["xps-quant", indir, "--out", tmp_path]) != 0
        assert (tmp_path / "xps_quant.error.json").exists()

    def test_no_charge_shift_quantifies_without_nb(self, tmp_path):
        indir = tmp_path / "xps"
        indir.mkdir()
        self.write_line(indir / "O1s.csv", "O1s", 530.0, 5000.0, 1)
        self.write_line(indir / "C1s.csv", "C1s", 285.0, 2000.0, 2)
        assert run(["xps-quant", indir, "--out", tmp_path / "shifted"]) == 1
        assert run(["xps-quant", indir, "--no-charge-shift", "--out", tmp_path]) == 0
        doc = read_json(tmp_path / "xps_quant.json")
        assert doc["charge_shift_ev"] == 0.0
        assert sorted(doc["atomic_percent"]) == ["C1s", "O1s"]
        assert sum(doc["atomic_percent"].values()) == pytest.approx(100.0)

    @pytest.mark.parametrize("config, key", [
        ({"sensitivty": {"Nb3d": 1.0}}, "sensitivty"),
        ({"bands": {"Nb3d": [{"center_ev": 207.3, "mixx": 0.1}]}}, "mixx"),
        ({"bands": {"Nb3d": [{"center_ev": 207.3, "center_bound": 1.0}]}}, "center_bound"),
    ], ids=["top-level", "band-mix", "band-center-bound"])
    def test_unknown_config_key_is_named(self, tmp_path, config, key):
        argv, name = xps_with_config(json.dumps(config))(tmp_path)
        assert run(argv + ["--out", tmp_path]) == 1
        assert repr(key) in read_json(tmp_path / f"{name}.error.json")["error"]
        assert not (tmp_path / "xps_quant.json").exists()

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

    def test_one_dust_pixel_grid_fits_its_steps(self, tmp_path):
        # a 50 nm pixel lies past the histogram's fences, so the 200 pm
        # steps of the rest of the grid are fitted
        grid = tmp_path / "dust.txt"
        run(["synth", "afm", "--nx", "256", "--ny", "256", "--seed", "0", "--output", grid])
        lines = grid.read_text().split("\n")
        row = lines[101].split()
        row[100] = "5e-08"
        lines[101] = " ".join(row)
        grid.write_text("\n".join(lines))
        assert run(["afm", grid, "--fit-steps", "--out", tmp_path]) == 0
        step = read_json(tmp_path / "dust.afm.json")["steps"]["mean_step_m"]
        assert step == pytest.approx(2e-10, rel=0.05)

    def test_height_whose_square_overflows_is_recorded(self, tmp_path):
        # one pixel of 1e308 m: R_q read Infinity; its square overflows, so
        # the image is refused with a record and no overflow warning
        grid = tmp_path / "big.txt"
        run(["synth", "afm", "--seed", "0", "--output", grid])
        lines = grid.read_text().split("\n")
        row = lines[50].split()
        row[30] = "1e308"
        lines[50] = " ".join(row)
        grid.write_text("\n".join(lines))
        assert run(["afm", grid, "--fit-steps", "--out", tmp_path]) == 1
        assert "R_q is not finite" in read_json(tmp_path / "big.error.json")["error"]
        assert not (tmp_path / "big.afm.json").exists()

    def test_order_sets_the_row_polynomial(self, tmp_path):
        grid = tmp_path / "tilted.txt"
        assert run(["synth", "afm", "--nx", "64", "--ny", "64", "--tilt-x", "1e-11",
                    "--seed", "3", "--output", grid]) == 0
        rq = {}
        for order in (0, 1):
            out = tmp_path / f"order{order}"
            assert run(["afm", grid, "--order", order, "--out", out]) == 0
            doc = read_json(out / "tilted.afm.json")
            assert doc["order"] == order
            rq[order] = doc["r_q_m"]
        image = parse_afm_grid(grid.read_text())
        assert rq[0] == afm.rms_roughness(afm.remove_line_tilt(image, order=0))
        assert rq[0] > rq[1]

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

    def test_summary_counts_only_written_reports(self, tmp_path):
        # the single-terrace image fails its step fit after R_q is known
        indir = tmp_path / "grids"
        indir.mkdir()
        for name, terraces in (("a", 3), ("b", 1), ("c", 3)):
            run(["synth", "afm", "--nx", "160", "--ny", "160", "--seed", "5",
                 "--terraces", terraces, "--output", indir / f"{name}.txt"])
        assert run(["afm", indir, "--fit-steps", "--keep-going", "--out", tmp_path]) == 1
        assert (tmp_path / "b.error.json").exists()
        rq = [read_json(tmp_path / f"{name}.afm.json")["r_q_m"] for name in "ac"]
        summary = read_json(tmp_path / "afm_summary.json")
        assert summary["n_images"] == 2
        assert summary["r_q_mean_m"] == pytest.approx(np.mean(rq), rel=1e-12)

    def test_failed_summary_write_is_recorded(self, tmp_path):
        indir = tmp_path / "grids"
        indir.mkdir()
        for i in range(2):
            PER_FILE_COMMANDS["afm"][1](indir / f"g{i}.txt", i)
        out = tmp_path / "results"
        (out / "afm_summary.json").mkdir(parents=True)  # the summary cannot replace it
        assert run(["afm", indir, "--out", out]) == 1
        assert (out / "g0.afm.json").exists() and (out / "g1.afm.json").exists()
        record = read_json(out / "afm.error.json")
        assert record["error"] and "input" not in record
        assert not list(out.glob("*.tmp"))

    def test_grid_text_is_released_before_the_analysis(self, tmp_path):
        # the bytes live only through their read and parse, which decodes
        # them as it loads the rows, and the flattened copy only through the
        # roughness, so the traced peak of a --fit-steps run reads 1.74 times
        # the file size, under 1.85; a read that built the text beside the
        # bytes reads 2.0, an analysis that kept the flattened copy through
        # the fit and counted the histogram with np.histogram's per-pixel
        # arrays 2.17, one that kept the text about 3.2
        grid = tmp_path / "g.txt"
        assert run(["synth", "afm", "--nx", "256", "--ny", "256", "--seed", "0",
                    "--output", grid]) == 0
        argv = ["afm", grid, "--fit-steps", "--out", tmp_path]
        assert run(argv) == 0  # the first call builds what later calls reuse
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.85 * grid.stat().st_size

    def test_level_points_level_the_image_the_steps_are_fitted_on(self, tmp_path):
        # the three points lie on the first terrace of a tilted image
        grid = tmp_path / "tilted.txt"
        assert run(["synth", "afm", "--nx", "96", "--ny", "96", "--tilt-x", "1e-11",
                    "--tilt-y", "5e-12", "--seed", "4", "--output", grid]) == 0
        assert run(["afm", grid, "--fit-steps", "--level-points", "5,5 5,90 20,50",
                    "--out", tmp_path]) == 0
        doc = read_json(tmp_path / "tilted.afm.json")
        assert doc["leveled"] is True
        leveled = afm.three_point_level(parse_afm_grid(grid.read_text()),
                                        (5, 5), (5, 90), (20, 50))
        assert doc["steps"] == json.loads(json.dumps(afm.fit_step_heights(leveled).to_json_dict()))
        assert doc["steps"]["mean_step_m"] == pytest.approx(2e-10, rel=0.1)


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

    def test_negative_half_width_is_recorded(self, tmp_path):
        csv = tmp_path / "curve.csv"
        write_walkoff(csv, 0)
        assert run(["walkoff", csv, "--half-width", "-2", "--out", tmp_path]) == 1
        assert "--half-width" in read_json(tmp_path / "curve.error.json")["error"]
        assert not (tmp_path / "curve.walkoff.json").exists()


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

#: per-file command -> the spectra parser that reads its input
PARSERS = {"fit-resonance": "parse_s11_csv", "fit-tempsweep": "parse_tempsweep_csv",
           "fit-powersweep": "parse_powersweep_csv", "afm": "parse_afm_grid",
           "walkoff": "parse_walkoff_csv"}


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


def sweep_with_metadata(kind, key, value="abc"):
    """A sweep whose ``# key=`` metadata line reads ``value``, by default not a number."""
    def build(tmp_path):
        sweep = tmp_path / "s.csv"
        run(["synth", kind, "--points", "20", "--output", sweep])
        lines = [f"# {key}={value}" if line.startswith(f"# {key}=") else line
                 for line in sweep.read_text().splitlines()]
        sweep.write_text("\n".join(lines) + "\n")
        return [f"fit-{kind}", sweep, "--keep-going"], "s"
    return build


def afm_with_header(header):
    """A grid whose header line is replaced by ``header``."""
    def build(tmp_path):
        grid = tmp_path / "g.txt"
        PER_FILE_COMMANDS["afm"][1](grid, 0)
        grid.write_text("\n".join([header, *grid.read_text().splitlines()[1:]]) + "\n")
        return ["afm", grid], "g"
    return build


def with_nan_field(command, write_good, name):
    """``command`` on an input whose third data row starts with ``nan``."""
    def build(tmp_path):
        path = tmp_path / "nan.csv"
        write_good(path)
        lines = path.read_text().splitlines()
        row = [line.startswith("#") for line in lines].index(False) + 3
        lines[row] = "nan" + lines[row][lines[row].index(","):]
        path.write_text("\n".join(lines) + "\n")
        return [command, path], name
    return build


def afm_spike(tmp_path):
    """A flat 16 x 16 grid with one pixel 1 um up: the histogram's fences
    close on the flat level, so one bin holds the 255 flat pixels."""
    rows = [["0"] * 16 for _ in range(16)]
    rows[5][7] = "1e-6"
    grid = tmp_path / "spike.txt"
    grid.write_text("16 16 1e-8 1e-8\n" + "\n".join(" ".join(row) for row in rows) + "\n")
    return ["afm", grid, "--fit-steps"], "spike"


def synth_with_flags(kind, *flags):
    def build(tmp_path):
        return ["synth", kind, *flags], "synth"
    return build


#: malformed flag, config, metadata or row -> builder of (argv, error record stem)
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
    "config-misspelled-key": xps_with_config(json.dumps({"sensitivty": {"Nb3d": 1.0}})),
    "config-misspelled-band-key": xps_with_config(
        json.dumps({"bands": {"Nb3d": [{"center_ev": 207.3, "mixx": 0.1}]}})),
    "non-numeric-reference-temperature": sweep_with_metadata(
        "tempsweep", "reference_temperature_K"),
    "non-numeric-f0": sweep_with_metadata("powersweep", "f0_hz"),
    "non-numeric-temperature": sweep_with_metadata("powersweep", "temperature_K"),
    "xps-nan-energy": with_nan_field(
        "xps-quant", lambda path: TestXpsQuant().write_line(path, "O1s", 530.0, 5000.0, 1),
        "xps_quant"),
    "powersweep-nan-phonon-number": with_nan_field(
        "fit-powersweep", lambda path: PER_FILE_COMMANDS["fit-powersweep"][1](path, 1), "nan"),
    "synth-negative-qi": synth_with_flags("s11", "--qi", "-5"),
    "synth-too-few-s11-points": synth_with_flags("s11", "--points", "3"),
    "synth-afm-too-narrow": synth_with_flags("afm", "--nx", "4"),
    "synth-beta-out-of-range": synth_with_flags("powersweep", "--beta", "5"),
    "synth-too-few-temperatures": synth_with_flags("tempsweep", "--points", "2"),
    "synth-negative-s11-points": synth_with_flags("s11", "--points", "-1"),
    "synth-zero-qi": synth_with_flags("s11", "--qi", "0"),
    "synth-zero-qe": synth_with_flags("s11", "--qe", "0"),
    "synth-negative-tempsweep-points": synth_with_flags("tempsweep", "--points", "-1"),
    "synth-negative-powersweep-points": synth_with_flags("powersweep", "--points", "-1"),
    "synth-zero-n-min": synth_with_flags("powersweep", "--n-min", "0"),
    "synth-negative-n-min": synth_with_flags("powersweep", "--n-min", "-3"),
    "synth-afm-negative-width": synth_with_flags("afm", "--nx", "-20"),
    "synth-afm-no-terraces": synth_with_flags("afm", "--terraces", "0"),
    "synth-afm-negative-terraces": synth_with_flags("afm", "--terraces", "-1"),
    "synth-afm-negative-noise": synth_with_flags("afm", "--noise-m", "-1"),
    "synth-afm-more-terraces-than-columns": synth_with_flags(
        "afm", "--terraces", "500", "--nx", "64"),
    "synth-afm-terrace-narrower-than-a-column": synth_with_flags(
        "afm", "--terraces", "20", "--nx", "64", "--ny", "16"),
    "afm-single-spike": afm_spike,
}


#: metadata or header value a container refuses -> (builder of (argv, error
#: record stem), the value's line in the fixture ``sawkit synth`` writes)
REFUSED_METADATA = {
    "non-numeric-f0": (sweep_with_metadata("powersweep", "f0_hz"), 1),
    "negative-f0": (sweep_with_metadata("powersweep", "f0_hz", "-6.9e8"), 1),
    "nan-temperature": (sweep_with_metadata("powersweep", "temperature_K", "nan"), 2),
    "reference-temperature-above-1K": (
        sweep_with_metadata("tempsweep", "reference_temperature_K", "2"), 1),
    "afm-negative-pitch": (afm_with_header("64 64 -1e-09 1e-09"), 1),
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

    @pytest.mark.parametrize("command", sorted(PER_FILE_COMMANDS))
    def test_shared_stem_is_refused_before_any_analysis(self, tmp_path, command):
        # a/sweep.csv and b/sweep.txt would both write sweep.<suffix>.json
        write_good = PER_FILE_COMMANDS[command][1]
        first, second = tmp_path / "a" / "sweep.csv", tmp_path / "b" / "sweep.txt"
        for seed, path in enumerate((first, second)):
            path.parent.mkdir()
            write_good(path, seed)
        out = tmp_path / "results"
        assert run([command, first, second, "--out", out, "--keep-going"]) == 1
        record = f"{command.replace('-', '_')}.error.json"
        assert [p.name for p in out.iterdir()] == [record]
        error = read_json(out / record)
        assert str(first) in error["error"] and str(second) in error["error"]
        assert error["input"] == str(second)

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        PER_FILE_COMMANDS["fit-resonance"][1](tmp_path / "s11.csv", 1)
        out = tmp_path / "results"
        (out / "s11.fit.json").mkdir(parents=True)  # the report cannot replace it
        assert run(["fit-resonance", tmp_path / "s11.csv", "--out", out]) == 1
        assert read_json(out / "s11.error.json")["error"]
        assert not list(out.glob("*.tmp"))

    def test_unwritable_error_record_is_reported(self, tmp_path, capsys):
        PER_FILE_COMMANDS["fit-resonance"][1](tmp_path / "s11.csv", 1)
        not_a_dir = tmp_path / "not_a_dir"
        not_a_dir.write_text("a file\n")
        assert run(["fit-resonance", tmp_path / "s11.csv", "--out", not_a_dir]) == 1
        err = capsys.readouterr().err
        assert "s11.csv" in err and "no error record written" in err
        assert not_a_dir.read_text() == "a file\n"

    @pytest.mark.parametrize("command", sorted(PER_FILE_COMMANDS))
    def test_parser_is_looked_up_at_call_time(self, tmp_path, monkeypatch, command):
        # a parser bound when the argument parser is built would miss a
        # wrapper set on the spectra module, as a tracing harness sets it
        PER_FILE_COMMANDS[command][1](tmp_path / "in.csv", 1)
        name, calls = PARSERS[command], []
        parse = getattr(spectra, name)
        monkeypatch.setattr(spectra, name, lambda data: calls.append(data) or parse(data))
        assert run([command, tmp_path / "in.csv", "--out", tmp_path]) == 0
        assert calls == [(tmp_path / "in.csv").read_bytes()]

    @pytest.mark.parametrize("case", sorted(OUTSIDE_INPUT_ERRORS))
    def test_outside_input_errors_are_recorded(self, tmp_path, case):
        argv, name = OUTSIDE_INPUT_ERRORS[case](tmp_path)
        out = tmp_path / "results"
        assert run(argv + ["--out", out]) == 1
        assert read_json(out / f"{name}.error.json")["error"]

    def test_nan_row_is_recorded_with_its_line(self, tmp_path):
        # two comment lines and the header, then the third data row
        argv, name = OUTSIDE_INPUT_ERRORS["powersweep-nan-phonon-number"](tmp_path)
        out = tmp_path / "results"
        assert run(argv + ["--out", out]) == 1
        assert read_json(out / f"{name}.error.json")["error"].startswith("line 6: ")

    @pytest.mark.parametrize("case", sorted(REFUSED_METADATA))
    def test_refused_metadata_is_recorded_with_its_line(self, tmp_path, case):
        build, line = REFUSED_METADATA[case]
        argv, name = build(tmp_path)
        out = tmp_path / "results"
        assert run(argv + ["--out", out]) == 1
        assert read_json(out / f"{name}.error.json")["error"].startswith(f"line {line}: ")


def key_paths(doc, path=""):
    """The dotted path of every key in a JSON document; list items share ``[]``."""
    if isinstance(doc, list):
        return set().union(*(key_paths(item, path + "[]") for item in doc))
    if isinstance(doc, dict):
        paths = set()
        for key, value in doc.items():
            sub = f"{path}.{key}" if path else key
            paths |= {sub} | key_paths(value, sub)
        return paths
    return set()


def report_of(command, write_input, *flags):
    """``command`` on the input ``write_input(path)`` writes, and the report it wrote."""
    def build(tmp_path):
        path = tmp_path / "in.csv"
        write_input(path)
        assert run([command, path, *flags, "--out", tmp_path]) == 0
        return read_json(tmp_path / f"in.{PER_FILE_COMMANDS[command][0]}.json")
    return build


def xps_report(tmp_path):
    indir = tmp_path / "xps"
    indir.mkdir()
    TestXpsQuant().write_line(indir / "O1s.csv", "O1s", 530.0, 5000.0, 1)
    TestXpsQuant().write_line(indir / "Nb3d.csv", "Nb3d", 207.3, 5000.0, 2)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bands": {"O1s": [{"center_ev": 529.5}, {"center_ev": 531.0}]}}))
    assert run(["xps-quant", indir, "--config", cfg, "--out", tmp_path]) == 0
    return read_json(tmp_path / "xps_quant.json")


RESONANCE_KEYS = """
    params params.f0_hz params.kappa_hz params.kappa_e_hz params.a_re params.a_im
    params.tau_s params.f_ref_hz params.dark param_errors param_errors.f0_hz param_errors.kappa_hz
    param_errors.kappa_e_hz param_errors.a_re param_errors.a_im param_errors.tau_s
    qi qe residual_rms n_iterations
"""
DARK_KEYS = """
    params.dark.f_dark_hz params.dark.gamma_hz params.dark.g_hz
    param_errors.f_dark_hz param_errors.gamma_hz param_errors.g_hz
"""

#: report -> (builder of the written report, its key paths)
REPORT_SCHEMAS = {
    "fit-resonance-lorentzian": (
        report_of("fit-resonance", lambda path: PER_FILE_COMMANDS["fit-resonance"][1](path, 1)),
        RESONANCE_KEYS),
    "fit-resonance-dark": (
        report_of("fit-resonance", lambda path: run(
            ["synth", "s11", "--f0-hz", "679.564e6", "--points", "3001", "--noise", "0.004",
             "--seed", "2", "--dark-delta-hz", "75e3", "--output", path]), "--model", "dark"),
        RESONANCE_KEYS + DARK_KEYS),
    "fit-tempsweep": (
        report_of("fit-tempsweep", lambda path: PER_FILE_COMMANDS["fit-tempsweep"][1](path, 1)),
        "f_delta_tls f_delta_err f0_hz reference_temperature_K residual_rms non_positive"),
    "fit-powersweep": (
        report_of("fit-powersweep", lambda path: PER_FILE_COMMANDS["fit-powersweep"][1](path, 1)),
        """params params.f_delta_tls params.n_c params.beta params.q_i_res
           params.temperature_K params.f0_hz param_errors param_errors.f_delta_tls
           param_errors.n_c param_errors.beta param_errors.q_i_res
           beta_fixed beta_unidentifiable residual_rms n_iterations"""),
    "xps-quant-with-bands": (
        xps_report,
        """atomic_percent atomic_percent.O1s atomic_percent.Nb3d ratios_to_nb
           ratios_to_nb.O/Nb areas areas.O1s areas.Nb3d charge_shift_ev band_areas
           band_areas.O1s band_fits band_fits.O1s band_fits.O1s.bands
           band_fits.O1s.bands[].center_ev band_fits.O1s.bands[].sigma_ev
           band_fits.O1s.bands[].gamma_ev band_fits.O1s.bands[].mix
           band_fits.O1s.bands[].area band_fits.O1s.area_errors
           band_fits.O1s.degenerate band_fits.O1s.residual_rms
           band_fits.O1s.n_iterations"""),
    "afm-fit-steps": (
        report_of("afm", lambda path: run(
            ["synth", "afm", "--nx", "160", "--ny", "160", "--seed", "5", "--output", path]),
            "--fit-steps"),
        """r_q_m order steps steps.centers_m steps.sigma_m steps.amplitudes
           steps.step_heights_m steps.mean_step_m steps.mean_step_err_m
           steps.unequal_delta_chi2 steps.equal_steps"""),
    "walkoff": (
        report_of("walkoff", lambda path: write_walkoff(path, 0)),
        "zeros zeros[].theta_deg zeros[].slope_deg_per_deg zeros[].uncertainty_deg "
        "tangencies half_width"),
}


class TestReportSchema:
    """Every report ``sawkit`` writes keeps its nested key set."""

    @pytest.mark.parametrize("case", sorted(REPORT_SCHEMAS))
    def test_report_keys(self, tmp_path, case):
        build, keys = REPORT_SCHEMAS[case]
        assert key_paths(build(tmp_path)) == set(keys.split())


class TestCanonicalJson:
    def test_first_non_finite_number_is_named_by_its_key_path(self):
        # JSON has no nan or infinity; the first one in written order is named
        doc = {"zeros": [{"theta_deg": 1.0}, {"theta_deg": float("inf")}], "zz": float("nan")}
        with pytest.raises(SawkitError, match=r"^report\.a\.zeros\[1\]\.theta_deg is not"):
            cli._canonical_json({"a": doc, "b": float("nan")})


class TestNoMaskedArrays:
    def test_no_command_imports_numpy_ma(self, tmp_path):
        # np.median, np.unique and the linear np.percentile import numpy.ma,
        # which no analysis uses; a fresh interpreter runs every analysis and
        # reports, after each, whether numpy.ma was loaded
        write = {name: writer for name, (_, writer) in PER_FILE_COMMANDS.items()}
        for name in ("fit-resonance", "fit-tempsweep", "fit-powersweep", "walkoff"):
            write[name](tmp_path / f"{name}.csv", 1)
        run(["synth", "s11", "--f0-hz", "679.564e6", "--points", "3001", "--noise", "0.004",
             "--seed", "2", "--dark-delta-hz", "75e3", "--output", tmp_path / "dark.csv"])
        run(["synth", "afm", "--nx", "160", "--ny", "160", "--seed", "5",
             "--output", tmp_path / "grid.txt"])
        (tmp_path / "xps").mkdir()
        TestXpsQuant().write_line(tmp_path / "xps" / "O1s.csv", "O1s", 530.0, 5000.0, 1)
        TestXpsQuant().write_line(tmp_path / "xps" / "Nb3d.csv", "Nb3d", 207.3, 5000.0, 2)
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"bands": {"O1s": [{"center_ev": 529.5}, {"center_ev": 531.0}]}}))
        commands = [
            ["fit-resonance", "fit-resonance.csv"],
            ["fit-resonance", "dark.csv", "--model", "dark"],
            ["fit-tempsweep", "fit-tempsweep.csv"],
            ["fit-powersweep", "fit-powersweep.csv"],
            ["xps-quant", "xps", "--config", "cfg.json"],
            ["afm", "grid.txt", "--fit-steps"],
            ["afm", "grid.txt", "--level-points", "5,5 5,150 20,80"],
            ["walkoff", "walkoff.csv", "--half-width", "3"],
        ]
        argvs = [[*argv, "--emit-svg", "--out", "out"] for argv in commands]
        script = ("import json, sys\nfrom sawkit.cli import main\n"
                  "print(json.dumps([[main(argv), 'numpy.ma' in sys.modules]"
                  " for argv in json.loads(sys.argv[1])]))")
        src = str(Path(spectra.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], cwd=tmp_path,
                              env=env, capture_output=True, text=True, check=True)
        results = json.loads(done.stdout)
        assert [code for code, _ in results] == [0] * len(commands)
        assert [" ".join(argv) for argv, (_, ma) in zip(commands, results) if ma] == []


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

    @pytest.mark.parametrize("argv", [
        ["synth", "afm", "--qi", "5"],
        ["synth", "tempsweep", "--nx", "4"],
        ["synth", "s11", "--noise-m", "1"],
        ["synth", "powersweep", "--t-ref-k", "0.1"],
        ["synth", "--seed", "3", "s11"],
        ["synth", "afm", "--noise", "0.5"],
        ["afm", "x", "--fit"],
        ["fit-resonance", "x", "--mod", "dark"],
    ], ids=["synth-afm-qi", "synth-tempsweep-nx", "synth-s11-noise-m",
            "synth-powersweep-t-ref-k", "synth-seed-before-kind", "abbreviated-noise-m",
            "abbreviated-fit-steps", "abbreviated-model"])
    def test_unread_or_abbreviated_flag_rejected(self, argv, tmp_path, monkeypatch):
        # a synth kind takes only the flags it reads, after the kind, and no
        # flag is taken by a prefix of its name
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

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
