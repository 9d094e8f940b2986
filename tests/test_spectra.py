import io
import tracemalloc
import warnings

import numpy as np
import pytest

from sawkit.errors import ParseError, ValidationError
from sawkit.spectra import (
    AfmImage,
    ComplexSpectrum,
    PowerSweepSeries,
    TemperatureSweepSeries,
    WalkoffCurve,
    XpsSpectrum,
    _read_csv,
    format_afm_grid,
    format_powersweep_csv,
    format_s11_csv,
    format_tempsweep_csv,
    parse_afm_grid,
    parse_powersweep_csv,
    parse_s11_csv,
    parse_tempsweep_csv,
    parse_walkoff_csv,
    parse_xps_csv,
)
from sawkit.synth import synth_s11, synth_temperature_sweep, synth_terrace_image
from conftest import rates_from_qs, resonance_grid


def make_s11_text(n=8, meta=()):
    lines = list(meta) + ["freq_hz,re,im"]
    for i in range(n):
        lines.append(f"{1e6 + i},0.5,-0.1")
    return "\n".join(lines) + "\n"


def make_xps_lines():
    return ["# line=O1s", "be_ev,counts"] + [f"{520 + i},1" for i in range(8)]


class TestTypes:
    def test_complex_spectrum_basic(self):
        sp = ComplexSpectrum(np.arange(8) + 1.0, np.ones(8, complex))
        assert sp.frequencies_hz.size == 8
        assert not sp.values.flags.writeable

    def test_complex_spectrum_rejects_short(self):
        with pytest.raises(ValidationError):
            ComplexSpectrum(np.arange(7) + 1.0, np.ones(7, complex))

    def test_complex_spectrum_rejects_non_monotone(self):
        f = np.arange(8) + 1.0
        f[4] = f[3]
        with pytest.raises(ValidationError):
            ComplexSpectrum(f, np.ones(8, complex))

    def test_complex_spectrum_rejects_non_finite(self):
        v = np.ones(8, complex)
        v[2] = np.nan + 0j
        with pytest.raises(ValidationError):
            ComplexSpectrum(np.arange(8) + 1.0, v)

    def test_tempsweep_needs_four_distinct(self):
        t = np.array([0.01, 0.01, 0.05, 0.05])
        with pytest.raises(ValidationError):
            TemperatureSweepSeries(t, np.full(4, 6.9e8), np.zeros(4))

    def test_tempsweep_domain_bound(self):
        t = np.array([0.01, 0.05, 0.1, 1.5])
        with pytest.raises(ValidationError):
            TemperatureSweepSeries(t, np.full(4, 6.9e8), np.zeros(4))

    def test_powersweep_needs_three_decades(self):
        n = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        with pytest.raises(ValidationError):
            PowerSweepSeries(n, np.full(5, 1e3), np.zeros(5), 0.01, 6.9e8)

    def test_xps_monotone_either_direction(self):
        be = np.linspace(540, 520, 21)
        sp = XpsSpectrum(be, np.ones(21), "O1s")
        asc = sp.ascending()
        assert asc.binding_energy_ev[0] < asc.binding_energy_ev[-1]
        assert np.array_equal(np.sort(sp.counts), np.sort(asc.counts))

    def test_xps_rejects_negative_counts(self):
        with pytest.raises(ValidationError):
            XpsSpectrum(np.linspace(0, 1, 5), np.array([1, -1, 1, 1, 1.0]), "O1s")

    def test_afm_min_size(self):
        with pytest.raises(ValidationError):
            AfmImage(np.zeros((8, 32)), (1e-9, 1e-9))

    def test_walkoff_span(self):
        with pytest.raises(ValidationError):
            WalkoffCurve(np.linspace(0, 45, 20), np.zeros(20))


class TestParsers:
    def test_minimal_s11(self):
        sp = parse_s11_csv(make_s11_text())
        assert sp.frequencies_hz.size == 8
        assert sp.meta == {}

    def test_s11_metadata_passthrough(self):
        sp = parse_s11_csv(make_s11_text(meta=["# temperature_mK=10"]))
        assert sp.meta["temperature_mK"] == "10"

    def test_s11_duplicate_frequency_names_line(self):
        lines = ["freq_hz,re,im"] + [f"{1e6 + i},1,0" for i in range(8)]
        lines[4] = lines[3]  # duplicate frequency on line 5
        with pytest.raises(ParseError) as err:
            parse_s11_csv("\n".join(lines))
        assert err.value.line == 5

    def test_s11_malformed_row_names_line(self):
        text = make_s11_text() + "1e7,abc,0\n"
        with pytest.raises(ParseError) as err:
            parse_s11_csv(text)
        assert err.value.line == 10

    def test_s11_too_short(self):
        with pytest.raises(ParseError):
            parse_s11_csv(make_s11_text(n=5))

    def test_xps_parse(self):
        lines = ["# line=O1s", "be_ev,counts"] + [f"{520 + i},{10 + i}" for i in range(32)]
        sp = parse_xps_csv("\n".join(lines))
        assert sp.element_line == "O1s"
        assert sp.counts.size == 32

    def test_xps_missing_line_header(self):
        lines = ["be_ev,counts"] + [f"{520 + i},1" for i in range(8)]
        with pytest.raises(ParseError):
            parse_xps_csv("\n".join(lines))

    def test_xps_nan_count_is_parse_error(self):
        lines = make_xps_lines()
        lines[5] = "523,nan"
        with pytest.raises(ParseError):
            parse_xps_csv("\n".join(lines))

    def test_xps_negative_counts_names_line(self):
        lines = make_xps_lines()
        lines[6] = "524,-3"  # line 7
        with pytest.raises(ParseError) as err:
            parse_xps_csv("\n".join(lines))
        assert err.value.line == 7

    def test_xps_non_monotone_axis_names_line(self):
        lines = make_xps_lines()
        lines[6] = "521.5,1"  # line 7 steps back below line 6
        with pytest.raises(ParseError) as err:
            parse_xps_csv("\n".join(lines))
        assert err.value.line == 7

    def test_sweep_wrong_field_count_names_line(self):
        lines = ["temperature_K,f0_hz,f0_err_hz"] + [
            f"{0.01 * (i + 1)},6.9e8,10" for i in range(6)]
        lines[4] = "0.04,6.9e8"  # line 5
        with pytest.raises(ParseError) as err:
            parse_tempsweep_csv("\n".join(lines))
        assert err.value.line == 5

    def test_afm_constant_grid(self):
        rows = ["16 16 1e-09 1e-09"] + [" ".join(["0"] * 16)] * 16
        img = parse_afm_grid("\n".join(rows))
        assert img.nx == img.ny == 16
        assert np.all(img.heights_m == 0)

    def test_afm_row_count_mismatch(self):
        rows = ["16 16 1e-09 1e-09"] + [" ".join(["0"] * 16)] * 15
        with pytest.raises(ParseError) as err:
            parse_afm_grid("\n".join(rows))
        assert "15" in str(err.value)

    def test_afm_row_length_mismatch(self):
        rows = ["16 16 1e-09 1e-09"] + [" ".join(["0"] * 16)] * 16
        rows[7] = " ".join(["0"] * 15)
        with pytest.raises(ParseError) as err:
            parse_afm_grid("\n".join(rows))
        assert err.value.line == 8

    def test_afm_negative_width_is_parse_error(self):
        rows = ["-16 16 1e-09 1e-09"] + [" ".join(["0"] * 16)] * 16
        with pytest.raises(ParseError) as err:
            parse_afm_grid("\n".join(rows))
        assert err.value.line == 1



S11_ROWS = [
    ("1e6", "0.5", "-0.1"),
    ("1000001", "0.25", "0"),
    ("1000002", "-1.5", "2e-3"),
    ("1.000003e6", "1", "-0"),
    ("1000004", ".75", "3.5"),
    ("1000005", "-2E-1", "1e+0"),
    ("1000006", "0.125", "-0.0625"),
    ("1000007", "7", "-7"),
]
S11_EXPECTED = np.array([
    [1e6, 0.5, -0.1], [1000001.0, 0.25, 0.0], [1000002.0, -1.5, 0.002],
    [1000003.0, 1.0, -0.0], [1000004.0, 0.75, 3.5], [1000005.0, -0.2, 1.0],
    [1000006.0, 0.125, -0.0625], [1000007.0, 7.0, -7.0]])


def assert_s11_expected(sp):
    assert sp.frequencies_hz.tobytes() == S11_EXPECTED[:, 0].tobytes()
    assert sp.values.real.tobytes() == S11_EXPECTED[:, 1].tobytes()
    assert sp.values.imag.tobytes() == S11_EXPECTED[:, 2].tobytes()


class TestParsePaths:
    """Layouts the one-call table read takes, and faults it names by line."""

    def test_comment_line_between_rows(self):
        rows = [",".join(r) for r in S11_ROWS]
        # metadata is read before the header only: after it, "# b = 2" is a comment
        text = "\n".join(["# a=1", "freq_hz,re,im", *rows[:3], "# b = 2",
                          "#no key", *rows[3:]]) + "\n"
        sp = parse_s11_csv(text)
        assert sp.meta == {"a": "1"}
        assert_s11_expected(sp)

    def test_blank_lines(self):
        rows = [",".join(r) for r in S11_ROWS]
        text = "\n\nfreq_hz,re,im\n\n" + "\n  \n".join(rows) + "\n\t\n\n"
        assert_s11_expected(parse_s11_csv(text))

    def test_crlf_line_endings(self):
        rows = [",".join(r) for r in S11_ROWS]
        text = "\r\n".join(["# a=1", "freq_hz,re,im", *rows, ""]) + "\r\n"
        sp = parse_s11_csv(text)
        assert sp.meta == {"a": "1"}
        assert_s11_expected(sp)

    def test_spaces_around_fields(self):
        rows = [f" {f} ,\t{r}  , {i}\t" for f, r, i in S11_ROWS]
        text = "\n".join([" freq_hz , re,im", *rows]) + "\n"
        assert_s11_expected(parse_s11_csv(text))

    def test_afm_comments_and_blank_lines(self):
        rows = [" ".join(f"{0.25 * (i - j)}" for i in range(16)) for j in range(16)]
        expected = 0.25 * (np.arange(16)[None, :] - np.arange(16)[:, None])
        for end in ("\r\n", "\r"):
            text = end.join(["# scan 1", "16 16 1e-09 2e-09", "", *rows[:8],
                             "# mid", "  ", *rows[8:]])
            img = parse_afm_grid(text)
            assert np.array_equal(img.heights_m, expected)
            assert img.pixel_pitch_m == (1e-9, 2e-9)

    def test_afm_mixed_line_ends_are_universal_newlines(self):
        lines = ["16 16 1e-09 1e-09"] + [" ".join(["0"] * 16)] * 16
        lines[9] = " ".join(["0"] * 15)   # line 10
        ends = ["\n", "\r\n", "\r"]
        for source in (str, str.encode):
            text = "".join(line + ends[i % 3] for i, line in enumerate(lines))
            with pytest.raises(ParseError) as err:
                parse_afm_grid(source(text))
            assert err.value.line == 10
            good = lines[:9] + lines[8:9] + lines[10:]
            text = "".join(line + ends[i % 3] for i, line in enumerate(good))
            assert np.all(parse_afm_grid(source(text)).heights_m == 0)
            # a form feed ends no line: the row that holds one is named
            fed = good[:12] + [good[12] + "\f" + good[13]] + good[14:]
            text = "".join(line + ends[i % 3] for i, line in enumerate(fed))
            with pytest.raises(ParseError, match="expected 16 fields, got 32") as err:
                parse_afm_grid(source(text))
            assert err.value.line == 13

    @pytest.mark.parametrize("tail", ["", "\n", "\n# note\n\n  \n"])
    def test_afm_header_without_rows_warns_nothing(self, tail):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match="header claims 16 rows but 0 present") as err:
                parse_afm_grid("16 16 1e-9 1e-9" + tail)
        assert err.value.line == 1

    def test_afm_read_holds_no_list_of_lines(self):
        # the rows stream into the loader: beyond the bytes, the read holds
        # the heights and the loader's buffers, not the decoded text
        data = format_afm_grid(synth_terrace_image((256, 256), rng_seed=0)).encode()
        tracemalloc.start()
        try:
            parse_afm_grid(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.0 * len(data)

    def test_s11_read_of_bytes_holds_no_text(self):
        # the bytes are decoded as the rows stream into the loader: beyond
        # the bytes, the read holds the columns and the loader's buffers
        # (1.23 times the bytes), neither the decoded text nor lists of its
        # lines (a read that split the text into two lists read 2.65)
        kappa, kappa_e = rates_from_qs(6.9e8, 6.8e3, 1.4e4)
        grid = resonance_grid(6.9e8, 6.8e3, 1.4e4, points=6001)
        sp = synth_s11(6.9e8, kappa, kappa_e, grid, noise_sigma=0.004, rng_seed=1)
        data = format_s11_csv(sp).encode()
        parse_s11_csv(data)  # the first call also builds what later calls reuse
        tracemalloc.start()
        try:
            back = parse_s11_csv(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.values.tobytes() == sp.values.tobytes()
        assert peak < 1.5 * len(data)

    def test_s11_read_of_str_takes_the_bytes_path(self):
        # a str is encoded to UTF-8 and read as bytes are: beyond the text,
        # the read holds its bytes and what a read of them holds (2.2 times
        # the text); a StringIO, four bytes a character, peaked at 5.2
        kappa, kappa_e = rates_from_qs(6.9e8, 6.8e3, 1.4e4)
        grid = resonance_grid(6.9e8, 6.8e3, 1.4e4, points=6001)
        sp = synth_s11(6.9e8, kappa, kappa_e, grid, noise_sigma=0.004, rng_seed=1)
        text = format_s11_csv(sp)
        parse_s11_csv(text)  # the first call also builds what later calls reuse
        tracemalloc.start()
        try:
            back = parse_s11_csv(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.values.tobytes() == sp.values.tobytes()
        assert peak < 2.5 * len(text)

    @pytest.mark.parametrize("end", [b"\n", b"\r", b"\r\n"])
    def test_byte_that_is_not_utf8_names_its_line(self, end):
        # the decoder reads in chunks; the error names the line, as every
        # other ParseError does, not a position in the chunk
        lines = make_s11_text(n=2000).encode().split(b"\n")
        lines[1000] = b"\xff" + lines[1000]   # line 1001
        with pytest.raises(ParseError, match="not UTF-8 text") as err:
            parse_s11_csv(end.join(lines))
        assert err.value.line == 1001

    def test_str_that_is_not_unicode_names_its_line(self):
        lines = make_s11_text().split("\n")
        lines[3] = "\ud800" + lines[3]   # a lone surrogate on line 4
        with pytest.raises(ParseError, match="not UTF-8 text") as err:
            parse_s11_csv("\n".join(lines))
        assert err.value.line == 4

    def test_one_call_read_matches_row_loop(self, rng):
        values = rng.standard_normal((300, 3)) * 10.0 ** rng.integers(-300, 300, (300, 3))
        formats = ["{:.17g}", "{!r}", "{:.6e}", "{:.3f}", "{:.12G}"]
        rows = [",".join(formats[(i + k) % 5].format(v) for k, v in enumerate(row))
                for i, row in enumerate(values.tolist())]
        text = "\n".join(["theta_deg,eta_deg,extra", *rows]) + "\n"
        _, cols = _read_csv(io.StringIO(text), ("theta_deg", "eta_deg", "extra"))
        reference = np.array([[float(t) for t in row.split(",")] for row in rows])
        assert cols.tobytes() == reference.tobytes()

    def test_underscore_digits_name_their_line(self):
        lines = make_s11_text().splitlines()
        lines[4] = "1_000_003,0.5,-0.1"   # line 5; float() would take it
        with pytest.raises(ParseError) as err:
            parse_s11_csv("\n".join(lines))
        assert err.value.line == 5
        assert "non-numeric" in str(err.value)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_afm_non_finite_height_names_line(self, bad):
        rows = ["16 16 1e-09 1e-09"] + [" ".join(["0"] * 16)] * 16
        rows[6] = " ".join(["0"] * 9 + [bad] + ["0"] * 6)   # line 7
        with pytest.raises(ParseError) as err:
            parse_afm_grid("\n".join(rows))
        assert err.value.line == 7
        assert "non-finite height" in str(err.value)

    def test_afm_non_numeric_height_names_line(self):
        rows = ["16 16 1e-09 1e-09"] + [" ".join(["0"] * 16)] * 16
        rows[12] = " ".join(["0"] * 15 + ["x"])   # line 13
        with pytest.raises(ParseError) as err:
            parse_afm_grid("\n".join(rows))
        assert err.value.line == 13

    @pytest.mark.parametrize("tail", ["", "\n", "\n# note=1\n\n  \n"])
    def test_header_without_rows_warns_nothing(self, tail):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match="no data rows"):
                parse_s11_csv("# a=1\nfreq_hz,re,im" + tail)


#: kind -> (parser, lines before the rows, valid rows)
VALID_TABLES = {
    "s11": (parse_s11_csv, ["# a=1", "freq_hz,re,im"],
            [f"{1e6 + i},0.5,-0.1" for i in range(8)]),
    "xps": (parse_xps_csv, ["# line=O1s", "be_ev,counts"],
            [f"{520 + i},1" for i in range(8)]),
    "tempsweep": (parse_tempsweep_csv, ["temperature_K,f0_hz,f0_err_hz"],
                  [f"{0.02 * (i + 1)},6.9e8,10" for i in range(8)]),
    "powersweep": (parse_powersweep_csv,
                   ["# temperature_K=0.01", "# f0_hz=6.9e8", "n_mean,qi,qi_err"],
                   [f"1e{i},2600,26" for i in range(8)]),
    "walkoff": (parse_walkoff_csv, ["theta_deg,eta_deg"],
                [f"{-90 + 20 * i},0.5" for i in range(10)]),
    "afm": (parse_afm_grid, ["16 16 1e-09 1e-09"], [" ".join(["0"] * 16)] * 16),
}

#: (kind, data row, the row that replaces it) for every container row rule
BROKEN_ROWS = {
    "s11-nan-frequency": ("s11", 3, "nan,0.5,-0.1"),
    "s11-inf-real": ("s11", 5, "1000005,inf,-0.1"),
    "s11-nan-imaginary": ("s11", 0, "1e6,0.5,nan"),
    "s11-repeated-frequency": ("s11", 3, "1000002,0.5,-0.1"),
    "xps-nan-energy": ("xps", 2, "nan,1"),
    "xps-nan-counts": ("xps", 6, "526,nan"),
    "xps-non-monotone-energy": ("xps", 4, "521.5,1"),
    "xps-negative-counts": ("xps", 4, "524,-3"),
    "tempsweep-nan-temperature": ("tempsweep", 2, "nan,6.9e8,10"),
    "tempsweep-inf-error": ("tempsweep", 7, "0.16,6.9e8,inf"),
    "tempsweep-temperature-above-1K": ("tempsweep", 3, "1.5,6.9e8,10"),
    "tempsweep-zero-temperature": ("tempsweep", 0, "0,6.9e8,10"),
    "tempsweep-negative-f0": ("tempsweep", 4, "0.1,-6.9e8,10"),
    "tempsweep-negative-error": ("tempsweep", 5, "0.12,6.9e8,-1"),
    "powersweep-nan-phonon-number": ("powersweep", 3, "nan,2600,26"),
    "powersweep-nan-qi": ("powersweep", 6, "1e6,nan,26"),
    "powersweep-zero-phonon-number": ("powersweep", 0, "0,2600,26"),
    "powersweep-negative-qi": ("powersweep", 2, "1e2,-2600,26"),
    "powersweep-negative-error": ("powersweep", 7, "1e7,2600,-26"),
    "walkoff-nan-angle": ("walkoff", 4, "nan,0.5"),
    "walkoff-nan-eta": ("walkoff", 9, "90,nan"),
    "walkoff-repeated-angle": ("walkoff", 5, "-10,0.5"),
    "afm-inf-height": ("afm", 11, " ".join(["0"] * 15 + ["-inf"])),
}


class TestRowRules:
    """Each container rule on row values, broken in a file, names the row's line."""

    @pytest.mark.parametrize("case", sorted(BROKEN_ROWS))
    def test_broken_row_names_its_line(self, case):
        kind, row, bad = BROKEN_ROWS[case]
        parse, head, rows = VALID_TABLES[kind]
        parse("\n".join(head + rows))
        rows = list(rows)
        rows[row] = bad
        with pytest.raises(ParseError) as err:
            parse("\n".join(head + rows))
        assert err.value.line == len(head) + row + 1


#: (kind, lines before the rows with one metadata value that is refused, its line)
BROKEN_METADATA = {
    "powersweep-negative-f0": (
        "powersweep", ["# temperature_K=0.01", "# f0_hz=-6.9e8", "n_mean,qi,qi_err"], 2),
    "powersweep-nan-temperature": (
        "powersweep", ["# temperature_K=nan", "# f0_hz=6.9e8", "n_mean,qi,qi_err"], 1),
    "tempsweep-reference-above-1K": (
        "tempsweep", ["# reference_temperature_K=2", "temperature_K,f0_hz,f0_err_hz"], 1),
    "tempsweep-non-numeric-reference": (
        "tempsweep", ["", "# reference_temperature_K=abc", "temperature_K,f0_hz,f0_err_hz"], 2),
    "xps-empty-line-label": ("xps", ["# note", "# line=", "be_ev,counts"], 2),
    "afm-negative-pitch": ("afm", ["# scan 1", "16 16 -1e-09 1e-09"], 2),
}


class TestMetadataRules:
    """A metadata or header value its container refuses names the value's line."""

    @pytest.mark.parametrize("case", sorted(BROKEN_METADATA))
    def test_refused_metadata_names_its_line(self, case):
        kind, head, line = BROKEN_METADATA[case]
        parse, _, rows = VALID_TABLES[kind]
        with pytest.raises(ParseError) as err:
            parse("\n".join(head + rows))
        assert err.value.line == line


class TestRoundTrips:
    def test_s11_roundtrip_exact(self, rng):
        freq = np.sort(rng.uniform(6e8, 7e8, 64))
        vals = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        sp = ComplexSpectrum(freq, vals, {"device": "A1", "temperature_mK": "10"})
        back = parse_s11_csv(format_s11_csv(sp))
        assert np.array_equal(back.frequencies_hz, sp.frequencies_hz)
        assert np.array_equal(back.values, sp.values)
        assert back.meta == sp.meta

    def test_s11_roundtrip_keeps_negative_zero(self):
        vals = np.full(8, 0.5 - 0.25j)
        vals.real[2] = vals.imag[2] = -0.0
        vals.real[5] = -0.0
        vals.imag[6] = -0.0
        sp = ComplexSpectrum(np.arange(8) + 1e6, vals)
        back = parse_s11_csv(format_s11_csv(sp))
        assert back.values.tobytes() == sp.values.tobytes()
        assert np.signbit(back.values.real[[2, 5]]).all()
        assert np.signbit(back.values.imag[[2, 6]]).all()

    def test_afm_roundtrip_exact(self, rng):
        img = AfmImage(rng.standard_normal((16, 24)) * 1e-10, (2e-9, 3e-9))
        back = parse_afm_grid(format_afm_grid(img))
        assert np.array_equal(back.heights_m, img.heights_m)
        assert back.pixel_pitch_m == img.pixel_pitch_m

    def test_sweep_roundtrips_exact(self, rng):
        t = np.linspace(0.01, 0.2, 12)
        ts = TemperatureSweepSeries(t, 6.9e8 + rng.standard_normal(12),
                                    np.full(12, 10.0))
        back = parse_tempsweep_csv(format_tempsweep_csv(ts))
        assert np.array_equal(back.f0_hz, ts.f0_hz)
        assert back.reference_temperature_k == ts.reference_temperature_k

        ps = PowerSweepSeries(np.geomspace(1, 1e6, 9), rng.uniform(1e3, 1e4, 9),
                              np.zeros(9), 0.01, 6.9e8)
        back = parse_powersweep_csv(format_powersweep_csv(ps))
        assert np.array_equal(back.mean_phonon_number, ps.mean_phonon_number)
        assert back.f0_hz == ps.f0_hz


class TestSynthS11:
    def test_critical_coupling_zero_on_resonance(self):
        f0 = 6.9e8
        kappa = 2.0 * np.pi * 2e5
        fwhm = kappa / (2 * np.pi)
        grid = np.linspace(f0 - 5 * fwhm, f0 + 5 * fwhm, 1001)  # odd: includes f0
        sp = synth_s11(f0, kappa, kappa / 2.0, grid)
        assert abs(sp.values[500]) < 1e-12

    def test_off_resonant_limit(self):
        f0 = 6.9e8
        kappa = 2.0 * np.pi * 2e5
        grid = np.linspace(f0 + 1e8, f0 + 2e8, 16)
        sp = synth_s11(f0, kappa, kappa / 3.0, grid)
        assert np.all(np.abs(sp.values - 1.0) < 1e-3)

    def test_rejects_nonphysical_rates(self):
        grid = np.linspace(1e6, 2e6, 16)
        with pytest.raises(ValidationError):
            synth_s11(1.5e6, 1e4, 2e4, grid)  # kappa_e > kappa
        with pytest.raises(ValidationError):
            synth_s11(1.5e6, -1e4, -2e4, grid)

    def test_deterministic_under_seed(self):
        kappa, kappa_e = rates_from_qs(6.9e8, 5e3, 2e4)
        grid = resonance_grid(6.9e8, 5e3, 2e4, points=201)
        a = synth_s11(6.9e8, kappa, kappa_e, grid, noise_sigma=0.01, rng_seed=11)
        b = synth_s11(6.9e8, kappa, kappa_e, grid, noise_sigma=0.01, rng_seed=11)
        assert np.array_equal(a.values, b.values)
        c = synth_s11(6.9e8, kappa, kappa_e, grid, noise_sigma=0.01, rng_seed=12)
        assert not np.array_equal(a.values, c.values)

    def test_passive_magnitude_bound(self, rng):
        # |S11| <= 1 + 5*sigma for passive parameters, including dark modes
        for trial in range(25):
            f0 = rng.uniform(6e8, 8e8)
            qi = rng.uniform(2e3, 2e4)
            qe = rng.uniform(5e3, 5e4)
            kappa, kappa_e = rates_from_qs(f0, qi, qe)
            sigma = rng.uniform(0, 0.02)
            dark = None
            if trial % 2:
                dark = (2 * np.pi * rng.uniform(1e3, 3e4),
                        rng.uniform(-2e5, 2e5),
                        2 * np.pi * rng.uniform(1e3, 3e4))
            grid = resonance_grid(f0, qi, qe, points=501)
            sp = synth_s11(f0, kappa, kappa_e, grid, dark=dark,
                           noise_sigma=sigma, rng_seed=trial)
            assert np.all(np.abs(sp.values) <= 1.0 + 5.0 * sigma)


class TestSynthTempSweep:
    def test_zero_tls_density_flat(self):
        t = np.linspace(0.01, 0.2, 10)
        s = synth_temperature_sweep(0.0, 6.9e8, t)
        assert np.all(s.f0_hz == s.f0_hz[0])

    def test_reference_anchoring(self):
        t = np.array([0.01, 0.05, 0.1, 0.2])
        s = synth_temperature_sweep(7.53e-5, 6.9e8, t, reference_temperature_k=0.2)
        assert s.f0_hz[-1] == pytest.approx(6.9e8, abs=1e-6)

    def test_redshift_magnitude_against_scalar_oracle(self, series_digamma_oracle):
        # independent evaluation of the shift model via the series digamma
        f_delta, f0 = 7.53e-5, 6.9e8
        t = np.linspace(0.01, 0.2, 20)
        s = synth_temperature_sweep(f_delta, f0, t)
        hbar, kb = 1.054571817e-34, 1.380649e-23

        def bracket(temp):
            y = hbar * f0 / (kb * temp)
            return series_digamma_oracle(y, n_terms=300_000) - np.log(y)

        expected = f0 * (1.0 + (f_delta / np.pi) * (np.array([bracket(x) for x in t])
                                                    - bracket(0.2)))
        assert np.allclose(s.f0_hz, expected, rtol=0, atol=f0 * 1e-10)
        # redshift toward low temperature, tens of kHz in scale; monotone
        # above the low-temperature turning point of the shift model
        shifts = s.f0_hz - s.f0_hz[-1]
        assert np.all(shifts[:-1] < 0)
        assert 1e4 < -shifts[0] < 1e5
        i_turn = int(np.argmin(s.f0_hz))
        assert t[i_turn] < 0.03
        assert np.all(np.diff(s.f0_hz[i_turn:]) > 0)

    def test_empty_temperatures_rejected(self):
        with pytest.raises(ValidationError):
            synth_temperature_sweep(1e-5, 6.9e8, [])
