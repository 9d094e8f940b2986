import numpy as np
import pytest

from sawkit import xps
from sawkit.errors import FitError, ValidationError
from sawkit.spectra import XpsSpectrum
from sawkit.synth import synth_xps_spectrum
from sawkit.xps import (
    Band,
    BandModel,
    NB3D52_REFERENCE_EV,
    O1S_BAND_CENTERS_EV,
    SensitivityTable,
    atomic_percentages,
    charge_shift,
    fit_bands,
    pseudo_voigt,
    shirley_background,
)
from conftest import assert_sigma_matches_scatter


def gaussian_line(be, center, sigma, area, floor=0.0):
    return floor + area * np.exp(-0.5 * ((be - center) / sigma) ** 2) \
        / (sigma * np.sqrt(2 * np.pi))


class TestChargeShift:
    def make_pair(self, offset):
        be_nb = np.linspace(200, 214, 141)
        nb = XpsSpectrum(be_nb, gaussian_line(be_nb, 207.3 + offset, 0.5, 100, 5.0),
                         "Nb3d")
        be_o = np.linspace(525, 540, 151)
        o = XpsSpectrum(be_o, gaussian_line(be_o, 530.0 + offset, 0.7, 300, 8.0),
                        "O1s")
        return [nb, o]

    def test_already_referenced_gives_zero_shift(self):
        shifted, shift = charge_shift(self.make_pair(0.0))
        assert shift == 0.0
        assert np.array_equal(shifted[0].binding_energy_ev,
                              np.linspace(200, 214, 141))

    def test_pure_translation(self):
        spectra = self.make_pair(2.0)
        shifted, shift = charge_shift(spectra)
        assert shift == -2.0
        for before, after in zip(spectra, shifted):
            assert np.allclose(after.binding_energy_ev,
                               before.binding_energy_ev - 2.0)
            assert np.array_equal(after.counts, before.counts)  # areas preserved

    def test_autodetect_on_synthetic_doublet(self):
        # spin-orbit pair, dominant component defines the reference
        be = np.linspace(202, 214, 241)
        counts = gaussian_line(be, 208.1, 0.4, 300) \
            + gaussian_line(be, 210.8, 0.4, 200) + 5.0
        nb = XpsSpectrum(be, counts, "Nb3d")
        shifted, shift = charge_shift([nb])
        step = be[1] - be[0]
        assert abs(shift - (NB3D52_REFERENCE_EV - 208.1)) <= step
        peak_after = shifted[0].binding_energy_ev[np.argmax(shifted[0].counts)]
        assert abs(peak_after - NB3D52_REFERENCE_EV) <= step

    def test_missing_nb_rejected(self):
        be = np.linspace(525, 540, 31)
        with pytest.raises(ValidationError):
            charge_shift([XpsSpectrum(be, np.ones(31), "O1s")])


class TestShirley:
    def test_zero_spectrum_gives_zero_background(self):
        be = np.linspace(520, 540, 81)
        sp = XpsSpectrum(be, np.zeros(81), "O1s")
        sh = shirley_background(sp, (520, 540))
        assert np.all(sh.background == 0)
        assert sh.n_iterations <= 50

    def test_pure_step_is_fixed_point(self):
        # sharp step between two flat plateaus: the background reproduces it
        be = np.arange(0, 17, 1.0) + 520.0
        counts = np.where(be < 532.5, 100.0, 300.0)
        sp = XpsSpectrum(be, counts, "O1s")
        sh = shirley_background(sp, (520.0, 536.0))
        assert sh.n_iterations <= 50
        assert np.max(np.abs(sh.background - counts)) <= 1e-4 * 200.0

    def test_monotone_between_endpoints_for_step_like_input(self):
        be = np.linspace(524, 536, 25)
        counts = np.where(be < 529.0, 50.0, 200.0)
        sp = XpsSpectrum(be, counts, "O1s")
        sh = shirley_background(sp, (524, 536))
        assert np.all(np.diff(sh.background) >= -1e-9)
        assert sh.background.min() >= 50.0 - 1e-6
        assert sh.background.max() <= 200.0 + 1e-6

    def test_background_never_exceeds_data(self):
        be = np.linspace(524, 536, 241)
        sp = synth_xps_spectrum(be, [(530.0, 0.6, 0.4, 0.2, 5000.0)],
                                step=(50, 200), noise_sigma=3.0, rng_seed=9)
        sh = shirley_background(sp, (524, 536))
        sel = (be >= sh.binding_energy_ev[0]) & (be <= sh.binding_energy_ev[-1])
        assert np.all(sh.background <= sp.counts[sel] + 1e-12)

    def test_peak_area_recovered_within_one_percent(self):
        be = np.linspace(522, 538, 321)
        band = (530.0, 0.6, 0.3, 0.15, 5000.0)
        sp = synth_xps_spectrum(be, [band], step=(50, 200))
        in_window = np.trapezoid(5000.0 * pseudo_voigt(be, *band[:4]), be)
        area = shirley_background(sp, (522, 538)).area
        assert area == pytest.approx(in_window, rel=0.01)

    def test_peak_area_with_noise(self):
        be = np.linspace(522, 538, 321)
        band = (530.0, 0.6, 0.3, 0.15, 5000.0)
        sp = synth_xps_spectrum(be, [band], step=(50, 200), noise_sigma=4.0, rng_seed=2)
        in_window = np.trapezoid(5000.0 * pseudo_voigt(be, *band[:4]), be)
        assert shirley_background(sp, (522, 538)).area == pytest.approx(in_window,
                                                                        rel=0.03)

    def test_narrow_window_rejected(self):
        be = np.linspace(520, 540, 81)
        sp = XpsSpectrum(be, np.ones(81), "O1s")
        with pytest.raises(ValidationError):
            shirley_background(sp, (530.0, 530.5))

    @pytest.mark.parametrize("index", [101, 200, 300])  # first, mid, last in window
    def test_window_whose_running_area_overflows_is_refused(self, index):
        # the suite turns a RuntimeWarning into an error, so an overflow on
        # the way fails this test instead of raising the ValidationError
        sp = synth_xps_spectrum(np.arange(520, 540, 0.05), [(530, 0.6, 0.5, 0.3, 8000)],
                                step=(200, 600), noise_sigma=0.5, rng_seed=1)
        counts = sp.counts.copy()
        counts[index] = 1e308
        with pytest.raises(ValidationError, match="running area .* not finite"):
            shirley_background(XpsSpectrum(sp.binding_energy_ev, counts, "O1s"), (525, 535))

    def test_nonconvergence_raises(self, monkeypatch):
        be = np.arange(0, 60, 1.0) + 500.0
        counts = np.where(be < 530.0, 100.0, 300.0)
        sp = XpsSpectrum(be, counts, "O1s")
        # long tail plateau converges slowly; a tiny budget must error out
        monkeypatch.setattr(xps, "SHIRLEY_MAX_ITER", 3)
        with pytest.raises(FitError):
            shirley_background(sp, (500.0, 559.0))


class TestFitBands:
    def test_single_gaussian_band_exact_recovery(self):
        be = np.linspace(526, 534, 321)
        target = 1200.0 * pseudo_voigt(be, 530.2, 0.55, 0.5, 0.0)
        model = BandModel((Band(center_ev=530.0, sigma_ev=0.7, gamma_ev=0.5,
                                mix=0.0),))
        result = fit_bands(be, target, model)
        band = result.model.bands[0]
        assert band.center_ev == pytest.approx(530.2, abs=530.2 * 1e-3)
        assert band.sigma_ev == pytest.approx(0.55, rel=1e-3)
        assert result.areas[0] == pytest.approx(1200.0, rel=1e-3)
        assert not result.degenerate

    def test_o1s_organic_bands_vanish_without_organics(self):
        # only metal-oxide oxygen present: the two organic bands fit to ~zero
        be = np.linspace(524, 538, 281)
        signal = 9000.0 * pseudo_voigt(be, O1S_BAND_CENTERS_EV[0], 0.7, 0.4, 0.2)
        model = BandModel(tuple(Band(center_ev=c, sigma_ev=0.6, gamma_ev=0.5,
                                     mix=0.2)
                                for c in O1S_BAND_CENTERS_EV))
        result = fit_bands(be, signal, model)
        total = result.areas.sum()
        assert result.areas[0] == pytest.approx(total, rel=0.02)
        assert result.areas[1] + result.areas[2] < 0.02 * total

    def test_identical_overlapping_bands_flagged_degenerate(self):
        # only the sum of the two amplitudes is identified; the area split
        # between them must carry an enormous uncertainty
        rng = np.random.default_rng(6)
        be = np.linspace(526, 534, 201)
        signal = 1000.0 * pseudo_voigt(be, 530.0, 0.6, 0.5, 0.3) \
            + 2.0 * rng.standard_normal(be.size)
        model = BandModel((
            Band(center_ev=530.0, sigma_ev=0.6, gamma_ev=0.5, mix=0.3),
            Band(center_ev=530.0, sigma_ev=0.6, gamma_ev=0.5, mix=0.3),
        ))
        result = fit_bands(be, signal, model)
        assert result.degenerate

    def test_band_areas_sum_to_total_counts(self):
        # 30 dB synthetic: fitted areas account for the integrated signal
        be = np.linspace(524, 538, 281)
        bands = [(530.0, 0.7, 0.4, 0.2, 6000.0), (531.5, 0.7, 0.4, 0.2, 2500.0)]
        sp = synth_xps_spectrum(be, bands, noise_sigma=7.0, rng_seed=3)
        model = BandModel((
            Band(center_ev=530.0, sigma_ev=0.6, gamma_ev=0.5, mix=0.2),
            Band(center_ev=531.5, sigma_ev=0.6, gamma_ev=0.5, mix=0.2),
        ))
        result = fit_bands(be, sp.counts, model)
        total_counts = float(np.trapezoid(sp.counts, be))
        assert result.areas.sum() == pytest.approx(total_counts, rel=0.02)


#: O1s metal-oxide, C=O and C-O band centers and areas, as in the benchmark
O1S_AREAS = (9000.0, 1400.0, 700.0)
O1S_MODEL = BandModel(tuple(Band(center_ev=c, sigma_ev=0.6, gamma_ev=0.5, mix=0.3)
                            for c in O1S_BAND_CENTERS_EV))


class TestO1sBandAreas:
    def test_minor_band_areas_with_another_band_shape(self):
        # bands of mix 0.2, sigma 0.7 and gamma 0.4 on a Shirley step against
        # the model's 0.3 / 0.6 / 0.5: the organic oxygen areas, which set
        # the surface comparison, stay within 5 % on every seed
        be = np.linspace(522.0, 540.0, 361)
        bands = [(c, 0.7, 0.4, 0.2, a) for c, a in zip(O1S_BAND_CENTERS_EV, O1S_AREAS)]
        for seed in range(60):
            sp = synth_xps_spectrum(be, bands, step=(40.0, 170.0), noise_sigma=0.5,
                                    rng_seed=seed)
            sh = shirley_background(sp, (524.0, 538.0))
            fit = fit_bands(sh.binding_energy_ev, sh.net, O1S_MODEL)
            assert fit.areas[1:] == pytest.approx(O1S_AREAS[1:], rel=0.05)

    def test_reported_area_sigma_matches_seed_scatter(self):
        # 60 noise draws on a line without a step: each reported area error
        # of every band has to match the scatter of its fitted area
        be = np.linspace(524.0, 538.0, 281)
        clean = sum(a * pseudo_voigt(be, c, 0.6, 0.5, 0.3)
                    for c, a in zip(O1S_BAND_CENTERS_EV, O1S_AREAS))
        fits = [fit_bands(be, clean + 0.5 * np.random.default_rng(seed).standard_normal(be.size),
                          O1S_MODEL) for seed in range(60)]
        assert_sigma_matches_scatter([f.areas for f in fits], [f.area_errors for f in fits])


class TestAtomicPercentages:
    def test_equal_areas_equal_factors(self):
        table = SensitivityTable({"O1s": 1.0, "C1s": 1.0})
        report = atomic_percentages({"O1s": 5.0, "C1s": 5.0}, table)
        assert report.atomic_percent["O1s"] == pytest.approx(50.0, abs=1e-12)
        assert report.atomic_percent["C1s"] == pytest.approx(50.0, abs=1e-12)

    def test_single_element_is_hundred_percent(self):
        table = SensitivityTable({"O1s": 0.733})
        report = atomic_percentages({"O1s": 3.7}, table)
        assert report.atomic_percent["O1s"] == 100.0
        assert report.ratios_to_nb == {}

    def test_device_stoichiometry_ratios(self):
        # percentages 67 / 22.3 / 10 give Li/Nb inside 0.46 +/- 0.09
        table = SensitivityTable({"O1s": 1.0, "Nb3d": 1.0, "Li1s": 1.0})
        report = atomic_percentages({"O1s": 67.0, "Nb3d": 22.3, "Li1s": 10.0},
                                    table)
        li_nb = report.ratios_to_nb["Li/Nb"]
        assert li_nb == pytest.approx(10.0 / 22.3, rel=1e-12)
        assert 0.46 - 0.09 <= li_nb <= 0.46 + 0.09
        assert report.ratios_to_nb["O/Nb"] == pytest.approx(3.00, abs=0.01)

    def test_scale_invariance_exact(self):
        table = SensitivityTable({"O1s": 0.733, "Nb3d": 2.921, "Li1s": 0.028})
        areas = {"O1s": 91.1, "Nb3d": 120.7, "Li1s": 0.52}
        base = atomic_percentages(areas, table)
        for c in (2.0, 0.5, 1024.0):  # dyadic scalings are lossless
            scaled = atomic_percentages({k: c * v for k, v in areas.items()}, table)
            assert scaled.atomic_percent == base.atomic_percent
        almost = atomic_percentages({k: 3.7 * v for k, v in areas.items()}, table)
        for k in areas:
            assert almost.atomic_percent[k] == pytest.approx(
                base.atomic_percent[k], rel=1e-12)

    def test_all_zero_areas_rejected(self):
        table = SensitivityTable({"O1s": 1.0, "C1s": 1.0})
        with pytest.raises(ValidationError):
            atomic_percentages({"O1s": 0.0, "C1s": 0.0}, table)

    def test_percentages_sum_to_hundred(self):
        table = SensitivityTable.default()
        report = atomic_percentages({"O1s": 9.1, "C1s": 2.2, "Nb3d": 31.0,
                                     "Li1s": 0.11}, table)
        assert sum(report.atomic_percent.values()) == pytest.approx(100.0,
                                                                    abs=1e-9)
