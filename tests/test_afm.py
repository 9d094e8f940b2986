import numpy as np
import pytest

from sawkit import afm
from sawkit.afm import (
    fit_step_heights,
    height_histogram,
    remove_line_tilt,
    rms_roughness,
    three_point_level,
)
from sawkit.errors import FitError, ValidationError
from sawkit.spectra import AfmImage
from sawkit.synth import synth_terrace_image
from conftest import assert_sigma_matches_scatter

PITCH = (1e-9, 1e-9)


def noise_image(sigma, shape=(128, 128), seed=0):
    rng = np.random.default_rng(seed)
    return AfmImage(sigma * rng.standard_normal(shape), PITCH)


def terrace_image(levels, fractions, seed, shape=(256, 256), noise=8e-11):
    """Vertical terraces at ``levels`` covering ``fractions`` of the width."""
    ny, nx = shape
    bounds = np.round(np.cumsum([0.0, *fractions]) * nx).astype(int)
    row = np.zeros(nx)
    for level, lo, hi in zip(levels, bounds, bounds[1:]):
        row[lo:hi] = level
    rng = np.random.default_rng(seed)
    return AfmImage(row + noise * rng.standard_normal(shape), PITCH)


class TestRemoveLineTilt:
    def test_constant_image_becomes_zero(self):
        img = AfmImage(np.full((32, 32), 3.2e-9), PITCH)
        out = remove_line_tilt(img, order=0)
        assert np.max(np.abs(out.heights_m)) < 1e-22

    def test_per_row_linear_ramp_annihilated(self, rng):
        a = rng.standard_normal((48, 1)) * 1e-9
        b = rng.standard_normal((48, 1)) * 1e-12
        x = np.arange(64)
        img = AfmImage(a + b * x, PITCH)
        out = remove_line_tilt(img, order=1)
        assert np.max(np.abs(out.heights_m)) < 1e-20

    def test_idempotent(self):
        img = synth_terrace_image((64, 64), noise_sigma_m=8e-11,
                                  tilt_m_per_px=(2e-12, 1e-12), rng_seed=3)
        once = remove_line_tilt(img)
        twice = remove_line_tilt(once)
        assert np.max(np.abs(twice.heights_m - once.heights_m)) < 1e-22

    def test_invariant_to_added_row_ramps(self, rng):
        # arbitrary per-row linear trends are exactly absorbed
        base = synth_terrace_image((48, 64), noise_sigma_m=5e-11, rng_seed=4)
        a = rng.standard_normal((48, 1)) * 1e-9
        b = rng.standard_normal((48, 1)) * 1e-12
        ramped = AfmImage(base.heights_m + a + b * np.arange(64), PITCH)
        out_base = remove_line_tilt(base)
        out_ramp = remove_line_tilt(ramped)
        assert np.allclose(out_ramp.heights_m, out_base.heights_m, atol=1e-20)

    def test_terraces_survive_row_offset_drift(self):
        # order-0 flattening removes per-row drift without touching the
        # staircase structure (every row crosses the same terrace pattern)
        clean = synth_terrace_image((96, 96), step_m=2e-10, noise_sigma_m=4e-11,
                                    rng_seed=5)
        drifted = AfmImage(clean.heights_m + 3e-12 * np.arange(96)[:, None]
                           + 5e-11 * np.random.default_rng(5).standard_normal((96, 1)),
                           PITCH)
        restored = remove_line_tilt(drifted, order=0)
        reference = remove_line_tilt(clean, order=0)
        assert np.max(np.abs(restored.heights_m - reference.heights_m)) < 1e-12

    def test_row_shorter_than_order_rejected(self):
        img = AfmImage(np.zeros((16, 16)), PITCH)
        with pytest.raises(ValidationError):
            remove_line_tilt(img, order=5)


class TestThreePointLevel:
    def test_plane_leveled_to_zero(self):
        x = np.arange(64)
        y = np.arange(48)[:, None]
        img = AfmImage(1e-12 * x + 2e-12 * y + 5e-10, PITCH)
        out = three_point_level(img, (5, 5), (50, 10), (20, 40))
        assert np.max(np.abs(out.heights_m)) < 1e-21

    def test_already_level_image_unchanged(self):
        img = AfmImage(np.full((32, 32), 7e-10), PITCH)
        out = three_point_level(img, (2, 2), (20, 5), (10, 25))
        assert np.max(np.abs(out.heights_m)) < 1e-21

    def test_reference_terrace_lands_at_zero(self):
        # tilted noisy terrace: after leveling on three points of the middle
        # terrace, the plane passes through the sampled medians exactly and
        # the terrace mean sits at zero within the noise
        img = synth_terrace_image((128, 128), step_m=2e-10, noise_sigma_m=3e-11,
                                  tilt_m_per_px=(2e-12, 1e-12), rng_seed=8)
        pts = [(55, 10), (70, 64), (60, 120)]
        out = three_point_level(img, *pts)
        plane = img.heights_m - out.heights_m
        for px, py in pts:
            patch = img.heights_m[py - 1:py + 2, px - 1:px + 2]
            assert plane[py, px] == pytest.approx(float(np.median(patch)),
                                                  abs=1e-18)
        middle = out.heights_m[:, 58:68]
        assert abs(middle.mean()) < 3e-11

    def test_collinear_points_rejected(self):
        img = AfmImage(np.zeros((32, 32)), PITCH)
        with pytest.raises(ValidationError):
            three_point_level(img, (1, 1), (5, 5), (9, 9))


class TestRmsRoughness:
    def test_constant_image_zero(self):
        assert rms_roughness(AfmImage(np.full((16, 16), 4e-9), PITCH)) == 0.0

    def test_two_level_image_analytic(self):
        h = np.zeros((16, 16))
        h[:, 8:] = 3e-10
        assert rms_roughness(AfmImage(h, PITCH)) == pytest.approx(1.5e-10,
                                                                  rel=1e-12)

    def test_gaussian_noise_sigma_recovered(self):
        img = noise_image(168.7e-12, seed=7)
        assert rms_roughness(img) == pytest.approx(168.7e-12, rel=0.02)

    def test_translation_invariance(self):
        img = noise_image(1e-10, seed=1)
        shifted = AfmImage(img.heights_m + 5e-9, PITCH)
        assert rms_roughness(shifted) == pytest.approx(rms_roughness(img),
                                                       rel=1e-10)

    def test_linear_height_scaling(self):
        img = noise_image(1e-10, seed=2)
        doubled = AfmImage(2.0 * img.heights_m, PITCH)
        assert rms_roughness(doubled) == 2.0 * rms_roughness(img)


def scan_order_histogram(image):
    """The reference for ``height_histogram``: each figure from the heights
    in scan order, the counts from ``np.histogram``."""
    h = image.heights_m.ravel()
    core_lo = np.percentile(h, 0.1, method="higher")
    core_hi = np.percentile(h, 99.9, method="lower")
    margin = afm._FENCE_CORE_SPANS * max(core_hi - core_lo, afm.HIST_BIN_FLOOR_M)
    lo = max(h.min(), core_lo - margin)
    hi = min(h.max(), core_hi + margin)
    q75, q25 = np.percentile(h, [75, 25])
    width = max(2.0 * (q75 - q25) / h.size ** (1.0 / 3.0), afm.HIST_BIN_FLOOR_M)
    counts, edges = np.histogram(h, bins=max(int((hi - lo) / width), 1), range=(lo, hi))
    return 0.5 * (edges[:-1] + edges[1:]), counts


def with_pixel(image, row, col, height):
    heights = image.heights_m.copy()
    heights[row, col] = height
    return AfmImage(heights, PITCH)


class TestStepHeights:
    def test_three_terrace_steps_recovered(self):
        for step in (2.0e-10, 2.4e-10):
            img = synth_terrace_image((160, 160), step_m=step,
                                      noise_sigma_m=8e-11, rng_seed=13)
            result = fit_step_heights(img)
            assert result.mean_step_m == pytest.approx(step, rel=0.15)
            assert result.centers_m[0] < result.centers_m[1] < result.centers_m[2]
            assert len(result.step_heights_m) == 2
            assert result.mean_step_err_m > 0
            # the shared terrace width tracks the terrace noise
            assert result.sigma_m == pytest.approx(8e-11, rel=0.3)

    def test_single_terrace_reports_mode_count(self):
        img = synth_terrace_image((128, 128), n_terraces=1,
                                  noise_sigma_m=8e-11, rng_seed=0)
        with pytest.raises(FitError, match="1 resolvable"):
            fit_step_heights(img)

    def test_offset_invariance_of_steps(self):
        img = synth_terrace_image((128, 128), step_m=2e-10, noise_sigma_m=6e-11,
                                  rng_seed=21)
        lifted = AfmImage(img.heights_m + 1e-9, PITCH)
        a = fit_step_heights(img)
        b = fit_step_heights(lifted)
        assert b.mean_step_m == pytest.approx(a.mean_step_m, rel=1e-6)

    def test_histogram_bin_floor(self):
        # nearly smooth data would produce absurdly fine bins without a floor
        img = noise_image(2e-11, shape=(64, 64), seed=3)
        centers, counts = height_histogram(img)
        assert centers.size >= 2
        assert centers[1] - centers[0] >= 1e-11 - 1e-24

    def test_fences_keep_every_pixel_of_a_terraced_image(self):
        for n_terraces in (3, 4):
            for seed in range(5):
                img = synth_terrace_image((256, 256), n_terraces=n_terraces, rng_seed=seed)
                assert height_histogram(img)[1].sum() == img.heights_m.size

    def test_one_dust_pixel_sets_neither_bins_nor_steps(self):
        # unfenced, the 50 nm pixel would set 3193 bins and leave 2 resolvable
        # modes; fenced, the axis ends one core span above the 99.9th
        # percentile, near 1.45 nm
        img = synth_terrace_image((256, 256), rng_seed=0)
        heights = img.heights_m.copy()
        heights[100, 100] = 5e-8
        dusty = AfmImage(heights, PITCH)
        centers, counts = height_histogram(dusty)
        assert counts.sum() == heights.size - 1
        assert centers.size < 2 * height_histogram(img)[0].size
        result = fit_step_heights(dusty)
        assert result.mean_step_m == pytest.approx(fit_step_heights(img).mean_step_m, rel=1e-3)
        assert result.mean_step_m == pytest.approx(2e-10, rel=0.05)

    def test_one_dust_pixel_stays_out_of_a_small_histogram(self):
        img = synth_terrace_image((32, 32), rng_seed=0)
        heights = img.heights_m.copy()
        heights[10, 10] = 5e-8
        centers, counts = height_histogram(AfmImage(heights, PITCH))
        assert counts.sum() == heights.size - 1
        assert centers[-1] < 2e-9

    def test_fences_hold_when_one_level_is_most_pixels(self):
        # quantized to 50 pm, the middle terrace puts 59 % of the pixels on
        # one value: the interquartile range is zero, the terraces are not
        img = terrace_image((0.0, 2e-10, 4e-10), (0.2, 0.6, 0.2), seed=0, noise=1e-11)
        quantized = AfmImage(np.round(img.heights_m / 5e-11) * 5e-11, PITCH)
        assert np.subtract(*np.percentile(quantized.heights_m, [75, 25])) == 0.0
        centers, counts = height_histogram(quantized)
        assert counts.sum() == quantized.heights_m.size
        assert centers[0] < 0.0 < 4e-10 < centers[-1] < 5e-10
        assert centers[1] - centers[0] == pytest.approx(1e-11, rel=0.05)

    def test_sorted_heights_give_the_scan_order_histogram(self):
        # percentiles, extremes and counts do not depend on the pixels'
        # order, so the sorted copy, counted by the ranks of the bin edges,
        # gives np.histogram's centres and counts, pixels on an edge too
        quantized = terrace_image((0.0, 2e-10, 4e-10), (0.2, 0.6, 0.2), seed=0, noise=1e-11)
        images = [
            *(synth_terrace_image((256, 256), n_terraces=k, rng_seed=seed)
              for k in (3, 4) for seed in range(3)),
            with_pixel(synth_terrace_image((256, 256), rng_seed=0), 100, 100, 5e-8),
            with_pixel(synth_terrace_image((32, 32), rng_seed=0), 10, 10, 5e-8),
            AfmImage(np.round(quantized.heights_m / 5e-11) * 5e-11, PITCH),
            noise_image(2e-11, shape=(64, 64), seed=3),
            with_pixel(AfmImage(np.zeros((16, 16)), PITCH), 5, 7, 1e-6),
            AfmImage(np.full((16, 16), 3e-10), PITCH),
        ]
        for image in images:
            (centers, counts), (expected_centers, expected_counts) = (
                height_histogram(image), scan_order_histogram(image))
            assert np.array_equal(centers, expected_centers)
            assert np.array_equal(counts, expected_counts)
            assert counts.dtype == expected_counts.dtype

    @pytest.mark.parametrize("fractions", [(0.6, 0.25, 0.15), (0.15, 0.7, 0.15),
                                           (0.75, 0.15, 0.1)])
    def test_uneven_terrace_areas(self, fractions):
        # vicinal terraces are rarely equal in area; 50 images per mix
        for seed in range(50):
            result = fit_step_heights(terrace_image((0.0, 2e-10, 4e-10), fractions, seed))
            for step in result.step_heights_m:
                assert step == pytest.approx(2e-10, rel=0.15)

    def test_clean_scan_with_a_dominant_middle_terrace(self):
        # at 10 pm noise the middle terrace holds both quartiles, 20 sigma
        # from the outer terraces, which must stay in the histogram
        for seed in range(50):
            img = terrace_image((0.0, 2e-10, 4e-10), (0.2, 0.6, 0.2), seed, noise=1e-11)
            for step in fit_step_heights(img).step_heights_m:
                assert step == pytest.approx(2e-10, rel=0.15)

    def test_equal_steps_pass_the_gate(self):
        for seed in range(10):
            result = fit_step_heights(synth_terrace_image((256, 256), rng_seed=seed))
            assert result.equal_steps
            assert result.unequal_delta_chi2 < 50.0
            assert result.step_heights_m[0] == result.step_heights_m[1]

    def test_unequal_steps_reported(self):
        for seed in range(10):
            img = terrace_image((0.0, 2e-10, 4.4e-10), (1 / 3, 1 / 3, 1 / 3), seed)
            result = fit_step_heights(img)
            assert not result.equal_steps
            assert result.unequal_delta_chi2 >= 50.0
            assert result.step_heights_m[0] == pytest.approx(2.0e-10, rel=0.15)
            assert result.step_heights_m[1] == pytest.approx(2.4e-10, rel=0.15)

    def test_double_step_is_an_error(self):
        # 200 then 400 pm: the middle terrace of a 200 pm comb is missing
        for seed in range(5):
            img = terrace_image((0.0, 2e-10, 6e-10), (1 / 3, 1 / 3, 1 / 3), seed)
            with pytest.raises(FitError, match="resolvable height modes"):
                fit_step_heights(img)

    def test_reported_sigma_matches_seed_scatter(self):
        # 40 noise draws at the benchmark's image size: each reported
        # one-sigma step error has to match the scatter of the fitted steps
        fits = [fit_step_heights(synth_terrace_image((256, 256), rng_seed=seed))
                for seed in range(40)]
        assert_sigma_matches_scatter([r.mean_step_m for r in fits],
                                     [r.mean_step_err_m for r in fits])

    def test_model_accounts_for_every_pixel(self):
        img = terrace_image((0.0, 2e-10, 4e-10), (0.6, 0.25, 0.15), seed=2)
        result = fit_step_heights(img)
        centers, counts = height_histogram(img)
        assert result.evaluate(centers).sum() == pytest.approx(counts.sum(), rel=0.02)
