"""Noise generators and in-distribution corruptors: ranges, round trips,
distributional sanity, and seeded determinism."""

import hashlib

import numpy as np
import pytest

from oewb import outlier_gen as og
from oewb.errors import ConfigurationError, ParameterError


class TestGridShape:
    def test_dim_and_round_trip(self):
        shape = og.GridShape(4, 8, 3)
        assert shape.dim == 96
        rows = np.random.default_rng(0).random((5, 96))
        assert np.array_equal(shape.flatten(shape.unflatten(rows)), rows)

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ConfigurationError):
            og.GridShape(0, 4, 3)

    def test_only_the_two_canonical_ranges_allowed(self):
        og.GridShape(2, 2, 1, value_range=(0.0, 1.0))
        og.GridShape(2, 2, 1, value_range=(-1.0, 1.0))
        with pytest.raises(ParameterError):
            og.GridShape(2, 2, 1, value_range=(0.0, 255.0))

    def test_unflatten_rejects_wrong_width(self):
        shape = og.GridShape(2, 2, 1)
        with pytest.raises(ConfigurationError):
            shape.unflatten(np.zeros((3, 5)))


class TestGenGaussian:
    def test_per_dimension_mean_within_clt_bound(self):
        x = og.gen_gaussian(10_000, 4, seed=0)
        assert np.max(np.abs(x.mean(axis=0))) < 5.0 / np.sqrt(10_000)

    def test_seed_reproducibility(self):
        assert np.array_equal(og.gen_gaussian(50, 3, seed=9), og.gen_gaussian(50, 3, seed=9))
        assert not np.array_equal(og.gen_gaussian(50, 3, seed=9), og.gen_gaussian(50, 3, seed=10))

    def test_clipping_keeps_values_in_range(self):
        x = og.gen_gaussian(100_000, 1, seed=1, value_range=(-1.0, 1.0))
        assert x.min() >= -1.0 and x.max() <= 1.0

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ParameterError):
            og.gen_gaussian(0, 3, seed=0)

    @pytest.mark.parametrize("value_range", [(1.0, -1.0), (0.5, 0.5)])
    def test_range_that_is_not_increasing_rejected(self, value_range):
        # np.clip with low >= high would make every value one number
        with pytest.raises(ParameterError, match="value_range must be increasing"):
            og.gen_gaussian(5, 2, seed=0, value_range=value_range)


class TestGenRademacher:
    def test_values_are_plus_minus_one(self):
        x = og.gen_rademacher(500, 7, seed=2)
        assert set(np.unique(x)) == {-1.0, 1.0}

    def test_per_dimension_mean_near_zero(self):
        x = og.gen_rademacher(10_000, 4, seed=3)
        assert np.max(np.abs(x.mean(axis=0))) < 5.0 / np.sqrt(10_000)

    def test_seed_reproducibility(self):
        assert np.array_equal(og.gen_rademacher(20, 2, seed=1), og.gen_rademacher(20, 2, seed=1))


class TestGenBernoulli:
    def test_values_binary(self):
        x = og.gen_bernoulli(300, 5, p=0.3, seed=4)
        assert set(np.unique(x)).issubset({0.0, 1.0})

    def test_mean_approaches_p(self):
        x = og.gen_bernoulli(10_000, 8, p=0.3, seed=5)
        assert abs(x.mean() - 0.3) < 5.0 * 0.5 / np.sqrt(80_000)

    def test_degenerate_p(self):
        assert not og.gen_bernoulli(10, 4, p=0.0, seed=0).any()
        assert og.gen_bernoulli(10, 4, p=1.0, seed=0).all()

    def test_invalid_p_rejected(self):
        with pytest.raises(ParameterError):
            og.gen_bernoulli(10, 4, p=1.5, seed=0)


class TestGenUniformNoise:
    def test_range_respected(self):
        shape = og.GridShape(4, 4, 1, value_range=(-1.0, 1.0))
        x = og.gen_uniform_noise(1000, shape, seed=6)
        assert x.min() >= -1.0 and x.max() <= 1.0

    def test_mean_of_unit_interval_noise(self):
        shape = og.GridShape(10, 10, 1)
        x = og.gen_uniform_noise(100, shape, seed=7)
        # sd of U[0,1] is 1/sqrt(12); 10000 samples total
        assert abs(x.mean() - 0.5) < 5.0 / np.sqrt(12.0 * x.size)

    def test_seed_reproducibility(self):
        shape = og.GridShape(2, 3, 1)
        assert np.array_equal(
            og.gen_uniform_noise(5, shape, seed=8), og.gen_uniform_noise(5, shape, seed=8)
        )


class TestGenBlobs:
    def test_exactly_two_values_and_both_present(self):
        shape = og.GridShape(16, 16, 1)
        x = og.gen_blobs(20, shape, seed=9)
        assert set(np.unique(x)) == {0.0, 1.0}
        imgs = shape.unflatten(x)
        for img in imgs:
            assert img.min() == 0.0 and img.max() == 1.0

    def test_hi_fraction_stays_moderate(self):
        shape = og.GridShape(16, 16, 1)
        for seed in range(5):
            x = og.gen_blobs(10, shape, seed=seed)
            frac = x.reshape(10, -1).mean(axis=1)
            assert np.all(frac >= 0.2) and np.all(frac <= 0.8)

    def test_symmetric_range_uses_its_endpoints(self):
        shape = og.GridShape(8, 8, 1, value_range=(-1.0, 1.0))
        x = og.gen_blobs(5, shape, seed=0)
        assert set(np.unique(x)) == {-1.0, 1.0}

    def test_channels_replicated(self):
        shape = og.GridShape(8, 8, 3)
        imgs = shape.unflatten(og.gen_blobs(4, shape, seed=1))
        assert np.array_equal(imgs[..., 0], imgs[..., 1])
        assert np.array_equal(imgs[..., 0], imgs[..., 2])

    # SHA-256 of gen_blobs(n, GridShape(h, w, c, value_range), seed).tobytes(),
    # recorded when the box filter was scipy.ndimage.uniform_filter(mode="wrap").
    @pytest.mark.parametrize(
        "n,grid,seed,digest",
        [
            (6, (4, 4, 1, (0.0, 1.0)), 0, "0661067ea01641fd3803a4242fd5a22db087091178e3260d84ea5242747c11ee"),  # width 1
            (5, (3, 9, 1, (0.0, 1.0)), 1, "51a64bc308138cc18878f12164bc90beb959c3e51623da8b1b472a7b77696a57"),  # width 1
            (4, (2, 1, 1, (0.0, 1.0)), 2, "12ebbf5c5332d6e5d2fd2ba2bb1c6b050c785c741872dcadbf7cb5737e5f0c54"),  # width 1
            (7, (12, 12, 1, (0.0, 1.0)), 3, "152acbedf48bdb2009f2caccba3f643f7f2d988a29de71f2d57f5b9643c85ee7"),  # width 3
            (5, (16, 16, 1, (0.0, 1.0)), 4, "7f31a140b3d83e82f064c291abf8b9cfac7b3bd938507913b1dc11cf4422775f"),  # width 4
            (4, (10, 23, 3, (0.0, 1.0)), 5, "eb23b1f38a01c093d252c73e803da21a7f1ee0f056fb832e9008f9a5e1a725ab"),  # width 3
            (3, (32, 20, 1, (-1.0, 1.0)), 6, "387c5b82f541325a133aab304d4ac7671913b7d758348126ba58617d0ebc2644"),  # width 5
            (3, (28, 28, 3, (-1.0, 1.0)), 7, "6b5ced56c2ba38ce229bf51e41ed0816577206f57a93d83e72bbb964d1bc1459"),  # width 7
            (2, (32, 32, 3, (0.0, 1.0)), 8, "c0bdb89c9bf6beef1bd1d00e56d4f807dff361874f096bd8fb7433ac1b9ab500"),  # width 8
            (2, (45, 31, 1, (-1.0, 1.0)), 9, "aa600290fcd93e377f090d41d04f5cca3b2df43a104e8d2207950ee495995958"),  # width 8
        ],
    )
    def test_bytes_pinned(self, n, grid, seed, digest):
        x = og.gen_blobs(n, og.GridShape(*grid[:3], value_range=grid[3]), seed)
        assert hashlib.sha256(x.tobytes()).hexdigest() == digest


def _window_mean_oracle(x, width, axis, offset=0):
    """out[k] = mean of x[(k - width // 2 + offset + j) % n] for j < width,
    one output position at a time."""
    n = x.shape[axis]
    out = np.empty_like(x)
    for k in range(n):
        idx = [(k - width // 2 + offset + j) % n for j in range(width)]
        np.moveaxis(out, axis, 0)[k] = np.take(x, idx, axis=axis).mean(axis=axis)
    return out


class TestBoxFilter:
    @pytest.mark.parametrize(
        "h,w,width", [(5, 5, 1), (6, 9, 2), (7, 4, 3), (12, 12, 4), (9, 13, 5), (8, 10, 7), (16, 11, 6)]
    )
    def test_matches_modular_index_window_mean(self, h, w, width):
        x = np.random.default_rng(h * 100 + w).random((3, h, w))
        want = _window_mean_oracle(_window_mean_oracle(x, width, 1), width, 2)
        assert np.allclose(og._box_filter(x, width), want, rtol=1e-12, atol=0.0)
        if width > 1:
            for off in (-1, 1):
                shifted = _window_mean_oracle(_window_mean_oracle(x, width, 1, off), width, 2, off)
                assert not np.allclose(og._box_filter(x, width), shifted, rtol=1e-12, atol=0.0)

    def test_width_one_returns_input(self):
        x = np.random.default_rng(0).random((2, 3, 4))
        assert og._box_filter(x, 1) is x

    # SHA-256 of the twice-filtered noise rng(seed).random((n, h, w)) at the
    # gen_blobs width, recorded from scipy.ndimage.uniform_filter(x, (1, width,
    # width), mode="wrap") applied twice (scipy 1.17.1).
    @pytest.mark.parametrize(
        "n,h,w,seed,digest",
        [
            (3, 4, 4, 0, "71d0a8ee82e06cfa44af70419eadbff481a641ead79231d8a9d1c492018b359b"),  # width 1
            (3, 12, 12, 1, "8befe94a664c6f554aa0a5efaaec4fb103c137896f404979e9f737a26e2a0eb0"),  # width 3
            (2, 16, 16, 2, "426ffac17fa3bdac6ca268aea19b69bfcbc471308cdd1c569a36f58b8cc48cee"),  # width 4
            (2, 10, 23, 3, "ca39515e95c892cf515a67ee02e4f0e1ee302ad9bb30461e73bf3d28e2712d3b"),  # width 3
            (2, 32, 20, 4, "eafccd14bb229c693d3b0e793ff0a25a0d4a2e7d9f2c3ea02697bb934972b1db"),  # width 5
            (1, 45, 31, 5, "00967972928c1e2ec11ba66123b3dd754e4ee53099d915028939036fc334959c"),  # width 8
            (1, 64, 64, 6, "71c519729c9580f65b7c2ad5cf149bd3ba9198be9f4efec44f0513e94dd11d80"),  # width 16
        ],
    )
    def test_bits_match_recorded_scipy_output(self, n, h, w, seed, digest):
        width = int(np.ceil(min(h, w) / 4))
        x = np.random.default_rng(seed).random((n, h, w))
        smooth = og._box_filter(og._box_filter(x, width), width)
        assert hashlib.sha256(smooth.tobytes()).hexdigest() == digest


class TestArithmeticMean:
    def test_idempotent_on_identical_pair(self):
        rows = np.random.default_rng(0).random((6, 10))
        pairs = (np.arange(6), np.arange(6))
        assert np.array_equal(og.corrupt_arithmetic_mean(rows, pairs=pairs), rows)

    def test_midpoint_of_extremes(self):
        rows = np.vstack((np.zeros(4), np.ones(4)))
        out = og.corrupt_arithmetic_mean(rows, pairs=([0], [1]))
        assert np.array_equal(out, np.full((1, 4), 0.5))

    def test_convexity_keeps_range(self):
        rows = np.random.default_rng(1).random((30, 8))
        out = og.corrupt_arithmetic_mean(rows, seed=3, n=50)
        assert out.shape == (50, 8)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_seeded_determinism(self):
        rows = np.random.default_rng(2).random((10, 4))
        assert np.array_equal(
            og.corrupt_arithmetic_mean(rows, seed=5), og.corrupt_arithmetic_mean(rows, seed=5)
        )


class TestGeometricMean:
    def test_idempotent_on_identical_pair(self):
        rows = np.random.default_rng(3).random((6, 10))
        pairs = (np.arange(6), np.arange(6))
        out = og.corrupt_geometric_mean(rows, pairs=pairs)
        assert np.max(np.abs(out - rows)) < 1e-12

    def test_zero_annihilates(self):
        rows = np.vstack((np.zeros(4), np.random.default_rng(4).random(4)))
        out = og.corrupt_geometric_mean(rows, pairs=([0], [1]))
        assert np.array_equal(out, np.zeros((1, 4)))

    def test_quarter_with_one(self):
        rows = np.vstack((np.full(3, 0.25), np.ones(3)))
        out = og.corrupt_geometric_mean(rows, pairs=([0], [1]))
        assert np.allclose(out, 0.5, atol=1e-15)

    def test_symmetric_range_handled_in_unit_coordinates(self):
        rows = np.array([[-1.0, 0.0, 1.0], [1.0, 0.0, -1.0]])
        out = og.corrupt_geometric_mean(rows, value_range=(-1.0, 1.0), pairs=([0], [1]))
        assert out.min() >= -1.0 and out.max() <= 1.0
        # -1 maps to unit coordinate 0, which annihilates the pair entry
        assert out[0, 0] == -1.0 and out[0, 2] == -1.0

    def test_degenerate_range_rejected(self):
        with pytest.raises(ParameterError):
            og.corrupt_geometric_mean(np.zeros((2, 2)), value_range=(1.0, 1.0))


class TestJigsaw:
    def test_identity_permutation_is_identity(self):
        shape = og.GridShape(8, 8, 3)
        rows = np.random.default_rng(5).random((4, shape.dim))
        out = og.corrupt_jigsaw(rows, shape, perm=np.arange(16))
        assert np.array_equal(out, rows)

    def test_pixel_multiset_preserved(self):
        shape = og.GridShape(8, 8, 1)
        rows = np.random.default_rng(6).random((3, shape.dim))
        out = og.corrupt_jigsaw(rows, shape, seed=1)
        for a, b in zip(rows, out):
            assert np.array_equal(np.sort(a), np.sort(b))

    def test_permutation_round_trip(self):
        shape = og.GridShape(8, 8, 2)
        rows = np.random.default_rng(7).random((5, shape.dim))
        rng = np.random.default_rng(8)
        perm = rng.permutation(16)
        inv = np.argsort(perm)
        once = og.corrupt_jigsaw(rows, shape, perm=perm)
        back = og.corrupt_jigsaw(once, shape, perm=inv)
        assert np.array_equal(back, rows)

    def test_shape_must_divide_into_sixteen_patches(self):
        with pytest.raises(ConfigurationError):
            og.corrupt_jigsaw(np.zeros((1, 6 * 8)), og.GridShape(6, 8, 1))


class TestSpeckle:
    def test_zero_intensity_is_identity(self):
        rows = np.random.default_rng(9).random((10, 6))
        assert np.array_equal(og.corrupt_speckle(rows, intensity=0.0, seed=0), rows)

    def test_output_respects_range(self):
        rows = np.random.default_rng(10).random((50, 20))
        out = og.corrupt_speckle(rows, intensity=0.8, seed=1)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_perturbation_magnitude_scales_with_intensity(self):
        rows = np.full((200, 50), 0.5)
        small = og.corrupt_speckle(rows, intensity=0.05, seed=2)
        large = og.corrupt_speckle(rows, intensity=0.10, seed=2)
        ratio = np.mean(np.abs(large - rows)) / np.mean(np.abs(small - rows))
        assert 1.9 < ratio < 2.1

    def test_negative_intensity_rejected(self):
        with pytest.raises(ParameterError):
            og.corrupt_speckle(np.zeros((1, 2)), intensity=-0.1)

    def test_range_that_is_not_increasing_rejected(self):
        with pytest.raises(ParameterError, match="value_range must be increasing"):
            og.corrupt_speckle(np.full((2, 3), 0.5), seed=0, value_range=(1.0, 0.0))


class TestRgbGhost:
    def test_zero_shift_identity_order_is_identity(self):
        shape = og.GridShape(6, 6, 3)
        rows = np.random.default_rng(11).random((4, shape.dim))
        out = og.corrupt_rgb_ghost(rows, shape, order=[0, 1, 2], shifts=np.zeros((3, 2), dtype=int))
        assert np.array_equal(out, rows)

    def test_pure_reorder_preserves_channel_multisets(self):
        shape = og.GridShape(6, 6, 3)
        rows = np.random.default_rng(12).random((2, shape.dim))
        order = [2, 0, 1]
        out = og.corrupt_rgb_ghost(rows, shape, order=order, shifts=np.zeros((3, 2), dtype=int))
        imgs_in = shape.unflatten(rows)
        imgs_out = shape.unflatten(out)
        for ch in range(3):
            assert np.array_equal(imgs_out[..., ch], imgs_in[..., order[ch]])

    def test_ghost_round_trip(self):
        shape = og.GridShape(8, 8, 3)
        rows = np.random.default_rng(13).random((3, shape.dim))
        order = np.array([1, 2, 0])
        shifts = np.array([[1, -2], [3, 1], [-1, 2]])
        ghosted = og.corrupt_rgb_ghost(rows, shape, order=order, shifts=shifts)
        inv_order = np.argsort(order)
        inv_shifts = -shifts[inv_order]
        restored = og.corrupt_rgb_ghost(ghosted, shape, order=inv_order, shifts=inv_shifts)
        assert np.array_equal(restored, rows)

    def test_random_ghost_is_a_pixel_bijection(self):
        shape = og.GridShape(8, 8, 3)
        rows = np.random.default_rng(14).random((2, shape.dim))
        out = og.corrupt_rgb_ghost(rows, shape, seed=15)
        for a, b in zip(rows, out):
            assert np.array_equal(np.sort(a), np.sort(b))

    def test_requires_three_channels(self):
        with pytest.raises(ConfigurationError):
            og.corrupt_rgb_ghost(np.zeros((1, 4)), og.GridShape(2, 2, 1))

    def test_invalid_order_and_shifts_rejected(self):
        shape = og.GridShape(4, 4, 3)
        rows = np.zeros((1, shape.dim))
        with pytest.raises(ParameterError):
            og.corrupt_rgb_ghost(rows, shape, order=[0, 0, 1])
        with pytest.raises(ParameterError):
            og.corrupt_rgb_ghost(rows, shape, shifts=np.zeros((2, 2), dtype=int))


class TestInvert:
    def test_double_inversion_is_identity(self):
        shape = og.GridShape(4, 4, 3)
        rows = np.random.default_rng(16).random((5, shape.dim))
        mask = [True, False, True]
        twice = og.corrupt_invert(og.corrupt_invert(rows, shape, mask), shape, mask)
        assert np.max(np.abs(twice - rows)) < 1e-15

    def test_inverts_zero_to_one_on_unit_range(self):
        shape = og.GridShape(2, 2, 1)
        rows = np.zeros((1, shape.dim))
        out = og.corrupt_invert(rows, shape, [True])
        assert np.array_equal(out, np.ones_like(rows))

    def test_empty_mask_is_identity(self):
        shape = og.GridShape(2, 2, 2)
        rows = np.random.default_rng(17).random((3, shape.dim))
        out = og.corrupt_invert(rows, shape, [False, False])
        assert np.array_equal(out, rows)

    def test_symmetric_range_reflects_through_zero(self):
        shape = og.GridShape(2, 2, 1, value_range=(-1.0, 1.0))
        rows = np.full((1, shape.dim), 0.25)
        out = og.corrupt_invert(rows, shape, [True])
        assert np.allclose(out, -0.25, atol=1e-15)

    def test_mask_length_mismatch_rejected(self):
        shape = og.GridShape(2, 2, 3)
        with pytest.raises(ConfigurationError):
            og.corrupt_invert(np.zeros((1, shape.dim)), shape, [True])


class TestInputsNeverMutated:
    def test_corruptors_leave_their_inputs_alone(self):
        shape = og.GridShape(8, 8, 3)
        rows = np.random.default_rng(18).random((6, shape.dim))
        snapshot = rows.copy()
        og.corrupt_arithmetic_mean(rows, seed=0)
        og.corrupt_geometric_mean(rows, seed=0)
        og.corrupt_jigsaw(rows, shape, seed=0)
        og.corrupt_speckle(rows, seed=0)
        og.corrupt_rgb_ghost(rows, shape, seed=0)
        og.corrupt_invert(rows, shape, [True, True, False])
        assert np.array_equal(rows, snapshot)
