"""Data pipeline: downsampling, interpolation, normalisation, datasets, loaders."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    Batch,
    ChannelNormalizer,
    DataLoader,
    SuperResolutionDataset,
    downsample_fields,
    downsample_result,
    interpolate_grid,
    upsample_trilinear,
)
from repro.simulation import synthetic_convection


class TestDownsample:
    def test_subsample_shape(self, rng):
        fields = rng.standard_normal((8, 4, 16, 32))
        out = downsample_fields(fields, (2, 4, 8))
        assert out.shape == (4, 4, 4, 4)

    def test_subsample_values_are_strided(self, rng):
        fields = rng.standard_normal((4, 2, 4, 4))
        out = downsample_fields(fields, (2, 2, 2))
        assert np.allclose(out, fields[::2, :, ::2, ::2])

    def test_mean_preserves_average(self, rng):
        fields = rng.standard_normal((4, 2, 8, 8))
        out = downsample_fields(fields, (2, 2, 2), method="mean")
        assert out.mean() == pytest.approx(fields.mean())

    def test_indivisible_raises(self, rng):
        with pytest.raises(ValueError):
            downsample_fields(rng.standard_normal((5, 2, 4, 4)), (2, 2, 2))

    def test_invalid_factor(self, rng):
        with pytest.raises(ValueError):
            downsample_fields(rng.standard_normal((4, 2, 4, 4)), (0, 2, 2))

    def test_unknown_method(self, rng):
        with pytest.raises(ValueError):
            downsample_fields(rng.standard_normal((4, 2, 4, 4)), (2, 2, 2), method="lanczos")

    def test_downsample_result_metadata(self, synthetic_result):
        lr = downsample_result(synthetic_result, (2, 2, 4))
        assert lr.shape == (8, 8, 16)
        assert lr.metadata["downsample_factors"] == (2, 2, 4)
        assert len(lr.times) == 8

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from([1, 2, 4]), st.sampled_from([1, 2, 4]), st.sampled_from([1, 2, 4]))
    def test_shape_property(self, ft, fz, fx):
        fields = np.zeros((8, 4, 8, 8))
        out = downsample_fields(fields, (ft, fz, fx))
        assert out.shape == (8 // ft, 4, 8 // fz, 8 // fx)


class TestInterpolation:
    def test_exact_at_grid_points(self, rng):
        field = rng.standard_normal((3, 4, 5, 6))
        # query exactly at grid node (1, 2, 3)
        coords = np.array([[1 / 3, 2 / 4, 3 / 5]])
        out = interpolate_grid(field, coords)
        assert np.allclose(out[0], field[:, 1, 2, 3])

    def test_linear_function_reproduced(self, rng):
        nt, nz, nx = 4, 5, 6
        tt, zz, xx = np.meshgrid(np.linspace(0, 1, nt), np.linspace(0, 1, nz),
                                 np.linspace(0, 1, nx), indexing="ij")
        field = (1.5 * tt - 2.0 * zz + 0.25 * xx)[None]
        coords = rng.random((40, 3))
        out = interpolate_grid(field, coords)[:, 0]
        expected = 1.5 * coords[:, 0] - 2.0 * coords[:, 1] + 0.25 * coords[:, 2]
        assert np.allclose(out, expected, atol=1e-12)

    def test_out_of_range_clamped(self, rng):
        field = rng.standard_normal((2, 3, 3, 3))
        out = interpolate_grid(field, np.array([[-0.5, 2.0, 0.5]]))
        assert np.isfinite(out).all()

    def test_invalid_shapes(self, rng):
        with pytest.raises(ValueError):
            interpolate_grid(rng.standard_normal((3, 3, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            interpolate_grid(rng.standard_normal((1, 3, 3, 3)), np.zeros((2, 2)))

    def test_upsample_shape_and_node_agreement(self, rng):
        field = rng.standard_normal((2, 3, 3, 3))
        up = upsample_trilinear(field, (5, 5, 5))
        assert up.shape == (2, 5, 5, 5)
        assert np.allclose(up[:, ::2, ::2, ::2], field)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(min_value=-3, max_value=3, allow_nan=False))
    def test_constant_field_property(self, value):
        field = np.full((1, 3, 4, 5), value)
        coords = np.random.default_rng(0).random((10, 3))
        assert np.allclose(interpolate_grid(field, coords), value)

    @staticmethod
    def corner_loop(field, coords):
        """Reference: one gather and one ``out +=`` per corner, in corner order."""
        sizes = field.shape[1:]
        idx0, frac = [], []
        for axis in range(3):
            n = sizes[axis]
            pos = np.clip(coords[:, axis], 0.0, 1.0) * max(n - 1, 1)
            i0 = (np.zeros(len(coords), dtype=np.int64) if n == 1
                  else np.clip(np.floor(pos).astype(np.int64), 0, n - 2))
            idx0.append(i0)
            frac.append(pos - i0)
        out = np.zeros((len(coords), field.shape[0]))
        for offsets in itertools.product((0, 1), repeat=3):
            weight = np.ones(len(coords))
            index = []
            for axis, offset in enumerate(offsets):
                weight = weight * (frac[axis] if offset == 1 else (1.0 - frac[axis]))
                index.append(np.minimum(idx0[axis] + offset, sizes[axis] - 1))
            out += weight[:, None] * field[:, index[0], index[1], index[2]].T
        return out

    @settings(max_examples=40, deadline=None)
    @given(st.tuples(*[st.integers(1, 5)] * 4), st.integers(0, 300), st.integers(0, 2**16),
           st.sampled_from([0.2, 1.0]))
    def test_corner_axis_is_the_corner_loop_byte_for_byte(self, shape, n_points, seed, zeros):
        """The eight corners as one axis add in the loop's order, onto the
        loop's zeros: the same bytes, signed zeros and clamped points included
        (an all ``-0.0`` field interpolates to ``+0.0``, as ``0.0 + -0.0`` does)."""
        rng = np.random.default_rng(seed)
        field = rng.standard_normal(shape)
        field[rng.random(shape) < zeros] = -0.0
        coords = rng.uniform(-0.3, 1.3, (n_points, 3))
        coords[rng.random(coords.shape) < 0.2] = 1.0
        got, want = interpolate_grid(field, coords), self.corner_loop(field, coords)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


class TestNormalizer:
    def test_transform_statistics(self, rng):
        data = rng.standard_normal((10, 4, 8, 8)) * 3.0 + 5.0
        norm = ChannelNormalizer().fit(data)
        out = norm.transform(data)
        assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        assert np.allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-6)

    def test_roundtrip(self, rng):
        data = rng.standard_normal((6, 4, 4, 4))
        norm = ChannelNormalizer().fit(data)
        assert np.allclose(norm.inverse_transform(norm.transform(data)), data)

    def test_channel_axis_argument(self, rng):
        data = rng.standard_normal((5, 7, 4))  # channels last
        norm = ChannelNormalizer().fit(data, channel_axis=-1)
        out = norm.transform(data, channel_axis=-1)
        assert np.allclose(out.mean(axis=(0, 1)), 0.0, atol=1e-10)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            ChannelNormalizer().transform(np.zeros((2, 4, 2, 2)))

    def test_state_dict_roundtrip(self, rng):
        data = rng.standard_normal((4, 4, 4, 4))
        norm = ChannelNormalizer().fit(data)
        norm2 = ChannelNormalizer.from_state_dict(norm.state_dict())
        assert np.allclose(norm2.transform(data), norm.transform(data))


class TestSuperResolutionDataset:
    def test_shapes(self, tiny_dataset):
        assert tiny_dataset.lr_shape == (8, 8, 16)
        assert tiny_dataset.hr_shape == (16, 16, 64)
        assert tiny_dataset.hr_crop_shape() == (7, 7, 29)

    def test_sample_batch_shapes(self, tiny_dataset):
        batch = tiny_dataset.sample_batch([0, 1, 2], epoch=0)
        assert isinstance(batch, Batch)
        assert batch.lowres.shape == (3, 4, 4, 4, 8)
        assert batch.coords.shape == (3, 32, 3)
        assert batch.targets.shape == (3, 32, 4)
        assert batch.coord_scales.shape == (3,)
        assert len(batch) == 3

    def test_sampling_deterministic(self, tiny_dataset):
        a = tiny_dataset.sample(3, epoch=1)
        b = tiny_dataset.sample(3, epoch=1)
        assert np.allclose(a.lowres, b.lowres)
        assert np.allclose(a.coords, b.coords)

    def test_sampling_varies_with_epoch_and_index(self, tiny_dataset):
        a = tiny_dataset.sample(0, epoch=0)
        b = tiny_dataset.sample(0, epoch=1)
        c = tiny_dataset.sample(1, epoch=0)
        assert not np.allclose(a.coords, b.coords)
        assert not np.allclose(a.coords, c.coords)

    def test_coords_in_unit_cube(self, tiny_dataset):
        batch = tiny_dataset.sample(0)
        assert batch.coords.min() >= 0.0 and batch.coords.max() <= 1.0

    def test_targets_match_manual_interpolation(self, synthetic_result):
        ds = SuperResolutionDataset(synthetic_result, lr_factors=(2, 2, 4),
                                    crop_shape_lr=(4, 4, 8), n_points=16, normalize=False, seed=1)
        batch = ds.sample(0)
        # Targets must lie within the range of the HR data (they are interpolants).
        assert batch.targets.min() >= synthetic_result.fields.min() - 1e-9
        assert batch.targets.max() <= synthetic_result.fields.max() + 1e-9

    def test_normalization_applied(self, synthetic_result):
        ds = SuperResolutionDataset(synthetic_result, lr_factors=(2, 2, 4),
                                    crop_shape_lr=(4, 4, 8), normalize=True)
        concat = np.concatenate([f.reshape(f.shape[0], 4, -1) for f in ds.hr_fields], axis=0)
        assert np.allclose(concat.mean(axis=(0, 2)), 0.0, atol=1e-8)

    def test_denormalize_roundtrip(self, tiny_dataset, synthetic_result):
        lr, hr, _ = tiny_dataset.evaluation_pair(0)
        restored = tiny_dataset.denormalize(hr, channel_axis=0)
        trimmed = synthetic_result.fields[:15, :, :15, :61]
        assert np.allclose(np.moveaxis(restored, 0, 1), trimmed, atol=1e-8)

    def test_evaluation_pair_shapes(self, tiny_dataset):
        lr, hr, extent = tiny_dataset.evaluation_pair(0)
        assert lr.shape == (4, 8, 8, 16)
        assert hr.shape == (4, 15, 15, 61)
        assert extent.shape == (3,)
        assert np.all(extent > 0)

    def test_crop_too_large_raises(self, synthetic_result):
        with pytest.raises(ValueError):
            SuperResolutionDataset(synthetic_result, lr_factors=(2, 2, 4), crop_shape_lr=(16, 4, 8))

    def test_mismatched_results_raise(self, synthetic_result):
        other = synthetic_convection(nt=8, nz=16, nx=64, seed=1)
        with pytest.raises(ValueError):
            SuperResolutionDataset([synthetic_result, other], lr_factors=(2, 2, 4), crop_shape_lr=(2, 4, 8))

    def test_multiple_datasets_sampled(self, synthetic_result):
        other = synthetic_convection(nt=16, nz=16, nx=64, seed=11)
        ds = SuperResolutionDataset([synthetic_result, other], lr_factors=(2, 2, 4),
                                    crop_shape_lr=(4, 4, 8), n_points=8, samples_per_epoch=64, seed=0)
        assert ds.n_datasets == 2


class TestDataLoader:
    def test_iteration_count(self, tiny_dataset):
        loader = DataLoader(tiny_dataset, batch_size=3)
        batches = list(loader)
        assert len(batches) == len(loader) == 3  # 8 samples / 3 -> 3 batches
        assert batches[-1].lowres.shape[0] == 2

    def test_drop_last(self, tiny_dataset):
        loader = DataLoader(tiny_dataset, batch_size=3, drop_last=True)
        assert len(list(loader)) == 2

    def test_sampler_restricts_indices(self, tiny_dataset):
        loader = DataLoader(tiny_dataset, batch_size=2, sampler=[0, 1])
        batches = list(loader)
        assert len(batches) == 1

    def test_set_epoch_changes_batches(self, tiny_dataset):
        loader = DataLoader(tiny_dataset, batch_size=2)
        first = next(iter(loader))
        loader.set_epoch(5)
        second = next(iter(loader))
        assert not np.allclose(first.coords, second.coords)

    def test_invalid_batch_size(self, tiny_dataset):
        with pytest.raises(ValueError):
            DataLoader(tiny_dataset, batch_size=0)

    def test_live_distributed_sampler(self, tiny_dataset):
        """A DistributedSampler is kept live: set_epoch propagates and the
        loader re-queries the shard for each epoch's global permutation."""
        from repro.distributed import DistributedSampler

        sampler = DistributedSampler(len(tiny_dataset), world_size=2, rank=0,
                                     shuffle=True, seed=3)
        loader = DataLoader(tiny_dataset, batch_size=2, sampler=sampler)
        assert len(loader) == 2  # 8 samples / 2 ranks / batch 2
        assert len(list(loader)) == 2

        epoch0_shard = sampler.indices()
        loader.set_epoch(1)
        assert sampler.epoch == 1  # propagated to the live sampler
        assert sampler.indices() != epoch0_shard

        # Per-rank loaders over the same epoch tile the global permutation.
        other = DataLoader(tiny_dataset, batch_size=2,
                           sampler=DistributedSampler(len(tiny_dataset), 2, 1,
                                                      shuffle=True, seed=3))
        other.set_epoch(1)
        combined = sorted(loader._indices() + other._indices())
        assert combined == list(range(len(tiny_dataset)))
