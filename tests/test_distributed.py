"""Distributed substrate: all-reduce, communicator, sampler, buckets, performance model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import (
    ClusterSpec,
    DistributedSampler,
    GradientBuckets,
    ScalingPerformanceModel,
    SimulatedCommunicator,
    naive_allreduce,
    reduce_scatter_allgather_cost,
    ring_allreduce,
)
from repro.nn.module import Parameter


class TestAllReduce:
    @pytest.mark.parametrize("world_size", [1, 2, 3, 4, 8])
    def test_ring_equals_sum(self, world_size, rng):
        buffers = [rng.standard_normal(37) for _ in range(world_size)]
        expected = np.sum(buffers, axis=0)
        results, stats = ring_allreduce(buffers)
        assert all(np.allclose(r, expected) for r in results)
        assert stats.world_size == world_size

    def test_ring_average(self, rng):
        buffers = [rng.standard_normal((3, 4)) for _ in range(4)]
        results, _ = ring_allreduce(buffers, average=True)
        assert np.allclose(results[0], np.mean(buffers, axis=0))

    def test_naive_equals_ring(self, rng):
        buffers = [rng.standard_normal(10) for _ in range(5)]
        ring, _ = ring_allreduce(buffers)
        naive, _ = naive_allreduce(buffers)
        assert np.allclose(ring[0], naive[0])

    @pytest.mark.parametrize("fn", [ring_allreduce, naive_allreduce])
    def test_single_rank_moves_no_bytes(self, fn, rng):
        """A world of one never crosses a link, whichever algorithm runs."""
        results, stats = fn([rng.standard_normal(12)])
        assert stats.bytes_per_rank == 0
        assert len(results) == 1

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            ring_allreduce([rng.standard_normal(4), rng.standard_normal(5)])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ring_allreduce([])

    def test_ring_bandwidth_advantage(self, rng):
        """Per-rank traffic of the ring algorithm is ~2(N-1)/N of the buffer size."""
        n = 8
        buffers = [rng.standard_normal(800) for _ in range(n)]
        _, ring_stats = ring_allreduce(buffers)
        per_rank_ratio = ring_stats.bytes_per_rank / buffers[0].nbytes
        assert per_rank_ratio == pytest.approx(2 * (n - 1) / n, rel=0.15)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=40))
    def test_ring_correct_property(self, world_size, length):
        rng = np.random.default_rng(world_size * 100 + length)
        buffers = [rng.standard_normal(length) for _ in range(world_size)]
        results, _ = ring_allreduce(buffers)
        assert np.allclose(results[-1], np.sum(buffers, axis=0), atol=1e-9)

    def test_analytic_cost_monotone_in_message_size(self):
        small = reduce_scatter_allgather_cost(16, 1_000, 1e9, 1e-6)
        large = reduce_scatter_allgather_cost(16, 1_000_000, 1e9, 1e-6)
        assert large > small

    def test_analytic_cost_zero_for_single_rank(self):
        assert reduce_scatter_allgather_cost(1, 100, 1e9, 1e-6) == 0.0

    def test_float32_buffers_stay_float32(self, rng):
        """The collective runs in the gradients' own precision (as NCCL would)."""
        buffers = [rng.standard_normal(16).astype(np.float32) for _ in range(3)]
        results, _ = ring_allreduce(buffers, average=True)
        assert all(r.dtype == np.float32 for r in results)
        naive, _ = naive_allreduce(buffers)
        assert naive[0].dtype == np.float32

    def test_mixed_dtypes_promote(self, rng):
        buffers = [rng.standard_normal(8).astype(np.float32), rng.standard_normal(8)]
        results, _ = ring_allreduce(buffers)
        assert results[0].dtype == np.float64

    def test_integer_buffers_promote_to_float64(self):
        results, _ = ring_allreduce([np.arange(6), np.arange(6)])
        assert results[0].dtype == np.float64
        assert np.allclose(results[0], 2 * np.arange(6))


class TestCommunicator:
    def test_allreduce_counts_bytes(self, rng):
        comm = SimulatedCommunicator(4)
        comm.allreduce([rng.standard_normal(16) for _ in range(4)])
        assert comm.total_bytes > 0
        assert comm.num_collectives == 1

    def test_wrong_buffer_count(self, rng):
        comm = SimulatedCommunicator(3)
        with pytest.raises(ValueError):
            comm.allreduce([rng.standard_normal(4)] * 2)

    def test_broadcast(self, rng):
        comm = SimulatedCommunicator(3)
        out = comm.broadcast(rng.standard_normal(5), root=0)
        assert len(out) == 3 and np.allclose(out[0], out[2])

    def test_invalid_algorithm(self):
        with pytest.raises(ValueError):
            SimulatedCommunicator(2, algorithm="tree")

    def test_reset_stats(self, rng):
        comm = SimulatedCommunicator(2)
        comm.allreduce([rng.standard_normal(4)] * 2)
        comm.reset_stats()
        assert comm.total_bytes == 0


class TestDistributedSampler:
    def test_partition_covers_all_indices(self):
        world = 4
        samplers = [DistributedSampler(100, world, r, shuffle=True, seed=1) for r in range(world)]
        combined = sorted(i for s in samplers for i in s.indices())
        assert set(combined) >= set(range(100))

    def test_disjoint_without_padding(self):
        world = 4
        samplers = [DistributedSampler(100, world, r, shuffle=False, seed=0) for r in range(world)]
        all_indices = [i for s in samplers for i in s.indices()]
        assert len(all_indices) == len(set(all_indices)) == 100

    def test_equal_length_per_rank(self):
        samplers = [DistributedSampler(10, 3, r) for r in range(3)]
        lengths = {len(s) for s in samplers}
        assert lengths == {4}

    def test_epoch_changes_permutation(self):
        s = DistributedSampler(50, 2, 0, shuffle=True, seed=0)
        first = s.indices()
        s.set_epoch(1)
        assert s.indices() != first

    def test_same_permutation_across_ranks(self):
        a = DistributedSampler(20, 2, 0, seed=3)
        b = DistributedSampler(20, 2, 1, seed=3)
        assert np.array_equal(a.global_permutation(), b.global_permutation())

    def test_validation(self):
        with pytest.raises(ValueError):
            DistributedSampler(10, 2, 5)
        with pytest.raises(ValueError):
            DistributedSampler(0, 1, 0)


class TestGradientBuckets:
    def _params(self, rng, shapes):
        return [Parameter(rng.standard_normal(s)) for s in shapes]

    def _grads(self, rng, params):
        """Gradients in the parameters' own (policy-dependent) dtype."""
        return [rng.standard_normal(p.shape).astype(p.data.dtype) for p in params]

    def test_roundtrip(self, rng):
        params = self._params(rng, [(3, 4), (7,), (2, 2, 2)])
        buckets = GradientBuckets(params)
        grads = self._grads(rng, params)
        flat = buckets.flatten(grads)
        back = buckets.unflatten(flat)
        for g, b in zip(grads, back):
            assert np.array_equal(g, b)

    def test_small_capacity_creates_multiple_buckets(self, rng):
        params = self._params(rng, [(64,), (64,), (64,)])
        itemsize = params[0].data.dtype.itemsize
        buckets = GradientBuckets(params, bucket_bytes=64 * itemsize)
        assert buckets.num_buckets == 3

    def test_parameter_never_split_across_buckets(self, rng):
        params = self._params(rng, [(100,), (8,)])
        buckets = GradientBuckets(params, bucket_bytes=16)  # smaller than one param
        assert buckets.num_buckets == 2
        bucket, start, end = buckets.layout[0]
        assert (start, end) == (0, 100)

    def test_none_gradients_pack_as_zeros(self, rng):
        params = self._params(rng, [(4,), (5,)])
        buckets = GradientBuckets(params)
        flat = buckets.flatten([None, np.ones(5)])
        assert np.allclose(flat[0][:4], 0.0)
        assert np.allclose(flat[0][4:], 1.0)

    def test_assign_writes_grads(self, rng):
        params = self._params(rng, [(4,), (2, 3)])
        buckets = GradientBuckets(params)
        grads = self._grads(rng, params)
        buckets.assign(params, buckets.flatten(grads))
        for p, g in zip(params, grads):
            assert np.array_equal(p.grad, g)

    def test_float32_params_give_float32_buckets(self, rng):
        params = [Parameter(rng.standard_normal(6), dtype="float32")]
        buckets = GradientBuckets(params)
        assert buckets.dtype == np.float32

    def test_allreduce_through_buckets_matches_mean(self, rng):
        params = self._params(rng, [(33,), (9,)])
        buckets = GradientBuckets(params, bucket_bytes=128)
        per_rank = [[rng.standard_normal(p.shape) for p in params] for _ in range(3)]
        flats = [buckets.flatten(g) for g in per_rank]
        reduced = [ring_allreduce([f[b] for f in flats], average=True)[0][0]
                   for b in range(buckets.num_buckets)]
        got = buckets.unflatten(reduced)
        for i in range(len(params)):
            want = np.mean([per_rank[r][i] for r in range(3)], axis=0)
            assert np.allclose(got[i], want, atol=1e-12)

    def test_shape_mismatch_raises(self, rng):
        params = self._params(rng, [(4,)])
        buckets = GradientBuckets(params)
        with pytest.raises(ValueError):
            buckets.flatten([np.zeros(5)])
        with pytest.raises(ValueError):
            buckets.flatten([np.zeros(4), np.zeros(4)])
        with pytest.raises(ValueError):
            GradientBuckets(params, bucket_bytes=0)


class TestPerformanceModel:
    def test_efficiency_bounds(self):
        model = ScalingPerformanceModel()
        for n in (1, 2, 8, 32, 128):
            eff = model.efficiency(n)
            assert 0.0 < eff <= 1.0 + 1e-12

    def test_single_worker_is_ideal(self):
        model = ScalingPerformanceModel()
        assert model.efficiency(1) == pytest.approx(1.0)

    def test_throughput_increases_with_workers(self):
        model = ScalingPerformanceModel()
        tps = [model.throughput(n) for n in (1, 2, 16, 128)]
        assert all(b > a for a, b in zip(tps, tps[1:]))

    def test_matches_paper_headline_efficiency(self):
        """Default calibration reproduces ≈96.8% efficiency at 128 GPUs (Fig. 7a)."""
        model = ScalingPerformanceModel()
        assert model.efficiency(128) == pytest.approx(0.968, abs=0.015)

    def test_throughput_magnitude_matches_paper(self):
        model = ScalingPerformanceModel()
        assert 1.7e3 < model.throughput(128) < 2.1e3

    def test_overlap_improves_efficiency(self):
        base = ScalingPerformanceModel(overlap_fraction=0.0)
        overlapped = ScalingPerformanceModel(overlap_fraction=0.9)
        assert overlapped.efficiency(128) > base.efficiency(128)

    def test_epoch_time_decreases_with_workers(self):
        model = ScalingPerformanceModel()
        assert model.epoch_time(128) < model.epoch_time(1)
        assert model.training_time(16, 100) == pytest.approx(100 * model.epoch_time(16))

    def test_steps_per_epoch(self):
        model = ScalingPerformanceModel(samples_per_epoch=3000, batch_size_per_worker=16)
        assert model.steps_per_epoch(1) == int(np.ceil(3000 / 16))
        assert model.steps_per_epoch(128) == 2

    def test_intra_vs_inter_node_bandwidth(self):
        spec = ClusterSpec()
        assert spec.bandwidth(8) > spec.bandwidth(16)
        assert spec.latency(8) < spec.latency(16)

    def test_validation(self):
        with pytest.raises(ValueError):
            ScalingPerformanceModel(overlap_fraction=1.5)
        with pytest.raises(ValueError):
            ScalingPerformanceModel(n_parameters=0)

    def test_evaluate_returns_points(self):
        model = ScalingPerformanceModel()
        points = model.evaluate([1, 2, 4])
        assert [p.world_size for p in points] == [1, 2, 4]
        assert all(p.step_time > 0 for p in points)
