"""Utility helpers: seeding, timing, grids."""

import time

import numpy as np
import pytest

from repro.utils import (
    LatencyWindow,
    Timer,
    crop_slices,
    normalized_axis,
    percentile,
    percentiles,
    seed_everything,
    temporary_seed,
    tile_windows,
)


class TestSeeding:
    def test_seed_everything_returns_generator(self):
        rng = seed_everything(42)
        assert isinstance(rng, np.random.Generator)

    def test_reproducible_draws(self):
        a = seed_everything(7).random(5)
        b = seed_everything(7).random(5)
        assert np.allclose(a, b)

    def test_temporary_seed_restores_state(self):
        np.random.seed(0)
        before = np.random.random()
        np.random.seed(0)
        with temporary_seed(99):
            np.random.random()
        after = np.random.random()
        assert before == after


class TestTimer:
    def test_context_manager(self):
        with Timer() as t:
            time.sleep(0.01)
        assert t.elapsed >= 0.009

    def test_stop_before_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_reset(self):
        t = Timer()
        with t:
            pass
        t.reset()
        assert t.elapsed == 0.0

    def test_reenter_resumes_by_default(self):
        # Regression pin: the default Timer *accumulates* across re-entry
        # (resume semantics), it does not silently restart from zero.
        t = Timer()
        with t:
            time.sleep(0.005)
        first = t.elapsed
        assert first > 0.0
        with t:
            time.sleep(0.005)
        assert t.elapsed >= first + 0.004

    def test_reset_on_enter(self):
        t = Timer(reset_on_enter=True)
        with t:
            time.sleep(0.01)
        assert t.elapsed >= 0.009
        with t:
            pass
        # The second block measured from zero, not from the first run's total.
        assert t.elapsed < 0.009


class TestPercentiles:
    def test_percentile_matches_numpy(self):
        data = np.arange(101, dtype=np.float64)
        assert percentile(data, 50) == pytest.approx(50.0)
        assert percentile(data, 95) == pytest.approx(95.0)
        assert percentile(data, 0) == 0.0 and percentile(data, 100) == 100.0

    def test_percentiles_dict(self):
        out = percentiles([1.0, 2.0, 3.0, 4.0], ps=(50, 99))
        assert set(out) == {50.0, 99.0}
        assert out[50.0] == pytest.approx(2.5)

    def test_empty_and_out_of_range_raise(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestLatencyWindow:
    def test_rolling_summary(self):
        window = LatencyWindow(maxlen=4)
        for v in (1.0, 2.0, 3.0, 4.0, 5.0):  # 1.0 falls out of the window
            window.record(v)
        assert len(window) == 4 and window.count == 5
        summary = window.summary()
        assert summary["count"] == 5
        assert summary["total"] == 15.0  # lifetime, like count
        assert summary["max"] == 5.0
        assert summary["p50"] == pytest.approx(3.5)  # windowed: 1.0 is gone
        assert window.percentile(50) == pytest.approx(3.5)

    def test_empty_summary_is_nans(self):
        # Documented contract: an empty window reports "no data" as NaN
        # statistics (never a fake zero latency) with count == 0.
        import math

        summary = LatencyWindow().summary()
        assert summary["count"] == 0 and summary["total"] == 0.0
        for key in ("mean", "max", "p50", "p95", "p99"):
            assert math.isnan(summary[key])

    def test_thread_safe_recording(self):
        import threading

        window = LatencyWindow(maxlen=10_000)
        def worker():
            for _ in range(500):
                window.record(0.001)
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert window.count == 2000

    def test_invalid_maxlen(self):
        with pytest.raises(ValueError):
            LatencyWindow(maxlen=0)


class TestGrids:
    def test_normalized_axis(self):
        assert np.allclose(normalized_axis(3), [0, 0.5, 1.0])
        assert np.allclose(normalized_axis(1), [0.0])
        with pytest.raises(ValueError):
            normalized_axis(0)

    def test_crop_slices(self):
        slices = crop_slices((10, 10), (4, 5), (2, 3))
        assert slices == (slice(2, 6), slice(3, 8))

    def test_crop_slices_out_of_bounds(self):
        with pytest.raises(ValueError):
            crop_slices((10,), (5,), (7,))

    def test_crop_slices_rank_mismatch(self):
        with pytest.raises(ValueError):
            crop_slices((10, 10), (4,), (0, 0))

    def test_tile_windows_covers_axis(self):
        starts = list(tile_windows(10, 4, stride=4))
        assert starts == [0, 4, 6]
        covered = set()
        for s in starts:
            covered |= set(range(s, s + 4))
        assert covered == set(range(10))

    def test_tile_windows_exact_fit(self):
        assert list(tile_windows(8, 4)) == [0, 4]

    def test_tile_windows_too_large(self):
        with pytest.raises(ValueError):
            list(tile_windows(3, 5))
