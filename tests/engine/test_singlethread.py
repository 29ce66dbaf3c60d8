"""Tests for the single-thread reference runner."""

import math

import pytest

from repro.engine.segments import Segment, stream_from_segments
from repro.engine.singlethread import run_single_thread
from repro.errors import ConfigurationError
from repro.workloads.synthetic import uniform_stream


class TestRunSingleThread:
    def test_matches_eq1_for_uniform_workload(self):
        # IPC_ST = IPM / (CPM + miss_lat) for a deterministic stream.
        stream = uniform_stream(ipc_no_miss=2.5, ipm=1_000)
        result = run_single_thread(stream, miss_lat=300, min_instructions=100_000)
        assert result.ipc == pytest.approx(1_000 / 700, rel=1e-6)

    def test_counts_misses(self):
        stream = stream_from_segments([Segment(100, 40)] * 5)
        result = run_single_thread(stream, miss_lat=300, min_instructions=10_000)
        assert result.misses == 5
        assert result.retired == pytest.approx(500)

    def test_miss_free_trailing_segment_adds_no_stall(self):
        stream = stream_from_segments(
            [Segment(100, 40), Segment(100, 40, ends_with_miss=False)]
        )
        result = run_single_thread(stream, miss_lat=300, min_instructions=10_000)
        assert result.cycles == pytest.approx(40 + 300 + 40)

    def test_stops_at_segment_boundary_after_min_instructions(self):
        stream = stream_from_segments([Segment(100, 40)] * 100)
        result = run_single_thread(stream, miss_lat=300, min_instructions=250)
        assert result.retired == pytest.approx(300)

    def test_zero_miss_latency(self):
        stream = uniform_stream(2.0, 500)
        result = run_single_thread(stream, miss_lat=0, min_instructions=10_000)
        assert result.ipc == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"miss_lat": -1},
            {"min_instructions": 0},
            {"miss_lat": math.nan},
            {"miss_lat": math.inf},
            {"min_instructions": math.nan},
            {"min_instructions": math.inf},
        ],
    )
    def test_rejects_bad_configuration(self, kwargs):
        stream = uniform_stream(2.0, 500)
        with pytest.raises(ConfigurationError):
            run_single_thread(stream, **kwargs)
