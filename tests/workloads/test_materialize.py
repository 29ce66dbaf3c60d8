"""Tests for column-oriented segment materialization."""

import math

import pytest

from repro.engine.segments import Segment, stream_from_segments
from repro.errors import ConfigurationError
from repro.workloads.materialize import ChunkedMaterializer
from repro.workloads.synthetic import uniform_stream


class TestChunkedMaterializer:
    def test_chunks_preserve_stream_order(self):
        stream = uniform_stream(2.5, 1_000, ipm_cv=0.8, ipc_cv=0.2, seed=7)
        materializer = ChunkedMaterializer(stream, chunk_size=16)
        columns = []
        for _ in range(4):
            chunk = materializer.take()
            assert len(chunk) == 16
            assert not chunk.exhausted
            columns.append(chunk)

        reference = stream.segments()
        for chunk in columns:
            for index in range(len(chunk)):
                assert chunk.segment_at(index) == next(reference)

    def test_identical_to_scalar_iteration(self):
        # The columns must come from the same iterator protocol the
        # scalar engine uses: values match bit-for-bit, not just
        # approximately.
        stream = uniform_stream(1.8, 500, ipm_cv=1.0, ipc_cv=0.3, seed=42)
        chunk = ChunkedMaterializer(stream, chunk_size=64).take()
        for index, segment in zip(range(len(chunk)), stream.segments()):
            assert chunk.instructions[index] == segment.instructions
            assert chunk.cycles[index] == segment.cycles

    def test_finite_stream_sets_exhausted(self):
        segments = [Segment(100.0, 40.0) for _ in range(5)]
        materializer = ChunkedMaterializer(
            stream_from_segments(segments), chunk_size=3
        )
        first = materializer.take()
        assert len(first) == 3 and not first.exhausted
        second = materializer.take()
        assert len(second) == 2 and second.exhausted
        assert materializer.exhausted
        third = materializer.take()
        assert len(third) == 0 and third.exhausted

    def test_exact_boundary_exhaustion(self):
        # A stream ending exactly at a chunk boundary reports exhaustion
        # on the next (empty) take, never loses the final row.
        segments = [Segment(10.0, 5.0) for _ in range(4)]
        materializer = ChunkedMaterializer(
            stream_from_segments(segments), chunk_size=2
        )
        assert len(materializer.take()) == 2
        assert len(materializer.take()) == 2
        final = materializer.take()
        assert len(final) == 0 and final.exhausted

    def test_take_counts_override_chunk_size(self):
        stream = uniform_stream(2.0, 100, seed=1)
        materializer = ChunkedMaterializer(stream, chunk_size=8)
        assert len(materializer.take(3)) == 3
        assert len(materializer.take(20)) == 20
        assert materializer.materialized == 23

    def test_invalid_parameters_raise(self):
        stream = uniform_stream(2.0, 100, seed=1)
        with pytest.raises(ConfigurationError):
            ChunkedMaterializer(stream, chunk_size=0)
        with pytest.raises(ConfigurationError):
            ChunkedMaterializer(stream).take(0)


class TestColumnEncoding:
    def test_default_latency_encodes_as_nan(self):
        segments = [
            Segment(10.0, 5.0),
            Segment(10.0, 5.0, miss_latency=75.0),
            Segment(10.0, 5.0, ends_with_miss=False),
        ]
        chunk = ChunkedMaterializer(stream_from_segments(segments)).take()
        assert math.isnan(chunk.miss_latency[0])
        assert chunk.miss_latency[1] == 75.0
        assert chunk.ends_with_miss == [True, True, False]

    def test_segment_round_trip(self):
        segments = [
            Segment(10.0, 5.0, miss_latency=75.0),
            Segment(3.0, 2.0, ends_with_miss=False),
        ]
        chunk = ChunkedMaterializer(stream_from_segments(segments)).take()
        assert [chunk.segment_at(0), chunk.segment_at(1)] == segments
