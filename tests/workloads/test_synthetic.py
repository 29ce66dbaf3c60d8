"""Tests for synthetic segment-stream generators."""

import itertools
import math

import pytest

from repro.errors import ConfigurationError
from repro.workloads import synthetic
from repro.workloads.pairs import SAME_BENCHMARK_OFFSET
from repro.workloads.spec2000 import get_profile
from repro.workloads.synthetic import (
    Phase,
    SegmentDistribution,
    make_stream,
    phased_stream,
    uniform_stream,
)


def take(stream, n):
    return list(itertools.islice(stream.segments(), n))


class TestSegmentDistribution:
    def test_deterministic_draw(self):
        import random

        dist = SegmentDistribution(ipc_no_miss=2.5, ipm=1_000)
        segment = dist.sampler(random.Random(0))()
        assert segment.instructions == pytest.approx(1_000)
        assert segment.cycles == pytest.approx(400)

    def test_cv_zero_is_exact(self):
        import random

        dist = SegmentDistribution(2.0, 500, ipm_cv=0.0, ipc_cv=0.0)
        draw = dist.sampler(random.Random(42))
        for _ in range(10):
            segment = draw()
            assert segment.instructions == pytest.approx(500)
            assert segment.ipc == pytest.approx(2.0)

    def test_lognormal_mean_approximates_ipm(self):
        import random

        dist = SegmentDistribution(2.0, 1_000, ipm_cv=0.7)
        draw = dist.sampler(random.Random(7))
        draws = [draw().instructions for _ in range(20_000)]
        assert sum(draws) / len(draws) == pytest.approx(1_000, rel=0.05)

    def test_cpm_property(self):
        assert SegmentDistribution(2.0, 1_000).cpm == pytest.approx(500)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            SegmentDistribution(0, 100)
        with pytest.raises(ConfigurationError):
            SegmentDistribution(2, 100, ipm_cv=-1)
        for bad in ({"ipc_no_miss": math.nan}, {"ipm": math.inf},
                    {"ipm_cv": math.nan}, {"ipc_cv": math.inf}):
            with pytest.raises(ConfigurationError):
                SegmentDistribution(**{"ipc_no_miss": 2, "ipm": 100, **bad})


class TestUniformStream:
    def test_restartable_and_deterministic(self):
        stream = uniform_stream(2.0, 1_000, ipm_cv=0.5, seed=3)
        first = [(s.instructions, s.cycles) for s in take(stream, 50)]
        second = [(s.instructions, s.cycles) for s in take(stream, 50)]
        assert first == second

    def test_different_seeds_differ(self):
        a = take(uniform_stream(2.0, 1_000, ipm_cv=0.5, seed=1), 20)
        b = take(uniform_stream(2.0, 1_000, ipm_cv=0.5, seed=2), 20)
        assert [s.instructions for s in a] != [s.instructions for s in b]

    def test_stream_is_effectively_infinite(self):
        stream = uniform_stream(2.0, 100)
        assert len(take(stream, 10_000)) == 10_000

    def test_skip_offsets_the_stream(self):
        base = take(uniform_stream(2.0, 1_000, ipm_cv=0.5, seed=9), 30)
        skipped = take(
            uniform_stream(2.0, 1_000, ipm_cv=0.5, seed=9, skip_instructions=2_500),
            30,
        )
        # The skipped stream starts mid-way: its early segments differ.
        assert [s.instructions for s in base[:5]] != [
            s.instructions for s in skipped[:5]
        ]

    def test_skip_preserves_rate(self):
        skipped = take(
            uniform_stream(2.5, 1_000, seed=0, skip_instructions=350), 5
        )
        for segment in skipped:
            assert segment.ipc == pytest.approx(2.5, rel=1e-6)


class TestPhasedStream:
    def test_phases_alternate(self):
        fast = SegmentDistribution(3.0, 1_000)
        slow = SegmentDistribution(1.0, 200)
        stream = phased_stream([(fast, 3_000), (slow, 1_000)], seed=0)
        segments = take(stream, 20)
        ipcs = [round(s.ipc, 1) for s in segments]
        assert 3.0 in ipcs and 1.0 in ipcs

    def test_phase_lengths_respected(self):
        fast = SegmentDistribution(3.0, 1_000)
        slow = SegmentDistribution(1.0, 200)
        stream = phased_stream([(fast, 3_000), (slow, 1_000)], seed=0)
        segments = take(stream, 8)
        # 3 fast segments (3000 instr), then 5 slow (1000), then repeat.
        assert [round(s.ipc) for s in segments] == [3, 3, 3, 1, 1, 1, 1, 1]

    def test_rejects_empty_phases(self):
        with pytest.raises(ConfigurationError):
            make_stream([])

    def test_rejects_non_positive_phase_length(self):
        with pytest.raises(ConfigurationError):
            Phase(SegmentDistribution(2.0, 100), 0)


class TestStreamMemo:
    """Streams are recorded once per process and replayed."""

    def test_skip_offset_replay_equals_fresh_draw(self, fresh_memo):
        """gcc:gcc's second thread, drawn then replayed, against the
        generator itself."""
        stream = get_profile("gcc").stream(
            seed=2, skip_instructions=SAME_BENCHMARK_OFFSET
        )
        phases = tuple(get_profile("gcc")._phases())
        fresh = list(
            itertools.islice(
                synthetic._generate(phases, 2, SAME_BENCHMARK_OFFSET), 5_000
            )
        )
        memo = fresh_memo()
        assert take(stream, 5_000) == fresh
        assert take(stream, 5_000) == fresh
        assert memo.size == 5_000

    def test_recorded_total_stays_under_cap(self, fresh_memo):
        memo = fresh_memo(capacity=3_000)
        for seed in range(4):
            take(uniform_stream(2.0, 1_000, ipm_cv=0.5, seed=seed), 1_200)
            assert memo.size <= memo.capacity
            assert memo.size == sum(
                len(recording.instructions)
                for recording in memo.recordings.values()
            )
        # The two most recently used streams are kept whole.
        assert [key[1] for key in memo.recordings] == [2, 3]

    def test_constant_streams_are_not_recorded(self, fresh_memo):
        memo = fresh_memo()
        take(uniform_stream(2.0, 1_000, seed=1), 100)
        assert memo.size == 0 and not memo.recordings
