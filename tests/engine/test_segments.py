"""Tests for segment abstractions."""

import copy
import math
import pickle

import pytest

from repro.engine.segments import Segment, stream_from_segments
from repro.errors import ConfigurationError, WorkloadError


class TestSegment:
    def test_ipc(self):
        assert Segment(instructions=1_000, cycles=400).ipc == pytest.approx(2.5)

    def test_defaults_to_miss_terminated(self):
        assert Segment(10, 5).ends_with_miss

    @pytest.mark.parametrize("instructions,cycles", [(0, 1), (-1, 1), (1, 0), (1, -1)])
    def test_rejects_non_positive(self, instructions, cycles):
        with pytest.raises(ConfigurationError):
            Segment(instructions, cycles)

    def test_is_immutable(self):
        segment = Segment(10, 5)
        with pytest.raises(AttributeError):
            segment.instructions = 20

    def test_rejects_deletion_and_new_attributes(self):
        segment = Segment(10, 5)
        with pytest.raises(AttributeError):
            del segment.cycles
        with pytest.raises(AttributeError):
            segment.extra = 1
        assert segment.cycles == 5

    def test_equality_and_hash_follow_the_fields(self):
        a = Segment(10.0, 5.0)
        b = Segment(instructions=10.0, cycles=5.0, ends_with_miss=True)
        assert a == b and hash(a) == hash(b)
        assert a != Segment(10.0, 5.0, ends_with_miss=False)
        assert a != Segment(10.0, 5.0, miss_latency=300.0)
        assert a != Segment(10.0, 6.0)
        assert a != (10.0, 5.0, True, None)
        assert len({a, b, Segment(10.0, 5.0, miss_latency=40.0)}) == 2

    def test_repr_names_every_field(self):
        assert repr(Segment(10, 5.5, miss_latency=40.0)) == (
            "Segment(instructions=10, cycles=5.5, ends_with_miss=True, "
            "miss_latency=40.0)"
        )

    def test_match_args(self):
        match Segment(3.0, 2.0, False):
            case Segment(instructions, cycles, ends_with_miss, latency):
                assert (instructions, cycles, ends_with_miss, latency) == (
                    3.0, 2.0, False, None
                )

    @pytest.mark.parametrize(
        "clone",
        [lambda s: pickle.loads(pickle.dumps(s)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_round_trips(self, clone):
        segment = Segment(12.5, 4.0, ends_with_miss=False, miss_latency=30.0)
        twin = clone(segment)
        assert twin == segment
        assert type(twin) is Segment
        assert twin.ipc == segment.ipc

    @pytest.mark.parametrize(
        "args,message",
        [
            ((0, 1), "segment instructions must be positive, got 0"),
            ((math.inf, 1), "segment instructions must be positive, got inf"),
            ((math.nan, 1), "segment instructions must be positive, got nan"),
            ((1, -2.5), "segment cycles must be positive, got -2.5"),
            ((1, math.nan), "segment cycles must be positive, got nan"),
            ((1, 1, True, -1.0), "miss_latency must be non-negative"),
        ],
    )
    def test_check_messages(self, args, message):
        with pytest.raises(ConfigurationError) as excinfo:
            Segment(*args)
        assert str(excinfo.value) == message


class TestStreamFromSegments:
    def test_replays_identically(self):
        stream = stream_from_segments([Segment(10, 5), Segment(20, 8)])
        first = list(stream.segments())
        second = list(stream.segments())
        assert first == second
        assert len(first) == 2

    def test_iterators_are_independent(self):
        stream = stream_from_segments([Segment(10, 5), Segment(20, 8)])
        it1 = stream.segments()
        it2 = stream.segments()
        next(it1)
        assert next(it2).instructions == 10

    def test_rejects_empty(self):
        with pytest.raises(WorkloadError):
            stream_from_segments([])

    def test_keeps_name(self):
        stream = stream_from_segments([Segment(1, 1)], name="toy")
        assert stream.name == "toy"
