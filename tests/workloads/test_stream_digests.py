"""Pinned digests of the synthetic segment streams.

Every figure of the evaluation grid is computed from these streams, so
any change to how segments are drawn (the lognormal sampler, the rng
call order, phase switching, the same-pair skip) must leave them
bit-identical. Each digest is the SHA-256 of the first
:data:`SEGMENTS` segments, packed as little-endian
``(instructions, cycles, ends_with_miss)``. The draws go through
``random.Random.random``, whose output is the same on every CPython
version the project supports.

Streams are recorded once per process and replayed after that
(``repro.workloads.synthetic._StreamMemo``), so the digests are also
checked on replays, on interleaved iterators and across evictions.
"""

from __future__ import annotations

import hashlib
import itertools
import struct

import pytest

from repro.workloads.pairs import SAME_BENCHMARK_OFFSET
from repro.workloads.spec2000 import benchmark_names, get_profile
from repro.workloads.synthetic import SegmentDistribution, phased_stream

SEGMENTS = 20_000

#: Every profile at stream seed 1, the first thread's seed of config
#: seed 0 (``BenchmarkPair.stream_specs``).
PROFILE_DIGESTS = {
    "ammp": "d8ea8bdd3817260dad243cc1b02761adece1059feccc7c7d34b9429546541266",
    "applu": "4ebd2e264d70c37be5cbd8973d8049b18c6ae668355c2b80a635c03fba479789",
    "apsi": "0935b368bb4f50f60c4ebdf96cbb99042ab5c381dc25decb91af54c37206e35a",
    "art": "358e2e466d7985ef492e4548d03ae644ca093e14e1413f2bfc6d7bb4b4010490",
    "bzip2b": "0bb0b0cc8d6faccef68a0edf94ed7bb88941a4b382900bfd0876280b2ae2c20e",
    "crafty": "a3e156ac220c904109966f659d60ff5184912ac4182153d4d72d654e679ba800",
    "eon": "12107783ffd815502299a6a9b9278a59de2937b3f86ff7080f103138b945c5f1",
    "equake": "f0651b8d4399938ccfdd3040156957208467373d4196c4cbeaf7329cb4ed2090",
    "facerec": "761340ac2dc2d0d8e29ea7c2ea4b80ca2c5a5f91dded0be8510c061c776391b6",
    "fma3d": "4b242d7d3fe96876c7ea3eab32bd10fe56f8659e0f577eaeb895dd9ba5b13106",
    "galgel": "f5df72549ee84d81487b049aa0204af1b0d3906e4ed1b0ccb9475ae812fe3e2b",
    "gcc": "54e60d4d3c614758485b2933b125da32e5dde0dcaa4b56fcc5a6033386ec8334",
    "lucas": "a4f952744f8c05b12e234dca032957c8422bc39e770106492e03e4b74a869489",
    "mcf": "44299f5ab045877e8d0d57ffb73da049bd848b968e88b96f671e674ff76f1bdd",
    "mesa": "8beaf5b2c5e86038d2d0632a13346287b544bd3fe865718c0229441485500a8c",
    "mgrid": "fafa6b65b4be9c267abfea988e4449929590247dd64e6172348f42a1f4994851",
    "parser": "5eed23f3571ea77bce0d46269d22d9a2df063a5f03a0a9ffd48716773a5a82dc",
    "perlbmk": "4222dc2dde1ab7983c1c806f343499d3318c24418193db0124d614895dc03639",
    "sixtrack": "a0b61124a726b08f19006df48f16a205bb8f0825edb8986d84444f559b28edb6",
    "swim": "84b8b21295be3993ca632ca271c993750f8f9fe44459d5927625a6c084ef4eb2",
    "twolf": "fba1d782c4d99f315215eaf578f5c350d7665112e5c040d9730a5f4095dd4b7b",
    "vortex": "98b1a126ae84e9d8ee8138e30e4f4c7ffe74d33231be9f16ac6c37360fa75421",
    "vpr": "4aed0d6460bcba186b6cae42a304d113a6744a31b53e2d95d7eb987c5bbddda1",
    "wupwise": "6a61b302c55b0fe9748c3f1de7140f1a5f5a95738968ef564df04727abb6e823",
}


def _digest_of(segments) -> str:
    h = hashlib.sha256()
    for segment in segments:
        h.update(
            struct.pack(
                "<dd?", segment.instructions, segment.cycles, segment.ends_with_miss
            )
        )
    return h.hexdigest()


def _digest(stream) -> str:
    return _digest_of(itertools.islice(stream.segments(), SEGMENTS))


def test_every_profile_is_pinned():
    assert sorted(PROFILE_DIGESTS) == benchmark_names()


@pytest.mark.parametrize("name", sorted(PROFILE_DIGESTS))
def test_profile_stream(name):
    assert _digest(get_profile(name).stream(seed=1)) == PROFILE_DIGESTS[name]


def test_same_pair_second_thread():
    """gcc:gcc's second thread: stream seed 2, offset by the paper's
    1,000,000 instructions, so the skip splits a segment."""
    stream = get_profile("gcc").stream(
        seed=2, skip_instructions=SAME_BENCHMARK_OFFSET
    )
    assert _digest(stream) == (
        "b2bc7049578f17d7a734846e66033a7fb903eeb84d58b1fd126042326dd9dbb7"
    )


def test_phased_stream():
    stream = phased_stream(
        [
            (SegmentDistribution(2.0, 3_000, ipm_cv=0.5, ipc_cv=0.2), 200_000),
            (SegmentDistribution(1.2, 400, ipm_cv=1.0), 100_000),
            (SegmentDistribution(2.5, 5_000), 50_000),
        ],
        seed=7,
    )
    assert _digest(stream) == (
        "08a406af58a5630eaa5e479807af7673bf188025dabc4e5102b9d90431a134ab"
    )


@pytest.mark.parametrize("name", sorted(PROFILE_DIGESTS))
def test_profile_stream_replayed(name, fresh_memo):
    """The first pass draws and records the stream; the second replays
    the recording."""
    fresh_memo()
    stream = get_profile(name).stream(seed=1)
    assert _digest(stream) == PROFILE_DIGESTS[name]
    assert _digest(stream) == PROFILE_DIGESTS[name]


def test_interleaved_iterators(fresh_memo):
    """Two iterators of one stream, advanced alternately in uneven
    steps, each see the whole sequence: the leader draws, the other
    replays, and they swap roles."""
    fresh_memo()
    stream = get_profile("gcc").stream(seed=1)
    iterators = [stream.segments(), stream.segments()]
    seen = [[], []]
    steps = itertools.cycle([(0, 7), (1, 3), (1, 11), (0, 2), (0, 13), (1, 1)])
    while min(len(s) for s in seen) < SEGMENTS:
        which, count = next(steps)
        seen[which].extend(itertools.islice(iterators[which], count))
    for segments in seen:
        assert _digest_of(segments[:SEGMENTS]) == PROFILE_DIGESTS["gcc"]


def test_eviction_keeps_every_iterator_whole(fresh_memo):
    """With a memo smaller than one pass, the stream is evicted while
    two iterators read it: the leader keeps the live generator, the one
    behind redraws, and a later re-read records the stream again."""
    memo = fresh_memo(capacity=1_000)
    stream = get_profile("mcf").stream(seed=1)
    behind, leader = stream.segments(), stream.segments()
    head = list(itertools.islice(behind, 500))
    assert _digest_of(itertools.islice(leader, SEGMENTS)) == PROFILE_DIGESTS["mcf"]
    assert memo.size <= memo.capacity
    rest = itertools.islice(behind, SEGMENTS - len(head))
    assert _digest_of([*head, *rest]) == PROFILE_DIGESTS["mcf"]
    assert _digest(stream) == PROFILE_DIGESTS["mcf"]
