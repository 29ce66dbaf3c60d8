"""Tests for the service workload's generated inputs."""

import random
from collections import Counter

from perfbench import service

PAIRS = [f"p{index}:q{index}" for index in range(15)]  # the service pairs


def test_sessions_are_seeded():
    first = service.session_inputs(random.Random(5), PAIRS, 3)
    again = service.session_inputs(random.Random(5), PAIRS, 3)
    assert first == again


def test_resends_are_cache_reads_of_settled_twins_from_the_other_tenant():
    for offsets, submissions in service.session_inputs(random.Random(7), PAIRS, 4):
        assert len(offsets) == len(submissions) == service.ARRIVALS
        for index, sub in enumerate(submissions):
            if sub.fresh:
                continue
            twins = [at for at, other in enumerate(submissions[:index])
                     if other.fresh and (other.pair, other.config_seed)
                     == (sub.pair, sub.config_seed)]
            assert len(twins) == 1
            assert index - twins[0] >= service.RESEND_MIN_GAP
            assert submissions[twins[0]].tenant != sub.tenant
        resent = Counter((s.pair, s.config_seed) for s in submissions if not s.fresh)
        assert max(resent.values()) == 1


def test_every_session_computes_the_same_whole_pair_blocks():
    sessions = service.session_inputs(random.Random(11), PAIRS, 2)
    computed = [Counter((s.pair, s.config_seed) for s in subs if s.fresh)
                for _offsets, subs in sessions]
    assert computed[0] == computed[1]
    assert sum(computed[0].values()) == service.FRESH_BLOCKS * len(PAIRS)
    assert set(computed[0].values()) == {1}
    assert {pair for pair, _seed in computed[0]} == set(PAIRS)
