"""Shared fixtures for the workload tests."""

import pytest

from repro.workloads import synthetic


@pytest.fixture
def fresh_memo(monkeypatch):
    """Install an empty stream memo of the given capacity for one test,
    so its streams are drawn and recorded rather than replayed from
    what earlier tests left behind."""

    def install(capacity: int = synthetic.MEMO_SEGMENTS) -> synthetic._StreamMemo:
        memo = synthetic._StreamMemo(capacity)
        monkeypatch.setattr(synthetic, "_MEMO", memo)
        return memo

    return install
