"""DRR fairness and bounded admission at the scheduler level."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.service.jobs import Job, parse_job_spec
from repro.service.queueing import DrrScheduler


def _job(tenant, tag):
    spec = parse_job_spec(
        {"tenant": tenant, "pair": "gcc:eon", "scale": "quick"}
    )
    return Job(id=f"{tenant}-{tag}", spec=spec)


def _fill(scheduler, tenant, count):
    jobs = [_job(tenant, i) for i in range(count)]
    for job in jobs:
        assert scheduler.offer(job).accepted
    return jobs


class TestConstruction:
    @pytest.mark.parametrize(
        "kwargs",
        [{"depth": 0}, {"depth": -1}, {"depth": 0.5}],
    )
    def test_bad_parameters_are_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            DrrScheduler(**kwargs)


class TestAdmission:
    def test_accepts_until_depth_then_rejects_with_retry_hint(self):
        scheduler = DrrScheduler(depth=2, retry_after_base_s=0.5)
        _fill(scheduler, "a", 2)
        verdict = scheduler.offer(_job("a", "overflow"))
        assert verdict.accepted is False
        assert verdict.depth == 2
        assert verdict.retry_after_s == pytest.approx(1.0)
        # The rejected job was not buffered anywhere.
        assert scheduler.tenant_depth("a") == 2

    def test_tenant_queues_are_isolated(self):
        scheduler = DrrScheduler(depth=1)
        _fill(scheduler, "a", 1)
        # Tenant a is full; tenant b still has room.
        assert scheduler.offer(_job("a", "x")).accepted is False
        assert scheduler.offer(_job("b", "x")).accepted is True

    def test_accepted_admission_reports_depth(self):
        scheduler = DrrScheduler(depth=4)
        verdict = scheduler.offer(_job("a", 0))
        assert verdict.accepted and verdict.depth == 1
        assert verdict.retry_after_s is None

    def test_remove_drops_a_queued_job_once(self):
        scheduler = DrrScheduler()
        (job,) = _fill(scheduler, "a", 1)
        assert scheduler.remove(job) is True
        assert scheduler.remove(job) is False
        assert scheduler.backlog == 0

    def test_remove_unknown_tenant_is_false(self):
        scheduler = DrrScheduler()
        assert scheduler.remove(_job("ghost", 0)) is False


class TestScheduling:
    def test_empty_scheduler_yields_nothing(self):
        assert DrrScheduler().next_job() is None

    def test_single_tenant_is_fifo(self):
        scheduler = DrrScheduler()
        jobs = _fill(scheduler, "a", 3)
        order = [scheduler.next_job() for _ in range(3)]
        assert order == jobs
        assert scheduler.next_job() is None

    def test_backlogged_tenants_alternate(self):
        scheduler = DrrScheduler()
        _fill(scheduler, "a", 3)
        _fill(scheduler, "b", 3)
        tenants = [scheduler.next_job().spec.tenant for _ in range(6)]
        assert tenants == ["a", "b", "a", "b", "a", "b"]

    def test_fairness_bound_holds_at_every_prefix(self):
        """Continuously backlogged tenants never drift apart by > 1
        dispatch -- the service-level analogue of the paper's Eq. 9
        deficit bound."""
        scheduler = DrrScheduler()
        for tenant in ("a", "b", "c"):
            _fill(scheduler, tenant, 8)
        counts = {"a": 0, "b": 0, "c": 0}
        for _ in range(24):
            job = scheduler.next_job()
            counts[job.spec.tenant] += 1
            spread = max(counts.values()) - min(counts.values())
            assert spread <= 1, f"unfair prefix: {counts}"

    def test_late_tenant_is_not_starved(self):
        scheduler = DrrScheduler()
        _fill(scheduler, "early", 10)
        assert scheduler.next_job().spec.tenant == "early"
        _fill(scheduler, "late", 5)
        # From here on the two tenants alternate.
        tenants = [scheduler.next_job().spec.tenant for _ in range(6)]
        assert tenants.count("late") == 3

    def test_idle_tenant_deficit_resets(self):
        """A tenant whose queue drains keeps no credit, so it cannot
        monopolize the pool when it returns."""
        scheduler = DrrScheduler()
        _fill(scheduler, "a", 1)
        scheduler.next_job()
        # Several rotations pass while tenant a is idle.
        _fill(scheduler, "b", 3)
        for _ in range(3):
            scheduler.next_job()
        # When a returns with a burst, b's fresh jobs still interleave.
        _fill(scheduler, "a", 3)
        _fill(scheduler, "b", 3)
        tenants = [scheduler.next_job().spec.tenant for _ in range(6)]
        assert sorted(tenants[:2]) == ["a", "b"]
        assert tenants.count("a") == 3

    @given(
        st.lists(
            st.tuples(st.sampled_from("abc"), st.booleans()), max_size=60
        )
    )
    def test_backlogged_scheduler_never_returns_none(self, steps):
        """Any interleaving of offers and dispatches: next_job() is
        None exactly when every queue is empty, so the dispatcher never
        leaves a worker idle while a tenant is backlogged."""
        scheduler = DrrScheduler()
        for index, (tenant, dispatch) in enumerate(steps):
            if dispatch:
                backlog = scheduler.backlog
                job = scheduler.next_job()
                assert (job is None) == (backlog == 0)
            else:
                scheduler.offer(_job(tenant, index))

    def test_rotation_order_is_first_seen_and_stable(self):
        scheduler = DrrScheduler()
        for tenant in ("c", "a", "b"):
            _fill(scheduler, tenant, 2)
        tenants = [scheduler.next_job().spec.tenant for _ in range(6)]
        assert tenants == ["c", "a", "b", "c", "a", "b"]


class TestIntrospection:
    def test_depths_and_backlog_snapshot(self):
        scheduler = DrrScheduler()
        _fill(scheduler, "a", 2)
        _fill(scheduler, "b", 1)
        assert scheduler.depths() == {"a": 2, "b": 1}
        assert scheduler.backlog == 3
        assert scheduler.tenant_depth("ghost") == 0


def test_deterministic_replay():
    """The same offer/dispatch sequence produces the same schedule --
    scheduling is a pure function of the submissions."""

    def run():
        scheduler = DrrScheduler(depth=4)
        order = []
        supply = itertools.cycle(("a", "b", "a", "a", "b", "c"))
        for step in range(30):
            tenant = next(supply)
            scheduler.offer(_job(tenant, step))
            if step % 2:
                job = scheduler.next_job()
                order.append(job.id if job else None)
        return order

    assert run() == run()
