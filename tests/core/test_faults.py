"""Chaos suite: seeded fault plans vs. the fleet's conservation laws.

Each case runs a fleet under one seeded :class:`FaultPlan` — lossy /
duplicating / delaying link, edge retry-with-backoff, cloud-side dedup,
Poisson worker crashes with supervised recovery — and asserts the
invariants that must hold *whatever* the faults do:

* **message conservation** — every distinct reliable message ends in
  exactly one of delivered / abandoned, nothing is still outstanding
  after the run drains, and duplicate or late deliveries are dropped
  and counted, never double-handled;
* **upload conservation** — distinct uploads sent == labeled + rejected
  + abandoned: faults may *lose* work (accounted as abandoned) but can
  never duplicate it or leave it untracked;
* **crash supervision** — every crash retires its victim at the crash
  instant, restarts a same-spec replacement, re-places the in-flight
  and queued jobs, and the crash counters agree with the crash log
  (and stay zero when nothing crashed);
* **capacity conservation** — the faults-era cluster still never bills
  less than it works: busy <= provisioned per worker.

The seed window rotates: ``REPRO_CHAOS_SEEDS`` sets how many plans run
(default 20; CI's nightly sweep widens it) and
``REPRO_CHAOS_SEED_OFFSET`` shifts the window (CI passes the run number
so successive nightlies explore fresh seeds).  Every case prints its
full plan in assertion messages, so a failing seed is replayable
locally with ``REPRO_CHAOS_SEED_OFFSET=<seed> REPRO_CHAOS_SEEDS=1``.
"""

from __future__ import annotations

import os

import pytest

from repro.core import FaultPlan
from repro.core.faults import ReliableChannel
from repro.runtime.events import EventScheduler, RetryTimer
from repro.runtime.journal import EventJournal
from repro.testing.scenarios import chaos_scenario, session_from_scenario

NUM_PLANS = int(os.environ.get("REPRO_CHAOS_SEEDS", "20"))
SEED_OFFSET = int(os.environ.get("REPRO_CHAOS_SEED_OFFSET", "0"))
SEEDS = [SEED_OFFSET + index for index in range(NUM_PLANS)]


def run_chaos(seed: int):
    """Build and run one chaos fleet; returns (session, result, plan).

    The plan and fleet-shape draws live in
    :mod:`repro.testing.scenarios` — the same contract the shrinker CLI
    replays, so any failing seed here is directly
    ``python -m repro.testing.shrink <seed>`` material.
    """
    session = session_from_scenario(chaos_scenario(seed))
    return session, session.run(), session.faults


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_invariants(seed):
    session, result, plan = run_chaos(seed)
    tag = f"plan[{plan.describe()}]"
    cluster = session.cluster

    # -- message conservation ----------------------------------------------
    assert result.num_messages_in_flight == 0, (
        f"{tag}: {result.num_messages_in_flight} messages still outstanding "
        "after the run drained — a retry timer was lost"
    )
    assert (
        result.num_messages_delivered + result.num_abandoned_messages
        == result.num_messages_sent
    ), (
        f"{tag}: {result.num_messages_sent} sent != "
        f"{result.num_messages_delivered} delivered + "
        f"{result.num_abandoned_messages} abandoned"
    )
    for kind, abandoned in result.abandoned_by_kind.items():
        assert 0 <= abandoned <= result.sends_by_kind[kind], (
            f"{tag}: {kind} abandoned count outside [0, sent]"
        )

    # -- upload conservation -----------------------------------------------
    sent_uploads = result.sends_by_kind["upload"]
    labeled = len(result.queue_waits)
    rejected = result.num_rejected_uploads
    abandoned = result.num_abandoned_uploads
    assert labeled + rejected + abandoned == sent_uploads, (
        f"{tag}: {sent_uploads} uploads sent but {labeled} labeled + "
        f"{rejected} rejected + {abandoned} abandoned — a fault lost or "
        "duplicated a job"
    )
    assert 0.0 <= result.label_loss_fraction <= 1.0

    # dedup is exactly-once: no job may appear in two completion logs
    all_completed = [
        job for worker in cluster.workers for job in worker.completed_jobs
    ]
    assert len({id(job) for job in all_completed}) == len(all_completed), (
        f"{tag}: a labeling job appears in two workers' completion logs"
    )
    assert all(job.wait_seconds >= -1e-9 for job in all_completed), (
        f"{tag}: negative queue delay under faults"
    )

    # -- crash supervision --------------------------------------------------
    crash_times = [record.time for record in result.crash_records]
    assert crash_times == sorted(crash_times), f"{tag}: crash log out of order"
    assert result.num_crash_recovered_jobs == sum(
        record.jobs_in_flight for record in result.crash_records
    ), f"{tag}: crash recovery counter disagrees with the crash log"
    if not result.crash_records:
        assert (
            result.num_crash_recovered_jobs == 0
            and result.crash_wasted_gpu_seconds == 0.0
        ), f"{tag}: crash accounting moved without any crash"
    if plan.crash_recovery == "checkpoint":
        assert result.crash_wasted_gpu_seconds == 0.0, (
            f"{tag}: checkpoint recovery must not waste GPU work"
        )
    for record in result.crash_records:
        victim = cluster.workers[record.worker_id]
        # no autoscaler here, so no drain race: every crash restarts
        assert record.replacement_id is not None, (
            f"{tag}: crash skipped its replacement with nothing draining"
        )
        replacement = cluster.workers[record.replacement_id]
        assert victim.crashed and victim.draining, (
            f"{tag}: crash victim {record.worker_id} not marked crashed"
        )
        assert victim.retired_at == pytest.approx(record.time), (
            f"{tag}: victim kept billing after its crash"
        )
        assert replacement.spec == victim.spec, (
            f"{tag}: replacement {record.replacement_id} has a different "
            "hardware spec than the crashed worker"
        )
        assert record.mode == plan.crash_recovery
        assert record.jobs_in_flight >= 0 and record.jobs_queued >= 0

    # -- capacity conservation ---------------------------------------------
    # a replacement provisioned by a late crash can drain the victim's
    # backlog past the nominal stream duration; it is still provisioned
    # (and billing) through that tail, so the conservation horizon must
    # cover each worker's actual busy window, not just the stream end
    for worker in cluster.workers:
        horizon = max(result.duration_seconds, worker.busy_until)
        provisioned = cluster.worker_provisioned_seconds(worker, horizon)
        assert worker.busy_seconds <= provisioned + 1e-6, (
            f"{tag}: worker {worker.worker_id} busy {worker.busy_seconds:.6f}s "
            f"exceeds its provisioned {provisioned:.6f}s"
        )
    ids = [worker.worker_id for worker in cluster.workers]
    assert ids == list(range(len(cluster.workers))), (
        f"{tag}: worker ids reused or renumbered after crash recovery: {ids}"
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_invariants_multi_region(seed):
    """The rotating window again, federated: region axes on the plan.

    Same ``REPRO_CHAOS_SEEDS`` / ``REPRO_CHAOS_SEED_OFFSET`` window as
    :func:`test_chaos_invariants`, but each seed also draws 2–3
    WAN-profiled regions, a selector and (usually) a region-outage
    process on top of partitions and an autoscaler — the full chaos
    cross.  The invariant oracle is the shrinker's own
    :func:`repro.testing.shrink.check_invariants`, so a failing seed
    here minimises directly with
    ``python -m repro.testing.shrink --partitions --autoscaler
    --regions <seed>``.
    """
    from repro.testing.shrink import check_invariants

    session = session_from_scenario(
        chaos_scenario(seed, partitions=True, autoscaler=True, regions=True)
    )
    result = session.run()
    failure = check_invariants(session, result)
    assert failure is None, (
        f"multi-region chaos seed {seed} broke the {failure!r} invariant "
        f"(plan[{session.faults.describe()}])"
    )


def test_faults_off_runs_report_no_fault_activity(fleet_factory):
    """A plain fleet run carries all-default fault fields."""
    result = fleet_factory(
        n_cameras=2, num_frames=60, datasets=["detrac"], strategies=["shoggoth"]
    ).run()
    assert result.fault_plan == "none"
    assert result.num_crashes == 0 and not result.crash_records
    assert result.num_lost_messages == 0
    assert result.num_retries == 0 and result.num_duplicate_drops == 0
    assert result.num_messages_sent == 0 and result.label_loss_fraction == 0.0


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_chaos_runs_are_deterministic_and_replayable(seed):
    """Same plan + same fleet -> byte-identical journals and exact replay."""

    def build():
        return session_from_scenario(chaos_scenario(seed))

    first, second = EventJournal(), EventJournal()
    result = build().run(journal=first)
    build().run(journal=second)
    assert first.serialize() == second.serialize(), (
        f"seed {seed}: two identical chaos runs produced different journals"
    )
    report = first.replay(build)
    assert report.result.fingerprint() == result.fingerprint(), (
        f"seed {seed}: journal replay landed on a different result"
    )


def test_plan_validation_rejects_bad_parameters():
    with pytest.raises(ValueError, match="loss_rate"):
        FaultPlan(loss_rate=1.5)
    with pytest.raises(ValueError, match="must not exceed 1"):
        FaultPlan(loss_rate=0.5, duplicate_rate=0.4, delay_rate=0.3)
    with pytest.raises(ValueError, match="retry_backoff"):
        FaultPlan(retry_backoff=0.5)
    with pytest.raises(ValueError, match="max_attempts"):
        FaultPlan(max_attempts=0)
    with pytest.raises(ValueError, match="mean_time_between_crashes"):
        FaultPlan(mean_time_between_crashes=-1.0)
    with pytest.raises(ValueError, match="crash_recovery"):
        FaultPlan(crash_recovery="reboot")


def test_plan_draws_are_reproducible():
    first, second = FaultPlan(seed=4, loss_rate=0.3), FaultPlan(seed=4, loss_rate=0.3)
    assert [first.draw_verdict() for _ in range(50)] == [
        second.draw_verdict() for _ in range(50)
    ]
    plan = FaultPlan(seed=4, mean_time_between_crashes=1.0)
    assert plan.draw_crash_times(30.0) == plan.draw_crash_times(30.0)
    # crash draws must not perturb the message verdict stream
    with_crashes = FaultPlan(seed=4, loss_rate=0.3, mean_time_between_crashes=1.0)
    with_crashes.draw_crash_times(30.0)
    first.reset()
    assert [with_crashes.draw_verdict() for _ in range(20)] == [
        first.draw_verdict() for _ in range(20)
    ]


def test_reliable_channel_dedup_and_abandonment():
    """Channel unit semantics, no fleet needed: retry, dedup, abandon."""
    plan = FaultPlan(seed=0, retry_timeout_seconds=1.0, max_attempts=2)
    channel = ReliableChannel(plan)
    scheduler = EventScheduler()
    attempts: list[tuple[float, int]] = []
    message_id = channel.send(
        scheduler, "upload", 0, lambda at, mid: attempts.append((at, mid)), now=0.0
    )
    assert attempts == [(0.0, message_id)]
    assert channel.num_in_flight == 1

    # first delivery acks (cancelling the timer); the second is dropped
    assert channel.accept(message_id, scheduler)
    assert not channel.accept(message_id, scheduler)
    assert channel.num_duplicate_drops == 1
    assert channel.num_in_flight == 0
    assert len(scheduler) == 0, "delivery must cancel the pending retry timer"

    # untracked (faults-off) ids always pass
    assert channel.accept(-1, scheduler) and channel.accept(-1, scheduler)

    # an unacked message retries once, then is abandoned on the next timer
    lost_id = channel.send(
        scheduler, "labels", 1, lambda at, mid: attempts.append((at, mid)), now=0.0
    )
    first_timer = scheduler.pop()
    assert isinstance(first_timer, RetryTimer)
    channel.on_timer(first_timer, scheduler)
    assert channel.num_retries == 1
    second_timer = scheduler.pop()
    channel.on_timer(second_timer, scheduler)
    assert channel.abandoned_by_kind["labels"] == 1
    # a late copy of the abandoned id is dropped, not resurrected
    assert not channel.accept(lost_id, scheduler)
    assert channel.num_late_drops == 1
    # a stale timer (attempt number superseded) is ignored
    channel.on_timer(first_timer, scheduler)
    assert channel.num_retries == 1
