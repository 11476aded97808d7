"""Multi-region federation: golden pins, selectors, failover, replication.

The contract under test, in order of importance:

* **golden pin** — ``regions=None`` is sugar for one free-WAN region,
  and a *degenerate* federation (one region, free WAN, no outages, no
  replication) written out as a ``RegionSpec`` reproduces it
  **bit-for-bit**: same :meth:`~repro.core.fleet.FleetResult.fingerprint`,
  byte-identical journal — with and without chaos or spot revocations
  (the pre-federation goldens in ``test_scheduling.py``,
  ``test_cluster.py`` and ``test_determinism.py`` anchor that run);
* **region selection** — each :class:`~repro.core.federation.RegionSelector`
  homes cameras by its objective, above the per-cluster placement;
* **cross-region failover** — a scripted
  :class:`~repro.runtime.events.RegionOutageEvent` drains the region
  through the same preempt/handoff path crashes use, re-homes its
  cameras onto healthy regions, and the heal re-provisions the torn
  capacity (append-only worker ids throughout);
* **replication** — the periodic weight broadcast bills WAN egress and
  hands a migrated camera a near-fresh student;
* **per-region spot revocations** — each region's revocation process
  kills only its own spot workers;
* **accounting closure** — the billed dollar total is exactly
  per-region compute plus per-link WAN egress.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FaultPlan, FleetSession
from repro.core.autoscaling import SloScaler
from repro.core.cluster import RevocationProcess
from repro.core.federation import (
    SELECTORS,
    CheapestSelector,
    Federation,
    LeastLoadedSelector,
    NearestLatencySelector,
    RegionSpec,
    StickyFailoverSelector,
    build_selector,
)
from repro.core.scheduling import WORKER_TIERS, FifoScheduler
from repro.detection import (
    StudentConfig,
    StudentDetector,
    TeacherConfig,
    TeacherDetector,
)
from repro.eval import fleet_fingerprint
from repro.network.link import WanProfile
from repro.runtime.journal import EventJournal
from repro.testing import check_invariants
from repro.testing.scenarios import build_cameras, small_fleet_config

NEAR = WanProfile(rtt_seconds=0.02, cost_per_gb=0.08)
FAR = WanProfile(rtt_seconds=0.15, cost_per_gb=0.01)


def build_fleet(n_cameras: int = 3, num_frames: int = 60, **kwargs) -> FleetSession:
    """The suite's standard deterministic fleet, with federation knobs."""
    return FleetSession(
        build_cameras(n_cameras, num_frames),
        student=StudentDetector(StudentConfig(seed=5)),
        teacher=TeacherDetector(TeacherConfig(seed=9)),
        config=small_fleet_config(),
        **kwargs,
    )


def two_regions(**kwargs) -> list[RegionSpec]:
    return [
        RegionSpec(name="near", wan=NEAR, **kwargs),
        RegionSpec(name="far", wan=FAR, **kwargs),
    ]


def chaos_plan() -> FaultPlan:
    return FaultPlan(
        seed=13,
        loss_rate=0.1,
        duplicate_rate=0.05,
        delay_rate=0.08,
        retry_timeout_seconds=0.6,
        max_attempts=3,
        mean_time_between_crashes=4.0,
        mean_time_between_partitions=5.0,
        mean_partition_seconds=1.0,
    )


# ---------------------------------------------------------------------------
# golden pins
# ---------------------------------------------------------------------------
def test_degenerate_federation_is_bit_identical_to_plain():
    """One free-WAN region must reproduce the plain run byte-for-byte."""
    plain_journal, fed_journal = EventJournal(), EventJournal()
    plain = build_fleet().run(journal=plain_journal)
    federated = build_fleet(regions=[RegionSpec(name="solo")]).run(
        journal=fed_journal
    )
    assert fleet_fingerprint(plain) == fleet_fingerprint(federated)
    assert plain_journal.serialize() == fed_journal.serialize()
    # the degenerate run journals and fingerprints NO region block at
    # all — pre-federation journals stay replayable forever
    assert "regions" not in fed_journal.meta
    assert federated.region_metrics == []


def test_degenerate_federation_pin_holds_under_chaos():
    """The pin survives the full fault machinery (the hard half: the
    degenerate federation must consume the *legacy* partition stream and
    schedule every crash/retry in the plain order)."""
    plain_journal, fed_journal = EventJournal(), EventJournal()
    plain = build_fleet(num_frames=90, faults=chaos_plan()).run(
        journal=plain_journal
    )
    federated = build_fleet(
        num_frames=90, regions=[RegionSpec(name="solo")], faults=chaos_plan()
    ).run(journal=fed_journal)
    assert fleet_fingerprint(plain) == fleet_fingerprint(federated)
    assert plain_journal.serialize() == fed_journal.serialize()
    assert plain.num_messages_sent > 0  # the chaos actually ran


SPOT = WORKER_TIERS["spot"]


def test_degenerate_pin_holds_with_spot_revocations():
    """``regions=None`` with spot workers and a scripted revocation trace
    is the same run as that configuration written as one RegionSpec."""
    def trace():
        return RevocationProcess(trace=[(0.8, 1), (1.6, 0)])

    plain_journal, fed_journal = EventJournal(), EventJournal()
    plain = build_fleet(
        num_gpus=2, worker_specs=SPOT, revocations=trace(),
        revocation_mode="checkpoint",
    ).run(journal=plain_journal)
    federated = build_fleet(
        regions=[
            RegionSpec(
                name="solo", num_gpus=2, worker_specs=SPOT, revocations=trace(),
                revocation_mode="checkpoint",
            )
        ]
    ).run(journal=fed_journal)
    assert plain.num_revocations == 2  # the trace actually hit
    assert fleet_fingerprint(plain) == fleet_fingerprint(federated)
    assert plain_journal.serialize() == fed_journal.serialize()


def test_revocations_land_in_their_own_region():
    """Scripted traces name region-local worker ids: each revocation is
    routed to the cluster whose process scheduled it."""
    near_trace = [(1.0, 0)]
    far_trace = [(0.5, 1), (1.5, 0)]
    session = build_fleet(
        n_cameras=4,
        num_frames=90,
        regions=[
            RegionSpec(
                name="near", wan=NEAR, num_gpus=2, worker_specs=SPOT,
                revocations=RevocationProcess(trace=near_trace),
            ),
            RegionSpec(
                name="far", wan=FAR, num_gpus=2, worker_specs=SPOT,
                revocations=RevocationProcess(trace=far_trace),
                revocation_mode="checkpoint",
            ),
        ],
        region_selector="least_loaded",
        # fault-free plan: the reliable channel the invariant oracle's
        # message-conservation laws read from
        faults=FaultPlan(seed=1),
    )
    result = session.run()
    near, far = session.clusters
    assert [(r.time, r.worker_id) for r in near.revocation_log] == near_trace
    assert [(r.time, r.worker_id) for r in far.revocation_log] == far_trace
    assert {r.mode for r in near.revocation_log} == {"relabel"}
    assert {r.mode for r in far.revocation_log} == {"checkpoint"}
    # both far workers were revoked: an emergency on-demand worker
    # kept the region serving
    assert far.revocation_log[-1].emergency_worker_id == 2
    assert result.num_revocations == 3
    assert check_invariants(session, result) is None


def test_degenerate_requires_free_wan():
    """A paid-WAN single region is NOT degenerate: it meters and bills."""
    result = build_fleet(
        regions=[RegionSpec(name="paid", wan=WanProfile(cost_per_gb=5.0))]
    ).run()
    assert result.region_metrics, "paid WAN must surface region telemetry"
    assert result.wan_bytes > 0.0
    assert result.wan_dollar_cost == pytest.approx(
        result.wan_bytes / 1e9 * 5.0
    )


def test_federated_chaos_run_is_byte_stable_and_replayable():
    def build():
        return build_fleet(
            n_cameras=4,
            regions=two_regions(),
            region_selector="nearest",
            faults=chaos_plan(),
            region_outages=[(1.0, 2.5, 0)],
            replication_interval_seconds=1.0,
        )

    first, second = EventJournal(), EventJournal()
    live = build().run(journal=first)
    build().run(journal=second)
    assert first.serialize() == second.serialize()
    report = first.replay(build)
    assert not report.halted
    assert fleet_fingerprint(report.result) == fleet_fingerprint(live)


# ---------------------------------------------------------------------------
# region selection
# ---------------------------------------------------------------------------
def test_selector_registry_round_trips():
    for name in SELECTORS:
        assert build_selector(name).name == name
    selector = NearestLatencySelector()
    assert build_selector(selector) is selector
    assert build_selector(None).name == "sticky"
    with pytest.raises(ValueError, match="unknown region selector"):
        build_selector("teleport")


def test_nearest_selector_homes_on_lowest_rtt():
    federation = Federation(two_regions(), selector="nearest")
    pick = federation.selector.pick(0, federation.healthy_regions, 0.0, federation)
    assert pick.name == "near"


def test_cheapest_selector_prefers_cheap_compute_then_cheap_egress():
    specs = [
        RegionSpec(
            name="ondemand", wan=NEAR, worker_specs=WORKER_TIERS["on_demand"]
        ),
        RegionSpec(name="spot", wan=FAR, worker_specs=WORKER_TIERS["spot"]),
    ]
    federation = Federation(specs, selector="cheapest")
    pick = federation.selector.pick(0, federation.healthy_regions, 0.0, federation)
    assert pick.name == "spot", "spot compute is cheaper; egress only ties"
    # equal compute -> the cheaper egress wins (FAR at $0.01/GB)
    federation = Federation(two_regions(), selector="cheapest")
    pick = federation.selector.pick(0, federation.healthy_regions, 0.0, federation)
    assert pick.name == "far"


def test_least_loaded_selector_spreads_a_fresh_fleet():
    session = build_fleet(
        n_cameras=4, regions=two_regions(), region_selector="least_loaded"
    )
    result = session.run()
    homed = [m["num_cameras_homed"] for m in result.region_metrics]
    assert homed == [2, 2], f"fresh fleet should spread evenly, got {homed}"


def test_sticky_selector_keeps_homes_until_forced():
    federation = Federation(two_regions(), selector="sticky")
    federation.home[0] = 1  # camera 0 currently far
    pick = federation.selector.pick(0, federation.healthy_regions, 0.0, federation)
    assert pick.index == 1, "sticky must not chase latency"
    # once its home is unavailable, it fails over to the nearest
    pick = federation.selector.pick(0, [federation.regions[0]], 0.0, federation)
    assert pick.index == 0


# ---------------------------------------------------------------------------
# cross-region failover
# ---------------------------------------------------------------------------
def test_scripted_outage_fails_over_and_heals():
    session = build_fleet(
        n_cameras=4,
        num_frames=90,
        regions=two_regions(),
        region_selector="nearest",
        region_outages=[(1.0, 3.0, 0)],
    )
    result = session.run()
    assert result.num_region_outages == 1
    near, far = result.region_metrics
    assert near["num_outages"] == 1 and far["num_outages"] == 0
    # cut: all 4 cameras leave near; heal: nearest re-homes them back
    assert near["num_migrations_away"] == 4 and far["num_migrations_in"] == 4
    assert near["num_migrations_in"] == 4 and far["num_migrations_away"] == 4
    assert result.num_region_migrations == 8
    # the healed region re-provisioned its torn-down workers with fresh
    # ids — never reusing one
    for cluster in session.clusters:
        ids = [worker.worker_id for worker in cluster.workers]
        assert ids == list(range(len(cluster.workers)))
    assert session.federation.regions[0].cluster.num_outages == 1
    assert not session.federation.regions[0].down


def test_sticky_failover_does_not_rehome_on_heal():
    session = build_fleet(
        n_cameras=4,
        num_frames=90,
        regions=two_regions(),
        region_selector="sticky",
        region_outages=[(1.0, 3.0, 0)],
    )
    result = session.run()
    near, far = result.region_metrics
    assert near["num_migrations_away"] == 4 and far["num_migrations_in"] == 4
    assert far["num_migrations_away"] == 0, "sticky cameras stay failed over"
    assert result.num_region_migrations == 4
    assert near["num_cameras_homed"] == 0 and far["num_cameras_homed"] == 4


def test_failover_off_is_partition_only():
    """``failover=False`` degrades an outage to a WAN cut: nothing moves,
    no capacity is torn down, and the region resumes on heal."""
    session = build_fleet(
        n_cameras=4,
        num_frames=90,
        regions=two_regions(),
        region_selector="nearest",
        region_outages=[(1.0, 3.0, 0)],
        failover=False,
    )
    result = session.run()
    assert result.num_region_outages == 1
    assert result.num_region_migrations == 0
    assert result.num_region_job_handoffs == 0
    near, _ = result.region_metrics
    assert near["num_cameras_homed"] == 4
    # upload conservation still holds: transfers queued behind the cut
    # drain after the heal (or the retry budget abandons them)
    labeled = len(result.queue_waits)
    sent = sum(entry.session.num_uploads for entry in result.cameras)
    assert labeled + result.num_rejected_uploads == sent


def test_outage_beats_no_failover_on_labels():
    """With a region down for most of the run, failover must deliver
    strictly more labels — the claim ``bench_federation.py`` measures.

    The no-failover arm needs a *finite retry budget* to actually lose
    anything: under an infinitely patient link, partitioned uploads
    just queue behind the cut and drain late.  A zero-rate fault plan
    adds exactly that budget and no other chaos.
    """

    def run(failover: bool):
        return build_fleet(
            n_cameras=4,
            num_frames=120,
            regions=two_regions(),
            region_selector="nearest",
            region_outages=[(1.0, 10.0, 0)],
            failover=failover,
            faults=FaultPlan(
                seed=1, retry_timeout_seconds=0.4, max_attempts=3
            ),
        ).run()

    with_failover, without = run(True), run(False)
    assert with_failover.num_labeled_frames > without.num_labeled_frames
    assert without.num_abandoned_uploads > 0, (
        "the no-failover arm should abandon uploads into the dead region"
    )


# ---------------------------------------------------------------------------
# replication
# ---------------------------------------------------------------------------
def test_replication_bills_wan_and_snapshots_students():
    session = build_fleet(
        n_cameras=2,
        num_frames=90,
        regions=two_regions(),
        region_selector="nearest",
        replication_interval_seconds=2.0,
    )
    result = session.run()
    federation = session.federation
    assert federation.num_replication_rounds >= 1
    # only cloud-trained tenants have a cloud-side student to broadcast:
    # camera 1 runs "ams" (cloud training), the shoggoth cameras train
    # at the edge and replicate nothing
    assert set(federation.replicas) == {1}
    for state in federation.replicas.values():
        assert all(isinstance(array, np.ndarray) for array in state.values())
    # every broadcast was billed on the source region's egress meter
    replicated = sum(region.link.replication_bytes for region in federation.regions)
    assert replicated > 0.0
    assert result.wan_bytes >= replicated


def test_migrated_camera_resumes_from_replicated_weights():
    session = build_fleet(
        n_cameras=2,
        num_frames=120,
        regions=two_regions(),
        region_selector="sticky",
        region_outages=[(3.0, 20.0, 0)],
        replication_interval_seconds=1.0,
    )
    result = session.run()
    assert result.num_region_migrations >= 2
    federation = session.federation
    # the failover loaded the last pre-outage snapshot into the far
    # region's tenant: its student weights match the stored replica
    far = federation.regions[1]
    for camera_id in federation.cameras_homed_in(far):
        replica = federation.replicas.get(camera_id)
        if replica is None:
            continue
        tenant = far.cluster.tenants[camera_id]
        state = tenant.student.state_dict()
        assert set(state) == set(replica)


# ---------------------------------------------------------------------------
# accounting + validation
# ---------------------------------------------------------------------------
def test_dollar_cost_closes_over_compute_and_wan():
    session = build_fleet(
        n_cameras=4,
        regions=two_regions(),
        region_selector="cheapest",
        replication_interval_seconds=1.0,
    )
    result = session.run()
    federation = session.federation
    expected = federation.compute_dollar_cost(
        result.duration_seconds
    ) + federation.wan_dollar_cost()
    assert result.dollar_cost == pytest.approx(expected, abs=1e-9)
    assert result.wan_dollar_cost == pytest.approx(
        sum(m["wan_dollar_cost"] for m in result.region_metrics), abs=1e-12
    )
    assert result.wan_bytes == pytest.approx(
        sum(m["wan_bytes"] for m in result.region_metrics), abs=1e-9
    )


def test_region_fingerprint_block_is_conditional():
    # The region block joins the fingerprint payload only when region
    # telemetry exists: degenerate federations digest exactly like the
    # plain path, while a real federation carries (and digests) it.
    plain = build_fleet().run()
    degenerate = build_fleet(regions=[RegionSpec(name="solo")]).run()
    federated = build_fleet(regions=two_regions()).run()
    assert degenerate.region_metrics == []
    assert degenerate.fingerprint() == plain.fingerprint()
    assert federated.region_metrics
    assert federated.region_selector
    assert federated.fingerprint() != plain.fingerprint()


def test_federation_validation_errors():
    with pytest.raises(ValueError, match="at least one region"):
        Federation([])
    with pytest.raises(ValueError, match="unique"):
        Federation([RegionSpec(name="dup"), RegionSpec(name="dup")])
    with pytest.raises(ValueError, match="non-empty"):
        RegionSpec(name="")
    with pytest.raises(ValueError, match="positive"):
        Federation([RegionSpec(name="a")], replication_interval_seconds=0.0)
    with pytest.raises(ValueError, match="require regions"):
        build_fleet(region_selector="nearest")
    with pytest.raises(ValueError):
        build_fleet(regions=two_regions(), num_gpus=2)
    with pytest.raises(ValueError):
        build_fleet(regions=two_regions(), scheduler="staleness")
    with pytest.raises(ValueError, match="region"):
        # outage index out of range
        build_fleet(regions=two_regions(), region_outages=[(1.0, 2.0, 7)])
    with pytest.raises(ValueError):
        # outage interval must be ordered
        build_fleet(regions=two_regions(), region_outages=[(2.0, 1.0, 0)])
    # per-region growth checks: a region that must add workers mid-run
    # but was built around one GpuScheduler instance is refused at
    # construction, in every region
    with pytest.raises(ValueError, match="'r'.*cannot add workers"):
        FleetSession(
            build_cameras(12, 120, strategies=["shoggoth"]),
            student=StudentDetector(StudentConfig(seed=5)),
            teacher=TeacherDetector(TeacherConfig(seed=9)),
            config=small_fleet_config(),
            regions=[
                RegionSpec(
                    name="r",
                    scheduler=FifoScheduler(),
                    autoscaler=SloScaler(slo_seconds=0.001),
                )
            ],
        )
    with pytest.raises(ValueError, match="'far'.*provision replacements"):
        Federation(
            [
                RegionSpec(name="near", wan=NEAR),
                RegionSpec(
                    name="far", wan=FAR, scheduler=FifoScheduler(), worker_specs=SPOT,
                    revocations=RevocationProcess(mean_uptime_seconds=5.0),
                ),
            ]
        )
    with pytest.raises(ValueError, match="crash recovery"):
        Federation(
            [RegionSpec(name="a", scheduler=FifoScheduler())],
            faults=FaultPlan(seed=0, mean_time_between_crashes=4.0),
        )
    with pytest.raises(ValueError, match="set num_gpus >= min_gpus"):
        Federation(
            [RegionSpec(name="a", autoscaler=SloScaler(min_gpus=2, max_gpus=4))]
        )
    # growth needs a recipe only when something can trigger it
    Federation([RegionSpec(name="a", scheduler=FifoScheduler())])
    Federation(
        [RegionSpec(name="a", scheduler=FifoScheduler(), worker_specs=SPOT)],
        faults=FaultPlan(seed=0),
    )
    Federation(
        [
            RegionSpec(
                name="a", scheduler=FifoScheduler, worker_specs=SPOT,
                revocations=RevocationProcess(mean_uptime_seconds=5.0),
            )
        ]
    )
