"""Spot preemption — mixed spot/on-demand cost vs. all-on-demand latency.

Not a table from the paper: this measures the cost/reliability
trade-off the heterogeneous + preemptible worker model
(:class:`~repro.core.scheduling.WorkerSpec`,
:class:`~repro.core.cluster.RevocationProcess`) opens on top of pure
latency.  One steady fleet of cameras runs against three clusters:

* **on-demand-4** — four on-demand workers at the reference cost rate:
  the reliable baseline every serious deployment starts from;
* **mixed-spot** — one on-demand anchor plus five spot workers at the
  typical ~70% discount, under a *seeded* revocation process
  (exponential uptimes) that kills spot workers mid-run; interrupted
  jobs are re-labeled from scratch and queued work hands off through
  the drain path;
* **mixed-spot-ckpt** — the same cluster with checkpoint-resume
  recovery, isolating what checkpointing saves in wasted GPU work.

The extra spot capacity costs less than the 4-GPU on-demand baseline
*and* absorbs the revocations: more (cheap) workers means the queue
rides through each kill.

Acceptance bar asserted below (full scale only): the mixed cluster's
``dollar_cost`` is **≥ 1.3× lower** than all-on-demand at equal
(±10%) p95 labeling-queue delay, with at least one revocation actually
hitting mid-run.

Expected runtime: ~2-3 CPU-minutes at the default scale.

Environment knobs: ``REPRO_BENCH_SPOT_FRAMES`` (per-camera frames,
default 720), ``REPRO_BENCH_SPOT_CAMS`` (cameras, default 12) shrink
the episode for the CI smoke job (the 1.3× bar is only asserted at
full scale); the shared ``REPRO_*`` settings knobs (see
:meth:`repro.eval.ExperimentSettings.from_env`) shrink pretraining.
"""

from __future__ import annotations

import pytest

from benchmarks._common import env_int
from benchmarks.conftest import write_result
from repro.core.cluster import RevocationProcess
from repro.core.fleet import CameraSpec
from repro.core.scheduling import WORKER_TIERS, WorkerSpec
from repro.eval import format_table, run_fleet
from repro.network.link import LinkConfig
from repro.video import build_dataset

FRAMES = env_int("REPRO_BENCH_SPOT_FRAMES", 720)
NUM_CAMERAS = env_int("REPRO_BENCH_SPOT_CAMS", 12)
DATASET_CYCLE = ["detrac", "kitti", "waymo", "stationary"]
#: one AMS camera per cycle keeps cloud training in the revocation mix
STRATEGIES = ["shoggoth", "shoggoth", "ams", "shoggoth"]
PLACEMENT = "least_loaded"
ON_DEMAND = WorkerSpec()
SPOT = WORKER_TIERS["spot"]
FIXED_GPUS = 4
#: mixed cluster: one reliable anchor + cheap spot headroom
MIXED_SPECS = [ON_DEMAND] + [SPOT] * 5
#: mean spot uptime ≈ 1.7× the episode, so each of the five spot
#: workers dies with probability ~0.45 during a full-scale run
MEAN_UPTIME_FRACTION = 1.7
REVOCATION_SEED = 7
#: acceptance bars (full scale only)
COST_BAR = 1.3
P95_SLACK = 1.10


def build_cameras() -> list[CameraSpec]:
    """A steady mixed-strategy fleet; every camera runs the whole episode."""
    return [
        CameraSpec(
            name=f"cam{i}",
            dataset=build_dataset(
                DATASET_CYCLE[i % len(DATASET_CYCLE)], num_frames=FRAMES
            ),
            strategy=STRATEGIES[i % len(STRATEGIES)],
            seed=i,
        )
        for i in range(NUM_CAMERAS)
    ]


def make_revocations() -> RevocationProcess:
    duration = FRAMES / 30.0
    return RevocationProcess(
        mean_uptime_seconds=MEAN_UPTIME_FRACTION * duration, seed=REVOCATION_SEED
    )


@pytest.mark.benchmark(group="spot_preemption")
def test_spot_preemption(benchmark, student, settings, results_dir):
    """All-on-demand vs. mixed spot clusters under seeded revocations."""

    configs = {
        f"on-demand-{FIXED_GPUS}": dict(worker_specs=[ON_DEMAND] * FIXED_GPUS),
        "mixed-spot": dict(
            worker_specs=list(MIXED_SPECS),
            revocations=make_revocations(),
            revocation_mode="relabel",
        ),
        "mixed-spot-ckpt": dict(
            worker_specs=list(MIXED_SPECS),
            revocations=make_revocations(),
            revocation_mode="checkpoint",
        ),
    }

    def run() -> dict[str, object]:
        outcomes = {}
        for label, kwargs in configs.items():
            outcomes[label] = run_fleet(
                build_cameras(),
                student,
                settings=settings,
                link_config=LinkConfig(),
                placement=PLACEMENT,
                **kwargs,
            )
        return outcomes

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [{"cluster": label, **outcomes[label].cost_row()} for label in configs]
    table = format_table(
        rows,
        title=(
            f"Spot preemption — {NUM_CAMERAS} cameras, "
            f"{FIXED_GPUS}x on-demand vs 1+5 mixed spot, "
            f"seeded revocations (seed {REVOCATION_SEED}), {PLACEMENT} placement"
        ),
    )
    timeline = "\n".join(
        record.reason
        for record in outcomes["mixed-spot"].fleet.revocation_records
    )
    write_result(
        results_dir,
        "spot_preemption.txt",
        table + "\n\nmixed-spot revocation timeline:\n" + (timeline or "  (no revocations)"),
    )

    for label, outcome in outcomes.items():
        fleet = outcome.fleet
        # frame conservation holds whatever the revocations did
        sent = sum(entry.session.num_uploads for entry in fleet.cameras)
        assert len(fleet.queue_waits) + fleet.num_rejected_uploads == sent, label
        assert fleet.dollar_cost > 0, label
    on_demand = outcomes[f"on-demand-{FIXED_GPUS}"].fleet
    mixed = outcomes["mixed-spot"].fleet
    checkpoint = outcomes["mixed-spot-ckpt"].fleet
    assert on_demand.num_revocations == 0 and on_demand.spot_fraction == 0.0
    assert mixed.spot_fraction > 0.5

    full_scale = FRAMES >= 720 and NUM_CAMERAS >= 12
    if not full_scale:
        return
    # the revocation process actually hit spot capacity mid-run (kills
    # land mid-busy-period only at high utilisation, so the in-flight
    # relabel/resume path is pinned by tests/core/test_spot.py instead)
    assert mixed.num_revocations >= 1
    # checkpoint recovery never wastes more GPU work than relabel
    assert checkpoint.wasted_gpu_seconds <= mixed.wasted_gpu_seconds
    # ... at equal (±10%) p95 labeling-queue delay ...
    assert mixed.p95_queue_delay <= on_demand.p95_queue_delay * P95_SLACK + 1e-3, (
        f"mixed spot p95 {mixed.p95_queue_delay:.3f}s exceeds "
        f"{P95_SLACK}x the on-demand p95 {on_demand.p95_queue_delay:.3f}s"
    )
    # ... the mixed cluster is >= 1.3x cheaper
    savings = on_demand.dollar_cost / mixed.dollar_cost
    assert savings >= COST_BAR, (
        f"mixed spot saved only {savings:.2f}x dollars (need >= {COST_BAR}x): "
        f"on-demand ${on_demand.dollar_cost:.2f} vs mixed ${mixed.dollar_cost:.2f}"
    )
