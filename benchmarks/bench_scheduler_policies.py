"""Cloud GPU scheduling policies — accuracy / queue delay / fairness.

Not a table from the paper: this measures the scheduling dimension the
pluggable :mod:`repro.core.scheduling` subsystem adds.  The same
heterogeneous fleet (Shoggoth edges plus one AMS camera whose
fine-tuning also lands on the shared GPU) runs once per policy at 4 and
8 cameras:

* ``fifo`` — PR 1 behaviour: merged multi-tenant batches, training on
  spare capacity;
* ``staleness`` — serve the longest-unserved camera first, bounding
  worst-case model staleness;
* ``weighted_fair`` — deficit-based GPU-seconds fair sharing across
  tenants;
* ``admission`` — FIFO with a hard queue-delay budget; over-budget
  uploads are rejected and the edge keeps stale weights.

The table contrasts mean accuracy, queue delay (mean and max), Jain
GPU fairness and rejected uploads — the capacity-planning trade-off
space.  ``REPRO_BENCH_FLEET_SIZES`` / ``REPRO_BENCH_SCHED_FRAMES``
shrink the configuration for the CI smoke job.

Expected runtime: ~3 CPU-minutes at the default benchmark scale.

Environment knobs: the shared ``REPRO_*`` settings variables (see
:meth:`repro.eval.ExperimentSettings.from_env`) shrink the streams
and pretraining, as the CI smoke job does, plus
``REPRO_BENCH_FLEET_SIZES`` / ``REPRO_BENCH_SCHED_FRAMES`` for the
policy grid.
"""

from __future__ import annotations

import pytest

from benchmarks._common import env_int, env_int_list
from benchmarks.conftest import write_result
from repro.core.fleet import CameraSpec
from repro.core.scheduling import AdmissionControlScheduler, build_scheduler
from repro.eval import format_table, run_fleet
from repro.network.link import LinkConfig
from repro.video import build_dataset

FLEET_SIZES = env_int_list("REPRO_BENCH_FLEET_SIZES", "4,8")
SCHED_FRAMES = env_int("REPRO_BENCH_SCHED_FRAMES", 480)
DATASET_CYCLE = ["detrac", "kitti", "waymo", "stationary"]
#: one AMS camera per group of four: its cloud-side fine-tuning contends
#: with everyone's labeling on the same GPU under unified-queue policies
STRATEGY_CYCLE = ["shoggoth", "shoggoth", "ams", "shoggoth"]
POLICIES = ["fifo", "staleness", "weighted_fair", "admission"]
DELAY_BUDGET_SECONDS = 0.25


def make_scheduler(policy: str):
    if policy == "admission":
        return AdmissionControlScheduler(delay_budget_seconds=DELAY_BUDGET_SECONDS)
    return build_scheduler(policy)


def build_cameras(n: int, num_frames: int) -> list[CameraSpec]:
    return [
        CameraSpec(
            name=f"cam{i}",
            dataset=build_dataset(
                DATASET_CYCLE[i % len(DATASET_CYCLE)], num_frames=num_frames
            ),
            strategy=STRATEGY_CYCLE[i % len(STRATEGY_CYCLE)],
            seed=i,
        )
        for i in range(n)
    ]


@pytest.mark.benchmark(group="scheduler")
def test_scheduler_policies(benchmark, student, settings, results_dir):
    """Run every policy end-to-end on 4- and 8-camera fleets."""

    def run() -> dict[tuple[str, int], object]:
        outcomes: dict[tuple[str, int], object] = {}
        for n in FLEET_SIZES:
            for policy in POLICIES:
                outcomes[(policy, n)] = run_fleet(
                    build_cameras(n, SCHED_FRAMES),
                    student,
                    settings=settings,
                    link_config=LinkConfig(),
                    scheduler=make_scheduler(policy),
                )
        return outcomes

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [outcomes[key].row() for key in sorted(outcomes, key=lambda k: (k[1], k[0]))]
    table = format_table(
        rows,
        title=(
            "GPU scheduling policies — one shared cloud, "
            f"delay budget {DELAY_BUDGET_SECONDS}s for admission control"
        ),
    )
    write_result(results_dir, "scheduler_policies.txt", table)

    # every policy ran end-to-end at every fleet size
    for n in FLEET_SIZES:
        assert {policy for (policy, m) in outcomes if m == n} == set(POLICIES)
    for (policy, n), outcome in outcomes.items():
        fleet = outcome.fleet
        assert fleet.scheduler == policy
        assert fleet.cloud_gpu_seconds > 0
        assert 0.0 < fleet.gpu_fairness <= 1.0 + 1e-9
        if policy == "admission":
            # the delay budget is a hard guarantee for admitted uploads
            assert fleet.max_queue_delay <= DELAY_BUDGET_SECONDS + 1e-9
        else:
            # only admission control may turn uploads away
            assert fleet.num_rejected_uploads == 0
        if policy in ("staleness", "weighted_fair") and SCHED_FRAMES >= 300:
            # unified queue: the AMS camera's training shares the GPU
            # (streams shorter than ~300 frames may never fill a pool)
            assert len(fleet.training_waits) > 0
