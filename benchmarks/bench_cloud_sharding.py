"""Cloud sharding — labeling-queue delay and utilisation vs. GPU count.

Not a table from the paper: this measures the scaling dimension the
sharded :class:`~repro.core.cluster.CloudCluster` adds.  The same
heterogeneous fleet (Shoggoth edges plus AMS cameras whose cloud-side
fine-tuning lands on the shared GPUs) runs at 8 and 16 cameras against
clouds of 1, 2 and 4 GPU workers under **least-loaded** placement:

* with one GPU the 16-camera fleet saturates the teacher and queue
  delay balloons — the single-GPU wall the ROADMAP's sharding item
  exists to break;
* adding workers divides the backlog: the acceptance bar asserted
  below is ≥ 1.5× lower *mean* labeling-queue delay at 16 cameras when
  going from 1 to 4 GPUs;
* per-GPU utilisation and the load-imbalance ratio show what the
  placement actually bought (least-loaded keeps the busy-time spread
  near 1.0 even with heterogeneous streams).

``REPRO_BENCH_SHARD_GPUS`` / ``REPRO_BENCH_SHARD_CAMS`` /
``REPRO_BENCH_SHARD_FRAMES`` shrink the grid for the CI smoke job (the
1.5× bar is only asserted when the full 1-vs-4-GPU, 16-camera points
are present).

Expected runtime: ~4 CPU-minutes at the default benchmark scale.

Environment knobs: the shared ``REPRO_*`` settings variables (see
:meth:`repro.eval.ExperimentSettings.from_env`) shrink the streams
and pretraining, as the CI smoke job does.
"""

from __future__ import annotations

import pytest

from benchmarks._common import env_int, env_int_list
from benchmarks.conftest import write_result
from repro.core.fleet import CameraSpec
from repro.eval import format_table, run_fleet
from repro.network.link import LinkConfig
from repro.video import build_dataset

GPU_COUNTS = env_int_list("REPRO_BENCH_SHARD_GPUS", "1,2,4")
CAMERA_COUNTS = env_int_list("REPRO_BENCH_SHARD_CAMS", "8,16")
SHARD_FRAMES = env_int("REPRO_BENCH_SHARD_FRAMES", 480)
DATASET_CYCLE = ["detrac", "kitti", "waymo", "stationary"]
#: one AMS camera per group of four keeps cloud training in the mix
STRATEGY_CYCLE = ["shoggoth", "shoggoth", "ams", "shoggoth"]
PLACEMENT = "least_loaded"
#: acceptance bar: mean queue delay at the largest fleet must drop at
#: least this factor going from 1 GPU to the largest shard count
SPEEDUP_BAR = 1.5


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


@pytest.mark.benchmark(group="sharding")
def test_cloud_sharding(benchmark, student, settings, results_dir):
    """Scale the labeling tier: 1/2/4 GPUs × 8/16 cameras, least-loaded."""

    def run() -> dict[tuple[int, int], object]:
        outcomes: dict[tuple[int, int], object] = {}
        for cams in CAMERA_COUNTS:
            cameras = build_cameras(cams, SHARD_FRAMES)
            for gpus in GPU_COUNTS:
                outcomes[(cams, gpus)] = run_fleet(
                    cameras,
                    student,
                    settings=settings,
                    link_config=LinkConfig(),
                    num_gpus=gpus,
                    placement=PLACEMENT,
                )
        return outcomes

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [outcomes[key].row() for key in sorted(outcomes)]
    table = format_table(
        rows,
        title=f"Cloud sharding — {PLACEMENT} placement, FIFO per GPU worker",
    )
    write_result(results_dir, "cloud_sharding.txt", table)

    for (cams, gpus), outcome in outcomes.items():
        fleet = outcome.fleet
        assert fleet.num_gpus == gpus
        assert fleet.placement == PLACEMENT
        assert len(fleet.gpu_busy_by_worker) == gpus
        assert fleet.cloud_gpu_seconds > 0
        # shard-aware utilisation stays a fraction of *total* capacity
        assert 0.0 <= fleet.cloud_utilization <= 1.0
    # more GPUs never increase the mean labeling-queue delay
    for cams in CAMERA_COUNTS:
        delays = [outcomes[(cams, gpus)].fleet.mean_queue_delay for gpus in GPU_COUNTS]
        assert all(
            later <= earlier + 1e-9 for earlier, later in zip(delays, delays[1:])
        ), f"queue delay not monotone in GPU count at {cams} cameras: {delays}"
    # acceptance bar: ≥1.5× lower mean queue delay at 16 cameras, 1 → 4 GPUs
    top_cams, top_gpus = max(CAMERA_COUNTS), max(GPU_COUNTS)
    if top_cams >= 16 and 1 in GPU_COUNTS and top_gpus >= 4:
        single = outcomes[(top_cams, 1)].fleet.mean_queue_delay
        sharded = outcomes[(top_cams, top_gpus)].fleet.mean_queue_delay
        assert single >= SPEEDUP_BAR * sharded, (
            f"sharding won only {single / max(sharded, 1e-12):.2f}x "
            f"(need ≥{SPEEDUP_BAR}x): 1 GPU {single:.4f}s vs "
            f"{top_gpus} GPUs {sharded:.4f}s at {top_cams} cameras"
        )
