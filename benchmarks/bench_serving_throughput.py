"""Serving throughput — cluster-wide teacher batching vs. per-worker.

Not a table from the paper: this measures the serving-path dimension
the :class:`~repro.core.batching.FleetBatcher` adds.  The same
heterogeneous fleet (Shoggoth edges plus AMS cameras) runs at 16, 32
and 64 cameras against a 4-GPU cloud whose workers amortise teacher
kernels sub-linearly over batch size (``batch_scaling`` = 0.7), once
with per-worker batching only (``batching=None`` — the pre-batcher
serving path every prior PR used) and once with the cluster-wide
``latency_budget`` batcher holding jobs up to a small delay bound and
sizing batches against the labeling SLO:

* ``labels/busy-s`` — labeled frames per GPU-busy wall-second — is the
  saturation-robust throughput measure the acceptance bar below is
  asserted on: cluster-wide batches pay one ``batch_overhead_seconds``
  and one sub-linear kernel ramp for work that per-worker batching
  splits across many small busy periods;
* the bar is ≥ 1.3× ``labels/busy-s`` at 32 cameras **at equal p95
  labeling-queue delay** — the batcher's hold delay must not buy its
  throughput by blowing the tail latency budget;
* a ``greedy`` row at 32 cameras shows what coalescing alone (no hold
  delay, no SLO sizing) buys.

Each run appends a machine-readable record to ``BENCH_serving.json``
at the repo root (see :func:`repro.eval.results.append_bench_run`)
so the throughput ratio is tracked across commits.

``REPRO_BENCH_SERVING_CAMS`` / ``REPRO_BENCH_SERVING_FRAMES`` /
``REPRO_BENCH_SERVING_GPUS`` shrink the grid for the CI smoke job
(the 1.3× bar is only asserted when the full 32-camera, 4-GPU point
is present); ``REPRO_BENCH_SERVING_BAR`` moves the bar.

Expected runtime: ~6 CPU-minutes at the default benchmark scale.

Environment knobs: ``REPRO_BENCH_SERVING_CAMS``,
``REPRO_BENCH_SERVING_FRAMES``, ``REPRO_BENCH_SERVING_GPUS`` and
``REPRO_BENCH_SERVING_BAR`` size the sweep as above; the shared
``REPRO_*`` settings variables (see
:meth:`repro.eval.ExperimentSettings.from_env`) shrink the streams
and pretraining, as the CI smoke job does.
"""

from __future__ import annotations

import time

import pytest

from benchmarks._common import bench_json_path, env_float, env_int, env_int_list
from benchmarks.conftest import write_result
from repro.core.batching import LatencyBudgetBatchPolicy
from repro.core.fleet import CameraSpec
from repro.core.scheduling import WorkerSpec
from repro.eval import format_table, run_fleet
from repro.eval.results import append_bench_run
from repro.network.link import LinkConfig
from repro.video import build_dataset

BENCH_JSON = bench_json_path("serving")

#: fleet sizes to sweep (the CI smoke job trims to tiny fleets)
CAMERA_COUNTS = env_int_list("REPRO_BENCH_SERVING_CAMS", "16,32,64")
#: frames per camera stream
SERVING_FRAMES = env_int("REPRO_BENCH_SERVING_FRAMES", 240)
#: GPU workers in the labeling tier
NUM_GPUS = env_int("REPRO_BENCH_SERVING_GPUS", 4)
#: asserted labels/busy-s floor of cluster-wide/per-worker at 32 cameras
THROUGHPUT_BAR = env_float("REPRO_BENCH_SERVING_BAR", 1.3)

DATASET_CYCLE = ["detrac", "kitti", "waymo", "stationary"]
#: one AMS camera per group of four keeps cloud training in the mix
STRATEGY_CYCLE = ["shoggoth", "shoggoth", "ams", "shoggoth"]
PLACEMENT = "least_loaded"
#: the teacher amortises well over merged batches (F**(0.7-1) per frame)
BATCH_SCALING = 0.7
#: cluster-wide batcher: hold ≤ 20 ms, size against a 1 s label SLO
MAX_BATCH_DELAY = 0.02
SLO_SECONDS = 1.0
#: equal-p95 tolerance: batched p95 must stay within this factor of the
#: per-worker baseline plus the (deliberate) hold delay
P95_SLACK = 1.1


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


def latency_budget_policy() -> LatencyBudgetBatchPolicy:
    return LatencyBudgetBatchPolicy(
        max_batch_delay_seconds=MAX_BATCH_DELAY, slo_seconds=SLO_SECONDS
    )


@pytest.mark.benchmark(group="serving")
def test_serving_throughput(benchmark, student, settings, results_dir):
    """Per-worker vs. cluster-wide teacher batching at 16–64 cameras."""
    specs = [WorkerSpec(batch_scaling=BATCH_SCALING) for _ in range(NUM_GPUS)]

    def run() -> dict[tuple[int, str], object]:
        outcomes: dict[tuple[int, str], object] = {}
        for cams in CAMERA_COUNTS:
            cameras = build_cameras(cams, SERVING_FRAMES)
            configs: list[tuple[str, object]] = [
                ("per_worker", None),
                ("cluster", latency_budget_policy()),
            ]
            if cams == 32:
                configs.append(("greedy", "greedy"))
            for label, batching in configs:
                outcomes[(cams, label)] = run_fleet(
                    cameras,
                    student,
                    settings=settings,
                    link_config=LinkConfig(),
                    num_gpus=NUM_GPUS,
                    placement=PLACEMENT,
                    worker_specs=specs,
                    batching=batching,
                )
        return outcomes

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    order = {"per_worker": 0, "greedy": 1, "cluster": 2}
    keys = sorted(outcomes, key=lambda key: (key[0], order[key[1]]))
    table = format_table(
        [outcomes[key].serving_row() for key in keys],
        title=(
            f"Serving throughput — {NUM_GPUS} GPUs, {PLACEMENT} placement, "
            f"batch_scaling={BATCH_SCALING}"
        ),
    )
    write_result(results_dir, "serving_throughput.txt", table)

    for (cams, label), outcome in outcomes.items():
        fleet = outcome.fleet
        # conservation: every labeled frame came from a real upload
        assert fleet.num_labeled_frames > 0
        assert fleet.cloud_busy_seconds > 0
        if label == "per_worker":
            assert fleet.batching == "none"
            assert fleet.num_merged_batches == 0
        else:
            assert fleet.batching != "none"
            assert fleet.num_merged_batches > 0
            assert fleet.mean_merged_batch_jobs >= 1.0

    record = {
        "bench": "serving_throughput",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "gpus": NUM_GPUS,
        "frames": SERVING_FRAMES,
        "batch_scaling": BATCH_SCALING,
        "throughput_bar": THROUGHPUT_BAR,
        "configs": [
            {
                "cameras": cams,
                "batching": label,
                "labels_per_busy_second": round(
                    outcomes[(cams, label)].fleet.labels_per_busy_second, 3
                ),
                "p95_queue_delay": round(
                    outcomes[(cams, label)].fleet.p95_queue_delay, 4
                ),
                "mean_queue_delay": round(
                    outcomes[(cams, label)].fleet.mean_queue_delay, 4
                ),
                "busy_periods": outcomes[(cams, label)].fleet.num_labeling_batches,
                "merged_batches": outcomes[(cams, label)].fleet.num_merged_batches,
            }
            for cams, label in keys
        ],
    }

    # acceptance bar: ≥1.3× labels/busy-s at 32 cameras at equal p95
    if 32 in CAMERA_COUNTS and NUM_GPUS >= 4:
        base = outcomes[(32, "per_worker")].fleet
        clustered = outcomes[(32, "cluster")].fleet
        ratio = clustered.labels_per_busy_second / max(
            base.labels_per_busy_second, 1e-12
        )
        record["ratio_at_32"] = round(ratio, 3)
        append_bench_run(BENCH_JSON, record)
        assert ratio >= THROUGHPUT_BAR, (
            f"cluster-wide batching won only {ratio:.2f}x labels/busy-s "
            f"(need ≥{THROUGHPUT_BAR}x): per-worker "
            f"{base.labels_per_busy_second:.1f} vs cluster "
            f"{clustered.labels_per_busy_second:.1f} at 32 cameras"
        )
        # ...at equal p95: the hold delay must not blow the tail budget
        p95_bound = P95_SLACK * base.p95_queue_delay + MAX_BATCH_DELAY
        assert clustered.p95_queue_delay <= p95_bound, (
            f"batched p95 queue delay {clustered.p95_queue_delay:.3f}s "
            f"exceeds the per-worker baseline {base.p95_queue_delay:.3f}s "
            f"(slack {P95_SLACK}x + {MAX_BATCH_DELAY}s hold = {p95_bound:.3f}s)"
        )
    else:
        append_bench_run(BENCH_JSON, record)
