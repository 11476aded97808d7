"""Fleet scaling — accuracy / FPS / queue delay vs. number of cameras.

Not a table from the paper: this measures the *system* dimension the
event-kernel refactor adds.  N heterogeneous camera streams run
Shoggoth concurrently against one shared cloud server (FIFO labeling
queue, batched teacher inference) and one shared uplink/downlink
(processor-sharing :class:`SharedLink`).  As the fleet grows:

* per-upload network latency rises (the uplink is split N ways);
* labeling-queue delay appears once the teacher GPU saturates;
* total cloud GPU-seconds grow roughly linearly with fleet size while
  per-camera accuracy degrades only gracefully — the scalability
  argument for cloud-assisted edge inference.

Expected runtime: ~3 CPU-minutes at the default benchmark scale.

Environment knobs: the shared ``REPRO_*`` settings variables (see
:meth:`repro.eval.ExperimentSettings.from_env`) shrink the streams
and pretraining, as the CI smoke job does, plus
``REPRO_BENCH_FLEET_SIZES`` / ``REPRO_BENCH_FLEET_FRAMES`` for the
fleet grid.
"""

from __future__ import annotations

import pytest

from benchmarks._common import env_int, env_int_list
from benchmarks.conftest import write_result
from repro.core.fleet import CameraSpec
from repro.eval import format_table, run_fleet
from repro.network.link import LinkConfig
from repro.video import build_dataset

#: overridable so the CI smoke job can run a tiny configuration
FLEET_SIZES = env_int_list("REPRO_BENCH_FLEET_SIZES", "1,2,4,8")
DATASET_CYCLE = ["detrac", "kitti", "waymo", "stationary"]
#: shorter streams than the single-camera tables: the 8-camera point
#: simulates 8x the frames of a normal run
FLEET_FRAMES = env_int("REPRO_BENCH_FLEET_FRAMES", 600)


def build_cameras(n: int, num_frames: int) -> list[CameraSpec]:
    return [
        CameraSpec(
            name=f"cam{i}",
            dataset=build_dataset(
                DATASET_CYCLE[i % len(DATASET_CYCLE)], num_frames=num_frames
            ),
            strategy="shoggoth",
            seed=i,
        )
        for i in range(n)
    ]


@pytest.mark.benchmark(group="fleet")
def test_fleet_scaling(benchmark, student, settings, results_dir):
    """Run 1/2/4/8-camera fleets against one shared cloud + link."""

    def run() -> list[dict]:
        rows: list[dict] = []
        for n in FLEET_SIZES:
            outcome = run_fleet(
                build_cameras(n, FLEET_FRAMES),
                student,
                settings=settings,
                link_config=LinkConfig(),
            )
            rows.append(outcome.row())
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(rows, title="Fleet scaling — N cameras, one cloud, one link")
    write_result(results_dir, "fleet_scaling.txt", table)

    by_n = {row["cameras"]: row for row in rows}
    # every requested fleet size ran end-to-end
    for n in FLEET_SIZES:
        assert by_n[n]["cloud GPU (s)"] > 0
    # shared-resource scaling claims compare the largest fleet against the
    # smallest; guarded so reduced smoke configurations stay meaningful
    lo, hi = min(FLEET_SIZES), max(FLEET_SIZES)
    if hi > lo:
        assert by_n[hi]["upload latency (s)"] > by_n[lo]["upload latency (s)"]
        assert by_n[hi]["cloud GPU (s)"] > by_n[lo]["cloud GPU (s)"]
        # queue delay is monotone-ish: contention exceeds the lightest case
        assert by_n[hi]["queue delay (s)"] >= by_n[lo]["queue delay (s)"]
        # accuracy should not collapse under contention
        assert by_n[hi]["mean mAP@0.5 (%)"] > 0.25 * by_n[lo]["mean mAP@0.5 (%)"]
