"""Elastic autoscaling — provisioned GPU-seconds vs. fixed clusters.

Not a table from the paper: this measures what the SLO-driven
autoscaler (:mod:`repro.core.autoscaling`) buys over PR 3's fixed
:class:`~repro.core.cluster.CloudCluster` on a **bursty drift
workload**: a small steady fleet runs for the whole episode while a
large cohort of burst cameras joins for only the first half — demand
peaks early, then collapses.  Four provisioning strategies face it:

* fixed 1 GPU  — underprovisioned: the burst balloons queue delay;
* fixed 4 GPUs — peak-provisioned: fine latency, idle capacity paid
  for the whole tail;
* ``slo`` autoscaler — starts at 1 GPU, scales to the burst when the
  (observed or projected) p95 labeling delay breaches the SLO, drains
  workers after sustained idle;
* ``step`` autoscaler — utilisation thresholds, for contrast.

Acceptance bar asserted below (full scale only): the SLO scaler uses
**≥ 1.2× fewer provisioned GPU-seconds** than the fixed 4-GPU cluster
while keeping the whole-run p95 queue delay within the 0.5 s SLO.

Expected runtime: ~2-3 CPU-minutes at the default scale.

Environment knobs: ``REPRO_BENCH_AUTOSCALE_FRAMES`` (steady-camera
frames, default 720), ``REPRO_BENCH_AUTOSCALE_BURST`` (burst cameras,
default 12), ``REPRO_BENCH_AUTOSCALE_STEADY`` (steady cameras, default
4) shrink the episode for the CI smoke job (the 1.2× bar is only
asserted at full scale); the shared ``REPRO_*`` settings knobs (see
:meth:`repro.eval.ExperimentSettings.from_env`) shrink pretraining.
"""

from __future__ import annotations

import pytest

from benchmarks._common import env_int
from benchmarks.conftest import write_result
from repro.core.autoscaling import SloScaler, StepScaler
from repro.core.fleet import CameraSpec
from repro.eval import format_table, run_fleet
from repro.network.link import LinkConfig
from repro.video import build_dataset

STEADY_FRAMES = env_int("REPRO_BENCH_AUTOSCALE_FRAMES", 720)
NUM_BURST = env_int("REPRO_BENCH_AUTOSCALE_BURST", 12)
NUM_STEADY = env_int("REPRO_BENCH_AUTOSCALE_STEADY", 4)
DATASET_CYCLE = ["detrac", "kitti", "waymo", "stationary"]
#: one AMS camera in the steady cohort keeps cloud training in the mix
STEADY_STRATEGIES = ["shoggoth", "shoggoth", "ams", "shoggoth"]
PLACEMENT = "least_loaded"
FIXED_GPUS = 4
SLO_SECONDS = 0.5
#: acceptance bar: provisioned GPU-seconds must drop at least this
#: factor vs. the fixed peak-provisioned cluster
SAVINGS_BAR = 1.2


def build_cameras() -> list[CameraSpec]:
    """Steady cohort runs the full episode; the burst cohort half of it."""
    cameras = [
        CameraSpec(
            name=f"steady{i}",
            dataset=build_dataset(
                DATASET_CYCLE[i % len(DATASET_CYCLE)], num_frames=STEADY_FRAMES
            ),
            strategy=STEADY_STRATEGIES[i % len(STEADY_STRATEGIES)],
            seed=i,
        )
        for i in range(NUM_STEADY)
    ]
    cameras += [
        CameraSpec(
            name=f"burst{i}",
            dataset=build_dataset(
                DATASET_CYCLE[i % len(DATASET_CYCLE)],
                num_frames=max(1, STEADY_FRAMES // 2),
            ),
            strategy="shoggoth",
            seed=100 + i,
        )
        for i in range(NUM_BURST)
    ]
    return cameras


def make_slo_scaler() -> SloScaler:
    return SloScaler(
        slo_seconds=SLO_SECONDS,
        interval_seconds=1.0,
        window_seconds=4.0,
        cooldown_seconds=1.0,
        min_gpus=1,
        max_gpus=FIXED_GPUS,
        scale_in_utilization=0.6,
        sustained_idle_ticks=2,
        hysteresis_fraction=1.0,
    )


def make_step_scaler() -> StepScaler:
    return StepScaler(
        high_utilization=0.85,
        low_utilization=0.30,
        interval_seconds=1.0,
        window_seconds=4.0,
        cooldown_seconds=1.0,
        min_gpus=1,
        max_gpus=FIXED_GPUS,
    )


@pytest.mark.benchmark(group="autoscaling")
def test_autoscaling(benchmark, student, settings, results_dir):
    """Bursty fleet: fixed 1/4 GPUs vs. the slo and step autoscalers."""

    configs = {
        "fixed-1": dict(num_gpus=1),
        f"fixed-{FIXED_GPUS}": dict(num_gpus=FIXED_GPUS),
        "slo": dict(num_gpus=1, autoscaler=make_slo_scaler()),
        "step": dict(num_gpus=1, autoscaler=make_step_scaler()),
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
    rows = [outcomes[label].autoscale_row() for label in configs]
    table = format_table(
        rows,
        title=(
            f"Elastic autoscaling — burst of {NUM_BURST} cameras over "
            f"{NUM_STEADY} steady, SLO {SLO_SECONDS}s, {PLACEMENT} placement"
        ),
    )
    timeline = "\n".join(
        event.reason for event in outcomes["slo"].fleet.scaling_events
    )
    write_result(
        results_dir,
        "autoscaling.txt",
        table + "\n\nSLO-scaler timeline:\n" + (timeline or "  (no resizes)"),
    )

    for label, outcome in outcomes.items():
        fleet = outcome.fleet
        # no upload loses its labels, whatever the provisioning strategy
        sent = sum(entry.session.num_uploads for entry in fleet.cameras)
        assert len(fleet.queue_waits) == sent, label
        assert fleet.gpu_seconds_provisioned > 0, label
    fixed = outcomes[f"fixed-{FIXED_GPUS}"].fleet
    slo = outcomes["slo"].fleet
    assert fixed.scaling_events == [] and fixed.autoscaler == "none"
    assert slo.autoscaler == "slo"

    full_scale = STEADY_FRAMES >= 720 and NUM_BURST >= 12
    if not full_scale:
        return
    # the elastic cluster actually moved, both directions
    assert slo.num_scale_outs >= 1 and slo.num_scale_ins >= 1
    # ... held the SLO over the whole run, burst included ...
    assert slo.p95_queue_delay <= SLO_SECONDS + 1e-9, (
        f"p95 {slo.p95_queue_delay:.3f}s breaches the {SLO_SECONDS}s SLO"
    )
    # ... at no worse latency than peak provisioning ...
    assert slo.p95_queue_delay <= fixed.p95_queue_delay + 0.05
    # ... for >= 1.2x fewer provisioned GPU-seconds
    savings = fixed.gpu_seconds_provisioned / slo.gpu_seconds_provisioned
    assert savings >= SAVINGS_BAR, (
        f"autoscaling saved only {savings:.2f}x provisioned GPU-seconds "
        f"(need >= {SAVINGS_BAR}x): fixed {fixed.gpu_seconds_provisioned:.1f} "
        f"vs elastic {slo.gpu_seconds_provisioned:.1f}"
    )
