"""Cloud GPU scheduling policies: one contended GPU, four ways to share it.

A fleet of six cameras — five Shoggoth edges plus one AMS camera whose
cloud-side fine-tuning lands on the same teacher GPU — runs once per
scheduling policy:

* ``fifo``        — merged multi-tenant batches, training on spare
                    capacity (the default, and the pre-scheduler
                    fleet behaviour);
* ``staleness``   — serve the camera that has gone longest without
                    labels, bounding worst-case model staleness;
* ``weighted_fair`` — deficit round-robin on GPU-seconds; here the
                    "intersection" camera is provisioned with 3x
                    weight, as a premium tenant would be;
* ``admission``   — FIFO with a hard queue-delay budget; over-budget
                    uploads are rejected and those edges keep stale
                    weights.

The printed table shows the trade-off each policy buys: delay versus
fairness versus label coverage.

Run with::

    python examples/scheduler_demo.py

Expected runtime: ~2 CPU-minutes at the default scale.

Environment knobs: the shared ``REPRO_*`` settings variables (see
:meth:`repro.eval.ExperimentSettings.from_env`) shrink the streams
and pretraining, as the CI smoke job does.
"""

from __future__ import annotations

from repro.core.fleet import CameraSpec
from repro.core.scheduling import AdmissionControlScheduler, build_scheduler
from repro.eval import ExperimentSettings, format_table, prepare_student, run_fleet
from repro.network.link import LinkConfig
from repro.video import build_dataset

DELAY_BUDGET_SECONDS = 0.2


def build_cameras(settings: ExperimentSettings) -> list[CameraSpec]:
    presets = ["detrac", "kitti", "waymo", "stationary", "detrac", "kitti"]
    strategies = ["shoggoth", "shoggoth", "ams", "shoggoth", "shoggoth", "shoggoth"]
    names = ["intersection", "highway", "downtown", "parking_lot", "bridge", "tunnel"]
    return [
        CameraSpec(
            name=names[i],
            dataset=build_dataset(presets[i], num_frames=settings.num_frames),
            strategy=strategies[i],
            seed=i,
            # the premium tenant gets a triple GPU share (weighted_fair only)
            weight=3.0 if names[i] == "intersection" else 1.0,
        )
        for i in range(len(names))
    ]


def make_scheduler(policy: str):
    if policy == "admission":
        return AdmissionControlScheduler(delay_budget_seconds=DELAY_BUDGET_SECONDS)
    return build_scheduler(policy)


def main() -> None:
    settings = ExperimentSettings.from_env(
        num_frames=600,        # 20 seconds of 30-fps video per camera
        eval_stride=3,
        pretrain_images=200,
        pretrain_epochs=5,
    )

    print("Pre-training the shared student detector offline ...")
    student = prepare_student(settings)

    rows = []
    for policy in ("fifo", "staleness", "weighted_fair", "admission"):
        print(f"Running the 6-camera fleet under the {policy!r} policy ...")
        outcome = run_fleet(
            build_cameras(settings),
            student,
            settings=settings,
            link_config=LinkConfig(uplink_kbps=10_000.0, downlink_kbps=20_000.0),
            scheduler=make_scheduler(policy),
        )
        rows.append(outcome.row())

    print()
    print(
        format_table(
            rows,
            title=(
                "Scheduling policies on one shared GPU "
                f"(admission budget {DELAY_BUDGET_SECONDS}s)"
            ),
        )
    )
    print(
        "\nHow to read this: 'fifo' minimises mean delay by merging every tenant "
        "into one teacher batch; 'staleness' and 'weighted_fair' serialise "
        "per-tenant batches (higher delay) to control who waits; 'admission' "
        "caps the max delay by rejecting over-budget uploads — the rejected "
        "column is the price, paid in label freshness at the affected edges."
    )


if __name__ == "__main__":
    main()
