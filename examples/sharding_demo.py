"""Sharded cloud: one camera fleet, 1 → 4 GPU workers, four placements.

An 8-camera fleet (seven Shoggoth edges plus one AMS camera whose
cloud-side fine-tuning also lands on the GPUs) first runs against a
single-GPU cloud — the PR 2 setup — and then against a 4-GPU
:class:`~repro.core.cluster.CloudCluster` under every shipped
placement policy:

* ``round_robin``   — cycle through the workers, ignore load;
* ``least_loaded``  — send each job to the worker with the fewest
                      queued GPU-seconds;
* ``sticky``        — camera-affinity hashing: a camera never migrates
                      between workers;
* ``power_of_two``  — sample two workers, keep the less loaded one.

The printed table shows what sharding buys (queue delay collapses as
GPUs are added) and what each placement trades (sticky avoids
migrations but tolerates imbalance; least-loaded balances busy time
almost perfectly).  The φ-aware ``drift`` scheduler is used on the
workers for the last row, prioritising measurably-drifting cameras.

Run with::

    python examples/sharding_demo.py

Expected runtime: ~2 CPU-minutes at the default scale.

Environment knobs: the shared ``REPRO_*`` settings variables (see
:meth:`repro.eval.ExperimentSettings.from_env`) shrink the streams
and pretraining, as the CI smoke job does.
"""

from __future__ import annotations

from repro.core.fleet import CameraSpec
from repro.eval import ExperimentSettings, format_table, prepare_student, run_fleet
from repro.network.link import LinkConfig
from repro.video import build_dataset

NUM_CAMERAS = 8
NUM_GPUS = 4
PLACEMENTS = ["round_robin", "least_loaded", "sticky", "power_of_two"]


def build_cameras(settings: ExperimentSettings) -> list[CameraSpec]:
    presets = ["detrac", "kitti", "waymo", "stationary"]
    strategies = ["shoggoth", "shoggoth", "ams", "shoggoth"]
    return [
        CameraSpec(
            name=f"cam{i}",
            dataset=build_dataset(
                presets[i % len(presets)], num_frames=settings.num_frames
            ),
            strategy=strategies[i % len(strategies)],
            seed=i,
        )
        for i in range(NUM_CAMERAS)
    ]


def main() -> None:
    settings = ExperimentSettings.from_env(
        num_frames=600,        # 20 seconds of 30-fps video per camera
        eval_stride=3,
        pretrain_images=200,
        pretrain_epochs=5,
    )

    print("Pre-training the shared student detector offline ...")
    student = prepare_student(settings)
    link = LinkConfig(uplink_kbps=10_000.0, downlink_kbps=20_000.0)

    rows = []
    print(f"Running the {NUM_CAMERAS}-camera fleet on a single GPU (baseline) ...")
    rows.append(
        run_fleet(
            build_cameras(settings), student, settings=settings,
            link_config=link, num_gpus=1,
        ).row()
    )
    for placement in PLACEMENTS:
        print(
            f"Running the fleet on {NUM_GPUS} GPUs under {placement!r} placement ..."
        )
        rows.append(
            run_fleet(
                build_cameras(settings), student, settings=settings,
                link_config=link, num_gpus=NUM_GPUS, placement=placement,
            ).row()
        )
    print(f"Running {NUM_GPUS} GPUs, least-loaded, φ-aware 'drift' scheduler ...")
    rows.append(
        run_fleet(
            build_cameras(settings), student, settings=settings,
            link_config=link, num_gpus=NUM_GPUS, placement="least_loaded",
            scheduler="drift",
        ).row()
    )

    print()
    print(
        format_table(
            rows,
            title=f"Sharded cloud — {NUM_CAMERAS} cameras, 1 vs {NUM_GPUS} GPU workers",
        )
    )
    print(
        "\nHow to read this: the single-GPU row is the PR 2 baseline — its "
        "queue delay is the cost of every camera contending for one teacher. "
        "Sharding divides that backlog across workers: 'least_loaded' keeps "
        "the load-imbalance ratio near 1.0, 'sticky' pins cameras to shards "
        "(zero migrations, more imbalance), 'power_of_two' lands in between "
        "at O(1) placement cost. The last row swaps the per-worker scheduler "
        "for the φ-aware 'drift' policy, which spends the saved headroom on "
        "the cameras whose scenes are actually changing."
    )


if __name__ == "__main__":
    main()
