"""Fleet demo: four cameras sharing one cloud server and one uplink.

Demonstrates the event-driven multi-camera API:

1. pre-train one student detector offline,
2. define four heterogeneous cameras (different scene presets, mixed
   strategies — three Shoggoth edges and one AMS edge),
3. run them as a :class:`FleetSession` against a single shared
   `CloudServer` (FIFO labeling queue, batched teacher inference) and a
   single processor-sharing `SharedLink`,
4. print per-camera metrics plus the shared-resource aggregates
   (labeling-queue delay, per-tenant GPU seconds, upload latency).

Run with::

    python examples/fleet_demo.py

Expected runtime: ~1 CPU-minute at the default scale.

Environment knobs: the shared ``REPRO_*`` settings variables (see
:meth:`repro.eval.ExperimentSettings.from_env`) shrink the streams
and pretraining, as the CI smoke job does.
"""

from __future__ import annotations

from repro.core.fleet import CameraSpec
from repro.eval import ExperimentSettings, format_table, prepare_student, run_fleet
from repro.network.link import LinkConfig
from repro.video import build_dataset


def main() -> None:
    settings = ExperimentSettings.from_env(
        num_frames=900,        # 30 seconds of 30-fps video per camera
        eval_stride=3,
        pretrain_images=200,
        pretrain_epochs=5,
    )

    print("Pre-training the shared student detector offline ...")
    student = prepare_student(settings)

    cameras = [
        CameraSpec("intersection", build_dataset("detrac", num_frames=settings.num_frames),
                   strategy="shoggoth", seed=0),
        CameraSpec("highway", build_dataset("kitti", num_frames=settings.num_frames),
                   strategy="shoggoth", seed=1),
        CameraSpec("downtown", build_dataset("waymo", num_frames=settings.num_frames),
                   strategy="ams", seed=2),
        CameraSpec("parking_lot", build_dataset("stationary", num_frames=settings.num_frames),
                   strategy="shoggoth", seed=3),
    ]

    print(f"Running {len(cameras)} cameras against one cloud + one shared link ...")
    outcome = run_fleet(
        cameras,
        student,
        settings=settings,
        link_config=LinkConfig(uplink_kbps=10_000.0, downlink_kbps=20_000.0),
    )

    rows = []
    for entry in outcome.fleet.cameras:
        scored = outcome.per_camera[entry.camera]
        rows.append(
            {
                "Camera": entry.camera,
                "Strategy": entry.session.strategy_name,
                "mAP@0.5 (%)": round(scored.map50_percent, 1),
                "Avg FPS": round(scored.average_fps, 1),
                "Up BW (Kbps)": round(scored.uplink_kbps, 1),
                "GPU (s)": round(entry.gpu_seconds, 2),
                "Upload lat (s)": round(entry.mean_upload_latency, 3),
            }
        )
    print()
    print(format_table(rows, title="Fleet: per-camera results (shared cloud + link)"))

    fleet = outcome.fleet
    print(
        f"\nShared resources: teacher GPU busy {fleet.cloud_busy_seconds:.1f}s "
        f"of {fleet.duration_seconds:.0f}s ({100 * fleet.cloud_utilization:.0f}% utilised), "
        f"{fleet.num_labeling_batches} merged labeling batches, "
        f"mean queue delay {fleet.mean_queue_delay:.3f}s "
        f"(max {fleet.max_queue_delay:.3f}s)."
    )


if __name__ == "__main__":
    main()
