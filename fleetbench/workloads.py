"""The benchmark's fleet workloads and the per-layer metrics each one moves.

Every workload is one ``repro.eval.run_fleet`` call built from the
``--seed`` argument alone.  The seed picks each camera's seed, which
drives its training order and replay sampling.  The streams and the
fault plan are fixed parts of each workload: drawing them from the
seed changed the work a run does (uploads, retries, crashes) by 10-30%
from seed to seed, far more than the host noise the benchmark is meant
to resolve.  edge_only and cloud_only cameras draw no random numbers,
so ``baseline_fleet`` runs the same simulation for every seed.

All workloads cycle the four dataset presets (detrac, kitti, waymo,
stationary), so drifting and stationary streams both appear.  The
student is pretrained in-process on every invocation
(:data:`SETTINGS`), from a fixed seed that does not depend on
``--seed``: the model is part of the system under test.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable

from repro.core.faults import FaultPlan
from repro.core.federation import RegionSpec
from repro.core.fleet import CameraSpec
from repro.eval import ExperimentSettings
from repro.network.link import WanProfile
from repro.video.datasets import DATASET_BUILDERS, build_dataset

__all__ = ["SETTINGS", "WORKLOADS", "LAYER_PREDICTIONS", "Workload", "build_cameras"]

#: Shared experiment settings.  Pretraining is sized so that the median
#: of several in-process set-ups fits the run budget.  ``num_frames`` is
#: not read: each workload sets its own stream length.
SETTINGS = ExperimentSettings(
    eval_stride=3,
    pretrain_images=96,
    pretrain_epochs=4,
    map_window=15,
    replay_seed_images=30,
    seed=0,
)

DATASET_CYCLE = ("detrac", "kitti", "waymo", "stationary")

#: Each preset's own default stream seed (``make_<preset>(seed=...)``).
_PRESET_SEEDS = {
    name: inspect.signature(builder).parameters["seed"].default
    for name, builder in DATASET_BUILDERS.items()
}


def build_cameras(
    strategies: tuple[str, ...],
    num_frames: int,
    seed: int,
    distinct_streams: bool = False,
) -> list[CameraSpec]:
    """One camera per entry of ``strategies``, datasets cycling the presets.

    Camera ``i`` watches preset ``DATASET_CYCLE[i % 4]`` and has camera
    seed ``1000 * seed + i``.  Cameras that share a preset share its
    stream (identical frames) unless ``distinct_streams`` gives every
    camera its own stream.
    """
    cameras = []
    for i, strategy in enumerate(strategies):
        preset = DATASET_CYCLE[i % len(DATASET_CYCLE)]
        copy = i // len(DATASET_CYCLE) if distinct_streams else 0
        cameras.append(
            CameraSpec(
                name=f"cam{i}",
                dataset=build_dataset(
                    preset,
                    num_frames=num_frames,
                    seed=_PRESET_SEEDS[preset] + 100 * copy,
                ),
                strategy=strategy,
                seed=1000 * seed + i,
            )
        )
    return cameras


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its fleet, its run_fleet arguments and why."""

    name: str
    why: str
    strategies: tuple[str, ...]
    num_frames: int
    #: ``duration_seconds -> run_fleet keyword arguments``, built fresh
    #: for every run
    fleet_kwargs: Callable[[float], dict] = field(repr=False)
    distinct_streams: bool = False

    @property
    def num_cameras(self) -> int:
        """Cameras in the fleet."""
        return len(self.strategies)

    @property
    def camera_frames(self) -> int:
        """Camera-frames one run simulates (the throughput numerator)."""
        return self.num_cameras * self.num_frames

    @property
    def duration_seconds(self) -> float:
        """Simulated episode length (every preset streams at 30 fps)."""
        return self.num_frames / 30.0

    def cameras(self, seed: int) -> list[CameraSpec]:
        """The fleet's camera specs for workload seed ``seed``."""
        return build_cameras(
            self.strategies, self.num_frames, seed, self.distinct_streams
        )

    def kwargs(self) -> dict:
        """Fresh ``run_fleet`` keyword arguments for one run."""
        return self.fleet_kwargs(self.duration_seconds)


def _shoggoth_fleet(duration: float) -> dict:
    return {"num_gpus": 2, "batching": "latency_budget", "autoscaler": "slo"}


def _baseline_fleet(duration: float) -> dict:
    return {"num_gpus": 2}


#: WAN shapes of the three federated regions: RTT climbs while the
#: egress price falls, so ``least_loaded`` and cost trade off.
_WAN_SHAPES = (
    {"rtt_seconds": 0.02, "cost_per_gb": 0.08},
    {"rtt_seconds": 0.06, "cost_per_gb": 0.04},
    {"rtt_seconds": 0.12, "cost_per_gb": 0.02},
)


def _federated_chaos(duration: float) -> dict:
    regions = [
        RegionSpec(
            name=f"region{i}",
            num_gpus=2,
            wan=WanProfile(**shape),
            # a policy name (not an instance) lets crash recovery mint
            # replacement workers
            scheduler="fifo",
            batching="latency_budget",
            autoscaler="slo",
        )
        for i, shape in enumerate(_WAN_SHAPES)
    ]
    faults = FaultPlan(
        # a fixed plan seed whose draw includes several worker crashes,
        # so crash recovery runs whatever the benchmark seed
        seed=1,
        loss_rate=0.05,
        duplicate_rate=0.03,
        delay_rate=0.05,
        mean_delay_seconds=0.3,
        retry_timeout_seconds=0.5,
        max_attempts=4,
        mean_time_between_crashes=duration / 2.0,
        mean_time_between_partitions=duration / 2.0,
        mean_partition_seconds=0.3,
    )
    return {
        "regions": regions,
        "region_selector": "least_loaded",
        # the home region goes dark mid-episode and heals before the end
        "region_outages": [(0.4 * duration, 0.7 * duration, 0)],
        "replication_interval_seconds": duration / 4.0,
        "faults": faults,
    }


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="shoggoth_fleet",
            why=(
                "The paper's system: 8 Shoggoth cameras, 2 GPUs, latency_budget "
                "batching, slo autoscaler. Edge training, inference and replay "
                "seeding dominate, so hot-layer changes must show here."
            ),
            strategies=("shoggoth",) * 8,
            num_frames=150,
            fleet_kwargs=_shoggoth_fleet,
        ),
        Workload(
            name="baseline_fleet",
            why=(
                "The paper's comparison points: 4 edge_only + 4 cloud_only cameras "
                "on the same streams. Nothing trains or seeds replay; inference "
                "and rendering dominate."
            ),
            strategies=("edge_only",) * 4 + ("cloud_only",) * 4,
            num_frames=150,
            fleet_kwargs=_baseline_fleet,
        ),
        Workload(
            name="federated_chaos",
            why=(
                "16 cameras (1 AMS in 4) over 3 WAN regions: home-region outage, "
                "weight replication, seeded faults. The only "
                "federation/fault/failover path; distinct streams per camera."
            ),
            strategies=("shoggoth", "shoggoth", "ams", "shoggoth") * 4,
            num_frames=90,
            fleet_kwargs=_federated_chaos,
            distinct_streams=True,
        ),
    )
}

#: For each per-layer metric: the end-to-end metric it should move and
#: on which workload(s), most affected first.  Later changes cite these
#: predictions by metric name.
LAYER_PREDICTIONS: dict[str, str] = {
    "detection.student.detect": (
        "frames_per_s, most on baseline_fleet, then shoggoth_fleet"
    ),
    "core.adaptive_training.train_session": (
        "frames_per_s on shoggoth_fleet and federated_chaos (zero on "
        "baseline_fleet); setup_s, since pretraining runs the same backward"
    ),
    "core.adaptive_training.seed_replay": (
        "frames_per_s on federated_chaos, then shoggoth_fleet (zero on "
        "baseline_fleet)"
    ),
    "video.render": (
        "frames_per_s, most on baseline_fleet; a render cache also peak_rss_mb"
    ),
    "video.scene": "frames_per_s, most on baseline_fleet",
    "detection.teacher.detect": (
        "frames_per_s, mainly on baseline_fleet (cloud_only runs the teacher "
        "on every evaluated frame)"
    ),
    "core.cloud.process_upload": "frames_per_s, mainly on baseline_fleet",
    "runtime.events": (
        "frames_per_s; self_s is the control plane's own time and the ceiling "
        "on any kernel or control-plane speedup, exercised most on "
        "federated_chaos"
    ),
    "eval.score": "frames_per_s on every workload",
    "core.cluster.gpu_util": "cloud_gpu_s on federated_chaos",
    "core.cluster.label_p95_s": "label_success_frac on federated_chaos",
    "core.batching.mean_batch_jobs": "cloud_gpu_s on federated_chaos",
    "network.uplink_mb": "uplink_kbps on every workload",
    "core.faults.retries": "uplink_kbps and label_success_frac on federated_chaos",
    "core.faults.delivered_ratio": "label_success_frac on federated_chaos",
    "core.federation.migrations": (
        "label_success_frac and cloud_gpu_s on federated_chaos"
    ),
    "core.autoscaling.scale_events": (
        "cloud_gpu_s on shoggoth_fleet and federated_chaos"
    ),
}
