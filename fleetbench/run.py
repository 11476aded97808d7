"""End-to-end fleet benchmark: throughput, paper metrics and per-layer time.

Usage (from the repository root)::

    python3 fleetbench/run.py --workload shoggoth_fleet --seed 0 --seconds 30 --trace 0

Each invocation, in one process:

1. **Set-up** (``setup_s``): pretrains the shared student in-process
   (never from a disk cache) and builds the workload's datasets and
   camera specs, :data:`SETUP_REPS` times; every repetition must yield
   bit-identical weights.  ``setup_s`` is their median.
2. **Measurement**: repeats ``repro.eval.run_fleet`` on the workload
   (see ``workloads.py``) while the next repetition is expected to end
   within ``--seconds``, and at least :data:`MIN_REPS` times.  This is
   an offline batch simulation
   with no arrival schedule, so throughput is camera-frames simulated
   per wall-second at the workload's stated size (cameras x frames),
   per-camera scoring included; the median over repetitions is reported.
3. **Checks**, on every repetition: the fingerprint, a digest of each
   camera's per-frame detections and each camera's mAP must equal the
   first repetition's and, for pinned seeds, ``reference.json``; the
   seed-independent invariants in ``checks.py`` must hold.  A
   repetition that fails any check counts in ``failed``.

With ``--trace 1`` a checked but untimed warm-up run is followed by
alternating traced and untraced repetitions (spans recorded around each
layer's public call from ``tracer.py``).  The
traced runs must reproduce the untraced outputs exactly; the per-layer
metrics come from the traced run with the median wall time, and
``trace.overhead_frac`` compares the median traced and untraced walls.

The environment (CPU count, BLAS thread variables, numpy and OpenBLAS
versions) is printed before the result and saved with it under
``fleetbench/results/``, with the spans of the traced run.  BLAS thread
counts are left as the environment sets them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
RESULTS_DIR = os.path.join(HERE, "results")

#: in-process set-ups per invocation; ``setup_s`` is their median
SETUP_REPS = 3
#: fewest untraced repetitions of an untraced invocation
MIN_REPS = 3
#: fewest repetitions of each kind (untraced, traced) with ``--trace 1``
MIN_TRACED_REPS = 2


def environment() -> dict:
    """Host facts that change the wall-clock numbers."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "library default"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "library default"),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def student_digest(student) -> str:
    """Digest of every weight of a student (pretraining determinism check)."""
    digest = hashlib.sha256()
    for name, array in sorted(student.state_dict().items()):
        digest.update(name.encode())
        digest.update(array.tobytes())
    return digest.hexdigest()[:32]


def setup(workload, seed: int):
    """Pretrain the student and build the cameras (timed as ``setup_s``)."""
    from repro.eval import prepare_student
    from workloads import SETTINGS

    started = time.perf_counter()
    student = prepare_student(SETTINGS)
    cameras = workload.cameras(seed)
    return time.perf_counter() - started, student, cameras


def run_workload(workload, student, cameras, tracer=None):
    """One ``run_fleet`` call; returns ``(wall_seconds, FleetRunResult)``."""
    from repro.eval import run_fleet
    from workloads import SETTINGS

    kwargs = workload.kwargs()
    if tracer is None:
        started = time.perf_counter()
        result = run_fleet(cameras, student, settings=SETTINGS, **kwargs)
        return time.perf_counter() - started, result
    from tracer import ROOT

    tracer.reset()
    tracer.install()
    try:
        started = time.perf_counter()
        result = tracer.call(ROOT, run_fleet, cameras, student, settings=SETTINGS, **kwargs)
        wall = time.perf_counter() - started
    finally:
        tracer.uninstall()
    return wall, result


def simulated_metrics(run) -> dict:
    """The simulated system's outputs, as ``name -> (value, unit)``.

    Deterministic for a given seed; read once per repetition so that
    the run's results can be freed before the next one starts.
    """
    fleet = run.fleet
    uplink = [r.uplink_kbps for r in run.per_camera.values()]
    sent = fleet.num_messages_sent
    return {
        "map50": (run.mean_map50, "frac"),
        "uplink_kbps": (sum(uplink) / len(uplink), "kbps"),
        "cloud_gpu_s": (fleet.cloud_gpu_seconds, "gpu_s"),
        "label_success_frac": (1.0 - fleet.label_loss_fraction, "frac"),
        "core.cluster.gpu_util": (fleet.cloud_utilization, "frac"),
        "core.cluster.label_p95_s": (fleet.p95_queue_delay, "sim_s"),
        "core.batching.mean_batch_jobs": (fleet.mean_merged_batch_jobs, "count"),
        "network.uplink_mb": (
            sum(c.session.bandwidth.uplink_bytes for c in fleet.cameras) / 1e6, "MB"
        ),
        "core.faults.retries": (fleet.num_retries, "count"),
        # useful/attempted; nothing attempted (no fault plan) loses nothing
        "core.faults.delivered_ratio": (
            fleet.num_messages_delivered / sent if sent else 1.0, "frac"
        ),
        "core.federation.migrations": (fleet.num_region_migrations, "count"),
        "core.autoscaling.scale_events": (len(fleet.scaling_events), "count"),
    }


#: the simulated outputs reported as end-to-end metrics
SIMULATED_END_TO_END = ("map50", "uplink_kbps", "cloud_gpu_s", "label_success_frac")


def end_to_end_metrics(workload, walls, setup_times, simulated) -> dict:
    """Every end-to-end metric, from the untraced repetitions."""
    metrics = {
        "frames_per_s": (
            statistics.median(workload.camera_frames / wall for wall in walls), "1/s"
        ),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    metrics.update((name, simulated[name]) for name in SIMULATED_END_TO_END)
    return metrics


def _percentile_us(durations: list[float], q: float) -> float:
    return float(np.percentile(durations, q)) * 1e6 if durations else 0.0


def median_run(traced: list[dict]) -> dict:
    """The traced repetition with the median wall time (lower middle)."""
    return sorted(traced, key=lambda rep: rep["wall"])[(len(traced) - 1) // 2]


def per_layer_metrics(traced, untraced_walls, simulated) -> dict:
    """Every per-layer metric: span times from the median traced run."""
    from tracer import ROOT

    chosen = median_run(traced)
    summary = chosen["summary"]

    def layer(name: str) -> dict:
        return summary.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})

    def self_and_calls(name: str) -> dict:
        return {
            f"{name}.s": (layer(name)["self_s"], "s"),
            f"{name}.calls": (layer(name)["calls"], "count"),
        }

    # pooled over every traced run, for enough samples beyond the p99
    detect_durations = [
        d
        for rep in traced
        for d in rep["summary"].get("detection.student.detect", {}).get("durations", [])
    ]
    events = layer("runtime.events.run")
    metrics = {
        **self_and_calls("detection.student.detect"),
        "detection.student.detect.p50_us": (_percentile_us(detect_durations, 50.0), "us"),
        "detection.student.detect.p99_us": (_percentile_us(detect_durations, 99.0), "us"),
        **self_and_calls("core.adaptive_training.train_session"),
        "core.adaptive_training.train_session.steps": (chosen["train_steps"], "count"),
        **self_and_calls("core.adaptive_training.seed_replay"),
        **self_and_calls("video.render"),
        "video.scene.s": (layer("video.scene")["self_s"], "s"),
        **self_and_calls("detection.teacher.detect"),
        **self_and_calls("core.cloud.process_upload"),
        "runtime.events.run.s": (events["total_s"], "s"),
        "runtime.events.dispatched": (chosen["dispatched"], "count"),
        "runtime.events.self_s": (events["self_s"], "s"),
        "eval.score.s": (layer("eval.score")["self_s"], "s"),
    }
    metrics.update(
        (name, value)
        for name, value in simulated.items()
        if name not in SIMULATED_END_TO_END
    )
    metrics["trace.overhead_frac"] = (
        statistics.median(rep["wall"] for rep in traced)
        / statistics.median(untraced_walls)
        - 1.0,
        "frac",
    )
    # run_fleet's own time outside every traced layer, as a share of the
    # traced wall: what the per-layer self times leave unexplained
    metrics["trace.unaccounted_frac"] = (layer(ROOT)["self_s"] / chosen["wall"], "frac")
    return metrics


def parse_args(argv):
    """The driver's arguments: workload, seed, seconds to measure, trace flag."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run one workload and print its result; 2 if the sources are missing."""
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"fleetbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import checks
    from tracer import Tracer, write_spans
    from workloads import SETTINGS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"fleetbench: unknown workload {args.workload!r} "
            f"(known: {', '.join(WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]
    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    problems: list[str] = []
    setup_times, digests = [], set()
    for _ in range(SETUP_REPS):
        seconds, student, cameras = setup(workload, args.seed)
        setup_times.append(seconds)
        digests.add(student_digest(student))
    if len(digests) != 1:
        problems.append("pretraining is not deterministic across set-ups")

    reference = checks.load_reference().get(workload.name, {}).get(str(args.seed))
    upload_batch = SETTINGS.shoggoth_config().sampling.upload_batch_frames
    tracer = Tracer() if args.trace else None
    first_outputs = None
    untraced_walls: list[float] = []
    traced: list[dict] = []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        use_tracer = tracer is not None and attempted % 2 == 1
        wall, run = run_workload(
            workload, student, cameras, tracer if use_tracer else None
        )
        attempted += 1
        outs = checks.outputs(run)
        rep_problems = checks.invariants(
            run, workload.num_frames, SETTINGS.eval_stride, upload_batch
        )
        if reference is not None:
            rep_problems += [f"vs reference: {p}" for p in checks.compare(outs, reference)]
        elif first_outputs is None:
            first_outputs = outs
        else:
            rep_problems += [f"vs first run: {p}" for p in checks.compare(outs, first_outputs)]
        if rep_problems:
            failed += 1
            kind = "traced" if use_tracer else "untraced"
            problems += [f"run {attempted} ({kind}): {p}" for p in rep_problems]
        if use_tracer:
            traced.append(
                {
                    "wall": wall,
                    "summary": tracer.summary(),
                    "dispatched": tracer.dispatched,
                    "train_steps": tracer.train_steps,
                    "spans": tracer.spans,
                }
            )
        elif tracer is None or attempted > 1:
            # with --trace 1 the first run is a warm-up: a process's first
            # run is slower, and the overhead comparison must not charge
            # that to the untraced side
            untraced_walls.append(wall)
        simulated = simulated_metrics(run)
        # a run's results hold reference cycles; free them now so each
        # repetition starts from the same heap and peak RSS is one run's
        del run
        gc.collect()
        if tracer is None:
            enough = len(untraced_walls) >= MIN_REPS
        else:
            enough = min(len(untraced_walls), len(traced)) >= MIN_TRACED_REPS
        walls = untraced_walls + [rep["wall"] for rep in traced]
        if enough and time.perf_counter() + statistics.median(walls) > deadline:
            break

    if args.trace:
        metrics = per_layer_metrics(traced, untraced_walls, simulated)
    else:
        metrics = end_to_end_metrics(workload, untraced_walls, setup_times, simulated)

    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "camera_frames": workload.camera_frames,
        "env": env,
        "setup_s": setup_times,
        "untraced_walls_s": untraced_walls,
        "traced_walls_s": [rep["wall"] for rep in traced],
        "problems": problems,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    with open(stem + ".json", "w") as handle:
        json.dump(record, handle, indent=1)
    if traced:
        chosen = median_run(traced)
        write_spans(
            stem + "-spans.json",
            chosen["spans"],
            {"workload": workload.name, "seed": args.seed, "wall_s": chosen["wall"]},
        )

    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:>14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
