"""Output checks run on every benchmark repetition.

``FleetResult.fingerprint()`` covers queueing, GPU accounting and fault
counters but no detections and no accuracy: an edge_only camera adds
only ``num_uploads=0`` to it, so a change that alters its boxes would
pass unseen.  :func:`outputs` therefore records, next to the
fingerprint, every camera's mAP and its per-frame detections (an exact
digest of which boxes of which class were found per frame, plus float
moments of their coordinates and scores), and :func:`compare` checks
them against a pinned reference.
:func:`invariants` checks properties that hold for any seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from repro.eval.runner import FleetRunResult

__all__ = ["REFERENCE_PATH", "outputs", "compare", "invariants", "load_reference"]

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


#: relative tolerance on detection moments and mAP.  OpenBLAS sums a
#: GEMM in another order for another thread count (or CPU kernel), which
#: moved the moments by at most 7e-15 between 1 and 2 threads; float32
#: arithmetic would move them by ~1e-8.
REL_TOL = 1e-12


def _detections_record(evaluated: list[int], detections_per_frame: list) -> dict:
    """A camera's detections: exact structure digest plus float moments."""
    structure = hashlib.sha256()
    structure.update(np.asarray(evaluated, dtype=np.int64).tobytes())
    rows = []
    for detections in detections_per_frame:
        structure.update(np.int64(len(detections)).tobytes())
        structure.update(np.asarray([d.class_id for d in detections], np.int64).tobytes())
        rows.extend((d.cx, d.cy, d.w, d.h, d.score) for d in detections)
    values = np.asarray(rows, dtype=np.float64).reshape(-1, 5)
    # position weights make the moments sensitive to which box moved
    weights = np.arange(1, values.shape[0] + 1, dtype=np.float64)
    moments = np.concatenate([values.sum(axis=0), weights @ values])
    return {"structure": structure.hexdigest()[:32], "moments": moments.tolist()}


def outputs(run: FleetRunResult) -> dict:
    """The run's checked outputs: fingerprint plus per-camera detections and mAP."""
    cameras = {}
    for entry in run.fleet.cameras:
        session = entry.session
        cameras[entry.camera] = {
            "detections": _detections_record(
                session.evaluated_frame_indices, session.detections_per_frame
            ),
            "map50": run.per_camera[entry.camera].map50,
        }
    return {"fingerprint": run.fleet.fingerprint(), "cameras": cameras}


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def compare(got: dict, want: dict) -> list[str]:
    """Differences between two :func:`outputs` records (empty = equal)."""
    problems = []
    if got["fingerprint"] != want["fingerprint"]:
        problems.append(
            f"fingerprint {got['fingerprint'][:16]} != {want['fingerprint'][:16]}"
        )
    if sorted(got["cameras"]) != sorted(want["cameras"]):
        problems.append("camera sets differ")
        return problems
    for name, record in got["cameras"].items():
        expected = want["cameras"][name]
        got_dets, want_dets = record["detections"], expected["detections"]
        if got_dets["structure"] != want_dets["structure"]:
            problems.append(f"{name}: detected boxes or classes differ")
        elif not all(map(_close, got_dets["moments"], want_dets["moments"])):
            problems.append(f"{name}: detection coordinates or scores differ")
        if not _close(record["map50"], expected["map50"]):
            problems.append(f"{name}: map50 {record['map50']!r} != {expected['map50']!r}")
    return problems


def load_reference() -> dict:
    """Pinned outputs: ``{workload: {str(seed): outputs}}``."""
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def invariants(
    run: FleetRunResult, num_frames: int, eval_stride: int, upload_batch_frames: int
) -> list[str]:
    """Seed-independent properties every run must satisfy (empty = all hold)."""
    problems = []
    fleet = run.fleet
    expected_eval = list(range(0, num_frames, eval_stride))
    uploaded_frames = 0
    for entry in fleet.cameras:
        session = entry.session
        # frames arrive in order and every eval_stride-th one is scored, so
        # this list pins both the stream's full length and the eval count
        if session.evaluated_frame_indices != expected_eval:
            problems.append(
                f"{entry.camera}: evaluated {len(session.evaluated_frame_indices)} "
                f"frames, expected ceil({num_frames}/{eval_stride}) = "
                f"{math.ceil(num_frames / eval_stride)} in order"
            )
        if len(session.detections_per_frame) != len(expected_eval):
            problems.append(f"{entry.camera}: detections do not cover every evaluated frame")
        # every upload ships exactly one full sample buffer
        uploaded_frames += session.num_uploads * upload_batch_frames
    if fleet.num_labeled_frames > uploaded_frames:
        problems.append(
            f"labelled frames {fleet.num_labeled_frames} > uploaded frames "
            f"{uploaded_frames}"
        )
    per_camera = sum(fleet.gpu_seconds_by_camera.values())
    if not math.isclose(per_camera, fleet.cloud_gpu_seconds, rel_tol=1e-9, abs_tol=1e-9):
        problems.append(
            f"per-camera GPU-seconds {per_camera!r} != cloud_gpu_seconds "
            f"{fleet.cloud_gpu_seconds!r}"
        )
    return problems
