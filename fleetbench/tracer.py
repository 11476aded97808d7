"""Span tracing installed from outside the program, around its public calls.

:class:`Tracer` replaces a handful of public functions and methods with
wrappers that record one span per call: name, start, end, the span that
was open when the call began (its parent) and the camera being served,
where the event being dispatched identifies one.  Spans stay in memory
until :func:`write_spans`.  Nothing in ``src/`` is edited: the wrappers
are installed by :meth:`Tracer.install` and removed by
:meth:`Tracer.uninstall`, so an untraced run executes the original code.

A span's *self time* is its duration minus the time its child spans
cover.  The run's root span (``eval.run_fleet``) has every other span
beneath it, so the self times of all spans sum to its wall time.
"""

from __future__ import annotations

import json
import time
from typing import Callable

import repro.eval.runner as runner
from repro.core.actors import SessionKernel
from repro.core.adaptive_training import AdaptiveTrainer
from repro.core.cloud import CloudServer
from repro.detection.student import StudentDetector
from repro.detection.teacher import TeacherDetector
from repro.runtime.events import (
    EventScheduler,
    FrameArrival,
    LabelsReady,
    ModelDownloadComplete,
    TrainingDone,
    UploadComplete,
)
from repro.video.render import FrameRenderer
from repro.video.scene import Scene

__all__ = ["ROOT", "Tracer", "write_spans"]

#: root span: the whole ``run_fleet`` call
ROOT = "eval.run_fleet"

#: event types whose ``camera_id`` names the camera being served (the
#: others leave it at its default or serve several cameras at once)
_CAMERA_EVENTS = (
    FrameArrival,
    UploadComplete,
    LabelsReady,
    ModelDownloadComplete,
    TrainingDone,
)

# span record fields
_NAME, _START, _END, _PARENT, _CAMERA, _CHILD = range(6)


class Tracer:
    """Records spans around the layers' public calls while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.dispatched = 0
        self.train_steps = 0
        self._stack: list[int] = []
        self._camera: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------
    def reset(self) -> None:
        """Forget every recorded span and count (wrappers stay installed)."""
        self.spans = []
        self.dispatched = 0
        self.train_steps = 0
        self._stack = []
        self._camera = None

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._camera, 0.0])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span[_END] = time.perf_counter()
        self._stack.pop()
        if span[_PARENT] >= 0:
            self.spans[span[_PARENT]][_CHILD] += span[_END] - span[_START]

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    # -- installation -----------------------------------------------------------
    def _wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        on_result: Callable[[object], None] | None = None,
    ) -> None:
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def _wrap_dispatch(self) -> None:
        """Track the camera each dispatched event serves (no span)."""
        original = SessionKernel.dispatch
        tracer = self

        def dispatch(kernel, event):
            outer = tracer._camera
            tracer._camera = (
                event.camera_id if isinstance(event, _CAMERA_EVENTS) else None
            )
            try:
                return original(kernel, event)
            finally:
                tracer._camera = outer

        SessionKernel.dispatch = dispatch
        self._patches.append((SessionKernel, "dispatch", original))

    def _count_dispatched(self, dispatched: int) -> None:
        self.dispatched += dispatched

    def _count_steps(self, report) -> None:
        self.train_steps += report.num_steps

    def install(self) -> None:
        """Wrap every traced layer's public call."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._wrap(StudentDetector, "detect", "detection.student.detect")
        self._wrap(TeacherDetector, "detect", "detection.teacher.detect")
        self._wrap(
            AdaptiveTrainer,
            "train_session",
            "core.adaptive_training.train_session",
            self._count_steps,
        )
        self._wrap(AdaptiveTrainer, "seed_replay", "core.adaptive_training.seed_replay")
        self._wrap(CloudServer, "process_upload", "core.cloud.process_upload")
        self._wrap(FrameRenderer, "render", "video.render")
        self._wrap(Scene, "step", "video.scene")
        self._wrap(EventScheduler, "run", "runtime.events.run", self._count_dispatched)
        # run_fleet scores each camera through these module-level names
        for attr in ("evaluate_map", "windowed_map", "evaluate_average_iou"):
            self._wrap(runner, attr, "eval.score")
        self._wrap_dispatch()

    def uninstall(self) -> None:
        """Restore every wrapped call (reverse order of installation)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ------------------------------------------------------------------
    def summary(self) -> dict[str, dict]:
        """Per span name: call count, self seconds and inclusive durations."""
        out: dict[str, dict] = {}
        for span in self.spans:
            duration = span[_END] - span[_START]
            entry = out.setdefault(
                span[_NAME], {"calls": 0, "self_s": 0.0, "durations": []}
            )
            entry["calls"] += 1
            entry["self_s"] += duration - span[_CHILD]
            entry["durations"].append(duration)
        for entry in out.values():
            entry["total_s"] = sum(entry["durations"])
        return out


def write_spans(path: str, spans: list[list], meta: dict) -> None:
    """Write recorded spans (times relative to the first span) as JSON."""
    origin = spans[0][_START] if spans else 0.0
    records = [
        {
            "name": span[_NAME],
            "start_s": span[_START] - origin,
            "end_s": span[_END] - origin,
            "parent": span[_PARENT],
            "camera": span[_CAMERA],
        }
        for span in spans
    ]
    with open(path, "w") as handle:
        json.dump({"meta": meta, "spans": records}, handle)
