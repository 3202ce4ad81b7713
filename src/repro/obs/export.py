"""Chrome trace-event export: spans -> a flame chart in Perfetto.

Converts a :class:`~repro.obs.recorder.SpanRecorder`'s finished spans into
the Chrome trace-event JSON object format — loadable in
https://ui.perfetto.dev or ``chrome://tracing`` — so a full ``all_suites``
run renders as nested per-phase slices (suite -> trace.generate /
sim.replay per scheme -> analysis passes), one track per (pid, tid).

Each finished span becomes one complete event (``"ph": "X"``) whose
microsecond ``ts``/``dur`` come straight off the span record; span
attributes ride in ``args``.  Instant events become ``"ph": "i"`` with
thread scope.  Process/thread metadata events name the tracks.

:func:`validate_chrome_trace` is the schema check the test suite and the
CI obs-smoke job run against an emitted file — it enforces the fields the
viewers actually require rather than a full external JSON-schema stack
(no new dependencies).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Mapping

from .recorder import SpanRecorder

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "timeline_events",
    "TIMELINE_PID",
]

_CATEGORY = "repro"

#: Synthetic process id for the per-disk power-state timeline tracks —
#: far above any real pid range the span recorder emits, so the disk
#: tracks group separately from the host-process flame chart.
TIMELINE_PID = 1_000_000


def timeline_events(
    rec,
    program: str = "",
    scheme: str = "",
    pid: int = TIMELINE_PID,
) -> list[dict]:
    """Trace events for a :class:`~repro.disksim.timeline.TimelineRecorder`.

    One async track per disk (``"b"``/``"e"`` pairs — one async slice per
    power-state segment, with the decision ``cause`` and RPM in ``args``)
    plus one ``power_w`` counter track per disk, both on the synthetic
    timeline process so Perfetto renders disks as their own track group.
    Timestamps are *simulated* seconds converted to microseconds.
    """
    label = " ".join(x for x in (program, scheme) if x)
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {
                "name": f"disk power states ({label})" if label
                else "disk power states"
            },
        }
    ]
    for disk in rec.disks:
        tid = disk + 1
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": f"disk {disk}"},
            }
        )
        for i, seg in enumerate(rec.segments(disk)):
            ts = seg.start_s * 1e6
            te = seg.end_s * 1e6
            aid = f"d{disk}s{i}"
            events.append(
                {
                    "name": seg.state,
                    "cat": "repro.timeline",
                    "ph": "b",
                    "id": aid,
                    "ts": ts,
                    "pid": pid,
                    "tid": tid,
                    "args": {
                        "cause": seg.cause,
                        "rpm": seg.rpm,
                        "power_w": seg.power_w,
                        "duration_s": seg.duration_s,
                    },
                }
            )
            events.append(
                {
                    "name": seg.state,
                    "cat": "repro.timeline",
                    "ph": "e",
                    "id": aid,
                    "ts": te,
                    "pid": pid,
                    "tid": tid,
                }
            )
            events.append(
                {
                    "name": f"disk {disk} power_w",
                    "ph": "C",
                    "ts": ts,
                    "pid": pid,
                    "tid": tid,
                    "args": {"power_w": seg.power_w},
                }
            )
    return events


def to_chrome_trace(
    recorder: SpanRecorder,
    metadata: Mapping[str, Any] | None = None,
    process_name: str = "repro",
    extra_events: list[dict] | None = None,
) -> dict:
    """Build the trace-event JSON object for one recorder's spans.

    ``extra_events`` (e.g. :func:`timeline_events`) are appended verbatim
    after the span/instant events.
    """
    events: list[dict] = []
    seen_tracks: set[tuple[int, int]] = set()
    for span in recorder.spans:
        pid, tid = span["pid"], span["tid"]
        seen_tracks.add((pid, tid))
        events.append(
            {
                "name": span["name"],
                "cat": _CATEGORY,
                "ph": "X",
                "ts": span["ts_us"],
                "dur": span["dur_us"],
                "pid": pid,
                "tid": tid,
                "args": _jsonable(span["args"]),
            }
        )
    for event in recorder.events:
        pid, tid = event["pid"], event["tid"]
        seen_tracks.add((pid, tid))
        events.append(
            {
                "name": event["name"],
                "cat": _CATEGORY,
                "ph": "i",
                "s": "t",
                "ts": event["ts_us"],
                "pid": pid,
                "tid": tid,
                "args": _jsonable(event["args"]),
            }
        )
    meta_events: list[dict] = []
    for pid in sorted({p for p, _ in seen_tracks}):
        meta_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"{process_name} (pid {pid})"},
            }
        )
    out = {
        "traceEvents": meta_events + events + list(extra_events or ()),
        "displayTimeUnit": "ms",
    }
    if metadata:
        out["otherData"] = _jsonable(dict(metadata))
    return out


def write_chrome_trace(
    path: str | Path,
    recorder: SpanRecorder,
    metadata: Mapping[str, Any] | None = None,
    extra_events: list[dict] | None = None,
) -> Path:
    """Serialize the recorder to ``path``; returns the written path."""
    path = Path(path)
    path.write_text(
        json.dumps(to_chrome_trace(recorder, metadata, extra_events=extra_events))
        + "\n"
    )
    return path


def _jsonable(obj: Any) -> Any:
    """Best-effort conversion of span attributes to JSON-safe values."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


# ---------------------------------------------------------------------- #
_REQUIRED_COMPLETE = ("name", "ph", "ts", "dur", "pid", "tid")


def validate_chrome_trace(obj: Any) -> list[str]:
    """Check a parsed trace JSON against the Chrome trace-event contract.

    Returns a list of human-readable problems (empty == valid).  Enforced:
    top-level ``traceEvents`` list; every complete (``X``) event carries
    numeric ``ts``/``dur`` (microseconds) and integer ``pid``/``tid``;
    instant (``i``) events carry ``ts`` and a scope; async (``b``/``e``)
    events carry the (``cat``, ``id``, ``name``) triple the viewers pair
    them by; counters (``C``) carry args; nothing but known phase codes
    appears.
    """
    problems: list[str] = []
    if not isinstance(obj, dict) or "traceEvents" not in obj:
        return ["top level must be an object with a 'traceEvents' list"]
    events = obj["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' must be a list"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "i", "I", "M", "B", "E", "C", "b", "e"):
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        if ph == "X":
            for key in _REQUIRED_COMPLETE:
                if key not in ev:
                    problems.append(f"{where}: complete event missing {key!r}")
            if not isinstance(ev.get("ts"), (int, float)):
                problems.append(f"{where}: ts must be a number (microseconds)")
            if not isinstance(ev.get("dur"), (int, float)):
                problems.append(f"{where}: dur must be a number (microseconds)")
            elif ev["dur"] < 0:
                problems.append(f"{where}: negative dur")
            for key in ("pid", "tid"):
                if not isinstance(ev.get(key), int):
                    problems.append(f"{where}: {key} must be an integer")
        elif ph in ("i", "I"):
            if not isinstance(ev.get("ts"), (int, float)):
                problems.append(f"{where}: instant event needs numeric ts")
            if ev.get("s") not in ("t", "p", "g", None):
                problems.append(f"{where}: bad instant scope {ev.get('s')!r}")
        elif ph in ("b", "e"):
            # Async begin/end pairs (the per-disk timeline tracks): the
            # viewers match them by (cat, id, name), so all three plus a
            # numeric timestamp and integer track ids are required.
            for key in ("name", "cat", "id"):
                if key not in ev:
                    problems.append(f"{where}: async event missing {key!r}")
            if not isinstance(ev.get("ts"), (int, float)):
                problems.append(f"{where}: async event needs numeric ts")
            for key in ("pid", "tid"):
                if not isinstance(ev.get(key), int):
                    problems.append(f"{where}: {key} must be an integer")
        elif ph == "C":
            if "name" not in ev:
                problems.append(f"{where}: counter event missing name")
            if not isinstance(ev.get("ts"), (int, float)):
                problems.append(f"{where}: counter event needs numeric ts")
            if not isinstance(ev.get("args"), dict):
                problems.append(f"{where}: counter event needs args values")
        elif ph == "M":
            if "name" not in ev:
                problems.append(f"{where}: metadata event missing name")
    return problems


def assert_valid_chrome_trace(obj: Any) -> None:
    """Raise ``ValueError`` with all problems when the trace is invalid."""
    problems = validate_chrome_trace(obj)
    if problems:
        raise ValueError(
            "invalid Chrome trace JSON:\n  " + "\n  ".join(problems)
        )


def load_and_validate(path: str | Path) -> dict:
    """Parse ``path`` and validate it; returns the parsed object."""
    obj = json.loads(Path(path).read_text())
    assert_valid_chrome_trace(obj)
    return obj


def span_names(obj: Mapping[str, Any]) -> Iterable[str]:
    """Names of all complete events in a parsed trace (tool helper)."""
    return [
        ev["name"] for ev in obj.get("traceEvents", ()) if ev.get("ph") == "X"
    ]
