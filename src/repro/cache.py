"""Persistent, content-addressed result cache for the experiment engine.

Replaying the paper's evaluation regenerates the same simulations over and
over: every figure/table derives from ``(workload, configuration, scheme)``
suite runs whose inputs are pure values.  This module caches the replay
outputs (:class:`~repro.disksim.stats.SimulationResult`, plus the compiler
plan for the CM schemes) on disk under ``.repro-cache/``, keyed by a stable
hash of everything the output depends on:

* the program IR fingerprint (``repr`` of the full :class:`~repro.ir.
  program.Program` — arrays, nests, statement costs, clock);
* the disk layout (``repr`` of :class:`~repro.layout.files.SubsystemLayout`);
* the subsystem parameters and trace options (``repr`` of the frozen
  dataclasses);
* the compiler's estimation model (error magnitude and seed);
* the scheme name;
* the code digest (:func:`code_digest`): one SHA-256 over the source of
  every module that determines results, so any edit to the engine,
  planner, trace pipeline or workloads invalidates every entry without
  anyone bumping a version by hand.

Replays that belong to no suite's scheme set (ablation and extension
replays) are stored under :meth:`ResultCache.derived_key`, derived from the
owning suite's key; every entry is read and filled through
:meth:`ResultCache.memo`.

All IR/parameter types are frozen dataclasses of tuples, strings, numbers
and enums, so their ``repr`` is deterministic across processes (no
hash-randomized sets or dicts participate), making the key a true content
address.  Entries are written atomically (temp file + ``os.replace``), so
two processes (say, two CLI runs) may share one cache directory.

Disable with ``REPRO_CACHE=0`` (or ``--no-cache`` on the experiment CLI);
point elsewhere with ``REPRO_CACHE_DIR=/path``.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import os
import pickle
import re
import shutil
import tempfile
from pathlib import Path
from typing import Any, Callable

from . import obs
from .obs import metrics as _metrics

logger = logging.getLogger(__name__)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "RESULT_SOURCES",
    "ResultCache",
    "code_digest",
    "fingerprint",
    "program_fingerprint",
    "suite_fingerprint",
    "trace_fingerprint",
]

#: Packages and modules of ``repro`` whose source determines simulation
#: results and generated traces, relative to the package root.
RESULT_SOURCES = (
    "disksim",
    "power",
    "controllers",
    "faults",
    "trace",
    "analysis",
    "layout",
    "transform",
    "workloads",
    "ir",
    "util",
    "experiments/schemes.py",
    "experiments/ablations.py",
    "experiments/pdc_experiment.py",
    "experiments/trace_replay.py",
)

_PACKAGE_ROOT = Path(__file__).resolve().parent

DEFAULT_CACHE_DIR = ".repro-cache"

_ENV_TOGGLE = "REPRO_CACHE"
_ENV_DIR = "REPRO_CACHE_DIR"

_FALSY = {"0", "false", "no", "off"}

#: Name of a per-digest entry directory (the digest's first 16 hex digits).
_DIGEST_DIR = re.compile(r"[0-9a-f]{16}")


@functools.lru_cache(maxsize=None)
def code_digest(root: Path = _PACKAGE_ROOT) -> str:
    """SHA-256 over the source of every :data:`RESULT_SOURCES` module under
    ``root`` (path and bytes of each file, in sorted order).

    Computed on first use and memoized, so a process that never builds a
    cache key never reads the source.
    """
    h = hashlib.sha256()
    for name in RESULT_SOURCES:
        path = root / name
        for f in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            data = f.read_bytes()
            h.update(f"{f.relative_to(root).as_posix()}\0{len(data)}\0".encode())
            h.update(data)
    return h.hexdigest()


def fingerprint(*parts: str) -> str:
    """SHA-256 over the given parts with an unambiguous separator."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8", "surrogatepass"))
        h.update(b"\x1f")
    return h.hexdigest()


def program_fingerprint(program) -> str:
    """Content hash of a program's full IR."""
    return fingerprint("program", repr(program.name), repr(program))


def suite_fingerprint(program, layout, params, options, estimation, faults=None) -> str:
    """Content hash of one (program, layout, params, options, estimation,
    faults) suite configuration — everything a scheme replay's output
    depends on besides the scheme itself.  ``faults`` is the optional
    :class:`~repro.faults.FaultConfig` (a frozen dataclass of numbers, so
    its ``repr`` is deterministic); clean runs hash ``faults:None`` and can
    therefore never alias a faulty regime."""
    return fingerprint(
        f"code:{code_digest()}",
        program_fingerprint(program),
        repr(layout),
        repr(params),
        repr(options),
        repr(estimation),
        f"faults:{faults!r}",
    )


def trace_fingerprint(program, layout, options, source: str | None = None) -> str:
    """Content hash of one base-trace generation — everything the generated
    request stream depends on: the program IR, the disk layout, the trace
    options, and the code digest.

    ``source`` covers traces that were not generated from a program:
    pass an ingest-source digest
    (:func:`repro.trace.ingest.ingest_fingerprint` — recorded file bytes
    plus every normalization parameter) or a synthetic-workload
    descriptor (:meth:`repro.trace.synth.SynthConfig.describe`), with
    ``program``/``options`` as ``None``.  A sourced trace hashes the
    ``source`` field where a generated one hashes ``source:None``, so the
    two key spaces can never alias."""
    return fingerprint(
        f"code:{code_digest()}",
        program_fingerprint(program) if program is not None else "program:None",
        repr(layout),
        repr(options),
        f"source:{source}",
    )


class ResultCache:
    """On-disk pickle store addressed by content hash.

    ``load`` returns ``None`` on any miss — absent file, unreadable pickle,
    or an envelope written by other code (a different
    :func:`code_digest`) — so callers just recompute; ``store`` is
    atomic and best-effort (a read-only filesystem degrades to a no-op).

    Entries live under ``root/<digest[:16]>/<key[:2]>/<key>.pkl``, one
    directory per :func:`code_digest`.  Every key hashes the digest, so a
    source edit orphans every older entry; the first ``store`` of each
    cache object (and of each digest) therefore removes every sibling
    digest directory (a directory named by 16 hex digits other than the
    current digest's) and nothing else under ``root``.
    """

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        #: The digest prefix whose siblings :meth:`_prune` last removed.
        self._pruned_for: str | None = None

    # ------------------------------------------------------------------ #
    @classmethod
    def from_env(cls) -> "ResultCache | None":
        """The cache the environment asks for (``None`` when disabled)."""
        toggle = os.environ.get(_ENV_TOGGLE, "").strip().lower()
        if toggle in _FALSY:
            return None
        root = os.environ.get(_ENV_DIR, "").strip() or DEFAULT_CACHE_DIR
        return cls(root)

    # ------------------------------------------------------------------ #
    def _path(self, key: str) -> Path:
        return self.root / code_digest()[:16] / key[:2] / f"{key}.pkl"

    def _prune(self) -> None:
        """Remove the entry directories of other code digests, once per
        digest."""
        current = code_digest()[:16]
        if self._pruned_for == current:
            return
        self._pruned_for = current
        try:
            stale = [
                sub for sub in self.root.iterdir()
                if sub.name != current and _DIGEST_DIR.fullmatch(sub.name)
                and sub.is_dir()
            ]
        except OSError:
            return
        for sub in stale:
            shutil.rmtree(sub, ignore_errors=True)

    def scheme_key(self, suite_fp: str, scheme: str) -> str:
        return fingerprint(suite_fp, f"scheme:{scheme}")

    def derived_key(self, suite_fp: str, name: str) -> str:
        """Key of a result derived from a suite outside its scheme set."""
        return fingerprint(suite_fp, f"derived:{name}")

    def load(self, key: str) -> Any | None:
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                envelope = pickle.load(fh)
        except Exception:
            # Absent, truncated, or corrupted entries (unpickling raises
            # anything from OSError to ValueError) all degrade to a miss.
            self.misses += 1
            _metrics.inc("cache.misses")
            logger.debug("cache miss %s (absent or unreadable)", key[:12])
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("version") != code_digest()
        ):
            self.misses += 1
            _metrics.inc("cache.misses")
            logger.debug("cache miss %s (stale envelope code digest)", key[:12])
            return None
        self.hits += 1
        _metrics.inc("cache.hits")
        return envelope.get("payload")

    def store(self, key: str, payload: Any) -> None:
        self._prune()
        path = self._path(key)
        envelope = {"version": code_digest(), "payload": payload}
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(envelope, fh, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            # Cache is an optimization; never fail the computation.
            logger.debug("cache store of %s failed", key[:12], exc_info=True)
        else:
            _metrics.inc("cache.stores")

    def memo(self, key: str, compute: Callable[[], Any], **event: Any) -> Any:
        """The payload under ``key``, or ``compute()`` stored there on a miss.

        Lookups go through :meth:`load`/:meth:`store`, so a subclass that
        overrides them sees every probe.  ``event`` attributes, when given,
        tag a ``cache.memo`` instant event with the outcome.
        """
        payload = self.load(key)
        if event:
            obs.event(
                "cache.memo", outcome="miss" if payload is None else "hit", **event
            )
        if payload is None:
            payload = compute()
            self.store(key, payload)
        return payload

    def clear(self) -> None:
        """Remove every cached entry, and any temp file an interrupted
        :meth:`store` left behind (keeps the root directory)."""
        if not self.root.exists():
            return
        for pattern in ("*/*/*.pkl", "*/*/*.tmp"):
            for f in self.root.glob(pattern):
                try:
                    f.unlink()
                except OSError:
                    pass

    # ------------------------------------------------------------------ #
    @property
    def hit_ratio(self) -> float:
        """Hits over lookups (0.0 before the first lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """JSON-ready hit/miss summary (CLI reports, run manifests)."""
        return {
            "dir": str(self.root),
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": round(self.hit_ratio, 4),
        }

    def summary(self) -> str:
        """One-line human summary, logged at the end of experiment runs."""
        return (
            f"result cache {self.root}: {self.hits} hits, "
            f"{self.misses} misses ({self.hit_ratio:.0%} hit ratio)"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultCache({str(self.root)!r}, hits={self.hits}, "
            f"misses={self.misses})"
        )
