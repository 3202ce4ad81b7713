"""Scalable synthetic block-I/O workloads.

The bundled workloads exercise the paper's loop-nest access patterns;
this module generates *arrival-process* workloads instead — Poisson,
bursty on-off, and Pareto-burst request streams with configurable LBA
skew and read/write mix — emitted directly as chunked
:class:`~repro.trace.request.RequestColumns`, so a 10⁶⁺-request stream
replays through the bounded-memory path without ever materializing.

Generation is fully deterministic: the chunk factory reseeds
``numpy.random.default_rng(config.seed)`` on every pass, so the stream is
re-iterable (multi-scheme replays, whole-vs-streamed differential tests)
and any chunking of one configuration yields the identical request
sequence.

Arrival models (``config.model``):

* ``"poisson"`` — i.i.d. exponential gaps at ``rate_hz``.
* ``"onoff"`` — exponential gaps, with a geometric fraction of requests
  (mean burst length ``burst_len``) opening a new burst after an
  additional exponential off-period of mean ``off_s``: bursts of
  back-to-back requests separated by long silences.
* ``"pareto"`` — heavy-tailed Pareto gaps (index ``pareto_alpha``),
  scaled to mean ``1 / rate_hz``; produces self-similar burstiness.

LBA placement draws a slot in one shared file: uniform at ``lba_skew=0``,
and increasingly concentrated near the file start as ``lba_skew → 1``
(the draw is ``u**(1/(1-skew))``).  Like ingested traces, synthetic
requests carry no loop-nest provenance
(:data:`~repro.trace.request.UNKNOWN_POSITION`) and are normally
replayed open-loop; ``total_compute_s`` is 0, so open-loop execution
time runs to the last request completion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..layout.files import DEFAULT_STRIPE_SIZE, FileEntry, SubsystemLayout
from ..layout.striping import Striping
from ..util.errors import TraceError
from ..util.units import KB, MB
from .request import RequestColumns, Trace, UNKNOWN_POSITION
from .stream import TraceStream

__all__ = ["SynthConfig", "synth_layout", "synth_stream", "synth_trace"]

_MODELS = ("poisson", "onoff", "pareto")


@dataclass(frozen=True)
class SynthConfig:
    """One synthetic workload, fully determined by its field values."""

    num_requests: int
    num_disks: int = 8
    model: str = "poisson"
    #: Long-run request rate (all models are scaled to this mean).
    rate_hz: float = 2000.0
    #: Mean requests per on-burst (``onoff`` only).
    burst_len: float = 16.0
    #: Mean off-period between bursts, seconds (``onoff`` only).
    off_s: float = 0.05
    #: Pareto tail index, > 1 (``pareto`` only).
    pareto_alpha: float = 1.5
    read_fraction: float = 0.7
    #: 0 = uniform LBAs; → 1 concentrates accesses near the file start.
    lba_skew: float = 0.0
    request_bytes: int = 8 * KB
    #: Logical extent the requests fall in (one file over all disks).
    file_bytes: int = 256 * MB
    seed: int = 0
    chunk_requests: int = 65536

    def __post_init__(self) -> None:
        if self.num_requests < 1:
            raise TraceError(f"num_requests must be >= 1, got {self.num_requests}")
        if self.num_disks < 1:
            raise TraceError(f"num_disks must be >= 1, got {self.num_disks}")
        if self.model not in _MODELS:
            raise TraceError(
                f"unknown arrival model {self.model!r} "
                f"(expected one of {', '.join(_MODELS)})"
            )
        if self.rate_hz <= 0:
            raise TraceError(f"rate_hz must be positive, got {self.rate_hz}")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise TraceError(
                f"read_fraction must be in [0, 1], got {self.read_fraction}"
            )
        if not 0.0 <= self.lba_skew < 1.0:
            raise TraceError(f"lba_skew must be in [0, 1), got {self.lba_skew}")
        if self.pareto_alpha <= 1.0:
            raise TraceError(
                f"pareto_alpha must be > 1, got {self.pareto_alpha}"
            )
        if self.burst_len < 1.0:
            raise TraceError(f"burst_len must be >= 1, got {self.burst_len}")
        if self.off_s < 0:
            raise TraceError(f"off_s must be >= 0, got {self.off_s}")
        if self.request_bytes < 1:
            raise TraceError(
                f"request_bytes must be >= 1, got {self.request_bytes}"
            )
        if self.file_bytes < self.request_bytes:
            raise TraceError("file_bytes must hold at least one request")
        if self.chunk_requests < 1:
            raise TraceError(
                f"chunk_requests must be >= 1, got {self.chunk_requests}"
            )

    def describe(self) -> str:
        """Stable one-line parameter descriptor (cache keys, manifests)."""
        return (
            f"synth(model={self.model},n={self.num_requests},"
            f"disks={self.num_disks},rate={self.rate_hz!r},"
            f"burst={self.burst_len!r},off={self.off_s!r},"
            f"alpha={self.pareto_alpha!r},read={self.read_fraction!r},"
            f"skew={self.lba_skew!r},req={self.request_bytes},"
            f"file={self.file_bytes},seed={self.seed})"
        )


def synth_layout(config: SynthConfig) -> SubsystemLayout:
    """One file (``synth``) striped over all disks, paper-style."""
    return SubsystemLayout(
        num_disks=config.num_disks,
        entries=(
            FileEntry(
                array_name="synth",
                size_bytes=config.file_bytes,
                striping=Striping(0, config.num_disks, DEFAULT_STRIPE_SIZE),
                base_block=0,
            ),
        ),
    )


def _chunks(config: SynthConfig) -> Iterator[RequestColumns]:
    rng = np.random.default_rng(config.seed)
    slots = config.file_bytes // config.request_bytes
    mean_gap = 1.0 / config.rate_hz
    skew_exp = 1.0 / (1.0 - config.lba_skew) if config.lba_skew else 1.0
    last = 0.0
    remaining = config.num_requests
    while remaining > 0:
        n = min(config.chunk_requests, remaining)
        remaining -= n
        if config.model == "poisson":
            gaps = rng.exponential(mean_gap, n)
        elif config.model == "onoff":
            gaps = rng.exponential(mean_gap, n)
            starts = rng.random(n) < 1.0 / config.burst_len
            k = int(starts.sum())
            if k:
                gaps[starts] += rng.exponential(config.off_s, k)
        else:  # pareto
            # Pareto(alpha) has mean 1/(alpha-1); rescale to mean_gap.
            gaps = rng.pareto(config.pareto_alpha, n) * (
                mean_gap * (config.pareto_alpha - 1.0)
            )
        times = last + np.add.accumulate(gaps)
        last = float(times[-1])
        u = rng.random(n)
        if skew_exp != 1.0:
            u = u**skew_exp
        idx = np.minimum((u * slots).astype(np.int64), slots - 1)
        yield RequestColumns(
            nominal_time_s=times,
            array_id=np.zeros(n, dtype=np.int64),
            offset=idx * config.request_bytes,
            nbytes=np.full(n, config.request_bytes, dtype=np.int64),
            is_write=rng.random(n) >= config.read_fraction,
            nest=np.full(n, UNKNOWN_POSITION, dtype=np.int64),
            iteration=np.full(n, UNKNOWN_POSITION, dtype=np.int64),
            array_names=("synth",),
        )


def synth_stream(config: SynthConfig) -> TraceStream:
    """The workload as a re-iterable bounded-memory stream."""
    return TraceStream(
        program_name=f"synth-{config.model}",
        layout=synth_layout(config),
        total_compute_s=0.0,
        chunks=lambda: _chunks(config),
        directives=(),
    )


def synth_trace(config: SynthConfig) -> Trace:
    """The workload materialized whole (differential tests, small runs):
    the stream's chunks joined end to end."""
    return Trace(
        program_name=f"synth-{config.model}",
        layout=synth_layout(config),
        total_compute_s=0.0,
        columns=RequestColumns.concat(list(_chunks(config)), ("synth",)),
    )
