"""Pin the paper's artifacts: live renderings equal ``artifacts/<id>.txt``.

Every artifact with a committed text file is rendered in one shared serial
context (uncached, so the engines really run) and compared byte for byte,
in the form the CLI prints it: each report's rendering followed by a blank
line.  The sweep artifacts that fan out through the process pool are
rendered again in a 2-worker context, with ``available_cpus`` patched so
the pool runs even on a single-core host.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.cli import EXPERIMENT_IDS, run_experiment
from repro.experiments.runner import ExperimentContext

ARTIFACTS = Path(__file__).resolve().parents[2] / "artifacts"

#: Artifact ids with a committed rendering, in CLI order.
PINNED = tuple(i for i in EXPERIMENT_IDS if (ARTIFACTS / f"{i}.txt").is_file())

#: Artifacts whose suites are computed by the pool when ``jobs > 1``.
POOLED = ("fig5", "fig6", "fig7", "fig8", "ablation_transition_speed")


def _render(exp_id: str, ctx: ExperimentContext) -> str:
    return "".join(rep.render() + "\n" for rep in run_experiment(exp_id, ctx))


@pytest.fixture(scope="module")
def serial_ctx():
    return ExperimentContext(jobs=1, cache=False)


@pytest.fixture(scope="module")
def pooled_renderings():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("repro.experiments.parallel.available_cpus", lambda: 2)
        ctx = ExperimentContext(jobs=2, cache=False)
        assert ctx.executor.jobs == 2
        return {exp_id: _render(exp_id, ctx) for exp_id in POOLED}


def test_every_committed_artifact_is_pinned():
    committed = {p.stem for p in ARTIFACTS.glob("*.txt")}
    assert committed == set(PINNED)
    assert set(POOLED) <= committed


@pytest.mark.parametrize("exp_id", PINNED)
def test_serial_rendering_matches_committed(exp_id, serial_ctx):
    want = (ARTIFACTS / f"{exp_id}.txt").read_bytes()
    assert _render(exp_id, serial_ctx).encode() == want


@pytest.mark.parametrize("exp_id", POOLED)
def test_pooled_rendering_matches_committed(exp_id, pooled_renderings):
    want = (ARTIFACTS / f"{exp_id}.txt").read_bytes()
    assert pooled_renderings[exp_id].encode() == want
