"""A warm result cache serves every transformed suite, extension and
ablation replay: re-rendering replays nothing, plans nothing, and builds
no per-sub-request objects from the cached columns."""

from __future__ import annotations

import sys

from repro.cache import ResultCache
from repro.disksim import simulator
from repro.disksim.stats import BusyInterval
from repro.experiments import fig13
from repro.experiments.ablations import (
    estimation_error_sweep,
    preactivation_ablation,
    transition_speed_ablation,
)
from repro.experiments.extensions import multi_nest_tiling
from repro.experiments.pdc_experiment import run as run_pdc
from repro.experiments.runner import ExperimentContext
from repro.power import insertion

#: The artifacts whose replays sit outside the default suites, each on its
#: cheapest benchmark that still exercises every replay it makes.
RENDERS = {
    "fig13": lambda ctx: fig13.run(ctx, benchmarks=("mesa",)),
    "ext_multitiling": lambda ctx: multi_nest_tiling(ctx, benchmarks=("mesa",)),
    "ext_pdc": lambda ctx: run_pdc(ctx, benchmarks=("swim",)),
    "ablation_preactivation": lambda ctx: preactivation_ablation(
        ctx, benchmarks=("swim",)
    ),
    "ablation_estimation_error": lambda ctx: estimation_error_sweep(
        ctx, benchmark="galgel", errors=(0.0, 0.2)
    ),
    "ablation_transition_speed": lambda ctx: transition_speed_ablation(
        ctx, benchmark="galgel", per_step_s=(0.05, 0.4)
    ),
}


def _render_all(ctx: ExperimentContext) -> dict[str, str]:
    return {name: render(ctx).render() for name, render in RENDERS.items()}


def _count_calls(monkeypatch, original, counts: dict, name: str) -> None:
    """Replace ``original`` in every loaded ``repro`` module that binds it
    with a wrapper counting its calls under ``name``."""
    counts[name] = 0

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counted)


def test_warm_render_does_no_replay_or_planning(tmp_path, monkeypatch):
    cold_ctx = ExperimentContext(cache=ResultCache(tmp_path))
    cold = _render_all(cold_ctx)
    assert cold_ctx.result_cache.misses > 0

    counts: dict[str, int] = {}
    _count_calls(monkeypatch, simulator.simulate, counts, "simulate")
    _count_calls(monkeypatch, insertion.plan_power_calls, counts, "plan_power_calls")
    coverage = simulator.replay_coverage()

    warm_ctx = ExperimentContext(cache=ResultCache(tmp_path))
    warm = _render_all(warm_ctx)

    assert warm == cold
    assert counts == {"simulate": 0, "plan_power_calls": 0}
    assert simulator.replay_coverage() == coverage
    assert warm_ctx.result_cache.misses == 0


def test_warm_render_builds_no_busy_interval(tmp_path, monkeypatch):
    cold = _render_all(ExperimentContext(cache=ResultCache(tmp_path)))

    built: list[tuple] = []
    original = BusyInterval.__new__

    def spy(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(BusyInterval, "__new__", staticmethod(spy))
    assert BusyInterval(0, 0.0, 1.0) and built  # the spy sees construction
    built.clear()

    warm = _render_all(ExperimentContext(cache=ResultCache(tmp_path)))

    assert warm == cold
    assert built == []
