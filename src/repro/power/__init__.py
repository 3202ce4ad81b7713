"""Power-management planning: break-even, per-gap optimization, call insertion."""

from .codegen import insert_calls_into_nest, render_plan
from .breakeven import (
    drpm_breakeven_s,
    drpm_breakeven_table,
    drpm_cycle_energy_j,
    tpm_breakeven_s,
    tpm_cycle_energy_j,
)
from .insertion import (
    DEFAULT_CALL_OVERHEAD_CYCLES,
    CompilerPlan,
    plan_power_calls,
)
from .planner import DECISION_ROW, GapMode, acting, plan_gaps

__all__ = [
    "insert_calls_into_nest",
    "render_plan",
    "drpm_breakeven_s",
    "drpm_breakeven_table",
    "drpm_cycle_energy_j",
    "tpm_breakeven_s",
    "tpm_cycle_energy_j",
    "DEFAULT_CALL_OVERHEAD_CYCLES",
    "CompilerPlan",
    "plan_power_calls",
    "DECISION_ROW",
    "GapMode",
    "acting",
    "plan_gaps",
]
