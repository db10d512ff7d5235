"""``paper_suite``: every runner of ``python -m repro.experiments``, serially.

The runners use their fixed paper seeds and sizes, so ``--seed`` and
``--seconds`` change nothing here; the spread across seeds is the
machine's.  Set-up is importing the suite (its modules are dropped from
``sys.modules`` first, so every set-up pays the import).  Each runner's table must match the one recorded
for it below, and a traced pass must print the same tables as the
untraced pass; lines reporting wall-clock time are left out of both.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
from time import perf_counter

from common import Measured

#: First 12 hex digits of the SHA-256 of each runner's table (wall-clock
#: lines removed), as ``python -m repro.experiments`` printed it when this
#: benchmark was written.
TABLE_SHA256 = {
    "table1": "9408c02459aa",
    "fig3a": "00429548ff7d",
    "fig3b": "8e17251da285",
    "fig4a": "51fa79c3dde6",
    "fig4b": "eb393935df09",
    "fig5a": "b08f3d31c72e",
    "fig5b": "0a82b4f17779",
    "fig6": "4c9c75645e5f",
    "costs": "695a4799daba",
    "ablate_two_phase": "c8038cabee70",
    "ablate_escrow": "d6a427412f15",
    "ablate_report_fee": "9ac3381dbeb9",
    "capability_curve": "c0e9c331ef84",
    "fleet_composition": "b5d5601dcd74",
    "payout_latency": "16e045c22e82",
    "fork_rate": "09d13821ac4d",
    "fleet_scale_suite": "35497fabb8f7",
    "chaos_gauntlet": "ad2ddd2a7ab1",
}


def runner_slug(runner) -> str:
    """``run_fig3a`` -> ``fig3a``; ``_run_fleet_scale_suite`` -> ``fleet_scale_suite``."""
    name = runner.__name__.lstrip("_")
    return name[4:] if name.startswith("run_") else name


def table_text(table) -> str:
    return "\n".join(
        line for line in table.render().splitlines() if "wall-clock" not in line
    )


class PaperSuite:
    name = "paper_suite"
    setup_repeats = 3
    repetitions = 1

    def __init__(self, seed: int, seconds: float, workdir, trace: bool) -> None:
        self.seed = seed

    def setup(self):
        for name in [name for name in sys.modules if name == "repro" or name.startswith("repro.")]:
            del sys.modules[name]
        return {"runners": importlib.import_module("repro.experiments.__main__").RUNNERS}

    def teardown(self, state) -> None:
        pass

    def run(self, state, tracer=None) -> Measured:
        tables = []
        walls = {}
        problems = []
        if tracer is not None:
            tracer.start()
        started = perf_counter()
        for label, runner, supported in state["runners"]:
            slug = runner_slug(runner)
            if tracer is not None:
                tracer.current_item = slug
            tick = perf_counter()
            # The CLI's serial default: trial sweeps run in this process.
            result = runner(**({"jobs": None} if "jobs" in supported else {}))
            tables.append((slug, table_text(result.to_table())))
            walls[slug] = perf_counter() - tick
        wall = perf_counter() - started
        if tracer is not None:
            tracer.stop()
            tracer.current_item = None

        mismatched = [
            slug for slug, text in tables
            if TABLE_SHA256.get(slug) != hashlib.sha256(text.encode()).hexdigest()[:12]
        ]
        if mismatched:
            problems.append(f"tables differ from the recorded output: {', '.join(mismatched)}")
        return Measured(
            wall_s=wall,
            units=len(tables),
            throughput_per_s=1.0 / wall,
            attempted=len(tables),
            failed=len(mismatched),
            failure_base="suite runners; failed = runners whose table differs from the recorded output",
            problems=problems,
            named={"suite_wall_s": (wall, "s"), "runners": (len(tables), "count")},
            fingerprint=tables,
            layer={f"experiments.{slug}.wall_s": seconds for slug, seconds in walls.items()},
        )
