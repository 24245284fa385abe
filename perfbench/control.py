"""The control plane alone, no Spark: one traced pass and its references.

A *pass* is the T-8d operator-count sweep
(``convergence_sim.sweep_operator_counts`` through ``opcount.run``), the
Fig. 8 scenarios (``JarvisRuntime`` + ``SimulatedEpochExecutor`` in all
three modes, through ``fig8.run``), direct ``solve_plan`` calls on
seeded S2S- and T2T-shaped LPs, and ``budget_sweep`` /
``multi_source_sweep`` over all strategies on fixed ``WorkloadSpec``s
built from ``costmodel`` constants. The seed draws the LP instances.
The ``tables`` workload runs one pass in its traced run to report the
control-plane layer metrics.
"""
from __future__ import annotations

import statistics
from unittest import mock

import numpy as np

from perfbench import expmd
from repro.cluster.simulator import budget_sweep, multi_source_sweep
from repro.cluster.spec import spec_from_costs
from repro.core import costmodel as cm
from repro.core.executor import SimulatedEpochExecutor
from repro.experiments import fig8, opcount, report
from repro.experiments.specs import all_strategies
from repro.lp.plan_lp import brute_force_plan, solve_plan
from repro.strategies.best_op import BestOp
from repro.strategies.jarvis import Jarvis

#: Relay ratios the Fig. 8 experiment uses for each query.
RELAY = {
    "s2s": (1.0, 0.86, 0.02),
    "t2t": (1.0, 0.86, 1.0, 1.0, 0.05),
    "log": (1.0, 0.9, 1.0, 0.1),
}
BUDGETS = (0.2, 0.4, 0.6, 0.8, 1.0)
SOURCES = (10, 20, 32, 40, 60, 70, 100, 150, 180, 250)
#: Seeded LP instances per pass, alternating S2S and T2T shapes.
N_LP = 64
#: Grid of the brute-force reference for the LP optimum.
BRUTE_GRID = 10
T8 = "## T-8 — Convergence after resource changes (Fig. 8)"
T8D = "## T-8d — Convergence cost vs operator count (exhaustive sweep)"


def fixed_specs() -> dict:
    costs = {"s2s": cm.s2s_costs(), "t2t": cm.t2t_costs(500), "log": cm.log_costs()}
    rate = {"s2s": cm.PINGMESH_RATE_MBPS_10X, "t2t": cm.PINGMESH_RATE_MBPS_10X, "log": cm.LOG_RATE_MBPS_10X}
    return {
        k: spec_from_costs(c, np.array(RELAY[k]), c.output_bytes * float(np.prod(RELAY[k])), rate[k])
        for k, c in costs.items()
    }


def lp_instances(seed: int) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """(relay, cost in s/record, budget per record) around the calibrated queries."""
    g = np.random.default_rng(seed)
    base = {"s2s": cm.s2s_costs().cost_us, "t2t": cm.t2t_costs(500).cost_us}
    out = []
    for i in range(N_LP):
        kind = "s2s" if i % 2 == 0 else "t2t"
        r = np.array(RELAY[kind]) * g.uniform(0.8, 1.0, len(RELAY[kind]))
        r[0] = 1.0
        c = np.array(base[kind]) * g.uniform(0.8, 1.25, len(r)) * 1e-6
        full = float(np.sum(np.cumprod(np.concatenate(([1.0], r[:-1]))) * c))
        out.append((r, c, full * g.uniform(0.05, 0.95)))
    return out


def lp_ok(sol, budget_per_record: float, grid_best: float) -> bool:
    """Feasible, and no worse than the best plan on the brute-force grid."""
    return sol.compute_per_record <= budget_per_record * (1 + 1e-9) and sol.drained_frac <= grid_best + 1e-9


def sweep(specs: dict) -> dict:
    rows = {k: budget_sweep(s, all_strategies(), list(BUDGETS)) for k, s in specs.items()}
    rows["multi_source"] = [
        r.__dict__
        for r in multi_source_sweep(
            specs["s2s"].with_rate_scale(0.5), [Jarvis(), BestOp()], list(SOURCES), budget_core=0.30
        )
    ]
    return rows


LAYER_NAMES = frozenset(
    {
        "convergence_sim.sweep_s",
        "runtime.scenarios_s",
        "runtime.sim_epochs",
        "lp.solve_us",
        "simulator.sweep_s",
        "strategies.evaluations",
    }
)


def check_sweep(checker, specs: dict, rows: dict, label: str) -> None:
    """Jarvis never sustains less than All-SP (it can always drain raw)."""
    for kind in specs:
        by = {(r["budget_pct"], r["strategy"]): r["throughput_mbps"] for r in rows[kind]}
        ok = all(by[(b, "Jarvis")] >= by[(b, "All-SP")] - 0.01 for b, _ in by)
        checker.check(ok, f"{label} {kind}: Jarvis below All-SP at some budget")


def traced_pass(checker, rec, seed: int, experiments_md) -> dict:
    """Run one pass under spans, check it, and return its layer metrics.

    The references (EXPERIMENTS.md sections, brute-force LP optima, a
    first sweep) are built before the pass and are not in its spans.
    """
    md = expmd.sections(experiments_md)
    expected = {T8: md[T8], T8D: md[T8D]}
    specs = fixed_specs()
    lps = lp_instances(seed)
    lp_ref = [brute_force_plan(r, c, b, grid=BRUTE_GRID)[1] for r, c, b in lps]
    sweep_ref = sweep(specs)
    check_sweep(checker, specs, sweep_ref, "reference sweep")

    # Every simulated epoch, Profile ones included, calls
    # SimulatedEpochExecutor.execute once; count the calls.
    epochs = 0
    real = SimulatedEpochExecutor.execute

    def counting(ex, p):
        nonlocal epochs
        epochs += 1
        return real(ex, p)

    name = "control"
    with mock.patch.object(SimulatedEpochExecutor, "execute", counting):
        with rec.span("convergence_sim.sweep_operator_counts", name) as s_sweep:
            t8d = report.opcount_section(opcount.run())
        with rec.span("runtime.fig8_scenarios", name) as s_fig8:
            t8 = report.fig8_section(fig8.run())
    checker.check(expmd.matches(expected, t8d), "control pass: T-8d differs from EXPERIMENTS.md")
    checker.check(expmd.matches(expected, t8), "control pass: T-8 differs from EXPERIMENTS.md")
    sols, solve_s = [], []
    for i, (r, c, b) in enumerate(lps):
        with rec.span("lp.solve_plan", f"{name}/lp{i}") as s:
            sols.append(solve_plan(r, c, b))
        solve_s.append(s.duration)
    for i, (sol, (_, _, b), best) in enumerate(zip(sols, lps, lp_ref)):
        checker.check(lp_ok(sol, b, best), f"control pass: LP {i} infeasible or worse than the grid optimum")
    with rec.span("simulator.sweeps", name) as s_sim:
        rows = sweep(specs)
    checker.check(rows == sweep_ref, "control pass: sweep rows differ from the reference sweep")
    check_sweep(checker, specs, rows, "control pass")
    return {
        "convergence_sim.sweep_s": s_sweep.duration,
        "runtime.scenarios_s": s_fig8.duration,
        "runtime.sim_epochs": epochs,
        "lp.solve_us": 1e6 * statistics.median(solve_s),
        "simulator.sweep_s": s_sim.duration,
        "strategies.evaluations": sum(len(v) for v in rows.values()),
    }
