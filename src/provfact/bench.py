"""Benchmarks: method sweeps over seeded random instances and a kernel
micro-benchmark comparing the compiled and pure-Python max-flow cores.

Sweep output is CSV with one row per (instance, method) run.  The timing
columns obviously vary between machines; everything else is deterministic
for a fixed config.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import time
from dataclasses import dataclass, asdict

from .cq import Query
from .exact import solve_exact
from .flow import build_flow_graph, extract_factorization, kernel_name, min_cut
from .gen import GenSpec, fixture_query, gen_random
from .provenance import Factorization, WitnessSet, compute_witnesses
from .special import _best_single_plan
from .veo import build_ordering, enumerate_mveo

log = logging.getLogger(__name__)

__all__ = [
    "BenchRow",
    "single_plan_baseline",
    "run_sweep",
    "kernel_compare",
    "SWEEP_FIELDS",
]

SWEEP_FIELDS = [
    "query",
    "d",
    "tuples",
    "witnesses",
    "method",
    "length",
    "optimal",
    "penalty_pct",
    "solve_ms",
    "build_ms",
    "seed",
    "nodes",
]


@dataclass
class BenchRow:
    query: str
    d: int
    tuples: int
    witnesses: int
    method: str
    length: int
    optimal: bool
    penalty_pct: float | None
    solve_ms: float
    build_ms: float
    seed: int
    nodes: int


def single_plan_baseline(q: Query, W: WitnessSet) -> Factorization:
    """Best factorization that uses one plan for every witness."""
    return _best_single_plan(q, W)


def _run_method(q, W, method, budget, kernel):
    t0 = time.perf_counter()
    build_ms = 0.0
    nodes = 0
    optimal = True
    if method == "exact":
        res = solve_exact(q, W, budget=budget)
        fact, optimal, nodes = res.factorization, res.optimal, res.nodes
    elif method == "flow":
        ordering = build_ordering(q, mode="nested-rp")
        tb = time.perf_counter()
        g = build_flow_graph(q, W, ordering)
        build_ms = (time.perf_counter() - tb) * 1000
        cut = min_cut(g, kernel=kernel)
        fact, _ = extract_factorization(g, cut)
        optimal = len(enumerate_mveo(q)) <= 2
    elif method == "single-plan":
        fact = single_plan_baseline(q, W)
        optimal = len(enumerate_mveo(q)) == 1
    else:
        raise ValueError(f"unknown bench method {method!r}")
    solve_ms = (time.perf_counter() - t0) * 1000
    return fact, optimal, nodes, solve_ms, build_ms


def run_sweep(config: dict, out=None) -> list[BenchRow]:
    """Run a sweep from a config dict (or JSON text path already loaded).

    Keys: queries (fixture names), d, tuples (list of sizes), reps,
    methods, seed, budget, kernel.  Writes CSV to `out` when given.
    penalty_pct compares each method to the best exact length seen for the
    same instance (None when exact didn't finish optimally).
    """
    queries = config.get("queries", ["3chain"])
    d = config.get("d", 10)
    sizes = config.get("tuples", [20])
    reps = config.get("reps", 3)
    methods = config.get("methods", ["exact", "flow", "single-plan"])
    base_seed = config.get("seed", 0)
    budget = config.get("budget", 500_000)
    kernel = config.get("kernel", "auto")

    rows: list[BenchRow] = []
    for qname in queries:
        q = fixture_query(qname) if isinstance(qname, str) else qname
        for size in sizes:
            for rep in range(reps):
                seed = base_seed + 1000 * rep + size
                db = gen_random(GenSpec(query=q, d=d, tuples=size, seed=seed))
                W = compute_witnesses(q, db)
                exact_len = None
                per_method = []
                for method in methods:
                    fact, optimal, nodes, solve_ms, build_ms = _run_method(
                        q, W, method, budget, kernel
                    )
                    if method == "exact" and optimal:
                        exact_len = fact.length
                    per_method.append(
                        (method, fact, optimal, nodes, solve_ms, build_ms)
                    )
                for method, fact, optimal, nodes, solve_ms, build_ms in per_method:
                    penalty = None
                    if exact_len and exact_len > 0:
                        penalty = round(
                            100.0 * (fact.length - exact_len) / exact_len, 3
                        )
                    rows.append(
                        BenchRow(
                            query=q.name,
                            d=d,
                            tuples=size,
                            witnesses=len(W.witnesses),
                            method=method,
                            length=fact.length,
                            optimal=optimal,
                            penalty_pct=penalty,
                            solve_ms=round(solve_ms, 3),
                            build_ms=round(build_ms, 3),
                            seed=seed,
                            nodes=nodes,
                        )
                    )
    if out is not None:
        _write_csv(rows, out)
    return rows


def _write_csv(rows: list[BenchRow], out) -> None:
    close = False
    if isinstance(out, (str, bytes)) or hasattr(out, "__fspath__"):
        fh = open(out, "w", newline="")
        close = True
    else:
        fh = out
    try:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_FIELDS)
        writer.writeheader()
        for row in rows:
            rec = asdict(row)
            rec["penalty_pct"] = "" if rec["penalty_pct"] is None else rec["penalty_pct"]
            writer.writerow(rec)
    finally:
        if close:
            fh.close()


def rows_to_csv(rows: list[BenchRow]) -> str:
    buf = io.StringIO()
    _write_csv(rows, buf)
    return buf.getvalue()


def kernel_compare(
    sizes=(10, 20, 40), d: int = 8, seed: int = 0, reps: int = 3
) -> list[dict]:
    """Time the pure and compiled max-flow kernels on identical flow graphs.

    Returns one record per (size, kernel) with the min-cut value and
    best-of-reps wall time.  The kernels must agree on the cut itself, not
    only on its value: the value and the nodes reachable from the source
    (the smallest minimum-cut source side) are asserted equal across kernels.
    """
    q = fixture_query("3chain")
    ordering = build_ordering(q, mode="nested-rp")
    out = []
    kernels = ["py"]
    if kernel_name("auto") == "c":
        kernels.append("c")
    for size in sizes:
        db = gen_random(GenSpec(query=q, d=d, tuples=size, seed=seed + size))
        W = compute_witnesses(q, db)
        g = build_flow_graph(q, W, ordering)
        values = {}
        cuts = {}
        for kernel in kernels:
            best = None
            for _ in range(reps):
                t0 = time.perf_counter()
                res = min_cut(g, kernel=kernel)
                dt = (time.perf_counter() - t0) * 1000
                best = dt if best is None else min(best, dt)
                values[kernel] = res.value
                cuts[kernel] = res.reachable
            out.append(
                {
                    "tuples": size,
                    "witnesses": len(W.witnesses),
                    "kernel": kernel,
                    "cut": values[kernel],
                    "ms": round(best, 3),
                }
            )
        if len(set(values.values())) > 1:
            raise AssertionError(f"kernel disagreement at size {size}: {values}")
        if any(reachable != cuts["py"] for reachable in cuts.values()):
            raise AssertionError(f"kernels cut different node sets at size {size}")
    return out


def load_config(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
