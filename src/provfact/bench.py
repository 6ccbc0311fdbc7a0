"""Benchmarks: method sweeps over seeded random instances.

Sweep output is CSV with one row per (instance, method) run.  The timing
columns obviously vary between machines; everything else is deterministic
for a fixed config.
"""

from __future__ import annotations

import csv
import io
import json

from .gen import GenSpec, fixture_query, gen_random
from .provenance import compute_witnesses
from .special import dispatch

__all__ = [
    "BenchRow",
    "run_sweep",
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
    "seed",
    "nodes",
]

_CONFIG_KEYS = ("queries", "d", "tuples", "reps", "methods", "seed", "budget")


class BenchRow:
    """One CSV row; its fields are `SWEEP_FIELDS`, in that order."""

    __slots__ = tuple(SWEEP_FIELDS)

    def __init__(
        self, query: str, d: int, tuples: int, witnesses: int, method: str, length: int,
        optimal: bool, penalty_pct: float | None, solve_ms: float, seed: int, nodes: int,
    ) -> None:
        self.query, self.d, self.tuples, self.witnesses = query, d, tuples, witnesses
        self.method, self.length, self.optimal = method, length, optimal
        self.penalty_pct, self.solve_ms, self.seed, self.nodes = penalty_pct, solve_ms, seed, nodes


def run_sweep(config: dict, out=None) -> list[BenchRow]:
    """Run a sweep from a config dict (or JSON text path already loaded).

    Keys: queries (fixture names), d, tuples (list of sizes), reps,
    methods, seed, budget.  Each method is a `dispatch` policy,
    run without verification; a row's `method` is the policy and
    `solve_ms` the dispatch call's time.  Writes CSV to `out` when given.
    penalty_pct compares each method to the best exact length seen for the
    same instance (None when exact didn't finish optimally).  Any other key
    raises `ValueError`.
    """
    for key in config:
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}; keys: {', '.join(_CONFIG_KEYS)}")
    queries = config.get("queries", ["3chain"])
    d = config.get("d", 10)
    sizes = config.get("tuples", [20])
    reps = config.get("reps", 3)
    methods = config.get("methods", ["exact", "flow", "single-plan"])
    base_seed = config.get("seed", 0)
    budget = config.get("budget", 500_000)
    if reps < 0:
        raise ValueError(f"cannot run a negative number of repetitions (reps={reps})")

    rows: list[BenchRow] = []
    for qname in queries:
        q = fixture_query(qname) if isinstance(qname, str) else qname
        for size in sizes:
            for rep in range(reps):
                seed = base_seed + 1000 * rep + size
                db = gen_random(GenSpec(query=q, d=d, tuples=size, seed=seed))
                W = compute_witnesses(q, db)
                reports = [
                    dispatch(q, W, policy=method, budget=budget, verify=False)
                    for method in methods
                ]
                exact_len = None
                for method, r in zip(methods, reports):
                    if method == "exact" and r.optimal:
                        exact_len = r.length
                for method, r in zip(methods, reports):
                    penalty = None
                    if exact_len and exact_len > 0:
                        penalty = round(100.0 * (r.length - exact_len) / exact_len, 3)
                    rows.append(
                        BenchRow(
                            query=q.name,
                            d=d,
                            tuples=size,
                            witnesses=len(W.witnesses),
                            method=method,
                            length=r.length,
                            optimal=r.optimal,
                            penalty_pct=penalty,
                            solve_ms=round(r.elapsed_ms, 3),
                            seed=seed,
                            nodes=r.nodes,
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
            rec = {name: getattr(row, name) for name in SWEEP_FIELDS}
            rec["penalty_pct"] = "" if rec["penalty_pct"] is None else rec["penalty_pct"]
            writer.writerow(rec)
    finally:
        if close:
            fh.close()


def rows_to_csv(rows: list[BenchRow]) -> str:
    buf = io.StringIO()
    _write_csv(rows, buf)
    return buf.getvalue()


def load_config(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
