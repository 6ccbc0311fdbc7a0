"""provfact command-line interface.

Subcommands: mveo, classify, witnesses, factorize, ilp, gen, bench.
Outputs are deterministic for identical inputs and seeds; timing and other
diagnostics go to stderr (and only with --verbose).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from contextlib import contextmanager

from . import _POLICIES, __version__, assembly, flow, special, veo
from .cq import parse_query
from .gen import (
    FIXTURE_QUERIES,
    GenSpec,
    GraphInput,
    fixture_query,
    gen_3star_gadget,
    gen_random,
    gen_triad_gadget,
)
from .provenance import compute_witnesses, load_database

log = logging.getLogger("provfact")


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except FileNotFoundError:  # worded as `load_database` words a missing database
        raise FileNotFoundError(f"{path}: no such file or directory") from None


@contextmanager
def _written(path: str | None):
    """The file at `path`, opened for text, or stdout when no path is given."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w", newline="") as fh:
        yield fh


def _load_query(path: str):
    return parse_query(_read(path))


def _load_edges(path: str) -> list[tuple[int, int]]:
    """An edge list: one ``u v`` pair of integer vertices per line; ``#``
    starts a comment.  A malformed line, a self-loop and a repeated edge
    are named as ``FILE:LINE``."""
    edges = []
    first: dict[tuple[int, int], int] = {}  # each edge's first line
    for i, line in enumerate(_read(path).splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            u, v = map(int, line.split())
        except ValueError:
            raise ValueError(f"{path}:{i}: expected two integer vertices, got {line!r}") from None
        if u == v:
            raise ValueError(f"{path}:{i}: self-loop at vertex {u}")
        if (seen := first.setdefault((min(u, v), max(u, v)), i)) != i:
            raise ValueError(f"{path}:{i}: duplicate edge ({u},{v}), first on line {seen}")
        edges.append((u, v))
    return edges


def _parse_order(spec: str):
    if spec == "nested-rp":
        return "nested-rp", None
    if spec.startswith("flat"):
        rest = spec[4:]
        if not rest:
            return "flat", None
        if not rest.startswith(":"):
            raise ValueError(f"malformed --order value: {spec!r}")
        perm = []
        for token in rest[1:].split(","):
            token = token.strip().lstrip("v")
            if not token.isdigit():
                raise ValueError(f"malformed --order entry: {token!r}")
            perm.append(int(token) - 1)  # v1 is the first listed plan
        return "flat", perm
    raise ValueError(f"unknown --order value: {spec!r}")


def cmd_mveo(args) -> int:
    q = _load_query(args.query)
    for i, v in enumerate(assembly.TemplateTable.of(q).plans, start=1):
        print(f"v{i}: {v.serial}")
        if args.verbose:
            d = veo.dissociation_of(v, q)
            pairs = ", ".join(
                f"{a.relation}+{{{','.join(sorted(s))}}}" for a, s in zip(q.atoms, d) if s
            )
            print(f"    dissociation: {pairs or '-'}", file=sys.stderr)
    return 0


def cmd_classify(args) -> int:
    q = _load_query(args.query)
    cls = special.classify(q)
    print("tags: " + ", ".join(sorted(cls.tags)))
    print(f"plans: {cls.k if cls.k is not None else '?'}")
    return 0


def cmd_witnesses(args) -> int:
    q = _load_query(args.query)
    db = load_database(args.database)
    W = compute_witnesses(q, db)
    print(f"witnesses: {len(W.witnesses)}")
    for w in W.witnesses:
        print(f"{w.key}: " + " ".join(w.tuple_ids))
    return 0


def cmd_factorize(args) -> int:
    q = _load_query(args.query)
    db = load_database(args.database)
    W = compute_witnesses(q, db)

    ordering = None
    if args.order != "nested-rp" or args.dump_graph:
        mode, perm = _parse_order(args.order)
        if W.parts:  # `dispatch` refuses this; refuse before the whole query's plans and graph
            raise ValueError(f"{q.name} is disconnected; an ordering needs a connected query")
        plans = assembly.TemplateTable.of(q).plans
        try:
            ordering = veo.build_ordering(q, mode=mode, perm=perm, mveo=plans)
        except veo.InvalidPermutation:  # named as written, in the v numbers `mveo` prints
            raise ValueError(f"{args.order} is not a permutation of v1..v{len(plans)}") from None
        # only an ordering given here can lack running prefixes: the solvers' own have them
        if args.strict_rp and not ordering.rp:
            raise veo.NonRpOrdering(
                "ordering violates the running-prefixes property in strict mode"
            )

    rep = special.dispatch(q, W, policy=args.method, budget=args.budget, ordering=ordering)
    if args.dump_graph:  # only once dispatch has accepted the run
        with _written(args.dump_graph) as fh:
            fh.write(flow.build_flow_graph(q, W, ordering).dot())
        log.info("wrote flow graph to %s", args.dump_graph)
    print(f"query: {q.name}")
    print(f"witnesses: {rep.n}")
    print(f"method: {rep.method}")
    print(f"length: {rep.length}")
    print(f"repeats: {rep.repeats}")
    print(f"optimal: {'true' if rep.optimal else 'false'}")
    if not rep.optimal and rep.lower_bound is not None:
        print(f"lower-bound: {rep.lower_bound}")
    expr = rep.factorization.expression
    print("expression: " + expr.pretty(ascii_only=args.ascii))
    for note in rep.notes:
        print(f"note: {note}", file=sys.stderr)
    log.info("elapsed: %.1f ms", rep.elapsed_ms)
    return 0 if rep.optimal else 2


def cmd_ilp(args) -> int:
    from .ilp import ModelBudgetExhausted, build_ilp, export_lp, model_stats, solve_model

    q = _load_query(args.query)
    db = load_database(args.database)
    W = compute_witnesses(q, db)
    model = build_ilp(q, W, reduce=args.reduce)
    stats = model_stats(model)
    for key in ("vars", "constraints", "n", "k", "m"):
        print(f"{key}: {stats[key]}")
    if model.constant:
        print(f"constant: {model.constant}")
    if args.lp:
        with _written(args.lp) as fh:
            fh.write(export_lp(model))
        log.info("wrote LP to %s", args.lp)
    if args.solve:
        try:
            value, _ = solve_model(model)
        except ModelBudgetExhausted as exc:
            print(f"best found: {exc.value} (budget exhausted; not proven optimal)")
        else:
            print(f"optimum: {value}")
    return 0


def _gen_query(args):
    if args.fixture:
        return fixture_query(args.fixture)
    if args.query:
        return _load_query(args.query)
    raise ValueError("need --fixture NAME or --query FILE")


def cmd_gen(args) -> int:
    if args.gadget:
        if not args.graph:
            raise ValueError("--gadget requires --graph EDGELIST")
        g = GraphInput.from_edges(_load_edges(args.graph))
        if args.gadget == "3star":
            db = gen_3star_gadget(g)
        else:
            db = gen_triad_gadget(_gen_query(args), g)
    else:
        q = _gen_query(args)
        db = gen_random(GenSpec(query=q, d=args.d, tuples=args.tuples, seed=args.seed))
    with _written(args.out) as fh:
        fh.write(db.text())
    return 0


def cmd_bench(args) -> int:
    import csv
    import json

    from .bench import SWEEP_FIELDS, run_sweep

    try:
        config = json.loads(_read(args.config)) if args.config else {}
    except json.JSONDecodeError as exc:  # named as `_load_edges` names a bad line
        raise ValueError(f"{args.config}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    overrides = {}
    for pair in args.set or ():
        key, _, val = pair.partition("=")
        try:
            overrides[key] = json.loads(val)
        except json.JSONDecodeError as exc:
            raise ValueError(f"--set {pair}: {exc}") from None
    # a config that is not an object is refused by `run_sweep`
    rows = run_sweep(config | overrides if isinstance(config, dict) else config)
    with _written(args.out) as fh:
        writer = csv.DictWriter(fh, SWEEP_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="provfact",
        description="minimal-length factorizations of Boolean provenance",
    )
    ap.add_argument("--version", action="version", version=f"provfact {__version__}")
    ap.add_argument("--ascii", action="store_true", help="ASCII-only output")
    ap.add_argument("--verbose", action="store_true", help="debug logging to stderr")
    ap.add_argument(
        "--strict-rp",
        action="store_true",
        help="refuse a factorize ordering without the running-prefixes property",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mveo", help="list the minimal plans of a query")
    p.add_argument("query", help="query file")
    p.set_defaults(fn=cmd_mveo)

    p = sub.add_parser("classify", help="structural tags and plan count")
    p.add_argument("query")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("witnesses", help="enumerate witnesses of a database")
    p.add_argument("query")
    p.add_argument("database")
    p.set_defaults(fn=cmd_witnesses)

    p = sub.add_parser("factorize", help="compute a minimal factorization")
    p.add_argument("query")
    p.add_argument("database")
    p.add_argument("--method", default="auto", choices=_POLICIES)
    p.add_argument("--budget", type=int, default=500_000, help="exact search node cap")
    p.add_argument(
        "--order",
        default="nested-rp",
        help="flow ordering: nested-rp or flat:v1,v2,... (plan numbers from `mveo`)",
    )
    p.add_argument("--dump-graph", metavar="PATH", help="write the flow graph as DOT")
    p.set_defaults(fn=cmd_factorize)

    p = sub.add_parser("ilp", help="build the covering model")
    p.add_argument("query")
    p.add_argument("database")
    p.add_argument("--reduce", action="store_true", help="apply model reductions")
    p.add_argument("--lp", metavar="PATH", help="write LP text")
    p.add_argument("--solve", action="store_true", help="solve the model exactly")
    p.set_defaults(fn=cmd_ilp)

    p = sub.add_parser("gen", help="generate databases and gadgets")
    p.add_argument("--query", help="query file (for --gadget triad or random data)")
    p.add_argument(
        "--fixture", choices=sorted(FIXTURE_QUERIES), help="named fixture query"
    )
    p.add_argument("--d", type=int, default=10, help="domain size")
    p.add_argument("--tuples", type=int, default=20, help="rows per relation")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gadget", choices=["3star", "triad"])
    p.add_argument("--graph", help="edge-list file for gadgets (lines: u v)")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("bench", help="method sweeps")
    p.add_argument("--config", help="JSON sweep config")
    p.add_argument("--set", action="append", metavar="KEY=JSON", help="config override")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(fn=cmd_bench)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    # basicConfig does nothing when the root logger already has a handler
    # (in-process callers, pytest), so set the package logger's level too.
    logging.getLogger("provfact").setLevel(logging.DEBUG if args.verbose else logging.NOTSET)
    try:
        for path in filter(None, map(vars(args).get, ("out", "lp", "dump_graph"))):
            if not os.path.isdir(os.path.dirname(path) or "."):  # refused before any work
                raise FileNotFoundError(f"{path}: no such file or directory")
        return args.fn(args)
    except BrokenPipeError:
        return 1
    except (ValueError, KeyError, OSError, RuntimeError, AssertionError) as exc:
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc  # unquoted
        print(f"error: {msg}", file=sys.stderr)
        if args.verbose:
            raise
        return 1


if __name__ == "__main__":
    sys.exit(main())
