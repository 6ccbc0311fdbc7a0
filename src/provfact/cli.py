"""provfact command-line interface.

Subcommands: mveo, classify, witnesses, factorize, ilp, gen, bench.
Outputs are deterministic for identical inputs and seeds; timing and other
diagnostics go to stderr (and only with --verbose).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from . import __version__
from .bench import load_config, rows_to_csv, run_sweep
from .cq import parse_query
from .flow import build_flow_graph
from .gen import (
    FIXTURE_QUERIES,
    GenSpec,
    GraphInput,
    fixture_query,
    gen_3star_gadget,
    gen_random,
    gen_triad_gadget,
)
from .ilp import ModelBudgetExhausted, build_ilp, export_lp, model_stats, solve_model
from .provenance import compute_witnesses, load_database
from .special import classify, dispatch
from .veo import build_ordering, dissociation_of, enumerate_mveo

log = logging.getLogger("provfact")


def _load_query(path: str):
    with open(path) as fh:
        return parse_query(fh.read())


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
    for i, v in enumerate(enumerate_mveo(q), start=1):
        print(f"v{i}: {v.serial}")
        if args.verbose:
            d = dissociation_of(v, q)
            pairs = ", ".join(
                f"{a.relation}+{{{','.join(sorted(s))}}}" for a, s in zip(q.atoms, d) if s
            )
            print(f"    dissociation: {pairs or '-'}", file=sys.stderr)
    return 0


def cmd_classify(args) -> int:
    q = _load_query(args.query)
    cls = classify(q)
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
        ordering = build_ordering(q, mode=mode, perm=perm)

    if args.dump_graph:
        # the graph is dropped before dispatch builds its own
        with open(args.dump_graph, "w") as fh:
            fh.write(build_flow_graph(q, W, ordering, strict_rp=args.strict_rp).dot())
        log.info("wrote flow graph to %s", args.dump_graph)

    rep = dispatch(
        q,
        W,
        policy=args.method,
        budget=args.budget,
        strict_rp=args.strict_rp,
        ordering=ordering,
    )
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
        export_lp(model, sink=args.lp)
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
        edges = []
        with open(args.graph) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                u, v = line.split()
                edges.append((int(u), int(v)))
        g = GraphInput.from_edges(edges)
        if args.gadget == "3star":
            db = gen_3star_gadget(g)
        else:
            db = gen_triad_gadget(_gen_query(args), g)
    else:
        q = _gen_query(args)
        db = gen_random(GenSpec(query=q, d=args.d, tuples=args.tuples, seed=args.seed))
    text = db.text()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_bench(args) -> int:
    config = load_config(args.config) if args.config else {}
    if args.set:
        for pair in args.set:
            key, _, val = pair.partition("=")
            config[key] = json.loads(val)
    rows = run_sweep(config, out=args.out)
    if not args.out:
        sys.stdout.write(rows_to_csv(rows))
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
        help="reject orderings violating the running-prefixes property",
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
    p.add_argument(
        "--method",
        default="auto",
        choices=["auto", "exact", "flow", "single-plan"],
    )
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
        return args.fn(args)
    except BrokenPipeError:
        return 1
    except (ValueError, KeyError, OSError, RuntimeError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.verbose:
            raise
        return 1


if __name__ == "__main__":
    sys.exit(main())
