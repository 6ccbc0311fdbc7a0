"""Seeded benchmark of provfact's `dispatch`, end to end and layer by layer.

    python3 perfbench/run.py --workload flow-large --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  One
process runs every instance of the workload in a closed loop, one at a time.
Each instance is timed as ``compute_witnesses`` + ``dispatch(policy="auto",
verify=True)``, which is what ``provfact factorize`` does after reading its
inputs.  Whole passes over the instances repeat while another pass fits in
``--seconds`` (at least one pass).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
instance untraced and then traced, fails if the two outcomes differ, writes
the spans to ``perfbench/out/`` and reports the per-layer metrics.  Every
metric is printed as ``metric <name> <value> <unit>``; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import workloads
from spans import LAYERS, Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Timed set-ups per untraced run, spread evenly over the run.  One set-up
# takes about 0.1 s, and on a shared machine single ones vary by up to 2x.
SETUP_PROBES = 30

# Untraced runs: (name, unit).  The JSON line carries exactly these.
END_TO_END = [
    ("length_ratio", "1"),
    ("optimal_frac", "1"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

# Printed by untraced runs too, and carried unbounded by traced runs.  On a
# shared 2-CPU machine the same instance's time swings by up to 2x within a
# minute, so no timing holds a bound of 25%; `failed_frac` is above 0 only
# where the known 4chain defect runs.
UNBOUNDED = [
    ("witnesses_per_s", "1/s"),
    ("instance_ms.p50", "ms"),
    ("instance_ms.p90", "ms"),
    ("failed_frac", "1"),
]

# Traced runs.  Self times and calls count the timed instances only;
# `cq.parse_query.setup_ms` is the query parsing done in set-up, which no
# instance repeats.  A `*.growth` is 0 where the workload has no shape at two
# sizes on which the function ran; `instance_ms.p90` is 0 where fewer than
# ten samples lie beyond it.  Outcomes and timings that are not per layer
# come from the untraced runs of the same instances.
PER_LAYER = [(f"{layer}.self_ms", "ms") for layer in LAYERS] + [
    ("flow.build_flow_graph.self_ms", "ms"),
    ("flow.min_cut.self_ms", "ms"),
    ("flow.extract_factorization.self_ms", "ms"),
    ("flow.graph_nodes", "count"),
    ("flow.graph_arcs", "count"),
    ("flow.cut_minus_length", "count"),
    ("flow.build_flow_graph.growth", "1"),
    ("flow.min_cut.growth", "1"),
    ("flow.fallback_wins", "count"),
    ("special.solve_q2star.self_ms", "ms"),
    ("special.solve_triangle_unary.self_ms", "ms"),
    ("special.solve_two_chain_we.self_ms", "ms"),
    ("special.solve_q2star.growth", "1"),
    ("special.solve_triangle_unary.growth", "1"),
    ("special.classify.calls", "count"),
    ("special.classify.self_ms", "ms"),
    ("special.dispatch.self_ms", "ms"),
    ("provenance.compute_witnesses.self_ms", "ms"),
    ("provenance.compute_witnesses.us_per_witness", "us"),
    ("provenance.compute_witnesses.growth", "1"),
    ("provenance.assemble.self_ms", "ms"),
    ("provenance.assemble.calls", "count"),
    ("provenance.verify_equivalence.self_ms", "ms"),
    ("provenance.verify.skipped", "count"),
    ("exact.solve_exact.self_ms", "ms"),
    ("exact.nodes", "count"),
    ("exact.nodes_per_s", "1/s"),
    ("exact.exhausted", "count"),
    ("exact.wasted_nodes_frac", "1"),
    ("veo.enumerate_mveo.calls", "count"),
    ("veo.enumerate_mveo.self_ms", "ms"),
    ("veo.build_ordering.self_ms", "ms"),
    ("cq.parse_query.setup_ms", "ms"),
    ("trace.overhead_pct", "%"),
] + UNBOUNDED


@dataclass
class Result:
    """Outcome of one timed instance.  `error` names the exception class or
    the output check that failed."""

    seconds: float
    witnesses: int
    distinct: int
    method: str | None = None
    length: int | None = None
    optimal: bool = False
    verify_skipped: bool = False
    error: str | None = None
    message: str = ""

    @property
    def outcome(self) -> tuple:
        return (self.method, self.length, self.optimal, self.error)


def load_provfact():
    if not (SRC / "provfact" / "__init__.py").is_file():
        sys.exit(f"perfbench: no provfact sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import provfact

    if Path(provfact.__file__).resolve().parent != SRC / "provfact":
        sys.exit(f"perfbench: imported provfact from {provfact.__file__}, not {SRC}")
    return provfact


def run_instance(pf, inst, lower_bounds: dict, index: int, tracer=None) -> Result:
    W = rep = None
    error = message = None
    span = contextlib.nullcontext()
    if tracer:
        tracer.instance = index
        span = tracer.span("instance")
    gc.collect()
    t0 = time.perf_counter()
    try:
        with span:
            W = pf.provenance.compute_witnesses(inst.query, inst.database)
            rep = pf.special.dispatch(
                inst.query, W, policy="auto", budget=workloads.BUDGET, verify=True
            )
    except Exception as exc:  # counted as a failed instance, the run goes on
        error, message = type(exc).__name__, str(exc)
    seconds = time.perf_counter() - t0

    res = Result(
        seconds,
        len(W.witnesses) if W is not None else 0,
        len(W.distinct_tuples) if W is not None else 0,
        error=error,
        message=message,
    )
    if rep is None:
        return res
    res.method, res.length, res.optimal = rep.method, rep.length, rep.optimal
    res.verify_skipped = rep.verified is None
    if index not in lower_bounds:
        lower_bounds[index] = pf.exact.lower_bound(inst.query, W.witnesses)
    if rep.expression is None or rep.length != rep.expression.length:
        res.error = "length-mismatch"
    elif rep.length < lower_bounds[index]:
        res.error = "below-lower-bound"
    elif rep.length < res.distinct:
        res.error = "below-distinct-tuples"
    if res.error:
        res.message = f"length {rep.length}, lower bound {lower_bounds[index]}"
    return res


def run_pass(pf, instances, lower_bounds, between) -> list[Result]:
    out = []
    for i, inst in enumerate(instances):
        between()
        out.append(run_instance(pf, inst, lower_bounds, i))
    return out


class SetupProbes:
    """Times `SETUP_PROBES` set-ups, each in a fresh interpreter that imports
    the package and generates and parses the workload's inputs.  `due` runs
    between instances and takes the probes whose turn has come, so that they
    sample the machine over the whole run; `finish` takes the rest."""

    def __init__(self, args):
        self.cmd = [
            sys.executable, str(HERE / "setup_probe.py"),
            args.workload, str(args.seed), args.scale,
        ]
        self.interval = args.seconds / SETUP_PROBES
        self.seconds: list[float] = []
        self.take()  # untimed warm-up
        self.seconds.clear()
        self.start = time.perf_counter()

    def take(self) -> None:
        out = subprocess.run(self.cmd, check=True, capture_output=True, text=True, timeout=120)
        self.seconds.append(float(out.stdout.split()[-1]))

    def due(self) -> None:
        while (
            len(self.seconds) < SETUP_PROBES
            and time.perf_counter() - self.start >= len(self.seconds) * self.interval
        ):
            self.take()

    def finish(self) -> list[float]:
        while len(self.seconds) < SETUP_PROBES:
            self.take()
        return self.seconds


def percentile(samples: list[float], q: int) -> float:
    """The q-th percentile, or 0 when fewer than ten samples lie beyond it."""
    if len(samples) * (100 - q) < 1000:
        return 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def outcome_metrics(passes: list[list[Result]]) -> dict[str, float]:
    """End-to-end figures.  Outcomes repeat across passes; an instance's
    time is its fastest pass, the one least disturbed by other load."""
    first = passes[0]
    ms = [min(p[i].seconds for p in passes) * 1000 for i in range(len(first))]
    ok = [r for r in first if r.error is None]
    distinct = sum(r.distinct for r in ok)
    return {
        "witnesses_per_s": sum(r.witnesses for r in first) / sum(ms) * 1000,
        "instance_ms.p50": statistics.median(ms),
        "instance_ms.p90": percentile(ms, 90),
        "failed_frac": (len(first) - len(ok)) / len(first),
        "optimal_frac": sum(r.optimal and r.error is None for r in first) / len(first),
        "length_ratio": sum(r.length for r in ok) / distinct if distinct else 0.0,
    }


def growth(per_instance: dict, name: str, sizes: list, results: list[Result]) -> float:
    """Largest log(t2/t1) / log(n2/n1) of `name`'s mean self time per
    instance over the workload's shapes that ran at two sizes."""
    best = None
    for small, large in sizes:
        t1, t2 = (sum(per_instance.get((name, i), 0) for i in ix) / len(ix) for ix in (small, large))
        n1, n2 = (sum(results[i].witnesses for i in ix) / len(ix) for ix in (small, large))
        if t1 > 0 and t2 > 0 and n1 > 0 and n2 > 0 and n1 != n2:
            g = math.log(t2 / t1) / math.log(n2 / n1)
            best = g if best is None else max(best, g)
    return 0.0 if best is None else best


def layer_metrics(spans, traced, untraced, instances) -> dict[str, float]:
    selfs = self_times(spans)
    self_ns: dict[str, int] = defaultdict(int)
    calls: Counter = Counter()
    per_instance: dict[tuple[str, int], int] = defaultdict(int)
    setup_parse_ns = 0
    for s, t in zip(spans, selfs):
        if s.instance < 0:
            if s.name == "cq.parse_query":
                setup_parse_ns += t
            continue
        self_ns[s.name] += t
        calls[s.name] += 1
        per_instance[(s.name, s.instance)] += t

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = sum(
            t for name, t in self_ns.items() if name.startswith(layer + ".")
        ) / 1e6
    for name, _ in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "self_ms" and base not in LAYERS:
            m[name] = self_ns[base] / 1e6
        elif kind == "calls":
            m[name] = calls[base]
    m["cq.parse_query.setup_ms"] = setup_parse_ns / 1e6

    by_size: dict[str, dict[tuple, list[int]]] = defaultdict(lambda: defaultdict(list))
    for i, inst in enumerate(instances):
        by_size[inst.spec.shape][(inst.spec.d, inst.spec.tuples)].append(i)
    sizes = [
        sorted(groups.values(), key=lambda ix: sum(traced[i].witnesses for i in ix) / len(ix))
        for groups in by_size.values() if len(groups) == 2
    ]
    for name in (
        "flow.build_flow_graph", "flow.min_cut", "special.solve_q2star",
        "special.solve_triangle_unary", "provenance.compute_witnesses",
    ):
        m[f"{name}.growth"] = growth(per_instance, name, sizes, traced)

    def returned(name):
        """Spans of `name` inside timed instances, with their index."""
        return [
            (i, s) for i, s in enumerate(spans)
            if s.name == name and s.counts and s.instance >= 0
        ]

    graphs = returned("flow.build_flow_graph")
    m["flow.graph_nodes"] = sum(s.counts["nodes"] for _, s in graphs)
    m["flow.graph_arcs"] = sum(s.counts["arcs"] for _, s in graphs)
    cut_of = {}  # parent span -> value of the last cut taken under it
    gap = 0
    for s in spans:
        if s.name == "flow.min_cut" and s.counts:
            cut_of[s.parent] = s.counts["cut"]
        elif s.name == "flow.extract_factorization" and s.counts:
            gap += cut_of[s.parent] - s.counts["length"]
    m["flow.cut_minus_length"] = gap

    searches = returned("exact.solve_exact")
    nodes = sum(s.counts["nodes"] for _, s in searches)
    exhausted = [s for _, s in searches if not s.counts["optimal"]]
    fell_back = {s.instance for s in exhausted if traced[s.instance].method == "flow"}
    search_s = sum(selfs[i] for i, _ in searches) / 1e9
    m["exact.nodes"] = nodes
    m["exact.nodes_per_s"] = nodes / search_s if search_s else 0.0
    m["exact.exhausted"] = len(exhausted)
    m["exact.wasted_nodes_frac"] = (
        sum(s.counts["nodes"] for s in exhausted if s.instance in fell_back) / nodes
        if nodes else 0.0
    )
    m["flow.fallback_wins"] = len(fell_back)

    witnesses = sum(s.counts["witnesses"] for _, s in returned("provenance.compute_witnesses"))
    join_ns = self_ns["provenance.compute_witnesses"]
    m["provenance.compute_witnesses.us_per_witness"] = join_ns / 1e3 / witnesses if witnesses else 0.0
    m["provenance.verify.skipped"] = sum(r.verify_skipped for r in traced)

    base_s = sum(r.seconds for r in untraced)
    m["trace.overhead_pct"] = (sum(r.seconds for r in traced) - base_s) / base_s * 100
    m.update(outcome_metrics([untraced]))
    return {name: m[name] for name, _ in PER_LAYER}


def context(pf, args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "provfact").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = "unknown"  # a plain checkout has no .git
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30,
            ).stdout.strip() or commit
    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "budget": workloads.BUDGET,
        "kernel": pf.flow.kernel_name("auto"),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def write_spans(path: Path, ctx: dict, spans) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write(json.dumps({"context": ctx}) + "\n")
        for s in spans:
            fh.write(json.dumps({
                "name": s.name, "start_ns": s.start, "end_ns": s.end,
                "parent": s.parent, "instance": s.instance, "error": s.error,
                "counts": s.counts,
            }) + "\n")


def report(metrics: dict, units: list, correct: bool, results: list[Result]) -> None:
    """Print every metric computed; the JSON line carries only `units`.

    `results` holds one outcome per instance.  Outcomes must repeat across
    passes and between the untraced and traced runs, so `attempted` and
    `failed` depend on the seed only, not on how many passes fit in the run."""
    for name, unit in units + [u for u in UNBOUNDED if u not in units]:
        if name in metrics:
            print(f"metric {name} {metrics[name]!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": sum(r.error is not None for r in results),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument(
        "--scale", choices=workloads.SCALES, default="full",
        help="tiny runs the same shapes at toy sizes, for the self-test",
    )
    args = ap.parse_args(argv)

    pf = load_provfact()
    ctx = context(pf, args)
    print("context " + json.dumps(ctx))
    lower_bounds: dict[int, int] = {}

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.span("setup"):
                instances = workloads.build(args.workload, args.seed, args.scale)
        finally:
            tracer.uninstall()
        # Each instance runs untraced, then traced, so that both see the
        # same machine load.
        untraced, traced = [], []
        for i, inst in enumerate(instances):
            untraced.append(run_instance(pf, inst, lower_bounds, i))
            tracer.install()
            try:
                traced.append(run_instance(pf, inst, lower_bounds, i, tracer))
            finally:
                tracer.uninstall()
        results = untraced
        correct = True
        for inst, a, b in zip(instances, untraced, traced):
            if a.outcome != b.outcome:
                correct = False
                print(f"mismatch {inst.spec.label}: untraced {a.outcome} traced {b.outcome}")
        metrics = layer_metrics(tracer.spans, traced, untraced, instances)
        name = f"spans-{args.workload}-seed{args.seed}-{args.scale}.jsonl"
        write_spans(HERE / "out" / name, ctx, tracer.spans)
        units = PER_LAYER
    else:
        instances = workloads.build(args.workload, args.seed, args.scale)
        probes = SetupProbes(args)
        passes: list[list[Result]] = []
        start = time.perf_counter()
        while True:
            passes.append(run_pass(pf, instances, lower_bounds, probes.due))
            elapsed = time.perf_counter() - start
            if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
        setup = probes.finish()
        results = passes[0]
        correct = all(
            r.outcome == base.outcome for p in passes for r, base in zip(p, passes[0])
        )
        metrics = outcome_metrics(passes)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["setup_s"] = statistics.median(setup)
        units = END_TO_END
        print(
            f"passes {len(passes)} instances {len(instances)} measured_s {elapsed}"
            " pass_s " + " ".join(str(sum(r.seconds for r in p)) for p in passes)
        )
        print("setup_probes_s " + " ".join(str(t) for t in setup))

    for inst, r in zip(instances, results):
        if r.error:
            print(f"failed {inst.spec.label}: {r.error}: {r.message[:200]}")
    report(metrics, units, correct, results)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
