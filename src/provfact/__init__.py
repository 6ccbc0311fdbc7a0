"""provfact: minimal-length factorizations of Boolean provenance for
self-join-free conjunctive queries.

Pipeline: parse a query (`cq`), enumerate its minimal variable elimination
orders (`veo`), compute witnesses over a database (`provenance`), then
minimize factorization length exactly (`exact`, `ilp`), by min-cut
(`flow`), or with shape-specific algorithms (`special`).
"""

__version__ = "0.1.0"

from .cq import (
    Atom,
    DisconnectedQueryError,
    HeadVarError,
    Query,
    QuerySyntaxError,
    SelfJoinError,
    UnknownVariable,
    atoms_of,
    connected_components,
    has_triad,
    independent_atoms,
    is_hierarchical,
    is_linear,
    parse_query,
)
from .veo import (
    InvalidPermutation,
    Ordering,
    TablePrefix,
    TooManyVariables,
    Veo,
    build_ordering,
    check_rp,
    dissociation_of,
    enumerate_mveo,
    enumerate_veos,
    prefix_path,
    table_prefixes,
    veo_node,
)
from .provenance import (
    ArityMismatch,
    Database,
    ExpansionTooLarge,
    Expr,
    Factorization,
    FormatError,
    IllegalAssignment,
    TemplateTable,
    UnboundVariable,
    Witness,
    WitnessSet,
    assemble,
    compute_witnesses,
    detect_p4,
    expand,
    fact_decision,
    load_database,
    parse_database,
    tuple_id,
    verify_equivalence,
)
from .ilp import (
    EmptyWitnessSet,
    IlpModel,
    ModelBudgetExhausted,
    build_ilp,
    export_lp,
    model_stats,
    solve_model,
)
from .exact import ExactResult, lower_bound, solve_exact
from .flow import (
    ExtractionFailure,
    FlowGraph,
    FlowResult,
    KernelUnavailable,
    NonRpOrdering,
    build_flow_graph,
    extract_factorization,
    kernel_name,
    min_cut,
)
from .special import (
    QueryClass,
    RunReport,
    ShapeMismatch,
    classify,
    dispatch,
    solve_q2star,
    solve_triangle_unary,
    solve_two_chain_we,
)
from .gen import (
    FIXTURE_QUERIES,
    GenSpec,
    GraphInput,
    NoTriad,
    fixture_query,
    gen_3star_gadget,
    gen_random,
    gen_triad_gadget,
    random_graph,
)
from .bench import BenchRow, kernel_compare, run_sweep, single_plan_baseline

__all__ = [name for name in dir() if not name.startswith("_")]
