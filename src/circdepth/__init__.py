"""Depth, Stanley depth and projective dimension of edge ideals of cubic
circulant graphs and their ladder building blocks.

Three independent routes to the same invariants:

* closed-form integer formulas for every covered family (:mod:`.formulas`),
* a ground-truth Betti-number oracle via induced-subcomplex homology
  (:mod:`.homology`),
* an exact Stanley-depth solver via interval partitions of the
  standard-monomial poset (:mod:`.sdepth`).
"""

from .formulas import (
    FormulaReport,
    FormulaUnavailable,
    FormulaValue,
    formula_for_spec,
)
from .graphs import (
    CirculantSpec,
    CompleteSpec,
    CubicCirculantSpec,
    CycleSpec,
    DecompositionError,
    Graph,
    GraphSpecError,
    LadderSpec,
    PathSpec,
    StarSpec,
    UnionSpec,
    build_graph,
    davis_domke_decompose,
    disjoint_union,
    find_isomorphism,
    graph_from_edges,
    induced_subgraph,
    is_isomorphic,
    moebius_ladder,
    parse_graph_spec,
    prism,
)
from .homology import (
    GF2,
    GF32003,
    RATIONALS,
    BettiTable,
    FieldSpec,
    OracleSizeError,
    hochster_betti_table,
)
from .ideals import (
    ColonSummand,
    MonomialIdeal,
    colon_by_monomial,
    colon_decomposition,
    edge_ideal,
    verify_colon_decomposition,
)
from .sdepth import (
    CharPoset,
    Interval,
    IntervalPartition,
    PosetSizeError,
    SdepthResult,
    char_poset,
    counting_bound,
    find_partition,
    sdepth_exact,
    validate_partition,
)

__version__ = "0.1.0"
