"""Finiteness classification and constructive AF-embedding of graph algebras."""

from .graph import (
    Edge,
    Graph,
    GraphError,
    GraphParseError,
    Path,
    export_dot,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    parse_graph,
    parse_graph_json,
    serialize_graph,
)
from .loops import (
    Classification,
    EntranceExistsError,
    EntranceWitness,
    InvalidWitnessError,
    SimpleLoop,
    Verdict,
    classify,
    cycle_vertices,
    disjoint_simple_loops,
    entrance_violation,
    witness_infinite,
)
from .terms import (
    CKTerm,
    GaussianRational,
    NormalMonomial,
    StarContext,
    adjoint,
    expand_ck3,
    multiply,
    parse_term,
    projection,
    term_to_str,
)
from .embedding import (
    AugmentedGraphSpec,
    BratteliTailSpec,
    GeneratorMap,
    LoopReplacement,
    MultiplicitySeq,
    embed,
    materialize,
)
from .verify import RelationReport, RelationStatus, verify_ck_family, verify_witness
from .numrep import (
    PathBasis,
    SpectrumReport,
    TruncatedRep,
    build_rep,
    loop_spectrum,
    op_of_term,
    relation_residuals,
)

__version__ = "0.1.0"
