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

# only ``verify`` needs the numeric stage: its names are resolved on first
# access (PEP 562) so the structure commands never import it.  numrep loads
# numpy only for a ``--map`` with a coefficient other than 1 or -1 or with a
# genuine sum
_NUMERIC = frozenset(
    {
        "PathBasis",
        "SpectrumReport",
        "TruncatedRep",
        "build_rep",
        "loop_spectrum",
        "op_of_term",
        "relation_residuals",
    }
)


def __getattr__(name: str):
    if name in _NUMERIC:
        from . import numrep

        value = getattr(numrep, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
