"""Finiteness classification and constructive AF-embedding of graph algebras."""

from importlib import import_module

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

# ``classify``, ``loops`` and ``export`` need only ``graph`` and ``loops``,
# imported above.  Every other name is resolved on first access (PEP 562)
# through this table, so importing the package compiles neither the term
# engine, nor the embedding, nor the verifier, nor the numeric stage.
# numrep loads numpy only for the spectrum of a ``--map`` loop image that
# is a genuine sum, with two entries in one row or column.
_LAZY = {
    "CKTerm": "terms",
    "GaussianRational": "terms",
    "NormalMonomial": "terms",
    "StarContext": "terms",
    "adjoint": "terms",
    "expand_ck3": "terms",
    "multiply": "terms",
    "parse_term": "terms",
    "projection": "terms",
    "term_to_str": "terms",
    "AugmentedGraphSpec": "embedding",
    "BratteliTailSpec": "embedding",
    "GeneratorMap": "embedding",
    "LoopReplacement": "embedding",
    "MultiplicitySeq": "embedding",
    "embed": "embedding",
    "materialize": "embedding",
    "RelationReport": "verify",
    "RelationStatus": "verify",
    "verify_ck_family": "verify",
    "verify_witness": "verify",
    "PathBasis": "numrep",
    "SpectrumReport": "numrep",
    "TruncatedRep": "numrep",
    "build_rep": "numrep",
    "loop_spectrum": "numrep",
    "op_of_term": "numrep",
    "relation_residuals": "numrep",
}


def __getattr__(name: str):
    if name in _LAZY:
        value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
