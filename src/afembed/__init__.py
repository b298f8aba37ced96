"""Finiteness classification and constructive AF-embedding of graph algebras."""

from importlib import import_module

from .graph import Edge, Graph, GraphError, GraphParseError, Path, load_graph, parse_graph
from .loops import Classification, EntranceExistsError, EntranceWitness, InvalidWitnessError, SimpleLoop, Verdict
from .loops import classify, cycle_vertices, disjoint_simple_loops

# ``classify`` and ``loops`` need only ``graph`` and ``loops``, imported
# above.  Every other name is resolved on first access (PEP 562) through
# this table, so importing the package compiles neither the graph writers,
# nor the witness search, nor the term engine or its grammar, nor the
# embedding, nor the verifier, nor the numeric stage.
# numrep loads numpy only for the spectrum of a ``--map`` loop image that
# is a genuine sum, with two entries in one row or column.
_LAZY = {
    "export_dot": "formats",
    "graph_from_dict": "formats",
    "graph_to_dict": "formats",
    "parse_graph_json": "formats",
    "serialize_graph": "formats",
    "witness_infinite": "witness",
    "CKTerm": "terms",
    "GaussianRational": "terms",
    "NormalMonomial": "terms",
    "adjoint": "terms",
    "expand_ck3": "terms",
    "multiply": "terms",
    "projection": "terms",
    "parse_term": "notation",
    "term_to_str": "notation",
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
    "verify_witness": "witness",
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
