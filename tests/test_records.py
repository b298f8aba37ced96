"""The records a request builds once hold exactly the fields their docstrings name.

These records are ``types.SimpleNamespace`` subclasses built by keyword, so
nothing but this test catches a misspelled or missing keyword at the place
one is built before a later read does.  The records built per relation
instance, and the value types, keep their ``__slots__`` and constructors.
"""

import re
from types import SimpleNamespace

import pytest

from afembed.embedding import GeneratorMap, embed
from afembed.graph import Frozen, load_graph
from afembed.loops import Classification, classify
from afembed.notation import genmap_from_text, genmap_to_text
from afembed.numrep import (
    Operator,
    PathBasis,
    Piece,
    ResidualReport,
    SpectrumReport,
    TruncatedRep,
    build_rep,
    loop_spectrum,
    relation_residuals,
)
from afembed.verify import RelationCheck, RelationReport, verify_ck_family

from .test_golden import GOLDEN

FIELDS = {
    Classification: {"verdict", "loops", "witness"},
    GeneratorMap: {"edge_map"},
    RelationReport: {"checks"},
    PathBasis: {"graph", "edge", "suffix", "starts", "ranging", "extension"},
    TruncatedRep: {"spec", "depth", "graph", "basis", "P", "S", "T", "corner_levels", "interior", "images", "products", "powers"},
    ResidualReport: {"entries", "boundary_defects"},
    SpectrumReport: {
        "loop",
        "depth",
        "eigenvalues",
        "conjugated_nonzero",
        "max_modulus_deviation",
        "hausdorff_to_circle",
        "conjugation_mismatch",
    },
}


def _load(name: str):
    return load_graph((GOLDEN / name).read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def records() -> list[SimpleNamespace]:
    g = _load("square.txt")
    spec, gmap = embed(g)
    parsed = genmap_from_text(genmap_to_text(gmap, spec), spec)
    rep = build_rep(spec, 3)
    return [
        classify(g),
        classify(_load("square_plus_entrance.txt")),
        gmap,
        parsed,
        rep,
        rep.basis,
        relation_residuals(rep, gmap),
        loop_spectrum(rep, spec.replacements[0].loop, gmap),
        verify_ck_family(gmap, spec),
    ]


def test_every_record_holds_exactly_its_fields(records):
    assert {type(r) for r in records} == set(FIELDS)
    for record in records:
        assert set(vars(record)) == FIELDS[type(record)], type(record).__name__


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_the_docstring_names_every_field(cls):
    named = set(re.findall(r"``(\w+)", cls.__doc__))  # ``edge[i]`` names ``edge``
    assert FIELDS[cls] <= named


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_a_once_per_request_record_is_a_namespace(cls):
    assert issubclass(cls, SimpleNamespace)
    assert "__slots__" not in vars(cls) and "__init__" not in vars(cls)


@pytest.mark.parametrize(
    "cls", [RelationCheck, Piece, Operator, *Frozen.__subclasses__()], ids=lambda cls: cls.__name__
)
def test_a_per_instance_record_keeps_its_slots(cls):
    assert "__slots__" in vars(cls) and "__init__" in vars(cls)
