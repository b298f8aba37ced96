"""The value types behave as the frozen dataclasses they were.

Each type and its twin in ``tests/oracles.py`` are built from the same
random fields, positionally and by keyword.  They must agree on ``==``
within a type and across types, on ``hash`` and ``repr``, on refusing
assignment and deletion, on their defaults and on surviving a copy or a
pickle; ``MultiplicitySeq`` must reject the same fields with the same
message.
"""

import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import afembed
from afembed.embedding import BratteliTailSpec, LoopReplacement, MultiplicitySeq
from afembed.graph import Edge, Frozen, Path
from afembed.loops import EntranceWitness, SimpleLoop
from afembed.terms import GaussianRational, NormalMonomial

from .oracles import (
    BratteliTailSpecTwin,
    EdgeTwin,
    EntranceWitnessTwin,
    GaussianRationalTwin,
    LoopReplacementTwin,
    MultiplicitySeqTwin,
    NormalMonomialTwin,
    PathTwin,
    SimpleLoopTwin,
)

# few distinct values, so that equal fields are drawn often
ids = st.sampled_from(["u", "v", "e1", "T1", "T1.v"])
id_tuples = st.lists(ids, max_size=3).map(tuple)
fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
mults = st.builds(MultiplicitySeq, st.lists(st.integers(1, 3), max_size=2).map(tuple), st.integers(2, 3))

# type, twin, strategy of its field tuple, in field order
TYPES = {
    "Edge": (Edge, EdgeTwin, st.tuples(ids, ids, ids)),
    "Path": (Path, PathTwin, st.tuples(id_tuples, ids, ids)),
    "SimpleLoop": (SimpleLoop, SimpleLoopTwin, st.tuples(id_tuples, id_tuples)),
    "EntranceWitness": (
        EntranceWitness,
        EntranceWitnessTwin,
        st.tuples(st.builds(SimpleLoop, id_tuples, id_tuples), st.builds(Edge, ids, ids, ids)),
    ),
    "GaussianRational": (GaussianRational, GaussianRationalTwin, st.tuples(fractions, fractions)),
    "NormalMonomial": (NormalMonomial, NormalMonomialTwin, st.tuples(id_tuples, st.integers(-2, 2), id_tuples, ids)),
    "MultiplicitySeq": (
        MultiplicitySeq,
        MultiplicitySeqTwin,
        st.tuples(st.lists(st.integers(1, 3), max_size=2).map(tuple), st.integers(2, 3)),
    ),
    "BratteliTailSpec": (BratteliTailSpec, BratteliTailSpecTwin, st.tuples(ids, mults)),
    "LoopReplacement": (
        LoopReplacement,
        LoopReplacementTwin,
        st.tuples(st.builds(SimpleLoop, id_tuples, id_tuples), st.builds(BratteliTailSpec, ids, mults)),
    ),
}

# one instance of every type, and its twin, built from the drawn fields
instances = st.one_of(
    [fields.map(lambda f, t=t, twin=twin: (t(*f), twin(*f), f)) for t, twin, fields in TYPES.values()]
)


@pytest.mark.parametrize("name", sorted(TYPES))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_matches_its_dataclass_twin(name, data):
    cls, twin_cls, fields = TYPES[name]
    f = data.draw(fields)
    ours, twin = cls(*f), twin_cls(*f)
    names = twin_cls.__dataclass_fields__.keys()
    assert cls.__slots__ == tuple(names)
    assert ours == cls(**dict(zip(names, f)))
    assert tuple(getattr(ours, n) for n in names) == f
    assert repr(ours) == repr(twin)
    assert hash(ours) == hash(twin) == hash(f)
    assert ours == cls(*f) and not ours != cls(*f)
    for n in names:
        for obj in (ours, twin):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{n}'"):
                setattr(obj, n, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{n}'"):
                delattr(obj, n)
    with pytest.raises(TypeError):
        ours < ours  # noqa: B015 -- no order, as the dataclass had none
    for copied in (copy.copy(ours), copy.deepcopy(ours), pickle.loads(pickle.dumps(ours))):
        assert copied == ours and repr(copied) == repr(twin)


@given(instances, instances)
@settings(max_examples=400, deadline=None)
def test_equality_agrees_within_and_across_types(a, b):
    ours_a, twin_a, _ = a
    ours_b, twin_b, _ = b
    assert (ours_a == ours_b) is (twin_a == twin_b)
    assert (ours_a != ours_b) is (twin_a != twin_b)
    # a value type never equals its twin or any other class, in either order
    assert (ours_a == twin_b) is (twin_a == ours_b) is False
    assert ours_a.__eq__(twin_b) is NotImplemented and twin_a.__eq__(ours_b) is NotImplemented


def test_defaults():
    assert repr(GaussianRational()) == repr(GaussianRationalTwin())
    assert GaussianRational() == GaussianRational(Fraction(0), Fraction(0))
    assert GaussianRational(Fraction(1)) == GaussianRational(real=Fraction(1), imag=Fraction(0))
    assert repr(MultiplicitySeq()) == repr(MultiplicitySeqTwin())
    assert repr(MultiplicitySeq((3,))) == repr(MultiplicitySeqTwin((3,)))
    assert repr(BratteliTailSpec("T1")) == repr(BratteliTailSpecTwin("T1"))
    assert BratteliTailSpec("T1") == BratteliTailSpec("T1", MultiplicitySeq()) == BratteliTailSpec(namespace="T1")


@given(st.lists(st.integers(-2, 4), max_size=3).map(tuple), st.integers(-2, 4))
@settings(max_examples=200, deadline=None)
def test_multiplicities_rejected_as_the_dataclass_rejected_them(prefix, tail):
    def outcome(cls):
        try:
            return repr(cls(prefix, tail))
        except ValueError as exc:
            return str(exc)

    assert outcome(MultiplicitySeq) == outcome(MultiplicitySeqTwin)
    assert outcome(lambda p, t: MultiplicitySeq(prefix=p, tail=t)) == outcome(MultiplicitySeqTwin)


def test_every_value_type_has_a_twin():
    """Every subclass of ``Frozen`` in any module of the package, at any
    depth, is compared with a dataclass twin above."""
    for module in pkgutil.iter_modules(afembed.__path__):
        importlib.import_module(f"afembed.{module.name}")
    found, todo = set(), [Frozen]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.add(sub)
                todo.append(sub)
    assert found == {cls for cls, _, _ in TYPES.values()}
