"""Seeded graph generators that know the right answer by construction.

Every generator returns a :class:`Planted` graph: the text the program
reads, plus the verdict, the disjoint loops and the entrance vertices that
were planted.  The seed only draws labels and the endpoints of fringe
edges; the shape (vertex, edge and loop counts) is fixed by the arguments,
so the cost of a request barely depends on the seed.

Shapes never create a cycle that was not planted: fringe edges point
forward in a fixed order, loop vertices only have exits into the fringe,
and an entrance comes from a fresh source vertex that nothing reaches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

AF = "AF"
EMBEDDABLE = "AF_EMBEDDABLE_NOT_AF"
NOT_FINITE = "NOT_FINITE"


@dataclass(frozen=True)
class Planted:
    """A graph file's text and its planted answer; loops only when embeddable."""

    text: str
    verdict: str
    loops: tuple[frozenset[str], ...] = ()
    entrances: frozenset[str] = frozenset()


class _GraphText:
    """Collects vertices and edges under random, collision-free labels.

    Labels are a fixed lowercase prefix plus random hex, so they never
    collide with the ``T<i>.`` namespaces the embedding generates.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()
        self.lines: list[str] = []

    def _label(self, prefix: str) -> str:
        while True:
            label = f"{prefix}{self.rng.getrandbits(40):010x}"
            if label not in self.used:
                self.used.add(label)
                return label

    def vertex(self, prefix: str = "v") -> str:
        v = self._label(prefix)
        self.lines.append(f"vertex {v}")
        return v

    def edge(self, src: str, dst: str, prefix: str = "e") -> str:
        e = self._label(prefix)
        self.lines.append(f"edge {e} {src} {dst}")
        return e

    def cycle(self, length: int) -> list[str]:
        vs = [self.vertex() for _ in range(length)]
        for i, v in enumerate(vs):
            self.edge(v, vs[(i + 1) % length])
        return vs

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def planted(
    rng: random.Random,
    cycles: tuple[int, ...] = (),
    fringe: int = 0,
    extra_edges: int = 0,
    entrances: int = 0,
) -> Planted:
    """Disjoint cycles, an acyclic fringe, and optional entrances.

    ``extra_edges`` are drawn among exits (loop vertex -> fringe) and
    forward fringe edges.  Each entrance is an edge from a fresh source
    vertex into a distinct loop vertex.
    """
    b = _GraphText(rng)
    loops = [b.cycle(n) for n in cycles]
    on_loops = [v for loop in loops for v in loop]
    order = [b.vertex() for _ in range(fringe)]
    for _ in range(extra_edges):
        if order and on_loops and (len(order) < 2 or rng.random() < 0.5):
            b.edge(rng.choice(on_loops), rng.choice(order))
        elif len(order) >= 2:
            i, j = sorted(rng.sample(range(len(order)), 2))
            b.edge(order[i], order[j])
    entered = rng.sample(on_loops, entrances)
    for v in entered:
        b.edge(b.vertex(), v)
    if entrances:
        verdict = NOT_FINITE
    elif loops:
        verdict = EMBEDDABLE
    else:
        verdict = AF
    return Planted(
        b.text(),
        verdict,
        loops=tuple(frozenset(loop) for loop in loops) if verdict == EMBEDDABLE else (),
        entrances=frozenset(entered),
    )


def cycle_forest(rng: random.Random, lengths: tuple[int, ...], fringe: int) -> Planted:
    """Disjoint cycles, each with one exit into a two-layer acyclic fringe.

    Every first-layer fringe vertex has exactly one edge into the second
    layer, so the number of paths, and with it the basis dimension, does
    not depend on which fringe vertex an exit hits.
    """
    b = _GraphText(rng)
    loops = [b.cycle(n) for n in lengths]
    layer1 = [b.vertex() for _ in range(fringe)]
    layer2 = [b.vertex() for _ in range(fringe)]
    for v in layer1:
        b.edge(v, rng.choice(layer2))
    for loop in loops:
        b.edge(rng.choice(loop), rng.choice(layer1))
    return Planted(b.text(), EMBEDDABLE, loops=tuple(frozenset(loop) for loop in loops))


def layered_dag(rng: random.Random, layers: int, width: int, out_degree: int) -> Planted:
    """A wide loop-free graph: each vertex has ``out_degree`` edges into the next layer."""
    b = _GraphText(rng)
    rows = [[b.vertex() for _ in range(width)] for _ in range(layers)]
    for upper, lower in zip(rows, rows[1:]):
        for v in upper:
            for _ in range(out_degree):
                b.edge(v, rng.choice(lower))
    return Planted(b.text(), AF)


def diamond_ladder(rng: random.Random, rungs: int) -> Planted:
    """An entrance graph on which a backtracking cycle search takes 2**rungs steps.

    The entry vertex ``x`` lies on the 2-cycle ``x -> y -> x`` and has one
    entrance edge.  From ``x`` hangs a chain of ``rungs`` diamonds that ends
    in a dead end.  Ladder edge ids start with ``a`` and the cycle's with
    ``c``, so a search that tries out-edges in id order walks every one of
    the 2**rungs ladder paths before it takes the cycle edge.
    """
    b = _GraphText(rng)
    x, y = b.vertex(), b.vertex()
    b.edge(x, y, "c")
    b.edge(y, x, "c")
    b.edge(b.vertex(), x, "c")
    top = x
    for _ in range(rungs):
        left, right, bottom = b.vertex(), b.vertex(), b.vertex()
        for mid in (left, right):
            b.edge(top, mid, "a")
            b.edge(mid, bottom, "a")
        top = bottom
    return Planted(b.text(), NOT_FINITE, entrances=frozenset({x}))
