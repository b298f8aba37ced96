"""Loop replacement by Bratteli tails and the generator embedding.

Each disjoint simple loop ``(e_n, ..., e_1)`` of an entrance-free graph is
removed and replaced by a single-sink tail: a fresh vertex ``v``, edges
``f_i : v -> u_i`` into the loop vertices, and levels ``L_1, L_2, ...``
with ``mult(k)`` parallel edges from level ``k`` to level ``k-1``.  The
corner at ``v`` is then a UHF algebra carrying a unitary ``t`` whose power
spectrum fills the circle, and the loop generators embed as
``e_i |-> s(f_{i+1}) t s*(f_i)`` with ``f_{n+1} = f_1``.

Generated ids live in the tail's namespace, a ``.``-free token that no id
of the input graph equals or extends by ``.``.  The tail owns it: the only
ids in it are the sink ``<ns>.v``, levels ``<ns>.L<k>.1``, f-edges
``<ns>.f<i>`` (``i <= n``) and tail edges ``<ns>.b<k>.<m>`` (``m <= mult(k)``),
with positive indices written without leading zeros.

The augmented graph is conceptually infinite in the tail direction.
:class:`AugmentedGraphSpec` is its one description: the input graph E, as
indexed when it was read, plus the replacements of its loops.  The spec is
the term engine's only context: it answers endpoints and full
receiver sets lazily, which is what the symbolic product needs, the
relation catalogues are stated over its E, and :func:`materialize` cuts
the finite stage ``F_d`` from its tables.
"""

from __future__ import annotations

import re
from types import SimpleNamespace
from typing import Iterable

from .graph import Frozen, Graph, GraphError, named_edges
from .loops import EntranceExistsError, SimpleLoop, Verdict, classify
from .terms import CKTerm, ContextMismatchError, NormalMonomial


#: The most vertices and edges :func:`materialize` builds into a stage, and
#: the most rows :func:`afembed.numrep.build_rep` builds into its path basis.
#: With CPython 3.11 on x86-64, ``embed`` peaks at about 500 bytes per
#: vertex or edge of ``F_d``, so a stage at this ceiling stays near half a
#: gigabyte; ``verify`` of the self-loop at depth 17, 655,340 basis rows,
#: peaks at 101 MB, about 160 bytes per row, 140 per row added from depth 16.
MAX_STAGE_SIZE = 2**20


class NamespaceCollisionError(ValueError):
    pass


class StageTooLargeError(ValueError):
    """A finite stage above :data:`MAX_STAGE_SIZE`, refused before it is built."""


#: the whole ``--mult`` text: a bare tail, or a prefix and a tail, in ASCII digits
_MULT_RE = re.compile(r"[0-9]+(,[0-9]+)*;[0-9]+|[0-9]+")


class MultiplicitySeq(Frozen):
    """Edge multiplicities per tail level: a finite prefix, then a constant.

    Every entry is at least 1 and the repeating tail value at least 2, so
    the level sizes grow without bound and the corner is an
    infinite-dimensional UHF algebra.
    """

    __slots__ = ("prefix", "tail")

    def __init__(self, prefix: tuple[int, ...] = (), tail: int = 2):
        _mult_prefix(self, prefix)
        _mult_tail(self, tail)
        if any(m < 1 for m in prefix):
            raise ValueError("multiplicities must be >= 1")
        if tail < 2:
            raise ValueError(
                "the repeating multiplicity must be >= 2 so that entries >= 2 occur infinitely often"
            )

    def value(self, k: int) -> int:
        if k < 1:
            raise ValueError("levels are 1-based")
        return self.prefix[k - 1] if k <= len(self.prefix) else self.tail

    def level_sizes(self, depth: int) -> list[int]:
        """Path counts into the sink per level: ``N_k = prod_{j<=k} mult(j)``."""
        sizes = [1]
        for k in range(1, depth + 1):
            sizes.append(sizes[-1] * self.value(k))
        return sizes

    @classmethod
    def parse(cls, text: str) -> "MultiplicitySeq":
        """Parse ``"m1,m2,...;tail"`` or a bare tail value, in ASCII digits."""
        text = text.strip()
        if not _MULT_RE.fullmatch(text):
            raise ValueError(f"expected '<tail>' or '<m1>,<m2>,...;<tail>', not {text!r}")
        head, _, tail = text.rpartition(";")
        return cls(tuple(map(int, head.split(","))) if head else (), int(tail))

    def render(self) -> str:
        if not self.prefix:
            return str(self.tail)
        return ",".join(str(m) for m in self.prefix) + f";{self.tail}"


_mult_prefix, _mult_tail = MultiplicitySeq.prefix.__set__, MultiplicitySeq.tail.__set__


class BratteliTailSpec(Frozen):
    """One single-sink tail: namespace for generated ids plus multiplicities."""

    __slots__ = ("namespace", "mult")

    def __init__(self, namespace: str, mult: MultiplicitySeq = MultiplicitySeq()):
        _tail_namespace(self, namespace)
        _tail_mult(self, mult)

    @property
    def sink(self) -> str:
        return f"{self.namespace}.v"

    def vertex(self, k: int) -> str:
        """The vertex at level ``k``; level 0 is the sink."""
        return f"{self.namespace}.L{k}.1" if k else self.sink

    def level_edges(self, k: int) -> list[str]:
        """The ``mult(k)`` parallel tail edges ``b<k>.<m>``; :meth:`tail_edge_ends` gives their ends."""
        return [f"{self.namespace}.b{k}.{m}" for m in range(1, self.mult.value(k) + 1)]

    def tail_edge_ends(self, k: int) -> tuple[str, str]:
        """Source and range of every tail edge ``b<k>.<m>``: level ``k`` to ``k-1``."""
        return self.vertex(k), self.vertex(k - 1)

    def f_edge(self, i: int) -> str:
        return f"{self.namespace}.f{i}"


_tail_namespace, _tail_mult = BratteliTailSpec.namespace.__set__, BratteliTailSpec.mult.__set__


class LoopReplacement(Frozen):
    __slots__ = ("loop", "tail")

    def __init__(self, loop: SimpleLoop, tail: BratteliTailSpec):
        _replacement_loop(self, loop)
        _replacement_tail(self, tail)

    @property
    def f_edges(self) -> tuple[str, ...]:
        return tuple(map(self.tail.f_edge, range(1, len(self.loop.edges) + 1)))

    def f_edge_for(self, i: int) -> str:
        """``f_i`` with the cyclic convention ``f_{n+1} = f_1``."""
        return self.tail.f_edge((i - 1) % self.loop.n + 1)


_replacement_loop, _replacement_tail = LoopReplacement.loop.__set__, LoopReplacement.tail.__set__


# what follows "<ns>." in a generated id; without leading zeros, one spelling each
_TAIL_VERTEX_RE = re.compile(r"v|L([1-9][0-9]*)\.1")
_TAIL_EDGE_RE = re.compile(r"b([1-9][0-9]*)\.([1-9][0-9]*)")


def _read_index(digits: str, kind: str, name: str) -> int:
    """A level or edge index of a generated id; one too long for ``int`` names no id of any F_d."""
    try:
        return int(digits)
    except ValueError:
        raise ContextMismatchError(f"unknown {kind} '{name[:24]}...': its index has {len(digits)} digits") from None


def _claimed_namespaces(ids: Iterable[str]) -> set[str]:
    """First ``.``-segments of ``ids``: a ``.``-free namespace collides with an id iff it is one."""
    return {x.split(".", 1)[0] for x in ids}


class AugmentedGraphSpec:
    """The replaced graph: the input graph ``graph``, E, and the
    ``replacements`` of its loops by tails.

    It is the one context the term engine reads, and it answers for
    the full graph the algebra lives over: E with each replaced loop's
    edges removed, plus the tails, whose levels are resolved lazily by
    parsing generated ids against each tail's namespace.  ``receivers``
    must answer so, tail levels included, since the unique-receiver
    contraction is only sound against the full receiver set; distinct tails
    have distinct sinks.  ``_finite_edges`` maps every edge of E off the
    replaced loops, in id order, then every f-edge, to its endpoints, and
    ``_receivers`` every vertex of E to its receivers, f-edges included.
    Each loop edge ``e_i`` must be an edge of E from ``u_i`` to
    ``u_{i+1}``, and a replaced loop has no entrance: ``u_{i+1}`` receives
    ``e_i`` alone.
    """

    def __init__(self, graph: Graph, replacements: tuple[LoopReplacement, ...]):
        self.graph = graph
        self.replacements = tuple(replacements)
        self._tails = {rep.tail.namespace: rep.tail for rep in self.replacements}
        if len(self._tails) != len(self.replacements):
            raise NamespaceCollisionError("tail namespaces must be distinct")
        claimed = _claimed_namespaces([*graph.vertex_names, *graph.edge_names])
        for ns in self._tails:
            if ns.split() != [ns] or "." in ns or ns in claimed:
                raise NamespaceCollisionError(
                    f"tail namespace {ns!r} is not a '.'-free token unclaimed by the graph's ids"
                )
        self._sinks = {tail.sink: ns for ns, tail in self._tails.items()}
        self._by_edges = {rep.loop.edges: rep for rep in self.replacements}
        self._finite_edges: dict[str, tuple[str, str]] = {
            name: (s, r) for name, s, r in named_edges(graph)
        }
        en, start, ids = graph.edge_names, graph.recv_start, graph.recv_ids
        receivers = {v: [en[e] for e in ids[start[i] : start[i + 1]]] for i, v in enumerate(graph.vertex_names)}
        for rep in self.replacements:
            sink, us, fs = rep.tail.sink, rep.loop.vertices, rep.f_edges
            # e_i from u_i to u_{i+1}, whose place f_{i+1} takes, cyclically
            for e, u, w, f in zip(reversed(rep.loop.edges), us, us[1:] + us[:1], fs[1:] + fs[:1]):
                if self._finite_edges.pop(e, None) != (u, w):
                    raise GraphError(f"loop edge {e!r} is not an edge of the graph from {u!r} to {w!r}")
                if receivers[w] != [e]:  # an edge of E off the loop, or an earlier loop's f-edge
                    raise GraphError(f"loop vertex {w!r} receives an edge off its loop: the loop has an entrance")
                self._finite_edges[f] = (sink, w)
                receivers[w] = [f]
        self._receivers = {v: frozenset(rec) for v, rec in receivers.items()}

    def replacement_for(self, loop: SimpleLoop) -> LoopReplacement:
        rep = self._by_edges.get(loop.edges)
        if rep is None or rep.loop != loop:
            raise KeyError(f"loop {loop.edges!r} is not among the replacements")
        return rep

    # --- the term engine's context ---------------------------------------------

    def _tail_level(self, v: str) -> tuple[BratteliTailSpec, int]:
        """The tail and level of a generated vertex; level 0 is the sink."""
        ns, _, local = v.partition(".")
        m = _TAIL_VERTEX_RE.fullmatch(local) if ns in self._tails else None
        if m is None:
            raise ContextMismatchError(f"unknown vertex {v!r}")
        return self._tails[ns], _read_index(m.group(1) or "0", "vertex", v)

    def check_vertex(self, v: str) -> str:
        """``v`` itself; raises :class:`ContextMismatchError` if it is unknown."""
        if v not in self._receivers:
            self._tail_level(v)
        return v

    def endpoints(self, e: str) -> tuple[str, str]:
        """``(source(e), range(e))``; raises :class:`ContextMismatchError` if ``e`` is unknown."""
        try:
            return self._finite_edges[e]
        except KeyError:
            pass
        ns, _, local = e.partition(".")
        m = _TAIL_EDGE_RE.fullmatch(local) if ns in self._tails else None
        if m:
            tail, k = self._tails[ns], _read_index(m.group(1), "edge", e)
            if _read_index(m.group(2), "edge", e) <= tail.mult.value(k):
                return tail.tail_edge_ends(k)
        raise ContextMismatchError(f"unknown edge {e!r}")

    def edge_source(self, e: str) -> str:
        return self.endpoints(e)[0]

    def edge_range(self, e: str) -> str:
        return self.endpoints(e)[1]

    def receivers(self, v: str) -> frozenset[str]:
        """The edges with range ``v`` in the full graph, tail levels included."""
        rec = self._receivers.get(v)
        if rec is not None:
            return rec
        tail, k = self._tail_level(v)
        return frozenset(tail.level_edges(k + 1))

    def unique_receiver(self, v: str) -> str | None:
        """The one edge with range ``v``, or None if ``v`` has several or
        none; a tail level is answered from its multiplicity alone, without
        building its ``mult(k+1)`` edge names."""
        rec = self._receivers.get(v)
        if rec is not None:
            return next(iter(rec)) if len(rec) == 1 else None
        tail, k = self._tail_level(v)
        return tail.level_edges(k + 1)[0] if tail.mult.value(k + 1) == 1 else None

    def sink_vertex(self, namespace: str) -> str:
        if namespace not in self._tails:
            raise ContextMismatchError(f"unknown tail namespace {namespace!r}")
        return self._tails[namespace].sink

    def sink_namespace(self, v: str) -> str | None:
        return self._sinks.get(v)


class GeneratorMap(SimpleNamespace):
    """Images of the input graph's generators inside the augmented algebra.

    ``edge_map`` maps each edge id to its image, a :class:`CKTerm`.
    Vertices map identically; an unreplaced edge maps to its own isometry
    and the i-th edge of a replaced loop to ``s(f_{i+1}) t s*(f_i)``.
    """


def _pick_namespaces(g: Graph, count: int) -> list[str]:
    """The first ``count`` names ``T<i>`` that no host id equals or extends by ``.``."""
    taken = _claimed_namespaces([*g.vertex_names, *g.edge_names])
    out: list[str] = []
    i = 1
    while len(out) < count:
        ns = f"T{i}"
        i += 1
        if ns not in taken:
            out.append(ns)
    return out


def embed(g: Graph, mult: MultiplicitySeq | None = None) -> tuple[AugmentedGraphSpec, GeneratorMap]:
    """Replace every loop by a tail and produce the generator embedding.

    Requires the no-entrance condition; the raised error carries the
    entrance witness otherwise.  Loop-free inputs come back unchanged with
    the identity map.
    """
    mult = mult or MultiplicitySeq()
    cls = classify(g)
    if cls.verdict is Verdict.NOT_FINITE:
        assert cls.witness is not None
        raise EntranceExistsError(cls.witness)
    namespaces = _pick_namespaces(g, len(cls.loops))
    replacements = tuple(
        LoopReplacement(loop, BratteliTailSpec(ns, mult))
        for loop, ns in zip(cls.loops, namespaces)
    )
    spec = AugmentedGraphSpec(g, replacements)

    edge_map: dict[str, CKTerm] = {}
    for name, source, _ in named_edges(g):
        if name in spec._finite_edges:  # an edge of ``g`` there lies on no replaced loop
            edge_map[name] = CKTerm.of(NormalMonomial((name,), 0, (), source))
    for rep in replacements:
        sink, fs = rep.tail.sink, rep.f_edges
        for e, f, f_next in zip(reversed(rep.loop.edges), fs, fs[1:] + fs[:1]):  # e_i, f_i, f_{i+1}
            edge_map[e] = CKTerm.of(NormalMonomial((f_next,), 1, (f,), sink))
    return spec, GeneratorMap(edge_map=edge_map)


def materialize(spec: AugmentedGraphSpec, depth: int) -> Graph:
    """The finite stage ``F_d``: base, f-edges, and ``depth`` tail levels.

    Its vertices and edges are counted first, in O(len(prefix)) steps per
    tail, and a stage of more than :data:`MAX_STAGE_SIZE` in all is refused.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    nv = len(spec.graph.vertex_names) + len(spec.replacements) * (depth + 1)
    ne = len(spec._finite_edges)
    for rep in spec.replacements:
        mult = rep.tail.mult
        ne += sum(mult.prefix[:depth]) + max(depth - len(mult.prefix), 0) * mult.tail
    if nv + ne > MAX_STAGE_SIZE:
        raise StageTooLargeError(
            f"stage F_{depth} has {nv} vertices and {ne} edges, more than the {MAX_STAGE_SIZE} a stage may have"
        )
    # the spec's ids are distinct tokens, so they go to the index unchecked
    vertices = [*spec.graph.vertex_names, *spec._sinks]
    position = {v: i for i, v in enumerate(vertices)}
    names = list(spec._finite_edges)
    src = [position[s] for s, _ in spec._finite_edges.values()]
    rng = [position[r] for _, r in spec._finite_edges.values()]
    for rep in spec.replacements:
        tail = rep.tail
        below = position[tail.sink]
        for k in range(1, depth + 1):  # level k's edges run to level k - 1, as ``tail_edge_ends`` says
            level = tail.level_edges(k)
            names += level
            src += [len(vertices)] * len(level)
            rng += [below] * len(level)
            below = len(vertices)
            vertices.append(tail.vertex(k))
    return Graph(vertices, names, src, rng)
