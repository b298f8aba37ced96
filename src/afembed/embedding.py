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
:class:`AugmentedGraphSpec` is its one description: it answers endpoints
and full receiver sets lazily, which is what the symbolic rewriting needs,
and :func:`materialize` cuts the finite stage ``F_d`` from its tables.
"""

from __future__ import annotations

import re
from types import SimpleNamespace
from typing import Iterable

from .graph import Frozen, Graph, GraphError, graph_from_dict, graph_to_dict, named_edges
from .loops import EntranceExistsError, SimpleLoop, Verdict, classify
from .terms import CKTerm, ContextMismatchError, NormalMonomial, StarContext, parse_term, term_to_str


#: The most vertices and edges :func:`materialize` builds into a stage, and
#: the most rows :func:`afembed.numrep.build_rep` builds into its path basis.
#: With CPython 3.11 on x86-64, ``embed`` peaks at about 500 bytes per
#: vertex or edge of ``F_d`` and ``verify`` at about 370 bytes per basis
#: row, so a stage at this ceiling stays near half a gigabyte.
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
        return tuple(self.tail.f_edge(i) for i in range(1, self.loop.n + 1))

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


class AugmentedGraphSpec(StarContext):
    """The replaced graph: finite base plus lazily infinite tails.

    Acts as the symbolic context for the rewriting engine: edge endpoints
    and receiver sets are answered for the full graph, with tail levels
    resolved by parsing generated ids against each tail's namespace.
    ``_finite_edges`` maps every base edge and f-edge to its endpoints, and
    ``_receivers`` every base vertex to its receivers, f-edges included.
    A replaced loop has no entrance: its vertices receive no base edge.
    """

    def __init__(self, base: Graph, replacements: tuple[LoopReplacement, ...]):
        self.base = base
        self.replacements = tuple(replacements)
        self._tails = {rep.tail.namespace: rep.tail for rep in self.replacements}
        if len(self._tails) != len(self.replacements):
            raise NamespaceCollisionError("tail namespaces must be distinct")
        loop_edges = [e for rep in self.replacements for e in rep.loop.edges]
        claimed = _claimed_namespaces([*base.vertex_names, *base.edge_names, *loop_edges])
        for ns in self._tails:
            if ns.split() != [ns] or "." in ns or ns in claimed:
                raise NamespaceCollisionError(
                    f"tail namespace {ns!r} is not a '.'-free token unclaimed by the graph's ids"
                )
        self._sinks = {tail.sink: ns for ns, tail in self._tails.items()}
        self._finite_edges: dict[str, tuple[str, str]] = {
            name: (s, r) for name, s, r in named_edges(base)
        }
        en, start, ids = base.edge_names, base.recv_start, base.recv_ids
        receivers = {v: [en[e] for e in ids[start[i] : start[i + 1]]] for i, v in enumerate(base.vertex_names)}
        for rep in self.replacements:
            for u in rep.loop.vertices:
                if u not in receivers:
                    raise GraphError(f"loop vertex {u!r} is not a vertex of the base graph")
            for e in rep.loop.edges:
                if e in self._finite_edges:
                    raise GraphError(f"loop edge {e!r} is still an edge of the base graph")
            for u in rep.loop.vertices:
                if receivers[u]:  # a base edge, or an earlier loop's f-edge: only its loop edge may enter u
                    raise GraphError(f"loop vertex {u!r} receives an edge off its loop: the loop has an entrance")
            for f, u_i in zip(rep.f_edges, rep.loop.vertices):
                self._finite_edges[f] = (rep.tail.sink, u_i)
                receivers[u_i].append(f)
        self._receivers = {v: frozenset(rec) for v, rec in receivers.items()}

    # --- reconstruction of the replaced source graph -----------------------

    def original_graph(self) -> Graph:
        """The input graph: base plus the removed loop edges."""
        edges = list(named_edges(self.base))
        for rep in self.replacements:
            loop = rep.loop
            for i in range(1, loop.n + 1):
                u_i = loop.vertices[i - 1]
                u_next = loop.vertices[i % loop.n]
                edges.append((loop.edge_index(i), u_i, u_next))
        return Graph.build(self.base.vertex_names, edges)

    def replacement_for(self, loop: SimpleLoop) -> LoopReplacement:
        for rep in self.replacements:
            if rep.loop == loop:
                return rep
        raise KeyError(f"loop {loop.edges!r} is not among the replacements")

    # --- StarContext ---------------------------------------------------------

    def _tail_level(self, v: str) -> tuple[BratteliTailSpec, int]:
        """The tail and level of a generated vertex; level 0 is the sink."""
        ns, _, local = v.partition(".")
        m = _TAIL_VERTEX_RE.fullmatch(local) if ns in self._tails else None
        if m is None:
            raise ContextMismatchError(f"unknown vertex {v!r}")
        return self._tails[ns], _read_index(m.group(1) or "0", "vertex", v)

    def check_vertex(self, v: str) -> str:
        if v not in self._receivers:
            self._tail_level(v)
        return v

    def endpoints(self, e: str) -> tuple[str, str]:
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

    def receivers(self, v: str) -> frozenset[str]:
        rec = self._receivers.get(v)
        if rec is not None:
            return rec
        tail, k = self._tail_level(v)
        return frozenset(tail.level_edges(k + 1))

    def unique_receiver(self, v: str) -> str | None:
        """As the base class, but a tail level is answered from its multiplicity
        alone, without building its ``mult(k+1)`` edge names."""
        if v in self._receivers:
            return super().unique_receiver(v)
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
    loops = cls.loops
    loop_edge_names = {e for loop in loops for e in loop.edges}
    base = Graph.build(g.vertex_names, [e for e in named_edges(g) if e[0] not in loop_edge_names])
    namespaces = _pick_namespaces(g, len(loops))
    replacements = tuple(
        LoopReplacement(loop, BratteliTailSpec(ns, mult))
        for loop, ns in zip(loops, namespaces)
    )
    spec = AugmentedGraphSpec(base, replacements)

    edge_map: dict[str, CKTerm] = {}
    for name, source, _ in named_edges(g):
        if name not in loop_edge_names:
            edge_map[name] = CKTerm.of(NormalMonomial((name,), 0, (), source))
    for rep in replacements:
        sink = rep.tail.sink
        for i in range(1, rep.loop.n + 1):
            edge_map[rep.loop.edge_index(i)] = CKTerm.of(
                NormalMonomial((rep.f_edge_for(i + 1),), 1, (rep.f_edge_for(i),), sink)
            )
    return spec, GeneratorMap(edge_map=edge_map)


def materialize(spec: AugmentedGraphSpec, depth: int) -> Graph:
    """The finite stage ``F_d``: base, f-edges, and ``depth`` tail levels.

    Its vertices and edges are counted first, in O(len(prefix)) steps per
    tail, and a stage of more than :data:`MAX_STAGE_SIZE` in all is refused.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    nv = len(spec.base.vertex_names) + len(spec.replacements) * (depth + 1)
    ne = len(spec._finite_edges)
    for rep in spec.replacements:
        mult = rep.tail.mult
        ne += sum(mult.prefix[:depth]) + max(depth - len(mult.prefix), 0) * mult.tail
    if nv + ne > MAX_STAGE_SIZE:
        raise StageTooLargeError(
            f"stage F_{depth} has {nv} vertices and {ne} edges, more than the {MAX_STAGE_SIZE} a stage may have"
        )
    # the spec's ids are distinct tokens, so they go to the index unchecked
    vertices = [*spec.base.vertex_names, *spec._sinks]
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


# ---------------------------------------------------------------------------
# serialization


def spec_to_dict(spec: AugmentedGraphSpec) -> dict:
    return {
        "base": graph_to_dict(spec.base),
        "replacements": [
            {
                "loop_edges": list(rep.loop.edges),
                "loop_vertices": list(rep.loop.vertices),
                "namespace": rep.tail.namespace,
                "sink": rep.tail.sink,
                "f_edges": list(rep.f_edges),
                "mult": {"prefix": list(rep.tail.mult.prefix), "tail": rep.tail.mult.tail},
            }
            for rep in spec.replacements
        ],
    }


def spec_from_dict(obj: dict) -> AugmentedGraphSpec:
    base = graph_from_dict(obj["base"])
    replacements = []
    for r in obj["replacements"]:
        loop = SimpleLoop(tuple(r["loop_edges"]), tuple(r["loop_vertices"]))
        mult = MultiplicitySeq(tuple(r["mult"]["prefix"]), r["mult"]["tail"])
        replacements.append(LoopReplacement(loop, BratteliTailSpec(r["namespace"], mult)))
    return AugmentedGraphSpec(base, tuple(replacements))


def genmap_to_text(gmap: GeneratorMap, spec: AugmentedGraphSpec) -> str:
    lines = ["# generator map: edge id = image term"]
    for e in sorted(gmap.edge_map):
        lines.append(f"{e} = {term_to_str(gmap.edge_map[e], spec)}")
    return "\n".join(lines) + "\n"


def genmap_from_text(text: str, spec: AugmentedGraphSpec) -> GeneratorMap:
    edge_map: dict[str, CKTerm] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        # an edge id may hold '=', but no whitespace: the greedy first token
        # before an '=' is the id, so ``a=b = s(a=b)`` and ``e=s(e)`` both read
        m = re.fullmatch(r"(\S+)\s*=\s*(.*)", line)
        if m is None:
            raise ValueError(f"line {lineno}: expected '<edge-id> = <term>'")
        name, rhs = m.groups()
        if name in edge_map:
            raise ValueError(f"line {lineno}: duplicate image for edge {name!r}")
        try:
            edge_map[name] = parse_term(rhs, spec)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return GeneratorMap(edge_map=edge_map)
