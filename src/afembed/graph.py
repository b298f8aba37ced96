"""Finite directed multigraphs with receive-side conventions.

Edges carry a source and a range vertex; several parallel edges and
self-loops are allowed.  Paths are written range-end first: a path
``(a_n, ..., a_1)`` traverses ``a_1`` first and requires
``range(a_i) == source(a_{i+1})`` for consecutive edges.  All identities
in the rewriting and embedding modules are stated in this order, so it is
kept verbatim everywhere to avoid convention bugs.

Two interchangeable document formats are supported: a line-oriented text
format (``vertex <id>`` / ``edge <id> <source> <range>`` with ``#``
comments) and a JSON object with ``vertices`` and ``edges`` keys, where
``dst`` is the range vertex.  In both an id is a nonempty token without
whitespace or ``#``, so every graph written as text reads back as itself.

A :class:`Graph` interns its ids to integers once, when it is built: the
sorted vertex names are numbered ``0 .. |V|-1`` and the sorted edge names
``0 .. |E|-1``, so comparing two ids compares their names.  The index is
held in flat ``array('q')`` columns, with no container per vertex or edge:
``src[e]`` and ``rng[e]`` per edge, and per side a compressed adjacency,
``out_ids[out_start[v] : out_start[v + 1]]`` the out-edges of ``v`` and
``recv_ids[recv_start[v] : recv_start[v + 1]]`` its receivers, each in id
order.  The loop analysis, the embedding and the path basis run on this
index; names come back from ``vertex_names`` and ``edge_names`` where a
result is reported, and :func:`named_edges` lists each edge by name for
the writers.  The name-level views ``vertices``, ``edges``, ``receivers``
and ``out_edges`` are built from the index on every call, for callers
outside the pipeline, and the name-to-id tables on first lookup.
"""

from __future__ import annotations

import json
from array import array
from itertools import accumulate, islice
from operator import attrgetter
from typing import Iterable, Iterator, Sequence


class GraphError(ValueError):
    """Base class for graph construction and lookup failures."""


class GraphParseError(GraphError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DuplicateIdError(GraphError):
    pass


class UndeclaredEndpointError(GraphError):
    pass


class UnknownVertexError(GraphError):
    pass


class UnknownEdgeError(GraphError):
    pass


class Frozen:
    """Base of the immutable value types.

    Each subclass lists its fields in ``__slots__`` and writes each of them
    once, in ``__init__``, through the slot's own setter; afterwards an
    assignment or a deletion raises ``AttributeError``.  The rest is derived
    here from the field tuple, which ``_fields(obj)`` reads with one
    ``attrgetter`` built per class, as a frozen dataclass derives it (the
    twins in ``tests/oracles.py`` pin this): ``==`` compares the field
    tuples of two instances of the same class (``NotImplemented`` for any
    other class), ``hash`` hashes the tuple, ``repr`` reads
    ``Name(field=value, ...)``, and copy and pickle rebuild an instance
    through ``__init__``.

    ``NormalMonomial`` and ``GaussianRational`` make up every term, and the
    rewrite engine hashes and compares them all the time, so they override
    ``__eq__`` and ``__hash__`` with literal tuples: hashing a
    ``NormalMonomial`` takes 0.17 us that way and 0.39 us through the
    getter (CPython 3.11, 2-vCPU host).
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # given two names or more ``attrgetter`` returns a tuple: every value type has at least two fields
        cls._fields = attrgetter(*cls.__slots__)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild an instance through ``__init__``, which alone may write its slots
        return self.__class__, self._fields(self)


class Edge(Frozen):
    """A directed edge; ``range`` is the receiving vertex."""

    __slots__ = ("name", "source", "range")

    def __init__(self, name: str, source: str, range: str):
        _edge_name(self, name)
        _edge_source(self, source)
        _edge_range(self, range)


_edge_name, _edge_source, _edge_range = Edge.name.__set__, Edge.source.__set__, Edge.range.__set__


class Path(Frozen):
    """A composable edge list ``(a_n, ..., a_1)``, or a single vertex.

    Length-0 paths have ``edges == ()`` and ``source == range``.  A
    ``Path`` records a path of some graph and checks nothing itself: the
    path basis builds its paths by walking the graph, and a witness's
    paths are read off a loop and an edge that the witness check has
    compared with the graph.
    """

    __slots__ = ("edges", "source", "range")

    def __init__(self, edges: tuple[str, ...], source: str, range: str):
        _path_edges(self, edges)
        _path_source(self, source)
        _path_range(self, range)

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def is_vertex(self) -> bool:
        return not self.edges

    def __str__(self) -> str:
        if self.is_vertex:
            return f"({self.source})"
        return " ".join(self.edges)


_path_edges, _path_source, _path_range = Path.edges.__set__, Path.source.__set__, Path.range.__set__


def _check_token(kind: str, name: str) -> None:
    # str.split() splits on exactly the characters for which isspace() holds;
    # the text format reads ``#`` as the start of a comment
    if name.split() != [name] or "#" in name:
        raise GraphError(f"{kind} id must be a nonempty token without whitespace or '#': {name!r}")
    if not name.isascii():
        try:
            name.encode()
        except UnicodeEncodeError:  # a lone surrogate, which only a JSON escape spells
            raise GraphError(f"{kind} id is not UTF-8 text: {name!r}") from None


def _adjacency(ends: array, n: int) -> tuple[array, array]:
    """``(start, ids)``: per vertex ``v < n``, the ids ``e`` with ``ends[e] == v``
    are ``ids[start[v] : start[v + 1]]``, in id order (one stable sort)."""
    count = [0] * (n + 1)
    for v in ends:
        count[v + 1] += 1
    return array("q", accumulate(count)), array("q", sorted(range(len(ends)), key=ends.__getitem__))


class Graph:
    """Immutable finite directed multigraph over the integer index of the
    module docstring.

    ``vertices``, ``edges``, ``receivers`` and ``out_edges`` answer by name,
    each built from the index when called.
    Structurally equal graphs compare equal regardless of declaration order.
    """

    __slots__ = (
        "vertex_names", "edge_names", "src", "rng",
        "out_start", "out_ids", "recv_start", "recv_ids", "_vertex_ids", "_edge_ids",
    )

    def __init__(self, vertex_names: Sequence[str], edge_names: Sequence[str], src: Sequence[int], rng: Sequence[int]):
        """Index checked ids: distinct ``vertex_names`` and distinct
        ``edge_names``, each in any order, and per edge the positions of its
        source and range in ``vertex_names``."""
        vorder = sorted(range(len(vertex_names)), key=vertex_names.__getitem__)
        rank = array("q", bytes(8 * len(vorder)))
        for i, v in enumerate(vorder):
            rank[v] = i
        eorder = sorted(range(len(edge_names)), key=edge_names.__getitem__)
        self.vertex_names = tuple(map(vertex_names.__getitem__, vorder))
        self.edge_names = tuple(map(edge_names.__getitem__, eorder))
        self.src = array("q", map(rank.__getitem__, map(src.__getitem__, eorder)))
        self.rng = array("q", map(rank.__getitem__, map(rng.__getitem__, eorder)))
        self.out_start, self.out_ids = _adjacency(self.src, len(vorder))
        self.recv_start, self.recv_ids = _adjacency(self.rng, len(vorder))
        self._vertex_ids: dict[str, int] | None = None  # built on first use
        self._edge_ids: dict[str, int] | None = None

    @classmethod
    def build(cls, vertices: Iterable[str], edges: Iterable[tuple[str, str, str]]) -> "Graph":
        """Check and index ``vertices`` and ``(name, source, range)`` edge triples."""
        position: dict[str, int] = {}
        for v in vertices:
            _check_token("vertex", v)
            if v in position:
                raise DuplicateIdError(f"duplicate vertex id {v!r}")
            position[v] = len(position)
        names: list[str] = []
        src: list[int] = []
        rng: list[int] = []
        seen: set[str] = set()
        for name, source, range_ in edges:
            _check_token("edge", name)
            if name in seen:
                raise DuplicateIdError(f"duplicate edge id {name!r}")
            seen.add(name)
            for endpoint in (source, range_):
                if endpoint not in position:
                    raise UndeclaredEndpointError(
                        f"edge {name!r} references undeclared vertex {endpoint!r}"
                    )
            names.append(name)
            src.append(position[source])
            rng.append(position[range_])
        return cls(list(position), names, src, rng)

    # --- name lookups ---------------------------------------------------------

    def vertex_id(self, v: str) -> int:
        if self._vertex_ids is None:
            self._vertex_ids = {n: i for i, n in enumerate(self.vertex_names)}
        try:
            return self._vertex_ids[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    def edge_id(self, name: str) -> int:
        if self._edge_ids is None:
            self._edge_ids = {n: e for e, n in enumerate(self.edge_names)}
        try:
            return self._edge_ids[name]
        except KeyError:
            raise UnknownEdgeError(f"unknown edge {name!r}") from None

    # --- name-level views, built from the index on each call -----------------

    @property
    def vertices(self) -> frozenset[str]:
        return frozenset(self.vertex_names)

    def _edge(self, e: int) -> Edge:
        vn = self.vertex_names
        return Edge(self.edge_names[e], vn[self.src[e]], vn[self.rng[e]])

    @property
    def edges(self) -> tuple[Edge, ...]:
        """All edges in id order."""
        return tuple(map(self._edge, range(len(self.edge_names))))

    def edge(self, name: str) -> Edge:
        return self._edge(self.edge_id(name))

    def receivers(self, v: str) -> frozenset[str]:
        """Edge names with range ``v`` (the set ``r^{-1}(v)``)."""
        i = self.vertex_id(v)
        return frozenset(map(self.edge_names.__getitem__, self.recv_ids[self.recv_start[i] : self.recv_start[i + 1]]))

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        """Edges with source ``v``, in id order."""
        i = self.vertex_id(v)
        return tuple(map(self._edge, self.out_ids[self.out_start[i] : self.out_start[i + 1]]))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vertex_names, self.edge_names, self.src, self.rng) == (
            other.vertex_names, other.edge_names, other.src, other.rng
        )

    def __hash__(self) -> int:
        return hash((self.vertex_names, self.edge_names, self.src.tobytes(), self.rng.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(vertices={list(self.vertex_names)!r}, edges={list(self.edges)!r})"


#: characters of a text that :func:`_statements` splits into lines at a time
_BLOCK = 1 << 16


def _statements(text: str) -> Iterator[tuple[int, list[str]]]:
    """The grammar of the text format: ``(line number, words)`` of each
    statement, ``vertex <id>`` or ``edge <id> <source-id> <range-id>``.

    Lines are split where :meth:`str.splitlines` splits them, a ``#``
    starts a comment, and a line left blank holds no statement.  A bad
    directive or a wrong word count raises at its line.  The text is split
    a block at a time, each block ending just after a ``\\n``, which ends a
    line in every convention, so only one block's lines are alive at once.
    """
    lineno, start, size = 0, 0, len(text)
    while start < size:
        end = text.find("\n", start + _BLOCK) + 1 or size
        for raw in text[start:end].splitlines():
            lineno += 1
            parts = (raw[: raw.index("#")] if "#" in raw else raw).split()
            if not parts:
                continue
            if parts[0] == "vertex":
                if len(parts) != 2:
                    raise GraphParseError("expected: vertex <id>", lineno)
            elif parts[0] == "edge":
                if len(parts) != 4:
                    raise GraphParseError("expected: edge <id> <source-id> <range-id>", lineno)
            else:
                raise GraphParseError(f"unknown directive {parts[0]!r}", lineno)
            yield lineno, parts
        start = end


def parse_graph(text: str) -> Graph:
    """Parse the line-oriented graph format; errors report the 1-based line.

    One pass numbers the vertices in declaration order and records each
    edge's ends as those numbers.  An end not declared yet is recorded as
    ``~k`` for the ``k``-th such name in ``forward`` and resolved after the
    pass.  A part of a split line is a token by construction, so only
    duplicates, raised at their line, and undeclared endpoints are checked
    here, each once.  An undeclared endpoint is reported for the first
    edge that has one, and only then is the text read again, for that
    edge's line.
    """
    position: dict[str, int] = {}
    names: list[str] = []
    seen: set[str] = set()
    src, rng = array("q"), array("q")
    forward: list[str] = []
    for lineno, parts in _statements(text):
        if len(parts) == 2:
            if parts[1] in position:
                raise GraphParseError(f"duplicate vertex id {parts[1]!r}", lineno)
            position[parts[1]] = len(position)
            continue
        _, name, source, range_ = parts
        if name in seen:
            raise GraphParseError(f"duplicate edge id {name!r}", lineno)
        seen.add(name)
        names.append(name)
        for ends, v in ((src, source), (rng, range_)):
            i = position.get(v)
            if i is None:
                i = ~len(forward)
                forward.append(v)
            ends.append(i)
    del seen  # this table and ``position`` are freed before the index's sorts, the peak
    if forward:
        resolved = [position.get(v, -1) for v in forward]
        if -1 in resolved:
            k = resolved.index(-1)  # forward names come in edge order, a source before its range
            e = src.index(~k) if ~k in src else rng.index(~k)
            raise GraphParseError(f"edge {names[e]!r} references undeclared vertex {forward[k]!r}", _edge_line(text, e))
        src = array("q", [resolved[~i] if i < 0 else i for i in src])
        rng = array("q", [resolved[~i] if i < 0 else i for i in rng])
    vertex_names = list(position)
    del position
    return Graph(vertex_names, names, src, rng)


def _edge_line(text: str, e: int) -> int:
    """The line of the ``e``-th edge statement (from 0) of a text whose statements all parse."""
    return next(islice((lineno for lineno, parts in _statements(text) if len(parts) == 4), e, None))


def named_edges(g: Graph):
    """``(name, source, range)`` per edge in id order, without building ``Edge``s."""
    vn = g.vertex_names
    return ((name, vn[s], vn[r]) for name, s, r in zip(g.edge_names, g.src, g.rng))


def serialize_graph(g: Graph) -> str:
    lines = [f"vertex {v}" for v in g.vertex_names]
    lines += [f"edge {name} {s} {r}" for name, s, r in named_edges(g)]
    return "\n".join(lines) + "\n"


def graph_to_dict(g: Graph) -> dict:
    return {
        "vertices": list(g.vertex_names),
        "edges": [{"id": name, "src": s, "dst": r} for name, s, r in named_edges(g)],
    }


def graph_from_dict(obj: object) -> Graph:
    if not isinstance(obj, dict):
        raise GraphParseError(f"a JSON graph must be an object, not {type(obj).__name__}")
    vertices, edges = obj.get("vertices"), obj.get("edges")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise GraphParseError("'vertices' must be a list of string ids")
    if not isinstance(edges, list) or not all(isinstance(e, dict) for e in edges):
        raise GraphParseError("'edges' must be a list of objects with 'id', 'src' and 'dst'")
    triples = [(e.get("id"), e.get("src"), e.get("dst")) for e in edges]
    if not all(isinstance(x, str) for t in triples for x in t):
        raise GraphParseError("every edge needs string 'id', 'src' and 'dst' values")
    return Graph.build(vertices, triples)


def parse_graph_json(text: str) -> Graph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"invalid JSON: {exc.msg}", exc.lineno) from exc
    except RecursionError:
        raise GraphParseError("invalid JSON: arrays or objects nested too deeply") from None
    return graph_from_dict(obj)


def load_graph(text: str) -> Graph:
    """Parse either supported format.

    A leading brace or bracket means JSON.  Any other document that is a
    whole JSON value (a number, string, ``true``, ``false`` or ``null``) is
    reported as JSON that is not an object rather than as a bad directive;
    no text-format graph is valid JSON.
    """
    if text.lstrip().startswith(("{", "[")):
        return parse_graph_json(text)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        return parse_graph(text)
    return graph_from_dict(obj)


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(g: Graph, name: str = "E") -> str:
    """Render as a DOT digraph; arcs run source -> range, labeled by edge id."""
    lines = [f"digraph {name} {{"]
    for v in g.vertex_names:
        lines.append(f"  {_dot_quote(v)};")
    for name, s, r in named_edges(g):
        lines.append(f"  {_dot_quote(s)} -> {_dot_quote(r)} [label={_dot_quote(name)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
