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
``dst`` is the range vertex.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence


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


class PathError(GraphError):
    pass


@dataclass(frozen=True)
class Edge:
    """A directed edge; ``range`` is the receiving vertex."""

    name: str
    source: str
    range: str


@dataclass(frozen=True)
class Path:
    """A composable edge list ``(a_n, ..., a_1)``, or a single vertex.

    Length-0 paths have ``edges == ()`` and ``source == range``.
    Construct through :meth:`Graph.path` / :meth:`Graph.vertex_path` so the
    composability invariant is checked against a concrete graph, unless the
    edges were just walked in that graph, as the classifier's witness was.
    """

    edges: tuple[str, ...]
    source: str
    range: str

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def is_vertex(self) -> bool:
        return not self.edges

    def __str__(self) -> str:
        if self.is_vertex:
            return f"({self.source})"
        return " ".join(self.edges)


def _check_token(kind: str, name: str) -> None:
    # str.split() splits on exactly the characters for which isspace() holds
    if name.split() != [name]:
        raise GraphError(f"{kind} id must be a nonempty token without whitespace: {name!r}")


@dataclass(frozen=True)
class Graph:
    """Immutable finite directed multigraph.

    Edges are stored sorted by name, so structurally equal graphs compare
    equal regardless of declaration order.
    """

    vertices: frozenset[str]
    edges: tuple[Edge, ...]
    _by_name: dict = field(default_factory=dict, compare=False, repr=False, hash=False)
    _receivers: dict = field(default_factory=dict, compare=False, repr=False, hash=False)
    _out: dict = field(default_factory=dict, compare=False, repr=False, hash=False)

    @classmethod
    def build(cls, vertices: Iterable[str], edges: Iterable[Edge | tuple[str, str, str]]) -> "Graph":
        vset: set[str] = set()
        for v in vertices:
            _check_token("vertex", v)
            if v in vset:
                raise DuplicateIdError(f"duplicate vertex id {v!r}")
            vset.add(v)
        elist: list[Edge] = []
        names: set[str] = set()
        for e in edges:
            if not isinstance(e, Edge):
                e = Edge(*e)
            _check_token("edge", e.name)
            if e.name in names:
                raise DuplicateIdError(f"duplicate edge id {e.name!r}")
            names.add(e.name)
            for endpoint in (e.source, e.range):
                if endpoint not in vset:
                    raise UndeclaredEndpointError(
                        f"edge {e.name!r} references undeclared vertex {endpoint!r}"
                    )
            elist.append(e)
        elist.sort(key=lambda e: e.name)
        g = cls(frozenset(vset), tuple(elist))
        g._by_name.update({e.name: e for e in elist})
        recv: dict[str, set[str]] = {v: set() for v in vset}
        out: dict[str, list[Edge]] = {v: [] for v in vset}
        for e in elist:
            recv[e.range].add(e.name)
            out[e.source].append(e)
        g._receivers.update({v: frozenset(s) for v, s in recv.items()})
        g._out.update(out)
        return g

    def edge(self, name: str) -> Edge:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownEdgeError(f"unknown edge {name!r}") from None

    def receivers(self, v: str) -> frozenset[str]:
        """Edge names with range ``v`` (the set ``r^{-1}(v)``)."""
        try:
            return self._receivers[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        """Edges with source ``v``, in id order."""
        try:
            return tuple(self._out[v])
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    def is_path(self, edge_names: Sequence[str]) -> bool:
        """True iff the list ``(a_n, ..., a_1)`` is consecutively composable."""
        if not edge_names:
            raise PathError("a path needs at least one edge; use vertex_path for length 0")
        es = [self.edge(n) for n in edge_names]
        return all(es[i].source == es[i + 1].range for i in range(len(es) - 1))

    def path(self, edge_names: Sequence[str]) -> Path:
        if not self.is_path(edge_names):
            raise PathError(f"edges do not compose: {tuple(edge_names)!r}")
        first = self.edge(edge_names[0])
        last = self.edge(edge_names[-1])
        return Path(tuple(edge_names), source=last.source, range=first.range)

    def vertex_path(self, v: str) -> Path:
        if v not in self.vertices:
            raise UnknownVertexError(f"unknown vertex {v!r}")
        return Path((), source=v, range=v)


def parse_graph(text: str) -> Graph:
    """Parse the line-oriented graph format; errors report the 1-based line."""
    vertices: list[str] = []
    edges: list[tuple[str, str, str]] = []
    vseen: set[str] = set()
    edge_lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertex":
            if len(parts) != 2:
                raise GraphParseError("expected: vertex <id>", lineno)
            if parts[1] in vseen:
                raise GraphParseError(f"duplicate vertex id {parts[1]!r}", lineno)
            vseen.add(parts[1])
            vertices.append(parts[1])
        elif parts[0] == "edge":
            if len(parts) != 4:
                raise GraphParseError("expected: edge <id> <source-id> <range-id>", lineno)
            name = parts[1]
            if name in edge_lines:
                raise GraphParseError(f"duplicate edge id {name!r}", lineno)
            edge_lines[name] = lineno
            edges.append((name, parts[2], parts[3]))
        else:
            raise GraphParseError(f"unknown directive {parts[0]!r}", lineno)
    for name, src, dst in edges:
        for endpoint in (src, dst):
            if endpoint not in vseen:
                raise GraphParseError(
                    f"edge {name!r} references undeclared vertex {endpoint!r}",
                    edge_lines[name],
                )
    return Graph.build(vertices, edges)


def serialize_graph(g: Graph) -> str:
    lines = [f"vertex {v}" for v in sorted(g.vertices)]
    lines += [f"edge {e.name} {e.source} {e.range}" for e in g.edges]
    return "\n".join(lines) + "\n"


def graph_to_dict(g: Graph) -> dict:
    return {
        "vertices": sorted(g.vertices),
        "edges": [{"id": e.name, "src": e.source, "dst": e.range} for e in g.edges],
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
    for v in sorted(g.vertices):
        lines.append(f"  {_dot_quote(v)};")
    for e in g.edges:
        lines.append(f"  {_dot_quote(e.source)} -> {_dot_quote(e.range)} [label={_dot_quote(e.name)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
