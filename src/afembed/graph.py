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
The readers take a ``str`` or a binary stream of UTF-8.  A text graph is
read in blocks of about 64 KiB, each running on to the end of its line
and decoded alone, so a file or standard input is never held whole, and
it is parsed in one pass; a JSON graph is read whole, by
:mod:`afembed.formats`, which also holds the writers: only a JSON input,
``export`` and ``embed`` load it.

A :class:`Graph` interns its ids to integers once, when it is built: the
sorted vertex names are numbered ``0 .. |V|-1`` and the sorted edge names
``0 .. |E|-1``, so comparing two ids compares their names.  The index is
held in flat ``array('q')`` columns, with no container per vertex or edge:
``src[e]`` and ``rng[e]`` per edge, and per side a compressed adjacency,
``out_ids[out_start[v] : out_start[v + 1]]`` the out-edges of ``v`` and
``recv_ids[recv_start[v] : recv_start[v + 1]]`` its receivers, each in id
order and placed by counting rather than by a sort with a boxed key.
The loop analysis, the embedding and the path basis run on this
index; names come back from ``vertex_names`` and ``edge_names`` where a
result is reported, and :func:`named_edges` lists each edge by name for
the writers.  The name-level views ``vertices``, ``edges``, ``receivers``
and ``out_edges`` are built from the index on every call, for callers
outside the pipeline, and the name-to-id tables on first lookup.
"""

from __future__ import annotations

import re
from array import array
from itertools import accumulate, chain, dropwhile
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
    are ``ids[start[v] : start[v + 1]]``, in id order, placed by counting."""
    fill = [0] * (n + 1)
    for v in ends:
        fill[v + 1] += 1
    fill = list(accumulate(fill))  # each vertex's count becomes its next free slot
    start, ids = array("q", fill), array("q", bytes(8 * len(ends)))
    for e, v in enumerate(ends):
        ids[fill[v]] = e
        fill[v] += 1
    return start, ids


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
        # each sort order is boxed ints, so each is dropped as soon as it is used
        vorder = sorted(range(len(vertex_names)), key=vertex_names.__getitem__)
        self.vertex_names = tuple(map(vertex_names.__getitem__, vorder))
        rank = array("q", bytes(8 * len(vorder)))
        for i, v in enumerate(vorder):
            rank[v] = i
        del vorder
        eorder = sorted(range(len(edge_names)), key=edge_names.__getitem__)
        self.edge_names = tuple(map(edge_names.__getitem__, eorder))
        self.src = array("q", map(rank.__getitem__, map(src.__getitem__, eorder)))
        self.rng = array("q", map(rank.__getitem__, map(rng.__getitem__, eorder)))
        del eorder, rank
        self.out_start, self.out_ids = _adjacency(self.src, len(self.vertex_names))
        self.recv_start, self.recv_ids = _adjacency(self.rng, len(self.vertex_names))
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


#: characters or bytes read at a time: each block runs on to the end of its line
_BLOCK = 1 << 16
#: the message for a known directive with the wrong number of words
_EXPECTED = {"vertex": "expected: vertex <id>", "edge": "expected: edge <id> <source-id> <range-id>"}
#: a lone surrogate: a ``str`` can hold one, UTF-8 text cannot
_SURROGATE = re.compile("[\ud800-\udfff]")


def _blocks(source) -> Iterator[str]:
    """The text of ``source``, a ``str`` or a binary stream of UTF-8, in
    blocks of about :data:`_BLOCK` characters or bytes, each run on to just
    after a ``\\n``, which ends a line in every convention, or to the end
    of the text.  No UTF-8 sequence holds the byte ``\\n``, so each block of
    bytes decodes alone; a decoding error names its byte's position in the
    whole input, as decoding it whole would."""
    if isinstance(source, str):
        start = 0
        while start < len(source):
            yield source[start : (start := source.find("\n", start + _BLOCK) + 1 or len(source))]
        return
    offset = 0
    while block := source.read(_BLOCK):
        block += source.readline()
        try:
            text = block.decode("utf-8")
        except UnicodeDecodeError as exc:
            start, end = offset + exc.start, offset + exc.end - 1
            at = f"byte 0x{block[exc.start]:02x} in position {start}" if start == end else f"bytes in position {start}-{end}"
            raise ValueError(f"'utf-8' codec can't decode {at}: {exc.reason}") from None
        offset += len(block)
        yield text


def parse_graph(text) -> Graph:
    """Parse the line-oriented graph format, from ``text``, a ``str`` or a
    binary stream of UTF-8; errors report the 1-based line."""
    return _parse(_blocks(text))


def _lines(blocks: Iterable[str]) -> Iterator[list[str]]:
    """The lines of each block.  A block that is not ASCII is searched for
    a lone surrogate, and the word holding the first is refused at its
    line, once the lines before it are read, as the readers of bytes and of
    JSON refuse it."""
    before = 0
    for block in blocks:
        lines = block.splitlines()
        if not block.isascii() and (bad := _SURROGATE.search(block)):
            k = len(block[: bad.start() + 1].splitlines()) - 1
            yield lines[:k]
            word = next(filter(_SURROGATE.search, lines[k].split()))
            raise GraphParseError(f"{word!r} is not UTF-8 text", before + k + 1)
        before += len(lines)
        yield lines


def _parse(blocks: Iterable[str]) -> Graph:
    """The graph of a text in the line format given as ``blocks``, each
    ending at the end of a line.

    :func:`_lines` splits lines where :meth:`str.splitlines` splits them; a
    ``#`` starts a comment, and a line left blank holds no statement; a statement
    is ``vertex <id>`` or ``edge <id> <source-id> <range-id>``.  One pass
    numbers the vertices in declaration order and records each edge's ends
    as those numbers.  An end not declared yet is recorded as ``~k`` for
    the ``k``-th such name in ``forward``, with its line, and resolved
    after the pass.  A part of a split line is a token by construction, so
    only the directive and word count, duplicates, and undeclared endpoints
    are checked here, each once, at its line; an undeclared endpoint is
    reported for the first edge that has one.
    """
    position: dict[str, int] = {}
    names: list[str] = []
    seen: set[str] = set()
    src, rng = array("q"), array("q")
    forward: list[str] = []
    forward_lines = array("q")
    for lineno, raw in enumerate(chain.from_iterable(_lines(blocks)), 1):
        parts = (raw[: raw.index("#")] if "#" in raw else raw).split()
        if not parts:
            continue
        if parts[0] == "vertex" and len(parts) == 2:
            if parts[1] in position:
                raise GraphParseError(f"duplicate vertex id {parts[1]!r}", lineno)
            position[parts[1]] = len(position)
            continue
        if parts[0] != "edge" or len(parts) != 4:
            raise GraphParseError(_EXPECTED.get(parts[0]) or f"unknown directive {parts[0]!r}", lineno)
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
                forward_lines.append(lineno)
            ends.append(i)
    del seen  # this table and ``position`` are freed before the index is built, the peak
    if forward:
        resolved = [position.get(v, -1) for v in forward]
        if -1 in resolved:
            k = resolved.index(-1)  # forward names come in edge order, a source before its range
            e = src.index(~k) if ~k in src else rng.index(~k)
            raise GraphParseError(f"edge {names[e]!r} references undeclared vertex {forward[k]!r}", forward_lines[k])
        src = array("q", [resolved[~i] if i < 0 else i for i in src])
        rng = array("q", [resolved[~i] if i < 0 else i for i in rng])
    vertex_names = list(position)
    del position
    return Graph(vertex_names, names, src, rng)


def named_edges(g: Graph):
    """``(name, source, range)`` per edge in id order, without building ``Edge``s."""
    vn = g.vertex_names
    return ((name, vn[s], vn[r]) for name, s, r in zip(g.edge_names, g.src, g.rng))


def load_graph(text) -> Graph:
    """Parse either supported format, from ``text``, a ``str`` or a binary
    stream of UTF-8.

    A text graph is read a block at a time (:func:`parse_graph`): its first
    character that is not white space begins ``vertex``, ``edge`` or a
    ``#`` comment, as no JSON value does.  Any other document is read whole.
    A leading brace or bracket means JSON.  Any other document that is a
    whole JSON value (a number, string, ``true``, ``false`` or ``null``) is
    reported as JSON that is not an object rather than as a bad directive;
    no text-format graph is valid JSON.
    """
    blocks = _blocks(text)
    # the blocks read up to the first that is not all white space, joined
    head = next(dropwhile(str.isspace, accumulate(blocks)), "")
    if head.lstrip()[:1] in ("v", "e", "#", ""):
        return _parse(chain((head,), blocks))
    document = head + "".join(blocks)
    from .formats import graph_from_dict, parse_graph_json

    if document.lstrip().startswith(("{", "[")):
        return parse_graph_json(document)
    import json

    try:
        obj = json.loads(document)
    except json.JSONDecodeError:
        return parse_graph(document)
    return graph_from_dict(obj)
