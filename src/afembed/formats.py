"""Graph formats other than the text reader: the JSON reader, and the
writers of the text, JSON and DOT formats.

:func:`afembed.graph.load_graph` loads this module only for a document
that is not in the text format, and ``export`` and ``embed`` for the
writers, so a request that reads a text graph and writes no graph never
compiles it.  The writers return the document, or write it to a file a
line at a time.
"""

from __future__ import annotations

from itertools import chain

from .graph import Graph, GraphParseError, named_edges


def serialize_graph(g: Graph, file=None) -> str | None:
    """The text format of ``g``, returned, or written to ``file`` a line at a time."""
    vertices = (f"vertex {v}\n" for v in g.vertex_names)
    lines = chain(vertices, (f"edge {e} {s} {r}\n" for e, s, r in named_edges(g))) if g.vertex_names else ("\n",)
    return "".join(lines) if file is None else file.writelines(lines)


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
    import json

    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"invalid JSON: {exc.msg}", exc.lineno) from exc
    except RecursionError:
        raise GraphParseError("invalid JSON: arrays or objects nested too deeply") from None
    return graph_from_dict(obj)


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(g: Graph, name: str = "E", file=None) -> str | None:
    """Render as a DOT digraph, returned, or written to ``file`` a line at a
    time; arcs run source -> range, labeled by edge id."""
    quoted = list(map(_dot_quote, g.vertex_names))
    arcs = (f"  {quoted[s]} -> {quoted[r]} [label={_dot_quote(e)}];\n" for e, s, r in zip(g.edge_names, g.src, g.rng))
    lines = chain((f"digraph {name} {{\n",), (f"  {v};\n" for v in quoted), arcs, ("}\n",))
    return "".join(lines) if file is None else file.writelines(lines)
