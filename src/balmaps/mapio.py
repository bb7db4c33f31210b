"""JSON file formats and DOT export.

map.json:   {"fmt": 1, "darts": 2E, "sigma": [[cycle], ...],
             "alpha": [[a, b], ...], "blue_faces": [...]}   (blue optional)
tuple.json: {"fmt": 1, "d": d, "taus": [[a, b], ...]}        (1-based points)
tree.json:  {"fmt": 1, "d": d,
             "edges": [{"white": [i, j], "blue": k, "red": [ri, rj]}, ...],
             "rotation": {white index: [blue labels clockwise]}}
dual.json:  map.json fields plus "blue_vertices", "face_reds",
             "blue_labels" ({vertex: label}).

Face indices are positions in the list of phi-orbits sorted by minimal dart.
"""

from __future__ import annotations

import json
from typing import Dict, Union

from .errors import InvalidInput
from .maps import (
    ColoredMap,
    CombinatorialMap,
    FaceLabeledGraph,
    build_map,
    perm_cycles,
)

FMT = 1


def map_to_dict(obj: Union[CombinatorialMap, ColoredMap]) -> dict:
    colored = isinstance(obj, ColoredMap)
    m = obj.m if colored else obj
    out = {
        "fmt": FMT,
        "darts": m.n,
        "sigma": [list(c) for c in perm_cycles(m.sigma)],
        "alpha": [[d, m.alpha[d]] for d in m.edges()],
    }
    if colored:
        out["blue_faces"] = sorted(obj.blue_faces)
    return out


def map_from_dict(data: dict) -> Union[CombinatorialMap, ColoredMap]:
    try:
        darts = int(data["darts"])
        sigma = data["sigma"]
        alpha = data["alpha"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput("map object needs darts, sigma, alpha: %s" % exc)
    m = build_map(sigma, alpha, darts=darts)
    if "blue_faces" in data:
        return ColoredMap(m, data["blue_faces"])
    return m


def dumps(data: dict) -> str:
    return json.dumps(data, indent=None, separators=(",", ":")) + "\n"


def map_to_json(obj) -> str:
    return dumps(map_to_dict(obj))


def map_from_json(text: str):
    return map_from_dict(json.loads(text))


def tuple_to_dict(t) -> dict:
    return {"fmt": FMT, "d": t.d, "taus": [list(p) for p in t.taus]}


def tuple_from_dict(data: dict):
    from .realize import TranspositionTuple
    try:
        d = int(data["d"])
        taus = tuple(tuple(int(x) for x in p) for p in data["taus"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput("tuple object needs d and taus: %s" % exc)
    return TranspositionTuple(d, taus)


def dual_to_dict(g: FaceLabeledGraph) -> dict:
    out = map_to_dict(g.m)
    out["blue_vertices"] = sorted(g.blue_vertices)
    out["face_reds"] = list(g.face_red)
    if g.blue_labels is not None:
        out["blue_labels"] = {str(v): lab for v, lab in sorted(g.blue_labels)}
    return out


def dual_from_dict(data: dict) -> FaceLabeledGraph:
    m = map_from_dict({k: data[k] for k in ("darts", "sigma", "alpha")})
    try:
        blue = frozenset(int(v) for v in data["blue_vertices"])
        reds = tuple(int(r) for r in data["face_reds"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput("dual object needs blue_vertices, face_reds: %s" % exc)
    labels = None
    if "blue_labels" in data:
        labels = tuple(sorted((int(v), int(l)) for v, l in data["blue_labels"].items()))
    g = FaceLabeledGraph(m, blue, reds, labels)
    g.validate()
    return g


def tree_to_dict(t) -> dict:
    edges = [{"white": [wa, wb], "blue": blue, "red": [ra, rb]}
             for (wa, wb, blue, ra, rb) in t.edges]
    rotation: Dict[str, list] = {}
    for w in range(t.d):
        inc = sorted((blue, e) for e, (wa, wb, blue, ra, rb) in enumerate(t.edges)
                     if w in (wa, wb))
        rotation[str(w)] = [blue for blue, _ in inc]
    return {"fmt": FMT, "d": t.d, "edges": edges, "rotation": rotation}


def tree_from_dict(data: dict):
    from .dps import EdgeLabeledTree
    try:
        d = int(data["d"])
        edges = tuple(
            (int(e["white"][0]), int(e["white"][1]), int(e["blue"]),
             int(e["red"][0]), int(e["red"][1]))
            for e in data["edges"])
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise InvalidInput("tree object needs d and edges: %s" % exc)
    t = EdgeLabeledTree(d, edges)
    t.validate()
    return t


def export_dot(obj) -> str:
    """GraphViz export: circles for 4-valent vertices, squares for 2-valent,
    and the face structure as a trailing comment block."""
    colored = isinstance(obj, ColoredMap)
    m = obj.m if colored else obj
    lines = ["graph balmap {"]
    for cyc in m.vertices():
        shape = "circle" if len(cyc) == 4 else "square"
        lines.append('  v%d [shape=%s,label="%d"];' % (cyc[0], shape, cyc[0]))
    for e in m.edges():
        u, v = m.vertex_of[e], m.vertex_of[m.alpha[e]]
        attr = ""
        if colored:
            f1, f2 = m.edge_sides(e)
            left = "blue" if f1 in obj.blue_faces else "white"
            attr = ' [label="%s-left"]' % left
        lines.append("  v%d -- v%d%s;" % (u, v, attr))
    lines.append("}")
    lines.append("// faces (as dart orbits):")
    for i, orbit in enumerate(m.faces):
        mark = ""
        if colored:
            mark = " blue" if i in obj.blue_faces else " white"
        lines.append("// f%d%s: %s" % (i, mark, ",".join(map(str, orbit))))
    return "\n".join(lines) + "\n"
