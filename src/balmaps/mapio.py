"""JSON file formats and DOT export.

map.json:   {"fmt": 1, "darts": 2E, "sigma": [[cycle], ...],
             "alpha": [[a, b], ...], "blue_faces": [...]}   (blue optional)
tuple.json: {"fmt": 1, "d": d, "taus": [[a, b], ...]}        (1-based points)
tree.json:  {"fmt": 1, "d": d,
             "edges": [{"white": [i, j], "blue": k, "red": [ri, rj]}, ...],
             "rotation": {white index: [blue labels clockwise]}}
dual.json:  map.json fields plus "blue_vertices", "face_reds" and
             "blue_labels" ({vertex: label}), all three required.

Face indices are positions in the list of phi-orbits sorted by minimal dart.
"""

from __future__ import annotations

import json
from typing import Union

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


def _int(x) -> int:
    """A JSON integer, or TypeError for any other value (bools included);
    the readers turn the TypeError into InvalidInput."""
    if type(x) is not int:
        raise TypeError("expected an integer, got %r" % (x,))
    return x


def map_from_dict(data: dict) -> Union[CombinatorialMap, ColoredMap]:
    try:
        darts = _int(data["darts"])
        sigma = [[_int(x) for x in cyc] for cyc in data["sigma"]]
        alpha = [[_int(x) for x in pair] for pair in data["alpha"]]
        blue = [_int(f) for f in data["blue_faces"]] if "blue_faces" in data else None
    except (KeyError, TypeError) as exc:
        raise InvalidInput("map object needs integer darts, sigma, alpha: %s" % exc)
    # a valid map pairs every dart, so this bounds the tables before they exist
    if darts != 2 * len(alpha):
        raise InvalidInput("darts is %d but alpha has %d pairs" % (darts, len(alpha)))
    m = build_map(sigma, alpha, darts=darts)
    return m if blue is None else ColoredMap(m, blue)


def dumps(data: dict) -> str:
    return json.dumps(data, indent=None, separators=(",", ":")) + "\n"


def map_from_json(text: str):
    return map_from_dict(json.loads(text))


def tuple_to_dict(t) -> dict:
    return {"fmt": FMT, "d": t.d, "taus": [list(p) for p in t.taus]}


def tuple_from_dict(data: dict):
    from .realize import TranspositionTuple
    try:
        d = _int(data["d"])
        taus = tuple(tuple(_int(x) for x in p) for p in data["taus"])
    except (KeyError, TypeError) as exc:
        raise InvalidInput("tuple object needs d and taus: %s" % exc)
    return TranspositionTuple(d, taus)


def dual_to_dict(g: FaceLabeledGraph) -> dict:
    out = map_to_dict(g.m)
    out["blue_vertices"] = sorted(g.blue_vertices)
    out["face_reds"] = list(g.face_red)
    out["blue_labels"] = {str(v): lab for v, lab in sorted(g.blue_labels)}
    return out


def dual_from_dict(data: dict) -> FaceLabeledGraph:
    try:
        fields = {k: data[k] for k in ("darts", "sigma", "alpha")}
        blue = frozenset(_int(v) for v in data["blue_vertices"])
        reds = tuple(_int(r) for r in data["face_reds"])
        labels = data["blue_labels"]
        if not isinstance(labels, dict):
            raise TypeError("blue_labels must be an object")
        labels = tuple(sorted((int(v), _int(l)) for v, l in labels.items()))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput("dual object needs darts, sigma, alpha, blue_vertices, "
                           "face_reds and integer blue_labels: %s" % exc)
    return FaceLabeledGraph(map_from_dict(fields), blue, reds, labels)


def tree_to_dict(t) -> dict:
    edges = [{"white": [wa, wb], "blue": blue, "red": [ra, rb]}
             for (wa, wb, blue, ra, rb) in t.edges]
    rotation = {str(w): [] for w in range(t.d)}
    for wa, wb, blue, _, _ in sorted(t.edges, key=lambda e: e[2]):
        rotation[str(wa)].append(blue)
        rotation[str(wb)].append(blue)
    return {"fmt": FMT, "d": t.d, "edges": edges, "rotation": rotation}


def tree_from_dict(data: dict):
    from .dps import EdgeLabeledTree
    try:
        d = _int(data["d"])
        edges = tuple(
            (_int(e["white"][0]), _int(e["white"][1]), _int(e["blue"]),
             _int(e["red"][0]), _int(e["red"][1]))
            for e in data["edges"])
    except (KeyError, TypeError, IndexError) as exc:
        raise InvalidInput("tree object needs d and edges: %s" % exc)
    return EdgeLabeledTree(d, edges)


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
