"""Seeded input generators for the benchmark.

Everything here is plain Python on plain lists, independent of ``balmaps``,
so that the inputs a seed produces do not change when the program changes.
A map is ``(sigma, alpha, blue)``: 1-based image tables (slot 0 unused) and
the set of darts whose face (the phi = sigma o alpha orbit) is blue.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence, Set, Tuple

Map = Tuple[List[int], List[int], Set[int]]


def _cycles(perm: Sequence[int]) -> List[List[int]]:
    """Cycles of a 1-based permutation, each starting at its least element,
    sorted by that element (the order ``balmaps`` indexes faces in)."""
    seen = [False] * len(perm)
    out = []
    for start in range(1, len(perm)):
        if seen[start]:
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = perm[x]
        out.append(cyc)
    return out


def _phi(sigma: Sequence[int], alpha: Sequence[int]) -> List[int]:
    return [0] + [sigma[alpha[d]] for d in range(1, len(sigma))]


# -- transposition tuples and their glued diagrams -----------------------------------


def sample_tuple(rng, d: int) -> List[Tuple[int, int]]:
    """A uniform transitive tuple of 2d-2 transpositions of 1..d whose
    product is the identity, by rejection.

    The first 2d-3 transpositions are uniform; the last is forced to undo
    their product, and the draw is rejected unless that product is a
    transposition and the tuple acts transitively.  Each valid tuple has
    exactly one accepted draw, so the result is uniform.
    """
    while True:
        taus = []
        prod = list(range(d + 1))
        for _ in range(2 * d - 3):
            a, b = sorted(rng.sample(range(1, d + 1), 2))
            taus.append((a, b))
            prod = [b if x == a else a if x == b else x for x in prod]
        moved = [x for x in range(1, d + 1) if prod[x] != x]
        if len(moved) != 2:
            continue
        taus.append((moved[0], moved[1]))
        parent = list(range(d + 1))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for a, b in taus:
            parent[find(a)] = find(b)
        if len({find(x) for x in range(1, d + 1)}) == 1:
            return taus


def glue(d: int, taus: Sequence[Tuple[int, int]]) -> Map:
    """The colored diagram of a tuple: side j of blue n-gon i is glued to
    side j of white n-gon beta_j(i), beta_j = beta_{j-1} o tau_j, and the
    2-valent vertices are then suppressed."""
    n = len(taus)
    beta = [list(range(d + 1))]
    for a, b in taus:
        cur = list(beta[-1])
        cur[a], cur[b] = cur[b], cur[a]
        beta.append(cur)
    total = 2 * d * n
    alpha = [0] * (total + 1)
    phi = [0] * (total + 1)
    for i in range(1, d + 1):
        for j in range(1, n + 1):
            b = (i - 1) * n + j
            k = beta[j][i]
            w = d * n + (k - 1) * n + j
            alpha[b], alpha[w] = w, b
            phi[b] = (i - 1) * n + j % n + 1
            phi[w] = d * n + (k - 1) * n + (j - 2) % n + 1
    sigma = [0] + [phi[alpha[x]] for x in range(1, total + 1)]
    vertex_of = [0] * (total + 1)
    degree = {}
    for cyc in _cycles(sigma):
        for x in cyc:
            vertex_of[x] = cyc[0]
        degree[cyc[0]] = len(cyc)
    keep = [x for x in range(1, total + 1) if degree[vertex_of[x]] == 4]
    new_id = {x: i + 1 for i, x in enumerate(keep)}
    red_sigma = [0] * (len(keep) + 1)
    red_alpha = [0] * (len(keep) + 1)
    for x in keep:
        red_sigma[new_id[x]] = new_id[sigma[x]]
        cur = alpha[x]
        while degree[vertex_of[cur]] != 4:
            cur = alpha[sigma[cur]]
        red_alpha[new_id[x]] = new_id[cur]
    blue = {new_id[x] for x in keep if x <= d * n}
    return red_sigma, red_alpha, blue


# -- turksheads, pinches and relabelings ------------------------------------------------


def turkshead(n: int) -> Map:
    """The 3 x n turkshead (2n crossings), blue on the faces of dart 1's
    checkerboard class.  Edge e has darts 2e+1 (end 0) and 2e+2 (end 1)."""
    rot = []
    for k in range(n):
        rot.append([(k, 0), (2 * n + k, 0), (3 * n + (k - 1) % n, 1), ((k - 1) % n, 1)])
    for k in range(n):
        rot.append([(3 * n + k, 0), (n + k, 0), (n + (k - 1) % n, 1), (2 * n + k, 1)])
    total = 8 * n
    sigma = [0] * (total + 1)
    for germs in rot:
        darts = [2 * e + 1 + end for e, end in germs]
        for i, x in enumerate(darts):
            sigma[x] = darts[(i + 1) % 4]
    alpha = [0] * (total + 1)
    for e in range(4 * n):
        alpha[2 * e + 1], alpha[2 * e + 2] = 2 * e + 2, 2 * e + 1
    return sigma, alpha, _checkerboard(sigma, alpha)


def _checkerboard(sigma, alpha) -> Set[int]:
    """Darts of the face class containing dart 1 in the proper 2-coloring."""
    faces = _cycles(_phi(sigma, alpha))
    face_of = [0] * len(sigma)
    for i, orbit in enumerate(faces):
        for x in orbit:
            face_of[x] = i
    color = {0: True}
    stack = [0]
    while stack:
        f = stack.pop()
        for x in faces[f]:
            g = face_of[alpha[x]]
            if g not in color:
                color[g] = not color[f]
                stack.append(g)
            elif color[g] == color[f]:
                raise ValueError("faces are not 2-colorable")
    return {x for x in range(1, len(sigma)) if color[face_of[x]]}


def pinch(mp: Map, rng) -> Map:
    """Identify interior points of two distinct edges on one random face
    into a new vertex.  Both halves of the split face keep its color, so
    that color gains a face and the diagram is no longer balanced."""
    sigma, alpha, blue = mp
    n = len(sigma) - 1
    faces = [f for f in _cycles(_phi(sigma, alpha))
             if len({min(x, alpha[x]) for x in f}) >= 2]
    face = rng.choice(faces)
    while True:
        d1, d2 = rng.sample(face, 2)
        if alpha[d1] != d2:
            break
    x1, y1, x2, y2 = n + 1, n + 2, n + 3, n + 4
    a1, a2 = alpha[d1], alpha[d2]
    alpha = list(alpha) + [0] * 4
    alpha[d1], alpha[x1] = x1, d1
    alpha[y1], alpha[a1] = a1, y1
    alpha[d2], alpha[x2] = x2, d2
    alpha[y2], alpha[a2] = a2, y2
    sigma = list(sigma) + [0] * 4
    sigma[x1], sigma[y2], sigma[x2], sigma[y1] = y2, x2, y1, x1
    new_blue = set()
    for orbit in _cycles(_phi(sigma, alpha)):
        if next(x for x in orbit if x <= n) in blue:
            new_blue.update(orbit)
    return sigma, alpha, new_blue


def relabel(mp: Map, rng) -> Map:
    """Conjugate the map by a uniform random dart permutation."""
    sigma, alpha, blue = mp
    n = len(sigma) - 1
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    perm = [0] + perm
    new_sigma = [0] * (n + 1)
    new_alpha = [0] * (n + 1)
    for x in range(1, n + 1):
        new_sigma[perm[x]] = perm[sigma[x]]
        new_alpha[perm[x]] = perm[alpha[x]]
    return new_sigma, new_alpha, {perm[x] for x in blue}


def map_dict(mp: Map) -> dict:
    """The ``map.json`` object of a colored map."""
    sigma, alpha, blue = mp
    faces = _cycles(_phi(sigma, alpha))
    blue_faces = []
    for i, orbit in enumerate(faces):
        colors = {x in blue for x in orbit}
        if len(colors) != 1:
            raise ValueError("a face has darts of both colors")
        if orbit[0] in blue:
            blue_faces.append(i)
    return {"fmt": 1, "darts": len(sigma) - 1, "sigma": _cycles(sigma),
            "alpha": [[x, alpha[x]] for x in range(1, len(alpha)) if x < alpha[x]],
            "blue_faces": blue_faces}


# -- edge-labeled trees ------------------------------------------------------------------


def sample_tree(rng, d: int) -> Tuple[Tuple[int, int, int, int, int], ...]:
    """A uniform edge-labeled tree on d whites (0..d-1): a random Pruefer
    sequence, then shuffled blue labels 1..d-1 on the edges and red labels
    1..2d-2 on the edge ends.  Edges are (white_a, white_b, blue, red_a,
    red_b), red_a sitting at white_a."""
    seq = [rng.randrange(d) for _ in range(d - 2)]
    degree = [1] * d
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(d) if degree[v] == 1]
    heapq.heapify(leaves)
    pairs = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        pairs.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    pairs.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    blues = list(range(1, d))
    reds = list(range(1, 2 * d - 1))
    rng.shuffle(blues)
    rng.shuffle(reds)
    return tuple((a, b, blues[i], reds[2 * i], reds[2 * i + 1])
                 for i, (a, b) in enumerate(pairs))


def tree_key(edges) -> tuple:
    """Invariant of an edge-labeled tree under renaming its whites, in
    linear time: a white is named by the set of blue labels on its edges
    (distinct whites have distinct sets once d >= 3)."""
    incident = {}
    for wa, wb, blue, _, _ in edges:
        incident.setdefault(wa, []).append(blue)
        incident.setdefault(wb, []).append(blue)
    name = {w: tuple(sorted(b)) for w, b in incident.items()}
    return tuple(sorted((blue,) + tuple(sorted(((name[wa], ra), (name[wb], rb))))
                        for wa, wb, blue, ra, rb in edges))
