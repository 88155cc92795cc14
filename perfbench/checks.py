"""Output checks written apart from the library.

Every function here reads an automaton in its plain JSON shape (``cells`` by
dimension, ``s`` and ``t`` face lists 1-indexed by position, ``initial``)
and returns a list of problems; an empty list means the check passed.
Nothing here calls ``hdasculpt``: a bug shared by the library and its own
validator cannot hide behind these checks.
"""

from __future__ import annotations


def plain_hda(h) -> dict:
    """The JSON shape of a library ``Hda``, read from its public fields."""
    base = h.base
    return {"cells": {str(n): list(cs) for n, cs in base.cells.items()},
            "s": {c: list(fs) for c, fs in base.s_faces.items()},
            "t": {c: list(fs) for c, fs in base.t_faces.items()},
            "initial": h.initial}


def dims(raw: dict) -> dict[str, int]:
    return {c: int(n) for n, cs in raw["cells"].items() for c in cs}


def face(raw: dict, alpha: str, k: int, cell: str) -> str:
    return raw[alpha][cell][k - 1]


def universal_events(raw: dict) -> tuple[dict[str, int], int]:
    """Each edge's event class, numbered by first declaration, and the count.

    Edges on opposite sides of a square belong to one class.
    """
    edges = raw["cells"].get("1", [])
    parent = {e: e for e in edges}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for q in raw["cells"].get("2", []):
        for k in (1, 2):
            a, b = find(face(raw, "s", k, q)), find(face(raw, "t", k, q))
            if a != b:
                parent[b] = a
    index: dict[str, int] = {}
    ev = {e: index.setdefault(find(e), len(index)) for e in edges}
    return ev, len(index)


def _bulk_face(img: str, alpha: str, k: int) -> str | None:
    xs = [i for i, ch in enumerate(img) if ch == "x"]
    if k > len(xs):
        return None
    p = xs[k - 1]
    return img[:p] + ("0" if alpha == "s" else "1") + img[p + 1:]


def same_automaton(raw: dict, other: dict) -> list[str]:
    """Problems if two JSON automata differ in cells, faces or initial cell."""
    problems = []
    if dims(raw) != dims(other):
        problems.append("embedding names other cells than the input")
    if raw["initial"] != other.get("initial"):
        problems.append("embedding has another initial cell")
    for alpha in "st":
        mine = {c: list(fs) for c, fs in raw[alpha].items() if fs}
        theirs = {c: list(fs) for c, fs in other.get(alpha, {}).items() if fs}
        if mine != theirs:
            problems.append(f"embedding has other {alpha}-faces than the input")
    return problems


def check_certificate(raw: dict, d, em) -> list[str]:
    """Check a bulk embedding of ``raw`` into the d-dimensional bulk.

    The image must be total and injective, each image a string of length d
    over ``0x1`` with as many ``x`` as the cell's dimension, faces must
    commute with the string face maps (the k-th ``x`` becomes 0 for s_k and
    1 for t_k), and the initial cell must map to all zeros.
    """
    if not isinstance(d, int) or d < 0 or not isinstance(em, dict):
        return [f"malformed certificate: d={d!r}"]
    cell_dim = dims(raw)
    problems = []
    if set(em) != set(cell_dim):
        problems.append("image is not total on exactly the input's cells")
        return problems
    owner: dict[str, str] = {}
    for cell, n in cell_dim.items():
        img = em[cell]
        if not isinstance(img, str) or len(img) != d or set(img) - set("0x1"):
            problems.append(f"{cell}: image {img!r} is not a {d}-tuple over 0x1")
            continue
        if img.count("x") != n:
            problems.append(f"{cell}: image {img!r} has the wrong dimension {n}")
            continue
        if img in owner:
            problems.append(f"{owner[img]} and {cell} share image {img!r}")
        owner[img] = cell
        for k in range(1, n + 1):
            for alpha in "st":
                if em.get(face(raw, alpha, k, cell)) != _bulk_face(img, alpha, k):
                    problems.append(f"{cell}: {alpha}_{k} does not commute")
    if em.get(raw["initial"]) != "0" * d:
        problems.append("initial cell does not map to all zeros")
    return problems


def check_positive(raw: dict, verdict: dict) -> list[str]:
    """Certificate plus the bounds every d obeys: dimension <= d <= #events."""
    emb = verdict.get("embedding")
    if not isinstance(emb, dict):
        return ["positive verdict without an embedding"]
    d = verdict.get("d")
    problems = same_automaton(raw, emb.get("hda", {}))
    problems += check_certificate(raw, emb.get("d"), emb.get("em"))
    if emb.get("d") != d:
        problems.append("verdict d differs from the embedding's d")
    dimension = max(dims(raw).values(), default=0)
    _, events = universal_events(raw)
    if isinstance(d, int) and not dimension <= d <= events:
        problems.append(f"d={d} outside [dimension {dimension}, events {events}]")
    return problems


def sequential_routes(raw: dict, vertex: str, limit: int = 100_000):
    """Two sequential rooted routes to ``vertex`` of different lengths, if any.

    A sequential route climbs an edge from its s_1 end and leaves at its t_1
    end.  Routes are enumerated breadth first over (vertex, length) pairs,
    so the first two lengths found are the shortest two.
    """
    out: dict[str, list[str]] = {v: [] for v in raw["cells"].get("0", [])}
    for e in raw["cells"].get("1", []):
        out[face(raw, "s", 1, e)].append(e)
    start = (raw["initial"], 0)
    parent = {start: None}
    frontier = [start]
    found: dict[int, tuple] = {}
    while frontier and len(parent) < limit:
        nxt = []
        for key in frontier:
            v, n = key
            if v == vertex:
                found.setdefault(n, key)
                if len(found) == 2:
                    frontier = []
                    break
            for e in out[v]:
                child = (face(raw, "t", 1, e), n + 1)
                if child not in parent:
                    parent[child] = (key, e)
                    nxt.append(child)
        frontier = nxt
    routes = []
    for key in found.values():
        edges = []
        while parent[key] is not None:
            key, e = parent[key]
            edges.append(e)
        routes.append(edges[::-1])
    return routes


def check_length_mismatch(raw: dict, witness: dict) -> list[str]:
    vertex = witness.get("cell")
    if vertex not in raw["cells"].get("0", []):
        return [f"length_mismatch names {vertex!r}, not a vertex"]
    routes = sequential_routes(raw, vertex)
    if len(routes) < 2:
        return [f"no two routes of different lengths reach {vertex!r}"]
    for route in routes:
        at = raw["initial"]
        for e in route:
            if face(raw, "s", 1, e) != at:
                return [f"route to {vertex!r} is not connected"]
            at = face(raw, "t", 1, e)
        if at != vertex:
            return [f"route does not end at {vertex!r}"]
    return []


def check_expected(verdict: dict, expected: dict) -> list[str]:
    """Compare with a corpus file's hand-written ``expected`` block."""
    problems = []
    if verdict.get("sculptable") != expected["sculptable"]:
        problems.append(f"expected sculptable={expected['sculptable']}")
    if verdict.get("d") != expected["d"]:
        problems.append(f"expected d={expected['d']}, got {verdict.get('d')}")
    kinds = expected.get("witness") or []
    kind = (verdict.get("witness") or {}).get("kind")
    if kinds and kind not in kinds:
        problems.append(f"expected witness in {kinds}, got {kind}")
    return problems
