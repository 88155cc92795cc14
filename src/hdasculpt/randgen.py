"""Seeded random automata for cross-checking the two searches.

Candidates start as connected unions of unit cubes inside a small grid
(always sculptable) and are optionally mutated by identifying two vertices,
which can produce any of the failure modes.  Candidates are filtered until
they are valid and free of repeating events with a bounded number of
universal labels, so both searches accept them.  Each is restricted to the
cells its initial state reaches, so it is connected, and a step cycle would
repeat its events: the filter rejects every cyclic candidate too.
"""

from __future__ import annotations

import itertools
import random

from .errors import HdaError
from .euclid import Cube, complex_to_hda
from .events import (has_non_repeating_events, transitive_closure,
                     universal_events)
from .precubical import Hda, PrecubicalSet, restrict_to_reachable, validate_hda


def _merge_vertices(h: Hda, keep: str, drop: str) -> Hda:
    rename = lambda c: keep if c == drop else c
    cells = {n: tuple(dict.fromkeys(rename(c) for c in cs))
             for n, cs in h.base.cells.items()}
    s = {c: tuple(rename(f) for f in fs)
         for c, fs in h.base.s_faces.items()}
    t = {c: tuple(rename(f) for f in fs)
         for c, fs in h.base.t_faces.items()}
    return Hda(PrecubicalSet(cells, s, t), rename(h.initial))


def _random_complex_hda(rng: random.Random) -> Hda:
    if rng.random() < 0.4:
        sizes = (rng.randint(2, 4),)
    else:
        sizes = (rng.randint(1, 2), rng.randint(1, 2))
    tops = []
    for pos in itertools.product(*(range(m) for m in sizes)):
        if pos == (0,) * len(sizes) or rng.random() < 0.6:
            tops.append(Cube(pos, tuple(p + 1 for p in pos)))
    emb = complex_to_hda(tops, initial=(0,) * len(sizes))
    return restrict_to_reachable(emb.hda)


def _incomparable_vertex_pairs(h: Hda) -> list[tuple[str, str]]:
    """Vertex pairs where neither reaches the other through sequential steps."""
    verts = list(h.grade(0))
    order = transitive_closure((h.s(e, 1), h.t(e, 1)) for e in h.grade(1))
    return [(a, b) for i, a in enumerate(verts) for b in verts[i + 1:]
            if (a, b) not in order and (b, a) not in order]


def _random_dag_hda(rng: random.Random, max_edges: int) -> Hda:
    """A one-dimensional automaton on a random DAG.

    Half the time the DAG is layered, so all routes to a vertex have equal
    length and conflicts force event merges rather than length mismatches.
    """
    from .precubical import hda
    arcs: list[tuple[str, str]] = []
    if rng.random() < 0.5:
        widths = [1] + [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
        layers = [[f"v{i}_{j}" for j in range(w)] for i, w in enumerate(widths)]
        verts = [v for layer in layers for v in layer]
        for i in range(len(layers) - 1):
            for w in layers[i + 1]:
                srcs = [v for v in layers[i] if rng.random() < 0.7] or \
                    [layers[i][rng.randrange(len(layers[i]))]]
                arcs.extend((v, w) for v in srcs)
        initial = layers[0][0]
    else:
        n = rng.randint(3, 7)
        verts = [f"v{i}" for i in range(n)]
        candidates = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(candidates)
        for i, j in candidates:
            if rng.random() < 0.55:
                arcs.append((verts[i], verts[j]))
        initial = verts[0]
    arcs = arcs[:max_edges]
    edges = {f"e{k}": vw for k, vw in enumerate(arcs)}
    h = hda({0: verts, 1: list(edges)},
            {e: (v,) for e, (v, _) in edges.items()},
            {e: (w,) for e, (_, w) in edges.items()}, initial)
    return restrict_to_reachable(h)


def random_hda(rng: random.Random, max_events: int = 6) -> Hda:
    """One connected, acyclic, non-repeating automaton, at most max_events labels.

    Raises ValueError for a negative ``max_events``, which no candidate meets.
    """
    if max_events < 0:
        raise ValueError(f"max_events must not be negative, got {max_events}")
    while True:
        try:
            style = rng.random()
            if style < 0.35:
                h = _random_dag_hda(rng, max_events)
            else:
                h = _random_complex_hda(rng)
                if style > 0.75:
                    pairs = _incomparable_vertex_pairs(h)
                    pairs = [p for p in pairs if h.initial not in p]
                    if pairs:
                        a, b = pairs[rng.randrange(len(pairs))]
                        h = restrict_to_reachable(_merge_vertices(h, a, b))
        except (HdaError, ValueError):
            continue
        if not validate_hda(h).ok:
            continue
        if len(universal_events(h.base).reps) > max_events:
            continue
        if not has_non_repeating_events(h)[0]:
            continue
        return h


def random_hda_batch(seed: int, count: int, max_events: int = 6) -> list[Hda]:
    """``count`` automata of ``random_hda`` from ``seed``; raises ValueError
    for a negative ``count`` or ``max_events`` before any is drawn."""
    if count < 0:
        raise ValueError(f"count must not be negative, got {count}")
    if max_events < 0:
        raise ValueError(f"max_events must not be negative, got {max_events}")
    rng = random.Random(seed)
    return [random_hda(rng, max_events) for _ in range(count)]
