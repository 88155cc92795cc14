"""A reference decider, written from the characterisation of sculptability.

An automaton that is connected, acyclic and free of repeating events is
sculptable exactly when some partition of its universal events is a proper
identification:

1. the order that squares induce between classes (direction-1 event before
   direction-2 event) stays acyclic;
2. every cell receives one quotient configuration over all rooted paths;
3. distinct cells receive distinct quotient configurations.

The search enumerates partitions as restricted growth strings.  A prefix
stands for the partition that keeps the remaining events as singletons; any
completion only merges classes further, and two configurations that became
equal stay equal, so a clash between two distinct cells (clause 3) prunes
the whole subtree.  Clauses 1 and 2 can still be repaired by later merges
and are checked only on complete partitions.

This module reads automata in their plain JSON shape and does not import
``hdasculpt``.
"""

from __future__ import annotations

from checks import dims, face, universal_events


def _running(raw: dict, cell: str, n: int, ev: dict[str, int]) -> list[int]:
    """The event along each direction of ``cell``: drop every other direction."""
    out = []
    for i in range(1, n + 1):
        cur = cell
        for j in range(n, 0, -1):
            if j != i:
                cur = face(raw, "s", j, cur)
        out.append(ev[cur])
    return out


def configurations(raw: dict, ev: dict[str, int]) -> dict[str, set[tuple[int, int]]]:
    """Per cell, the (started, terminated) event masks of all rooted paths."""
    cell_dim = dims(raw)
    running = {c: _running(raw, c, n, ev) for c, n in cell_dim.items()}
    cofaces: dict[str, list[tuple[str, int]]] = {c: [] for c in cell_dim}
    for q, n in cell_dim.items():
        for k in range(1, n + 1):
            cofaces[face(raw, "s", k, q)].append((q, running[q][k - 1]))
    start = (raw["initial"], 0, 0)
    seen = {start}
    stack = [start]
    while stack:
        cell, started, done = stack.pop()
        moves = []
        for q, e in cofaces[cell]:
            if started >> e & 1:
                raise ValueError(f"event restarted entering {q!r}")
            moves.append((q, started | 1 << e, done))
        for k, e in enumerate(running[cell], start=1):
            moves.append((face(raw, "t", k, cell), started, done | 1 << e))
        for key in moves:
            if key not in seen:
                seen.add(key)
                stack.append(key)
    out: dict[str, set[tuple[int, int]]] = {c: set() for c in cell_dim}
    for cell, started, done in seen:
        out[cell].add((started, done))
    return out


def _bits(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _topological(classes: list[int], arcs: set[tuple[int, int]]):
    """A linear extension of the arcs on ``classes``, or None on a cycle."""
    indeg = {c: 0 for c in classes}
    succ: dict[int, list[int]] = {c: [] for c in classes}
    for a, b in arcs:
        succ[a].append(b)
        indeg[b] += 1
    ready = sorted(c for c in classes if indeg[c] == 0)
    order = []
    while ready:
        c = ready.pop(0)
        order.append(c)
        for b in succ[c]:
            indeg[b] -= 1
            if indeg[b] == 0:
                ready.append(b)
        ready.sort()
    return order if len(order) == len(classes) else None


def proper_identification(raw: dict):
    """A proper identification as a class number per event, or None.

    ``classes[i]`` is the class of event i.  The search visits at most one
    node per restricted growth string of length at most m: 142,418 for
    m = 10 events.
    """
    ev, m = universal_events(raw)
    configs = configurations(raw, ev)
    items = [(cell, _bits(s), _bits(t))
             for cell, cs in configs.items() for s, t in cs]
    generators = {(ev[face(raw, "s", 2, q)], ev[face(raw, "s", 1, q)])
                  for q in raw["cells"].get("2", [])}
    cls = [0] * m

    def quotients(p: int, top: int):
        # events from p on are still singletons, numbered after the classes
        qb = [1 << cls[i] for i in range(p)] + [1 << (top + 1 + i - p)
                                                for i in range(p, m)]
        out = []
        for cell, started, done in items:
            qs = qt = 0
            for i in started:
                qs |= qb[i]
            for i in done:
                qt |= qb[i]
            out.append((cell, qs, qt))
        return out

    def clash(quot) -> bool:
        owner: dict[tuple[int, int], str] = {}
        for cell, qs, qt in quot:
            if owner.setdefault((qs, qt), cell) != cell:
                return True
        return False

    def complete(quot) -> bool:
        per_cell: dict[str, tuple[int, int]] = {}
        for cell, qs, qt in quot:
            if per_cell.setdefault(cell, (qs, qt)) != (qs, qt):
                return False
        arcs = {(cls[a], cls[b]) for a, b in generators if cls[a] != cls[b]}
        return _topological(sorted(set(cls)), arcs) is not None

    def search(p: int, top: int) -> bool:
        quot = quotients(p, top)
        if clash(quot):
            return False
        if p == m:
            return complete(quot)
        for c in range(top + 2):
            cls[p] = c
            if search(p + 1, max(top, c)):
                return True
        return False

    return list(cls) if search(0, -1) else None


def embedding(raw: dict, classes: list[int]) -> tuple[int, dict[str, str]]:
    """The bulk embedding a proper identification induces, as (d, images)."""
    ev, _ = universal_events(raw)
    arcs = {(classes[ev[face(raw, "s", 2, q)]], classes[ev[face(raw, "s", 1, q)]])
            for q in raw["cells"].get("2", [])}
    arcs = {(a, b) for a, b in arcs if a != b}
    order = _topological(sorted(set(classes)), arcs)
    position = {c: j for j, c in enumerate(order)}
    em = {}
    for cell, cs in configurations(raw, ev).items():
        started, done = next(iter(cs))
        img = ["0"] * len(order)
        for i in _bits(started):
            img[position[classes[i]]] = "x"
        for i in _bits(done):
            img[position[classes[i]]] = "1"
        em[cell] = "".join(img)
    return len(order), em
