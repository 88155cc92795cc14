"""Universal event labels, the event order, and related predicates.

The universal labeling identifies 1-cells that sit on opposite sides of a
2-cell.  Classes are named by their earliest-declared member edge, and the
order between classes is kept as an explicit transitive closure, which is
cheap at the sizes this library targets.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import NotConsistentError
from .precubical import Hda, PrecubicalSet, _sequential_path

# A partition of universal-event classes, each part a frozenset of class
# representatives.
EventPartition = tuple[frozenset[str], ...]


@dataclass(frozen=True)
class UniversalEvents:
    """Partition of the 1-cells plus the induced order between classes."""

    classes: tuple[frozenset[str], ...]
    reps: tuple[str, ...]                       # one representative per class
    rep: Mapping[str, str]                      # edge -> representative edge
    order: frozenset[tuple[str, str]]           # transitive closure, on reps
    generators: tuple[tuple[str, str], ...]     # base order pairs, on reps

    def label(self, edge: str) -> str:
        return self.rep[edge]

    @cached_property
    def position(self) -> Mapping[str, int]:
        """Each edge's label, as the position of its class in ``reps``."""
        index = {r: i for i, r in enumerate(self.reps)}
        return {e: index[r] for e, r in self.rep.items()}

    @cached_property
    def _sorted_members(self) -> Mapping[str, tuple[str, ...]]:
        return {r: tuple(sorted(cls)) for cls, r in zip(self.classes, self.reps)}

    def members(self, rep: str) -> tuple[str, ...]:
        return self._sorted_members[rep]


class UnionFind:
    __slots__ = ("parent",)

    def __init__(self, items: Iterable[str] = ()):
        """Singleton classes of ``items``."""
        self.parent = {x: x for x in items}

    def find(self, x: str) -> str:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: str, b: str) -> bool:
        """Merge the classes of a and b; False when they were one already."""
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra
        return ra != rb


def transitive_closure(pairs: Iterable[tuple[str, str]]):
    """All (a, b) with b reachable from a along one or more pairs."""
    succ: dict[str, set[str]] = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    closure: set[tuple[str, str]] = set()
    for start in succ:
        seen: set[str] = set()
        stack = list(succ[start])
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(succ.get(v, ()))
        closure.update((start, v) for v in seen)
    return frozenset(closure)


def universal_events(P) -> UniversalEvents:
    """Quotient of the 1-cells by opposite-face equivalence, with its order.

    Built once per precubical set, on first read, and kept on it.
    """
    base = P.base if isinstance(P, Hda) else P
    return base.universal_events


def _universal_events(base: PrecubicalSet) -> UniversalEvents:
    edges = base.grade(1)
    squares = [(base.s_faces[q], base.t_faces[q]) for q in base.grade(2)]
    uf = UnionFind(edges)
    for s, t in squares:
        uf.union(s[0], t[0])
        uf.union(s[1], t[1])
    groups: dict[str, list[str]] = {}
    for e in edges:
        groups.setdefault(uf.find(e), []).append(e)
    # a class is listed when its earliest-declared member is read, and it
    # lists its members in declaration order: that first one names it
    members = list(groups.values())
    rep = {e: g[0] for g in members for e in g}
    gens = tuple(dict.fromkeys((rep[s[1]], rep[s[0]]) for s, _ in squares))
    return UniversalEvents(
        classes=tuple(map(frozenset, members)), reps=tuple(g[0] for g in members),
        rep=rep, order=transitive_closure(gens), generators=gens)


def multilabel(P, q: str, ue: UniversalEvents | None = None) -> tuple[str, ...]:
    """The ordered tuple of event classes running in cell ``q``.

    Entry i is the label of the edge obtained by taking every lower face
    except the i-th, applied from the highest index down.
    """
    base = P.base if isinstance(P, Hda) else P
    if ue is None:
        ue = universal_events(base)
    n = base.dim(q)
    out = []
    for i in range(1, n + 1):
        cur = q
        for j in range(n, 0, -1):
            if j != i:
                cur = base.s(cur, j)
        out.append(ue.label(cur))
    return tuple(out)


def is_consistent(P, ue: UniversalEvents | None = None):
    """False iff some 2-cell has equal labels on its two lower faces."""
    base = P.base if isinstance(P, Hda) else P
    if ue is None:
        ue = universal_events(base)
    for q in base.grade(2):
        if ue.label(base.s(q, 1)) == ue.label(base.s(q, 2)):
            return False, q
    return True, None


def _find_order_cycle(ue: UniversalEvents):
    """A generator cycle [a, .., a] through the earliest-declared class on a
    cycle, shortest by breadth-first search, or None."""
    a = next((r for r in ue.reps if (r, r) in ue.order), None)
    if a is None:
        return None
    succ: dict[str, list[str]] = {r: [] for r in ue.reps}
    for x, y in ue.generators:
        succ[x].append(y)
    parent: dict[str, str | None] = {a: None}
    queue = deque([a])
    while queue:
        v = queue.popleft()
        for w in succ[v]:
            if w == a:
                cyc = [a]
                while v is not None:
                    cyc.append(v)
                    v = parent[v]
                return cyc[::-1]
            if w not in parent:
                parent[w] = v
                queue.append(w)
    return None


def is_ordered(P, ue: UniversalEvents | None = None):
    """True iff the event order is irreflexive and antisymmetric.

    On failure returns (False, cycle) where cycle is a list of class
    representatives [a, .., a] following generator pairs.
    """
    base = P.base if isinstance(P, Hda) else P
    if ue is None:
        ue = universal_events(base)
    # (a, b) and (b, a) in the closure put (a, a) in it too
    cycle = _find_order_cycle(ue)
    return cycle is None, cycle


# ---------------------------------------------------------------------------
# Non-repeating events


def _sequential_walk(h: Hda, ue: UniversalEvents):
    """Breadth first along the sequential arcs from the initial state, over
    keys (state, the bits of the labels started, by ``ue.position``): one
    key for all the sequential rooted paths that reach a state having
    started the same labels.

    Every arc starts a label, so every path to a key has one arc per bit,
    and the keys are reached in that order.  Returns (parents, None), where
    parents maps each key, in the order reached, to the key before it and
    the edge of the arc between (None at the root).  At the first arc whose
    label is already started it returns the parents so far and the route
    to that arc's key followed by the arc instead: a shortest sequential
    rooted path that repeats a label, ending on its first repeat.
    """
    arcs, position = h.base.sequential_arcs, ue.position
    start = (h.initial, 0)
    parents: dict = {start: None}
    reached = [start]
    for key in reached:   # a queue: the keys are appended as they are reached
        v, s = key
        for e, w in arcs[v]:
            b = 1 << position[e]
            if s & b:
                return parents, _sequential_path(
                    h.initial, [*_walk_route(parents, key), (e, w)])
            new = (w, s | b)
            if new not in parents:
                parents[new] = (key, e)
                reached.append(new)
    return parents, None


def _walk_route(parents, key) -> list[tuple[str, str]]:
    """The (edge, next_state) arcs along which ``_sequential_walk`` first
    reached ``key``."""
    route = []
    while (parent := parents[key]) is not None:
        prev, e = parent
        route.append((e, key[0]))
        key = prev
    route.reverse()
    return route


def has_non_repeating_events(h: Hda, ue: UniversalEvents | None = None):
    """True iff no sequential rooted path sees the same label twice.

    Otherwise returns (False, a shortest such path), read off
    ``_sequential_walk``.  A cycle of sequential arcs reached from the
    initial state always gives one, since going round it repeats a label.
    """
    if ue is None:
        ue = universal_events(h.base)
    witness = _sequential_walk(h, ue)[1]
    return witness is None, witness


# ---------------------------------------------------------------------------
# Ordered symmetric variant


def symmetric_variant(P: PrecubicalSet, order: Sequence[str],
                      ue: UniversalEvents | None = None) -> PrecubicalSet:
    """Reorder every cell's face maps so labels increase along the given order.

    ``order`` lists all class representatives; the output has the same cells
    and is ordered.  Requires a consistent input so the sorting permutation
    is well defined per cell.
    """
    if ue is None:
        ue = universal_events(P)
    ok, witness = is_consistent(P, ue)
    if not ok:
        raise NotConsistentError(f"inconsistent at 2-cell {witness!r}", witness)
    pos = {r: i for i, r in enumerate(order)}
    missing = [r for r in ue.reps if r not in pos]
    if missing:
        raise ValueError(f"order does not cover classes {missing}")
    new_s: dict[str, tuple[str, ...]] = {}
    new_t: dict[str, tuple[str, ...]] = {}
    for c in P.all_cells():
        n = P.dim(c)
        if n == 0:
            continue
        if n == 1:
            new_s[c] = P.s_faces[c]
            new_t[c] = P.t_faces[c]
            continue
        labels = multilabel(P, c, ue)
        sigma = sorted(range(1, n + 1), key=lambda i: pos[labels[i - 1]])
        new_s[c] = tuple(P.s(c, i) for i in sigma)
        new_t[c] = tuple(P.t(c, i) for i in sigma)
    return PrecubicalSet(dict(P.cells), new_s, new_t)


# ---------------------------------------------------------------------------
# Partitions of classes


def class_indices(names: Sequence[str],
                  parts: Iterable[Iterable[str]]) -> tuple[int, ...]:
    """Each name's class, as the position in ``names`` of its class's
    earliest member; names in no part are singletons.

    Raises ValueError on a name not in ``names`` and on a name in two parts.
    """
    pos = {n: i for i, n in enumerate(names)}
    index = list(range(len(names)))
    covered: set[str] = set()
    for grp in parts:
        fs = frozenset(grp)
        for n in fs:
            if n not in pos:
                raise ValueError(f"unknown name {n!r}")
            if n in covered:
                raise ValueError(f"{n!r} in two parts")
        covered |= fs
        low = min((pos[n] for n in fs), default=None)
        for n in fs:
            index[pos[n]] = low
    return tuple(index)


def classes_by_label(names: Sequence[str], labels: Sequence[int]) -> EventPartition:
    """The classes of names sharing a label, ordered by earliest member.

    ``labels`` may be a class-index tuple or a restricted growth string:
    both give equal labels to exactly the names of one class.
    """
    groups: dict[int, list[str]] = {}
    for n, label in zip(names, labels):
        groups.setdefault(label, []).append(n)
    return tuple(map(frozenset, groups.values()))


def partition_of(ue: UniversalEvents, parts: Iterable[Iterable[str]]) -> EventPartition:
    """Normalize an iterable of groups of class reps into an EventPartition.

    Unmentioned classes become singletons; parts are ordered by their
    earliest-declared representative.
    """
    return classes_by_label(ue.reps, class_indices(ue.reps, parts))


def discrete_partition(ue: UniversalEvents) -> EventPartition:
    return tuple(frozenset({r}) for r in ue.reps)


def partition_to_json(ue: UniversalEvents, partition: EventPartition) -> list[list[str]]:
    """Each part rendered as the sorted list of all member edges."""
    return sorted(sorted(e for rep in part for e in ue.members(rep)) for part in partition)


def universal_events_to_json(ue: UniversalEvents) -> dict:
    return {
        "classes": [sorted(cls) for cls in ue.classes],
        "order": sorted([a, b] for a, b in ue.order),
    }
