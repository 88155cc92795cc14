"""Sculptability: the path covering, proper identifications, and the searches.

The covering labels every cell with the configurations of all rooted paths
reaching it.  Each such path is homotopic to a sequential path to the cell's
bottom vertex followed by the climb into the cell, so a cell's configurations
are its bottom vertex's with the cell's own events running, and the
vertices' are the keys of one breadth-first walk along the sequential arcs,
which stops at the first repeated event.  A partition of the universal
labels is a proper identification when the quotient order stays
antisymmetric, every cell keeps exactly one quotient configuration, and
distinct cells keep distinct ones; sculptability is equivalent to the
existence of such a partition.  Two searches are provided: an exact branch
and bound over partitions in restricted-growth-string order, and an
incremental repair that resolves conflicts at states by merging matched
events along homotopy pairs, backtracking on clashes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Mapping, Sequence

from .bulk import Sculpture, validate_images
from .errors import (InvalidStructureError, NotConnectedError, NotProperError,
                     RepeatingEventsError, ResourceLimitError)
from .events import (EventPartition, UniversalEvents, _sequential_walk,
                     _walk_route, class_indices, classes_by_label, is_ordered,
                     partition_to_json, transitive_closure, universal_events)
from .precubical import (Hda, Path, _climb, _sequential_path, is_connected,
                         validate_hda)
from .st_chu import StConfig, StStructure


@dataclass(frozen=True)
class Covering:
    """Per-cell path configurations plus one witness path per configuration.

    Configurations are (started, terminated) bitmasks over ``ue.reps``:
    ``keys`` holds all of a vertex's but any other cell's first only, and
    ``masks``, ``configs`` and ``structure`` (``StConfig``s) all, once read.
    """

    ue: UniversalEvents
    keys: Mapping[str, tuple[tuple[int, int], ...]]   # cell -> configurations
    gens: tuple[tuple[int, int], ...]   # ue.generators, as positions in ue.reps
    _bottom: Mapping[str, str] = field(repr=False)   # cell -> its bottom vertex
    # the walk's (vertex, started) keys -> (the previous key, the edge of the
    # arc between), or None at the root; see events._sequential_walk
    _parents: Mapping = field(repr=False)
    _hda: Hda = field(repr=False)

    @cached_property
    def masks(self) -> Mapping[str, tuple[tuple[int, int], ...]]:   # own = s ^ u
        return {c: tuple([(t | s ^ u, t) for _, t in self.keys[self._bottom[c]]])
                for c, ((s, u), *_) in self.keys.items()}

    @cached_property
    def configs(self) -> Mapping[str, tuple[StConfig, ...]]:
        return {c: tuple(_key_config(self.ue, k) for k in ms)
                for c, ms in self.masks.items()}

    @cached_property
    def structure(self) -> StStructure:
        return StStructure(self.ue.reps,
                           frozenset(c for cs in self.configs.values() for c in cs))

    def witness(self, cell: str, cfg: StConfig) -> Path:
        """A rooted path to ``cell`` with configuration ``cfg``, KeyError if it
        has none: ``_arcs``'s route and the canonical climb into the cell, a
        path of type (s_1 t_1)^l s_1 .. s_n, as ``normalize_path`` writes it."""
        bit = {r: 1 << i for i, r in enumerate(self.ue.reps)}
        mask = tuple(sum(map(bit.__getitem__, labels))
                     for labels in (cfg.started, cfg.terminated))
        if mask not in self.masks[cell]:
            raise KeyError((cell, cfg))
        h = self._hda
        steps = _sequential_path(h.initial, self._arcs(cell, mask[1])).steps
        return Path(h.initial, steps + _climb(h.base, cell))

    def _arcs(self, cell: str, terminated: int) -> list[tuple[str, str]]:
        """The sequential route of the configuration of ``cell`` with
        ``terminated`` to the cell's bottom vertex, as (edge, state) arcs."""
        return _walk_route(self._parents, (self._bottom[cell], terminated))


def path_covering(h: Hda, ue: UniversalEvents | None = None) -> Covering:
    """The configuration each rooted path assigns to its end cell, per cell.

    Every rooted path to a cell is homotopic to a sequential path to the
    cell's bottom vertex followed by the climb into the cell, so the
    cell's configurations are its bottom vertex's with the cell's own
    events running.  The vertices' configurations are the keys of one
    breadth-first walk along the sequential arcs
    (``events._sequential_walk``).  Requires a connected automaton, and
    raises ``RepeatingEventsError`` with a shortest sequential rooted path
    that repeats an event when there is one, as on every cyclic automaton.
    """
    if not is_connected(h):
        raise NotConnectedError("automaton is not connected")
    return _covering(h, ue if ue is not None else universal_events(h.base))


def _covering(h: Hda, ue: UniversalEvents) -> Covering:
    """``path_covering`` for an automaton known to be connected.

    A vertex's configurations are (s, s) for each key (vertex, s) of the
    walk, in the walk's order, and ``keys`` holds those and, for any other
    cell, (s | own, s) for its bottom vertex's first s, where own holds the
    bits of its events.  Both tables are read in dimension order off the
    s-faces: an n-cell's bottom vertex is its s_1-face's, and for n >= 2 its
    events are those of its s_1-face and of its s_n-face together.
    """
    parents, repeat = _sequential_walk(h, ue)
    if repeat is not None:
        raise RepeatingEventsError("a sequential path repeats an event", repeat)
    bottom, own = _cell_tables(h.base, ue)
    at: dict[str, list[int]] = {v: [] for v in h.grade(0)}
    for v, s in parents:
        at[v].append(s)
    keys = {c: tuple([(s | own[c], s) for s in (at[c] if c in at else at[bottom[c]][:1])])
            for c in h.all_cells()}
    index = {r: i for i, r in enumerate(ue.reps)}
    return Covering(ue=ue, keys=keys,
                    gens=tuple((index[a], index[b]) for a, b in ue.generators),
                    _bottom=bottom, _parents=parents, _hda=h)


def _cell_tables(base, ue: UniversalEvents):
    """Each cell's bottom vertex, and the bits of its ``multilabel``."""
    s_faces, position = base.s_faces, ue.position
    bottom = {v: v for v in base.grade(0)}
    own = dict.fromkeys(base.grade(0), 0)
    for e in base.grade(1):
        bottom[e] = s_faces[e][0]
        own[e] = 1 << position[e]
    for n in sorted(base.cells):
        if n >= 2:
            for q in base.cells[n]:
                first, last = s_faces[q][0], s_faces[q][-1]
                bottom[q] = bottom[first]
                own[q] = own[first] | own[last]
    return bottom, own


# ---------------------------------------------------------------------------
# Proper event identifications


@dataclass(frozen=True)
class Violation:
    clause: int           # 1 antisymmetry, 2 per-cell functionality, 3 injectivity
    message: str
    cells: tuple[str, ...] = ()
    configs: tuple[StConfig, ...] = ()
    cycle: tuple[str, ...] = ()


# The quotient kernel.  A partition is a class-index tuple: each universal
# event (a position in ``ue.reps``) maps to the position of its class's
# earliest-declared member.  Its class-bit table gives each event that
# member's bit, so the quotient of a configuration is an (int, int) key, and
# an StConfig is built only for a violation or witness handed back.


def _class_bits(part: Sequence[int]):
    """The class-bit table, with the mask of the events that keep their bit."""
    bits = [1 << c for c in part]
    return bits, sum(1 << i for i, c in enumerate(part) if c == i)


def _cell_keys(masks, table) -> list[tuple[int, int]]:
    """The quotient key of each of a cell's configurations, in order."""
    bits, fixed = table
    keys = []
    for s, t in masks:
        qs, qt, moved = s & fixed, t & fixed, s & ~fixed
        while moved:   # only the events merged into another's class
            low = moved & -moved
            b = bits[low.bit_length() - 1]
            qs |= b
            if t & low:
                qt |= b
            moved ^= low
        keys.append((qs, qt))
    return keys


def _key_config(ue: UniversalEvents, key: tuple[int, int]) -> StConfig:
    """The configuration of a key, its labels read off the set bits only."""
    reps, labels = ue.reps, ([], [])
    for mask, found in zip(key, labels):
        while mask:
            low = mask & -mask
            found.append(reps[low.bit_length() - 1])
            mask ^= low
    return StConfig(*map(frozenset, labels))


def _clash(keys):
    """The first two distinct cells sharing a quotient key, and that key.

    ``keys`` yields (cell, that cell's keys) pairs and is read lazily, in
    order.  Merging classes never separates two equal keys, so a clash
    found under a partition persists under every coarsening of it.
    """
    owner: dict[tuple[int, int], str] = {}
    for cell, cell_keys in keys:
        for key in cell_keys:
            first = owner.setdefault(key, cell)
            if first != cell:
                return first, cell, key
    return None


class _Quotient:
    """A search's partition, refined one merge at a time and coarsened back on
    backtrack by trailing, as in MiniSat (Eén and Sörensson, SAT 2003):
    ``merge`` rewrites only the keys it changes and pushes one record on the
    ``trail``, and ``pop`` undoes the last.  The state owns ``part`` (the
    class indices, discrete at first), per class the bits of its ``members``
    and ``meet`` (the events started together with one of them), the key of
    every ``Covering.keys`` row, flat by cell, and the rows starting each
    event.  Unless the discrete partition has a ``clash`` (as ``_clash`` gives
    it), it keeps each key's ``owner`` and each cell's count of keys ``held``.

    Under a partition p a cell's keys are (X | p(own), X) for its bottom
    vertex's (X, X), and its own event e's edge there leads to X | p(e), so
    the co-occurrence table is the full one.  A cell keeps two keys exactly
    when its bottom vertex does, and vertices come first.  Cells on distinct
    bottom vertices share a key only if those vertices do.  If no vertices
    do, no own class is in its bottom vertex's X, which would share (X, X)
    with the target of that event's edge; so two cells clash exactly when
    they share a bottom vertex and own classes, then at its first X too.  So
    a merge clashes here exactly when it would on every configuration, and
    once no vertex holds two keys the partition is proper if acyclic.
    """

    def __init__(self, covering: Covering):
        self.cells: list[str] = []
        self.keys: list[tuple[int, int]] = []
        self.span: dict[str, slice] = {}
        for cell, ms in covering.keys.items():
            self.span[cell] = slice(len(self.keys), len(self.keys) + len(ms))
            self.cells += [cell] * len(ms)
            self.keys += ms
        m = len(covering.ue.reps)
        self.part = list(range(m))
        self.members = [1 << e for e in range(m)]
        starting = self.starting = [[] for _ in range(m)]
        meet = self.meet = [0] * m
        for j, (s, _) in enumerate(self.keys):
            rest = s
            while rest:
                low = rest & -rest
                e = low.bit_length() - 1
                starting[e].append(j)
                meet[e] |= s
                rest ^= low
        self.trail: list = []   # per merge: lo, hi, lo's meet before, the keys moved
        self.clash = _clash(self.cell_keys())
        if self.clash is None:   # a cell's configurations have distinct masks
            self.owner: dict[tuple[int, int], str] = dict(zip(self.keys, self.cells))
            self.held = {cell: at.stop - at.start for cell, at in self.span.items()}

    def cell_keys(self):
        """(cell, that cell's keys) per cell, in covering order."""
        keys = self.keys
        return ((cell, keys[at]) for cell, at in self.span.items())

    def sculpture(self, h: Hda, events) -> Sculpture:
        """The sculpture of a partition under which every cell holds one
        key, its classes in the order ``events`` lists them."""
        keys = self.keys
        return Sculpture(h, len(events), _images(
            events, {cell: (keys[at.start],) for cell, at in self.span.items()}))

    def merge(self, lo: int, hi: int):
        """Merge class ``hi`` into the smaller ``lo``: relabel its events, the
        bits of ``members[hi]`` lowest first, and rewrite the keys of the
        configurations starting them.  Returns None, or, undone, the first
        clash of a rewritten key with another cell's, as ``_clash`` does."""
        keys, cells, owner, starting = self.keys, self.cells, self.owner, self.starting
        held, part, members, meet = self.held, self.part, self.members, self.meet
        hb, lb = 1 << hi, 1 << lo
        moved = []
        rest = members[hi]
        while rest:
            low = rest & -rest
            e = low.bit_length() - 1
            for j in starting[e]:
                old = s, t = keys[j]
                if not s & hb:
                    continue   # moved already, through another event of hi
                new = (s ^ hb | lb, t ^ hb | lb if t & hb else t)
                cell = cells[j]
                first = owner.get(new)
                if first is None:
                    owner[new] = cell
                elif first != cell:
                    # hi's events below e are relabelled already
                    self._restore(members[hi] & (low - 1), hi, moved)
                    return first, cell, new
                # every configuration on old moves here, and the first drops it
                dropped = owner.pop(old, None) is not None
                held[cell] += (first is None) - dropped
                keys[j] = new
                moved.append((j, old, new, first is None, dropped))
            part[e] = lo
            rest ^= low
        self.trail.append((lo, hi, meet[lo], moved))
        members[lo] |= members[hi]
        meet[lo] |= meet[hi]
        return None

    def pop(self) -> None:
        """Undo the last merge on the trail."""
        lo, hi, self.meet[lo], moved = self.trail.pop()
        self.members[lo] ^= self.members[hi]   # hi's are as its merge left them
        self._restore(self.members[hi], hi, moved)

    def _restore(self, events: int, label: int, moved) -> None:
        keys, cells, owner, held, part = self.keys, self.cells, self.owner, self.held, self.part
        while events:
            low = events & -events
            part[low.bit_length() - 1] = label
            events ^= low
        for j, old, new, fresh, dropped in reversed(moved):
            keys[j] = old
            cell = owner[old] = cells[j]
            if fresh:
                del owner[new]
            held[cell] += dropped - fresh


def _linear_extension(gens, part: Sequence[int]) -> dict[int, int] | None:
    """The classes of ``part`` in the least linear extension of the order
    pairs ``gens`` between distinct classes, always taking the earliest
    ready class (Kahn's sort on a heap), each mapped to the bits of the
    classes below it in that order; None when that order has a cycle."""
    succ: dict[int, list[int]] = {}
    indeg = dict.fromkeys(part, 0)
    for a, b in gens:
        x, y = part[a], part[b]
        if x != y:
            succ.setdefault(x, []).append(y)
            indeg[y] += 1
    under = dict.fromkeys(indeg, 0)
    ready = [x for x, n in indeg.items() if not n]
    heapq.heapify(ready)
    below = {}
    while ready:
        x = heapq.heappop(ready)
        below[x] = under[x]   # every class below x has been popped
        for y in succ.get(x, ()):
            under[y] |= below[x] | 1 << x
            indeg[y] -= 1
            if not indeg[y]:
                heapq.heappush(ready, y)
    return below if len(below) == len(indeg) else None


def check_proper(h: Hda, partition: EventPartition,
                 covering: Covering | None = None):
    """Decide whether ``partition`` is a proper event identification.

    Returns (True, None) or (False, violation) naming the failing clause:
    (1) the quotient order has a cycle through distinct classes, (2) some
    cell keeps two distinct quotient configurations, (3) two distinct cells
    share one.
    """
    if covering is None:
        covering = path_covering(h)
    violation = _proper(h, covering, *_partition_keys(covering, partition))[1]
    return violation is None, violation


def build_embedding(h: Hda, partition: EventPartition,
                    covering: Covering | None = None) -> Sculpture:
    """The bulk embedding induced by a proper identification.

    Quotient classes are numbered by a deterministic linear extension of the
    quotient order; each cell maps to the tuple of its unique quotient
    configuration.
    """
    if covering is None:
        covering = path_covering(h)
    sculpture, violation = _proper(h, covering, *_partition_keys(covering, partition))
    if violation is not None:
        raise NotProperError(violation.message, violation)
    return sculpture


def _partition_keys(covering: Covering, partition: EventPartition):
    """The class-index tuple of ``partition``, and each cell's keys under it."""
    part = class_indices(covering.ue.reps, partition)
    table = _class_bits(part)
    return part, ((c, _cell_keys(ms, table)) for c, ms in covering.keys.items())


def _proper(h: Hda, covering: Covering, part: Sequence[int], cell_keys):
    """``check_proper`` and ``build_embedding`` for a class-index tuple,
    given (cell, keys) for every cell: the keys of its ``Covering.keys`` rows
    under ``part``, read lazily and only once the order is acyclic.

    Returns (the sculpture, None) or (None, the violation).
    """
    ue = covering.ue
    events = _linear_extension(covering.gens, part)
    if events is None:
        # the least pair of classes each below the other, by name, so the
        # answer does not follow the closure's hash order
        order = transitive_closure((part[a], part[b]) for a, b in covering.gens
                                   if part[a] != part[b])
        a, b = min((ue.reps[x], ue.reps[y]) for x, y in order
                   if x != y and (y, x) in order)
        return None, Violation(
            1, f"quotient order is cyclic through {a!r} and {b!r}", cycle=(a, b))
    keys: dict[str, list[tuple[int, int]]] = {}
    for cell, found in cell_keys:
        distinct = list(dict.fromkeys(found))
        if len(distinct) > 1:
            return None, Violation(
                2, f"cell {cell!r} keeps {len(distinct)} distinct quotient configs",
                cells=(cell,), configs=(_key_config(ue, distinct[0]),
                                        _key_config(ue, distinct[1])))
        keys[cell] = distinct
    clash = _clash(keys.items())
    if clash is not None:
        a, b, key = clash
        q = _key_config(ue, key)
        return None, Violation(3, f"cells {a!r} and {b!r} share quotient config {q}",
                               cells=(a, b), configs=(q,))
    return Sculpture(h, len(events), _images(events, keys)), None


_DIGIT_CHARS = str.maketrans("012", "0x1")


def _images(events: Sequence[int], keys) -> dict[str, str]:
    """Each cell's bulk image: per class, in the order ``events`` lists
    them, 0 when not started, x while running and 1 when done.

    A class's bit in a key adds 8 ** (its distance from the last class),
    and a done class is in both masks (t within s), so the sum of both
    masks' weights, written in octal, spells the digits 0, 1 and 2.  The
    weights are summed a byte of mask at a time from one table per byte,
    each built by doubling; a leading 1 keeps the zeros.
    """
    d = len(events)
    m = max(events, default=-1) + 1
    weight = [0] * m
    for at, c in enumerate(events):
        weight[c] = 1 << 3 * (d - 1 - at)
    tables = []
    for low in range(0, m, 8):
        table = [0]
        for w in weight[low:low + 8]:
            table += [v + w for v in table]
        tables.append(table)
    top, width = 1 << 3 * d, len(tables)
    em = {}
    for cell, ((s, t),) in keys.items():
        v = top
        for table, bs, bt in zip(tables, s.to_bytes(width, "little"),
                                 t.to_bytes(width, "little")):
            v += table[bs] + table[bt]
        em[cell] = format(v, "o")[1:].translate(_DIGIT_CHARS)
    return em


# ---------------------------------------------------------------------------
# Verdicts


@dataclass(frozen=True)
class Witness:
    kind: str  # repeating_events | not_ordered | length_mismatch
    #          # | label_clash | exhausted
    path: Path | None = None
    cycle: tuple[str, ...] = ()
    cell: str | None = None
    cells: tuple[str, ...] = ()
    lengths: tuple[int, int] | None = None
    config: StConfig | None = None
    summary: str | None = None


@dataclass
class Verdict:
    sculptable: bool
    partition: EventPartition | None = None
    sculpture: Sculpture | None = None
    witness: Witness | None = None
    nodes_explored: int = 0
    heuristic_incomplete: bool = False
    ue: UniversalEvents | None = field(default=None, repr=False)  # to print a partition

    @property
    def d(self) -> int | None:
        return self.sculpture.d if self.sculpture is not None else None


# ---------------------------------------------------------------------------
# Exhaustive search


def brute_force_search(h: Hda, covering: Covering | None = None,
                       max_events: int = 12) -> Verdict:
    """Depth-first branch and bound over the partitions of the universal labels.

    Partitions are restricted growth strings in lexicographic order (Knuth,
    TAOCP 4A, 7.2.1.5), built one label at a time.  A prefix stands for its
    classes with every later label a singleton, and every partition below it
    is a coarsening of that; so once two distinct cells share a quotient
    configuration the whole subtree is skipped.  Assigning a label to a class
    is one merge on the quotient state, which holds the prefix, popped on
    backtrack.  That merge rewrites only the keys of the configurations
    starting the label, so a configuration's key is final once its last label
    is assigned; once it differs from its cell's anchor (the configuration
    whose last label comes first), that cell keeps two keys at every leaf
    below, and the subtree is skipped too.  A leaf is proper when its quotient
    order is acyclic, so the partition returned is the first proper one in the
    enumeration.  ``nodes_explored`` counts the prefixes checked, not the
    partitions.
    """
    if covering is None:
        covering = path_covering(h)
    ue = covering.ue
    m = len(ue.reps)
    if m > max_events:
        raise ResourceLimitError(
            f"{m} universal events exceeds the exhaustive-search bound {max_events}")
    state = _Quotient(covering)
    keys, part = state.keys, state.part   # the prefix's classes, later labels singletons
    # final[i]: (configuration, its cell's anchor) for each configuration
    # other than an anchor whose last label is i - 1; both keys are final
    # from depth i on, and only vertices have more than one configuration
    final: list[list[tuple[int, int]]] = [[] for _ in range(m + 1)]
    for at in state.span.values():
        anchor = min(range(at.start, at.stop), key=lambda j: keys[j][0].bit_length())
        for j in range(at.start, at.stop):
            if j != anchor:
                final[keys[j][0].bit_length()].append((j, anchor))
    firsts = [0] if m else []   # the earliest label of each class, by digit
    nodes = 1

    def extend(i: int):
        nonlocal nodes
        if any(keys[j] != keys[a] for j, a in final[i]):
            return None   # a cell keeps two keys at every leaf below
        if i == m:
            # every merge was checked for a clash, and every cell keeps one
            # key, so clauses 2 and 3 hold here
            events = _linear_extension(covering.gens, part)
            return None if events is None else (tuple(part), state.sculpture(h, events))
        for first in firsts:
            nodes += 1
            if state.merge(first, i) is None:
                found = extend(i + 1)
                if found is not None:
                    return found
                state.pop()
        nodes += 1   # a new class: i stays the singleton the prefix took it for
        firsts.append(i)
        found = extend(i + 1)
        firsts.pop()
        return found

    found = extend(min(m, 1)) if state.clash is None else None
    if found is None:
        return Verdict(False, witness=Witness(
            "exhausted", summary=f"no proper identification; {nodes} prefixes checked"),
            nodes_explored=nodes)
    return Verdict(True, partition=classes_by_label(ue.reps, found[0]),
                   sculpture=found[1], nodes_explored=nodes, ue=ue)


# ---------------------------------------------------------------------------
# Repair search


def _length_mismatch(h: Hda, covering: Covering):
    for cell in h.grade(0):
        sizes = list(dict.fromkeys(s.bit_count() for s, _ in covering.keys[cell]))
        if len(sizes) > 1:   # the first size and the first other one
            return Witness("length_mismatch", cell=cell,
                           lengths=tuple(sorted(sizes[:2])))
    return None


def _homotopy_pair(covering: Covering, cell: str,
                   keys: Sequence[tuple[int, int]], divergence: dict):
    """Two matched-length event sequences witnessing a conflict at the
    vertex ``cell``, as the positions of their labels in ``ue.reps``, and
    per position whether the two routes' states after it differ.

    Takes the sequential route (``Covering._arcs``) of one configuration
    per distinct quotient configuration, pairs the first (in covering
    order) with each other one, strips the arcs both share at the start and
    at the end so the pair spans exactly the divergence, and returns the
    shortest pair.  Ties are broken on the label positions, then on the
    edges' declaration order, so cell names never decide.  Any two distinct
    configurations at a state must be reconciled, so pairing with the first
    changes only which conflict is repaired first.  ``divergence`` caches
    each pair by (cell, terminated, terminated), since it does not depend on
    the partition.
    """
    by_quotient: dict[tuple[int, int], int] = {}
    for (_, t), key in zip(covering.keys[cell], keys):
        by_quotient.setdefault(key, t)
    position, declared = covering.ue.position, covering._hda.base.declaration_index
    ta, *others = by_quotient.values()
    best = None
    for tb in others:
        pair = divergence.get((cell, ta, tb))
        if pair is None:
            ra, rb = covering._arcs(cell, ta), covering._arcs(cell, tb)
            common = 0
            while common < len(ra) and common < len(rb) and ra[common] == rb[common]:
                common += 1
            tail = 0
            while (common + tail < len(ra) and common + tail < len(rb)
                   and ra[-1 - tail] == rb[-1 - tail]):
                tail += 1
            ra, rb = ra[common:len(ra) - tail], rb[common:len(rb) - tail]
            labels = [tuple(position[e] for e, _ in r) for r in (ra, rb)]
            orders = [tuple(declared(e) for e, _ in r) for r in (ra, rb)]
            key = min((len(ra), *labels, *orders), (len(ra), *labels[::-1], *orders[::-1]))
            pair = divergence[cell, ta, tb] = (
                key, tuple(wa != wb for (_, wa), (_, wb) in zip(ra, rb)))
        if best is None or pair[0] < best[0]:
            best = pair
    (_, labels_a, labels_b, _, _), diverged = best
    return labels_a, labels_b, diverged


def _matching_table(labels_a, labels_b, compatible, diverged):
    """Each position's admissible targets, and a memo ``completions``: for
    each admissible prefix, keyed by the mask of the targets it uses, the
    number of admissible pairings that complete it; None when no pairing is
    admissible (see ``_matchings``).  A mask with k bits set is a k-position
    prefix, so one memoized recursion from the empty prefix fills the memo,
    and ``completions[0]`` counts the pairings without listing them."""
    n = len(labels_a)
    set_a = set(labels_a)
    if (n < 2 or len(set_a) < n or len(set(labels_b)) < n
            or labels_a[0] == labels_b[0] or labels_a[-1] == labels_b[-1]):
        return None
    pos_b = {lab: j for j, lab in enumerate(labels_b)}
    free_b = [j for j, lab in enumerate(labels_b) if lab not in set_a]
    targets = [[pos_b[lab]] if lab in pos_b else
               [j for j in free_b if not i == j == 0 and not i == j == n - 1
                and compatible(lab, labels_b[j])]
               for i, lab in enumerate(labels_a)]
    completions: dict[int, int] = {}

    def complete(used, k):
        if k == n:
            return 1
        total = 0
        for j in targets[k]:
            step = used | 1 << j
            if step == used or (step == (2 << k) - 1 and k < n - 1 and diverged[k]):
                continue   # j is taken, or the prefix maps onto itself at a cut
            count = completions.get(step)
            if count is None:
                count = completions[step] = complete(step, k + 1)
            total += count
        return total

    completions[0] = complete(0, 0)
    return targets, completions


def _matchings(table, step):
    """The admissible pairings of two label suffixes, in lexicographic order
    of their targets, by one recursive walk of their ``_matching_table``.

    Positions whose labels are already identified must pair with each other,
    since a proper identification never merges two events of one suffix, so
    only the leftover positions permute, and only onto positions whose
    classes never co-occur with theirs.  First may not pair with first nor
    last with last, a suffix repeating a class admits no pairing at all, and
    a pairing mapping a proper prefix onto itself would hand the two distinct
    states after it the same configuration (``diverged[k]`` flags the cut
    after position k).  Suffixes shorter than two positions admit none either.

    Only prefixes that some pairing completes are stepped into: those whose
    count in ``completions`` is positive.  ``step(k, j)`` applies position
    k's taking target j and returns the callable undoing it, or None to drop
    that prefix and its completions.  The walk yields True once per pairing,
    with all its steps applied, and undoes a prefix once its completions are
    walked.
    """
    if table is None:
        return
    targets, completions = table
    n = len(targets)

    def walk(k, used):
        if k == n:
            yield True
            return
        for j in targets[k]:
            if used >> j & 1 or not completions.get(used | 1 << j):
                continue
            undo = step(k, j)
            if undo is not None:
                yield from walk(k + 1, used | 1 << j)
                undo()

    yield from walk(0, 0)


def _fewest_matchings(conflicts):
    """The conflict to repair, and its ``_matching_table``, from which the
    repair search lists its matchings one child at a time; None when there
    is none worth repairing.

    ``conflicts`` yields (size, hashable ``_matching_table`` arguments,
    conflict) triples and is read lazily; each distinct table's matchings are
    counted once (a repeat has its count and size), none listed.  The first
    conflict with exactly one matching wins at once.  Otherwise a conflict
    with none is irreparable, so only forced repairs are worth following,
    for the sake of a sharper witness, and the answer is None once one has
    been read; else the least (count, size) wins, the earliest on a tie.
    """
    best, dead, seen = None, False, set()
    for size, args, conflict in conflicts:
        if args in seen:
            continue
        seen.add(args)
        table = _matching_table(*args)
        count = 0 if table is None else table[1][0]
        if count == 1:
            return conflict, table
        dead |= not count
        if count and (best is None or (count, size) < best[0]):
            best = (count, size), conflict, table
    return None if dead or best is None else best[1:]


def _clash_witness(ue: UniversalEvents, clash) -> Witness:
    a, b, key = clash
    return Witness("label_clash", cells=(a, b), config=_key_config(ue, key))


def repair_search(h: Hda, covering: Covering | None = None,
                  node_budget: int = 10 ** 6) -> Verdict:
    """Merge events along homotopy pairs, depth first with backtracking.

    Starts from the discrete partition.  A state carrying two distinct
    quotient configurations yields a homotopy pair whose positions must be
    matched crosswise; the admissible matchings are filtered by the event
    order, co-occurrence, and prefix divergence, and the conflict with the
    fewest of them is repaired first, so forced repairs (two-step
    interleavings included) chain before anything branches.  No partition is
    pulled twice: a child is strictly coarser than its parent, as its pair's
    routes start distinct classes, and where two nodes' root paths part, a
    coarsening of both would put two events started together in one class,
    while a matching merges disjoint pairs of classes, each checked for that.

    The root, the discrete partition, is decided alone when no state holds two
    configurations.  Otherwise one quotient state, built at the root, holds
    the node's partition and class tables throughout, and a clash of the root
    is the witness at once.  Each node reads its partition off the state's
    ``part``: the stack holds one ``_matchings`` walk per expanded node, and a
    child is built when its parent's walk is pulled, one matched position at a
    time, by merges on that state; its merges stay applied while it is
    expanded and are popped when its parent's next child is built.  A
    prefix whose merge makes two distinct cells share a quotient configuration
    is dropped with all its completions: merging never separates them, so no
    coarsening is proper.  The first such clash is kept as the witness, and
    the nodes left are visited in the same order as without the pruning.

    The search keeps the quotient order too, ``below``: per class the bits
    of the classes under it, from ``Covering.gens`` at the root.  Merging hi
    into lo changes only the classes above either, and the step's undo
    restores those.  A prefix whose merge would put a third class strictly
    between the two, closing a cycle, is dropped too: a coarsening keeps a
    cycle through distinct classes unless it merges two classes on it, which
    are comparable, and no proper identification merges comparable classes,
    as the order filter assumes.  So every node's order is acyclic, and the
    first where no state holds two keys is proper (see ``_Quotient``).
    ``nodes_explored`` counts the root and the children pulled; the budget
    bounds those and the dropped prefixes together.
    """
    if covering is None:
        covering = path_covering(h)
    ue = covering.ue
    mismatch = _length_mismatch(h, covering)
    if mismatch is not None:
        return Verdict(False, witness=mismatch)

    first_clash = None
    nodes, pruned = 1, 0   # the root

    def check_budget():
        if nodes + pruned > node_budget:
            raise ResourceLimitError(f"repair search exceeded {node_budget} nodes")

    def step(labels_a, labels_b, k, j):
        """For ``_matchings``: merge position k's class with target j's, and
        return its undo (a no-op if one already), or None to drop the prefix."""
        nonlocal pruned, first_clash
        x, y = state.part[labels_a[k]], state.part[labels_b[j]]
        if x == y:
            return lambda: None
        lo, hi = min(x, y), max(x, y)
        clash = state.merge(lo, hi)
        if clash is None:
            both = 1 << lo | 1 << hi
            down = (below[lo] | below[hi]) & ~both
            up = [c for c, bits in below.items() if bits & both]   # stale ones too
            if not any(down >> c & 1 for c in up):
                saved = [(c, below[c]) for c in up] + [(lo, below[lo])]
                below.update({c: below[c] & ~(1 << hi) | down | 1 << lo for c in up})
                below[lo] = down
                return lambda: (state.pop(), below.update(saved))
            state.pop()
        pruned += 1
        check_budget()
        if first_clash is None and clash is not None:
            first_clash = _clash_witness(ue, clash)
        return None

    check_budget()
    root = tuple(range(len(ue.reps)))
    stack = []   # per expanded node, the walk of its matchings (its children)
    if all(len(covering.keys[v]) == 1 for v in h.grade(0)):
        # nor does any cell, so the root fails only on a clash or, for an
        # unordered automaton passed in directly, on its order
        sculpture, violation = _proper(h, covering, root, covering.keys.items())
        if sculpture is not None:
            return Verdict(True, partition=classes_by_label(ue.reps, root),
                           sculpture=sculpture, nodes_explored=1, ue=ue)
        if violation.clause == 3:
            first_clash = Witness("label_clash", cells=violation.cells,
                                  config=violation.configs[0])
    else:
        state = _Quotient(covering)
        if state.clash is not None:
            return Verdict(False, witness=_clash_witness(ue, state.clash), nodes_explored=1)
        below = _linear_extension(covering.gens, root)   # None: no proper coarsening
        stack.append(iter([below is not None]))   # the root, as its one child
    divergence: dict = {}   # see _homotopy_pair
    while stack:
        if not next(stack[-1], False):
            stack.pop()
            continue
        if len(stack) > 1:   # a child; the root is the first iterator's
            nodes += 1
            check_budget()
        part = state.part
        conflicted = [v for v in h.grade(0) if state.held[v] > 1]
        if not conflicted:
            events = _linear_extension(covering.gens, part)
            return Verdict(True, partition=classes_by_label(ue.reps, part),
                           sculpture=state.sculpture(h, events), nodes_explored=nodes, ue=ue)

        def compatible(x, y):
            # merging order-comparable classes always collapses a square's
            # concurrent pair somewhere along the connecting chain, and
            # events started together along some path may never be identified
            return not (below[y] >> x & 1 or below[x] >> y & 1
                        or state.meet[x] & state.members[y])

        def conflicts():
            for cell in conflicted:
                labels_a, labels_b, diverged = _homotopy_pair(
                    covering, cell, state.keys[state.span[cell]], divergence)
                yield len(labels_a), (tuple(part[i] for i in labels_a),
                                      tuple(part[i] for i in labels_b),
                                      compatible, diverged), (labels_a, labels_b)

        # repair the most constrained conflict: fewest admissible pairings
        # first, shorter pairs breaking ties, so forced repairs chain before
        # anything branches
        chosen = _fewest_matchings(conflicts())
        if chosen is not None:
            (labels_a, labels_b), table = chosen
            stack.append(_matchings(table, partial(step, labels_a, labels_b)))
    if first_clash is not None:
        return Verdict(False, witness=first_clash, nodes_explored=nodes)
    return Verdict(False, witness=Witness(
        "exhausted", summary=f"search tree exhausted after {nodes} nodes"),
        nodes_explored=nodes)


# ---------------------------------------------------------------------------
# Full decision pipeline


def decide_sculptable(h: Hda, oracle: bool = False, max_events: int = 12,
                      node_budget: int = 10 ** 6) -> Verdict:
    """Decide whether ``h`` embeds into some bulk, with a certificate.

    Pipeline: structural validation, connectivity and orderedness, each
    checked once, then the path covering, whose walk fails on every cyclic
    or repeating automaton with a shortest sequential path that repeats an
    event as the witness, feeding either the repair search or (with
    ``oracle``) the exhaustive one.  Positive verdicts carry a validated sculpture; an
    exhausted repair search is cross-checked exhaustively when small enough
    and flagged heuristic otherwise.
    """
    report = validate_hda(h)
    if not report.ok:
        raise InvalidStructureError(str(report), report)
    if not is_connected(h):
        raise NotConnectedError("automaton is not connected")
    ue = universal_events(h.base)
    ordered, cycle = is_ordered(h.base, ue)
    if not ordered:
        return Verdict(False, witness=Witness("not_ordered", cycle=tuple(cycle)))
    try:
        covering = _covering(h, ue)
    except RepeatingEventsError as exc:
        return Verdict(False, witness=Witness("repeating_events", path=exc.path))
    if oracle:
        verdict = brute_force_search(h, covering, max_events=max_events)
    else:
        verdict = repair_search(h, covering, node_budget=node_budget)
        if (not verdict.sculptable and verdict.witness is not None
                and verdict.witness.kind == "exhausted"):
            if len(ue.reps) <= max_events:
                verdict = brute_force_search(h, covering, max_events=max_events)
            else:
                verdict.heuristic_incomplete = True
    if verdict.sculptable:
        cert = validate_images(verdict.sculpture)   # h was validated above
        if not cert.ok:
            raise InvalidStructureError(
                f"internal error: certificate failed validation: {cert}", cert)
    return verdict


# ---------------------------------------------------------------------------
# JSON


def path_to_json(p: Path) -> dict:
    return {"start": p.start,
            "steps": [[s.direction, s.index, s.target] for s in p.steps]}


def witness_to_json(w: Witness) -> dict:
    out: dict = {"kind": w.kind}
    if w.path is not None:
        out["path"] = path_to_json(w.path)
    if w.cycle:
        out["cycle"] = list(w.cycle)
    if w.cell is not None:
        out["cell"] = w.cell
    if w.cells:
        out["cells"] = list(w.cells)
    if w.lengths is not None:
        out["lengths"] = list(w.lengths)
    if w.config is not None:
        out["config"] = [sorted(w.config.started), sorted(w.config.terminated)]
    if w.summary is not None:
        out["summary"] = w.summary
    return out


def verdict_to_json(v: Verdict, ue: UniversalEvents | None = None) -> dict:
    """The verdict as JSON; the partition needs ``ue``, by default ``v.ue``."""
    from .bulk import sculpture_to_json
    ue = ue if ue is not None else v.ue
    out: dict = {"sculptable": v.sculptable}
    if v.sculpture is not None:
        out["d"] = v.sculpture.d
        out["embedding"] = sculpture_to_json(v.sculpture)
    if v.partition is not None and ue is not None:
        out["partition"] = partition_to_json(ue, v.partition)
    if v.witness is not None:
        out["witness"] = witness_to_json(v.witness)
    if v.heuristic_incomplete:
        out["heuristic_incomplete"] = True
    return out
