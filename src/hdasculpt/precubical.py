"""Precubical sets, higher-dimensional automata, paths, and elementary homotopy.

Cells are opaque strings.  Face maps are 1-indexed: the k-th lower face of an
n-cell q is ``s(q, k)`` for k in 1..n, the k-th upper face is ``t(q, k)``.
All iteration follows declaration order, so every algorithm here is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import IllegalPathError, InvalidStructureError, ResourceLimitError


@dataclass(frozen=True)
class Problem:
    """One validation finding.  ``data`` holds kind-specific details."""

    kind: str
    cell: str
    message: str
    data: tuple = ()


@dataclass(frozen=True)
class ValidationReport:
    problems: tuple[Problem, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.problems

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(f"{p.kind} at {p.cell}: {p.message}" for p in self.problems)


class Step(NamedTuple):
    direction: str  # "s" (up) or "t" (down)
    index: int      # 1-based face index
    target: str     # cell the step lands in


@dataclass(frozen=True)
class Path:
    """A path: a start cell and a sequence of s-/t-steps.

    An s-step moves from ``s(q, k)`` up into q; a t-step moves from q down
    to ``t(q, k)``.
    """

    start: str
    steps: tuple[Step, ...] = ()

    def end(self) -> str:
        return self.steps[-1].target if self.steps else self.start

    def cells(self) -> tuple[str, ...]:
        return (self.start,) + tuple(st.target for st in self.steps)

    @property
    def type_string(self) -> str:
        return "".join(st.direction for st in self.steps)

    def extend(self, direction: str, index: int, target: str) -> "Path":
        return Path(self.start, self.steps + (Step(direction, index, target),))

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class PrecubicalSet:
    """Graded cells with 1-indexed lower (s) and upper (t) face maps."""

    cells: Mapping[int, tuple[str, ...]]
    s_faces: Mapping[str, tuple[str, ...]]
    t_faces: Mapping[str, tuple[str, ...]]
    _dim_of: dict = field(default_factory=dict, repr=False, compare=False)
    _decl_idx: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        dim_of, decl = {}, {}
        i = 0
        for n in sorted(self.cells):
            for c in self.cells[n]:
                if c in dim_of:
                    raise ValueError(f"duplicate cell id {c!r}")
                dim_of[c] = n
                decl[c] = i
                i += 1
        object.__setattr__(self, "_dim_of", dim_of)
        object.__setattr__(self, "_decl_idx", decl)

    # -- basic accessors ------------------------------------------------

    def dim(self, cell: str) -> int:
        return self._dim_of[cell]

    def has_cell(self, cell: str) -> bool:
        return cell in self._dim_of

    def declaration_index(self, cell: str) -> int:
        return self._decl_idx[cell]

    def grade(self, n: int) -> tuple[str, ...]:
        return self.cells.get(n, ())

    @property
    def dimension(self) -> int:
        dims = [n for n, cs in self.cells.items() if cs]
        return max(dims) if dims else 0

    def all_cells(self) -> Iterator[str]:
        for n in sorted(self.cells):
            yield from self.cells[n]

    def size(self) -> int:
        return sum(len(cs) for cs in self.cells.values())

    def s(self, cell: str, k: int) -> str:
        return self.s_faces[cell][k - 1]

    def t(self, cell: str, k: int) -> str:
        return self.t_faces[cell][k - 1]

    def face(self, alpha: str, k: int, cell: str) -> str:
        return self.s(cell, k) if alpha == "s" else self.t(cell, k)

    # -- derived tables, built on first read ------------------------------

    @cached_property
    def cofaces(self) -> dict[str, tuple[tuple[int, str], ...]]:
        """For each cell, the (k, q) pairs with s_k(q) = cell, in declaration order."""
        idx: dict[str, list[tuple[int, str]]] = {c: [] for c in self.all_cells()}
        s_faces = self.s_faces
        for n in sorted(self.cells):
            if n:
                for q in self.cells[n]:
                    for k, f in enumerate(s_faces[q], 1):
                        if f in idx:
                            idx[f].append((k, q))
        return {c: tuple(v) for c, v in idx.items()}

    @cached_property
    def sequential_arcs(self) -> dict[str, tuple[tuple[str, str], ...]]:
        """state -> ((edge, next_state), ..) for steps up an edge and down
        again; raises InvalidStructureError naming the first edge whose
        s-face or t-face is not exactly one declared vertex."""
        arcs: dict[str, list[tuple[str, str]]] = {v: [] for v in self.grade(0)}
        s_faces, t_faces = self.s_faces, self.t_faces
        for e in self.grade(1):
            s, t = s_faces.get(e, ()), t_faces.get(e, ())
            if len(s) != 1 or len(t) != 1 or s[0] not in arcs or t[0] not in arcs:
                raise InvalidStructureError(
                    f"edge {e!r} does not have exactly one declared vertex"
                    " as its s-face and as its t-face")
            arcs[s[0]].append((e, t[0]))
        return {v: tuple(a) for v, a in arcs.items()}

    @cached_property
    def universal_events(self):
        """The universal events (``events.universal_events``), built on first read."""
        from .events import _universal_events
        return _universal_events(self)


def precubical(cells, s_faces, t_faces) -> PrecubicalSet:
    """Normalize raw mappings into a PrecubicalSet.  A ``cells`` key is an
    int or a non-negative ASCII decimal without leading zeros, as in JSON:
    int() would also take "01", " 0", "-1" and non-ASCII digits, and two
    keys naming one dimension would keep only one list of cells."""
    norm_cells = {}
    for key, cs in cells.items():
        if not (type(key) is int or isinstance(key, str) and key.isascii()
                and key.isdigit() and (key == "0" or key[0] != "0")):
            raise InvalidStructureError(
                f"cells key {key!r} is not a dimension"
                " (an int, or a non-negative decimal without leading zeros)")
        if int(key) in norm_cells:
            raise InvalidStructureError(f"cells key {key!r} names a dimension twice")
        norm_cells[int(key)] = tuple(cs)
    return PrecubicalSet(
        cells=norm_cells,
        s_faces={c: tuple(fs) for c, fs in s_faces.items()},
        t_faces={c: tuple(fs) for c, fs in t_faces.items()},
    )


@dataclass(frozen=True)
class Hda:
    """A finite precubical set with a designated initial 0-cell."""

    base: PrecubicalSet
    initial: str

    def dim(self, cell: str) -> int:
        return self.base.dim(cell)

    def s(self, cell: str, k: int) -> str:
        return self.base.s(cell, k)

    def t(self, cell: str, k: int) -> str:
        return self.base.t(cell, k)

    def face(self, alpha: str, k: int, cell: str) -> str:
        return self.base.face(alpha, k, cell)

    def grade(self, n: int) -> tuple[str, ...]:
        return self.base.grade(n)

    def all_cells(self) -> Iterator[str]:
        return self.base.all_cells()

    @property
    def dimension(self) -> int:
        return self.base.dimension


def hda(cells, s_faces, t_faces, initial: str) -> Hda:
    return Hda(precubical(cells, s_faces, t_faces), initial)


@dataclass(frozen=True)
class Morphism:
    """A graded, face-commuting map between precubical sets."""

    mapping: Mapping[str, str]

    def __call__(self, cell: str) -> str:
        return self.mapping[cell]


# ---------------------------------------------------------------------------
# Validation


def validate_precubical(raw: PrecubicalSet) -> ValidationReport:
    """Check face-map shape, dangling references, face tables of undeclared
    cells, and the face identities.

    The identity checked for every cell q of dimension n and every pair
    k < l is alpha_k(beta_l(q)) == beta_{l-1}(alpha_k(q)) for alpha, beta
    ranging over the two face kinds.
    """
    problems: list[Problem] = []
    dim_of = raw._dim_of
    tables = (("s", raw.s_faces), ("t", raw.t_faces))
    for n in sorted(raw.cells):
        for c in raw.cells[n]:
            if n == 0:
                for kind, table in tables:
                    if table.get(c):
                        problems.append(Problem(
                            "face_count", c,
                            f"0-cell carries {kind}-faces", (kind,)))
                continue
            for kind, table in tables:
                faces = table.get(c)
                if faces is None or len(faces) != n:
                    got = 0 if faces is None else len(faces)
                    problems.append(Problem(
                        "face_count", c,
                        f"expected {n} {kind}-faces, got {got}", (kind, got)))
                    continue
                for k, f in enumerate(faces, start=1):
                    m = dim_of.get(f)
                    if m is None:
                        problems.append(Problem(
                            "dangling_face", c,
                            f"{kind}_{k} references missing cell {f!r}",
                            (kind, k, f)))
                    elif m != n - 1:
                        problems.append(Problem(
                            "wrong_dimension", c,
                            f"{kind}_{k} = {f!r} has dimension {m},"
                            f" expected {n - 1}",
                            (kind, k, f)))
    for kind, table in tables:
        if not table.keys() <= dim_of.keys():
            problems.extend(Problem("undeclared_cell", c,
                                    f"{kind}-face table names no declared cell",
                                    (kind,))
                            for c in table if c not in dim_of)
    if problems:
        return ValidationReport(tuple(problems))

    for n in sorted(raw.cells):
        if n < 2:
            continue
        for c in raw.cells[n]:
            own = [(kind, table, table[c]) for kind, table in tables]
            for l in range(2, n + 1):
                for k in range(1, l):
                    for alpha, alpha_faces, alpha_of_c in own:
                        for beta, beta_faces, beta_of_c in own:
                            lhs = alpha_faces[beta_of_c[l - 1]][k - 1]
                            rhs = beta_faces[alpha_of_c[k - 1]][l - 2]
                            if lhs != rhs:
                                problems.append(Problem(
                                    "identity_violation", c,
                                    f"{alpha}_{k} {beta}_{l} {c} = {lhs!r} but "
                                    f"{beta}_{l - 1} {alpha}_{k} {c} = {rhs!r}",
                                    (alpha, k, beta, l)))
    return ValidationReport(tuple(problems))


def validate_hda(h: Hda) -> ValidationReport:
    report = validate_precubical(h.base)
    problems = list(report.problems)
    if not h.base.has_cell(h.initial):
        problems.append(Problem("initial_missing", h.initial, "initial cell not present"))
    elif h.base.dim(h.initial) != 0:
        problems.append(Problem("initial_dimension", h.initial, "initial cell is not a 0-cell"))
    return ValidationReport(tuple(problems))


def validate_morphism(src: PrecubicalSet, dst: PrecubicalSet, m: Morphism,
                      initial: tuple[str, str] | None = None) -> ValidationReport:
    """Check totality, dimension preservation, and face commutation."""
    problems: list[Problem] = []
    for c in src.all_cells():
        img = m.mapping.get(c)
        if img is None:
            problems.append(Problem("not_total", c, "cell has no image"))
            continue
        if not dst.has_cell(img):
            problems.append(Problem("dangling_image", c, f"image {img!r} missing"))
            continue
        if dst.dim(img) != src.dim(c):
            problems.append(Problem("dimension", c, f"image {img!r} has wrong dimension"))
            continue
        for k in range(1, src.dim(c) + 1):
            for alpha in "st":
                want = m.mapping.get(src.face(alpha, k, c))
                got = dst.face(alpha, k, img)
                if want != got:
                    problems.append(Problem(
                        "face_commutation", c,
                        f"{alpha}_{k}: image face {got!r} != mapped face {want!r}",
                        (alpha, k)))
    if initial is not None:
        src_init, dst_init = initial
        if m.mapping.get(src_init) != dst_init:
            problems.append(Problem("initial", src_init, "initial cell not preserved"))
    return ValidationReport(tuple(problems))


# ---------------------------------------------------------------------------
# Self-linked cells

def _canonical_words(P: PrecubicalSet, cell: str, bound: int):
    """All canonically-written iterated face words of ``cell``.

    Yields pairs (word, result) with word = ((alpha_1, j_1), ..) written in
    composition order, indices strictly increasing, all below ``bound``, and
    result the cell obtained by applying the word right to left.
    """
    n = P.dim(cell)
    for j in range(1, min(n, bound - 1) + 1):
        for alpha in "st":
            child = P.face(alpha, j, cell)
            yield ((alpha, j),), child
            for word, res in _canonical_words(P, child, j):
                yield word + ((alpha, j),), res


def is_non_selflinked(P: PrecubicalSet):
    """True iff every pair of cells is in at most one face relation.

    On failure returns (False, (face, cell, word1, word2)) where both
    canonical words send ``cell`` to ``face``.
    """
    top = P.dimension
    for c in P.all_cells():
        if P.dim(c) == 0:
            continue
        seen: dict[str, tuple] = {}
        for word, res in _canonical_words(P, c, top + 2):
            if res in seen and seen[res] != word:
                return False, (res, c, seen[res], word)
            seen.setdefault(res, word)
    return True, None


# ---------------------------------------------------------------------------
# Steps, reachability, cycles


def _reached_states(h: Hda) -> set[str]:
    arcs = h.base.sequential_arcs
    seen = {h.initial}
    stack = [h.initial]
    while stack:
        for _, w in arcs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def reachable_cells(h: Hda) -> set[str]:
    """The cells that steps reach from the initial state: the states that
    the sequential arcs reach, then, in dimension order, each cell whose
    s_1-face is reached.  Requires the face identities (a valid ``h``), by
    which a cell's bottom vertex is its s_1-face's, an s-step keeps it and
    a t-step moves it one sequential arc on."""
    seen = _reached_states(h)
    for n in range(1, h.dimension + 1):
        seen.update(q for q in h.grade(n) if h.base.s_faces[q][0] in seen)
    return seen


def is_connected(h: Hda) -> bool:
    """True iff steps from the initial state reach every cell; requires the
    face identities, by which every state reached is enough."""
    return len(_reached_states(h)) == len(h.grade(0))


def restrict_to_reachable(h: Hda) -> Hda:
    """The sub-HDA on cells reachable from the initial cell."""
    keep = reachable_cells(h)
    cells = {n: tuple(c for c in cs if c in keep) for n, cs in h.base.cells.items()}
    cells = {n: cs for n, cs in cells.items() if cs}
    s = {c: h.base.s_faces[c] for c in keep if h.base.dim(c) >= 1}
    t = {c: h.base.t_faces[c] for c in keep if h.base.dim(c) >= 1}
    return Hda(PrecubicalSet(cells, s, t), h.initial)


def _sequential_path(start: str, arcs) -> Path:
    """The path from ``start`` up each (edge, next_state) arc and down again."""
    return Path(start, tuple(step for e, w in arcs
                             for step in (Step("s", 1, e), Step("t", 1, w))))


def _sequential_cycle(roots: Iterable[str], arcs) -> list[str] | None:
    """The states of the first cycle a depth-first search from each of
    ``roots`` in turn closes, from the state it re-enters to the last, or
    None.

    The search is iterative, one arc iterator per state on the current
    route, so a long chain of states does not nest calls; a state finished
    from one root is not searched again from a later one.
    """
    done: set[str] = set()
    for root in roots:
        if root in done:
            continue
        on_route = {root: 0}   # state -> its position on the current route
        route, work = [root], [iter(arcs[root])]
        while work:
            for _, w in work[-1]:
                if w in on_route:
                    return route[on_route[w]:]
                if w not in done:
                    on_route[w] = len(route)
                    route.append(w)
                    work.append(iter(arcs[w]))
                    break
            else:
                work.pop()
                v = route.pop()
                del on_route[v]
                done.add(v)
    return None


def is_acyclic(h: Hda):
    """True iff no two distinct cells are mutually step-reachable.

    Requires the face identities (a valid ``h``), by which the steps have a
    cycle exactly when the sequential arcs do (``reachable_cells``).  On
    failure returns (False, (v, e)): a vertex v on the first such cycle
    found, and the edge e leaving it on that cycle.
    """
    arcs = h.base.sequential_arcs
    cycle = _sequential_cycle(arcs, arcs)
    if cycle is None:
        return True, None
    v, w = cycle[0], cycle[1 % len(cycle)]
    return False, (v, next(e for e, x in arcs[v] if x == w))


# ---------------------------------------------------------------------------
# Paths


def validate_path(h: Hda, path: Path) -> None:
    """Raise IllegalPathError unless every step is legal in ``h``."""
    P = h.base
    if not P.has_cell(path.start):
        raise IllegalPathError(f"start cell {path.start!r} missing")
    cur = path.start
    for i, st in enumerate(path.steps):
        if not P.has_cell(st.target):
            raise IllegalPathError(f"step {i}: target {st.target!r} missing")
        if st.direction == "s":
            if not (1 <= st.index <= P.dim(st.target)) or P.s(st.target, st.index) != cur:
                raise IllegalPathError(
                    f"step {i}: s_{st.index}({st.target!r}) != {cur!r}")
        elif st.direction == "t":
            if not (1 <= st.index <= P.dim(cur)) or P.t(cur, st.index) != st.target:
                raise IllegalPathError(
                    f"step {i}: t_{st.index}({cur!r}) != {st.target!r}")
        else:
            raise IllegalPathError(f"step {i}: bad direction {st.direction!r}")
        cur = st.target


def is_rooted(h: Hda, path: Path) -> bool:
    return path.start == h.initial


def rooted_paths(h: Hda, limit: int = 100000) -> list[Path]:
    """All rooted paths of an acyclic HDA, in deterministic DFS order."""
    cofaces = h.base.cofaces
    out: list[Path] = []
    stack = [Path(h.initial)]
    while stack:
        p = stack.pop()
        out.append(p)
        if len(out) > limit:
            raise ResourceLimitError(f"more than {limit} rooted paths")
        cur = p.end()
        nxt = []
        for k, up in cofaces[cur]:
            nxt.append(p.extend("s", k, up))
        for k in range(1, h.dim(cur) + 1):
            nxt.append(p.extend("t", k, h.t(cur, k)))
        stack.extend(reversed(nxt))
    return out


# ---------------------------------------------------------------------------
# Elementary homotopy

def _pair_rewrites(h: Hda, before: str, first: Step, second: Step):
    """Alternative two-step segments with the same endpoints.

    Locally determined commutes for ss, tt and st pairs; for ts pairs the
    filling cells one dimension up are searched.
    """
    P = h.base
    a, b = first.index, second.index
    mid, end = first.target, second.target
    out = []
    if first.direction == "s" and second.direction == "s":
        if a < b:
            m2 = P.s(end, a)
            out.append((Step("s", b - 1, m2), Step("s", a, end)))
        else:
            m2 = P.s(end, a + 1)
            out.append((Step("s", b, m2), Step("s", a + 1, end)))
    elif first.direction == "t" and second.direction == "t":
        if b < a:
            m2 = P.t(before, b)
            out.append((Step("t", b, m2), Step("t", a - 1, end)))
        else:
            m2 = P.t(before, b + 1)
            out.append((Step("t", b + 1, m2), Step("t", a, end)))
    elif first.direction == "s" and second.direction == "t":
        if a < b:
            m2 = P.t(before, b - 1)
            out.append((Step("t", b - 1, m2), Step("s", a, end)))
        elif a > b:
            m2 = P.t(before, b)
            out.append((Step("t", b, m2), Step("s", a - 1, end)))
    else:  # t then s: search for a filling cell one dimension above `before`
        n = P.dim(before) + 1
        for q in P.grade(n):
            if b <= a and P.s(q, b) == before and P.t(q, a + 1) == end:
                out.append((Step("s", b, q), Step("t", a + 1, end)))
            if a <= b and P.s(q, b + 1) == before and P.t(q, a) == end:
                out.append((Step("s", b + 1, q), Step("t", a, end)))
    return out


def elementary_homotopies(h: Hda, path: Path) -> set[Path]:
    """All paths one elementary move away from ``path``."""
    validate_path(h, path)
    cells = path.cells()
    results: set[Path] = set()
    for i in range(len(path.steps) - 1):
        before = cells[i]
        for new_pair in _pair_rewrites(h, before, path.steps[i], path.steps[i + 1]):
            steps = path.steps[:i] + new_pair + path.steps[i + 2:]
            cand = Path(path.start, steps)
            if cand != path:
                results.add(cand)
    return results


def homotopy_class(h: Hda, path: Path, limit: int = 200000) -> set[Path]:
    """Closure of ``path`` under elementary moves (breadth-first)."""
    seen = {path}
    frontier = [path]
    while frontier:
        nxt: list[Path] = []
        for p in frontier:
            for q in elementary_homotopies(h, p):
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
                    if len(seen) > limit:
                        raise ResourceLimitError("homotopy class too large")
        frontier = nxt
    return seen


def normalize_path(h: Hda, path: Path) -> Path:
    """A path homotopic to ``path`` of type (s_1 t_1)^l s_1 s_2 .. s_n.

    First every up-up-down window is rewritten away, which leaves an
    alternating prefix followed by a final climb; then the climb is replaced
    by the canonical one, ``_climb``.
    """
    validate_path(h, path)
    if not is_rooted(h, path):
        raise IllegalPathError("normalize_path expects a rooted path")
    steps = list(path.steps)
    while True:
        cs = path.start, *(st.target for st in steps)
        pos = next((i for i in range(len(steps) - 2)
                    if steps[i].direction == "s"
                    and steps[i + 1].direction == "s"
                    and steps[i + 2].direction == "t"), None)
        if pos is None:
            break
        j, k = steps[pos + 1].index, steps[pos + 2].index
        if j == k:
            new_pair = _pair_rewrites(h, cs[pos], steps[pos], steps[pos + 1])[0]
            steps[pos], steps[pos + 1] = new_pair
        else:
            new_pair = _pair_rewrites(h, cs[pos + 1], steps[pos + 1], steps[pos + 2])[0]
            steps[pos + 1], steps[pos + 2] = new_pair

    # steps now alternate s t .. s t from a vertex to a vertex, followed by
    # a final run of s-steps
    run_start = len(steps)
    while run_start > 0 and steps[run_start - 1].direction == "s":
        run_start -= 1
    steps[run_start:] = _climb(h.base, path.end())
    out = Path(path.start, tuple(steps))
    validate_path(h, out)
    return out


def _climb(P: PrecubicalSet, q: str) -> tuple[Step, ...]:
    """The canonical climb s_1 s_2 .. s_n into the n-cell ``q`` from its
    bottom vertex: the m-th step enters s_{m+1} .. s_n(q) by s_m."""
    steps = []
    for m in range(P.dim(q), 0, -1):
        steps.append(Step("s", m, q))
        q = P.s(q, m)
    return tuple(reversed(steps))


# ---------------------------------------------------------------------------
# JSON interchange


def precubical_to_json(P: PrecubicalSet) -> dict:
    faced = [c for n in sorted(P.cells) if n >= 1 for c in P.cells[n]]
    return {
        "cells": {str(n): list(P.cells[n]) for n in sorted(P.cells)},
        "s": {c: list(P.s_faces[c]) for c in faced},
        "t": {c: list(P.t_faces[c]) for c in faced},
    }


_JSON_NOUNS = {dict: "an object", list: "a list", str: "a string", int: "an integer"}
_FACE_TABLE = {str: [str]}   # an object of lists of strings


def check_json_shape(kind: str, data, shape) -> None:
    """Raise InvalidStructureError naming the first path in ``data`` that
    does not have ``shape``.

    A shape is one of the types ``dict``, ``list``, ``str`` and ``int``;
    ``[item]``, a list of items; ``(first, second, ..)``, a list of exactly
    those; ``{str: value}``, an object of any keys; or ``{key: value, ..}``,
    an object whose listed keys hold those shapes (an absent key is null).
    """
    bad = _json_mismatch(data, shape)
    if bad is not None:
        path = bad[0].lstrip(".") or "the top level"
        raise InvalidStructureError(f"{kind} JSON: {path} is not {bad[1]}")


def _json_mismatch(data, shape):
    """The path below ``data`` and the expected kind of the first place that
    does not have ``shape``, or None; paths are built only on a mismatch."""
    if isinstance(shape, type):
        if isinstance(data, shape) and not isinstance(data, bool):
            return None
        return "", _JSON_NOUNS[shape]
    if isinstance(shape, list):
        if not isinstance(data, list):
            return "", "a list"
        if shape[0] is str and all(isinstance(x, str) for x in data):
            return None   # the common list, checked without a walk
        children, fmt = zip(range(len(data)), data, shape * len(data)), "[{}]"
    elif isinstance(shape, tuple):
        if not isinstance(data, list) or len(data) != len(shape):
            return "", f"a list of {len(shape)}"
        children, fmt = zip(range(len(shape)), data, shape), "[{}]"
    elif not isinstance(data, dict):
        return "", "an object"
    elif str in shape:
        children = ((name, x, shape[str]) for name, x in data.items())
        fmt = '["{}"]'
    else:
        children = ((key, data.get(key), value) for key, value in shape.items())
        fmt = ".{}"
    for step, x, item in children:
        if item is str and isinstance(x, str):
            continue   # the common leaf, checked without a call
        bad = _json_mismatch(x, item)
        if bad is not None:
            return fmt.format(step) + bad[0], bad[1]
    return None


def precubical_from_json(data: Mapping) -> PrecubicalSet:
    check_json_shape("HDA", data, dict)
    tables = {"s": {}, "t": {}, **data}   # a set of points has no faces
    check_json_shape("HDA", tables, {"cells": _FACE_TABLE, "s": _FACE_TABLE,
                                     "t": _FACE_TABLE})
    return precubical(tables["cells"], tables["s"], tables["t"])


def hda_to_json(h: Hda) -> dict:
    out = precubical_to_json(h.base)
    out["initial"] = h.initial
    return out


def hda_from_json(data: Mapping) -> Hda:
    base = precubical_from_json(data)
    check_json_shape("HDA", data, {"initial": str})
    return Hda(base, data["initial"])
