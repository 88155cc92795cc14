"""Grids, complexes and PV programs against a plain per-``Cube`` reference.

The reference closes a cube set face by face, sorts it by (dim, lower,
upper) and names every face through its own ``Cube``, which is how the
library built automata before it worked on coordinate tuples.  The library
must give the same cells in the same declaration order, the same face maps
and the same initial cell.
"""

import importlib.util
import itertools
import random
import re
import sys
from pathlib import Path

import pytest

from hdasculpt import (Cube, Hda, InvalidStructureError, PrecubicalSet,
                       complex_to_hda, cube, decide_sculptable,
                       euclidean_complex, make_grid, parse_pv, pv_to_complex,
                       validate_sculpture)
from hdasculpt import euclid
from hdasculpt.precubical import restrict_to_reachable

# the benchmark's inputs, read from its file as they are
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
WORKLOADS = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(WORKLOADS)

# every PV program of tests/test_pv.py, then the benchmark's
PROGRAMS = list(dict.fromkeys([
    "P(a) P(b) V(b) V(a)\nP(b) P(a) V(a) V(b)\n",
    "P(a) P(b) V(b) V(a) P(c) V(c)\nP(b) P(a) V(a) V(b) P(c) V(c)\n",
    "P(a) P(b) V(a) V(b)\nP(b) P(c) V(b) V(c)\nP(c) P(a) V(c) V(a)\n",
    "P(a) V(a)\n" * 4,
    "P(a) V(a) P(a) V(a) P(a) V(a)\n" * 2,
    "P(a) V(a)\n",
    "resource a capacity 2\nP(a) V(a)\nP(a) V(a)\n",
    *(f"resource a capacity {cap}\nresource b capacity {cap}\n"
      "P(a) P(b) V(b) V(a)\nP(b) P(a) V(a) V(b)\n" for cap in (1, 2, 3, "inf")),
    "P(a) V(a) P(b) V(b)\nP(b) V(b)\n",
    "resource s capacity 2\nP(s) V(s)\nP(s) V(s)\nP(s) V(s)\n",
    # ring4: most positions of its grid are forbidden
    "".join(f"P(x{i}) P(x{(i + 1) % 4}) V(x{i}) V(x{(i + 1) % 4})\n" for i in range(4)),
    *WORKLOADS.PV_SEARCH.values(),
    *WORKLOADS.GRID_PV.values(),
]))


# ---------------------------------------------------------------------------
# The reference


def _directions(c):
    return tuple(i for i, (a, b) in enumerate(zip(c.lower, c.upper)) if b > a)


def _face(c, alpha, k):
    axis = _directions(c)[k - 1]
    if alpha == "s":
        upper = list(c.upper)
        upper[axis] = c.lower[axis]
        return Cube(c.lower, tuple(upper))
    lower = list(c.lower)
    lower[axis] = c.upper[axis]
    return Cube(tuple(lower), c.upper)


def _name(c):
    return ",".join(str(a) if a == b else f"{a}s"
                    for a, b in zip(c.lower, c.upper)) or "pt"


def _key(c):
    return (len(_directions(c)), c.lower, c.upper)


def reference_closure(cubes):
    closed, added = set(cubes), set()
    stack = list(closed)
    while stack:
        c = stack.pop()
        for k in range(1, len(_directions(c)) + 1):
            for alpha in "st":
                f = _face(c, alpha, k)
                if f not in closed:
                    closed.add(f)
                    added.add(f)
                    stack.append(f)
    return closed, added


def reference_precubical(cubes):
    cells, s_faces, t_faces = {}, {}, {}
    for c in sorted(cubes, key=_key):
        n = len(_directions(c))
        cells.setdefault(n, []).append(_name(c))
        if n:
            s_faces[_name(c)] = tuple(_name(_face(c, "s", k)) for k in range(1, n + 1))
            t_faces[_name(c)] = tuple(_name(_face(c, "t", k)) for k in range(1, n + 1))
    return PrecubicalSet({n: tuple(cs) for n, cs in sorted(cells.items())},
                         s_faces, t_faces)


def reference_grid_map(closed):
    ambient = len(next(iter(closed)).lower)
    lo = [min(c.lower[i] for c in closed) for i in range(ambient)]
    hi = [max(c.upper[i] for c in closed) for i in range(ambient)]
    axes = [i for i in range(ambient) if hi[i] > lo[i]]
    return {_name(c): _name(Cube(tuple(c.lower[i] - lo[i] for i in axes),
                                 tuple(c.upper[i] - lo[i] for i in axes)))
            for c in closed}


def _held(actions, resource, j):
    count = 0
    for act in actions[:j]:
        if act.resource == resource:
            count += 1 if act.kind == "P" else -1
    return count > 0


def reference_pv_cubes(prog):
    sizes = [len(p) for p in prog.processes]
    axes = [[(j, False) for j in range(m + 1)] + [(j, True) for j in range(m)]
            for m in sizes]
    kept = []
    for profile in itertools.product(*axes):
        if all(sum(_held(p, r, j) or (span and _held(p, r, j + 1))
                   for (j, span), p in zip(profile, prog.processes)) <= cap
               for r, cap in prog.resources.items()):
            kept.append(Cube(tuple(j for j, _ in profile),
                             tuple(j + span for j, span in profile)))
    return kept


def assert_same_hda(h, base, initial):
    assert list(h.base.cells.items()) == list(base.cells.items())
    assert h.base.s_faces == base.s_faces
    assert h.base.t_faces == base.t_faces
    assert h.initial == initial


def random_cubes(rng, ambient, count):
    out = set()
    for _ in range(count):
        lower = tuple(rng.randint(-2, 3) for _ in range(ambient))
        out.add(cube(lower, tuple(a + rng.randint(0, 1) for a in lower)))
    return out


def random_sizes(rng):
    return tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 4)))


# ---------------------------------------------------------------------------
# The differential tests


def test_grids_match_the_reference():
    rng = random.Random(8)
    for sizes in [*WORKLOADS.GRID_SIZES, *(random_sizes(rng) for _ in range(25))]:
        tops = [Cube(pos, tuple(p + 1 for p in pos))
                for pos in itertools.product(*(range(m) for m in sizes))]
        closed, _ = reference_closure(tops)
        assert_same_hda(make_grid(*sizes), reference_precubical(closed),
                        _name(Cube((0,) * len(sizes), (0,) * len(sizes))))


@pytest.mark.parametrize("text", PROGRAMS)
def test_pv_programs_match_the_reference(text):
    prog = parse_pv(text)
    closed, added = reference_closure(reference_pv_cubes(prog))
    assert not added
    origin = _name(Cube((0,) * len(prog.processes), (0,) * len(prog.processes)))
    ref = restrict_to_reachable(Hda(reference_precubical(closed), origin))
    emb = pv_to_complex(parse_pv(text))
    assert_same_hda(emb.hda, ref.base, ref.initial)
    assert emb.complex.cubes == frozenset(closed)
    grid_map = reference_grid_map(closed)
    assert emb.grid_map == {c: grid_map[c] for c in ref.all_cells()}
    assert emb.added_faces == ()


def test_random_complexes_match_the_reference():
    rng = random.Random(9)
    for _ in range(150):
        cubes = random_cubes(rng, rng.randint(1, 4), rng.randint(1, 6))
        initial = min(c.lower for c in cubes)
        closed, added = reference_closure(cubes)
        emb = complex_to_hda(cubes, initial=initial)
        assert_same_hda(emb.hda, reference_precubical(closed),
                        _name(Cube(initial, initial)))
        assert emb.complex.cubes == frozenset(closed)
        assert emb.added_faces == tuple(sorted(added, key=_key))
        assert emb.grid_map == reference_grid_map(closed)


def test_unclosed_cube_sets_name_the_same_missing_cube():
    rng = random.Random(10)
    for _ in range(60):
        cubes = random_cubes(rng, rng.randint(1, 4), rng.randint(1, 6))
        _, added = reference_closure(cubes)
        if not added:
            euclidean_complex(cubes, auto_close=False)
            continue
        missing = min(added, key=_key)
        with pytest.raises(InvalidStructureError,
                           match=re.escape(f"missing {missing.lower}..{missing.upper}")):
            euclidean_complex(cubes, auto_close=False)


# ---------------------------------------------------------------------------
# The bounding grid is built only when it is read


def _reference_bulk_image(cell, sizes):
    chunks = []
    for tok, m in zip([] if cell == "pt" else cell.split(","), sizes):
        if tok.endswith("s"):
            j = int(tok[:-1])
            chunks.append("1" * j + "x" + "0" * (m - j - 1))
        else:
            j = int(tok)
            chunks.append("1" * j + "0" * (m - j))
    return "".join(chunks)


@pytest.mark.parametrize("text", PROGRAMS)
def test_decision_and_sculpture_never_build_the_bounding_grid(monkeypatch, text):
    built = []
    real_grid = euclid.grid
    monkeypatch.setattr(euclid, "grid",
                        lambda *sizes, **kw: built.append(sizes) or real_grid(*sizes, **kw))
    emb = pv_to_complex(parse_pv(text))
    assert decide_sculptable(emb.hda).sculptable
    sc = emb.to_sculpture()
    assert built == [] and "grid" not in emb.__dict__
    # the image the bounding grid's bulk embedding gives each cell
    g = emb.grid
    assert sc.d == sum(g.sizes)
    assert sc.em == {c: _reference_bulk_image(emb.grid_map[c], g.sizes)
                     for c in emb.hda.all_cells()}
    assert set(emb.grid_map.values()) <= set(g.hda.all_cells())
    assert validate_sculpture(sc).ok
    assert emb.grid is g and built == [emb.sizes]
