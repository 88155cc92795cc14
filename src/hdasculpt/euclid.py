"""Grids, Euclidean cubical complexes, and their bulk embeddings.

Complexes are finite unions of elementary integer cubes, kept purely
combinatorial.  A cube is a pair of integer corner vectors whose per-axis
extents are 0 or 1; cube cells are named by per-axis tokens, "3" for the
point 3 and "3s" for the span from 3 to 4, joined with commas.  Grids and
complexes are built straight from (lower, upper) coordinate tuples.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .bulk import Sculpture
from .errors import InvalidStructureError, ResourceLimitError
from .precubical import Hda, PrecubicalSet

DEFAULT_GRID_LIMIT = 200_000
Box = tuple[tuple[int, ...], tuple[int, ...]]   # (lower, upper) corners of a cube


@dataclass(frozen=True)
class Cube:
    lower: tuple[int, ...]
    upper: tuple[int, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("corner vectors differ in length")
        for a, b in zip(self.lower, self.upper):
            if b - a not in (0, 1):
                raise ValueError(f"not an elementary cube: {self.lower}..{self.upper}")

    @property
    def directions(self) -> tuple[int, ...]:
        """0-based axes along which the cube extends, ascending."""
        return tuple(i for i, (a, b) in enumerate(zip(self.lower, self.upper)) if b > a)

    @property
    def dim(self) -> int:
        return len(self.directions)

    def cell_id(self) -> str:
        return ",".join(map(_token, self.lower, self.upper)) or "pt"

    def sort_key(self):
        return _box_key((self.lower, self.upper))


def cube(lower: Sequence[int], upper: Sequence[int]) -> Cube:
    return Cube(tuple(lower), tuple(upper))


@dataclass(frozen=True)
class EuclideanComplex:
    ambient: int
    cubes: frozenset[Cube]

    def sorted_cubes(self) -> tuple[Cube, ...]:
        return tuple(sorted(self.cubes, key=Cube.sort_key))

    def top_cells(self, n: int) -> tuple[Cube, ...]:
        return tuple(c for c in self.sorted_cubes() if c.dim == n)


def _box_key(box: Box):
    """(dim, lower, upper): the order cells are declared in."""
    return (sum(box[1]) - sum(box[0]), *box)


def _token(a: int, b: int) -> str:
    return str(a) if a == b else f"{a}s"


def face_closure(cubes: Iterable[Cube]) -> tuple[set[Cube], set[Cube]]:
    """Close a cube set under faces; returns (closed set, cubes added)."""
    closed = set(cubes)
    boxes = {(c.lower, c.upper) for c in closed}
    added: set[Box] = set()
    stack = list(boxes)
    while stack:
        lower, upper = stack.pop()
        new = {f for i, (a, b) in enumerate(zip(lower, upper)) if a != b
               for f in ((lower, upper[:i] + (a,) + upper[i + 1:]),
                         (lower[:i] + (b,) + lower[i + 1:], upper))} - boxes
        boxes |= new
        added |= new
        stack += new
    added_cubes = {Cube(*f) for f in added}
    return closed | added_cubes, added_cubes


def euclidean_complex(cubes: Iterable, auto_close: bool = True) -> tuple["EuclideanComplex", tuple[Cube, ...]]:
    """Build a face-closed complex; also reports any faces that were added."""
    normalized = {c if isinstance(c, Cube) else cube(*c) for c in cubes}
    if not normalized:
        raise ValueError("empty complex")
    ambients = {len(c.lower) for c in normalized}
    if len(ambients) != 1:
        raise ValueError("cubes live in different ambient dimensions")
    closed, added = face_closure(normalized)
    if added and not auto_close:
        missing = sorted(added, key=Cube.sort_key)[0]
        raise InvalidStructureError(
            f"cube set not closed under faces, missing {missing.lower}..{missing.upper}")
    return EuclideanComplex(ambients.pop(), frozenset(closed)), tuple(sorted(added, key=Cube.sort_key))


def _precubical(ordered: Sequence[Box]) -> PrecubicalSet:
    """The precubical set on face-closed boxes sorted by ``_box_key``: each
    cell's tokens are written once, and its k-th s (t) face is named by
    putting the lower (upper) end in place of its k-th span token."""
    cells: dict[int, list[str]] = {}
    s_faces: dict[str, tuple[str, ...]] = {}
    t_faces: dict[str, tuple[str, ...]] = {}
    for lower, upper in ordered:
        toks = list(map(_token, lower, upper))
        cid = ",".join(toks) or "pt"
        spans = [i for i, (a, b) in enumerate(zip(lower, upper)) if a != b]
        cells.setdefault(len(spans), []).append(cid)
        if spans:
            s, t = [], []
            for i in spans:
                tok, toks[i] = toks[i], toks[i][:-1]
                s.append(",".join(toks))
                toks[i] = str(upper[i])
                t.append(",".join(toks))
                toks[i] = tok
            s_faces[cid], t_faces[cid] = tuple(s), tuple(t)
    return PrecubicalSet({n: tuple(cs) for n, cs in sorted(cells.items())},
                         s_faces, t_faces)


# ---------------------------------------------------------------------------
# Grids


@dataclass(frozen=True)
class Grid:
    sizes: tuple[int, ...]
    hda: Hda


def _check_grid_limit(sizes: tuple[int, ...], max_cells: int = DEFAULT_GRID_LIMIT) -> None:
    total = math.prod(2 * m + 1 for m in sizes)
    if total > max_cells:
        raise ResourceLimitError(f"grid {sizes} has {total} cells, over {max_cells}")


def _grid_boxes(sizes: Sequence[int]) -> Iterator[Box]:
    """Every cell of the grid with these sizes, as a box."""
    axes = [[(j, j) for j in range(m + 1)] + [(j, j + 1) for j in range(m)]
            for m in sizes]
    return (tuple(zip(*p)) or ((), ()) for p in itertools.product(*axes))


def grid(*sizes: int, max_cells: int = DEFAULT_GRID_LIMIT) -> Grid:
    """The full box with the given number of top cubes along each axis."""
    if any(m < 1 for m in sizes):
        raise ValueError("grid sizes must be positive")
    _check_grid_limit(sizes, max_cells)
    base = _precubical(sorted(_grid_boxes(sizes), key=_box_key))
    return Grid(tuple(sizes), Hda(base, ",".join(["0"] * len(sizes)) or "pt"))


def make_grid(*sizes: int, max_cells: int = DEFAULT_GRID_LIMIT) -> Hda:
    return grid(*sizes, max_cells=max_cells).hda


def _bulk_image(cell: str, sizes: Sequence[int]) -> str:
    """The bulk image of a grid cell, one event per unit step of each axis.

    Along axis k at position j, the first j of that axis' events are done,
    the (j+1)-th runs exactly on the span from j to j+1, the rest have not
    started.
    """
    chunks = []
    for tok, m in zip(cell.split(","), sizes):
        j = int(tok.rstrip("s"))
        chunks.append("1" * j + ("x" + "0" * (m - j - 1) if tok.endswith("s") else "0" * (m - j)))
    return "".join(chunks)


def grid_to_bulk(g: Grid) -> Sculpture:
    """Embed a grid into the bulk with one event per unit step of each axis."""
    return Sculpture(g.hda, sum(g.sizes),
                     {c: _bulk_image(c, g.sizes) for c in g.hda.all_cells()})


# ---------------------------------------------------------------------------
# Complexes as automata


@dataclass(frozen=True)
class ComplexEmbedding:
    """An HDA built from a complex, with its bounding-grid embedding; the
    grid, of ``sizes``, is built only when ``grid`` is read."""

    complex: EuclideanComplex
    hda: Hda
    sizes: tuple[int, ...]
    grid_map: Mapping[str, str]   # complex cell id -> grid cell id
    added_faces: tuple[Cube, ...]

    @cached_property
    def grid(self) -> Grid:
        return grid(*self.sizes)

    def to_sculpture(self) -> Sculpture:
        return Sculpture(self.hda, sum(self.sizes),
                         {c: _bulk_image(self.grid_map[c], self.sizes)
                          for c in self.hda.all_cells()})


def complex_to_hda(cubes: Iterable, initial: Sequence[int] | None = None,
                   auto_close: bool = True) -> ComplexEmbedding:
    """Read a cube set as an HDA embedded in its bounding grid.

    ``initial`` designates the initial vertex by its coordinates; by default
    the minimal corner of the bounding box is used, which must be present.
    Axes along which the complex is flat are projected away in the grid.
    """
    comp, added = euclidean_complex(cubes, auto_close=auto_close)
    ordered = sorted(((c.lower, c.upper) for c in comp.cubes), key=_box_key)
    lo = tuple(map(min, zip(*(lower for lower, _ in ordered))))
    hi = tuple(map(max, zip(*(upper for _, upper in ordered))))
    axes = [i for i in range(comp.ambient) if hi[i] > lo[i]]
    if initial is None:
        initial = lo
    init_cube = Cube(tuple(initial), tuple(initial))
    if init_cube not in comp.cubes:
        raise ValueError(f"initial vertex {tuple(initial)} is not in the complex")
    base = _precubical(ordered)
    # all_cells() lists the cells in the order of ``ordered``
    grid_map = {cid: ",".join(_token(lower[i] - lo[i], upper[i] - lo[i])
                              for i in axes) or "pt"
                for cid, (lower, upper) in zip(base.all_cells(), ordered)}
    return ComplexEmbedding(comp, Hda(base, init_cube.cell_id()),
                            tuple(hi[i] - lo[i] for i in axes), grid_map, added)


def sculpture_to_complex(s: Sculpture) -> EuclideanComplex:
    """Reinterpret bulk coordinates as unit-cube corners in the integer lattice."""
    cubes = set()
    for cell in s.hda.all_cells():
        img = s.em[cell]
        lower = tuple(1 if ch == "1" else 0 for ch in img)
        upper = tuple(0 if ch == "0" else 1 for ch in img)
        cubes.add(Cube(lower, upper))
    return EuclideanComplex(s.d, frozenset(cubes))


# ---------------------------------------------------------------------------
# JSON


def complex_to_json(c: EuclideanComplex) -> dict:
    return {"cubes": [{"a": list(q.lower), "b": list(q.upper)}
                      for q in c.sorted_cubes()]}
