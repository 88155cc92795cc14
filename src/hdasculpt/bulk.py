"""Bulks, sculptures, and the translations between sculptures and ST-structures.

A bulk cell is written as a string over "0x1"; its dimension is the number
of x characters, the k-th lower face turns the k-th x into 0 and the k-th
upper face turns it into 1.  The initial cell is the all-zero string.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

from .errors import InvalidStructureError, NotRegularError, ResourceLimitError
from .events import EventPartition, UniversalEvents, universal_events
from .precubical import (Hda, PrecubicalSet, Problem, ValidationReport,
                         check_json_shape, hda_from_json, validate_hda)
from .st_chu import (StStructure, check_regular, chu_string_to_config,
                     config_to_chu_string)

DEFAULT_BULK_LIMIT = 3 ** 12
_BULK_CHARS = frozenset("0x1")


def bulk_dim(cell: str) -> int:
    return cell.count("x")


def bulk_face(cell: str, alpha: str, k: int) -> str:
    """Set the k-th x of ``cell`` to 0 (alpha = s) or 1 (alpha = t)."""
    positions = [i for i, ch in enumerate(cell) if ch == "x"]
    p = positions[k - 1]
    return cell[:p] + ("0" if alpha == "s" else "1") + cell[p + 1:]


def bulk_s(cell: str, k: int) -> str:
    return bulk_face(cell, "s", k)


def bulk_t(cell: str, k: int) -> str:
    return bulk_face(cell, "t", k)


def make_bulk(d: int, max_cells: int = DEFAULT_BULK_LIMIT) -> Hda:
    """The full d-cube with all of its faces, as an HDA."""
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    if 3 ** d > max_cells:
        raise ResourceLimitError(f"bulk of dimension {d} exceeds {max_cells} cells")
    by_dim: dict[int, list[str]] = {n: [] for n in range(d + 1)}
    for tup in itertools.product("0x1", repeat=d):
        cell = "".join(tup)
        by_dim[bulk_dim(cell)].append(cell)
    s_faces, t_faces = {}, {}
    for n in range(1, d + 1):
        for cell in by_dim[n]:
            s_faces[cell] = tuple(bulk_s(cell, k) for k in range(1, n + 1))
            t_faces[cell] = tuple(bulk_t(cell, k) for k in range(1, n + 1))
    cells = {n: tuple(cs) for n, cs in by_dim.items()}
    return Hda(PrecubicalSet(cells, s_faces, t_faces), "0" * d)


@dataclass(frozen=True)
class Sculpture:
    """An HDA with an injective initial-preserving embedding into a bulk.

    The embedding is a mapping from cells to bulk tuple strings; the target
    bulk is never materialized, faces of image cells are computed on the
    strings directly.
    """

    hda: Hda
    d: int
    em: Mapping[str, str]


def validate_sculpture(s: Sculpture) -> ValidationReport:
    """Problems with the embedding; only the HDA's when the HDA itself fails."""
    report = validate_hda(s.hda)
    return validate_images(s) if report.ok else report


def validate_images(s: Sculpture) -> ValidationReport:
    """Problems with the embedding of an HDA already known to be valid.

    Each image's x positions are found once, and its faces are written
    from them, against the images of the cell's faces read off the HDA's
    face tables.
    """
    problems = []
    seen: dict[str, str] = {}
    em, base = s.em, s.hda.base
    for n in sorted(base.cells):
        for c in base.cells[n]:
            img = em.get(c)
            if img is None:
                problems.append(Problem("not_total", c, "cell has no bulk image"))
                continue
            if len(img) != s.d or not _BULK_CHARS.issuperset(img):
                problems.append(Problem("bad_image", c,
                                        f"image {img!r} not a valid tuple"))
                continue
            xs, p = [], img.find("x")
            while p >= 0:
                xs.append(p)
                p = img.find("x", p + 1)
            if len(xs) != n:
                problems.append(Problem(
                    "dimension", c,
                    f"image {img!r} has dimension {len(xs)}, cell has {n}"))
                continue
            if img in seen:
                problems.append(Problem(
                    "not_injective", c,
                    f"cells {seen[img]!r} and {c!r} share image {img!r}", (seen[img], c)))
            seen.setdefault(img, c)
            if not n:
                continue
            faces = (("s", "0", base.s_faces[c]), ("t", "1", base.t_faces[c]))
            for k, p in enumerate(xs, 1):
                for alpha, ch, cell_faces in faces:
                    want = em.get(cell_faces[k - 1])
                    got = img[:p] + ch + img[p + 1:]
                    if want != got:
                        problems.append(Problem(
                            "face_commutation", c,
                            f"{alpha}_{k}: bulk face {got!r} != image of face {want!r}",
                            (alpha, k)))
    img_init = em.get(s.hda.initial)
    if img_init != "0" * s.d:
        problems.append(Problem("initial", s.hda.initial,
                                f"initial maps to {img_init!r}, expected all zeros"))
    return ValidationReport(tuple(problems))


# ---------------------------------------------------------------------------
# Translations with ST-structures


def st_to_sculpture(s: StStructure) -> Sculpture:
    """Realize a regular ordered ST-structure as cells of the bulk it spans.

    Each configuration becomes one cell, named by its tuple string; face
    maps are the bulk face maps, which stay inside the structure because it
    is closed under single events.
    """
    report = check_regular(s)
    if not report.regular:
        flags = {"rooted": report.rooted, "connected": report.connected,
                 "closed_under_single_events": report.closed_under_single_events}
        raise NotRegularError(f"not regular: {flags}", flags)
    d = len(s.events)
    cells_by_dim: dict[int, list[str]] = {}
    for cfg in s.sorted_configs():
        cell = config_to_chu_string(cfg, s.events)
        cells_by_dim.setdefault(bulk_dim(cell), []).append(cell)
    s_faces, t_faces = {}, {}
    for n, cs in cells_by_dim.items():
        if n == 0:
            continue
        for cell in cs:
            s_faces[cell] = tuple(bulk_s(cell, k) for k in range(1, n + 1))
            t_faces[cell] = tuple(bulk_t(cell, k) for k in range(1, n + 1))
    base = PrecubicalSet({n: tuple(cs) for n, cs in sorted(cells_by_dim.items())},
                         s_faces, t_faces)
    h = Hda(base, "0" * d)
    return Sculpture(h, d, {c: c for c in base.all_cells()})


def sculpture_to_st(s: Sculpture) -> StStructure:
    """Read every cell's bulk coordinates as an ST-configuration."""
    events = tuple(f"e{i + 1}" for i in range(s.d))
    configs = frozenset(
        chu_string_to_config(s.em[c], events) for c in s.hda.all_cells())
    return StStructure(events, configs)


def simplify_sculpture(s: Sculpture) -> Sculpture:
    """Drop bulk coordinates that stay 0 across the whole image."""
    used = [i for i in range(s.d)
            if any(s.em[c][i] != "0" for c in s.hda.all_cells())]
    if len(used) == s.d:
        return s
    em = {c: "".join(s.em[c][i] for i in used) for c in s.hda.all_cells()}
    return Sculpture(s.hda, len(used), em)


def event_equiv_sculpt(s: Sculpture, ue: UniversalEvents | None = None) -> EventPartition:
    """Partition universal labels by the bulk coordinate their edges run in."""
    if ue is None:
        ue = universal_events(s.hda.base)
    coord_of_rep: dict[str, int] = {}
    for rep, cls in zip(ue.reps, ue.classes):
        coords = {s.em[e].index("x") for e in cls}
        if len(coords) != 1:
            raise ValueError(f"embedding splits event class of {rep!r}")
        coord_of_rep[rep] = coords.pop()
    groups: dict[int, set[str]] = {}
    for rep, coord in coord_of_rep.items():
        groups.setdefault(coord, set()).add(rep)
    return tuple(frozenset(groups[c]) for c in sorted(groups))


def sculptures_isomorphic(a: Sculpture, b: Sculpture) -> bool:
    """Same bulk, identical image, and the induced cell pairing is an HDA iso."""
    if a.d != b.d:
        return False
    image_a = {a.em[c]: c for c in a.hda.all_cells()}
    image_b = {b.em[c]: c for c in b.hda.all_cells()}
    if set(image_a) != set(image_b):
        return False
    pairing = {image_a[img]: image_b[img] for img in image_a}
    if pairing.get(a.hda.initial) != b.hda.initial:
        return False
    for c in a.hda.all_cells():
        if a.hda.dim(c) != b.hda.dim(pairing[c]):
            return False
        for k in range(1, a.hda.dim(c) + 1):
            for alpha in "st":
                if pairing[a.hda.face(alpha, k, c)] != b.hda.face(alpha, k, pairing[c]):
                    return False
    return True


# ---------------------------------------------------------------------------
# JSON


def sculpture_to_json(s: Sculpture) -> dict:
    from .precubical import hda_to_json
    return {"hda": hda_to_json(s.hda), "d": s.d,
            "em": {c: s.em[c] for c in s.hda.all_cells()}}


def sculpture_from_json(data: Mapping) -> Sculpture:
    check_json_shape("sculpture", data, {"hda": dict, "d": int, "em": {str: str}})
    sc = Sculpture(hda_from_json(data["hda"]), data["d"], dict(data["em"]))
    report = validate_sculpture(sc)
    if not report.ok:
        raise InvalidStructureError(f"invalid sculpture: {report}", report)
    return sc
