"""Linear PV programs: parsing and the associated Euclidean complex.

Syntax: one process per line of whitespace-separated tokens ``P(name)`` and
``V(name)``, optionally preceded by header lines ``resource name capacity k``
(capacity defaults to 1; ``inf`` is accepted).  A grid cell survives when no
resource is over-held there; holding on a span between two positions means
holding at either end, so forbidden regions extend over every cell whose
closure touches a held position.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import (HeldAtEndError, InitialForbiddenError, PvSyntaxError,
                     UnmatchedReleaseError)
from .euclid import (ComplexEmbedding, _check_grid_limit, _grid_boxes,
                     complex_to_hda)
from .precubical import restrict_to_reachable

_TOKEN = re.compile(r"(?P<kind>[PV])\((?P<name>[A-Za-z_][A-Za-z0-9_]*)\)$")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_WORD = re.compile(r"\S+")


class PvAction(NamedTuple):
    kind: str        # "P" or "V"
    resource: str


@dataclass(frozen=True)
class PvProgram:
    resources: dict[str, float]                 # name -> capacity
    processes: tuple[tuple[PvAction, ...], ...]


def parse_pv(text: str) -> PvProgram:
    """Parse a PV program; errors carry 1-based line and column positions."""
    resources: dict[str, float] = {}
    declared: set[str] = set()   # the names of the resource lines so far
    processes: list[tuple[PvAction, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        parts = line.split()
        if parts[0] == "resource":
            if len(parts) != 4 or parts[2] != "capacity":
                raise PvSyntaxError("expected 'resource <name> capacity <k>'",
                                    lineno, 1)
            name, cols = parts[1], [m.start() + 1 for m in _WORD.finditer(line)]
            if not _NAME.match(name):
                raise PvSyntaxError(f"bad resource name {name!r}", lineno, cols[1])
            if name in declared:
                raise PvSyntaxError(f"resource {name!r} declared twice", lineno,
                                    cols[1])
            declared.add(name)
            if parts[3] == "inf":
                cap: float = float("inf")
            else:
                try:
                    cap = int(parts[3])
                except ValueError:
                    raise PvSyntaxError(f"bad capacity {parts[3]!r}", lineno,
                                        cols[3]) from None
                if cap < 1:
                    raise PvSyntaxError("capacity must be positive", lineno,
                                        cols[3])
            resources[name] = cap
            continue
        actions: list[PvAction] = []
        col = 1
        for tok in parts:
            col = line.index(tok, col - 1) + 1
            m = _TOKEN.match(tok)
            if not m:
                raise PvSyntaxError(f"bad token {tok!r}", lineno, col)
            actions.append(PvAction(m.group("kind"), m.group("name")))
            resources.setdefault(m.group("name"), 1)
        held: dict[str, int] = {}
        for i, act in enumerate(actions):
            if act.kind == "P":
                held[act.resource] = held.get(act.resource, 0) + 1
            else:
                if held.get(act.resource, 0) == 0:
                    col = 1
                    for j, tok in enumerate(parts):
                        col = line.index(tok, col - 1) + 1
                        if j == i:
                            break
                    raise UnmatchedReleaseError(
                        f"V({act.resource}) without a matching P", lineno, col)
                held[act.resource] -= 1
        leftover = sorted(r for r, n in held.items() if n)
        if leftover:
            raise HeldAtEndError(
                f"process {len(processes) + 1} ends holding {', '.join(leftover)}",
                process=len(processes), resources=leftover)
        processes.append(tuple(actions))
    return PvProgram(resources, tuple(processes))


def _holds_table(actions: Sequence[PvAction], resource: str) -> list[bool]:
    """holds[j]: the process holds ``resource`` after its first j actions."""
    count = 0
    out = [False]
    for act in actions:
        if act.resource == resource:
            count += 1 if act.kind == "P" else -1
        out.append(count > 0)
    return out


def pv_to_complex(prog: PvProgram) -> ComplexEmbedding:
    """The execution-space complex of the program, with forbidden cells removed.

    A cell assigns each process either a position j or a span from j to j+1;
    it is kept when, for every resource, the held-counts (a span counting as
    held if either end holds) sum to at most the capacity.

    The returned complex carries every kept cell.  The automaton is its
    restriction to cells reachable from the all-zero corner: forbidden
    regions can pinch off pockets that no execution enters, and automata
    are connected by convention.  A program whose grid would have more
    than ``DEFAULT_GRID_LIMIT`` cells is refused before any cell is built.
    """
    if not prog.processes:
        raise ValueError("program has no processes")
    sizes = tuple(len(p) for p in prog.processes)
    _check_grid_limit(sizes)
    holds = {r: [_holds_table(p, r) for p in prog.processes]
             for r in prog.resources}

    kept = []
    for lower, upper in _grid_boxes(sizes):
        for r, tables in holds.items():
            total = 0
            for a, b, table in zip(lower, upper, tables):
                if table[a] or table[b]:
                    total += 1
            if total > prog.resources[r]:
                break
        else:
            kept.append((lower, upper))
    origin = (0,) * len(sizes)
    if (origin, origin) not in kept:
        raise InitialForbiddenError("the all-zero corner is forbidden")
    # the keep rule is monotone under taking faces, so the set is face-closed
    emb = complex_to_hda(kept, initial=origin, auto_close=False)
    reachable = restrict_to_reachable(emb.hda)
    grid_map = {c: emb.grid_map[c] for c in reachable.all_cells()}
    return ComplexEmbedding(emb.complex, reachable, emb.sizes, grid_map,
                            emb.added_faces)
