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
from operator import add, le
from typing import NamedTuple

from .errors import (HeldAtEndError, InitialForbiddenError, PvSyntaxError,
                     UnmatchedReleaseError)
from .euclid import ComplexEmbedding, _check_grid_limit, complex_to_hda
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
    index = {r: i for i, r in enumerate(prog.resources)}
    capacity = tuple(prog.resources.values())
    # process by process, the kept prefixes in grid order: their lower and
    # upper corners and each resource's held count; counts only grow along
    # the axes, so a prefix over capacity has no kept extension
    prefixes = [((), (), (0,) * len(capacity))]
    for actions in prog.processes:
        count = [0] * len(capacity)
        held = [(0,) * len(capacity)]   # held[j]: after the first j actions
        for act in actions:
            count[index[act.resource]] += 1 if act.kind == "P" else -1
            held.append(tuple(int(c > 0) for c in count))
        options = [(j, j, held[j]) for j in range(len(held))]
        options += [(j, j + 1, tuple(map(max, held[j], held[j + 1])))
                    for j in range(len(actions))]
        step = []
        for lower, upper, counts in prefixes:
            for a, b, holds in options:
                total = tuple(map(add, counts, holds))
                if all(map(le, total, capacity)):
                    step.append((lower + (a,), upper + (b,), total))
        prefixes = step
    kept = [(lower, upper) for lower, upper, _ in prefixes]
    origin = (0,) * len(sizes)
    if (origin, origin) not in kept:
        raise InitialForbiddenError("the all-zero corner is forbidden")
    # the keep rule is monotone under taking faces, so the set is face-closed
    emb = complex_to_hda(kept, initial=origin, auto_close=False)
    reachable = restrict_to_reachable(emb.hda)
    grid_map = {c: emb.grid_map[c] for c in reachable.all_cells()}
    return ComplexEmbedding(emb.complex, reachable, emb.sizes, grid_map,
                            emb.added_faces)
