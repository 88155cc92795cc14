"""Workload inputs and the untraced pipeline: raw input to verdict JSON.

Each instance is decided the way a user of the command line would decide
it: build or load the automaton, call ``decide_sculptable`` and render the
verdict with ``verdict_to_json`` (with the universal events, as the
``check`` command does) to JSON text.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# PV programs whose decision needs real branching.
PV_SEARCH = {
    "mutex3": "P(a) V(a)\n" * 3,
    "ring3": "P(a) P(b) V(a) V(b)\nP(b) P(c) V(b) V(c)\nP(c) P(a) V(c) V(a)\n",
    "two_mutex": "P(a) P(b) V(b) V(a)\nP(b) P(a) V(a) V(b)\n",
    "two_mutex_tail": ("P(a) P(b) V(b) V(a) P(c) V(c)\n"
                       "P(b) P(a) V(a) V(b) P(c) V(c)\n"),
    "mutex4": "P(a) V(a)\n" * 4,
}
# Node budget for mutex4.  Its repair search finds a clause-3 clash only at
# leaves and learns nothing from it, so it runs out of any practical budget
# although its grid certificate validates; the operation is counted failed.
BUDGETS = {"mutex4": 1000}

# Search-free instances, each decided in one search node.
GRID_SIZES = [(10, 10), (20, 20), (4, 4, 4), (6, 6, 6), (2, 2, 2, 2), (3, 3, 3, 3)]
GRID_PV = {
    "distinct3": "P(a) V(a)\nP(b) V(b)\nP(c) V(c)\n",
    "capacity2": "resource a capacity 2\n" + "P(a) V(a)\n" * 3,
}

# The random batch is fixed: its seed decides how many instances exhaust
# the repair search and fall back to the exhaustive oracle (0 to 2 per 300
# over seeds 1-10, each costing 0.15-6 s), which would swamp every
# seed-to-seed comparison.  The run seed orders the instances instead.
BATCH_SEED, BATCH_COUNT, BATCH_MAX_EVENTS = 7, 300, 10

WORKLOADS = ("pv_grid", "small_mixed")


@dataclass(frozen=True)
class Instance:
    name: str
    kind: str            # "pv" (PV text), "grid" (sizes) or "json" (HDA JSON text)
    raw: object
    budget: int | None = None
    expected: dict | None = None   # a corpus file's hand-written expectations


def build_inputs(lib, workload: str, seed: int, root: Path) -> list[Instance]:
    if workload == "pv_grid":
        out = [Instance(n, "pv", t, BUDGETS.get(n)) for n, t in PV_SEARCH.items()]
        out += [Instance("grid" + "x".join(map(str, s)), "grid", s) for s in GRID_SIZES]
        out += [Instance(n, "pv", t) for n, t in GRID_PV.items()]
    elif workload == "small_mixed":
        out = []
        for path in sorted((root / "corpus").glob("*.json")):
            data = json.loads(path.read_text())
            out.append(Instance("corpus/" + path.stem, "json",
                                json.dumps(data["hda"]), expected=data["expected"]))
        batch = lib.randgen.random_hda_batch(BATCH_SEED, BATCH_COUNT,
                                             max_events=BATCH_MAX_EVENTS)
        out += [Instance(f"random{i}", "json", json.dumps(lib.pkg.hda_to_json(h)))
                for i, h in enumerate(batch)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(out)
    return out


def automaton(lib, inst: Instance):
    if inst.kind == "pv":
        return lib.pkg.pv_to_complex(lib.pkg.parse_pv(inst.raw)).hda
    if inst.kind == "grid":
        return lib.pkg.make_grid(*inst.raw)
    return lib.pkg.hda_from_json(json.loads(inst.raw))


def decide(lib, inst: Instance) -> str:
    """Raw input to verdict JSON text, through the public pipeline."""
    h = automaton(lib, inst)
    kwargs = {} if inst.budget is None else {"node_budget": inst.budget}
    verdict = lib.pkg.decide_sculptable(h, **kwargs)
    return json.dumps(lib.pkg.verdict_to_json(verdict, lib.pkg.universal_events(h.base)))
