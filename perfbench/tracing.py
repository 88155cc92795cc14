"""The traced pipeline: each layer's public call timed from outside.

``decide_traced`` makes the calls ``decide_sculptable`` makes, in the same
order and with the same defaults (``lib.defaults``), and records a span
around each one.  The repair search and the oracle are called separately,
because after a fallback ``Verdict.nodes_explored`` keeps only the oracle's
partition count.
"""

from __future__ import annotations

import json
from time import perf_counter

# layer span names; each reports its self time as "<name>_s"
LAYERS = ("pv.build", "euclid.build", "precubical.from_json",
          "precubical.validate", "precubical.connected", "events.universal",
          "events.ordered", "decision.covering", "decision.repair",
          "decision.oracle", "bulk.certificate", "decision.verdict_json")
COUNTS = ("pv.cells", "euclid.cells", "events.classes",
          "decision.covering_configs", "decision.repair_nodes",
          "decision.oracle_partitions", "decision.budget_exhausted")


class Tracer:
    """Spans and counts kept in memory; spans carry their instance's id."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, int, str, float, float]] = []
        self.counts: dict[str, float] = dict.fromkeys(COUNTS, 0)
        self.next_id = 0

    def span(self, name: str, instance: int, parent: int | None = None):
        return _Span(self, name, instance, parent)

    def count(self, name: str, n: float) -> None:
        self.counts[name] += n

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the children's."""
        child_time: dict[int, float] = {}
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        out: dict[str, float] = {}
        for sid, _, _, name, start, end in self.spans:
            out[name] = out.get(name, 0.0) + end - start - child_time.get(sid, 0.0)
        return out

    def to_json(self) -> list[dict]:
        return [{"id": sid, "parent": parent, "instance": inst, "name": name,
                 "start": start, "end": end}
                for sid, parent, inst, name, start, end in self.spans]


class _Span:
    __slots__ = ("tracer", "name", "instance", "parent", "id", "start")

    def __init__(self, tracer, name, instance, parent):
        self.tracer, self.name = tracer, name
        self.instance, self.parent = instance, parent

    def __enter__(self):
        self.id = self.tracer.next_id
        self.tracer.next_id += 1
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer.spans.append((self.id, self.parent, self.instance,
                                  self.name, self.start, perf_counter()))
        return False


def decide_traced(lib, inst, tracer: Tracer, iid: int) -> str:
    pkg, defaults = lib.pkg, lib.defaults
    with tracer.span("instance", iid) as root:
        def span(name):
            return tracer.span(name, iid, root.id)

        if inst.kind == "pv":
            with span("pv.build"):
                h = pkg.pv_to_complex(pkg.parse_pv(inst.raw)).hda
            tracer.count("pv.cells", h.base.size())
        elif inst.kind == "grid":
            with span("euclid.build"):
                h = pkg.make_grid(*inst.raw)
            tracer.count("euclid.cells", h.base.size())
        else:
            data = json.loads(inst.raw)
            with span("precubical.from_json"):
                h = pkg.hda_from_json(data)
        with span("precubical.validate"):
            report = pkg.validate_hda(h)
        if not report.ok:
            raise pkg.InvalidStructureError(str(report), report)
        with span("precubical.connected"):
            connected = pkg.is_connected(h)
        if not connected:
            raise pkg.NotConnectedError("automaton is not connected")
        with span("events.universal"):
            ue = pkg.universal_events(h.base)
        tracer.count("events.classes", len(ue.reps))
        with span("events.ordered"):
            ordered, cycle = pkg.is_ordered(h.base, ue)
        if ordered:
            budget = inst.budget or defaults["node_budget"]
            verdict = _search(pkg, h, ue, span, tracer, budget,
                              defaults["max_events"])
        else:
            verdict = pkg.Verdict(False, witness=pkg.Witness(
                "not_ordered", cycle=tuple(cycle)))
        with span("decision.verdict_json"):
            return json.dumps(pkg.verdict_to_json(verdict,
                                                  pkg.universal_events(h.base)))


def _search(pkg, h, ue, span, tracer: Tracer, budget: int, max_events: int):
    try:
        with span("decision.covering"):
            covering = pkg.path_covering(h, ue)
    except pkg.RepeatingEventsError as exc:
        return pkg.Verdict(False, witness=pkg.Witness("repeating_events", path=exc.path))
    except pkg.CyclicError as exc:
        return pkg.Verdict(False, witness=pkg.Witness("cyclic", cells=tuple(exc.pair)))
    tracer.count("decision.covering_configs",
                 sum(len(cs) for cs in covering.configs.values()))
    try:
        with span("decision.repair"):
            verdict = pkg.repair_search(h, covering, node_budget=budget)
    except pkg.ResourceLimitError:
        tracer.count("decision.budget_exhausted", 1)
        tracer.count("decision.repair_nodes", budget)
        raise
    tracer.count("decision.repair_nodes", verdict.nodes_explored)
    if (not verdict.sculptable and verdict.witness is not None
            and verdict.witness.kind == "exhausted"):
        if len(ue.reps) <= max_events:
            with span("decision.oracle"):
                verdict = pkg.brute_force_search(h, covering, max_events=max_events)
            tracer.count("decision.oracle_partitions", verdict.nodes_explored)
        else:
            verdict.heuristic_incomplete = True
    if verdict.sculptable:
        with span("bulk.certificate"):
            cert = pkg.validate_sculpture(verdict.sculpture)
        if not cert.ok:
            raise pkg.InvalidStructureError(
                f"internal error: certificate failed validation: {cert}", cert)
    return verdict


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times and counts of one traced round."""
    self_times = tracer.self_times()
    out = {f"{name}_s": self_times.get(name, 0.0) for name in LAYERS}
    out["trace.self_s"] = self_times.get("instance", 0.0)
    out.update(tracer.counts)
    nodes = tracer.counts["decision.repair_nodes"]
    out["decision.repair_ms_per_node"] = (
        1000 * out["decision.repair_s"] / nodes if nodes else 0.0)
    return out
