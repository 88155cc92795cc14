"""ST-structures and Chu spaces over the three truth values 0, x, 1.

A configuration is a pair of event sets (started, terminated) with
terminated contained in started.  Chu states are strings over the alphabet
"0x1", one character per event in the structure's event order, where "x"
marks a started-but-unfinished event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import NonExtensionalError
from .events import class_indices
from .precubical import check_json_shape

CHU_VALUES = "0x1"


@dataclass(frozen=True)
class StConfig:
    started: frozenset[str]
    terminated: frozenset[str]

    def __post_init__(self):
        if not self.terminated <= self.started:
            raise ValueError("terminated events must be a subset of started events")

    @property
    def running(self) -> frozenset[str]:
        return self.started - self.terminated

    def sort_key(self):
        return (len(self.started), tuple(sorted(self.started)),
                len(self.terminated), tuple(sorted(self.terminated)))

    def __repr__(self):
        s = ",".join(sorted(self.started))
        t = ",".join(sorted(self.terminated))
        return f"({{{s}}},{{{t}}})"


def config(started: Iterable[str], terminated: Iterable[str]) -> StConfig:
    return StConfig(frozenset(started), frozenset(terminated))


@dataclass(frozen=True)
class StStructure:
    events: tuple[str, ...]
    configs: frozenset[StConfig]

    def __post_init__(self):
        evs = set(self.events)
        if len(evs) != len(self.events):
            raise ValueError("repeated event names")
        for c in self.configs:
            if not c.started <= evs:
                raise ValueError(f"config {c} uses unknown events")

    def sorted_configs(self) -> tuple[StConfig, ...]:
        return tuple(sorted(self.configs, key=StConfig.sort_key))


def st(events: Sequence[str], configs: Iterable) -> StStructure:
    normalized = frozenset(
        c if isinstance(c, StConfig) else config(c[0], c[1]) for c in configs)
    return StStructure(tuple(events), normalized)


def complete_st(d: int, names: Sequence[str] | None = None) -> StStructure:
    """All configurations over d events (the bulk, as an ST-structure)."""
    events = tuple(names) if names is not None else tuple(f"e{i + 1}" for i in range(d))
    configs = set()
    for smask in range(1 << d):
        started = frozenset(events[i] for i in range(d) if smask >> i & 1)
        sub = sorted(started)
        for tmask in range(1 << len(sub)):
            terminated = frozenset(sub[i] for i in range(len(sub)) if tmask >> i & 1)
            configs.add(StConfig(started, terminated))
    return StStructure(events, frozenset(configs))


@dataclass(frozen=True)
class ChuSpace3:
    events: tuple[str, ...]
    states: frozenset[str]

    def __post_init__(self):
        if len(set(self.events)) != len(self.events):
            raise ValueError("repeated event names")
        for x in self.states:
            if len(x) != len(self.events) or any(ch not in CHU_VALUES for ch in x):
                raise ValueError(f"bad state {x!r}")


# ---------------------------------------------------------------------------
# Regularity


@dataclass(frozen=True)
class RegularityReport:
    rooted: bool
    connected: bool
    closed_under_single_events: bool
    unreachable: tuple[StConfig, ...] = ()
    missing: tuple[tuple[StConfig, str, StConfig], ...] = ()

    @property
    def regular(self) -> bool:
        return self.rooted and self.connected and self.closed_under_single_events


def single_event_steps(s: StStructure, c: StConfig):
    """Configurations one s- or t-step after ``c`` that are present in ``s``."""
    out = []
    for e in s.events:
        if e not in c.started:
            cand = StConfig(c.started | {e}, c.terminated)
            if cand in s.configs:
                out.append(cand)
        if e in c.running:
            cand = StConfig(c.started, c.terminated | {e})
            if cand in s.configs:
                out.append(cand)
    return out


def check_regular(s: StStructure) -> RegularityReport:
    root = StConfig(frozenset(), frozenset())
    rooted = root in s.configs
    reached: set[StConfig] = set()
    if rooted:
        stack = [root]
        reached.add(root)
        while stack:
            c = stack.pop()
            for nxt in single_event_steps(s, c):
                if nxt not in reached:
                    reached.add(nxt)
                    stack.append(nxt)
    unreachable = tuple(sorted(s.configs - reached, key=StConfig.sort_key))
    missing: list[tuple[StConfig, str, StConfig]] = []
    for c in sorted(s.configs, key=StConfig.sort_key):
        for e in sorted(c.running):
            up = StConfig(c.started, c.terminated | {e})
            down = StConfig(c.started - {e}, c.terminated)
            if up not in s.configs:
                missing.append((c, e, up))
            if down not in s.configs:
                missing.append((c, e, down))
    return RegularityReport(
        rooted=rooted,
        connected=not unreachable,
        closed_under_single_events=not missing,
        unreachable=unreachable,
        missing=tuple(missing))


# ---------------------------------------------------------------------------
# Quotients

def quotient_st(s: StStructure, parts: Iterable[Iterable[str]]) -> StStructure:
    """Quotient events by the partition; configurations map setwise."""
    index = class_indices(s.events, parts)
    rep = {e: s.events[i] for e, i in zip(s.events, index)}
    configs = frozenset(
        StConfig(frozenset(rep[e] for e in c.started),
                 frozenset(rep[e] for e in c.terminated))
        for c in s.configs)
    return StStructure(tuple(s.events[i] for i in sorted(set(index))), configs)


def is_collapsing(s: StStructure, parts: Iterable[Iterable[str]]):
    """True iff some configuration starts two distinct equivalent events."""
    index = dict(zip(s.events, class_indices(s.events, parts)))
    for c in sorted(s.configs, key=StConfig.sort_key):
        by_class: dict[int, str] = {}
        for e in sorted(c.started):
            if index[e] in by_class:
                return True, (c, by_class[index[e]], e)
            by_class[index[e]] = e
    return False, None


# ---------------------------------------------------------------------------
# Chu translations


def config_to_chu_string(c: StConfig, events: Sequence[str]) -> str:
    chars = []
    for e in events:
        if e in c.terminated:
            chars.append("1")
        elif e in c.started:
            chars.append("x")
        else:
            chars.append("0")
    return "".join(chars)


def chu_string_to_config(x: str, events: Sequence[str]) -> StConfig:
    started = frozenset(e for e, ch in zip(events, x) if ch != "0")
    terminated = frozenset(e for e, ch in zip(events, x) if ch == "1")
    return StConfig(started, terminated)


def st_to_chu(s: StStructure) -> ChuSpace3:
    return ChuSpace3(s.events,
                     frozenset(config_to_chu_string(c, s.events) for c in s.configs))


def chu_to_st(c: ChuSpace3) -> StStructure:
    return StStructure(c.events,
                       frozenset(chu_string_to_config(x, c.events) for x in c.states))


def is_separable(c: ChuSpace3) -> bool:
    """True iff no two event rows of the matrix coincide."""
    states = sorted(c.states)
    rows = [tuple(x[i] for x in states) for i in range(len(c.events))]
    return len(set(rows)) == len(rows)


def st_isomorphic(a: StStructure, b: StStructure) -> bool:
    """Isomorphism of ordered ST-structures: match events by position."""
    if len(a.events) != len(b.events):
        return False
    rename = dict(zip(a.events, b.events))
    mapped = frozenset(
        StConfig(frozenset(rename[e] for e in c.started),
                 frozenset(rename[e] for e in c.terminated))
        for c in a.configs)
    return mapped == b.configs


def validate_st_morphism(src: StStructure, dst: StStructure,
                         mapping: Mapping[str, str],
                         ordered: bool = True) -> list[str]:
    """Problems with a partial event map as a morphism of ST-structures.

    Checks configuration preservation and totality plus injectivity on each
    started set; with ``ordered`` the map must also be increasing on event
    positions wherever defined.
    """
    problems: list[str] = []
    for e, img in mapping.items():
        if e not in src.events:
            problems.append(f"unknown source event {e!r}")
        if img not in dst.events:
            problems.append(f"unknown target event {img!r}")
    if problems:
        return problems
    for c in sorted(src.configs, key=StConfig.sort_key):
        undefined = [e for e in c.started if e not in mapping]
        if undefined:
            problems.append(f"not total on {c}: {sorted(undefined)}")
            continue
        if len({mapping[e] for e in c.started}) != len(c.started):
            problems.append(f"not injective on {c}")
            continue
        image = StConfig(frozenset(mapping[e] for e in c.started),
                         frozenset(mapping[e] for e in c.terminated))
        if image not in dst.configs:
            problems.append(f"image {image} of {c} missing")
    if ordered:
        pos_src = {e: i for i, e in enumerate(src.events)}
        pos_dst = {e: i for i, e in enumerate(dst.events)}
        defined = sorted(mapping, key=pos_src.__getitem__)
        for e1, e2 in zip(defined, defined[1:]):
            if pos_dst[mapping[e1]] >= pos_dst[mapping[e2]]:
                problems.append(f"order not preserved on {e1!r} < {e2!r}")
    return problems


# ---------------------------------------------------------------------------
# JSON and text export


def st_to_json(s: StStructure) -> dict:
    return {
        "events": list(s.events),
        "configs": [[sorted(c.started), sorted(c.terminated)]
                    for c in s.sorted_configs()],
    }


def st_from_json(data: Mapping) -> StStructure:
    check_json_shape("ST", data, {"events": [str], "configs": [([str], [str])]})
    return st(data["events"], data["configs"])


def chu_to_json(c: ChuSpace3) -> dict:
    return {"events": list(c.events), "states": sorted(c.states)}


def chu_from_json(data: Mapping) -> ChuSpace3:
    check_json_shape("Chu", data, {"events": [str], "states": [str]})
    states = data["states"]
    if len(set(states)) != len(states):
        raise NonExtensionalError("duplicate states in Chu space")
    return ChuSpace3(tuple(data["events"]), frozenset(states))


def chu_to_text(c: ChuSpace3) -> str:
    """Plain-text matrix, one row per event, one column per state."""
    states = sorted(c.states)
    width = max((len(e) for e in c.events), default=0)
    lines = [" " * width + " " + " ".join(str(i) for i in range(len(states)))]
    for i, e in enumerate(c.events):
        row = " ".join(x[i] for x in states)
        lines.append(f"{e:<{width}} {row}")
    return "\n".join(lines)
