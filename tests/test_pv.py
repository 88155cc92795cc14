"""PV parsing and the execution-space complex."""

import itertools
import re

import pytest

from hdasculpt import (HeldAtEndError, PvSyntaxError, ResourceLimitError,
                       UnmatchedReleaseError, decide_sculptable, is_connected,
                       parse_pv, partition_to_json, pv_to_complex,
                       universal_events)

TWO_MUTEX = "P(a) P(b) V(b) V(a)\nP(b) P(a) V(a) V(b)\n"
BRANCHING = {
    "two_mutex": TWO_MUTEX,
    "two_mutex_tail": ("P(a) P(b) V(b) V(a) P(c) V(c)\n"
                       "P(b) P(a) V(a) V(b) P(c) V(c)\n"),
    "ring3": "P(a) P(b) V(a) V(b)\nP(b) P(c) V(b) V(c)\nP(c) P(a) V(c) V(a)\n",
    "mutex4": "P(a) V(a)\n" * 4,
}

# The partition each branching program's repair search returns, one class a
# string of its member edges; pinned so that a change to which conflict a
# node repairs, or to the order of its children, shows.
PARTITIONS = {
    "two_mutex": [
        "0,0s 1,0s 2s,0",
        "0,1s 1s,0",
        "0,2s 3,0s 4,0s",
        "0,3s 1,3s 3s,0 3s,1",
        "0s,0 0s,1 3s,4",
        "0s,3 0s,4 4,1s",
        "1s,4 4,2s",
        "2s,4 4,3s",
    ],
    "two_mutex_tail": [
        "0,0s 1,0s 3,0s 4,0s 5,0s 6,0s",
        "0,1s 4,1s 5,1s 6,1s",
        "0,2s 4,2s 5,2s 6,2s",
        "0,3s 1,3s 4,3s 5,3s 6,3s",
        "0,4s 1,4s 2,4s 3,4s 4,4s 6,5s",
        "0,5s 1,5s 2,5s 3,5s 4,5s 4s,0 4s,1 4s,2 4s,3 4s,4",
        "0s,0 0s,1 0s,3 0s,4 0s,5 0s,6",
        "1s,0 1s,4 1s,5 1s,6",
        "2s,0 2s,4 2s,5 2s,6",
        "3s,0 3s,1 3s,4 3s,5 3s,6",
        "4s,6 5s,0 5s,1 5s,2 5s,3 5s,4",
        "5s,6 6,4s",
    ],
    "ring3": [
        ("0,0,0s 0,1,0s 0,3s,0 1,0,0s 1,1,0s 1,3s,0 2,0,0s 2,3s,0 3,0,0s "
         "3,3s,0 4,0,0s 4,1,0s 4,3s,0"),
        "0,0,1s 0,1,1s 0,1s,0 1,1s,0 1s,0,0 1s,0,1",
        "0,0,2s 0,1,2s 0,4,1s 2s,0,0 2s,0,1 2s,3,0 2s,4,0 2s,4,1",
        ("0,0,3s 0,1,3s 0,2,3s 0,3,3s 0,4,3s 3,0,3s 3,4,3s 4,0,3s 4,1,3s "
         "4,2,3s 4,3,3s 4,4,3s"),
        ("0,0s,0 0,0s,1 0,0s,2 0,0s,3 0,0s,4 1,0s,0 1,0s,1 1,0s,4 3s,0,0 "
         "3s,0,1 3s,0,2 3s,0,3 3s,0,4"),
        ("0,1s,3 0,1s,4 0,2s,0 1,1s,4 1,2s,0 4,0s,0 4,0s,1 4,0s,2 4,0s,3 "
         "4,0s,4"),
        ("0,2s,3 0,2s,4 0,4,2s 1,2s,4 1s,3,0 1s,4,0 1s,4,1 2s,0,4 3,0,2s "
         "4,0,2s 4,1,2s 4,2s,0"),
        ("0,3s,3 0,3s,4 0,4,0s 1,3s,4 1,4,0s 2,3s,4 2,4,0s 3,3s,4 3,4,0s "
         "4,3s,3 4,3s,4 4,4,0s"),
        ("0s,0,0 0s,0,1 0s,0,4 0s,1,0 0s,1,1 0s,1,4 0s,2,0 0s,2,4 0s,3,0 "
         "0s,3,4 0s,4,0 0s,4,1 0s,4,4"),
        "1s,0,4 2s,3,4 2s,4,4 3,0,1s 3,4,2s 4,0,1s 4,1,1s 4,4,2s",
        "1s,3,4 1s,4,4 3,4,1s 4,2s,3 4,2s,4 4,4,1s",
        ("3s,3,0 3s,3,4 3s,4,0 3s,4,1 3s,4,2 3s,4,3 3s,4,4 4,1s,0 4,1s,3 "
         "4,1s,4"),
    ],
    "mutex4": [
        "0,0,0,0s 0,0,1s,0 0,1s,0,0 1s,0,0,0",
        ("0,0,0,1s 0,0,2,0s 0,2,0,0s 0,2,2,0s 2,0,0,0s 2,0,2,0s 2,2,0,0s "
         "2,2,2,0s"),
        ("0,0,0s,0 0,0,1s,2 0,2,0s,0 0,2,1s,2 2,0,0s,0 2,0,1s,2 2,2,0s,0 "
         "2,2,1s,2"),
        ("0,0,0s,2 0,0,2,1s 0,0s,2,0 0,2,0s,2 0,2,1s,0 2,0,0s,2 2,0,2,1s "
         "2,0s,2,0 2,2,0s,2 2,2,1s,0"),
        ("0,0s,0,0 0,1s,0,2 0,1s,2,0 0,1s,2,2 2,0s,0,0 2,1s,0,2 2,1s,2,0 "
         "2,1s,2,2"),
        ("0,0s,0,2 0,0s,2,2 0,2,0,1s 0,2,2,1s 2,0s,0,2 2,0s,2,2 2,2,0,1s "
         "2,2,2,1s"),
        ("0s,0,0,0 1s,0,0,2 1s,0,2,0 1s,0,2,2 1s,2,0,0 1s,2,0,2 1s,2,2,0 "
         "1s,2,2,2"),
        ("0s,0,0,2 0s,0,2,0 0s,0,2,2 0s,2,0,0 0s,2,0,2 0s,2,2,0 0s,2,2,2 "
         "2,0,0,1s 2,0,1s,0 2,1s,0,0"),
    ],
}


def test_parse_two_mutex_program():
    prog = parse_pv(TWO_MUTEX)
    assert len(prog.processes) == 2
    assert prog.resources == {"a": 1, "b": 1}
    assert [a.kind for a in prog.processes[0]] == ["P", "P", "V", "V"]


def test_parse_empty_file():
    prog = parse_pv("")
    assert prog.processes == ()


def test_parse_errors():
    with pytest.raises(HeldAtEndError):
        parse_pv("P(a)\n")
    with pytest.raises(UnmatchedReleaseError):
        parse_pv("V(a)\n")
    with pytest.raises(PvSyntaxError) as exc:
        parse_pv("P(a) Q(b)\n")
    assert exc.value.line == 1 and exc.value.column == 6
    with pytest.raises(PvSyntaxError):
        parse_pv("resource a capacity zero\n")


def test_a_resource_declared_twice_is_an_error():
    with pytest.raises(PvSyntaxError) as exc:
        parse_pv("resource a capacity 2\nP(a) V(a)\n  resource  a capacity 3\n")
    assert exc.value.line == 3 and exc.value.column == 13
    assert "'a'" in str(exc.value)
    # a process's use is no declaration, and names are read as whole words
    assert parse_pv("P(r) V(r)\nresource r capacity 2\n").resources == {"r": 2}
    with pytest.raises(PvSyntaxError) as exc:
        parse_pv("resource r0 capacity 0\n")
    assert exc.value.column == 22


def test_capacity_header_and_comments():
    prog = parse_pv("# demo\nresource a capacity 2\nP(a) V(a)\nP(a) V(a)\n")
    assert prog.resources["a"] == 2


def _holds(actions, resource, j):
    count = 0
    for act in actions[:j]:
        if act.resource == resource:
            count += 1 if act.kind == "P" else -1
    return count > 0


def _forbidden_by_brute_force(prog):
    """Independent re-derivation of the forbidden cell set."""
    sizes = [len(p) for p in prog.processes]
    forbidden = set()
    axis = [[(j, False) for j in range(m + 1)] + [(j, True) for j in range(m)]
            for m in sizes]
    for profile in itertools.product(*axis):
        for r, cap in prog.resources.items():
            total = 0
            for (j, span), actions in zip(profile, prog.processes):
                if _holds(actions, r, j) or (span and _holds(actions, r, j + 1)):
                    total += 1
            if total > cap:
                forbidden.add(profile)
                break
    return forbidden


def test_two_mutex_complex_matches_brute_force():
    prog = parse_pv(TWO_MUTEX)
    emb = pv_to_complex(prog)
    forbidden = _forbidden_by_brute_force(prog)
    top_forbidden = {p for p in forbidden if all(span for _, span in p)}
    assert len(emb.complex.top_cells(2)) == 16 - len(top_forbidden)
    kept = {tuple((c.lower[i], c.upper[i] > c.lower[i])
                  for i in range(2)) for c in emb.complex.cubes}
    assert kept.isdisjoint(forbidden)
    total_cells = 5 * 5 + 2 * 5 * 4 + 4 * 4
    assert len(emb.complex.cubes) == total_cells - len(forbidden)


def test_two_mutex_hda_is_sculptable():
    emb = pv_to_complex(parse_pv(TWO_MUTEX))
    assert is_connected(emb.hda)
    v = decide_sculptable(emb.hda)
    assert v.sculptable and v.d == 8
    # the count of children pulled pins down which conflict each node
    # repairs: the root's first matching clashes at a prefix and is dropped
    # unbuilt, and its next child is proper
    assert v.nodes_explored == 2


@pytest.mark.parametrize("name", sorted(BRANCHING))
def test_branching_pv_programs_keep_their_partition(name):
    v = decide_sculptable(pv_to_complex(parse_pv(BRANCHING[name])).hda)
    assert [" ".join(c) for c in partition_to_json(v.ue, v.partition)] \
        == PARTITIONS[name]


def test_repair_search_builds_each_child_only_when_it_pulls_it(monkeypatch):
    import sys
    import hdasculpt.decision as decision
    # each cycle check's answer, "build" per matching whose merges are all
    # applied, and "expand" per node whose conflicts are scanned
    events = []

    def cycle_checked(order):
        # only the search's own calls: the proper check at a leaf calls the
        # same kernel
        if sys._getframe(2).f_code.co_name == "repair_search":
            events.append(order is not None)
        return order

    def built(taus):
        for tau in taus:
            events.append("build")
            yield tau

    linear_extension, fewest = decision._linear_extension, decision._fewest_matchings
    matchings = decision._matchings
    monkeypatch.setattr(decision, "_linear_extension",
                        lambda *args: cycle_checked(linear_extension(*args)))
    monkeypatch.setattr(decision, "_fewest_matchings",
                        lambda conflicts: events.append("expand") or fewest(conflicts))
    monkeypatch.setattr(decision, "_matchings", lambda *args: built(matchings(*args)))
    v = decision.repair_search(pv_to_complex(parse_pv("P(a) V(a)\n" * 4)).hda)
    assert v.sculptable and v.nodes_explored > 2
    assert sum(isinstance(e, bool) for e in events) <= v.nodes_explored
    # each child is checked as soon as it is built, and a child that passes
    # the cycle check is expanded before the next is built
    assert all(a == "build" for a, b in zip(events, events[1:]) if isinstance(b, bool))
    assert all(b == "expand" for a, b in zip(events, events[1:]) if a is True)


@pytest.mark.parametrize("text, d, nodes", [
    ("P(a) P(b) V(b) V(a) P(c) V(c)\nP(b) P(a) V(a) V(b) P(c) V(c)\n", 12, 3),
    ("P(a) V(a)\n" * 4, 8, 23),
    ("P(a) V(a)\n" * 5, 10, 60),
    ("P(a) V(a) P(a) V(a) P(a) V(a)\n" * 2, 12, 10),
    ("P(a) V(a) P(a) V(a) P(a) V(a) P(a) V(a)\n" * 2, 16, 17),
], ids=["two_mutex_tail", "mutex4", "mutex5", "seq2x3", "seq2x4"])
def test_branching_pv_programs_are_decided_within_the_default_budget(text, d, nodes):
    # two_mutex with a tail, four and five processes on one mutex, and two
    # processes taking one mutex three and four times each; all but the
    # first reach a clash early and are decided only because the search
    # prunes below it; the node counts pin the search's path
    v = decide_sculptable(pv_to_complex(parse_pv(text)).hda)
    assert v.sculptable and v.d == d
    assert v.nodes_explored == nodes


@pytest.mark.parametrize("text, d, nodes", [
    ("P(a) P(b) P(c) V(c) V(b) V(a)\nP(c) P(b) P(a) V(a) V(b) V(c)\n", 12, 2),
    (TWO_MUTEX + "P(a) P(b) V(b) V(a)\n", 12, 6),
    ("P(a) P(b) V(b) V(a) P(a) P(b) V(b) V(a)\n"
     "P(b) P(a) V(a) V(b) P(b) P(a) V(a) V(b)\n", 16, 5),
    ("P(a) P(b) V(b) V(a) P(a) V(a)\nP(b) P(a) V(a) V(b) P(b) V(b)\n", 12, 4),
    ("P(a) V(a)\n" * 6, 12, 150),
    ("P(a) V(a) P(a) V(a) P(a) V(a)\n" * 3, 18, 82),
    ("P(a) V(a) P(a) V(a) P(a) V(a) P(a) V(a) P(a) V(a) P(a) V(a)\n" * 2, 24, 37),
], ids=["three_res", "cross3", "two_mutex_x2", "twomutex_long", "mutex6", "seq3x3",
        "seq2x6"])
def test_frontier_pv_programs_are_decided_within_the_default_budget(text, d, nodes):
    # each has a root conflict with many matchings, nearly all of whose
    # prefixes already clash; three_res's has 328,746,151 matchings.  The
    # last three branch longest: about 0.5, 0.7 and 0.4 s each on one core of
    # a 2-core x86-64 machine; the node counts pin the search's path
    v = decide_sculptable(pv_to_complex(parse_pv(text)).hda)
    assert v.sculptable and v.d == d and v.nodes_explored == nodes


# Two copies of two_mutex's first process beside twomutex_long's second: the
# one program known whose repair search pulls children with a cyclic order.
CYCLIC_CHILDREN = ("P(a) P(b) V(b) V(a)\nP(b) P(a) V(a) V(b) P(b) V(b)\n"
                   "P(a) P(b) V(b) V(a)\n")


def _pulled(monkeypatch):
    """Record each partition the repair search checks for a cycle, that is
    each node it pulls, with the answer: below-sets, or None when cyclic."""
    import hdasculpt.decision as decision
    linear_extension, pulled = decision._linear_extension, []

    def recorded(gens, part):
        below = linear_extension(gens, part)
        pulled.append((tuple(part), below))
        return below

    monkeypatch.setattr(decision, "_linear_extension", recorded)
    return pulled


def test_repair_search_drops_the_cyclic_children_it_pulls(monkeypatch):
    # each pair a matching merges is incomparable in its parent's order, but
    # two pairs of one matching can close a cycle; this program pulls four
    # such children
    from hdasculpt import repair_search
    h = pv_to_complex(parse_pv(CYCLIC_CHILDREN)).hda
    assert (sum(1 for _ in h.all_cells()), len(universal_events(h.base).reps)) == (232, 64)
    pulled = _pulled(monkeypatch)
    v = repair_search(h)
    assert v.sculptable and v.d == 14 and v.nodes_explored == 14
    assert sum(below is None for _, below in pulled) >= 1


def test_repair_search_never_pulls_a_partition_twice(monkeypatch):
    # two nodes whose root paths part at a node merge one label with two
    # labels of one route there, whose events are started together; no
    # class ever holds two such events, so no partition is reached twice
    from hdasculpt import repair_search
    from hdasculpt.randgen import random_hda_batch
    programs = [*BRANCHING.values(), "P(a) V(a)\n" * 3,
                "P(a) V(a)\nP(b) V(b)\nP(c) V(c)\n",
                "resource a capacity 2\n" + "P(a) V(a)\n" * 3, CYCLIC_CHILDREN]
    automata = random_hda_batch(7, 300, max_events=12)
    automata += [pv_to_complex(parse_pv(text)).hda for text in programs]
    pulled = _pulled(monkeypatch)
    for h in automata:
        pulled.clear()
        repair_search(h)
        parts = [part for part, _ in pulled]
        assert len(set(parts)) == len(parts)


def _merged_pv_programs():
    """Each pair of incomparable vertices at equal path length (coordinate
    sum) of five small PV programs, merged, when the result has at most 16
    events and is connected, ordered and free of repeating events."""
    from hdasculpt import (has_non_repeating_events, is_connected, is_ordered,
                           validate_hda)
    from hdasculpt.precubical import restrict_to_reachable
    from hdasculpt.randgen import _incomparable_vertex_pairs, _merge_vertices
    programs = ["P(a) V(a)\n" * 2, "P(a) V(a)\n" * 3, "P(a) V(a) P(a) V(a)\n" * 2,
                TWO_MUTEX, "P(a) V(a) P(b) V(b)\nP(b) V(b) P(a) V(a)\n"]
    merged = []
    for text in programs:
        h = pv_to_complex(parse_pv(text)).hda
        length = {v: sum(map(int, v.split(","))) for v in h.grade(0)}
        for a, b in _incomparable_vertex_pairs(h):
            if length[a] != length[b]:
                continue
            m = restrict_to_reachable(_merge_vertices(h, a, b))
            if (validate_hda(m).ok and is_connected(m)
                    and len(universal_events(m.base).reps) <= 16
                    and is_ordered(m.base)[0] and has_non_repeating_events(m)[0]):
                merged.append(m)
    return merged


def test_repair_search_agrees_with_the_oracle_on_merged_pv_programs():
    # a label_clash from the repair search is returned unchecked, so its
    # matching filters must be complete; merging vertices of PV programs at
    # equal path length gives negatives that reach the clash
    from hdasculpt import brute_force_search, repair_search
    merged = _merged_pv_programs()
    assert len(merged) == 23
    kinds = []
    for h in merged:
        v = repair_search(h)
        kinds.append("sculptable" if v.sculptable else v.witness.kind)
        if kinds[-1] != "exhausted":
            assert brute_force_search(h, max_events=16).sculptable == v.sculptable
    assert "label_clash" in kinds


# The label_clash witness of each merge above whose repair search ends in
# one, by position in the list.  The quotient state holds only the first
# configuration of a cell other than a vertex, which is proven not to change
# whether a merge clashes, but not which clash it reports first; merges 8 and
# 20 report a clash of two edges.
MERGED_CLASHES = {
    4: {"kind": "label_clash", "cells": ["1,1", "0,2"],
        "config": [["0,0s", "0s,0"], ["0,0s", "0s,0"]]},
    8: {"kind": "label_clash", "cells": ["1,0s", "1s,0"],
        "config": [["0,0s", "0s,0"], ["0s,0"]]},
    17: {"kind": "label_clash", "cells": ["2,1", "3,0"],
         "config": [["0,0s", "0s,0", "1s,0"], ["0,0s", "0s,0", "1s,0"]]},
    20: {"kind": "label_clash", "cells": ["2,0s", "2s,0"],
         "config": [["0,0s", "0s,0", "1s,0"], ["0s,0", "1s,0"]]},
    22: {"kind": "label_clash", "cells": ["3s,2", "4,1s"],
         "config": [["0,0s", "0,1s", "0s,0", "1s,0", "2s,2", "3s,2"],
                    ["0,0s", "0,1s", "0s,0", "1s,0", "2s,2"]]},
}


def test_merged_pv_programs_report_their_pinned_clashes():
    from hdasculpt import repair_search, verdict_to_json
    clashes = {}
    for i, h in enumerate(_merged_pv_programs()):
        v = repair_search(h)
        if not v.sculptable and v.witness.kind == "label_clash":
            clashes[i] = verdict_to_json(v)["witness"]
            assert v.nodes_explored == 1
    assert clashes == MERGED_CLASHES


def test_grid_limit_is_checked_before_any_cell_is_enumerated(monkeypatch):
    # three processes of 30 actions: a 31 x 31 x 31 grid of positions
    prog = parse_pv(("P(a) V(a) " * 15 + "\n") * 3)

    def no_enumeration(*args):
        raise AssertionError("the cells were enumerated")

    monkeypatch.setattr(itertools, "product", no_enumeration)
    with pytest.raises(ResourceLimitError,
                       match=re.escape("grid (30, 30, 30) has 226981 cells, over 200000")):
        pv_to_complex(prog)


def test_single_process_is_a_two_edge_path():
    emb = pv_to_complex(parse_pv("P(a) V(a)\n"))
    assert [len(emb.hda.grade(n)) for n in range(2)] == [3, 2]


def test_shared_capacity_two_keeps_the_full_board():
    emb = pv_to_complex(parse_pv("resource a capacity 2\nP(a) V(a)\nP(a) V(a)\n"))
    assert len(emb.complex.top_cells(2)) == 4
    assert len(emb.complex.cubes) == 9 + 12 + 4


def test_keeping_is_monotone_in_capacity():
    base = "P(a) P(b) V(b) V(a)\nP(b) P(a) V(a) V(b)\n"
    kept_by_cap = []
    for cap in (1, 2, 3):
        text = f"resource a capacity {cap}\nresource b capacity {cap}\n" + base
        emb = pv_to_complex(parse_pv(text))
        kept_by_cap.append(emb.complex.cubes)
    assert kept_by_cap[0] <= kept_by_cap[1] <= kept_by_cap[2]


def test_infinite_capacity_gives_full_grid():
    text = "resource a capacity inf\nresource b capacity inf\n" + TWO_MUTEX
    emb = pv_to_complex(parse_pv(text))
    assert len(emb.complex.top_cells(2)) == 16
    assert len(emb.complex.cubes) == 25 + 2 * 20 + 16


def test_pv_outputs_are_sculptable():
    programs = [
        TWO_MUTEX,
        "P(a) V(a)\n",
        "P(a) V(a) P(b) V(b)\nP(b) V(b)\n",
        "resource s capacity 2\nP(s) V(s)\nP(s) V(s)\nP(s) V(s)\n",
    ]
    for text in programs:
        emb = pv_to_complex(parse_pv(text))
        assert decide_sculptable(emb.hda).sculptable, text


def _random_pv_program(rnd):
    """Two or three well-nested processes over one to three resources of
    capacity 1, with at most four P actions in all and at least one each: a
    process takes a resource it does not hold, or releases the last one it
    took, and releases all it holds at the end."""
    names = "abc"[:rnd.randint(1, 3)]
    counts = [1] * rnd.randint(2, 3)
    for _ in range(rnd.randint(0, 4 - len(counts))):
        counts[rnd.randrange(len(counts))] += 1
    lines = []
    for count in counts:
        actions, held = [], []
        for _ in range(count):
            while held and rnd.random() < 0.5:
                actions.append(f"V({held.pop()})")
            free = [r for r in names if r not in held]
            if free:
                held.append(rnd.choice(free))
                actions.append(f"P({held[-1]})")
        actions += [f"V({r})" for r in reversed(held)]
        lines.append(" ".join(actions))
    return "\n".join(lines) + "\n"


def test_repair_search_sculpts_seeded_random_pv_programs():
    # each program's complex embeds in its bounding grid, so none may end in
    # a negative; the repair search answers with no oracle, and the oracle
    # agrees wherever it is small enough
    import random

    from hdasculpt import brute_force_search, repair_search, validate_sculpture
    rnd = random.Random(0)
    branched = checked = 0
    for _ in range(400):
        text = _random_pv_program(rnd)
        emb = pv_to_complex(parse_pv(text))
        assert validate_sculpture(emb.to_sculpture()).ok, text
        v = repair_search(emb.hda)
        assert v.sculptable, text
        branched += v.nodes_explored > 1
        if len(universal_events(emb.hda.base).reps) <= 10:
            checked += 1
            assert brute_force_search(emb.hda).sculptable, text
    assert branched > 300 and checked > 100


def test_three_process_ring_program_decides_quickly():
    # three processes in a ring of mutexes: the detour conflicts around the
    # forbidden regions resolve without factorial branching
    text = ("P(a) P(b) V(a) V(b)\n"
            "P(b) P(c) V(b) V(c)\n"
            "P(c) P(a) V(c) V(a)\n")
    emb = pv_to_complex(parse_pv(text))
    v = decide_sculptable(emb.hda)
    assert v.sculptable and v.sculpture.d == 12
    assert v.nodes_explored < 5000
