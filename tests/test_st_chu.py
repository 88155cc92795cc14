"""ST-structures, regularity, quotients, and the Chu translations."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from hdasculpt import (ChuSpace3, StConfig, check_regular, chu_to_st, complete_st,
                       config, corpus, is_collapsing, is_separable, quotient_st,
                       st, st_from_json, st_isomorphic, st_to_chu, st_to_json)


def test_asymmetric_conflict_structure_is_regular():
    assert check_regular(corpus.asym_conflict_st()).regular


def test_missing_intermediate_breaks_connectivity():
    # no config ever has a running event, so single-event closure is vacuous,
    # but the jump from nothing-started to everything-done is unreachable
    s = st(["a"], [((), ()), (("a",), ("a",))])
    report = check_regular(s)
    assert report.rooted
    assert not report.connected
    assert report.unreachable == (StConfig(frozenset("a"), frozenset("a")),)
    s2 = st(["a"], [((), ()), (("a",), ())])
    report2 = check_regular(s2)
    assert not report2.closed_under_single_events
    assert not check_regular(s2).regular


def test_complete_structure_is_regular_and_counts():
    # independent enumeration: all T <= S <= {1, 2}
    events = ("x", "y")
    configs = set()
    for smask in range(4):
        started = frozenset(e for i, e in enumerate(events) if smask >> i & 1)
        members = sorted(started)
        for tmask in range(1 << len(members)):
            terminated = frozenset(m for i, m in enumerate(members) if tmask >> i & 1)
            configs.add(StConfig(started, terminated))
    assert len(configs) == 9
    comp = complete_st(2, events)
    assert comp.configs == frozenset(configs)
    assert check_regular(comp).regular


def test_quotient_of_square_covering():
    from hdasculpt import path_covering
    cov = path_covering(corpus.empty_square())
    assert len(cov.structure.configs) == 9
    q = quotient_st(cov.structure, [["q1", "q3"], ["q2", "q4"]])
    assert len(q.events) == 2
    assert len(q.configs) == 8
    collapsing, _ = is_collapsing(cov.structure, [["q1", "q3"], ["q2", "q4"]])
    assert not collapsing


def test_quotient_by_identity_is_unchanged():
    s = corpus.asym_conflict_st()
    assert quotient_st(s, []) == s
    assert not is_collapsing(s, [])[0]


def test_collapsing_when_merging_coexisting_events():
    s = st(["a", "b"], [((), ()), (("a", "b"), ())])
    collapsing, witness = is_collapsing(s, [["a", "b"]])
    assert collapsing
    cfg, e1, e2 = witness
    assert {e1, e2} == {"a", "b"} and cfg.started == {"a", "b"}


def test_chu_string_translation_cases():
    events = ("e1", "e2", "e3", "e4")
    c = chu_to_st(ChuSpace3(events, frozenset(["1xx0"])))
    assert c.configs == frozenset([config(["e1", "e2", "e3"], ["e1"])])
    s = st(events, [((), ())])
    assert st_to_chu(s).states == frozenset(["0000"])
    comp = complete_st(2)
    assert len(st_to_chu(comp).states) == 9


def test_separability():
    assert not is_separable(ChuSpace3(("a", "b"), frozenset(["00"])))
    assert is_separable(st_to_chu(corpus.asym_conflict_st()))
    assert is_separable(st_to_chu(complete_st(2)))
    from hdasculpt import path_covering
    covering = path_covering(corpus.empty_square()).structure
    assert is_separable(st_to_chu(covering))


def test_roundtrip_on_corpus_structures():
    from hdasculpt import path_covering
    structures = [corpus.asym_conflict_st(), complete_st(3),
                  path_covering(corpus.empty_square()).structure,
                  path_covering(corpus.matchbox()).structure]
    for s in structures:
        assert chu_to_st(st_to_chu(s)) == s
        c = st_to_chu(s)
        assert st_to_chu(chu_to_st(c)) == c


# ---------------------------------------------------------------------------
# Property tests

_EVENTS = ("a", "b", "c", "d")


def _random_structure(rng: random.Random):
    k = rng.randint(1, 4)
    events = _EVENTS[:k]
    configs = {StConfig(frozenset(), frozenset())}
    for _ in range(rng.randint(1, 8)):
        started = frozenset(e for e in events if rng.random() < 0.5)
        terminated = frozenset(e for e in started if rng.random() < 0.5)
        configs.add(StConfig(started, terminated))
    return st(events, configs)


def _random_partition(rng: random.Random, events):
    parts = []
    for e in events:
        if parts and rng.random() < 0.4:
            parts[rng.randrange(len(parts))].append(e)
        else:
            parts.append([e])
    return parts


def test_collapsing_matches_local_injectivity_on_50_random_structures():
    rng = random.Random(2024)
    for _ in range(50):
        s = _random_structure(rng)
        parts = _random_partition(rng, s.events)
        rep = {}
        for p in parts:
            for e in p:
                rep[e] = p[0]
        locally_injective = all(
            len({rep[e] for e in c.started}) == len(c.started)
            for c in s.configs)
        assert is_collapsing(s, parts)[0] == (not locally_injective)


def _config_strategy(events):
    return hst.builds(
        lambda started, frac: StConfig(
            frozenset(started),
            frozenset(sorted(started)[:int(len(started) * frac)])),
        hst.sets(hst.sampled_from(events)) if events else hst.just(set()),
        hst.floats(min_value=0, max_value=1))


@given(hst.data())
@settings(max_examples=60, deadline=None)
def test_chu_roundtrip_property(data):
    k = data.draw(hst.integers(min_value=0, max_value=4))
    events = _EVENTS[:k]
    n = data.draw(hst.integers(min_value=0, max_value=6))
    configs = [data.draw(_config_strategy(events)) for _ in range(n)]
    s = st(events, configs)
    assert chu_to_st(st_to_chu(s)) == s
    assert st_isomorphic(chu_to_st(st_to_chu(s)), s)


def test_json_roundtrip():
    s = corpus.asym_conflict_st()
    assert st_from_json(st_to_json(s)) == s


def test_non_extensional_json_rejected():
    import pytest

    from hdasculpt import NonExtensionalError, chu_from_json
    with pytest.raises(NonExtensionalError):
        chu_from_json({"events": ["a"], "states": ["0", "0"]})


def test_ordered_morphism_law():
    from hdasculpt import validate_st_morphism
    src = corpus.asym_conflict_st()          # events a < b
    dst = complete_st(3)                     # events e1 < e2 < e3
    assert validate_st_morphism(src, dst, {"a": "e1", "b": "e3"}) == []
    problems = validate_st_morphism(src, dst, {"a": "e3", "b": "e1"})
    assert any("order" in p for p in problems)
    problems = validate_st_morphism(src, dst, {"a": "e2", "b": "e2"},
                                    ordered=False)
    assert any("injective" in p for p in problems)
    # quotient maps by a non-collapsing partition are morphisms after
    # renaming classes to their positions
    from hdasculpt import path_covering, quotient_st
    cov = path_covering(corpus.empty_square())
    q = quotient_st(cov.structure, [["q1", "q3"], ["q2", "q4"]])
    mapping = {"q1": "q1", "q3": "q1", "q2": "q2", "q4": "q2"}
    assert validate_st_morphism(cov.structure, q, mapping, ordered=False) == []


@pytest.mark.parametrize("parts", [[["a", "z"]], [["a", "b"], ["b"]]],
                         ids=["unknown_name", "name_in_two_parts"])
def test_partitions_reject_unknown_and_repeated_names(parts):
    from hdasculpt import partition_of, universal_events
    s = st(["a", "b"], [((), ())])
    with pytest.raises(ValueError):
        quotient_st(s, parts)
    with pytest.raises(ValueError):
        is_collapsing(s, parts)
    ue = universal_events(corpus.empty_square().base)
    a, b = ue.reps[:2]
    renamed = [[{"a": a, "b": b}.get(n, n) for n in p] for p in parts]
    with pytest.raises(ValueError):
        partition_of(ue, renamed)
