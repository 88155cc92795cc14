"""Universal labeling, order, consistency, repeats, and the ordered variant."""

import collections
import itertools

import pytest

from hdasculpt import (NotConsistentError, corpus, has_non_repeating_events,
                       is_consistent, is_ordered, make_bulk, multilabel,
                       symmetric_variant, universal_events,
                       validate_precubical, validate_path)
from hdasculpt.precubical import Morphism, validate_morphism


def test_bulk_has_one_class_per_direction():
    for d in (1, 2, 3, 4):
        ue = universal_events(make_bulk(d).base)
        assert len(ue.classes) == d
        # the order agrees with the coordinate order
        coord = {rep: rep.index("x") for rep in ue.reps}
        for a, b in ue.order:
            assert coord[a] < coord[b]
        assert len(ue.order) == d * (d - 1) // 2


def test_empty_square_has_four_singletons_no_order():
    ue = universal_events(corpus.empty_square().base)
    assert len(ue.classes) == 4
    assert all(len(c) == 1 for c in ue.classes)
    assert not ue.order


def test_filled_square_merges_opposite_edges():
    ue = universal_events(corpus.filled_square().base)
    assert sorted(sorted(c) for c in ue.classes) == [["b", "t"], ["l", "r"]]
    assert len(ue.order) == 1


def test_multilabel_of_filled_square_and_faces():
    h = corpus.filled_square()
    ue = universal_events(h.base)
    lab = multilabel(h.base, "q", ue)
    # first entry comes from the second lower face, and the upper-face
    # variant gives the same answer
    assert lab == (ue.label(h.s("q", 2)), ue.label(h.s("q", 1)))
    assert lab == (ue.label(h.t("q", 2)), ue.label(h.t("q", 1)))


def test_multilabel_of_vertex_is_empty():
    h = corpus.filled_square()
    assert multilabel(h.base, "00") == ()


def test_multilabel_of_bulk_top_cell_is_coordinate_order():
    b3 = make_bulk(3)
    ue = universal_events(b3.base)
    lab = multilabel(b3.base, "xxx", ue)
    assert [rep.index("x") for rep in lab] == [0, 1, 2]


def test_multilabel_face_deletion_law():
    b3 = make_bulk(3)
    ue = universal_events(b3.base)
    for q in b3.grade(2) + b3.grade(3):
        lab = multilabel(b3.base, q, ue)
        n = b3.dim(q)
        for i in range(1, n + 1):
            for alpha in "st":
                face_lab = multilabel(b3.base, b3.face(alpha, i, q), ue)
                assert face_lab == lab[:i - 1] + lab[i:]


def test_consistency_classification():
    assert is_consistent(corpus.collapsed_square().base)[0] is False
    assert is_consistent(corpus.shared_edge_strip().base)[0] is False
    assert is_consistent(corpus.pinched_square().base)[0] is True


def test_orderedness_classification():
    ok, cycle = is_ordered(corpus.three_squares().base)
    assert not ok
    assert cycle[0] == cycle[-1] and len(set(cycle)) == 3
    assert is_ordered(corpus.three_squares_reordered().base)[0]
    assert is_ordered(corpus.empty_square().base)[0]
    assert is_ordered(corpus.wheel().base)[0]


def test_order_cycle_closes_once_and_does_not_follow_the_hash_seed():
    import os
    import subprocess
    import sys

    import hdasculpt
    code = ("from hdasculpt import corpus, is_ordered\n"
            "print(is_ordered(corpus.three_squares().base)[1])")
    src = os.path.dirname(os.path.dirname(hdasculpt.__file__))
    cycles = {subprocess.run([sys.executable, "-c", code], check=True, text=True,
                             capture_output=True,
                             env={**os.environ, "PYTHONPATH": src,
                                  "PYTHONHASHSEED": seed}).stdout
              for seed in "1234"}
    assert len(cycles) == 1
    cycle = is_ordered(corpus.three_squares().base)[1]
    assert cycle[0] == cycle[-1] and len(cycle) == len(set(cycle)) + 1


def test_non_repeating_detects_identified_corners():
    h = corpus.repeating_square()
    ok, witness = has_non_repeating_events(h)
    assert not ok
    validate_path(h, witness)
    ue = universal_events(h.base)
    labels = [ue.label(s.target) for s in witness.steps if s.direction == "s"]
    assert len(labels) != len(set(labels))


def test_non_repeating_on_bulks_and_wheel():
    for d in (1, 2, 3):
        assert has_non_repeating_events(make_bulk(d))[0]
    assert has_non_repeating_events(corpus.wheel())[0]


def test_non_repeating_pumps_cycles():
    ok, witness = has_non_repeating_events(corpus.ab_loop())
    assert not ok
    validate_path(corpus.ab_loop(), witness)


def test_functoriality_of_labels_under_morphisms():
    # matchbox includes into the bulk; equal labels map to equal labels
    sc = corpus.matchbox_sculpture()
    src = sc.hda.base
    dst = make_bulk(3).base
    m = Morphism(dict(sc.em))
    assert validate_morphism(src, dst, m, initial=("000", "000")).ok
    ue_src = universal_events(src)
    ue_dst = universal_events(dst)
    for cls in ue_src.classes:
        images = {ue_dst.label(m(e)) for e in cls}
        assert len(images) == 1


def test_multilabel_order_law_on_ordered_corpus():
    for build in (corpus.matchbox, corpus.filled_square, corpus.speed_game):
        h = build()
        ue = universal_events(h.base)
        for q in h.all_cells():
            lab = multilabel(h.base, q, ue)
            for i, j in itertools.combinations(range(len(lab)), 2):
                assert (lab[i], lab[j]) in ue.order


def test_non_repeating_implies_consistent_on_corpus():
    for f in corpus.fixtures():
        h = f.build()
        if has_non_repeating_events(h)[0]:
            assert is_consistent(h.base)[0]


# ---------------------------------------------------------------------------
# Symmetric variant


def test_variant_fixes_three_squares():
    ts = corpus.three_squares()
    var = symmetric_variant(ts.base, ["c", "b", "a"])
    assert validate_precubical(var).ok
    assert is_ordered(var)[0]
    reord = corpus.three_squares_reordered().base
    assert var.s_faces == reord.s_faces and var.t_faces == reord.t_faces


def test_variant_identity_when_order_extends_event_order():
    b3 = make_bulk(3)
    var = symmetric_variant(b3.base, ["x00", "0x0", "00x"])
    assert var.s_faces == dict(b3.base.s_faces)
    assert var.t_faces == dict(b3.base.t_faces)


def test_variant_of_bulk_with_reversed_order():
    b3 = make_bulk(3)
    ue = universal_events(b3.base)
    var = symmetric_variant(b3.base, ["00x", "0x0", "x00"])
    assert validate_precubical(var).ok
    assert is_ordered(var)[0]
    assert var.s_faces != dict(b3.base.s_faces)


def test_variant_requires_consistency():
    with pytest.raises(NotConsistentError):
        symmetric_variant(corpus.collapsed_square().base, ["q1"])


def test_variant_always_valid_and_ordered():
    for build in (corpus.three_squares, corpus.matchbox, corpus.speed_game):
        h = build()
        ue = universal_events(h.base)
        for perm in itertools.permutations(ue.reps):
            var = symmetric_variant(h.base, list(perm), ue)
            assert validate_precubical(var).ok
            assert is_ordered(var)[0]


def test_variant_preserves_the_path_count():
    # reordering face maps permutes steps but matches paths one to one
    from hdasculpt import Hda, rooted_paths
    for build, order in ((corpus.three_squares, ["c", "b", "a"]),
                         (corpus.matchbox, None)):
        h = build()
        ue = universal_events(h.base)
        use = order if order is not None else list(reversed(ue.reps))
        var = Hda(symmetric_variant(h.base, use, ue), h.initial)
        assert len(rooted_paths(var, limit=5000)) \
            == len(rooted_paths(h, limit=5000))


def _reference_non_repeating(h, ue):
    """``has_non_repeating_events``'s answer as it was before it shared the
    covering's walk: False when a cycle of sequential arcs is reached from
    the initial state, else a depth-first search over (state, label set)
    pairs for a repeat."""
    from hdasculpt.precubical import _sequential_cycle
    arcs = h.base.sequential_arcs
    if _sequential_cycle((h.initial,), arcs) is not None:
        return False
    seen_memo = set()
    stack = [(h.initial, frozenset())]
    while stack:
        v, labels = stack.pop()
        for e, w in arcs[v]:
            lab = ue.label(e)
            if lab in labels:
                return False
            key = (w, labels | {lab})
            if key not in seen_memo:
                seen_memo.add(key)
                stack.append(key)
    return True


def _shortest_repeat(h, ue):
    """The fewest arcs of a sequential rooted path that repeats a label,
    or None, by a memoized recursion over (state, label set) pairs."""
    import functools

    arcs = h.base.sequential_arcs

    @functools.lru_cache(maxsize=None)
    def fewest(v, labels):
        best = float("inf")
        for e, w in arcs[v]:
            lab = ue.label(e)
            best = min(best, 1 if lab in labels else 1 + fewest(w, labels | {lab}))
        return best

    n = fewest(h.initial, frozenset())
    return None if n == float("inf") else n


def _non_repeating_cases():
    """The corpus, 3,000 seeded random complexes each with two vertices
    merged (one reaching the other pumps a cycle), and every candidate the
    random generator checks for repeats, the rejected ones too."""
    import random

    from hdasculpt import randgen
    from hdasculpt.precubical import validate_hda
    from hdasculpt.randgen import _merge_vertices, _random_complex_hda
    cases = [f.build() for f in corpus.fixtures()]
    rng = random.Random(2026)
    merged = 0
    while merged < 3000:
        h = _random_complex_hda(rng)
        if len(h.grade(0)) > 1:
            h = _merge_vertices(h, *rng.sample(h.grade(0), 2))
            if validate_hda(h).ok:
                cases.append(h)
                merged += 1
    checked = []

    def recording(h, ue=None):
        checked.append(h)
        return has_non_repeating_events(h, ue)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(randgen, "has_non_repeating_events", recording)
        randgen.random_hda_batch(7, 300, max_events=10)
        randgen.random_hda_batch(3, 300, max_events=12)
    return cases + checked


def test_non_repeating_equals_the_memo_search():
    # agreement with the search it replaced, a legal sequential witness
    # that ends on its first repeated label and is a shortest one, and a
    # covering that raises exactly on the repeating connected automata
    from hdasculpt import RepeatingEventsError, is_connected, path_covering
    from hdasculpt.precubical import validate_hda
    outcomes = collections.Counter()
    for h in _non_repeating_cases():
        ue = universal_events(h.base)
        ok, witness = has_non_repeating_events(h, ue)
        assert ok == _reference_non_repeating(h, ue)
        if validate_hda(h).ok and is_connected(h):
            try:
                path_covering(h, ue)
            except RepeatingEventsError as exc:
                assert not ok and exc.path == witness
            else:
                assert ok
        if ok:
            assert witness is None and _shortest_repeat(h, ue) is None
            outcomes["non-repeating"] += 1
            continue
        validate_path(h, witness)
        assert witness.start == h.initial
        assert [(st.direction, st.index) for st in witness.steps] \
            == [("s", 1), ("t", 1)] * (len(witness.steps) // 2)
        labels = [ue.label(st.target) for st in witness.steps[::2]]
        assert len(set(labels[:-1])) == len(labels) - 1 and labels[-1] in labels[:-1]
        assert len(labels) == _shortest_repeat(h, ue)
        cyclic = len(set(witness.cells())) < len(witness.cells())
        outcomes["cycle" if cyclic else "repeat"] += 1
    assert min(outcomes.values()) >= 50 and len(outcomes) == 3
    # the decision stops both at orderedness, before the covering
    with pytest.raises(RepeatingEventsError):
        path_covering(corpus.collapsed_square())
    assert path_covering(corpus.three_squares()).masks


def test_non_repeating_on_a_long_chain():
    # one call per state would pass Python's recursion limit here
    from hdasculpt import decide_sculptable, make_grid
    h = make_grid(1500)
    assert has_non_repeating_events(h) == (True, None)
    v = decide_sculptable(h)
    assert v.sculptable and v.d == 1500
