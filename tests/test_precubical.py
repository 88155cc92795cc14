"""Core structure tests: validation, linkage, reachability, paths, homotopy."""

import pytest

from hdasculpt import (Hda, IllegalPathError, InvalidStructureError, Path, Step,
                       corpus, elementary_homotopies, has_non_repeating_events,
                       hda, hda_from_json, homotopy_class, is_acyclic,
                       is_connected, is_non_selflinked, make_bulk,
                       normalize_path, path_covering, precubical, rooted_paths,
                       validate_hda, validate_path, validate_precubical)
from hdasculpt.precubical import Morphism, reachable_cells, validate_morphism


def square_with_corners():
    """One 2-cell with 4 distinct edges and 4 distinct corners."""
    return corpus.filled_square().base


def test_validate_single_square_ok():
    assert validate_precubical(square_with_corners()).ok


def test_validate_lone_vertex_ok():
    assert validate_precubical(precubical({0: ["v"]}, {}, {})).ok


def test_validate_reports_miswired_identity():
    # bottom edge of the square rewired to start at the wrong corner
    h = corpus.filled_square()
    s = {c: list(h.base.s_faces[c]) for c in h.base.s_faces}
    t = {c: list(h.base.t_faces[c]) for c in h.base.t_faces}
    s["b"] = ["10"]  # now s_1(s_2 q) = 10 but s_1(s_1 q) = 00
    report = validate_precubical(precubical(h.base.cells, s, t))
    assert not report.ok
    kinds = {p.kind for p in report.problems}
    assert "identity_violation" in kinds
    assert any(p.cell == "q" for p in report.problems)


def test_validate_reports_dangling_reference():
    report = validate_precubical(
        precubical({0: ["v"], 1: ["e"]}, {"e": ["v"]}, {"e": ["ghost"]}))
    assert [p.kind for p in report.problems] == ["dangling_face"]


def test_validate_reports_face_table_of_undeclared_cell():
    base = square_with_corners()
    report = validate_precubical(precubical(
        base.cells, base.s_faces, {**base.t_faces, "ghost": ["00"]}))
    assert [(p.kind, p.cell, p.data) for p in report.problems] == [
        ("undeclared_cell", "ghost", ("t",))]


@pytest.mark.parametrize("cells, key", [
    ({"0": ["v"], "1": ["e"], "01": ["f"]}, "01"),
    ({"0": ["v", "w"], "00": ["u"]}, "00"),
    ({"0": ["v"], "-1": ["u"]}, "-1"),
    ({" 0": ["v"]}, " 0"),
    ({"\u0660": ["v"]}, "\u0660"),
], ids=["leading_zero", "two_zeros", "negative", "space", "arabic_indic_zero"])
def test_a_dimension_key_must_be_a_plain_decimal(cells, key):
    # int() takes each of these, so two keys could name one dimension and
    # one of their cell lists would be dropped without a word; the library's
    # constructors did, and precubical({'0': ['v'], '00': ['w']}, {}, {})
    # validated clean with only w
    with pytest.raises(InvalidStructureError, match=repr(key)):
        hda_from_json({"cells": cells, "s": {}, "t": {}, "initial": "v"})
    with pytest.raises(InvalidStructureError, match=repr(key)):
        precubical(cells, {}, {})
    with pytest.raises(InvalidStructureError, match=repr(key)):
        hda(cells, {}, {}, "v")


@pytest.mark.parametrize("cells, match", [
    ({0: ["v"], "0": ["w"]}, "twice"),
    ({0: ["v"], 1.0: ["e"]}, "1.0"),
    ({True: ["v"]}, "True"),
], ids=["int_and_string", "float", "bool"])
def test_a_dimension_key_that_is_not_a_string_must_be_an_int(cells, match):
    with pytest.raises(InvalidStructureError, match=match):
        precubical(cells, {}, {})
    assert precubical({0: ["v"], "1": ["e"]}, {"e": ["v"]}, {"e": ["v"]}).cells \
        == {0: ("v",), 1: ("e",)}


@pytest.mark.parametrize("table, faces", [
    ("s", []), ("t", ["ghost"]), ("s", None),
], ids=["empty_s_face", "undeclared_t_face", "no_s_entry"])
@pytest.mark.parametrize("check", [
    is_connected, reachable_cells, is_acyclic, has_non_repeating_events,
    path_covering], ids=lambda f: f.__name__)
def test_reachability_names_a_malformed_edge(check, table, faces):
    # each reads the sequential arcs, which name the first edge that has
    # not exactly one declared vertex as its s-face and as its t-face
    base = square_with_corners()
    tables = {"s": dict(base.s_faces), "t": dict(base.t_faces)}
    if faces is None:
        del tables[table]["l"]
    else:
        tables[table]["l"] = faces
    h = Hda(precubical(base.cells, tables["s"], tables["t"]), "00")
    with pytest.raises(InvalidStructureError, match="edge 'l'"):
        check(h)


def test_bulk_is_non_selflinked():
    ok, witness = is_non_selflinked(make_bulk(2).base)
    assert ok and witness is None


def test_pinched_square_is_selflinked_at_doubled_vertex():
    ok, witness = is_non_selflinked(corpus.pinched_square().base)
    assert not ok
    face, cell, w1, w2 = witness
    assert face == "v" and cell == "q2" and w1 != w2


def test_collapsed_square_is_selflinked():
    ok, _ = is_non_selflinked(corpus.collapsed_square().base)
    assert not ok


def test_connectivity_and_acyclicity():
    esq = corpus.empty_square()
    assert is_connected(esq)
    assert is_acyclic(esq)[0]

    loop = corpus.ab_loop()
    assert is_connected(loop)
    ok, pair = is_acyclic(loop)
    assert not ok and len(pair) == 2

    extra = hda({0: ["I", "A", "B", "F", "lost"],
                 1: ["q1", "q2", "q3", "q4"]},
                {e: esq.base.s_faces[e] for e in esq.base.s_faces},
                {e: esq.base.t_faces[e] for e in esq.base.t_faces}, "I")
    assert not is_connected(extra)


def test_acyclicity_agrees_with_the_closure_of_the_steps():
    # is_acyclic, reachable_cells and is_connected read only the sequential
    # arcs; the reference closes the whole step graph, built here from the
    # cofaces (s-steps up) and the t-faces (t-steps down).  Cases: the
    # corpus, and random complexes and DAGs with two vertices merged: one
    # reaching the other (a cycle), or neither; each is read from its
    # initial state and from a random state
    import random

    from hdasculpt.events import transitive_closure
    from hdasculpt.randgen import (_incomparable_vertex_pairs, _merge_vertices,
                                   _random_complex_hda, _random_dag_hda)
    rng = random.Random(16)
    cases = [f.build() for f in corpus.fixtures()]
    while len(cases) < 2000 + len(corpus.fixtures()):
        h = _random_complex_hda(rng) if rng.random() < 0.7 else _random_dag_hda(rng, 10)
        if rng.random() < 0.5:
            pairs = sorted(transitive_closure((h.s(e, 1), h.t(e, 1)) for e in h.grade(1)))
        else:
            pairs = _incomparable_vertex_pairs(h)
        if not pairs:
            continue
        h = _merge_vertices(h, *pairs[rng.randrange(len(pairs))])
        if validate_hda(h).ok:
            cases.append(h)
    outcomes = {True: 0, False: 0}
    connected = {True: 0, False: 0}
    for h in cases:
        P = h.base
        succ = {c: [q for _, q in P.cofaces[c]] + list(P.t_faces[c] if P.dim(c) else ())
                for c in P.all_cells()}
        reach = transitive_closure((c, d) for c in succ for d in succ[c])
        ok, pair = is_acyclic(h)
        assert ok == (not any(c != d and (d, c) in reach for c, d in reach))
        if not ok:
            v, e = pair
            assert v != e and (v, e) in reach and (e, v) in reach
        outcomes[ok] += 1
        for root in (h.initial, rng.choice(h.grade(0))):
            g = Hda(P, root)
            closure = {root} | {d for c, d in reach if c == root}
            assert reachable_cells(g) == closure
            assert is_connected(g) == (len(closure) == P.size())
            connected[is_connected(g)] += 1
    assert min(outcomes.values()) > 500
    assert min(connected.values()) > 500


# ---------------------------------------------------------------------------
# Paths


@pytest.mark.parametrize("path, message", [
    (Path("Z"), "start cell 'Z' missing"),
    (Path("I", (Step("s", 1, "q9"),)), "step 0: target 'q9' missing"),
    (Path("I", (Step("s", 1, "q3"),)), r"step 0: s_1\('q3'\) != 'I'"),
    (Path("I", (Step("s", 2, "q1"),)), r"step 0: s_2\('q1'\) != 'I'"),
    (Path("I", (Step("s", 1, "q1"), Step("t", 1, "B"))), r"step 1: t_1\('q1'\) != 'B'"),
    (Path("I", (Step("t", 1, "A"),)), r"step 0: t_1\('I'\) != 'A'"),
    (Path("I", (Step("x", 1, "q1"),)), "step 0: bad direction 'x'"),
], ids=["missing_start", "missing_target", "s_face", "s_index", "t_face", "t_index",
        "direction"])
def test_validate_path_rejects_bad_steps(path, message):
    esq = corpus.empty_square()
    good = Path("I", (Step("s", 1, "q1"), Step("t", 1, "A")))
    validate_path(esq, good)
    with pytest.raises(IllegalPathError, match=message):
        validate_path(esq, path)


@pytest.mark.parametrize("images, initial, kind, cells", [
    ({"q": None}, None, "not_total", {"q"}),
    ({"q": "p"}, None, "dangling_image", {"q"}),
    ({"q": "l"}, None, "dimension", {"q"}),
    ({"l": "b", "b": "l"}, None, "face_commutation", {"l", "b", "q"}),
    ({}, ("00", "11"), "initial", {"00"}),
], ids=["not_total", "dangling_image", "dimension", "face_commutation", "initial"])
def test_validate_morphism_reports_each_kind_of_problem(images, initial, kind, cells):
    # the identity of the filled square with some images changed: a missing
    # image, one naming no cell, an edge for the square, the left and bottom
    # edges swapped, and an initial corner sent to the opposite one
    base = corpus.filled_square().base
    mapping = {c: c for c in base.all_cells()}
    assert validate_morphism(base, base, Morphism(mapping), initial=("00", "00")).ok
    for cell, image in images.items():
        if image is None:
            del mapping[cell]
        else:
            mapping[cell] = image
    report = validate_morphism(base, base, Morphism(mapping), initial)
    assert not report.ok
    assert {p.kind for p in report.problems} == {kind}
    assert {p.cell for p in report.problems} == cells


def test_normalize_already_canonical_climb():
    b2 = make_bulk(2)
    p = Path("00", (Step("s", 1, "x0"), Step("s", 2, "xx")))
    n = normalize_path(b2, p)
    assert n == p


def test_normalize_up_up_down_in_bulk3():
    b3 = make_bulk(3)
    p = Path("000", (Step("s", 1, "x00"), Step("s", 2, "xx0"), Step("t", 1, "1x0")))
    n = normalize_path(b3, p)
    assert n.end() == p.end()
    assert n.type_string == "sts"
    # expected form computed by exhaustive search over elementary moves
    assert n in homotopy_class(b3, p)


def test_normalize_empty_path():
    b2 = make_bulk(2)
    p = Path("00")
    assert normalize_path(b2, p) == p


def test_normalize_output_homotopic_on_small_instances():
    for build in (corpus.matchbox, corpus.filled_square, corpus.empty_square):
        h = build()
        paths = rooted_paths(h, limit=1000)
        if len(paths) > 200:
            paths = paths[:200]
        for p in paths:
            n = normalize_path(h, p)
            validate_path(h, n)
            assert n.end() == p.end()
            assert n in homotopy_class(h, p)


def test_elementary_swap_on_filled_square():
    # climbing via the bottom edge then the square swaps to the left route
    fsq = corpus.filled_square()
    p = Path("00", (Step("s", 1, "b"), Step("s", 2, "q")))
    moves = elementary_homotopies(fsq, p)
    swapped = Path("00", (Step("s", 1, "l"), Step("s", 1, "q")))
    assert swapped in moves
    for m in moves:
        assert m.end() == p.end() and m.start == p.start


def test_no_moves_in_one_dimensional_hda():
    esq = corpus.empty_square()
    p = Path("I", (Step("s", 1, "q1"), Step("t", 1, "A"),
                   Step("s", 1, "q4"), Step("t", 1, "F")))
    assert elementary_homotopies(esq, p) == set()


def test_maximal_paths_of_filled_square_are_homotopic():
    # frozen from a breadth-first search over moves: class of 6 paths,
    # the two interleavings four moves apart
    fsq = corpus.filled_square()
    p1 = Path("00", (Step("s", 1, "b"), Step("t", 1, "10"),
                     Step("s", 1, "r"), Step("t", 1, "11")))
    p2 = Path("00", (Step("s", 1, "l"), Step("t", 1, "01"),
                     Step("s", 1, "t"), Step("t", 1, "11")))
    dist = {p1: 0}
    frontier = [p1]
    while frontier:
        nxt = []
        for p in frontier:
            for q in elementary_homotopies(fsq, p):
                if q not in dist:
                    dist[q] = dist[p] + 1
                    nxt.append(q)
        frontier = nxt
    assert len(dist) == 6
    assert dist[p2] == 4


def test_paths_from_operations_are_step_legal():
    for build in (corpus.empty_square, corpus.matchbox):
        h = build()
        for p in rooted_paths(h, limit=2000):
            for q in elementary_homotopies(h, p):
                validate_path(h, q)
                assert q.start == p.start and q.end() == p.end()


def test_hda_validation_checks_initial():
    h = hda({0: ["v"], 1: []}, {}, {}, "missing")
    assert not validate_hda(h).ok


def _all_face_relations(P, cell):
    """Independent oracle: every iterated-face word, outermost first."""
    results = {}

    def rec(cur, word):
        for k in range(1, P.dim(cur) + 1):
            for alpha in "st":
                nxt = P.face(alpha, k, cur)
                w = ((alpha, k),) + word
                results.setdefault(nxt, set()).add(w)
                rec(nxt, w)

    rec(cell, ())
    return results


def _canonicalize_word(word):
    """Bubble-rewrite a face word until its indices strictly increase."""
    word = list(word)
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            (a1, k1), (a2, k2) = word[i], word[i + 1]
            if k1 >= k2:
                word[i], word[i + 1] = (a2, k2), (a1, k1 + 1)
                changed = True
    return tuple(word)


def test_selflinked_detection_matches_all_words_oracle():
    builds = (corpus.pinched_square, corpus.collapsed_square, corpus.matchbox,
              corpus.filled_square, corpus.shared_edge_strip,
              corpus.empty_square, corpus.broken_box, corpus.speed_game,
              corpus.three_squares)
    for build in builds:
        P = build().base
        brute = False
        for c in P.all_cells():
            if P.dim(c) == 0:
                continue
            for words in _all_face_relations(P, c).values():
                if len({_canonicalize_word(w) for w in words}) > 1:
                    brute = True
                    break
            if brute:
                break
        assert brute == (not is_non_selflinked(P)[0]), build.__name__


def test_elementary_moves_are_symmetric():
    for build in (corpus.filled_square, corpus.matchbox, corpus.speed_game):
        h = build()
        for p in rooted_paths(h, limit=300):
            for q in elementary_homotopies(h, p):
                assert p in elementary_homotopies(h, q)


def test_normalize_fuzz_on_bulks():
    # normal form: alternating index-1 pairs then the canonical climb, with
    # the path's configuration (a homotopy invariant) preserved
    import random

    from hdasculpt import StConfig, multilabel, universal_events

    def random_rooted_path(h, rng, max_len=10):
        cofaces = h.base.cofaces
        p = Path(h.initial)
        for _ in range(rng.randrange(max_len)):
            cur = p.end()
            moves = [("s", k, up) for k, up in cofaces[cur]]
            moves += [("t", k, h.t(cur, k)) for k in range(1, h.dim(cur) + 1)]
            if not moves:
                break
            p = p.extend(*moves[rng.randrange(len(moves))])
        return p

    def config_of(h, ue, p):
        started, terminated = set(), set()
        cur = h.initial
        for s in p.steps:
            lab = multilabel(h.base, s.target if s.direction == "s" else cur,
                             ue)[s.index - 1]
            (started if s.direction == "s" else terminated).add(lab)
            cur = s.target
        return StConfig(frozenset(started), frozenset(terminated))

    rng = random.Random(424242)
    for d in (2, 3, 4):
        b = make_bulk(d)
        ue = universal_events(b.base)
        for _ in range(120):
            p = random_rooted_path(b, rng)
            n = normalize_path(b, p)
            validate_path(b, n)
            assert n.end() == p.end()
            k = b.dim(n.end())
            ts = n.type_string
            assert ts.endswith("s" * k)
            prefix = ts[:len(ts) - k]
            assert prefix == "st" * (len(prefix) // 2)
            climb = n.steps[len(n.steps) - k:]
            assert [s.index for s in climb] == list(range(1, k + 1))
            assert all(s.index == 1 for s in n.steps[:len(n.steps) - k])
            assert config_of(b, ue, n) == config_of(b, ue, p)


def _reference_validate(raw):
    """``validate_precubical`` as it was first written, through the
    accessors ``has_cell``, ``dim`` and ``face``."""
    from hdasculpt.precubical import Problem, ValidationReport
    problems = []
    for n in sorted(raw.cells):
        for c in raw.cells[n]:
            if n == 0:
                for kind, table in (("s", raw.s_faces), ("t", raw.t_faces)):
                    if table.get(c):
                        problems.append(Problem(
                            "face_count", c, f"0-cell carries {kind}-faces", (kind,)))
                continue
            for kind, table in (("s", raw.s_faces), ("t", raw.t_faces)):
                faces = table.get(c)
                if faces is None or len(faces) != n:
                    got = 0 if faces is None else len(faces)
                    problems.append(Problem(
                        "face_count", c,
                        f"expected {n} {kind}-faces, got {got}", (kind, got)))
                    continue
                for k, f in enumerate(faces, start=1):
                    if not raw.has_cell(f):
                        problems.append(Problem(
                            "dangling_face", c,
                            f"{kind}_{k} references missing cell {f!r}", (kind, k, f)))
                    elif raw.dim(f) != n - 1:
                        problems.append(Problem(
                            "wrong_dimension", c,
                            f"{kind}_{k} = {f!r} has dimension {raw.dim(f)},"
                            f" expected {n - 1}", (kind, k, f)))
    if problems:
        return ValidationReport(tuple(problems))
    for n in sorted(raw.cells):
        if n < 2:
            continue
        for c in raw.cells[n]:
            for l in range(2, n + 1):
                for k in range(1, l):
                    for alpha in "st":
                        for beta in "st":
                            lhs = raw.face(alpha, k, raw.face(beta, l, c))
                            rhs = raw.face(beta, l - 1, raw.face(alpha, k, c))
                            if lhs != rhs:
                                problems.append(Problem(
                                    "identity_violation", c,
                                    f"{alpha}_{k} {beta}_{l} {c} = {lhs!r} but "
                                    f"{beta}_{l - 1} {alpha}_{k} {c} = {rhs!r}",
                                    (alpha, k, beta, l)))
    return ValidationReport(tuple(problems))


def _corrupted(P, rng):
    """``P`` with one seeded corruption of its face tables."""
    from hdasculpt import PrecubicalSet
    s = {c: list(fs) for c, fs in P.s_faces.items()}
    t = {c: list(fs) for c, fs in P.t_faces.items()}
    top = [c for n in sorted(P.cells) if n >= 1 for c in P.cells[n]]
    c = rng.choice(top)
    n = P.dim(c)
    table = rng.choice((s, t))
    k = rng.randrange(n)
    how = rng.choice(("swap", "swap_tables", "dangling", "wrong_dim",
                      "same_dim", "drop", "vertex_faces"))
    if how == "swap" and n > 1:
        j = rng.randrange(n)
        table[c][k], table[c][j] = table[c][j], table[c][k]
    elif how == "swap_tables":
        s[c], t[c] = t[c], s[c]
    elif how == "dangling":
        table[c][k] = "nowhere"
    elif how == "wrong_dim":
        table[c][k] = rng.choice([x for x in P.all_cells() if P.dim(x) != n - 1])
    elif how == "same_dim":   # right dimension, so an identity may break
        table[c][k] = rng.choice(P.grade(n - 1))
    elif how == "drop":
        del table[c][k]
    else:
        table[rng.choice(P.grade(0))] = [c]
    return PrecubicalSet(dict(P.cells), {c: tuple(fs) for c, fs in s.items()},
                         {c: tuple(fs) for c, fs in t.items()})


def test_validation_reports_equal_the_accessor_version():
    import random

    from hdasculpt import make_grid
    rng = random.Random(3)
    bases = [make_bulk(3).base, make_bulk(4).base, make_grid(3, 2).base,
             make_grid(2, 2, 2).base, corpus.wheel().base, corpus.matchbox().base]
    kinds = set()
    for P in bases:
        assert validate_precubical(P) == _reference_validate(P)
        for _ in range(60):
            bad = _corrupted(P, rng)
            report = validate_precubical(bad)
            assert report == _reference_validate(bad)
            kinds.update(p.kind for p in report.problems)
    assert kinds == {"face_count", "dangling_face", "wrong_dimension",
                     "identity_violation"}
