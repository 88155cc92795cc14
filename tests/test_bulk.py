"""Bulks, sculptures, their validation, and the ST translations."""

import math

import pytest

from hdasculpt import (ResourceLimitError, Sculpture, complete_st, corpus,
                       event_equiv_sculpt, is_connected, is_non_selflinked,
                       make_bulk, path_covering, quotient_st, sculpture_to_st,
                       sculptures_isomorphic, simplify_sculpture, st_isomorphic,
                       st_to_sculpture, validate_hda, validate_sculpture)
from hdasculpt.errors import NotRegularError
from hdasculpt.st_chu import check_regular, st


def test_bulk_cell_counts():
    for d in range(7):
        b = make_bulk(d)
        for n in range(d + 1):
            assert len(b.grade(n)) == math.comb(d, n) * 2 ** (d - n)


def test_bulk_zero_is_a_point():
    b = make_bulk(0)
    assert b.base.size() == 1 and b.initial == ""


def test_bulk_structure_is_sound():
    for d in (1, 2, 3):
        b = make_bulk(d)
        assert validate_hda(b).ok
        assert is_non_selflinked(b.base)[0]
        assert is_connected(b)


def test_bulk_resource_limit():
    with pytest.raises(ResourceLimitError):
        make_bulk(13)


def test_bulk_embeddings_are_strictly_increasing_index_maps():
    # every initial-preserving embedding of bulk cells we generate picks
    # coordinates in increasing order; spot-check via coordinate injections
    import itertools
    for d, d2 in ((1, 2), (2, 3)):
        b = make_bulk(d)
        for combo in itertools.combinations(range(d2), d):
            em = {}
            for c in b.all_cells():
                img = ["0"] * d2
                for i, pos in enumerate(combo):
                    img[pos] = c[i]
                em[c] = "".join(img)
            assert validate_sculpture(Sculpture(b, d2, em)).ok


# ---------------------------------------------------------------------------
# Sculpture validation


def test_matchbox_sculpture_is_valid():
    assert validate_sculpture(corpus.matchbox_sculpture()).ok


def test_non_injective_candidate_reported():
    h = corpus.empty_square()
    em = {"I": "00", "A": "10", "B": "10", "F": "11",
          "q1": "x0", "q2": "x0", "q3": "x1", "q4": "1x"}
    report = validate_sculpture(Sculpture(h, 2, em))
    assert any(p.kind == "not_injective" for p in report.problems)


def test_both_asym_conflict_readings_validate():
    two, three = corpus.asym_conflict_sculptures()
    assert validate_sculpture(two).ok and two.d == 2
    assert validate_sculpture(three).ok and three.d == 3


# ---------------------------------------------------------------------------
# Translations


def test_complete_structure_yields_whole_bulk():
    for d in (1, 2, 3):
        sc = st_to_sculpture(complete_st(d))
        assert validate_sculpture(sc).ok
        assert sc.hda.base.size() == 3 ** d
        ident = {c: c for c in make_bulk(d).all_cells()}
        assert sculptures_isomorphic(sc, Sculpture(make_bulk(d), d, ident))


def test_asym_conflict_structure_realizes_the_two_event_reading():
    sc = st_to_sculpture(corpus.asym_conflict_st())
    two, _ = corpus.asym_conflict_sculptures()
    assert sculptures_isomorphic(sc, two)


def test_quotiented_square_covering_realizes_the_empty_square():
    cov = path_covering(corpus.empty_square())
    q = quotient_st(cov.structure, [["q1", "q3"], ["q2", "q4"]])
    sc = st_to_sculpture(q)
    verdict_sc = None
    from hdasculpt import decide_sculptable
    verdict_sc = decide_sculptable(corpus.empty_square()).sculpture
    assert sculptures_isomorphic(sc, verdict_sc)


def test_st_to_sculpture_requires_regularity():
    broken = st(["a"], [((), ()), (("a",), ("a",))])
    with pytest.raises(NotRegularError):
        st_to_sculpture(broken)


def test_sculpture_to_st_of_whole_bulk_is_complete():
    for d in (1, 2, 3):
        b = make_bulk(d)
        sc = Sculpture(b, d, {c: c for c in b.all_cells()})
        assert sculpture_to_st(sc) == complete_st(d)


def test_matchbox_st_is_regular():
    out = sculpture_to_st(corpus.matchbox_sculpture())
    assert check_regular(out).regular
    assert len(out.configs) == 25


def test_translation_roundtrips_on_corpus():
    structures = [complete_st(2), corpus.asym_conflict_st(),
                  sculpture_to_st(corpus.matchbox_sculpture())]
    for s in structures:
        assert st_isomorphic(sculpture_to_st(st_to_sculpture(s)), s)
    sculptures = [corpus.matchbox_sculpture(),
                  *corpus.asym_conflict_sculptures()]
    for sc in sculptures:
        back = st_to_sculpture(sculpture_to_st(sc))
        assert sculptures_isomorphic(back, sc)


# ---------------------------------------------------------------------------
# Simplification and induced partitions


def test_simplify_drops_unused_coordinates():
    h = corpus.empty_square()
    em4 = {"I": "0000", "A": "1000", "B": "0010", "F": "1010",
           "q1": "x000", "q2": "00x0", "q3": "x010", "q4": "10x0"}
    fat = Sculpture(h, 4, em4)
    assert validate_sculpture(fat).ok
    slim = simplify_sculpture(fat)
    assert slim.d == 2
    assert validate_sculpture(slim).ok


def test_simplify_keeps_minimal_embeddings():
    mb = corpus.matchbox_sculpture()
    assert simplify_sculpture(mb) == mb


def test_simplify_point():
    from hdasculpt import hda
    point = hda({0: ["p"]}, {}, {}, "p")
    fat = Sculpture(point, 5, {"p": "00000"})
    slim = simplify_sculpture(fat)
    assert slim.d == 0 and slim.em["p"] == ""


def test_event_partition_from_embeddings():
    from hdasculpt import decide_sculptable
    sc = decide_sculptable(corpus.empty_square()).sculpture
    part = event_equiv_sculpt(sc)
    assert sorted(sorted(p) for p in part) == [["q1", "q3"], ["q2", "q4"]]

    b2 = make_bulk(2)
    ident = Sculpture(b2, 2, {c: c for c in b2.all_cells()})
    assert all(len(p) == 1 for p in event_equiv_sculpt(ident))

    assert len(event_equiv_sculpt(corpus.matchbox_sculpture())) == 3


def test_quotient_by_induced_partition_matches_sculpture_st():
    # for simplistic corpus sculptures the covering quotient equals the
    # coordinate reading of the embedding, after renaming classes to their
    # coordinate events
    from hdasculpt import decide_sculptable
    sculptures = [corpus.matchbox_sculpture(),
                  decide_sculptable(corpus.empty_square()).sculpture,
                  decide_sculptable(corpus.backtracker()).sculpture]
    for sc in sculptures:
        cov = path_covering(sc.hda)
        part = event_equiv_sculpt(sc, cov.ue)
        q = quotient_st(cov.structure, part)
        order = {e: i for i, e in enumerate(cov.structure.events)}
        rename = {}
        for p in part:
            rep = min(p, key=order.__getitem__)
            edge = cov.ue.members(next(iter(p)))[0]
            rename[rep] = f"e{sc.em[edge].index('x') + 1}"
        renamed = frozenset(
            type(c)(frozenset(rename[x] for x in c.started),
                    frozenset(rename[x] for x in c.terminated))
            for c in q.configs)
        assert renamed == sculpture_to_st(sc).configs


def test_sculpture_json_roundtrip():
    from hdasculpt import sculpture_from_json, sculpture_to_json
    sc = corpus.matchbox_sculpture()
    back = sculpture_from_json(sculpture_to_json(sc))
    assert back.d == sc.d and dict(back.em) == dict(sc.em)
    assert back.hda.base.cells == sc.hda.base.cells


def _validate_images_by_definition(s):
    """The certificate check as first written: each face recomputes the
    image's x positions through ``bulk_face``, and the characters are
    tested one by one.  The reference for ``validate_images``."""
    from hdasculpt.bulk import bulk_dim, bulk_face
    from hdasculpt.precubical import Problem, ValidationReport
    problems = []
    seen = {}
    for c in s.hda.all_cells():
        img = s.em.get(c)
        if img is None:
            problems.append(Problem("not_total", c, "cell has no bulk image"))
            continue
        if len(img) != s.d or any(ch not in "0x1" for ch in img):
            problems.append(Problem("bad_image", c, f"image {img!r} not a valid tuple"))
            continue
        if bulk_dim(img) != s.hda.dim(c):
            problems.append(Problem(
                "dimension", c,
                f"image {img!r} has dimension {bulk_dim(img)}, cell has {s.hda.dim(c)}"))
            continue
        if img in seen:
            problems.append(Problem(
                "not_injective", c, f"cells {seen[img]!r} and {c!r} share image {img!r}",
                (seen[img], c)))
        seen.setdefault(img, c)
        for k in range(1, s.hda.dim(c) + 1):
            for alpha in "st":
                want = s.em.get(s.hda.face(alpha, k, c))
                got = bulk_face(img, alpha, k)
                if want != got:
                    problems.append(Problem(
                        "face_commutation", c,
                        f"{alpha}_{k}: bulk face {got!r} != image of face {want!r}",
                        (alpha, k)))
    img_init = s.em.get(s.hda.initial)
    if img_init != "0" * s.d:
        problems.append(Problem("initial", s.hda.initial,
                                f"initial maps to {img_init!r}, expected all zeros"))
    return ValidationReport(tuple(problems))


def test_certificate_check_reports_as_its_definition_on_corruptions():
    # seeded corruptions of PV and grid sculptures: two images swapped, one
    # character replaced (by another of 0x1 or by a foreign one), an image
    # removed, or several of these at once
    import random

    from hdasculpt import decide_sculptable, parse_pv, pv_to_complex
    from hdasculpt.bulk import validate_images
    from hdasculpt.euclid import grid, grid_to_bulk
    programs = ["P(a) P(b) V(b) V(a)\nP(b) P(a) V(a) V(b)\n", "P(a) V(a)\n" * 3,
                "P(a) P(b) V(a) V(b)\nP(b) P(c) V(b) V(c)\nP(c) P(a) V(c) V(a)\n"]
    sculptures = [decide_sculptable(pv_to_complex(parse_pv(t)).hda).sculpture
                  for t in programs]
    sculptures += [pv_to_complex(parse_pv(programs[0])).to_sculpture(),
                   grid_to_bulk(grid(3, 3, 3)),
                   corpus.matchbox_sculpture()]
    rng = random.Random(2026)
    kinds = set()
    for _ in range(260):
        sc = rng.choice(sculptures)
        em = dict(sc.em)
        for _ in range(rng.randint(1, 3)):
            how = rng.randrange(3)
            if how == 0:
                a, b = rng.sample(sorted(em), 2)
                em[a], em[b] = em[b], em[a]
            elif how == 1:
                c = rng.choice(sorted(em))
                i = rng.randrange(len(em[c]))
                em[c] = em[c][:i] + rng.choice("01x?") + em[c][i + 1:]
            else:
                del em[rng.choice(sorted(em))]
        bad = Sculpture(sc.hda, sc.d, em)
        want = _validate_images_by_definition(bad)
        assert validate_images(bad) == want
        kinds.update(p.kind for p in want.problems)
    for sc in sculptures:
        assert validate_images(sc) == _validate_images_by_definition(sc)
        assert validate_images(sc).ok
    assert kinds == {"not_total", "bad_image", "dimension", "not_injective",
                     "face_commutation", "initial"}
