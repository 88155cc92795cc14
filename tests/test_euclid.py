"""Grids, complexes, bounding-grid embeddings, and the Euclidean bridge."""

import random

import pytest

from hdasculpt import (InvalidStructureError, Sculpture, complex_to_hda, cube,
                       decide_sculptable, euclidean_complex, grid, grid_to_bulk,
                       is_connected, is_non_selflinked, make_bulk, make_grid,
                       sculpture_to_complex, sculptures_isomorphic,
                       validate_hda, validate_sculpture)
from hdasculpt.errors import ResourceLimitError


def test_grid_single_edge():
    g = make_grid(1)
    assert [len(g.grade(n)) for n in range(2)] == [2, 1]


def test_grid_two_by_one_counts():
    g = make_grid(2, 1)
    assert [len(g.grade(n)) for n in range(3)] == [6, 7, 2]
    assert validate_hda(g).ok
    assert is_non_selflinked(g.base)[0]
    assert is_connected(g)


def test_unit_grid_is_the_bulk():
    for d in (1, 2, 3):
        sc = grid_to_bulk(grid(*([1] * d)))
        b = make_bulk(d)
        ident = Sculpture(b, d, {c: c for c in b.all_cells()})
        assert sculptures_isomorphic(sc, ident)


def test_grid_resource_limit():
    with pytest.raises(ResourceLimitError):
        make_grid(100, 100, 100)


def test_grid_gluing_is_exactly_adjacent_top_cells():
    g = grid(2, 2)
    # t_k of one top cube equals s_k of the next cube along axis k, and
    # distinct top cubes share no other faces of codimension one
    tops = {tuple(int(t.rstrip("s")) for t in c.split(",")): c
            for c in g.hda.grade(2)}
    for (i, j), c in tops.items():
        for k, delta in ((1, (1, 0)), (2, (0, 1))):
            nxt = (i + delta[0], j + delta[1])
            if nxt in tops:
                assert g.hda.t(c, k) == g.hda.s(tops[nxt], k)
    # exhaustive scan: every edge-of-square coincidence is of that form
    seen = {}
    for c in g.hda.grade(2):
        for k in (1, 2):
            for alpha in "st":
                f = g.hda.face(alpha, k, c)
                seen.setdefault(f, []).append((c, alpha, k))
    for f, uses in seen.items():
        if len(uses) > 1:
            assert len(uses) == 2
            (c1, a1, k1), (c2, a2, k2) = uses
            assert {a1, a2} == {"s", "t"} and k1 == k2


def test_grid_two_embedding_matches_hand_naming():
    sc = grid_to_bulk(grid(2))
    assert sorted(sc.em.values()) == ["00", "10", "11", "1x", "x0"]
    assert validate_sculpture(sc).ok


def test_grid_to_bulk_on_two_by_two():
    sc = grid_to_bulk(grid(2, 2))
    assert sc.d == 4
    assert len(sc.hda.grade(2)) == 4
    assert validate_sculpture(sc).ok


def test_random_grid_embeddings_validate():
    rng = random.Random(5)
    for _ in range(20):
        d = rng.randint(1, 3)
        sizes = []
        budget = 9
        for _ in range(d):
            m = rng.randint(1, min(4, budget - (d - len(sizes) - 1)))
            sizes.append(m)
            budget -= m
        sc = grid_to_bulk(grid(*sizes))
        assert sum(sizes) <= 9
        assert validate_sculpture(sc).ok


# ---------------------------------------------------------------------------
# Complexes


def test_full_box_is_the_bulk():
    emb = complex_to_hda([cube((0, 0, 0), (1, 1, 1))])
    assert [len(emb.hda.grade(n)) for n in range(4)] == [8, 12, 6, 1]
    sc = emb.to_sculpture()
    assert validate_sculpture(sc).ok
    b = make_bulk(3)
    assert sculptures_isomorphic(sc, Sculpture(b, 3, {c: c for c in b.all_cells()}))


def test_face_closure_is_applied_and_reported():
    comp, added = euclidean_complex([cube((0, 0), (1, 1))])
    assert len(comp.cubes) == 9
    assert len(added) == 8
    with pytest.raises(InvalidStructureError):
        euclidean_complex([cube((0, 0), (1, 1))], auto_close=False)


def test_staircase_of_two_squares_is_sculptable_in_bulk4():
    emb = complex_to_hda([cube((0, 0), (1, 1)), cube((1, 1), (2, 2))])
    assert is_connected(emb.hda)
    assert emb.grid.sizes == (2, 2)
    v = decide_sculptable(emb.hda)
    assert v.sculptable and v.sculpture.d == 4
    assert validate_sculpture(emb.to_sculpture()).ok


def test_flat_axes_are_projected_away():
    emb = complex_to_hda([cube((0, 5), (1, 5))])
    assert emb.grid.sizes == (1,)
    assert validate_sculpture(emb.to_sculpture()).ok


def test_small_complex_in_a_large_bounding_box_is_built_and_sculptable():
    # 2,001 cells along the diagonal of a 250 x 250 box, whose grid would
    # have 251,001 cells, over the grid limit; nothing here reads that grid
    emb = complex_to_hda([cube((i, i), (i + 1, i + 1)) for i in range(250)])
    assert emb.hda.base.size() == 2001 and emb.sizes == (250, 250)
    v = decide_sculptable(emb.hda)
    assert v.sculptable and v.d == 500
    sc = emb.to_sculpture()
    assert sc.d == 500 and validate_sculpture(sc).ok
    with pytest.raises(ResourceLimitError):
        emb.grid


def test_initial_vertex_must_exist():
    with pytest.raises(ValueError):
        complex_to_hda([cube((0, 1), (1, 1)), cube((1, 0), (1, 1))])


def test_complex_outputs_are_sculptable():
    shapes = [
        [cube((0, 0), (1, 1)), cube((1, 0), (2, 1))],
        [cube((0, 0), (1, 1)), cube((1, 0), (2, 1)), cube((0, 1), (1, 2))],
        [cube((0, 0, 0), (1, 1, 1)), cube((1, 0, 0), (2, 1, 1))],
    ]
    for cubes in shapes:
        emb = complex_to_hda(cubes)
        assert decide_sculptable(emb.hda).sculptable


def test_sculpture_to_complex_reads_back_the_bulk():
    b = make_bulk(2)
    sc = Sculpture(b, 2, {c: c for c in b.all_cells()})
    comp = sculpture_to_complex(sc)
    assert len(comp.cubes) == 9
    assert {q.dim for q in comp.cubes} == {0, 1, 2}
    # and back again
    emb = complex_to_hda(comp.cubes)
    assert sculptures_isomorphic(emb.to_sculpture(), sc)


def test_matchbox_complex_roundtrip():
    from hdasculpt import corpus
    sc = corpus.matchbox_sculpture()
    comp = sculpture_to_complex(sc)
    emb = complex_to_hda(comp.cubes, initial=(0, 0, 0))
    assert sculptures_isomorphic(emb.to_sculpture(), sc)
