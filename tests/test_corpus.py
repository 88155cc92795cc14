"""Fixture integrity and expected verdicts."""

import json
from pathlib import Path

from hdasculpt import corpus, is_connected, validate_hda


def test_at_least_fourteen_fixtures():
    assert len(corpus.fixtures()) >= 14


def test_every_fixture_builds_valid():
    for f in corpus.fixtures():
        h = f.build()
        assert validate_hda(h).ok, f.name
        assert is_connected(h), f.name


def test_expected_verdicts_hold():
    for f in corpus.fixtures():
        _, failures = corpus.run_fixture(f)
        assert not failures, (f.name, failures)


def test_unfolding_combinations_are_covered():
    """The five automaton/unfolding sculptability combinations all appear.

    The broken box is the matchbox's unfolding, finite chains approximate
    the loop's, the split triangle is the triangle's, and the speed game
    and wheel are their own unfoldings.
    """
    by_name = {f.name: f for f in corpus.fixtures()}
    # sculptable whose unfolding is not
    assert by_name["matchbox"].sculptable and not by_name["broken_box"].sculptable
    # not sculptable whose unfolding is
    assert not by_name["triangle"].sculptable
    assert by_name["triangle_unfolding"].sculptable
    assert not by_name["ab_loop"].sculptable and by_name["ab_chain"].sculptable
    # sculptable whose unfolding is sculptable (its own unfolding)
    assert by_name["triangle_unfolding"].sculptable
    # not sculptable, unfolding not sculptable (their own unfoldings)
    assert not by_name["speed_game"].sculptable
    assert not by_name["wheel"].sculptable
    # plain acyclic non-sculptable examples exist
    assert not by_name["broken_box"].sculptable


def test_export_writes_parseable_files(tmp_path):
    paths = corpus.export_corpus(str(tmp_path))
    assert len(paths) == len(corpus.fixtures())
    for p in paths:
        with open(p) as fh:
            data = json.load(fh)
        assert {"name", "hda", "expected"} <= set(data)


def test_shipped_corpus_files_are_the_exported_fixtures(tmp_path):
    # the benchmark and the command-line checks read corpus/*.json, so the
    # files must stay what export_corpus writes
    shipped = Path(__file__).resolve().parents[1] / "corpus"
    written = [Path(p) for p in corpus.export_corpus(str(tmp_path))]
    assert sorted(p.name for p in written) == sorted(p.name for p in shipped.iterdir())
    for path in written:
        assert path.read_bytes() == (shipped / path.name).read_bytes(), path.name
