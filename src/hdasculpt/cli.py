"""Command-line interface.

Exit codes: 0 success (and: sculptable, for ``check``/``oracle``), 1 a
negative decision or failed corpus expectations, 2 invalid input or any
other error.  ``--format json`` output is the stable machine interface.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import corpus as corpus_mod
from .bulk import make_bulk, sculpture_from_json, sculpture_to_json, st_to_sculpture, sculpture_to_st
from .decision import decide_sculptable, path_covering, verdict_to_json
from .errors import HdaError, InvalidStructureError
from .euclid import complex_to_json, make_grid
from .precubical import hda_from_json, hda_to_json, validate_hda
from .pv import parse_pv, pv_to_complex
from .randgen import random_hda_batch
from .render import to_dot, to_tikz
from .st_chu import (chu_from_json, chu_to_json, chu_to_st, chu_to_text,
                     st_from_json, st_to_chu, st_to_json)


def _emit(data) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _load_hda(path: str):
    """The HDA of a file: HDA JSON, or what ``pv build`` writes, whose
    ``hda`` member holds it."""
    data = _load(path)
    if isinstance(data, dict) and "cells" not in data and "hda" in data:
        data = data["hda"]
    return hda_from_json(data)


def _load_valid_hda(path: str):
    """``_load_hda``, raising InvalidStructureError unless the HDA is valid."""
    h = _load_hda(path)
    report = validate_hda(h)
    if not report.ok:
        raise InvalidStructureError(str(report), report)
    return h


def _error(exc) -> int:
    _emit({"error": type(exc).__name__, "message": str(exc)})
    return 2


def _cmd_check(args) -> int:
    h = _load_hda(args.input)
    verdict = decide_sculptable(h, oracle=args.oracle, max_events=args.max_events,
                                node_budget=args.node_budget)
    _emit(verdict_to_json(verdict))
    return 0 if verdict.sculptable else 1


def _cmd_cover(args) -> int:
    h = _load_valid_hda(args.input)
    _emit(st_to_json(path_covering(h).structure))
    return 0


# (from, to) -> the conversion; text is printed as it is, the rest as JSON
_CONVERSIONS = {
    ("st", "chu"): lambda data: chu_to_json(st_to_chu(st_from_json(data))),
    ("chu", "st"): lambda data: st_to_json(chu_to_st(chu_from_json(data))),
    ("sculpture", "st"):
        lambda data: st_to_json(sculpture_to_st(sculpture_from_json(data))),
    ("st", "sculpture"):
        lambda data: sculpture_to_json(st_to_sculpture(st_from_json(data))),
    ("chu", "text"): lambda data: chu_to_text(chu_from_json(data)),
}


def _cmd_convert(args) -> int:
    data = _load(args.input)
    convert = _CONVERSIONS.get((args.source, args.target))
    if convert is None:
        raise ValueError(f"unsupported conversion {args.source} -> {args.target}")
    out = convert(data)
    if isinstance(out, str):
        print(out)
    else:
        _emit(out)
    return 0


def _cmd_bulk(args) -> int:
    _emit(hda_to_json(make_bulk(args.d)))
    return 0


def _cmd_grid(args) -> int:
    _emit(hda_to_json(make_grid(*args.sizes)))
    return 0


def _cmd_pv(args) -> int:
    with open(args.input) as fh:
        prog = parse_pv(fh.read())
    emb = pv_to_complex(prog)
    _emit({"complex": complex_to_json(emb.complex), "hda": hda_to_json(emb.hda)})
    return 0


def _cmd_corpus_run(_args) -> int:
    all_ok = True
    for f in corpus_mod.fixtures():
        verdict, failures = corpus_mod.run_fixture(f)
        status = "ok" if not failures else "FAIL"
        summary = "sculptable" if verdict.sculptable else "not sculptable"
        if verdict.witness is not None:
            summary += f" ({verdict.witness.kind})"
        print(f"{f.name:<26} {status:<5} {summary}")
        for msg in failures:
            print(f"    {msg}")
            all_ok = False
    return 0 if all_ok else 1


def _cmd_corpus_export(args) -> int:
    for path in corpus_mod.export_corpus(args.directory):
        print(path)
    return 0


def _cmd_export(args) -> int:
    h = _load_valid_hda(args.input)
    if args.format == "dot":
        print(to_dot(h))
    elif args.format == "tikz":
        print(to_tikz(h))
    else:
        _emit(hda_to_json(h))
    return 0


def _cmd_random(args) -> int:
    batch = random_hda_batch(args.seed, args.count, max_events=args.max_events)
    _emit([hda_to_json(h) for h in batch])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdasculpt",
        description="Model higher-dimensional automata and decide sculptability.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_search_flags(p):
        p.add_argument("--max-events", type=int, default=12,
                       help="exhaustive-search bound on universal events")
        p.add_argument("--node-budget", type=int, default=10 ** 6,
                       help="repair-search node budget")

    p = sub.add_parser("check", help="decide sculptability of an HDA JSON file")
    p.add_argument("input")
    p.add_argument("--oracle", action="store_true",
                   help="use the exhaustive partition search")
    add_search_flags(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("oracle", help="exhaustive decision, for cross-checks")
    p.add_argument("input")
    add_search_flags(p)
    p.set_defaults(func=_cmd_check, oracle=True)

    p = sub.add_parser("cover", help="emit the path-covering ST-structure")
    p.add_argument("input")
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("convert", help="convert between representations")
    p.add_argument("--from", dest="source", required=True,
                   choices=["st", "chu", "sculpture"])
    p.add_argument("--to", dest="target", required=True,
                   choices=["st", "chu", "sculpture", "text"])
    p.add_argument("input")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("bulk", help="emit the full d-cube as HDA JSON")
    p.add_argument("d", type=int)
    p.set_defaults(func=_cmd_bulk)

    p = sub.add_parser("grid", help="emit a grid as HDA JSON")
    p.add_argument("sizes", type=int, nargs="+")
    p.set_defaults(func=_cmd_grid)

    pv_parser = sub.add_parser("pv", help="PV program commands")
    pv_sub = pv_parser.add_subparsers(dest="pv_command", required=True)
    p = pv_sub.add_parser("build", help="build the complex and HDA of a PV file")
    p.add_argument("input")
    p.set_defaults(func=_cmd_pv)

    corpus_parser = sub.add_parser("corpus", help="bundled example commands")
    corpus_sub = corpus_parser.add_subparsers(dest="corpus_command", required=True)
    p = corpus_sub.add_parser("run", help="decide all fixtures against expectations")
    p.set_defaults(func=_cmd_corpus_run)
    p = corpus_sub.add_parser("export", help="write fixture JSON files")
    p.add_argument("directory")
    p.set_defaults(func=_cmd_corpus_export)

    p = sub.add_parser("export", help="render an HDA JSON file")
    p.add_argument("input")
    p.add_argument("--format", choices=["json", "dot", "tikz"], default="json")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("random", help="emit seeded random test automata")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--max-events", type=int, default=6)
    p.set_defaults(func=_cmd_random)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()   # so a closed stdout is found here, not at exit
        return status
    except BrokenPipeError:
        # the reader is gone, so the output did not reach it: exit 2, and
        # send what is still buffered to devnull rather than print an error
        # into the same pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except (HdaError, ValueError, OSError, json.JSONDecodeError, KeyError,
            RecursionError) as exc:   # a RecursionError: input too deep to check
        return _error(exc)


if __name__ == "__main__":
    sys.exit(main())
