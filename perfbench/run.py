"""Sculptability benchmark: decide one workload's instances for a fixed time.

    python3 perfbench/run.py --workload {pv_grid,small_mixed}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports the library from the
checkout's ``src`` directory and exits non-zero when there is none.  The
instances are decided in whole rounds until ``--seconds`` have passed, in
this one process and thread.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer ones, writing its spans under ``.perfbench_out/``.  Every distinct
output is checked afterwards.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import checks
import reference
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
MIN_SETUPS = 3


def load_library():
    """Import ``hdasculpt`` afresh from the checkout's ``src`` directory."""
    for name in [n for n in sys.modules if n.split(".")[0] == "hdasculpt"]:
        del sys.modules[name]
    pkg = importlib.import_module("hdasculpt")
    if Path(pkg.__file__).resolve().parent != SRC / "hdasculpt":
        sys.exit(f"perfbench: hdasculpt came from {pkg.__file__}, not {SRC}")
    params = inspect.signature(pkg.decide_sculptable).parameters
    return SimpleNamespace(
        pkg=pkg, randgen=importlib.import_module("hdasculpt.randgen"),
        defaults={name: p.default for name, p in params.items()})


class Record:
    """Per-instance times and distinct outputs of one mode (traced or not)."""

    def __init__(self, n: int):
        self.times: list[list[float]] = [[] for _ in range(n)]   # failed ones too
        self.decided = [False] * n
        self.outputs: list[set[str]] = [set() for _ in range(n)]
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def run_round(self, lib, instances, decide) -> None:
        for i, inst in enumerate(instances):
            t0 = perf_counter()
            try:
                out = decide(lib, inst, i)
            except lib.pkg.ResourceLimitError:
                out = None
            except Exception as exc:  # a wrong outcome, reported with the checks
                out = exc
            self.times[i].append(perf_counter() - t0)
            self.attempted += 1
            if out is None:
                self.failed += 1
            elif isinstance(out, Exception):
                self.errors.append(f"{inst.name}: raised {out!r}")
            else:
                self.decided[i] = True
                self.outputs[i].add(out)

    def medians(self) -> list[float]:
        return [statistics.median(ts) for ts in self.times]


def untraced(lib, inst, i):
    return workloads.decide(lib, inst)


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Whole rounds until ``seconds`` pass, each after a fresh set-up.

    Setting up before every round spreads the set-up samples over the run,
    so a burst of load on the machine does not hit all of them.  With
    tracing, an untraced and a traced round follow each set-up, taking
    turns at going first.
    """
    setups: list[float] = []
    plain = traced = None
    layers: list[dict[str, float]] = []
    spans: list[dict] = []
    deadline = perf_counter() + seconds
    while True:
        start = perf_counter()
        lib = load_library()
        instances = workloads.build_inputs(lib, workload, seed, ROOT)
        setups.append(perf_counter() - start)
        if plain is None:
            plain, traced = Record(len(instances)), Record(len(instances))
        if not trace:
            plain.run_round(lib, instances, untraced)
        else:
            tracer = tracing.Tracer()
            rounds = [(plain, untraced),
                      (traced, lambda lib, inst, i:
                       tracing.decide_traced(lib, inst, tracer, i))]
            for rec, decide in rounds[::1 if len(setups) % 2 else -1]:
                rec.run_round(lib, instances, decide)
            layers.append(tracing.layer_metrics(tracer))
            spans.append({"round": len(spans), "spans": tracer.to_json()})
        if perf_counter() >= deadline and len(setups) >= MIN_SETUPS:
            return lib, instances, setups, plain, traced, layers, spans


def check_outputs(lib, instances, records) -> list[str]:
    """Every distinct output of every instance, checked apart from the library."""
    problems = [e for rec in records for e in rec.errors]
    for i, inst in enumerate(instances):
        texts = set().union(*(rec.outputs[i] for rec in records))
        verdicts = {summary(json.loads(t)) for t in texts}
        if len(verdicts) > 1:
            problems.append(f"{inst.name}: verdict, witness kind or d differ "
                            f"between rounds or between traced and untraced: {verdicts}")
        raw = (json.loads(inst.raw) if inst.kind == "json"
               else checks.plain_hda(workloads.automaton(lib, inst)))
        refuted: list[str] | None = None
        for text in texts:
            verdict = json.loads(text)
            found = check_verdict(inst, raw, verdict)
            if found is None:   # a negative that only the reference decider can check
                if refuted is None:
                    refuted = refute(raw)
                found = refuted
            problems += [f"{inst.name}: {p}" for p in found]
        if inst.kind != "json":
            problems += [f"{inst.name}: {p}" for p in sanity_check_checker(lib, inst)]
    return problems


def summary(verdict: dict):
    return (verdict.get("sculptable"), (verdict.get("witness") or {}).get("kind"),
            verdict.get("d"))


def check_verdict(inst, raw: dict, verdict: dict) -> list[str] | None:
    problems = []
    if inst.expected is not None:
        problems += checks.check_expected(verdict, inst.expected)
    if verdict.get("sculptable"):
        problems += checks.check_positive(raw, verdict)
        if inst.kind == "grid" and verdict.get("d") != sum(inst.raw):
            problems.append(f"grid decided with d={verdict.get('d')}, not {sum(inst.raw)}")
        return problems
    if inst.kind != "json":
        return problems + ["negative verdict on an input that has a grid certificate"]
    witness = verdict.get("witness") or {}
    if witness.get("kind") == "length_mismatch":
        return problems + checks.check_length_mismatch(raw, witness)
    if inst.expected is not None:
        return problems
    if witness.get("kind") in ("label_clash", "exhausted"):
        return None
    return [f"no independent check for witness kind {witness.get('kind')!r}"]


def refute(raw: dict) -> list[str]:
    """Problems if the reference decider finds a proper identification."""
    classes = reference.proper_identification(raw)
    if classes is None:
        return []
    d, em = reference.embedding(raw, classes)
    if checks.check_certificate(raw, d, em):
        return ["the reference decider found an identification it cannot embed"]
    return [f"decided not sculptable, but the reference embeds it with d={d}"]


def sanity_check_checker(lib, inst) -> list[str]:
    """The checker must accept the input's grid certificate and reject a broken one."""
    if inst.kind == "pv":
        sculpture = lib.pkg.pv_to_complex(lib.pkg.parse_pv(inst.raw)).to_sculpture()
    else:
        sculpture = lib.pkg.grid_to_bulk(lib.pkg.grid(*inst.raw))
    raw = checks.plain_hda(sculpture.hda)
    em = dict(sculpture.em)
    problems = [f"checker rejects the grid certificate: {p}"
                for p in checks.check_certificate(raw, sculpture.d, em)[:3]]
    a, b = [v for v in raw["cells"]["0"] if v != raw["initial"]][:2]
    em[a], em[b] = em[b], em[a]
    if not checks.check_certificate(raw, sculpture.d, em):
        problems.append("checker accepts a certificate with two vertices swapped")
    return problems


def end_to_end(setups: list[float], rec: Record, peak_rss_mb: float) -> dict[str, float]:
    """Each instance's time and the set-up time are medians over the rounds."""
    medians = rec.medians()
    decided = [t for t, ok in zip(medians, rec.decided) if ok]
    return {"setup_s": statistics.median(setups),
            "decide_total_s": sum(medians),
            "verdict_p50_ms": 1000 * statistics.median(decided),
            "verdict_p95_ms": 1000 * statistics.quantiles(
                decided, n=20, method="inclusive")[18],
            "peak_rss_mb": peak_rss_mb}


def per_layer(plain: Record, traced: Record, layers) -> dict[str, float]:
    """Each layer's median over the traced rounds."""
    out = {name: statistics.median(r[name] for r in layers) for name in layers[0]}
    out["trace.overhead_pct"] = 100 * (sum(traced.medians()) / sum(plain.medians()) - 1)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hdasculpt" / "__init__.py").is_file() or not (ROOT / "corpus").is_dir():
        sys.exit(f"perfbench: no hdasculpt sources and corpus under {ROOT}")
    sys.path.insert(0, str(SRC))

    lib, instances, setups, plain, traced, layers, spans = measure(
        args.workload, args.seed, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    records = [plain, traced] if args.trace else [plain]
    problems = check_outputs(lib, instances, records)
    for p in problems[:20]:
        print(f"perfbench: {p}", file=sys.stderr)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = bench["per_layer" if args.trace else "end_to_end"]
    unit = {m["name"]: m["unit"] for m in listed}
    if args.trace:
        metrics = per_layer(plain, traced, layers)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                    "instances": [i.name for i in instances],
                                    "rounds": spans}))
    else:
        metrics = end_to_end(setups, plain, peak_rss_mb)
    if set(metrics) != set(unit):
        sys.exit(f"perfbench: metrics {sorted(set(metrics) ^ set(unit))} "
                 "are not listed in BENCHMARK.json or not measured")
    for name, value in metrics.items():
        print(f"{args.workload:12} {name:30} {value:14.6f} {unit[name]}")
    print(f"{args.workload:12} attempted {sum(r.attempted for r in records)} "
          f"failed {sum(r.failed for r in records)} problems {len(problems)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in records),
        "failed": sum(r.failed for r in records),
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
