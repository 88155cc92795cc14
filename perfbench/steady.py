"""Steadiness check: repeated fresh-process runs compared against the bounds.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--seconds S]
                                [--workload W ...] [--first-seed N]

Runs ``run.py --trace 0`` once per seed in a fresh process, workloads
interleaved, for ``--sets`` sets of ``--runs`` seeds each (every run gets
its own seed).  For each workload and end-to-end metric it prints the
median and the spread, the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from ``BENCHMARK.json``.  With two or more sets it also
compares each set's median with the first set's and the share of failed
operations.  Exits 0 when every spread but ``setup_s``'s is within its
bound, no median is worse than the first set's by more than the bound, the
failed shares agree and every run was correct; all runs are written to
``.perfbench_out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    return (second - first) / first if better == "lower" else (first - second) / first


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in bench["workloads"]]

    results = {w: [[] for _ in range(args.sets)] for w in names}
    for s in range(args.sets):
        for i in range(args.runs):
            seed = args.first_seed + s * args.runs + i
            for w in names:
                res = run_once(w, seed, args.seconds)
                results[w][s].append(res)
                print(f"set {s} seed {seed} {w}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                    file=sys.stderr, flush=True)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "steady.json").write_text(json.dumps(results, indent=1))

    ok = True
    for w in names:
        sets = results[w]
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        correct = all(r["correct"] for runs in sets for r in runs)
        ok &= correct and len(shares) == 1
        print(f"{w}: failed share {sorted(shares)}, all correct {correct}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            line = f"  {name:16} bound {bound:.2f}"
            medians = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                medians.append(statistics.median(values))
                sp = spread(values)
                mark = "" if sp <= bound / 3 else " (over a third)" if sp <= bound else " OVER"
                ok &= name == "setup_s" or sp <= bound
                line += f" | median {medians[-1]:.4g} {m['unit']} spread {sp:.3f}{mark}"
            for later in medians[1:]:
                shift = worse_by(medians[0], later, m["better"])
                ok &= shift <= bound
                line += f" | worse by {shift:+.3f}" + (" OVER" if shift > bound else "")
            print(line)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
