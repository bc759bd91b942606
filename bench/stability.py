#!/usr/bin/env python3
"""Check that the benchmark is steady: repeated runs agree within its bounds.

    python3 bench/stability.py --workload fixed-queries --seeds 1-10
    python3 bench/stability.py --workload fixed-queries --seeds 3,3,3,3,3

Runs the BENCHMARK.json command, with its ``run_seconds``, once per seed
in each of two back-to-back sets (``--trace 0``), one run at a time,
from the root of the checkout, and keeps each run's output under
``bench/.out/stability``.  For every end-to-end metric it prints the
median and the quartile spread, (Q3 - Q1) / median with
``statistics.quantiles(values, n=4)``, of each set, and the change of
the median from the first set to the second.  A seed repeated in
``--seeds`` runs the same inputs again, which separates the machine's
drift from the variation between seeds.

It fails (exit code 1) when a run is not correct, when a spread exceeds
the metric's bound, or when the second set's median is worse than the
first set's by more than the bound.  It also reports spreads above a
third of the bound, the margin the benchmark is tuned to.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LOGS = ROOT / "bench" / ".out" / "stability"  # each run's full output
SETS = 2


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(command, workload, seed, seconds, log: Path) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    log.parent.mkdir(parents=True, exist_ok=True)
    log.write_text(done.stdout, encoding="utf-8")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"seed {seed}: exit code {done.returncode}\n{done.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, later, better) -> float:
    """Relative change of the median, positive when it got worse."""
    change = (statistics.median(later) - statistics.median(first)) / statistics.median(first)
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    metrics = spec["end_to_end"]

    sets = []
    ok = True
    for n in range(SETS):
        values = {m["name"]: [] for m in metrics}
        for i, seed in enumerate(seeds):
            log = LOGS / f"{args.workload}-set{n + 1}-run{i + 1}-seed{seed}.txt"
            result = run_once(spec["command"], args.workload, seed, seconds, log)
            if not result["correct"]:
                print(f"set {n + 1} seed {seed}: not correct ({result['failed']} "
                      f"of {result['attempted']} jobs failed)")
                ok = False
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"set {n + 1} seed {seed}: " + ", ".join(
                f"{k} {v[-1]:.4f}" for k, v in values.items()), flush=True)
        sets.append(values)

    for m in metrics:
        name, bound = m["name"], m["bound"]
        for n, values in enumerate(sets):
            s = spread(values[name])
            verdict = ("over bound" if s > bound
                       else "over a third of the bound" if s > bound / 3
                       else "ok")
            ok &= s <= bound
            print(f"{args.workload} {name} set {n + 1}: median "
                  f"{statistics.median(values[name]):.4f} {m['unit']}, spread "
                  f"{s:.4f} (bound {bound}): {verdict}")
        w = worse_by(sets[0][name], sets[1][name], m["better"])
        ok &= w <= bound
        print(f"{args.workload} {name} set 2 vs set 1: median worse by "
              f"{w:+.4f} (bound {bound}): {'ok' if w <= bound else 'over bound'}")
    print(f"{args.workload}: {'steady' if ok else 'NOT steady'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
