#!/usr/bin/env python3
"""Record the reference outputs of the correctness gate (reference.json).

    python3 bench/record.py --seeds 0-19

Runs every job of every workload once per seed, untimed, checks its
output against the oracles of ``checks.py`` and stores the numbers of
``checks.reference_values``: per workload and seed for generated cases,
once for the published-case excerpt, whose jobs do not depend on the
seed.  Run it only on a commit whose outputs are the agreed baseline; a
later run of the benchmark compares against these numbers.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import checks
import run
import workloads
from stability import parse_seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-19", help="e.g. 0-19 or 3,5,8")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    import mixref.cli as cli

    doc = {"pubcase": {}, "seeds": {}}
    if checks.REFERENCE_FILE.exists():
        doc = json.loads(checks.REFERENCE_FILE.read_text(encoding="utf-8"))
    for name in workloads.NAMES:
        for seed in parse_seeds(args.seeds):
            work = run.WORK / f"record-{name}-{seed}"
            try:
                load = workloads.build(name, seed, work)
                oracle = checks.Oracle()
                for job in load.jobs:
                    on_excerpt = job.case.freqs.parent == workloads.PUBCASE_DIR
                    if on_excerpt and job.name in doc["pubcase"]:
                        continue
                    record = run.run_job(cli, job)
                    problems = [record.error] if record.error else (
                        checks.oracle_problems(job, record.values, oracle)
                    )
                    if problems:
                        print(f"{name} seed {seed} {job.name}: {problems}", file=sys.stderr)
                        return 1
                    values = checks.reference_values(job, record.values)
                    if on_excerpt:
                        doc["pubcase"][job.name] = values
                    else:
                        doc["seeds"].setdefault(name, {}).setdefault(
                            str(seed), {})[job.name] = values
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(f"recorded {name} seed {seed}", flush=True)
    checks.REFERENCE_FILE.write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
