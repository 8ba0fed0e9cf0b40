"""Record what run.py checks against and scales by.

    python3 perfbench/record.py --seeds 0-31 [--workload NAME ...]
    python3 perfbench/record.py --times --seeds 0-7 [--workload NAME ...]

The first form runs every invocation of each workload once per seed on the
current sources and rewrites ``expected/<workload>.json``.  Record on the
commit whose outputs are the reference, and only when a workload or its
configs change.

``--times`` runs every invocation once per seed on the frozen copy in
``reference/`` and stores the median wall, ``main`` and set-up time of each
in ``reference/times.json``: the reference seconds that run.py reports in.
Record them again only together with a new reference copy or workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import checks
import run


def seed_range(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="inclusive range, e.g. 0-31")
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    parser.add_argument("--times", action="store_true", help="record reference/times.json instead")
    args = parser.parse_args()
    if args.times:
        return record_times(args.workload or sorted(run.WORKLOADS), args.seeds)
    run.EXPECTED.mkdir(exist_ok=True)
    with run.scratch_dir("record-") as work:
        for workload in args.workload or sorted(run.WORKLOADS):
            per_seed = {}
            for seed in args.seeds:
                per_seed[seed] = {}
                for stem in run.WORKLOADS[workload]:
                    out = work / f"{stem}.csv"
                    out.unlink(missing_ok=True)
                    argv = run.cli_argv(stem, seed, out)
                    _, code, _ = run.spawn([str(work / "result.json"), "plain", "--", *argv], work / "err")
                    per_seed[seed][stem] = checks.digest(argv[0], code, out)
                print(f"{workload} seed {seed}: exit codes "
                      f"{[d['exit'] for d in per_seed[seed].values()]}", file=sys.stderr)
            checks.write_expectations(run.EXPECTED / f"{workload}.json", per_seed)
    return 0


def record_times(workloads: list[str], seeds: list[int]) -> int:
    recorded = json.loads(run.REFERENCE_TIMES.read_text()) if run.REFERENCE_TIMES.is_file() else {}
    with run.scratch_dir("record-") as work:
        for workload in workloads:
            expectations = checks.Expectations(run.EXPECTED / f"{workload}.json")
            passes = [
                run.run_pass(workload, seed, ("reference",), work, expectations)["reference"] for seed in seeds
            ]
            if any(p["failed"] for p in passes):
                print(f"{workload}: the reference copy failed its check", file=sys.stderr)
                return 1
            recorded[workload] = {
                stem: {name: statistics.median(part(p["runs"][i]) for p in passes) for name, part in run.TIMES.items()}
                for i, stem in enumerate(run.WORKLOADS[workload])
            }
            print(f"{workload}: {json.dumps(recorded[workload])}", file=sys.stderr)
    run.REFERENCE_TIMES.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
