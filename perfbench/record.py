"""Record the reference pools: every query a run can draw, with its answer's digest.

    python3 perfbench/record.py [WORKLOAD ...]

Generates each workload's pool from workloads.POOL_SEED, runs every query
once through `fatpoints.cli.main` from this checkout's src/, and writes
reference/<workload>.json with the SHA-256 of each query's `--json`
output.  Run it only at a commit whose answers are trusted: later runs
count any output that differs from these digests as a failed query.  It
stops without writing if a query exits non-zero, and reports any case
that breaks its cross-check.
"""

from __future__ import annotations

import json
import sys

from run import ROOT, _import_cli
from fpbench import harness, workloads


def record(cli, workload: str) -> dict:
    check = workloads.CHECKS[workload]
    strata = []
    for stratum in workloads.generate_pool(workload):
        cases = []
        for case in stratum:
            queries, docs = [], []
            for argv in case:
                _, code, out, err = harness.call_cli(cli, argv)
                if code != 0:
                    raise SystemExit(f"{' '.join(argv)} exited {code}: {err}")
                queries.append({"argv": argv, "sha256": harness.digest(out)})
                docs.append(json.loads(out))
            if check is not None and (reasons := check(case, docs)):
                print(f"cross-check fails for {' '.join(case[0])}: {reasons}")
            cases.append(queries)
        strata.append(cases)
    return {"workload": workload, "pool_seed": workloads.POOL_SEED,
            "recorded_at": harness.git_sha(ROOT), "strata": strata}


def main(argv) -> int:
    cli = _import_cli()
    for workload in argv or workloads.WORKLOADS:
        pool = record(cli, workload)
        path = workloads.reference_path(workload)
        path.write_text(json.dumps(pool, separators=(",", ":")) + "\n", encoding="utf-8")
        count = sum(len(case) for stratum in pool["strata"] for case in stratum)
        print(f"{workload}: {count} queries recorded in {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
