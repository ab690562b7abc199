"""Record the report digests that ``run.py`` checks campaigns against.

Usage, from the repository root, on a commit whose reports are known good:

    python3 bench/record_reference.py

The exhaustive workloads get one digest each (their reports do not
depend on the seed); ``random-qi`` gets one per campaign seed for the
first CAMPAIGNS campaigns of each of DEFAULT_SEEDS.  Campaigns beyond
those are still checked, only without a digest.
"""
from __future__ import annotations

import json
import sys

import workloads
from workloads import WORKLOADS

DEFAULT_SEEDS = range(10)
CAMPAIGNS = 10


def digest(cli, workload, verify_seed: int) -> str:
    out = workloads.ROOT / ".bench_out" / "reference-report.json"
    out.parent.mkdir(exist_ok=True)
    argv = ["verify", *workload.verify_args, "--seed", str(verify_seed), "--out", str(out)]
    if cli.main(argv) != 0:
        raise SystemExit(f"{workload.name} seed {verify_seed}: verify failed")
    text = out.read_text(encoding="utf-8")
    out.unlink()
    problems = workloads.check_report(workload, text, None)
    if problems:
        raise SystemExit(f"{workload.name} seed {verify_seed}: " + "; ".join(problems))
    return workloads.report_digest(workload, json.loads(text))


def main() -> None:
    workloads.use_source_tree()
    from starinv import cli

    reference = {}
    for workload in WORKLOADS.values():
        if workload.seeded:
            reference[workload.name] = {
                str(s): digest(cli, workload, s)
                for seed in DEFAULT_SEEDS
                for s in (workloads.campaign_seed(seed, i) for i in range(CAMPAIGNS))
            }
        else:
            reference[workload.name] = digest(cli, workload, 0)
        sys.stderr.write(f"recorded {workload.name}\n")
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
