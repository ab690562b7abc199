"""Workload table, pair-source set-up and report checks for the benchmark.

Each workload runs all 14 batteries through ``starinv verify``:

* ``random-qi``: seeded random trials over 3x3 Gaussian-rational
  matrices.  Scalar arithmetic and the ``matrices`` solvers do most of
  the work, and the engine is asked for the same daggers many times.
  No enumeration runs, so it is the bypass for enumeration changes.
* ``sweep-gf2``: exhaustive sweep of all 1,444 projection pairs of 4x4
  matrices over GF(2).  The ring is not *-reducing, set-up is dominated
  by scanning 65,536 matrices, and the 20,216-record report is heavy to
  serialise and to hold in memory.
* ``algebra-ex26``: the 144 projection pairs of the six-dimensional
  GF(2) *-algebra.  The only workload through ``algebra`` (bit tables,
  brute-force search, the exhaustive engine's memo); it touches no
  Fraction or matrix code, so scalar and matrix fast paths must leave
  it flat.

The exhaustive workloads sweep the same pairs for every seed; the seed
reaches the program only as the recorded campaign seed.
"""
from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

THEOREM_IDS = (
    "lemma21", "lemma22", "lemma23", "thm24", "cor25", "cor26", "thm27",
    "cor28", "cor29", "lemma210", "lemma211", "lemma212", "thm213", "thm214",
)
BATTERIES = len(THEOREM_IDS)
# Record fields when reference.json was recorded; fields added later (for
# example an error payload) leave the digest of agreeing records unchanged.
RECORD_KEYS = ("theorem", "trial", "status", "failing_checks", "spec", "p", "q")


@dataclass(frozen=True)
class Workload:
    name: str
    verify_args: tuple[str, ...]
    pairs: int
    seeded: bool  # whether the seed changes the pairs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("random-qi", ("--ring", "qi", "--n", "3", "--trials", "20"), 20, True),
        Workload("sweep-gf2", ("--ring", "gf:2", "--n", "4"), 1444, False),
        Workload("algebra-ex26", ("--ring", "example26"), 144, False),
    )
}


def use_source_tree() -> None:
    """Import starinv from the checkout's ``src``; exit 2 if it is absent."""
    if not (SRC / "starinv" / "__init__.py").is_file():
        sys.stderr.write(f"error: no starinv sources under {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def campaign_seed(seed: int, index: int) -> int:
    """The verify seed of the index-th campaign of a run."""
    return seed * 1000 + index


def build_pair_source(workload: Workload, seed: int):
    """Build the workload's pair source with public calls, as set-up does."""
    import starinv

    if workload.name == "random-qi":
        ring = starinv.MatrixRing(starinv.QI, 3)
        starinv.MatrixInverseEngine(ring)
        return starinv.trial_pair(ring, campaign_seed(seed, 0), 0)
    if workload.name == "sweep-gf2":
        return starinv.all_projections_matrix(4, starinv.PrimeField(2))
    return starinv.enumerate_projections(starinv.example26_algebra())


def report_digest(workload: Workload, data: dict) -> str:
    """SHA-256 of the report's verification content.

    Covers config, per-battery counts and records (the RECORD_KEYS fields);
    leaves out ``duration_seconds``, the tool version, the schema number
    and any added stats block.  For the exhaustive workloads the config
    seed is dropped too, so one reference holds for every seed.
    """
    config = dict(data["config"])
    if not workload.seeded:
        config.pop("seed")
    content = {
        "config": config,
        "theorems": data["theorems"],
        "records": [{k: r[k] for k in RECORD_KEYS} for r in data["records"]],
    }
    text = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def reference_digest(reference: dict, workload: Workload, verify_seed: int) -> str | None:
    """The recorded digest for this campaign, or None when none was recorded."""
    entry = reference[workload.name]
    if workload.seeded:
        return entry.get(str(verify_seed))
    return entry


def check_report(workload: Workload, text: str, expected_digest: str | None) -> list[str]:
    """Problems found in one written report; empty when it is correct."""
    data = json.loads(text)
    problems = []
    counts = data["theorems"]
    if tuple(counts) != THEOREM_IDS:
        problems.append(f"batteries {list(counts)}, expected all {BATTERIES}")
    for theorem, c in counts.items():
        if c["failed"]:
            problems.append(f"{theorem}: {c['failed']} failed")
        if c["checked"] != workload.pairs:
            problems.append(f"{theorem}: {c['checked']} checked, expected {workload.pairs}")
    records = data["records"]
    order = [(t, theorem) for t in range(workload.pairs) for theorem in THEOREM_IDS]
    if [(r["trial"], r["theorem"]) for r in records] != order:
        problems.append(f"{len(records)} records, expected {len(order)} in (trial, battery) order")
    if workload.seeded:
        # Q(i) is *-reducing, so every battery applies and must pass.
        statuses = {r["status"] for r in records}
        if statuses != {"passed"}:
            problems.append(f"statuses {sorted(statuses)}, expected only 'passed'")
    if expected_digest is not None and report_digest(workload, data) != expected_digest:
        problems.append("report differs from the recorded reference")
    return problems
