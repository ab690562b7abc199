"""Campaign benchmark for starinv: what a user waits for in ``starinv verify``.

Usage, from the repository root:

    python3 bench/run.py --workload random-qi --seed 1 --seconds 35 --trace 0

Campaigns run in this process through ``starinv.cli.main`` with
``--out``, one after another (a closed loop of one caller), for about
``--seconds`` of campaign time.  Every written report is read
back and checked (exit code, no failed battery, records = pairs x 14 in
order, SHA-256 against ``reference.json`` where one was recorded).

``--trace 0`` reports the end-to-end metrics.  Set-up is timed in at least
five fresh interpreters (``setup_probe.py``), run between campaigns,
and the median reported.  Set-up and campaign times are in reference
seconds: wall time scaled by the host speed measured during it
(``hostclock.py``), so that the host's own slow stretches do not show
as changes in the program.  The summary also prints the raw wall time.
``--trace 1`` reports per-layer metrics instead: it repeats one campaign,
alternately untraced and with the layer boundaries wrapped
(``tracer.py``); layer times are per traced campaign and include the
tracer's own cost, reported as ``trace.overhead_s`` (traced minus
untraced median).  The last traced campaign's spans are written to
``.bench_out/`` in the checkout.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable summary.
Exit code 2 means the benchmark could not run (no sources, bad workload).
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from hostclock import HostClock
from workloads import BATTERIES, THEOREM_IDS, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
OUT_DIR = workloads.ROOT / ".bench_out"
SETUP_PROBES = 5  # at least this many set-up probes per run,
SETUP_INTERVAL = 1.0  # and one before the next campaign once this many seconds have passed

ENGINE_SPANS = (
    "matrices.engine_mp", "matrices.engine_drazin", "algebra.engine_mp", "algebra.engine_drazin",
)
MATRIX_SPANS = (
    "matrices.engine_mp", "matrices.engine_drazin", "matrices.matmul", "matrices.rref",
    "matrices.inverse", "matrices.mp_inverse", "matrices.drazin_inverse",
)
ALGEBRA_SPANS = (
    "algebra.engine_mp", "algebra.engine_drazin", "algebra.brute_force_mp",
    "algebra.brute_force_drazin", "algebra.enumerate_projections",
)
RING_SPANS = ("ring.context", "ring.verify_mp", "ring.is_projection")
# Function and method spans reported with their call count and inclusive time.
CALL_SPANS = (MATRIX_SPANS + ("generators.all_projections", "generators.trial_pair")
              + ALGEBRA_SPANS + RING_SPANS)
WORK_COUNTERS = (
    "matrices.matmul.scalar_mults",
    "generators.all_projections.scanned",
    "generators.all_projections.found",
)
COMMON_SPANS = ("cli.main", "campaign.run_campaign", "campaign.report") + RING_SPANS + tuple(
    "campaign.battery." + t for t in THEOREM_IDS)

# Spans each workload exists to exercise: a wrapper that is silently
# missed (a renamed or re-bound function) leaves one of these at zero.
REQUIRED_SPANS = {
    "random-qi": COMMON_SPANS + MATRIX_SPANS + ("generators.trial_pair",),
    "sweep-gf2": COMMON_SPANS + MATRIX_SPANS + ("generators.all_projections",),
    "algebra-ex26": COMMON_SPANS + ALGEBRA_SPANS,
}


class Runner:
    """Runs and checks campaigns of one workload, collecting failures."""

    def __init__(self, workload: Workload):
        from starinv import cli

        self.cli = cli
        self.workload = workload
        self.reference = workloads.load_reference()
        self.out_path = OUT_DIR / f"report-{workload.name}-{os.getpid()}.json"
        self.attempted = 0
        self.failed = 0

    def campaign(self, verify_seed: int) -> tuple[float, float]:
        """Run one verify campaign and check its report; return its start and end."""
        argv = ["verify", *self.workload.verify_args, "--seed", str(verify_seed),
                "--out", str(self.out_path)]
        self.attempted += 1
        self.out_path.unlink(missing_ok=True)
        start = perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception:
            end = perf_counter()
            self._fail(verify_seed, ["raised:\n" + traceback.format_exc()])
            return start, end
        end = perf_counter()
        problems = [] if code == 0 else [f"exit code {code}"]
        expected = workloads.reference_digest(self.reference, self.workload, verify_seed)
        try:
            text = self.out_path.read_text(encoding="utf-8")
            problems += workloads.check_report(self.workload, text, expected)
        except OSError as exc:
            problems.append(f"no report: {exc}")
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable report: {exc!r}")
        if problems:
            self._fail(verify_seed, problems)
        return start, end

    def _fail(self, verify_seed: int, problems: list[str]) -> None:
        self.failed += 1
        sys.stderr.write(f"campaign seed {verify_seed} failed: " + "; ".join(problems) + "\n")

    def close(self) -> None:
        self.out_path.unlink(missing_ok=True)


def setup_seconds(workload: Workload, seed: int) -> float:
    """Set-up time of the workload measured in a fresh interpreter."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload.name, str(seed)]
    done = subprocess.run(probe, cwd=workloads.ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def tail_percentile(times: list[float]) -> str:
    """The highest of p90/p95/p99 with at least ten samples above it."""
    for q in (99, 95, 90):
        if len(times) * (100 - q) / 100 >= 10:
            cut = statistics.quantiles(times, n=100)[q - 1]
            return f", p{q} {cut:.4f}"
    return ""


def end_to_end(runner: Runner, seed: int, seconds: float) -> dict:
    """Campaigns on successive seeds until one more would take their wall time past ``seconds``.

    A host clock (``hostclock.py``) runs through the campaigns and turns
    each one's wall time into reference seconds; campaign_s is their
    median.  Set-up probes are spread between campaigns, with the clock
    stopped, so that their median too covers the whole run rather than
    one stretch of it.
    """
    workload = runner.workload
    clock = HostClock()
    setups, stretches = [], []
    clock.start()
    last_probe = None
    for index in itertools.count():
        if last_probe is None or perf_counter() - last_probe >= SETUP_INTERVAL:
            clock.stop()
            setups.append(setup_seconds(workload, seed))
            clock.start()
            last_probe = perf_counter()
        stretches.append(runner.campaign(workloads.campaign_seed(seed, index)))
        wall = sum(end - start for start, end in stretches)
        if wall + wall / len(stretches) > seconds:
            break
    clock.stop()
    while len(setups) < SETUP_PROBES:
        setups.append(setup_seconds(workload, seed))
    times = [clock.seconds(start, end) for start, end in stretches]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "campaign_s": (statistics.median(times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    # Records per campaign are fixed per workload, so throughput restates
    # campaign_s as a mean over the run; it is printed, not reported as a metric.
    checks_per_s = workload.pairs * BATTERIES * len(times) / sum(times)
    walls = [end - start for start, end in stretches]
    print(f"{workload.name}: {len(times)} campaigns, median {metrics['campaign_s'][0]:.4f} "
          f"reference s; per campaign min {min(times):.4f}, max {max(times):.4f}"
          f"{tail_percentile(times)}; set-up median of {len(setups)} fresh interpreters")
    print(f"  wall time median {statistics.median(walls):.4f} s, host at "
          f"{clock.median_speed():.3f} of reference speed (median of {len(clock.samples)} samples)")
    print(f"  checks_per_s = {checks_per_s:.6g} 1/s (battery verdicts per reference second)")
    return metrics


def layer_metrics(tracer, counts: dict, campaigns: int, overhead: float) -> dict:
    """Per-layer metrics of one traced campaign; times are averaged over the campaigns."""
    calls, work, distinct = counts["calls"], counts["work"], counts["distinct"]

    def seconds(spans, table):
        return sum(table[s] for s in spans) / campaigns

    metrics = {}
    for span in CALL_SPANS:
        metrics[span + ".calls"] = (calls.get(span, 0), "count")
        metrics[span + ".s"] = (seconds([span], tracer.total), "s")
    for span in ENGINE_SPANS:
        metrics[span + ".distinct"] = (distinct.get(span, 0), "count")
    for counter in WORK_COUNTERS:
        metrics[counter] = (work.get(counter, 0), "count")
    mults = work.get("matrices.matmul.scalar_mults", 0)
    matmul_ns = 1e9 * seconds(["matrices.matmul"], tracer.self_time)
    metrics["scalars.ns_per_mult"] = (matmul_ns / mults if mults else 0.0, "ns")
    batteries = ["campaign.battery." + t for t in THEOREM_IDS]
    for theorem, span in zip(THEOREM_IDS, batteries):
        metrics["campaign.battery_s." + theorem] = (seconds([span], tracer.total), "s")
    metrics["campaign.report_s"] = (seconds(["campaign.report"], tracer.total), "s")
    metrics["campaign.self_s"] = (seconds(["campaign.run_campaign"], tracer.self_time), "s")
    metrics["theorems.self_s"] = (seconds(batteries, tracer.self_time), "s")
    metrics["cli.self_s"] = (seconds(["cli.main"], tracer.self_time), "s")
    metrics["trace.spans"] = (counts["spans"], "count")
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def per_layer(runner: Runner, seed: int, seconds: float) -> tuple[dict, list[str]]:
    """Alternate untraced and traced runs of one campaign; return metrics and problems.

    Alternating puts both sides of ``trace.overhead_s`` in the same
    stretch of machine time.
    """
    import tracer as tracing

    verify_seed = workloads.campaign_seed(seed, 0)
    tracer = tracing.Tracer()
    untraced, traced, snapshots = [], [], []
    started = perf_counter()
    while True:
        start, end = runner.campaign(verify_seed)
        untraced.append(end - start)
        # Only the last campaign's spans are kept; the sums cover every campaign.
        tracer.clear_spans()
        calls, work = tracer.calls.copy(), tracer.counts.copy()
        missing = tracing.install(tracer)
        try:
            start, end = runner.campaign(verify_seed)
            traced.append(end - start)
        finally:
            tracer.uninstall()
        snapshots.append({
            "calls": dict(tracer.calls - calls),
            "work": dict(tracer.counts - work),
            "distinct": {span: len(seen) for span, seen in tracer.distinct.items()},
            "spans": tracer.span_count,
        })
        tracer.distinct.clear()
        pair = statistics.median(untraced) + statistics.median(traced)
        if perf_counter() - started + pair > seconds:
            break
    problems = [f"{target} not found, so not traced" for target in missing]
    if any(s != snapshots[0] for s in snapshots):
        problems.append("counts differ between repeats of the same campaign")
    counts = snapshots[0]
    unused = [s for s in REQUIRED_SPANS[runner.workload.name] if not counts["calls"].get(s)]
    if unused:
        problems.append("spans with no calls: " + ", ".join(unused))
    spans_path = OUT_DIR / f"spans-{runner.workload.name}-seed{seed}.tsv"
    tracer.write_spans(spans_path)
    overhead = statistics.median(traced) - statistics.median(untraced)
    print(f"{runner.workload.name}: {len(traced)} traced campaigns, each after an untraced one; "
          f"spans of the last written to {spans_path.relative_to(workloads.ROOT)}")
    return layer_metrics(tracer, counts, len(traced), overhead), problems


def declared_metrics(trace: bool) -> list[str]:
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads.use_source_tree()
    OUT_DIR.mkdir(exist_ok=True)

    runner = Runner(WORKLOADS[args.workload])
    problems: list[str] = []
    try:
        if args.trace:
            metrics, problems = per_layer(runner, args.seed, args.seconds)
        else:
            metrics = end_to_end(runner, args.seed, args.seconds)
    finally:
        runner.close()
    declared = declared_metrics(bool(args.trace))
    if sorted(declared) != sorted(metrics):
        sys.stderr.write("error: reported metrics do not match BENCHMARK.json\n")
        return 2
    for problem in problems:
        sys.stderr.write(f"trace check failed: {problem}\n")

    failed_ratio = runner.failed / runner.attempted
    for name in declared:
        value, unit = metrics[name]
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_ratio = {failed_ratio:.6g} ({runner.failed}/{runner.attempted} campaigns)")
    result = {
        "correct": runner.failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
