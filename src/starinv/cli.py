"""Command-line front end.

Subcommands:
    verify          run battery campaigns and emit a JSON or CSV report
    inverse         compute an mp/drazin/group inverse of a matrix file
    counterexample  reproduce the non-*-reducing existence asymmetry
    enumerate       list projections or MP-invertible elements

Exit codes: 0 success, 1 verification failures or nonexistent inverse,
2 usage or parse errors.
"""
from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys

from ._version import __version__
from .algebra import brute_force_mp, enumerate_projections, example26_algebra
from .campaign import (
    THEOREM_IDS,
    CampaignConfig,
    check_theorem_ids,
    parse_ring_id,
    run_campaign,
)
from .generators import EXHAUSTIVE_CELL_CAP, TooLargeError, all_projections_matrix
from .matrices import (
    ExactMatrix,
    MatrixParseError,
    drazin_inverse,
    format_matrix,
    format_matrix_inline,
    group_inverse,
    mp_inverse,
    parse_matrix,
)
from .ring import is_projection, verify_mp
from .scalars import field_named


def counterexample_evidence() -> dict:
    """Build the existence-asymmetry evidence in the six-word algebra.

    With p = X and q = 1 + Y: p(1-q)p = XYX = 0 has the MP inverse 0,
    while p(1-q) = XY has none, certified by scanning all 64 elements
    and tallying which defining equation rejects each candidate.
    """
    algebra = example26_algebra()
    p = algebra.element_from_labels("X")
    q = algebra.element_from_labels("1", "Y")
    one = algebra.one_element()
    pq_bar = p * (one - q)
    pq_bar_p = pq_bar * p

    corner_witness = brute_force_mp(algebra, pq_bar_p)
    full_witness = brute_force_mp(algebra, pq_bar)
    rejections = {"eq1": 0, "eq2": 0, "eq3": 0, "eq4": 0}
    for cand in algebra.elements():
        report = verify_mp(pq_bar, cand)
        if not report.eq1:
            rejections["eq1"] += 1
        if not report.eq2:
            rejections["eq2"] += 1
        if not report.eq3:
            rejections["eq3"] += 1
        if not report.eq4:
            rejections["eq4"] += 1

    reproduced = (
        is_projection(p)
        and is_projection(q)
        and pq_bar_p.bits == 0
        and corner_witness is not None
        and corner_witness.bits == 0
        and full_witness is None
        and rejections["eq1"] == algebra.size
    )
    return {
        "ring": algebra.name,
        "elements": algebra.size,
        "p": algebra.format_element(p),
        "q": algebra.format_element(q),
        "p_is_projection": is_projection(p),
        "q_is_projection": is_projection(q),
        "corner": {
            "element": algebra.format_element(pq_bar_p),
            "mp_exists": corner_witness is not None,
            "mp": None if corner_witness is None else algebra.format_element(corner_witness),
        },
        "product": {
            "element": algebra.format_element(pq_bar),
            "mp_exists": full_witness is not None,
            "candidates_scanned": algebra.size,
            "rejections": rejections,
        },
        "reproduced": reproduced,
    }


def _render_counterexample(evidence: dict) -> str:
    corner = evidence["corner"]
    product = evidence["product"]
    rej = product["rejections"]
    lines = [
        f"ring: {evidence['ring']} ({evidence['elements']} elements)",
        f"p = {evidence['p']}    projection: {'yes' if evidence['p_is_projection'] else 'NO'}",
        f"q = {evidence['q']}    projection: {'yes' if evidence['q_is_projection'] else 'NO'}",
        f"p(1-q)p = {corner['element']}    MP inverse: "
        + (corner["mp"] if corner["mp_exists"] else "none"),
        f"p(1-q) = {product['element']}    MP inverse: "
        + ("found" if product["mp_exists"] else f"none among {product['candidates_scanned']} candidates"),
        f"  rejected candidates by equation: aba=a fails for {rej['eq1']}, "
        f"bab=b fails for {rej['eq2']}, (ab)*=ab fails for {rej['eq3']}, "
        f"(ba)*=ba fails for {rej['eq4']}",
        "claim reproduced: p(1-q)p is MP invertible while p(1-q) is not"
        if evidence["reproduced"]
        else "CLAIM NOT REPRODUCED",
    ]
    return "\n".join(lines) + "\n"


def _open_output(path: str | None):
    """stdout, or path opened for writing, before any work is done; exit
    code 2 when it cannot be opened."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        sys.stderr.write(f"error: cannot write {path}: {exc}\n")
        raise SystemExit(2) from exc


def _parse_ring(args: argparse.Namespace, parser: argparse.ArgumentParser) -> str:
    try:
        return parse_ring_id(args.ring)
    except (ValueError, TypeError) as exc:
        parser.error(f"invalid ring id {args.ring!r}: {exc}")


def _cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    ring = _parse_ring(args, parser)
    if args.theorems == "all":
        theorems = THEOREM_IDS
    else:
        theorems = tuple(t.strip() for t in args.theorems.split(",") if t.strip())
        if not theorems:
            parser.error("no theorem ids given")
        try:
            check_theorem_ids(theorems)
        except ValueError as exc:
            parser.error(str(exc))
    if args.n < 1:
        parser.error("--n must be positive")
    if args.n * args.n > EXHAUSTIVE_CELL_CAP:
        parser.error(f"--n {args.n} is too large: n*n must not exceed {EXHAUSTIVE_CELL_CAP}")
    if args.trials < 1:
        parser.error("--trials must be positive")
    config = CampaignConfig(
        ring=ring, n=args.n, trials=args.trials, seed=args.seed, theorems=theorems
    )
    with _open_output(args.out) as out:
        report = run_campaign(config)
        out.write(report.to_json() if args.format == "json" else report.to_csv())
    return report.exit_code


def _cmd_inverse(args: argparse.Namespace) -> int:
    try:
        with open(args.infile, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        sys.stderr.write(f"error: cannot read {args.infile}: {exc}\n")
        return 2
    try:
        matrix = parse_matrix(text)
    except MatrixParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    if args.kind in ("drazin", "group") and matrix.rows != matrix.cols:
        sys.stderr.write(f"error: {args.kind} inverse requires a square matrix\n")
        return 2
    with _open_output(args.out) as out:
        if args.kind == "mp":
            result = mp_inverse(matrix)
            failure_reason = "NotMPInvertible"
        elif args.kind == "group":
            result = group_inverse(matrix)
            failure_reason = "NoGroupInverse"
        else:
            result, index = drazin_inverse(matrix)
            sys.stderr.write(f"drazin index: {index}\n")
            failure_reason = ""

        if result is None:
            message = json.dumps({"error": failure_reason, "kind": args.kind}) + "\n"
            sys.stdout.write(message)
            return 1
        out.write(format_matrix(result))
    return 0


def _cmd_counterexample(args: argparse.Namespace) -> int:
    evidence = counterexample_evidence()
    if args.json:
        sys.stdout.write(json.dumps(evidence, indent=2) + "\n")
    else:
        sys.stdout.write(_render_counterexample(evidence))
    return 0 if evidence["reproduced"] else 1


def _cmd_enumerate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    ring = _parse_ring(args, parser)
    if ring == "example26":
        algebra = example26_algebra()
        if args.what == "projections":
            listing = enumerate_projections(algebra)
        else:
            listing = [e for e in algebra.elements() if brute_force_mp(algebra, e) is not None]
        for element in listing:
            sys.stdout.write(algebra.format_element(element) + "\n")
        return 0

    field = field_named(ring)
    if field.size is None:
        parser.error("enumerate requires a finite ring (example26 or gf:<p>)")
    if args.n < 1:
        parser.error("--n must be positive")
    if args.what == "projections":
        try:
            listing = all_projections_matrix(args.n, field)
        except TooLargeError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2
    else:
        entries = args.n * args.n
        # size >= 2, so capping the exponent keeps every count past the cap past it
        if field.size ** min(entries, EXHAUSTIVE_CELL_CAP.bit_length()) > EXHAUSTIVE_CELL_CAP:
            sys.stderr.write(
                f"error: {field.size}^{entries} matrices exceed the"
                f" {EXHAUSTIVE_CELL_CAP} enumeration cap\n"
            )
            return 2
        listing = [
            matrix
            for combo in itertools.product(field.elements(), repeat=entries)
            if mp_inverse(matrix := ExactMatrix(field, args.n, args.n, list(combo))) is not None
        ]
    for matrix in listing:
        sys.stdout.write(format_matrix_inline(matrix) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starinv",
        description="Exact verification of generalized-inverse identities for projection pairs.",
    )
    parser.add_argument("--version", action="version", version=f"starinv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run verification campaigns")
    verify.add_argument("--ring", default="q", help="q | qi | gf:<p> | example26")
    verify.add_argument("--n", type=int, default=2, help="matrix size (matrix rings)")
    verify.add_argument("--trials", type=int, default=100, help="random trials (matrix rings)")
    verify.add_argument("--seed", type=int, default=0, help="campaign seed")
    verify.add_argument(
        "--theorems", default="all", help="'all' or comma list, e.g. thm24,cor25"
    )
    verify.add_argument("--out", default=None, help="output path (default stdout)")
    verify.add_argument("--format", choices=("json", "csv"), default="json")

    inverse = sub.add_parser("inverse", help="compute a generalized inverse of a matrix file")
    inverse.add_argument("--kind", choices=("mp", "drazin", "group"), required=True)
    inverse.add_argument("--in", dest="infile", required=True, help="input matrix file")
    inverse.add_argument("--out", default=None, help="output path (default stdout)")

    counterexample = sub.add_parser(
        "counterexample", help="reproduce the non-*-reducing existence asymmetry"
    )
    counterexample.add_argument("--json", action="store_true", help="structured output")

    enumerate_cmd = sub.add_parser("enumerate", help="list elements of a finite instance")
    enumerate_cmd.add_argument("--ring", required=True, help="example26 | gf:<p>")
    enumerate_cmd.add_argument("--n", type=int, default=2, help="matrix size for gf rings")
    enumerate_cmd.add_argument("--what", choices=("projections", "mp-invertible"), required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify":
            return _cmd_verify(args, parser)
        if args.command == "inverse":
            return _cmd_inverse(args)
        if args.command == "counterexample":
            return _cmd_counterexample(args)
        if args.command == "enumerate":
            return _cmd_enumerate(args, parser)
        parser.error(f"unknown command {args.command!r}")
    except SystemExit as exc:
        return int(exc.code or 0)
    return 2


if __name__ == "__main__":
    sys.exit(main())
