"""Command-line interface.

Subcommands: classify one prime, scan a range to JSONL/CSV, print the
elementary-criterion tables, list cyclotomic subfield minimal polynomials,
and cross-check a result file against the packaged reference data.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .arith import euler_phi
from .criteria import em_tables
from .cyclotomic import subfields
from .normsearch import BACKEND_ENV_VAR, BackendError
from .scanner import RowError, ScanConfig, ScanError, cross_check, scan, classify_prime

ROW_FIELDS = ("p", "status", "d_plus", "d_minus", "method", "grh")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noether",
        description="Rationality classification for cyclic groups of prime order",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pipeline_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--max-degree", type=int, default=2, metavar="D",
                       help="largest subfield degree to test (default 2)")
        p.add_argument("--grh", action="store_true",
                       help="accept GRH-conditional backend proofs")
        p.add_argument("--backend", metavar="CMD",
                       help=f"norm solver command (fallback: ${BACKEND_ENV_VAR})")

    p_classify = sub.add_parser("classify", help="classify one prime")
    p_classify.add_argument("p", type=int)
    add_pipeline_flags(p_classify)

    p_scan = sub.add_parser("scan", help="classify every prime in a range")
    p_scan.add_argument("--from", dest="frm", type=int, required=True, metavar="A")
    p_scan.add_argument("--to", dest="to", type=int, required=True, metavar="B")
    p_scan.add_argument("--jobs", type=int, default=1, metavar="N")
    p_scan.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    p_scan.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    add_pipeline_flags(p_scan)

    p_tables = sub.add_parser("em-tables", help="print the criterion tables")
    p_tables.add_argument("--limit", type=int, default=20000, metavar="N")

    p_sub = sub.add_parser("subfields", help="list subfield minimal polynomials")
    p_sub.add_argument("n", type=int)
    p_sub.add_argument("--max-degree", type=int, default=None, metavar="D")

    p_check = sub.add_parser("cross-check", help="validate scan results")
    p_check.add_argument("--results", required=True, metavar="PATH")

    return parser


def _config(args: argparse.Namespace, jobs: int = 1) -> ScanConfig:
    backend = args.backend or os.environ.get(BACKEND_ENV_VAR)
    return ScanConfig(
        max_degree=args.max_degree,
        allow_grh=args.grh,
        backend=backend,
        parallelism=jobs,
    )


def _cmd_classify(args: argparse.Namespace) -> int:
    verdict = classify_prime(args.p, _config(args))
    payload = verdict.to_row()
    payload["witnesses"] = verdict.witnesses
    print(json.dumps(payload))
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    # the output is opened, and a CSV header written, at the first record or
    # at the end of a scan with none: a scan that fails before its first
    # record leaves --out as it was; an --out that cannot be opened fails
    # before the scan starts, and the probe leaves no file behind
    cfg = _config(args, jobs=args.jobs)
    if args.out:
        existed = os.path.exists(args.out)
        open(args.out, "a").close()
        if not existed:
            os.remove(args.out)
    out = writer = None

    def start() -> None:
        nonlocal out, writer
        out = open(args.out, "w") if args.out else sys.stdout
        if args.format == "csv":
            import csv

            writer = csv.writer(out)
            writer.writerow(ROW_FIELDS)

    def csv_sink(rec) -> None:
        if out is None:
            start()
        if isinstance(rec, ScanError):
            writer.writerow([rec.p, "Error", "", "", rec.error, ""])
        else:
            row = rec.to_row()
            writer.writerow([row[f] for f in ROW_FIELDS])

    def jsonl_sink(rec) -> None:
        if out is None:
            start()
        out.write(json.dumps(rec.to_row()) + "\n")

    try:
        summary = scan(args.frm, args.to, cfg, csv_sink if args.format == "csv" else jsonl_sink)
        if out is None:
            start()
    finally:
        if args.out and out is not None:
            out.close()
    print(json.dumps(summary), file=sys.stderr)
    return 0


def _cmd_em_tables(args: argparse.Namespace) -> int:
    table_i, table_ii = em_tables(args.limit)
    for p in table_i:
        print(p)
    print()
    for p in table_ii:
        print(p)
    return 0


def _cmd_subfields(args: argparse.Namespace) -> int:
    max_degree = args.max_degree if args.max_degree is not None else euler_phi(args.n)
    for desc in subfields(args.n, max_degree):
        print(json.dumps({"degree": desc.degree, "minpoly": list(desc.minpoly)}))
    return 0


def _cmd_cross_check(args: argparse.Namespace) -> int:
    with open(args.results) as fh:
        lines = [(lineno, line) for lineno, line in enumerate(fh, 1) if line.strip()]
    rows = []
    for lineno, line in lines:
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"results line {lineno}: not JSON ({exc})") from None
    try:
        report = cross_check(rows)
    except RowError as exc:  # name the file's line, not the row's position
        raise ValueError(f"results line {lines[exc.index - 1][0]}: {exc.why}") from None
    for failure in report.failures:
        print(failure)
    print(f"cross-check: {'ok' if report.ok else 'FAILED'} "
          f"({report.checked} verdicts, {len(report.failures)} failures)")
    return 0 if report.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "classify": _cmd_classify,
        "scan": _cmd_scan,
        "em-tables": _cmd_em_tables,
        "subfields": _cmd_subfields,
        "cross-check": _cmd_cross_check,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, BackendError, OSError) as exc:
        print(f"noether: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
