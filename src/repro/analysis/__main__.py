"""CLI: ``python -m repro.analysis [--strict] ...``.

By default, runs the tenant-isolation and layout-invariant passes over
the Figure 5 CRM testbed at the Table 1 variability levels, printing a
per-configuration summary and every finding.  The semantic pass is not
run as findings here: the engine's binder runs inside the layers'
``prepare_ast`` calls, so a statement it refused would surface as an
exception.

``--sanitize`` / ``--lint`` select the durability tooling instead: the
dynamic sanitizer scenario (CON rules) and the protocol lint (LNT
rules).  Either or both run only the selected passes; without those
flags the legacy layout analysis runs.

``--strict`` exits non-zero on any ERROR-severity finding — the CI
gates.  ``--mutate`` applies one seeded defect first (the matching gate
must then fail): the layout mutations feed the testbed passes,
``skip-wal-append`` feeds ``--sanitize``.
"""

from __future__ import annotations

import argparse
import sys

from .findings import AnalysisReport, RULES
from .lint import analyze_lint
from .mutation import MUTATIONS
from .runner import (
    ALL_LAYOUTS,
    PAPER_VARIABILITIES,
    AnalysisConfig,
    run_analysis,
)
from .sanitizers import MUTATE_SKIP_APPEND, run_sanitized_scenario


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analysis over the multi-tenant CRM testbed, "
        "plus the durability sanitizer and lint passes.",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on any ERROR-severity finding",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="run the dynamic sanitizer scenario (CON rules)",
    )
    parser.add_argument(
        "--lint",
        action="store_true",
        help="run the protocol lint pass (LNT rules)",
    )
    parser.add_argument(
        "--layouts",
        nargs="+",
        default=list(ALL_LAYOUTS),
        choices=list(ALL_LAYOUTS),
        help="layouts to analyze (default: all seven)",
    )
    parser.add_argument(
        "--variability",
        nargs="+",
        type=float,
        default=list(PAPER_VARIABILITIES),
        help="Table 1 schema-variability levels (default: %(default)s)",
    )
    parser.add_argument(
        "--tenants", type=int, default=4, help="tenants per configuration"
    )
    parser.add_argument(
        "--rows", type=int, default=2, help="rows per populated table"
    )
    parser.add_argument(
        "--width", type=int, default=6, help="chunk width for chunked layouts"
    )
    parser.add_argument(
        "--mutate",
        choices=sorted(MUTATIONS) + [MUTATE_SKIP_APPEND],
        default=None,
        help="apply a seeded defect first (the gate must then fail)",
    )
    parser.add_argument(
        "--no-admin-ops",
        action="store_true",
        help="skip the grant/migrate/drop administrative replay",
    )
    parser.add_argument(
        "--recovery",
        action="store_true",
        help="crash and recover each testbed from disk before analyzing it",
    )
    parser.add_argument(
        "--rules", action="store_true", help="print the rule catalog and exit"
    )
    args = parser.parse_args(argv)

    if args.rules:
        for rule in RULES.values():
            print(f"{rule.rule_id}  {rule.severity!s:7s}  {rule.title}")
        return 0

    tooling = args.sanitize or args.lint
    if tooling:
        report = AnalysisReport()
        if args.sanitize:
            sanitize_mutate = (
                args.mutate if args.mutate == MUTATE_SKIP_APPEND else None
            )
            sub, overhead = run_sanitized_scenario(mutate=sanitize_mutate)
            print(
                f"sanitize: {len(sub.findings)} finding(s) over "
                f"{sub.checked} boundary check(s), "
                f"{overhead:.2f}x instrumentation overhead"
            )
            report.extend(sub)
        if args.lint:
            sub = analyze_lint()
            print(
                f"lint: {len(sub.findings)} finding(s) over "
                f"{sub.checked} site(s)"
            )
            report.extend(sub)
        print()
        print(report.render(limit=50))
        if args.strict and not report.ok:
            return 1
        return 0

    if args.mutate == MUTATE_SKIP_APPEND:
        parser.error(
            f"--mutate {args.mutate} applies to the --sanitize pass, "
            "not the layout analysis"
        )

    config = AnalysisConfig(
        layouts=tuple(args.layouts),
        variabilities=tuple(args.variability),
        tenants=args.tenants,
        rows_per_table=args.rows,
        width=args.width,
        mutate=args.mutate,
        admin_ops=not args.no_admin_ops,
        crash_recover=args.recovery,
    )
    report = run_analysis(config, log=print)
    print()
    print(report.render(limit=50))
    if args.strict and not report.ok:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
