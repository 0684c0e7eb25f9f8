"""The ``repro staticcheck`` subcommand (wired from ``repro.__main__``).

Exit codes: 0 when the tree is clean (or every finding is absorbed by
the baseline and the mypy ratchet holds), 1 on new findings or a grown
mypy error count, 2 on unusable input (bad paths, corrupt baseline).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.staticcheck import baseline as baseline_mod
from repro.staticcheck import typing_ratchet
from repro.staticcheck.core import StaticCheckError, discover_files, run_checks
from repro.staticcheck.report import (
    catalog_table,
    human_report,
    json_report,
    write_json_report,
)

#: default analysis roots, repo-relative
DEFAULT_PATHS = ("src/repro",)


def add_parser(sub) -> None:
    p = sub.add_parser(
        "staticcheck",
        help="codebase-invariant analyzer (RPR rules) + mypy ratchet "
             "(repro.staticcheck); exit 1 on new findings",
    )
    p.add_argument("paths", nargs="*", default=None,
                   help=f"files/directories to check (default: "
                        f"{' '.join(DEFAULT_PATHS)})")
    p.add_argument("--root", default=".",
                   help="repository root paths are resolved against")
    p.add_argument("--rules", default=None,
                   help="comma-separated rule codes to run (default: all)")
    p.add_argument("--baseline", nargs="?", const=baseline_mod.DEFAULT_BASELINE,
                   default=None, metavar="PATH",
                   help="ratchet mode: fail only on findings beyond this "
                        "baseline (default path when the flag is bare: "
                        f"{baseline_mod.DEFAULT_BASELINE})")
    p.add_argument("--update-baseline", action="store_true",
                   help="record the current findings (and, with --mypy, "
                        "error counts) as the new baseline and exit 0")
    p.add_argument("--mypy", action="store_true",
                   help="also run the mypy strict-typing ratchet "
                        "(skipped gracefully when mypy is not installed)")
    p.add_argument("--mypy-baseline",
                   default=typing_ratchet.DEFAULT_MYPY_BASELINE,
                   metavar="PATH", help="mypy error-count baseline")
    p.add_argument("--json", action="store_true",
                   help="emit the full report as JSON instead of text")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="also write the JSON report here (CI artifact)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalog and exit")
    p.set_defaults(func=main)


def main(args) -> int:
    if args.list_rules:
        print(catalog_table())
        return 0
    root = Path(args.root).resolve()
    paths = tuple(args.paths) if args.paths else DEFAULT_PATHS
    codes = (
        [c.strip() for c in args.rules.split(",") if c.strip()]
        if args.rules else None
    )
    try:
        findings = run_checks(root, paths=paths, codes=codes)
    except StaticCheckError as exc:
        print(f"staticcheck: {exc}")
        return 2
    checked = len(baseline_mod.counts_of(findings))  # distinct dirty cells
    num_files = len(set(discover_files(root, paths)))

    mypy_payload = None
    if args.mypy or (args.update_baseline and args.mypy):
        try:
            mypy_payload = typing_ratchet.mypy_ratchet(
                root, root / args.mypy_baseline, update=args.update_baseline
            )
        except StaticCheckError as exc:
            print(f"staticcheck: {exc}")
            return 2

    if args.update_baseline:
        baseline_path = root / (args.baseline or baseline_mod.DEFAULT_BASELINE)
        baseline_mod.save_baseline(baseline_path, findings)
        print(
            f"staticcheck baseline written: {len(findings)} finding(s) in "
            f"{checked} (code, file) cell(s) -> {baseline_path}"
        )
        if mypy_payload is not None:
            print("\n".join(typing_ratchet.describe(mypy_payload)))
        return 0

    ratchet_result = None
    if args.baseline is not None:
        try:
            base_counts = baseline_mod.load_baseline(root / args.baseline)
        except StaticCheckError as exc:
            print(f"staticcheck: {exc}")
            return 2
        ratchet_result = baseline_mod.ratchet(findings, base_counts)

    payload = json_report(
        findings, ratchet_result, checked_files=num_files, mypy=mypy_payload
    )
    if args.out:
        write_json_report(Path(args.out), payload)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(human_report(findings, ratchet_result, checked_files=num_files))
        if mypy_payload is not None:
            print("\n".join(typing_ratchet.describe(mypy_payload)))

    failed = bool(ratchet_result.new) if ratchet_result is not None else bool(findings)
    if mypy_payload is not None and mypy_payload["status"] == "fail":
        failed = True
    return 1 if failed else 0
