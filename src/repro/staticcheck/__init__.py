"""repro.staticcheck: codebase-invariant analyzer + strict-typing ratchet.

An stdlib-``ast`` analyzer that machine-checks the conventions the
stack's correctness rests on — virtual-clock purity (RPR1xx), seeded
determinism (RPR2xx), unit-suffix hygiene (RPR3xx), frozen-instance
exactness contracts (RPR4xx) and public-API hygiene (RPR5xx) — plus a
mypy strict-typing ratchet.  Run it as ``repro staticcheck``; see the
README "Static analysis" section for the rule catalog and suppression
syntax.
"""

from repro.staticcheck.baseline import (
    DEFAULT_BASELINE,
    RatchetResult,
    counts_of,
    load_baseline,
    ratchet,
    save_baseline,
)
from repro.staticcheck.core import (
    CLOCKED_PACKAGES,
    FileContext,
    Finding,
    Rule,
    RULES,
    StaticCheckError,
    register_rule,
    rule_catalog,
    run_checks,
)
from repro.staticcheck.report import (
    catalog_table,
    human_report,
    json_report,
    write_json_report,
)
from repro.staticcheck.rules_clock import WALLCLOCK_ALLOWLIST
from repro.staticcheck.typing_ratchet import (
    DEFAULT_MYPY_BASELINE,
    mypy_available,
    mypy_ratchet,
    parse_error_counts,
)

__all__ = [
    "CLOCKED_PACKAGES",
    "DEFAULT_BASELINE",
    "DEFAULT_MYPY_BASELINE",
    "FileContext",
    "Finding",
    "RULES",
    "RatchetResult",
    "Rule",
    "StaticCheckError",
    "WALLCLOCK_ALLOWLIST",
    "catalog_table",
    "counts_of",
    "human_report",
    "json_report",
    "load_baseline",
    "mypy_available",
    "mypy_ratchet",
    "parse_error_counts",
    "ratchet",
    "register_rule",
    "rule_catalog",
    "run_checks",
    "save_baseline",
    "write_json_report",
]
