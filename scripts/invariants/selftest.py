"""Fixture-driven self-test: prove every rule both accepts and rejects.

For each rule R in rules.RULES there is a fixture pair

    tests/lint/<R>/pass/   a miniature src/+tests/ tree the rule accepts
    tests/lint/<R>/fail/   the same tree with a seeded violation

Running only that rule over the pair must yield zero violations on pass/
and at least one on fail/, and every fail/ file marked "seeded violation"
must be among the flagged ones -- a rule with no fixtures, a rule that
flags clean code, or a rule that misses any of its seeded bugs all fail
the self-test.
A tenth pair, tests/lint/WAIVER/, exercises the waiver machinery itself:
pass/ carries a reasoned `bcop-lint: allow(R8): ...` (must suppress),
fail/ a reasonless one (must be reported).
"""
from __future__ import annotations

from pathlib import Path

from .engine import SourceTree, run_rules
from .rules import RULES


def _run(root: Path, only: str) -> tuple[int, int]:
    kept, waived = run_rules(SourceTree(root), RULES, only=only)
    return len(kept), waived


def _missed_seeds(root: Path, only: str) -> list[str]:
    """fail/ files marked as seeded violations that the rule did not flag."""
    kept, _ = run_rules(SourceTree(root), RULES, only=only)
    flagged = {v.path for v in kept}
    return [p.relative_to(root).as_posix() for p in sorted(root.rglob("*"))
            if p.is_file() and "seeded violation" in p.read_text()
            and p.relative_to(root).as_posix() not in flagged]


def run_self_test(fixtures: Path) -> int:
    failures: list[str] = []
    checked = 0

    for rule in RULES:
        pair = fixtures / rule.id
        if not (pair / "pass").is_dir() or not (pair / "fail").is_dir():
            failures.append(f"{rule.id}: fixture pair missing under {pair}")
            continue
        ok_kept, _ = _run(pair / "pass", rule.id)
        bad_kept, _ = _run(pair / "fail", rule.id)
        if ok_kept:
            failures.append(f"{rule.id}: flagged the clean pass/ fixture "
                            f"({ok_kept} violation(s))")
        if not bad_kept:
            failures.append(f"{rule.id}: missed the seeded bug in fail/")
        missed = _missed_seeds(pair / "fail", rule.id)
        for rel in missed:
            failures.append(f"{rule.id}: missed the seeded bug in fail/{rel}")
        if not ok_kept and bad_kept and not missed:
            checked += 1
            print(f"self-test {rule.id}: OK "
                  f"(fail/ flagged {bad_kept} violation(s))")

    # Waiver machinery: same R8 violation, with and without a reason.
    pair = fixtures / "WAIVER"
    if not (pair / "pass").is_dir() or not (pair / "fail").is_dir():
        failures.append(f"WAIVER: fixture pair missing under {pair}")
    else:
        ok_kept, ok_waived = _run(pair / "pass", "R8")
        bad_kept, _ = _run(pair / "fail", "R8")
        if ok_kept or ok_waived != 1:
            failures.append(f"WAIVER: reasoned waiver did not suppress "
                            f"(kept={ok_kept}, waived={ok_waived})")
        if not bad_kept:
            failures.append("WAIVER: reasonless waiver was not reported")
        if not ok_kept and ok_waived == 1 and bad_kept:
            checked += 1
            print("self-test WAIVER: OK (reasoned suppresses, "
                  "reasonless reports)")

    if failures:
        print(f"check_invariants --self-test: {len(failures)} failure(s)")
        for f in failures:
            print("  " + f)
        return 1
    print(f"check_invariants --self-test: OK ({checked} fixture pairs)")
    return 0
