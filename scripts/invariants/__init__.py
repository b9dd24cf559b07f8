"""Rules-as-data invariant linter for the BinaryCoP repo.

Layout:
  engine.py    Rule/Violation/SourceTree plumbing, waiver handling, and
               the declarative rule constructors.
  rules.py     the rule table R1..R8, R10, R11 (R6 is the hot zone).
  selftest.py  runs every rule against its pass/fail fixture trees under
               tests/lint/ -- the linter lints itself before it lints you.

Entry point: scripts/check_invariants.py (thin CLI over this package).
"""
from .engine import Rule, SourceTree, Violation, run_rules  # noqa: F401
from .rules import RULES  # noqa: F401
