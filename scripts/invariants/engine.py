"""Invariant-lint engine: rule plumbing shared by every rule in rules.py.

The linter is a list of Rule values (rules-as-data) applied to a
SourceTree. A SourceTree is any directory holding `src/` and `tests/` --
the real repository, or the miniature fixture trees under `tests/lint/`
that self-test each rule (one `pass/` and one `fail/` tree per rule, run
by `check_invariants.py --self-test` and wired into ctest).

Waivers: a violating line may carry an inline waiver comment

    // bcop-lint: allow(R8): <reason>

which suppresses exactly that rule on exactly that line. The reason is
mandatory -- a reasonless waiver is itself reported -- so every exemption
in the tree documents why it is sound.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Violation:
    rule: str
    path: str  # tree-root-relative posix path
    line: int  # 1-based; 0 for file-level findings
    text: str

    def __str__(self) -> str:
        where = f"{self.path}:{self.line}" if self.line else self.path
        return f"{self.rule}: {where}: {self.text}"


class SourceTree:
    """Read-once view of a lint root (real repo or fixture tree)."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.src = self.root / "src"
        self.tests = self.root / "tests"

    def src_files(self) -> list[tuple[str, str]]:
        """(relative posix path, text) for every .cpp/.hpp under src/."""
        out = []
        if self.src.is_dir():
            for p in sorted(self.src.rglob("*")):
                if p.suffix in (".cpp", ".hpp"):
                    out.append((p.relative_to(self.root).as_posix(),
                                p.read_text()))
        return out

    def read(self, rel: str) -> str | None:
        p = self.root / rel
        return p.read_text() if p.is_file() else None

    def test_corpus(self) -> str:
        """Concatenated top-level tests/*.cpp|hpp (fixture subtrees under
        tests/lint/ are deliberately out of scope)."""
        if not self.tests.is_dir():
            return ""
        return "\n".join(p.read_text()
                         for p in sorted(self.tests.glob("*.[ch]pp")))


@dataclass(frozen=True)
class Rule:
    """One invariant: an id (R1..), the prose shown in reports and docs,
    and a check function over a SourceTree."""
    id: str
    title: str
    rationale: str
    check: Callable[[SourceTree], list[Violation]] = field(repr=False)


WAIVER = re.compile(r"bcop-lint:\s*allow\((?P<rule>[A-Z]\d+)\)(?P<reason>:.+)?")


def strip_comment(line: str) -> str:
    """Drop a trailing // comment so prose mentioning tokens stays legal."""
    return line.split("//", 1)[0]


def apply_waivers(tree: SourceTree,
                  violations: list[Violation]) -> tuple[list[Violation], int]:
    """Suppress violations whose raw line carries a reasoned waiver for
    that rule; flag reasonless waivers as violations of their own."""
    kept: list[Violation] = []
    waived = 0
    line_cache: dict[str, list[str]] = {}

    def raw_line(path: str, lineno: int) -> str:
        if path not in line_cache:
            text = tree.read(path)
            line_cache[path] = text.splitlines() if text is not None else []
        lines = line_cache[path]
        return lines[lineno - 1] if 0 < lineno <= len(lines) else ""

    for v in violations:
        m = WAIVER.search(raw_line(v.path, v.line)) if v.line else None
        if m and m.group("rule") == v.rule:
            if m.group("reason") and m.group("reason").strip(": "):
                waived += 1
                continue
            kept.append(Violation(v.rule, v.path, v.line,
                                  "waiver without a reason -- write "
                                  f"`bcop-lint: allow({v.rule}): <why>`"))
            continue
        kept.append(v)
    return kept, waived


def run_rules(tree: SourceTree, rules: list[Rule],
              only: str | None = None) -> tuple[list[Violation], int]:
    """Apply rules (optionally a single rule id) and resolve waivers."""
    violations: list[Violation] = []
    for rule in rules:
        if only is not None and rule.id != only:
            continue
        violations.extend(rule.check(tree))
    return apply_waivers(tree, violations)


# ---- Declarative rule constructors (the "data" in rules-as-data) ---------

def token_confinement(rule_id: str, title: str, rationale: str,
                      pattern: re.Pattern[str],
                      allowed_prefixes: tuple[str, ...],
                      comment_stripped: bool = False) -> Rule:
    """Forbid a token pattern everywhere under src/ except the named
    prefixes (R1/R2/R3/R5)."""

    def check(tree: SourceTree) -> list[Violation]:
        out = []
        for rel, text in tree.src_files():
            if rel.startswith(allowed_prefixes):
                continue
            for lineno, line in enumerate(text.splitlines(), 1):
                hay = strip_comment(line) if comment_stripped else line
                if pattern.search(hay):
                    out.append(Violation(rule_id, rel, lineno, line.strip()))
        return out

    return Rule(rule_id, title, rationale, check)


def hot_zone(rule_id: str, title: str, rationale: str,
             table: dict[str, tuple[re.Pattern[str] | None,
                                    tuple[str, ...]]]) -> Rule:
    """Forbid, per must-exist file, a token pattern (None: no tokens) and
    direct `#include <hdr>` / `#include "hdr"` of named headers (R6).
    Comment-stripped: the zone files *document* the banned tokens."""

    def check(tree: SourceTree) -> list[Violation]:
        out = []
        for rel, (tokens, headers) in sorted(table.items()):
            text = tree.read(rel)
            if text is None:
                out.append(Violation(rule_id, rel, 0,
                                     "hot-zone file is missing"))
                continue
            include = re.compile(
                r"#\s*include\s*[<\"](" + "|".join(map(re.escape, headers))
                + r")[>\"]")
            for lineno, line in enumerate(text.splitlines(), 1):
                code = strip_comment(line)
                if ((tokens is not None and tokens.search(code))
                        or include.search(code)):
                    out.append(Violation(rule_id, rel, lineno, line.strip()))
        return out

    return Rule(rule_id, title, rationale, check)
