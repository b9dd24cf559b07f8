#!/usr/bin/env python3
"""Binary-level hot-path audit: prove the shipped objects keep the repo's
zero-allocation / lock-free / no-throw contracts.

The plan-replay path has three layered guarantees:

  source lint   scripts/check_invariants.py R6/R7 greps the *source* for
                allocation, locking and include-hygiene tokens;
  runtime test  tests/test_zero_alloc.cpp counts operator-new calls with a
                global interposer while replaying plans;
  this script   inspects the *compiled objects* with nm/objdump and fails
                if any allocation, locking, thread-creation or throwing
                symbol is referenced -- a static proof over the artifact
                that actually ships, immune to macros, templates and
                inlining that source greps cannot see.

Audited translation units (the plan-replay path): the .cpp files of lint
rule R6's hot-zone table (scripts/invariants/rules.py HOT_ZONE), so the
source lint and this audit cover one list --

  src/xnor/exec.cpp   the interpreter: every steady-state serving cycle is
                      one replay through this TU.
  src/xnor/exec_residual.cpp  the plane-generic steps it replays at every
                      residual depth (plane-fused GEMM, pattern-bank
                      firing, lexicographic pooling).
  src/tensor/bit_span.cpp        the span helpers the interpreter replays
                                 (bit-domain flatten).
  src/tensor/kernels/*.cpp       the kernel dispatch tiers (scalar, AVX2,
                                 AVX-512) plus the CPUID dispatcher whose
                                 table plans freeze.

-- plus src/obs/metrics.cpp, the metric recording primitives the
interpreter and the serving path record into.

Forbidden symbol classes (referenced == undefined or defined-and-called;
we audit all undefined references):

  alloc   operator new/delete (any overload), malloc/calloc/realloc/free,
          aligned_alloc, posix_memalign
  lock    pthread_mutex_*/pthread_rwlock_*/pthread_cond_*, sem_wait/post,
          std::mutex/std::condition_variable methods, and __cxa_guard_*
          (function-local static initialization takes an implicit lock)
  throw   __cxa_throw/__cxa_allocate_exception/__cxa_rethrow and the
          libstdc++ std::__throw_* helpers (e.g. the one std::get<variant>
          drags in)

Allowlist (see docs/static-analysis.md): mem* string routines, the
contract-check trampoline (bcop::util::detail::check_fail -- [[noreturn]],
only reached on contract violation), steady_clock reads, and the repo's
own kernel/pool entry points.

Exit status: 0 clean, 1 violations (or --self-test failure), 77 when the
required tools/objects are missing (ctest SKIP) unless --strict.
"""
from __future__ import annotations

import argparse
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

from invariants.rules import HOT_ZONE  # noqa: E402

# Source files whose compiled objects must stay clean.
AUDITED_TUS = [rel for rel in HOT_ZONE if rel.endswith(".cpp")]
AUDITED_TUS.append("src/obs/metrics.cpp")

FORBIDDEN = {
    "alloc": re.compile(
        r"^operator new|^operator delete"
        r"|^(?:__libc_)?(?:malloc|calloc|realloc|free)$"
        r"|^aligned_alloc$|^posix_memalign$"
    ),
    "lock": re.compile(
        r"^pthread_(?:mutex|rwlock|cond|spin)_"
        r"|^sem_(?:wait|trywait|timedwait|post)$"
        r"|^__cxa_guard_"
        r"|std::(?:__1::)?(?:recursive_)?(?:timed_)?mutex::"
        r"|std::(?:__1::)?condition_variable"
        r"|bcop::util::Mutex::"
    ),
    "throw": re.compile(
        r"^__cxa_(?:throw|rethrow|allocate_exception|bad_cast|bad_typeid)"
        r"|^_Unwind_RaiseException$"
        r"|std::(?:__1::)?__throw_"
    ),
}

# Symbols a clean hot path legitimately references. Kept tight and
# documented -- an unexplained new entry here is a review flag.
ALLOWED = re.compile(
    r"^mem(?:cpy|set|move|cmp)(?:@.*)?$"          # bulk arena moves
    r"|^__memcpy_chk$|^__memset_chk$"
    r"|^abort$|^fputs$|^fputc$|^v?fprintf$|^stderr$"  # BCOP_CHECK failure path
    r"|^__stack_chk_fail$"
    r"|check_fail"                                 # bcop::util::detail::check_fail
    r"|steady_clock"                               # obs::now_ns / profiling
    r"|^bcop::"                                    # repo kernels + ThreadPool entry
    r"|^_GLOBAL_OFFSET_TABLE_$"
    r"|^(?:nearbyint|nearbyintf|llround|lround)$"  # libm, no side effects
    r"|^getenv$|^strcmp$"     # kernel dispatcher: BCOP_KERNEL_LEVEL, read once
    r"|^__popcountdi2$"       # libgcc popcount fallback (pure, no state)
    r"|^std::"                                     # inspected via FORBIDDEN first
    r"|^typeinfo |^vtable |^VTT "
    r"|^__cxa_(?:begin_catch|end_catch|call_unexpected)$"  # landing pads w/o throw
    r"|^_Unwind_Resume$"                           # cleanup-only unwinding
    r"|^__gxx_personality_v0$"
)


def find_tool() -> tuple[str, list[str]] | None:
    """Prefer nm; fall back to objdump symbol tables."""
    if shutil.which("nm"):
        return ("nm", ["nm", "--undefined-only", "-C"])
    if shutil.which("objdump"):
        return ("objdump", ["objdump", "-t", "-C"])
    return None


def undefined_symbols(obj: Path, tool: tuple[str, list[str]]) -> list[str]:
    out = subprocess.run(tool[1] + [str(obj)], check=True,
                         capture_output=True, text=True).stdout
    symbols = []
    for line in out.splitlines():
        if tool[0] == "nm":
            # "                 U symbol"
            parts = line.split(maxsplit=1)
            if len(parts) == 2 and parts[0] == "U":
                symbols.append(parts[1].strip())
        else:
            # objdump -t: "0000000000000000  *UND* 0000000000000000 symbol"
            if "*UND*" in line:
                symbols.append(line.split()[-1])
    return symbols


def classify(symbols: list[str]) -> list[tuple[str, str]]:
    """Return (class, symbol) for every forbidden reference."""
    hits = []
    for sym in symbols:
        for cls, pattern in FORBIDDEN.items():
            if pattern.search(sym):
                hits.append((cls, sym))
                break
        else:
            if not ALLOWED.search(sym):
                hits.append(("unvetted", sym))
    return hits


def find_object(build: Path, source: str) -> Path | None:
    stem = Path(source).name + ".o"
    matches = sorted(build.rglob(stem))
    # Disambiguate same-named TUs (e.g. several metrics.cpp) by requiring
    # the CMake object dir to mention the source's parent directory.
    wanted = Path(source).parent.name
    scoped = [m for m in matches if wanted in m.as_posix()]
    return (scoped or matches or [None])[0]


# Sanitizer instrumentation rewrites the codegen the audit is judging
# (shadow-memory calls, outlined checks, interceptor references), so the
# symbol profile of an ASan/TSan/UBSan object says nothing about the
# shipped artifact. Such builds are skipped, never failed -- the release
# configuration in CI is the one the audit gates.
SANITIZER_SYM = re.compile(r"^__(?:a|t|ub|hw|l)san_|^__sanitizer_|^__msan_")


def audit(build: Path, strict: bool) -> int:
    tool = find_tool()
    if tool is None:
        print("audit_hot_path: neither nm nor objdump found")
        return 1 if strict else 77
    failures = 0
    missing = 0
    skipped = 0
    for source in AUDITED_TUS:
        obj = find_object(build, source)
        if obj is None:
            print(f"audit_hot_path: MISSING  {source} (no compiled object "
                  f"under {build}; build first)")
            missing += 1
            continue
        symbols = undefined_symbols(obj, tool)
        if any(SANITIZER_SYM.search(s) for s in symbols):
            print(f"audit_hot_path: SKIP  {source} -- sanitizer-instrumented "
                  "object; audit only applies to uninstrumented builds")
            skipped += 1
            continue
        hits = classify(symbols)
        if hits:
            failures += 1
            print(f"audit_hot_path: FAIL  {source}")
            for cls, sym in sorted(hits):
                print(f"    [{cls:8s}] {sym}")
        else:
            print(f"audit_hot_path: OK    {source} "
                  f"({len(symbols)} undefined refs, all vetted)")
    if failures:
        return 1
    if missing:
        return 1 if strict else 77
    # Sanitizer-instrumented objects are a SKIP even under --strict: the
    # check is genuinely inapplicable there, not merely unavailable.
    return 77 if skipped else 0


PROBE = """
#include <mutex>
#include <stdexcept>
std::mutex probe_mutex;
int probe_hot(int x) {
  std::lock_guard<std::mutex> lock(probe_mutex);   // lock class
  static int lazy = x;                             // __cxa_guard_* class
  int* p = new int(x);                             // alloc class
  int v = *p + lazy;
  delete p;
  if (x < 0) throw std::runtime_error("probe");    // throw class
  return v;
}
"""


CLEAN_PROBE = """
// Everything a clean hot-path TU legitimately references: bulk memory
// moves, the dispatcher's one-shot env read, and atomics (lock-free,
// no pthread symbols). Must audit clean, or the allowlist has drifted.
#include <atomic>
#include <cstdlib>
#include <cstring>
std::atomic<int> probe_level{-1};
int probe_dispatch(char* dst, const char* src, unsigned long n) {
  std::memcpy(dst, src, n);
  const char* e = std::getenv("BCOP_KERNEL_LEVEL");
  if (e != nullptr && std::strcmp(e, "scalar") == 0)
    probe_level.store(0, std::memory_order_relaxed);
  return probe_level.load(std::memory_order_relaxed);
}
"""


def self_test() -> int:
    """Compile a deliberately-broken hot-path probe and require the audit
    to flag every forbidden class -- proof the detector detects -- then a
    clean probe using only allowlisted references and require silence --
    proof the allowlist still admits legitimate hot-path code."""
    tool = find_tool()
    cxx = shutil.which("c++") or shutil.which("g++") or shutil.which("clang++")
    if tool is None or cxx is None:
        print("audit_hot_path --self-test: compiler or nm/objdump missing")
        return 77
    with tempfile.TemporaryDirectory(prefix="bcop_audit_probe") as tmp:
        src = Path(tmp) / "probe.cpp"
        obj = Path(tmp) / "probe.o"
        src.write_text(PROBE)
        subprocess.run([cxx, "-std=c++20", "-O2", "-c", str(src),
                        "-o", str(obj)], check=True)
        hits = classify(undefined_symbols(obj, tool))
        found = {cls for cls, _ in hits}

        clean_src = Path(tmp) / "clean_probe.cpp"
        clean_obj = Path(tmp) / "clean_probe.o"
        clean_src.write_text(CLEAN_PROBE)
        subprocess.run([cxx, "-std=c++20", "-O2", "-c", str(clean_src),
                        "-o", str(clean_obj)], check=True)
        clean_hits = classify(undefined_symbols(clean_obj, tool))
    want = {"alloc", "lock", "throw"}
    missed = want - found
    if missed:
        print(f"audit_hot_path --self-test: FAIL -- probe classes not "
              f"detected: {sorted(missed)} (found {sorted(found)})")
        return 1
    if clean_hits:
        print("audit_hot_path --self-test: FAIL -- clean probe flagged:")
        for cls, sym in sorted(clean_hits):
            print(f"    [{cls:8s}] {sym}")
        return 1
    print(f"audit_hot_path --self-test: OK -- broken probe flagged for "
          f"{sorted(found)}, clean probe silent")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="binary-level audit of the plan-replay hot path")
    parser.add_argument("--build", type=Path, default=ROOT / "build",
                        help="CMake build tree holding the objects")
    parser.add_argument("--strict", action="store_true",
                        help="missing tools/objects fail instead of skip")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the detector on a broken probe TU")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    return audit(args.build, args.strict)


if __name__ == "__main__":
    sys.exit(main())
