"""The repo's invariant rules, R1..R10, as data.

Each rule is a Rule value built either from a declarative constructor in
engine.py (token confinement, token-free zone, include hygiene) or from a
bespoke check for the structural rules (R4 test coverage, R7 namespace
confinement, R8 mutex annotation). Every rule has a pass/fail fixture
pair under tests/lint/<id>/ exercised by `check_invariants.py
--self-test`; prose lives in docs/static-analysis.md.
"""
from __future__ import annotations

import re

from . import engine
from .engine import Rule, SourceTree, Violation, strip_comment

# ---- R1..R3, R5: token confinement ---------------------------------------

DATA_ARITH = re.compile(r"data_\s*\[[^\]]*[+\-*/%]")
THREAD_USE = re.compile(r"std::thread\b|#include\s*<thread>")
BAD_RNG = re.compile(
    r"\b(?:s?rand)\s*\(|std::random_device|std::mt19937|std::default_random_engine"
)
COORD_USE = re.compile(
    r"std::condition_variable\b|std::future\b|std::promise\b"
    r"|#include\s*<condition_variable>|#include\s*<future>"
)

# R10: raw sockets and readiness syscalls. Confined to src/net/ so every
# byte of untrusted network input funnels through the bounded parser and
# admission control there -- a stray socket() elsewhere is an unaudited
# ingress path.
SOCKET_USE = re.compile(
    r"#\s*include\s*<(?:sys/socket\.h|sys/epoll\.h|poll\.h|sys/poll\.h"
    r"|netinet/[^>]+|arpa/inet\.h|sys/un\.h|netdb\.h)>"
    r"|::socket\s*\(|::accept4?\s*\(|::epoll_(?:create1?|ctl|wait)\s*\("
)

# ---- R6/R7 token sets ------------------------------------------------------

# Allocation tokens forbidden in the interpreter. std::vector is allowed
# only as a reference type (`const std::vector<T>&` parameters); declaring
# a vector/string value, constructing a Tensor/BitMatrix, or growing any
# container is an R6 violation.
ALLOC_TOKENS = re.compile(
    r"\bnew\b|\bmalloc\b|\bcalloc\b|\brealloc\b"
    r"|make_unique|make_shared"
    r"|std::vector\s*<[^>]*>\s*(?!&)\w|std::string\s"
    r"|\bTensor\s*\(|\bBitMatrix\s*\("
    r"|push_back|emplace_back|\.resize\s*\(|\.reserve\s*\("
)
# The interpreter, the residual-binarization replay kernels, the
# span-kernel entry points they replay, and every kernel dispatch tier --
# all audited at the object level too by scripts/audit_hot_path.py.
ALLOC_FREE_FILES = (
    "src/xnor/exec.cpp",
    "src/xnor/exec_residual.cpp",
    "src/tensor/bit_span.cpp",
    "src/tensor/kernels/scalar.cpp",
    "src/tensor/kernels/avx2.cpp",
    "src/tensor/kernels/avx512.cpp",
    "src/tensor/kernels/dispatch.cpp",
)

# R7a: opening the obs namespace (defining obs primitives) outside
# src/obs/. Matches definitions (`namespace bcop::obs {` or a nested
# `namespace obs {`), not mere usage like `obs::Counter&`. Single-line
# forward declarations (`namespace bcop::obs { struct X; }`) stay legal:
# they introduce a name, not an implementation.
OBS_NAMESPACE = re.compile(r"namespace\s+(?:bcop::)?obs\s*\{")
OBS_FORWARD_DECL = re.compile(
    r"namespace\s+(?:bcop::)?obs\s*\{\s*(?:struct|class)\s+\w+\s*;\s*\}")
# R7b: locking tokens forbidden in the hot-path recording header.
LOCK_TOKENS = re.compile(
    r"std::mutex|std::shared_mutex|lock_guard|unique_lock|scoped_lock"
    r"|#include\s*<mutex>|#include\s*<shared_mutex>"
)
OBS_HOT_HEADER = "src/obs/metrics.hpp"

# ---- R9 include table ------------------------------------------------------

# Headers that drag locking, streams, type erasure or sockets into a TU.
# The hot zone is exactly the R6 allocation-free files plus the recording
# header, so the two rules cannot drift apart.
HOT_BANNED_HEADERS = ("mutex", "iostream", "functional", "sys/socket.h",
                      "poll.h")
# detail::execute in exec.cpp is the one pool fan-out of inference (over a
# batch's images); the residual replay steps and the kernel tiers run
# serially over one image's rows, so a per-step for_chunks must not grow
# back in them.
SERIAL_FILES = (
    "src/xnor/exec_residual.cpp",
    "src/tensor/kernels/scalar.cpp",
    "src/tensor/kernels/avx2.cpp",
    "src/tensor/kernels/avx512.cpp",
)
HOT_INCLUDE_TABLE = {
    rel: HOT_BANNED_HEADERS + (("parallel/thread_pool.hpp",)
                               if rel in SERIAL_FILES else ())
    for rel in (*ALLOC_FREE_FILES, OBS_HOT_HEADER)}

# ---- R8 patterns -----------------------------------------------------------

# A raw standard-library mutex member/global. These are invisible to
# Clang's thread-safety analysis; everything must go through util::Mutex.
RAW_MUTEX_DECL = re.compile(
    r"\bstd::(?:shared_|recursive_|timed_)?mutex\s+\w+\s*[;{=]")
# An annotated-wrapper mutex declaration: `util::Mutex name;`, optionally
# carrying a lock-ordering annotation before the semicolon. `MutexLock
# lock(m)` does not match (no whitespace after "Mutex").
WRAPPED_MUTEX_DECL = re.compile(
    r"\b(?:util::)?Mutex\s+(\w+)\s*"
    r"(?:BCOP_ACQUIRED_(?:BEFORE|AFTER)\s*\([^)]*\)\s*)?[;{=]")
# The file that *defines* the wrappers is exempt from R8.
R8_EXEMPT = ("src/util/thread_annotations.hpp",)


def _check_r8(tree: SourceTree) -> list[Violation]:
    out: list[Violation] = []
    for rel, text in tree.src_files():
        if rel in R8_EXEMPT:
            continue
        # Match over the whole comment-stripped text so declarations that
        # wrap across lines (name on one, annotation + `;` on the next)
        # cannot slip past a line-by-line grep. Violations anchor at the
        # terminator's line -- the line waiver comments sit on.
        code = "\n".join(strip_comment(l) for l in text.splitlines())
        for m in RAW_MUTEX_DECL.finditer(code):
            out.append(Violation(
                "R8", rel, code.count("\n", 0, m.end()) + 1,
                "raw std::mutex -- declare util::Mutex so Clang's "
                "thread-safety analysis sees the capability"))
        for m in WRAPPED_MUTEX_DECL.finditer(code):
            name = m.group(1)
            guard = re.compile(
                r"BCOP_(?:PT_)?GUARDED_BY\(\s*" + re.escape(name) + r"\s*\)")
            if not guard.search(code):
                out.append(Violation(
                    "R8", rel, code.count("\n", 0, m.end()) + 1,
                    f"mutex '{name}' guards no member -- annotate at least "
                    f"one member BCOP_GUARDED_BY({name}), or waive with a "
                    "reason if it protects a region/external resource"))
    return out


# ---- R4 / R7 structural checks --------------------------------------------

def _check_r4(tree: SourceTree) -> list[Violation]:
    corpus = tree.test_corpus()
    out = []
    for rel, _ in tree.src_files():
        if not rel.endswith(".cpp"):
            continue
        header = rel[len("src/"):-len(".cpp")] + ".hpp"
        if header not in corpus:
            out.append(Violation("R4", rel, 0,
                                 f'no test includes "{header}"'))
    return out


def _check_r7(tree: SourceTree) -> list[Violation]:
    out = []
    for rel, text in tree.src_files():
        if rel.startswith("src/obs/"):
            continue
        for lineno, line in enumerate(text.splitlines(), 1):
            code = strip_comment(line)
            if OBS_NAMESPACE.search(code) and not OBS_FORWARD_DECL.search(code):
                out.append(Violation("R7", rel, lineno, line.strip()))
    hot = tree.read(OBS_HOT_HEADER)
    if hot is None:
        out.append(Violation("R7", OBS_HOT_HEADER, 0,
                             "recording header is missing"))
        return out
    for lineno, line in enumerate(hot.splitlines(), 1):
        code = strip_comment(line)  # prose may mention the tokens
        if LOCK_TOKENS.search(code) or ALLOC_TOKENS.search(code):
            out.append(Violation("R7", OBS_HOT_HEADER, lineno, line.strip()))
    return out


# ---- The rule table --------------------------------------------------------

RULES: list[Rule] = [
    engine.token_confinement(
        "R1", "raw data_[] arithmetic confined to src/tensor/",
        "every other module must go through a named, contract-checked "
        "index helper",
        DATA_ARITH, ("src/tensor/",)),
    engine.token_confinement(
        "R2", "std::thread confined to src/parallel/",
        "all concurrency flows through ThreadPool so the TSan matrix "
        "sees it",
        THREAD_USE, ("src/parallel/",)),
    engine.token_confinement(
        "R3", "non-deterministic RNG confined to src/util/rng",
        "all randomness must be seed-deterministic for reproducibility",
        BAD_RNG, ("src/util/rng",)),
    Rule("R4", "every src .cpp has its header referenced from tests/",
         "no untested modules", _check_r4),
    engine.token_confinement(
        "R5", "blocking coordination confined to src/parallel/, src/serve/ "
        "and src/net/",
        "every wait/notify path must be exercised by the TSan stress "
        "suite via ThreadPool / BatchingServer",
        COORD_USE, ("src/parallel/", "src/serve/", "src/net/")),
    engine.forbidden_tokens_in_files(
        "R6", "plan interpreter is an allocation-free zone",
        "the allocating prologue belongs in plan.cpp / engine.cpp; "
        "tests/test_zero_alloc.cpp measures the same contract dynamically "
        "and scripts/audit_hot_path.py proves it on the compiled object",
        ALLOC_TOKENS, ALLOC_FREE_FILES),
    Rule("R7", "obs primitives defined only in src/obs/; metrics.hpp "
         "lock-free and allocation-free",
         "recording must be safe to call from R6 zones and the "
         "zero-alloc serving path", _check_r7),
    Rule("R8", "every mutex is util::Mutex and guards something",
         "raw std::mutex is invisible to Clang's -Wthread-safety; an "
         "unannotated mutex documents nothing and checks nothing",
         _check_r8),
    engine.include_hygiene(
        "R9", "hot-TU include hygiene",
        "the interpreter TU and the recording header must not pull in "
        "locking, stream or type-erasure machinery even transitively "
        "inlined -- the binary audit backs this up at the symbol level; "
        "the serial replay and kernel-tier TUs must not reach the thread "
        "pool, which only exec.cpp's per-image fan-out calls",
        HOT_INCLUDE_TABLE),
    engine.token_confinement(
        "R10", "raw sockets and readiness syscalls confined to src/net/",
        "every byte of untrusted network input must enter through the "
        "bounded parser and admission control in src/net/; a socket "
        "opened elsewhere is an unaudited ingress path",
        SOCKET_USE, ("src/net/",), comment_stripped=True),
]
