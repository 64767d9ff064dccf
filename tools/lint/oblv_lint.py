#!/usr/bin/env python3
"""Project determinism + contract linter.

Rules (all scoped to the paper-reproduction discipline in DESIGN.md §7):

  D001  No ambient nondeterminism outside src/workloads/: bans
        std::random_device, rand()/srand(), and time-seeded rngs. Every
        random stream must derive from an explicit seed so runs replay
        bit-for-bit.
  D002  No iteration over std::unordered_map / std::unordered_set whose
        result can leak into output, accumulation, or rng state: bucket
        order is implementation-defined. Lookups are fine; range-for and
        .begin() traversal are flagged unless allowlisted with a
        justification.
  D003  No std::function on routing hot paths (src/routing/, src/mesh/):
        type-erased calls defeat inlining in the per-packet loops that
        bench_p1_throughput gates.
  C001  A .cpp that asserts preconditions (OBLV_REQUIRE / OBLV_EXPECTS)
        must document them in its paired header: at least one `\\pre`
        (or `Precondition:`) comment or an inline OBLV_EXPECTS.
  D004  No per-call container allocation inside route*_into bodies
        (src/routing/): a by-value std::vector local (or push_back onto
        one) defeats the zero-allocation contract of the scratch-threaded
        entry points -- route through RouteScratch buffers instead.
  D005  Every code path that drops or requeues a packet (src/fault/,
        src/simulator/) must increment a fault.* metric: a drop-tally
        bump, a kDropped status, or a backoff requeue with no
        OBLV_COUNTER_ADD("fault. nearby is an uncounted loss -- the
        graceful-degradation accounting (delivered + dropped == injected)
        silently lies when one of these sites forgets its counter.
  D007  No blocking I/O syscalls outside src/daemon/net*: raw
        read/write/recv/send/accept/connect/poll/select calls can stall
        a daemon thread forever on a dead peer. All socket I/O goes
        through the poll-bounded daemon::net helpers, which take an
        explicit timeout; the helpers themselves (src/daemon/net*) are
        the sanctioned site and annotate each raw call with an allow().
  D008  No naked std sync primitives (std::mutex / std::lock_guard /
        std::scoped_lock / std::unique_lock / std::condition_variable /
        std::shared_mutex and friends) outside
        src/util/thread_annotations.hpp: only the annotated oblv::Mutex
        family carries the capability attributes the clang thread-safety
        analysis checks, so a naked primitive is a lock the compiler
        cannot see -- exactly the bypass the lock-discipline gate
        (DESIGN.md section 13) exists to prevent.
  D009  std::atomic loads/stores with an explicit
        std::memory_order_relaxed on values that feed accounting
        contracts (daemon.unaccounted, fault.drops, delivered/dropped/
        rejected/submitted tallies) need a written justification:
        relaxed counters that gate `== 0` exit checks are a
        silent-undercount hazard unless some other synchronization
        (a join, a drain barrier) orders the writes before the read.
  D010  No direct EdgeLoadMap construction outside the LoadAccountant
        factory: a direct instance hard-codes exact O(E) accounting and
        bypasses the exact/sketch mode switch every measurement driver
        honors.
  D011  No errno branches in src/daemon/ outside the net*/chaos*
        helpers: transport errors reach the daemon as IoStatus, and the
        EINTR/EAGAIN/partial-I/O retry policy lives in the bounded
        daemon::net helpers (with the chaos layer spoofing at the same
        seam). An errno comparison anywhere else re-opens the scattered
        retry logic those helpers were written to contain.

Suppression: `// oblv-lint: allow(RULE) <justification>` on the flagged
line or within the three lines above it. The justification is mandatory.

The linter is pure-stdlib regex over comment-stripped sources so it runs
anywhere the repo builds. When python libclang bindings are importable
(`pip install libclang`, not required) D002 additionally resolves typedef
aliases of unordered containers; without them the regex engine alone is
authoritative and fully supported.

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

try:  # optional refinement only; the regex engine is self-sufficient
    import clang.cindex  # type: ignore  # noqa: F401

    HAVE_LIBCLANG = True
except Exception:  # pragma: no cover - environment dependent
    HAVE_LIBCLANG = False

ALLOW_RE = re.compile(r"//\s*oblv-lint:\s*allow\((?P<rules>[A-Z0-9, ]+)\)(?P<why>.*)")
# How far above a flagged line an allow comment may sit.
ALLOW_REACH = 3

RULE_DOCS = {
    "D001": "ambient nondeterminism (random_device / rand / time seed)",
    "D002": "iteration over an unordered container (bucket order leaks)",
    "D003": "std::function on a routing hot path",
    "C001": "undocumented preconditions in paired header",
    "D004": "per-call container allocation in a route*_into hot path",
    "D005": "packet drop/requeue without a fault.* metric increment",
    "D007": "blocking I/O syscall outside src/daemon/net*",
    "D008": "naked std sync primitive outside the annotations header",
    "D009": "relaxed atomic access to an accounting value",
    "D010": "direct EdgeLoadMap construction outside the LoadAccountant "
            "factory",
    "D011": "errno branch in src/daemon/ outside the net*/chaos* helpers",
    "A001": "allowlist comment without justification",
}


class Finding:
    def __init__(self, rule: str, path: Path, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def render(self, root: Path) -> str:
        try:
            rel = self.path.resolve().relative_to(root.resolve())
        except ValueError:
            rel = self.path
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"

    def as_json(self, root: Path) -> dict:
        try:
            rel = str(self.path.resolve().relative_to(root.resolve()))
        except ValueError:
            rel = str(self.path)
        return {"rule": self.rule, "file": rel, "line": self.line,
                "message": self.message}


def collect_allowlist(lines: list[str]) -> dict[int, set[str]]:
    """Maps 1-based line numbers to the set of rules allowed there."""
    allowed: dict[int, set[str]] = {}
    for i, line in enumerate(lines, start=1):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        if not m.group("why").strip():
            # An allow without justification is itself a finding; encode it
            # as a pseudo-rule the caller turns into a report.
            allowed.setdefault(i, set()).add("!nojustification")
            continue
        rules = {r.strip() for r in m.group("rules").split(",") if r.strip()}
        allowed.setdefault(i, set()).update(rules)
    return allowed


def is_allowed(allowed: dict[int, set[str]], line: int, rule: str) -> bool:
    for probe in range(max(1, line - ALLOW_REACH), line + 1):
        if rule in allowed.get(probe, set()):
            return True
    return False


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving line structure."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(" ")
            else:
                out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


# ---------------------------------------------------------------- D001 --

D001_PATTERNS = [
    (re.compile(r"std\s*::\s*random_device|\brandom_device\b"),
     "std::random_device is nondeterministic; derive Rng streams from an "
     "explicit seed"),
    (re.compile(r"(?<![\w:])srand\s*\("),
     "srand() seeds global C rand state; use the project Rng"),
    (re.compile(r"(?<![\w:.])rand\s*\(\s*\)"),
     "rand() draws from hidden global state; use the project Rng"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "wall-clock seeding breaks replay; thread an explicit seed through"),
]
D001_CLOCK_RE = re.compile(
    r"(steady_clock|system_clock|high_resolution_clock)\s*::\s*now\s*\(")
D001_SEED_HINT_RE = re.compile(r"\bseed\b|\bRng\b|\brng\b", re.IGNORECASE)


def check_d001(path: Path, rel: str, code: str,
               allowed: dict[int, set[str]]) -> list[Finding]:
    if rel.startswith("src/workloads/") or "/workloads/" in rel:
        return []
    findings = []
    for pattern, why in D001_PATTERNS:
        for m in pattern.finditer(code):
            ln = line_of(code, m.start())
            if not is_allowed(allowed, ln, "D001"):
                findings.append(Finding("D001", path, ln, why))
    # clock::now() is fine for timing; it is a D001 only when it feeds a
    # seed or rng on the same line.
    for m in D001_CLOCK_RE.finditer(code):
        ln = line_of(code, m.start())
        line_text = code.splitlines()[ln - 1] if ln <= code.count("\n") + 1 else ""
        if D001_SEED_HINT_RE.search(line_text) and not is_allowed(allowed, ln, "D001"):
            findings.append(Finding(
                "D001", path, ln,
                "clock-derived seed breaks replay; thread an explicit seed"))
    return findings


# ---------------------------------------------------------------- D002 --

UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:map|set)\s*<")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")


def unordered_variables(code: str) -> set[str]:
    """Names of variables declared with an unordered container type."""
    names: set[str] = set()
    for m in UNORDERED_DECL_RE.finditer(code):
        # Walk the template argument list to its matching '>'.
        i = m.end() - 1  # at '<'
        depth = 0
        n = len(code)
        while i < n:
            if code[i] == "<":
                depth += 1
            elif code[i] == ">":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        if i >= n:
            continue
        rest = code[i + 1:]
        im = IDENT_RE.match(rest.lstrip())
        if not im:
            continue
        tail = rest.lstrip()[im.end():].lstrip()
        # A declaration, not a nested template parameter or return type.
        if tail[:1] in {";", "(", "{", "=", ","}:
            names.add(im.group(0))
    return names


def check_d002(path: Path, code: str,
               allowed: dict[int, set[str]]) -> list[Finding]:
    names = unordered_variables(code)
    if not names:
        return []
    findings = []
    alternation = "|".join(re.escape(n) for n in sorted(names))
    range_for = re.compile(
        r"for\s*\([^;()]*?:\s*(?:\*?\s*)?(?P<name>" + alternation + r")\s*\)")
    iter_call = re.compile(
        r"\b(?P<name>" + alternation + r")\s*\.\s*c?begin\s*\(")
    for pattern, what in ((range_for, "range-for over"),
                          (iter_call, "iterator traversal of")):
        for m in pattern.finditer(code):
            ln = line_of(code, m.start())
            if is_allowed(allowed, ln, "D002"):
                continue
            findings.append(Finding(
                "D002", path, ln,
                f"{what} unordered container '{m.group('name')}': bucket "
                "order is implementation-defined; iterate a sorted view or "
                "justify with // oblv-lint: allow(D002)"))
    return findings


# ---------------------------------------------------------------- D003 --

D003_RE = re.compile(r"std\s*::\s*function\s*<")


def check_d003(path: Path, rel: str, code: str,
               allowed: dict[int, set[str]]) -> list[Finding]:
    if not ("src/routing/" in rel or rel.startswith("src/routing/")
            or "src/mesh/" in rel or rel.startswith("src/mesh/")):
        return []
    findings = []
    for m in D003_RE.finditer(code):
        ln = line_of(code, m.start())
        if not is_allowed(allowed, ln, "D003"):
            findings.append(Finding(
                "D003", path, ln,
                "std::function on a routing hot path defeats inlining; use "
                "a template parameter or function_ref-style callable"))
    return findings


# ---------------------------------------------------------------- D004 --

D004_FUNC_RE = re.compile(r"\b(?P<name>route\w*_into\w*)\s*\(")
D004_VECTOR_RE = re.compile(r"std\s*::\s*vector\s*<")
D004_QUALIFIER_RE = re.compile(r"\s*(?:const|noexcept|override|final)\b")


def _matching(code: str, start: int, open_ch: str, close_ch: str) -> int:
    """Index just past the delimiter matching code[start] (which must be
    open_ch), or -1 when unbalanced."""
    depth = 0
    for i in range(start, len(code)):
        if code[i] == open_ch:
            depth += 1
        elif code[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def route_into_bodies(code: str) -> list[tuple[int, int]]:
    """(start, end) spans of every route*_into function DEFINITION body.

    Call sites and declarations are skipped: a definition's parameter list
    is followed (after cv/noexcept/override qualifiers) by '{'.
    """
    bodies = []
    for m in D004_FUNC_RE.finditer(code):
        after_params = _matching(code, m.end() - 1, "(", ")")
        if after_params < 0:
            continue
        i = after_params
        while True:
            q = D004_QUALIFIER_RE.match(code, i)
            if not q:
                break
            i = q.end()
        while i < len(code) and code[i].isspace():
            i += 1
        if i >= len(code) or code[i] != "{":
            continue  # declaration or call site
        end = _matching(code, i, "{", "}")
        if end > 0:
            bodies.append((i, end))
    return bodies


def check_d004(path: Path, rel: str, code: str,
               allowed: dict[int, set[str]]) -> list[Finding]:
    if not ("src/routing/" in rel or rel.startswith("src/routing/")):
        return []
    findings = []
    for start, end in route_into_bodies(code):
        body = code[start:end]
        fresh: set[str] = set()
        for m in D004_VECTOR_RE.finditer(body):
            close = _matching(body, m.end() - 1, "<", ">")
            if close < 0:
                continue
            rest = body[close:].lstrip()
            if rest.startswith("&") or rest.startswith("*"):
                continue  # reference/pointer binding: no allocation here
            im = IDENT_RE.match(rest)
            if not im:
                continue
            tail = rest[im.end():].lstrip()
            if tail[:1] not in {";", "(", "{", "="}:
                continue  # nested template arg, cast, or return type
            fresh.add(im.group(0))
            ln = line_of(code, start + m.start())
            if not is_allowed(allowed, ln, "D004"):
                findings.append(Finding(
                    "D004", path, ln,
                    f"by-value std::vector local '{im.group(0)}' in a "
                    "route*_into body allocates per call; reuse a "
                    "RouteScratch buffer instead"))
        if fresh:
            grow = re.compile(
                r"\b(?P<name>" + "|".join(re.escape(n) for n in sorted(fresh))
                + r")\s*\.\s*(?:push_back|emplace_back)\s*\(")
            for m in grow.finditer(body):
                ln = line_of(code, start + m.start())
                if not is_allowed(allowed, ln, "D004"):
                    findings.append(Finding(
                        "D004", path, ln,
                        f"growing fresh vector '{m.group('name')}' inside a "
                        "route*_into body allocates per call; route through "
                        "RouteScratch"))
    return findings


# ---------------------------------------------------------------- D005 --

# Packet-loss / requeue events. Identifier paths may be member chains
# (result.dropped, state[i].wait_until).
D005_EVENTS = [
    (re.compile(r"\+\+\s*[\w.\[\]>()-]*\bdrop\w*|"
                r"[\w.\[\]>()-]*\bdrop\w*\s*\+\+"),
     "drop-tally increment"),
    (re.compile(r"(?P<lhs>[\w.\[\]>()-]*\bdrop\w*)\s*\+=\s*(?P<rhs>[^;]*)"),
     "drop-tally accumulation"),
    (re.compile(r"(?:=\s*|return\s+)FaultRouteStatus\s*::\s*kDropped"),
     "kDropped outcome"),
    (re.compile(r"(?:\.|->)\s*wait_until\s*=(?!=)"),
     "backoff requeue"),
]
D005_COUNTER_RE = re.compile(r'OBLV_COUNTER_ADD\(\s*"fault\.')
# How far (in lines, either direction) the metric bump may sit from the
# drop/requeue event it accounts for.
D005_WINDOW = 6
D005_DROP_IDENT_RE = re.compile(r"\bdrop\w*", re.IGNORECASE)


def check_d005(path: Path, rel: str, code: str, raw_lines: list[str],
               allowed: dict[int, set[str]]) -> list[Finding]:
    if path.suffix != ".cpp":
        return []
    if not (rel.startswith("src/fault/") or "/src/fault/" in rel
            or rel.startswith("src/simulator/")
            or "/src/simulator/" in rel):
        return []

    def counted_nearby(ln: int) -> bool:
        lo = max(0, ln - 1 - D005_WINDOW)
        hi = min(len(raw_lines), ln + D005_WINDOW)
        return any(D005_COUNTER_RE.search(raw_lines[i])
                   for i in range(lo, hi))

    findings = []
    for pattern, what in D005_EVENTS:
        for m in pattern.finditer(code):
            if what == "drop-tally accumulation" and D005_DROP_IDENT_RE.search(
                    m.group("rhs")):
                continue  # tally-to-tally merge, not a new drop event
            ln = line_of(code, m.start())
            if is_allowed(allowed, ln, "D005"):
                continue
            if counted_nearby(ln):
                continue
            findings.append(Finding(
                "D005", path, ln,
                f"{what} without an OBLV_COUNTER_ADD(\"fault.*\") within "
                f"{D005_WINDOW} lines: a packet left the network uncounted; "
                "bump the metric at the decision site or justify with "
                "// oblv-lint: allow(D005)"))
    return findings


# ---------------------------------------------------------------- D007 --

# The one sanctioned home for raw socket/file syscalls. Everything else
# must call the bounded daemon::net helpers.
D007_EXEMPT_PREFIX = "src/daemon/net"
# Global-qualified calls are unambiguous syscall references; read/write
# are only matched in this form (bare `read(`/`write(` collide with too
# many project identifiers to flag soundly).
D007_QUALIFIED_RE = re.compile(
    r"::\s*(?P<name>read|write|recv|send|recvfrom|sendto|accept4?|connect|"
    r"poll|ppoll|select|pselect)\s*\(")
# Rarer names are also flagged unqualified (not after an identifier
# character, scope operator, `.`, or `->`).
D007_BARE_RE = re.compile(
    r"(?<![\w:.>])(?P<name>recv|recvfrom|sendto|accept4|poll|ppoll|"
    r"pselect)\s*\(")


def check_d007(path: Path, rel: str, code: str,
               allowed: dict[int, set[str]]) -> list[Finding]:
    if not (rel.startswith("src/") or "/src/" in rel):
        return []
    if rel.startswith(D007_EXEMPT_PREFIX) or f"/{D007_EXEMPT_PREFIX}" in rel:
        return []
    findings = []
    seen: set[int] = set()
    for pattern in (D007_QUALIFIED_RE, D007_BARE_RE):
        for m in pattern.finditer(code):
            ln = line_of(code, m.start())
            if ln in seen or is_allowed(allowed, ln, "D007"):
                continue
            seen.add(ln)
            findings.append(Finding(
                "D007", path, ln,
                f"raw '{m.group('name')}' syscall outside src/daemon/net*: "
                "it can block a thread forever on a dead peer; use the "
                "poll-bounded daemon::net helpers (read_frame / write_all / "
                "wait_readable take an explicit timeout) or justify with "
                "// oblv-lint: allow(D007)"))
    return findings


# ---------------------------------------------------------------- D008 --

# The one file allowed to name the raw std primitives: it wraps them in
# the capability-annotated oblv::Mutex family (DESIGN.md section 13).
D008_EXEMPT = "src/util/thread_annotations.hpp"
D008_RE = re.compile(
    r"std\s*::\s*(?P<name>mutex|timed_mutex|recursive_mutex|"
    r"recursive_timed_mutex|shared_mutex|shared_timed_mutex|lock_guard|"
    r"scoped_lock|unique_lock|shared_lock|condition_variable|"
    r"condition_variable_any)\b")


def check_d008(path: Path, rel: str, code: str,
               allowed: dict[int, set[str]]) -> list[Finding]:
    if not (rel.startswith("src/") or "/src/" in rel):
        return []
    if rel == D008_EXEMPT or rel.endswith("/" + D008_EXEMPT):
        return []
    findings = []
    seen: set[int] = set()
    for m in D008_RE.finditer(code):
        ln = line_of(code, m.start())
        if ln in seen or is_allowed(allowed, ln, "D008"):
            continue
        seen.add(ln)
        findings.append(Finding(
            "D008", path, ln,
            f"naked std::{m.group('name')} is a lock the thread-safety "
            "analysis cannot see; use oblv::Mutex / oblv::MutexLock / "
            "oblv::CondVar from util/thread_annotations.hpp (and GUARDED_BY "
            "the data), or justify with // oblv-lint: allow(D008)"))
    return findings


# ---------------------------------------------------------------- D009 --

# Accounting values: the counters whose sums back the conservation
# contracts (daemon `unaccounted == 0` drain check, fault-layer
# `delivered + dropped == injected`). A relaxed read of one of these is
# only sound when some other synchronization orders the writers first.
D009_ACCT_RE = re.compile(
    r"unaccounted|submit|deliver|reject|admit|offered|drop|inject|tall",
    re.IGNORECASE)
D009_RE = re.compile(
    r"(?P<obj>[A-Za-z_]\w*(?:(?:\.|->|::)[A-Za-z_]\w*)*)"
    r"\s*(?:\.|->)\s*(?:load|store)\s*\([^;]*?memory_order_relaxed")


def check_d009(path: Path, rel: str, code: str,
               allowed: dict[int, set[str]]) -> list[Finding]:
    if not (rel.startswith("src/") or "/src/" in rel):
        return []
    findings = []
    seen: set[int] = set()
    for m in D009_RE.finditer(code):
        if not D009_ACCT_RE.search(m.group("obj")):
            continue
        ln = line_of(code, m.start())
        if ln in seen or is_allowed(allowed, ln, "D009"):
            continue
        seen.add(ln)
        findings.append(Finding(
            "D009", path, ln,
            f"relaxed atomic access to accounting value '{m.group('obj')}' "
            "can silently undercount the conservation checks; state the "
            "ordering argument (join / drain barrier) with "
            "// oblv-lint: allow(D009) or drop the explicit relaxed order"))
    return findings


# ---------------------------------------------------------------- D010 --

# Direct EdgeLoadMap construction commits the call site to O(E) memory
# and hard-codes exact accounting, bypassing the exact/sketch mode switch
# (AccountingOptions) every measurement driver honors. New accounting
# state comes from LoadAccountant::create; the few sanctioned direct uses
# (the factory's own exact backend, the heatmap-feeding measure paths)
# carry an allow() with the reason they must stay exact.
D010_RES = [
    re.compile(r"\bEdgeLoadMap\s+\w+\s*[;({=]"),       # locals and members
    re.compile(r"\bmake_unique\s*<\s*EdgeLoadMap\b"),  # heap construction
    re.compile(r"\bnew\s+EdgeLoadMap\b"),
]


def check_d010(path: Path, rel: str, code: str,
               allowed: dict[int, set[str]]) -> list[Finding]:
    if not (rel.startswith("src/") or "/src/" in rel):
        return []
    findings = []
    seen: set[int] = set()
    for regex in D010_RES:
        for m in regex.finditer(code):
            ln = line_of(code, m.start())
            if ln in seen or is_allowed(allowed, ln, "D010"):
                continue
            seen.add(ln)
            findings.append(Finding(
                "D010", path, ln,
                "direct EdgeLoadMap construction bypasses the exact/sketch "
                "accounting switch; create accounting state through "
                "LoadAccountant::create(mesh, mode, config), or justify the "
                "exact-only use with // oblv-lint: allow(D010)"))
    return findings


# ---------------------------------------------------------------- D011 --

# errno interpretation is transport policy. After the resilience pass,
# every EINTR/EAGAIN/partial-I/O decision in the daemon lives in the
# bounded net helpers (src/daemon/net*), and the chaos fault layer
# (src/daemon/chaos*) spoofs errors at that same seam. An errno branch
# anywhere else in src/daemon/ re-opens the scattered retry logic those
# helpers were written to contain -- callers react to IoStatus, never to
# raw errno.
D011_EXEMPT_PREFIXES = ("src/daemon/net", "src/daemon/chaos")
D011_RE = re.compile(
    r"\berrno\s*(?:==|!=)|(?:==|!=)\s*errno\b|\bswitch\s*\(\s*errno\b")


def check_d011(path: Path, rel: str, code: str,
               allowed: dict[int, set[str]]) -> list[Finding]:
    if not (rel.startswith("src/daemon/") or "/src/daemon/" in rel):
        return []
    for prefix in D011_EXEMPT_PREFIXES:
        if rel.startswith(prefix) or f"/{prefix}" in rel:
            return []
    findings = []
    seen: set[int] = set()
    for m in D011_RE.finditer(code):
        ln = line_of(code, m.start())
        if ln in seen or is_allowed(allowed, ln, "D011"):
            continue
        seen.add(ln)
        findings.append(Finding(
            "D011", path, ln,
            "errno branch outside src/daemon/net*/chaos*: transport errors "
            "reach the daemon as IoStatus and the EINTR/EAGAIN retry policy "
            "lives in the bounded net helpers; branch on the helper result "
            "or justify with // oblv-lint: allow(D011)"))
    return findings


# ---------------------------------------------------------------- C001 --

C001_ASSERT_RE = re.compile(r"\bOBLV_(?:REQUIRE|EXPECTS)\s*\(")
C001_DOC_RE = re.compile(r"\\pre\b|\bPrecondition:|\bOBLV_EXPECTS\s*\(")


def check_c001(path: Path, raw_text: str) -> list[Finding]:
    if path.suffix != ".cpp":
        return []
    code = strip_comments_and_strings(raw_text)
    if not C001_ASSERT_RE.search(code):
        return []
    header = path.with_suffix(".hpp")
    if not header.exists():
        return []
    header_text = header.read_text(encoding="utf-8", errors="replace")
    if C001_DOC_RE.search(header_text):
        return []
    return [Finding(
        "C001", header, 1,
        f"{path.name} asserts preconditions but this header documents none; "
        "add a \\pre comment (or OBLV_EXPECTS) to the declarations")]


# ----------------------------------------------------------------- main --

def lint_file(path: Path, root: Path) -> list[Finding]:
    raw = path.read_text(encoding="utf-8", errors="replace")
    raw_lines = raw.splitlines()
    allowed = collect_allowlist(raw_lines)
    code = strip_comments_and_strings(raw)
    try:
        rel = str(path.resolve().relative_to(root.resolve()))
    except ValueError:
        rel = str(path)
    rel = rel.replace("\\", "/")

    findings: list[Finding] = []
    for ln, rules in allowed.items():
        if "!nojustification" in rules:
            findings.append(Finding(
                "A001", path, ln,
                "oblv-lint allow() needs a justification after the rule list"))
    findings += check_d001(path, rel, code, allowed)
    findings += check_d002(path, code, allowed)
    findings += check_d003(path, rel, code, allowed)
    findings += check_d004(path, rel, code, allowed)
    findings += check_d005(path, rel, code, raw_lines, allowed)
    findings += check_d007(path, rel, code, allowed)
    findings += check_d008(path, rel, code, allowed)
    findings += check_d009(path, rel, code, allowed)
    findings += check_d010(path, rel, code, allowed)
    findings += check_d011(path, rel, code, allowed)
    findings += check_c001(path, raw)
    return findings


def default_files(root: Path) -> list[Path]:
    src = root / "src"
    return sorted(p for p in src.rglob("*") if p.suffix in (".hpp", ".cpp"))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", type=Path,
                        help="files to lint (default: all of <root>/src)")
    parser.add_argument("--root", type=Path, default=Path.cwd(),
                        help="repository root for scoping and display")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as a JSON array")
    parser.add_argument("--json-out", type=Path, metavar="FILE",
                        help="additionally write the findings JSON to FILE "
                             "(written even when clean, for CI artifacts)")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    files = args.files or default_files(args.root)
    if not files:
        print("oblv_lint: no input files", file=sys.stderr)
        return 2
    if args.verbose:
        engine = "libclang+regex" if HAVE_LIBCLANG else "regex"
        print(f"oblv_lint: {engine} engine, {len(files)} files")

    findings: list[Finding] = []
    for path in files:
        if not path.exists():
            print(f"oblv_lint: no such file: {path}", file=sys.stderr)
            return 2
        findings += lint_file(path, args.root)

    findings.sort(key=lambda f: (str(f.path), f.line, f.rule))
    if args.json_out:
        args.json_out.write_text(
            json.dumps([f.as_json(args.root) for f in findings], indent=2)
            + "\n")
    if args.json:
        print(json.dumps([f.as_json(args.root) for f in findings], indent=2))
    else:
        for f in findings:
            print(f.render(args.root))
        if findings:
            print(f"oblv_lint: {len(findings)} finding(s)")
        elif args.verbose:
            print("oblv_lint: clean")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
