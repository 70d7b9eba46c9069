#!/usr/bin/env python3
"""dml_lint — project-aware static analysis for the dmlfp codebase.

Enforces the contracts the serving stack promises but no generic linter
understands (DESIGN.md §15):

  hot-alloc          DML_HOT function bodies must not allocate; every
                     exception carries a DML_ALLOW_ALLOC rationale.
  reactor-blocking   DML_REACTOR_CONTEXT bodies (reactor callbacks) must
                     never block: no CondVar::wait, no sleeps, no
                     blocking file I/O, no direct engine calls.
  failpoint-coverage every registered failpoint name has a call site and
                     is genuinely armed by at least one test.
  lock-order         observed nested MutexLock scopes must be covered by
                     declared DML_ACQUIRED_BEFORE/AFTER edges and the
                     declared graph must stay acyclic.

Two engines produce the same finding codes:

  text  A C++-aware lexical engine (comment/string masking, brace
        tracking).  Always available; the deterministic gate that runs
        on every machine, including toolchains without clang.
  ast   libclang (python3 clang.cindex) over compile_commands.json for
        the two body-local checks; sharper about call forms the lexical
        engine can only pattern-match.  Skips (exit 77) where libclang
        is missing — CI's static-analysis job runs it for real.

Exit codes: 0 clean · 1 findings · 2 usage/internal error ·
77 --engine=ast requested but libclang unavailable (ctest SKIP_RETURN_CODE).
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import re
import sys
from dataclasses import dataclass, field

ALL_CHECKS = ("hot-alloc", "reactor-blocking", "failpoint-coverage",
              "lock-order")

# Allocating free functions (and the std factory templates that wrap
# operator new).  Matched as whole words; the AST engine matches callee
# spellings against the same set.
ALLOC_FUNCS = {
    "malloc", "calloc", "realloc", "strdup", "strndup", "aligned_alloc",
    "posix_memalign", "make_unique", "make_shared",
}

# Container mutations that may allocate.  Name-based by design: the
# lexical engine cannot type-resolve the receiver, and the project's
# own allocation-lean containers (RingQueue, FlatMap) reuse these names
# precisely because they behave like their std counterparts — amortized
# growth included, which is exactly what a DML_HOT body must account
# for with a DML_ALLOW_ALLOC rationale.
ALLOC_METHODS = {
    "push_back", "emplace_back", "push_front", "emplace_front", "emplace",
    "emplace_hint", "push", "insert", "resize", "reserve", "assign",
    "append",
}

# Blocking primitives banned in reactor context.  Nonblocking-socket
# read()/write() are the reactor's job and stay legal; the file-stdio
# family and the sleeps never are.
BLOCKING_METHODS = {"wait", "wait_for", "wait_until"}
BLOCKING_FUNCS = {
    "sleep", "usleep", "nanosleep", "sleep_for", "sleep_until",
    "fopen", "fread", "fwrite", "fflush", "fsync", "fdatasync",
}
# Engine entry points: a reactor callback that reaches the serving
# engine inverts the pump-thread design (DESIGN.md §12) — reactors
# enqueue to mailboxes, pump threads are the only engine callers.
ENGINE_METHODS = {
    "consume", "consume_batch", "feed_batch",
    "observe", "observe_batch", "tick_into",
}

HOT_MARK = "DML_HOT"
REACTOR_MARK = "DML_REACTOR_CONTEXT"
ALLOW_MARK = "DML_ALLOW_ALLOC"

SRC_EXTS = (".cpp", ".hpp", ".cc", ".h")


@dataclass(frozen=True)
class Finding:
    check: str
    code: str
    path: str  # repo-root-relative (or fixture-relative)
    line: int
    message: str

    def key(self) -> str:
        return f"{self.check}/{self.code} {self.path}:{self.line}"

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.check}/{self.code}] {self.message}"


@dataclass
class SourceFile:
    """One parsed source file: raw text, masked text, line machinery."""

    path: str  # relative to scan root
    text: str
    masked: str = ""
    line_starts: list[int] = field(default_factory=list)
    directive_lines: set[int] = field(default_factory=set)
    depth: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.masked = mask_source(self.text)
        self.line_starts = [0]
        for i, c in enumerate(self.text):
            if c == "\n":
                self.line_starts.append(i + 1)
        self.directive_lines = directive_lines(self.text)
        self.depth = brace_depths(self.masked)

    def line_of(self, offset: int) -> int:
        return bisect.bisect_right(self.line_starts, offset)

    def on_directive(self, offset: int) -> bool:
        return self.line_of(offset) in self.directive_lines


def mask_source(text: str) -> str:
    """Blanks comments and string/char literals with spaces, keeping
    every offset and newline in place so line numbers survive."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and
                                 text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = out[i + 1] = " "
                i += 2
        elif c == "R" and nxt == '"':
            # Raw string R"delim( ... )delim"
            m = re.match(r'R"([^(\s]{0,16})\(', text[i:])
            if not m:
                i += 1
                continue
            close = ")" + m.group(1) + '"'
            end = text.find(close, i + m.end())
            end = n if end == -1 else end + len(close)
            for j in range(i, end):
                if text[j] != "\n":
                    out[j] = " "
            i = end
        elif c == '"' or c == "'":
            quote = c
            out[i] = " "
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out[i] = out[i + 1] = " "
                    i += 2
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                i += 1
        else:
            i += 1
    return "".join(out)


def directive_lines(text: str) -> set[int]:
    """1-based lines that are preprocessor directives (with \\ continuations)."""
    lines = text.split("\n")
    result: set[int] = set()
    cont = False
    for idx, line in enumerate(lines, start=1):
        if cont or line.lstrip().startswith("#"):
            result.add(idx)
            cont = line.rstrip().endswith("\\")
        else:
            cont = False
    return result


def brace_depths(masked: str) -> list[int]:
    """depth[i] = number of unmatched '{' strictly before offset i."""
    depth = [0] * (len(masked) + 1)
    d = 0
    for i, c in enumerate(masked):
        depth[i] = d
        if c == "{":
            d += 1
        elif c == "}":
            d = max(0, d - 1)
    depth[len(masked)] = d
    return depth


@dataclass
class Definition:
    """A function definition carrying a dml_lint marker."""

    marker: str
    name: str
    decl_offset: int
    body_start: int  # offset of '{' (or -1: declaration only)
    body_end: int  # offset just past matching '}'


def find_marked_definitions(sf: SourceFile, marker: str) -> list[Definition]:
    defs: list[Definition] = []
    for m in re.finditer(r"\b" + marker + r"\b", sf.masked):
        if sf.on_directive(m.start()):
            continue  # the macro's own #define
        # The marker sits between the return type and the (possibly
        # qualified) function name; scan forward for the name and then
        # for the body '{' vs a declaration-terminating ';' at paren
        # depth 0.
        i = m.end()
        n = len(sf.masked)
        name_m = re.match(r"\s*((?:[A-Za-z_]\w*::)*[A-Za-z_~]\w*)",
                          sf.masked[i:])
        name = name_m.group(1) if name_m else "?"
        paren = 0
        body_start = -1
        while i < n:
            c = sf.masked[i]
            if c == "(" or c == "<":
                paren += 1
            elif c == ")" or c == ">":
                paren = max(0, paren - 1)
            elif c == "{" and paren == 0:
                body_start = i
                break
            elif c == ";" and paren == 0:
                break
            i += 1
        if body_start < 0:
            defs.append(Definition(marker, name, m.start(), -1, -1))
            continue
        d = sf.depth[body_start]
        j = body_start + 1
        while j < n and not (sf.masked[j] == "}" and sf.depth[j] == d + 1):
            j += 1
        defs.append(Definition(marker, name, m.start(), body_start, j + 1))
    return defs


@dataclass
class AllowSpan:
    offset: int  # start of the marker
    line: int
    span_start: int  # first excused offset
    span_end: int  # last excused offset (inclusive)
    rationale: str
    used: bool = False


def find_allow_spans(sf: SourceFile) -> tuple[list[AllowSpan], list[Finding]]:
    """DML_ALLOW_ALLOC markers: each excuses exactly the next statement
    (everything up to and including the next ';' after its own)."""
    spans: list[AllowSpan] = []
    findings: list[Finding] = []
    for m in re.finditer(r"\b" + ALLOW_MARK + r"\s*\(", sf.masked):
        if sf.on_directive(m.start()):
            continue
        line = sf.line_of(m.start())
        raw = sf.text[m.start():]
        # The rationale may be a concatenation of adjacent string
        # literals (the usual way to wrap a long one).
        arg = re.match(
            ALLOW_MARK + r'\s*\(\s*((?:"(?:[^"\\]|\\.)*"\s*)+)\)', raw)
        rationale = ("".join(re.findall(r'"((?:[^"\\]|\\.)*)"',
                                        arg.group(1))) if arg else "")
        if not rationale.strip():
            findings.append(Finding(
                "hot-alloc", "empty-rationale", sf.path, line,
                f"{ALLOW_MARK} requires a non-empty string-literal "
                "rationale"))
            continue
        # Marker statement ends at the first ';' after the macro; the
        # excused statement ends at the one after that.
        own_semi = sf.masked.find(";", m.end())
        if own_semi == -1:
            continue
        next_semi = sf.masked.find(";", own_semi + 1)
        if next_semi == -1:
            next_semi = len(sf.masked) - 1
        spans.append(AllowSpan(m.start(), line, own_semi + 1, next_semi,
                               rationale))
    return spans, findings


def body_findings_text(sf: SourceFile, d: Definition, check: str,
                       patterns: list[tuple[str, re.Pattern[str], str]],
                       allows: list[AllowSpan]) -> list[Finding]:
    findings: list[Finding] = []
    body = sf.masked[d.body_start:d.body_end]
    for code, rx, what in patterns:
        for m in rx.finditer(body):
            off = d.body_start + m.start()
            if sf.on_directive(off):
                continue
            excused = False
            if check == "hot-alloc":
                for a in allows:
                    if a.span_start <= off <= a.span_end:
                        a.used = True
                        excused = True
                        break
            if excused:
                continue
            token = m.group(m.lastindex) if m.lastindex else m.group(0)
            findings.append(Finding(
                check, code, sf.path, sf.line_of(off),
                f"{what} `{token.strip()}` in {d.marker} function "
                f"`{d.name}`"))
    return findings


HOT_PATTERNS = [
    ("banned-new", re.compile(r"\bnew\b"), "allocation"),
    ("banned-call",
     re.compile(r"\b(" + "|".join(sorted(ALLOC_FUNCS)) + r")\s*[(<]"),
     "allocating call"),
    ("banned-call",
     re.compile(r"(?:\.|->)\s*(" + "|".join(sorted(ALLOC_METHODS)) +
                r")\s*\("),
     "allocating container call"),
]

REACTOR_PATTERNS = [
    ("blocking-call",
     re.compile(r"(?:\.|->)\s*(" + "|".join(sorted(BLOCKING_METHODS)) +
                r")\s*\("),
     "blocking wait"),
    ("blocking-call",
     re.compile(r"\b(" + "|".join(sorted(BLOCKING_FUNCS)) + r")\s*\("),
     "blocking call"),
    ("blocking-call", re.compile(r"\b([io]?fstream)\b"),
     "blocking file stream"),
    ("engine-call",
     re.compile(r"(?:\.|->)\s*(" + "|".join(sorted(ENGINE_METHODS)) +
                r")\s*\("),
     "direct engine call"),
]


def check_hot_alloc(files: list[SourceFile]) -> list[Finding]:
    findings: list[Finding] = []
    for sf in files:
        if HOT_MARK not in sf.masked and ALLOW_MARK not in sf.masked:
            continue
        allows, bad_allows = find_allow_spans(sf)
        findings.extend(bad_allows)
        for d in find_marked_definitions(sf, HOT_MARK):
            if d.body_start < 0:
                continue
            findings.extend(
                body_findings_text(sf, d, "hot-alloc", HOT_PATTERNS, allows))
        for a in allows:
            if not a.used:
                findings.append(Finding(
                    "hot-alloc", "unused-allow", sf.path, a.line,
                    f"{ALLOW_MARK} excuses no flagged allocation "
                    "(stale escape hatch?)"))
    return findings


def check_reactor(files: list[SourceFile]) -> list[Finding]:
    findings: list[Finding] = []
    for sf in files:
        if REACTOR_MARK not in sf.masked:
            continue
        for d in find_marked_definitions(sf, REACTOR_MARK):
            if d.body_start < 0:
                continue
            findings.extend(
                body_findings_text(sf, d, "reactor-blocking",
                                   REACTOR_PATTERNS, []))
    return findings


# ---- failpoint coverage audit ------------------------------------------

REGISTRY_RX = re.compile(
    r"inline constexpr std::string_view\s+(k\w+)\s*=\s*\"([^\"]+)\"", re.S)
SITE_CONST_RX = re.compile(r"failpoint\s*\(\s*(?:\w+::)*failpoints::(k\w+)")
SITE_LITERAL_RX = re.compile(r"\bfailpoint\s*\(\s*\"([^\"]+)\"")
ARM_STRING_RX = re.compile(r"arm_from_string\s*\(\s*\"([^\"=]+)=", re.S)
ARM_CONST_RX = re.compile(r"\barm\s*\(\s*(?:\w+::)*failpoints::(k\w+)", re.S)
ARM_LITERAL_RX = re.compile(r"\barm\s*\(\s*\"([^\"]+)\"", re.S)


def check_failpoints(root: str) -> list[Finding]:
    findings: list[Finding] = []
    reg_path = os.path.join(root, "src", "common", "failpoint.hpp")
    if not os.path.isfile(reg_path):
        return [Finding("failpoint-coverage", "no-registry",
                        "src/common/failpoint.hpp", 1,
                        "failpoint registry header not found")]
    reg_text = read_text(reg_path)
    reg_lines = {}
    const_to_name = {}
    for m in REGISTRY_RX.finditer(reg_text):
        const_to_name[m.group(1)] = m.group(2)
        reg_lines[m.group(2)] = reg_text.count("\n", 0, m.start()) + 1
    registered = set(const_to_name.values())

    sites: set[str] = set()
    for path in iter_sources(os.path.join(root, "src")):
        if path.endswith(os.path.join("common", "failpoint.hpp")):
            continue
        text = read_text(path)
        rel = os.path.relpath(path, root)
        for m in SITE_CONST_RX.finditer(text):
            name = const_to_name.get(m.group(1))
            if name is None:
                findings.append(Finding(
                    "failpoint-coverage", "unregistered-site", rel,
                    text.count("\n", 0, m.start()) + 1,
                    f"failpoint constant `{m.group(1)}` is not declared "
                    "in the registry"))
            else:
                sites.add(name)
        for m in SITE_LITERAL_RX.finditer(text):
            name = m.group(1)
            if name not in registered:
                findings.append(Finding(
                    "failpoint-coverage", "unregistered-site", rel,
                    text.count("\n", 0, m.start()) + 1,
                    f"failpoint literal \"{name}\" is not declared in "
                    "the registry — add a failpoints:: constant"))
            else:
                sites.add(name)

    armed: set[str] = set()
    tests_root = os.path.join(root, "tests")
    for path in iter_sources(tests_root):
        text = read_text(path)
        for m in ARM_STRING_RX.finditer(text):
            armed.add(m.group(1))
        for m in ARM_CONST_RX.finditer(text):
            name = const_to_name.get(m.group(1))
            if name:
                armed.add(name)
        for m in ARM_LITERAL_RX.finditer(text):
            armed.add(m.group(1))

    for name in sorted(registered):
        line = reg_lines.get(name, 1)
        if name not in sites:
            findings.append(Finding(
                "failpoint-coverage", "unused-registration",
                "src/common/failpoint.hpp", line,
                f"registered failpoint \"{name}\" has no "
                "common::failpoint() call site"))
        if name not in armed:
            findings.append(Finding(
                "failpoint-coverage", "unarmed",
                "src/common/failpoint.hpp", line,
                f"registered failpoint \"{name}\" is never armed by any "
                "test — add a chaos/unit test that arms it"))
    return findings


# ---- lock-order extraction ---------------------------------------------

MUTEX_DECL_RX = re.compile(r"\bMutex\s+(\w+)\s*(?=;|DML_ACQUIRED_)")
EDGE_RX = re.compile(
    r"\bMutex\s+(\w+)\s+DML_ACQUIRED_(BEFORE|AFTER)\s*\(([^)]*)\)")
LOCK_RX = re.compile(r"\bMutexLock\s+\w+\s*[({]([^;{}]*?)[)}]\s*;")


def lock_name(expr: str) -> str:
    m = re.search(r"(\w+)\s*$", expr.strip())
    return m.group(1) if m else expr.strip()


def check_lock_order(files: list[SourceFile]) -> list[Finding]:
    findings: list[Finding] = []
    decl_count: dict[str, int] = {}
    declared: dict[tuple[str, str], tuple[str, int]] = {}
    observed: dict[tuple[str, str], tuple[str, int]] = {}

    for sf in files:
        for m in MUTEX_DECL_RX.finditer(sf.masked):
            if sf.on_directive(m.start()):
                continue
            decl_count[m.group(1)] = decl_count.get(m.group(1), 0) + 1
        # Edges come from the raw text: the macro's string args are
        # blanked in the masked view.
        for m in EDGE_RX.finditer(sf.text):
            this = m.group(1)
            others = re.findall(r'"([^"]+)"', m.group(3))
            where = (sf.path, sf.text.count("\n", 0, m.start()) + 1)
            if not others:
                findings.append(Finding(
                    "lock-order", "empty-edge", sf.path, where[1],
                    f"DML_ACQUIRED_{m.group(2)} on `{this}` lists no "
                    "lock names"))
            for other in others:
                edge = ((this, other) if m.group(2) == "BEFORE"
                        else (other, this))
                declared.setdefault(edge, where)
        # Observed nestings: a MutexLock whose scope is still open when
        # a second MutexLock is constructed.
        locks = []
        for m in LOCK_RX.finditer(sf.masked):
            if sf.on_directive(m.start()):
                continue
            # The ctor argument is blanked in masked text; recover it
            # from the same offsets in the raw text.
            raw = sf.text[m.start(1):m.end(1)]
            d = sf.depth[m.start()]
            end = m.end()
            while end < len(sf.masked) and sf.depth[end] >= d:
                end += 1
            locks.append((m.start(), end, lock_name(raw)))
        for i, (s1, e1, n1) in enumerate(locks):
            for s2, _e2, n2 in locks[i + 1:]:
                if s2 >= e1:
                    break
                if n1 == n2:
                    continue
                observed.setdefault(
                    (n1, n2), (sf.path, sf.line_of(s2)))

    participants = ({n for e in declared for n in e} |
                    {n for e in observed for n in e})
    for name in sorted(participants):
        if decl_count.get(name, 0) > 1:
            findings.append(Finding(
                "lock-order", "ambiguous-lock", "<tree>", 1,
                f"lock name `{name}` participates in the order graph "
                f"but {decl_count[name]} Mutex members share that name "
                "— rename for a unique canonical identity"))

    # Every observed nesting needs a declared path outer -> inner.
    adj: dict[str, set[str]] = {}
    for a, b in declared:
        adj.setdefault(a, set()).add(b)

    def reachable(a: str, b: str) -> bool:
        seen, stack = set(), [a]
        while stack:
            n = stack.pop()
            if n == b:
                return True
            if n in seen:
                continue
            seen.add(n)
            stack.extend(adj.get(n, ()))
        return False

    for (outer, inner), (path, line) in sorted(observed.items()):
        if not reachable(outer, inner):
            findings.append(Finding(
                "lock-order", "undeclared-nesting", path, line,
                f"`{inner}` is acquired while `{outer}` is held, but no "
                f"DML_ACQUIRED_BEFORE path declares {outer} -> {inner}"))

    # The combined graph (declared + observed) must be acyclic.
    combined: dict[str, set[str]] = {}
    edge_at: dict[tuple[str, str], tuple[str, int]] = {}
    for e, where in list(declared.items()) + list(observed.items()):
        combined.setdefault(e[0], set()).add(e[1])
        edge_at.setdefault(e, where)
    color: dict[str, int] = {}

    def dfs(n: str, trail: list[str]) -> list[str] | None:
        color[n] = 1
        trail.append(n)
        for nxt in sorted(combined.get(n, ())):
            if color.get(nxt, 0) == 1:
                return trail[trail.index(nxt):] + [nxt]
            if color.get(nxt, 0) == 0:
                cycle = dfs(nxt, trail)
                if cycle:
                    return cycle
        trail.pop()
        color[n] = 2
        return None

    for n in sorted(combined):
        if color.get(n, 0) == 0:
            cycle = dfs(n, [])
            if cycle:
                where = edge_at.get((cycle[0], cycle[1]), ("<tree>", 1))
                findings.append(Finding(
                    "lock-order", "cycle", where[0], where[1],
                    "lock-order cycle: " + " -> ".join(cycle)))
                break
    return findings


# ---- AST engine ---------------------------------------------------------


class AstEngine:
    """libclang-backed engine for the two body-local checks.  The
    failpoint audit and lock-order extraction are cross-file name
    analyses the AST adds nothing to; they always run lexically."""

    def __init__(self) -> None:
        self.why = ""
        self.cindex = None
        try:
            from clang import cindex  # type: ignore
        except ImportError as e:
            self.why = f"python clang bindings unavailable ({e})"
            return
        try:
            index = cindex.Index.create()
        except Exception as e:  # library load failure
            for name in ("libclang.so", "libclang-14.so",
                         "libclang.so.1", "libclang-15.so"):
                try:
                    cindex.Config.loaded = False
                    cindex.Config.set_library_file(name)
                    index = cindex.Index.create()
                    break
                except Exception:
                    index = None
            if index is None:
                self.why = f"libclang not loadable ({e})"
                return
        self.cindex = cindex
        self.index = index

    @property
    def available(self) -> bool:
        return self.cindex is not None

    def _marked(self, cursor) -> str | None:
        for child in cursor.get_children():
            if child.kind == self.cindex.CursorKind.ANNOTATE_ATTR:
                if child.spelling == "dml::hot":
                    return HOT_MARK
                if child.spelling == "dml::reactor_context":
                    return REACTOR_MARK
        return None

    def scan_tu(self, tu, rel_of, checks: set[str],
                allow_spans: dict[str, list[AllowSpan]]) -> list[Finding]:
        ck = self.cindex.CursorKind
        findings: list[Finding] = []

        def visit_body(node, marker: str, fn_name: str) -> None:
            for child in node.walk_preorder():
                loc = child.location
                if loc.file is None:
                    continue
                rel = rel_of(loc.file.name)
                if rel is None:
                    continue
                if marker == HOT_MARK and "hot-alloc" in checks:
                    hit = None
                    if child.kind == ck.CXX_NEW_EXPR:
                        hit = ("banned-new", "allocation", "new")
                    elif child.kind == ck.CALL_EXPR:
                        name = child.spelling or ""
                        if name in ALLOC_FUNCS:
                            hit = ("banned-call", "allocating call", name)
                        elif name in ALLOC_METHODS:
                            hit = ("banned-call",
                                   "allocating container call", name)
                    if hit:
                        excused = False
                        for a in allow_spans.get(rel, ()):  # offsets
                            if a.span_start <= loc.offset <= a.span_end:
                                a.used = True
                                excused = True
                                break
                        if not excused:
                            findings.append(Finding(
                                "hot-alloc", hit[0], rel, loc.line,
                                f"{hit[1]} `{hit[2]}` in {marker} "
                                f"function `{fn_name}`"))
                if marker == REACTOR_MARK and "reactor-blocking" in checks:
                    if child.kind == ck.CALL_EXPR:
                        name = child.spelling or ""
                        code = None
                        if name in BLOCKING_METHODS or name in BLOCKING_FUNCS:
                            code = ("blocking-call", "blocking call")
                        elif name in ENGINE_METHODS:
                            code = ("engine-call", "direct engine call")
                        if code:
                            findings.append(Finding(
                                "reactor-blocking", code[0], rel, loc.line,
                                f"{code[1]} `{name}` in {marker} "
                                f"function `{fn_name}`"))

        for cursor in tu.cursor.walk_preorder():
            if cursor.kind not in (ck.FUNCTION_DECL, ck.CXX_METHOD,
                                   ck.FUNCTION_TEMPLATE):
                continue
            if not cursor.is_definition():
                continue
            if cursor.location.file is None:
                continue
            if rel_of(cursor.location.file.name) is None:
                continue
            marker = self._marked(cursor)
            if marker:
                visit_body(cursor, marker, cursor.spelling)
        return findings

    def run_repo(self, root: str, checks: set[str]) -> list[Finding]:
        cc_path = os.path.join(root, "build", "compile_commands.json")
        if not os.path.isfile(cc_path):
            cc_path = os.path.join(root, "compile_commands.json")
        entries = []
        if os.path.isfile(cc_path):
            with open(cc_path, encoding="utf-8") as f:
                entries = json.load(f)

        def rel_of(path: str) -> str | None:
            ap = os.path.realpath(path)
            rp = os.path.realpath(root)
            if not ap.startswith(rp + os.sep):
                return None
            rel = os.path.relpath(ap, rp)
            return rel if rel.startswith("src" + os.sep) else None

        allow_spans: dict[str, list[AllowSpan]] = {}
        for path in iter_sources(os.path.join(root, "src")):
            sf = SourceFile(os.path.relpath(path, root), read_text(path))
            spans, _ = find_allow_spans(sf)
            if spans:
                allow_spans[sf.path] = spans

        findings: dict[str, Finding] = {}
        for entry in entries:
            src = os.path.join(entry["directory"], entry["file"])
            if rel_of(src) is None:
                continue
            text = read_text(src)
            if HOT_MARK not in text and REACTOR_MARK not in text:
                # Headers with markers are still reached through the
                # TUs that include them; skipping unmarked TUs whose
                # includes are also unmarked would need a full include
                # scan, so only skip when no project header is marked
                # at all — cheap approximation: never skip.
                pass
            args = [a for a in split_args(entry) if not skip_arg(a)]
            try:
                tu = self.index.parse(src, args=args + ["-Wno-everything"])
            except Exception:
                continue
            for f in self.scan_tu(tu, rel_of, checks, allow_spans):
                findings.setdefault(f.key(), f)
        return list(findings.values())

    def run_files(self, paths: list[str], base: str,
                  checks: set[str]) -> list[Finding]:
        """Fixture mode: parse standalone files with default flags."""

        def make_rel(path):
            def rel_of(name: str) -> str | None:
                if os.path.realpath(name) == os.path.realpath(path):
                    return os.path.relpath(path, base)
                return None
            return rel_of

        findings: list[Finding] = []
        for path in paths:
            sf = SourceFile(os.path.relpath(path, base), read_text(path))
            spans, bad = find_allow_spans(sf)
            findings.extend(bad)
            try:
                tu = self.index.parse(
                    path, args=["-std=c++20", "-xc++", "-Wno-everything"])
            except Exception:
                continue
            findings.extend(self.scan_tu(tu, make_rel(path), checks,
                                         {sf.path: spans}))
            for a in spans:
                if not a.used:
                    findings.append(Finding(
                        "hot-alloc", "unused-allow", sf.path, a.line,
                        f"{ALLOW_MARK} excuses no flagged allocation "
                        "(stale escape hatch?)"))
        return findings


def split_args(entry: dict) -> list[str]:
    if "arguments" in entry:
        return list(entry["arguments"])[1:-1]
    import shlex
    parts = shlex.split(entry.get("command", ""))
    return parts[1:]


def skip_arg(a: str) -> bool:
    # GCC-only flags libclang chokes on, plus the output/source args.
    return (a.startswith(("-o", "-c")) or a.endswith((".cpp", ".o")) or
            a.startswith("-fconcepts") or a == "-fcoroutines")


# ---- drivers ------------------------------------------------------------


def read_text(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as f:
        return f.read()


def iter_sources(root: str):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames
                       if d not in (".git", "build", "fixtures")]
        for name in sorted(filenames):
            if name.endswith(SRC_EXTS):
                yield os.path.join(dirpath, name)


def load_files(root: str, subdir: str = "src") -> list[SourceFile]:
    files = []
    for path in iter_sources(os.path.join(root, subdir)):
        files.append(SourceFile(os.path.relpath(path, root),
                                read_text(path)))
    return files


def run_text_engine(root: str, checks: set[str]) -> list[Finding]:
    files = load_files(root)
    findings: list[Finding] = []
    if "hot-alloc" in checks:
        findings.extend(check_hot_alloc(files))
    if "reactor-blocking" in checks:
        findings.extend(check_reactor(files))
    if "failpoint-coverage" in checks:
        findings.extend(check_failpoints(root))
    if "lock-order" in checks:
        findings.extend(check_lock_order(files))
    return findings


def inventory(root: str) -> list[tuple[str, str, str, int]]:
    rows = []
    for sf in load_files(root):
        for marker in (HOT_MARK, REACTOR_MARK):
            for d in find_marked_definitions(sf, marker):
                kind = "definition" if d.body_start >= 0 else "declaration"
                rows.append((marker, d.name, f"{sf.path}:"
                             f"{sf.line_of(d.decl_offset)}", kind))
    return sorted(rows)


# ---- fixture self-tests -------------------------------------------------


def parse_expected(path: str) -> set[str]:
    expected = set()
    for line in read_text(path).splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            expected.add(line)
    return expected


def self_test(fixtures_root: str, engines: list[str],
              ast: AstEngine | None) -> int:
    failures = 0
    cases = 0

    def run_case(name: str, got: list[Finding], expected: set[str]) -> None:
        nonlocal failures, cases
        cases += 1
        got_keys = {f.key() for f in got}
        if got_keys != expected:
            failures += 1
            print(f"FAIL {name}")
            for k in sorted(expected - got_keys):
                print(f"  missing:    {k}")
            for k in sorted(got_keys - expected):
                print(f"  unexpected: {k}")
        else:
            print(f"ok   {name} ({len(expected)} diagnostics)")

    for check_dir in sorted(os.listdir(fixtures_root)):
        cdir = os.path.join(fixtures_root, check_dir)
        if not os.path.isdir(cdir):
            continue
        if check_dir in ("failpoint_coverage", "lock_order"):
            # Mini-tree fixtures: firing/ and clean/ are scan roots.
            check = check_dir.replace("_", "-")
            for variant in ("firing", "clean"):
                vroot = os.path.join(cdir, variant)
                if not os.path.isdir(vroot):
                    continue
                if check == "failpoint-coverage":
                    got = check_failpoints(vroot)
                else:
                    got = check_lock_order(load_files(vroot))
                exp_path = os.path.join(cdir, f"expected_{variant}.txt")
                expected = (parse_expected(exp_path)
                            if os.path.isfile(exp_path) else set())
                run_case(f"text:{check_dir}/{variant}", got, expected)
        else:
            # Single-file fixtures scanned per engine.
            check = check_dir.replace("_", "-")
            for variant in ("firing", "clean"):
                fpath = os.path.join(cdir, f"{variant}.cpp")
                if not os.path.isfile(fpath):
                    continue
                exp_path = os.path.join(cdir, f"expected_{variant}.txt")
                expected = (parse_expected(exp_path)
                            if os.path.isfile(exp_path) else set())
                for engine in engines:
                    if engine == "text":
                        sf = SourceFile(f"{variant}.cpp", read_text(fpath))
                        if check == "hot-alloc":
                            got = check_hot_alloc([sf])
                        else:
                            got = check_reactor([sf])
                    else:
                        got = [f for f in ast.run_files([fpath], cdir,
                                                        {check})
                               if f.check == check]
                    run_case(f"{engine}:{check_dir}/{variant}", got,
                             expected)

    print(f"self-test: {cases - failures}/{cases} fixture cases passed")
    return 1 if failures else 0


# ---- main ---------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(
        prog="dml_lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels above this "
                             "script)")
    parser.add_argument("--engine", choices=("auto", "text", "ast"),
                        default="auto")
    parser.add_argument("--checks", default=",".join(ALL_CHECKS),
                        help="comma-separated subset of: " +
                             ", ".join(ALL_CHECKS))
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write findings as machine-readable JSON")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture suite instead of the repo "
                             "scan")
    parser.add_argument("--inventory", action="store_true",
                        help="print the DML_HOT / DML_REACTOR_CONTEXT "
                             "annotation inventory and exit")
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.abspath(args.root or os.path.join(here, "..", ".."))
    checks = {c.strip() for c in args.checks.split(",") if c.strip()}
    unknown = checks - set(ALL_CHECKS)
    if unknown:
        print(f"dml_lint: unknown checks: {', '.join(sorted(unknown))}",
              file=sys.stderr)
        return 2

    ast = AstEngine() if args.engine in ("auto", "ast") else None
    if args.engine == "ast" and (ast is None or not ast.available):
        print(f"dml_lint: AST engine unavailable: {ast.why}; "
              "skipping (exit 77)", file=sys.stderr)
        return 77

    if args.inventory:
        for marker, name, where, kind in inventory(root):
            print(f"{marker:20s} {name:40s} {where} ({kind})")
        return 0

    if args.self_test:
        engines = ["text"]
        if ast is not None and ast.available:
            engines.append("ast")
        elif args.engine == "ast":
            engines = ["ast"]
        return self_test(os.path.join(here, "fixtures"), engines, ast)

    findings = run_text_engine(root, checks)
    engine_used = "text"
    if ast is not None and ast.available:
        engine_used = "text+ast"
        body_checks = checks & {"hot-alloc", "reactor-blocking"}
        if body_checks:
            seen = {f.key() for f in findings}
            for f in ast.run_repo(root, body_checks):
                if f.key() not in seen:
                    findings.append(f)

    findings.sort(key=lambda f: (f.path, f.line, f.code))
    for f in findings:
        print(f.render())

    if args.json:
        payload = {
            "tool": "dml_lint",
            "engine": engine_used,
            "checks": sorted(checks),
            "findings": [f.__dict__ for f in findings],
            "summary": {c: sum(1 for f in findings if f.check == c)
                        for c in sorted(checks)},
        }
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")

    if findings:
        print(f"dml_lint: {len(findings)} finding(s) "
              f"[engine={engine_used}]", file=sys.stderr)
        return 1
    print(f"dml_lint: clean [engine={engine_used}, "
          f"checks={','.join(sorted(checks))}]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
