#!/usr/bin/env python3
"""Determinism/invariant linter for the rowpress tree.

The repo's load-bearing guarantee is that every result artifact is a
pure function of (experiment, resolved config, seed) — bit-identical
at any thread count.  These rules mechanically enforce the coding
conventions that guarantee rests on, plus two registry<->docs
consistency invariants.  Findings print as

    rule-id file:line message

and the process exits nonzero when there are any.

Rules
-----
D1  No wall-clock / ambient-randomness calls (rand, random,
    std::random_device, time(), gettimeofday,
    std::chrono::*_clock::now) outside the allowlist.  Seeded hashes
    (common/rng.h) are the only sanctioned randomness; wall-clock time
    is allowed only where it never reaches a result (deadline monitor,
    elapsed-ms metadata).
D2  No iteration over std::unordered_map/std::unordered_set in a file
    that emits datasets/artifacts (contains `.emit(` / `dataset(`):
    hash-order leaks straight into result rows.  Iterate a sorted
    container, or sort first.
D3  Every FaultInjector point string registered in
    src/core/fault.cc::knownPoints() appears in README.md's
    fault-point table (`| point | injects into |`), and vice versa.
D4  Every registered experiment id (REGISTER_EXPERIMENT /
    REGISTER_EXPERIMENT_OPTS / direct ExperimentRegistrar or
    registry.add with a dotted id) appears in README.md, the schema
    documentation of `rowpress list --format json`.
D5  No `volatile sig_atomic_t` for cross-thread flags: signal
    handlers shared with threads need lock-free std::atomic (volatile
    sig_atomic_t is only async-signal-safe, not thread-safe).
D6  No raw std::mutex / std::lock_guard / std::unique_lock /
    std::scoped_lock / std::condition_variable outside src/core/:
    mutex-guarded state must use core::Mutex + RP_GUARDED_BY (and
    core::LockGuard / core::UniqueLock / core::CondVar) so Clang's
    Thread Safety Analysis — which CI compiles with -Werror — can see
    every acquisition.  A raw std::mutex is invisible to the analysis
    and silently exempts its critical sections.  src/core/ is exempt:
    that is where the annotated wrappers themselves live.

Escape hatch: a line ending in `// lint:allow DN <reason>` suppresses
rule DN for that line (D1/D2/D5/D6).  Use sparingly; the reason is
mandatory and reviewed.
"""

import argparse
import os
import re
import sys

# Directories scanned for per-line rules, relative to the root.
SCAN_DIRS = ("src", "bench", "examples")
SOURCE_EXT = (".cc", ".h")

# D1 file-level allowlist: path (relative to root) -> why wall-clock
# use is sound there.  Keep this list short and justified.
D1_ALLOWLIST = {
    "src/api/service.cc":
        "job deadlines, elapsed-ms metadata: wall clock feeds "
        "scheduling and status only, never result rows",
}

D1_PATTERNS = [
    (re.compile(r"(?<![A-Za-z0-9_:])rand\s*\("), "rand()"),
    (re.compile(r"(?<![A-Za-z0-9_:])random\s*\("), "random()"),
    (re.compile(r"std\s*::\s*random_device"), "std::random_device"),
    (re.compile(r"(?<![A-Za-z0-9_:])time\s*\(\s*(NULL|nullptr|0)?\s*\)"),
     "time()"),
    (re.compile(r"(?<![A-Za-z0-9_])gettimeofday"), "gettimeofday()"),
    (re.compile(
        r"(steady_clock|system_clock|high_resolution_clock)\s*::\s*now"),
     "std::chrono::*_clock::now()"),
]

ALLOW_RE = re.compile(r"//\s*lint:allow\s+(D\d)\b")

UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set)\s*<[^;]*>\s*&?\s*(\w+)\s*[;({=]")
RANGE_FOR_RE = re.compile(r"for\s*\(.*?:\s*\*?&?([A-Za-z_]\w*)")
EMITTER_RE = re.compile(r"\.emit\w*\(|[^a-zA-Z_]dataset\(")

D5_RE = re.compile(r"volatile\s+(std\s*::\s*)?sig_atomic_t")

D6_RE = re.compile(
    r"std\s*::\s*(mutex|timed_mutex|recursive_mutex|"
    r"recursive_timed_mutex|shared_mutex|shared_timed_mutex|"
    r"lock_guard|unique_lock|scoped_lock|condition_variable|"
    r"condition_variable_any)\b")

# D6 exemption: the annotated wrappers themselves wrap std types.
D6_EXEMPT_PREFIX = os.path.join("src", "core") + os.sep


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return f"{self.rule} {self.path}:{self.line} {self.message}"


def iter_sources(root):
    for scan_dir in SCAN_DIRS:
        base = os.path.join(root, scan_dir)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXT):
                    path = os.path.join(dirpath, name)
                    yield os.path.relpath(path, root)


def read_lines(root, rel):
    with open(os.path.join(root, rel), encoding="utf-8",
              errors="replace") as f:
        return f.read().splitlines()


def allowed(line, rule):
    m = ALLOW_RE.search(line)
    return bool(m and m.group(1) == rule)


def code_of(line):
    """The line with comment text removed: prose about a forbidden
    construct (e.g. a comment explaining why volatile sig_atomic_t is
    wrong) must not trip the rule for it.  Handles // tails and the
    repo's block-comment style, where continuation lines start with
    `*` (a full multi-line lexer is overkill for a style this code
    base actually follows)."""
    stripped = line.lstrip()
    if stripped.startswith(("*", "/*")):
        return ""
    return line.split("//", 1)[0]


def check_d1(root, rel, lines, findings):
    if rel in D1_ALLOWLIST:
        return
    for i, line in enumerate(lines, 1):
        if allowed(line, "D1"):
            continue
        for pattern, what in D1_PATTERNS:
            if pattern.search(code_of(line)):
                findings.append(Finding(
                    "D1", rel, i,
                    f"{what} in a result-path file: results must be "
                    f"pure in (config, seed); use seeded hashes "
                    f"(common/rng.h) or add the file to the D1 "
                    f"allowlist with a justification"))


def check_d2(root, rel, lines, findings):
    text = "\n".join(lines)
    if not EMITTER_RE.search(text):
        return
    unordered_vars = set()
    for line in lines:
        m = UNORDERED_DECL_RE.search(line)
        if m:
            unordered_vars.add(m.group(1))
    for i, line in enumerate(lines, 1):
        if allowed(line, "D2"):
            continue
        code = code_of(line)
        m = RANGE_FOR_RE.search(code)
        if not m:
            continue
        direct = "unordered_map" in code or "unordered_set" in code
        if direct or m.group(1) in unordered_vars:
            findings.append(Finding(
                "D2", rel, i,
                "iteration over an unordered container in a "
                "dataset-emitting file: hash order leaks into "
                "artifacts; iterate a sorted container or sort the "
                "keys first"))


def fault_points_in_code(root):
    """Point strings of knownPoints() in src/core/fault.cc."""
    rel = os.path.join("src", "core", "fault.cc")
    path = os.path.join(root, rel)
    if not os.path.exists(path):
        return None, rel
    points = {}
    in_block = False
    for i, line in enumerate(read_lines(root, rel), 1):
        if "knownPoints" in line and points:
            break
        if re.search(r"points\s*=\s*\{", line):
            in_block = True
            continue
        if in_block:
            if re.search(r"\}\s*;", line):
                break
            m = re.search(r'"([^"]+)"', line)
            if m:
                points[m.group(1)] = i
    return points, rel


def fault_points_in_readme(root):
    """Point strings of README.md's `| point | injects into |` table."""
    rel = "README.md"
    path = os.path.join(root, rel)
    if not os.path.exists(path):
        return None, rel
    lines = read_lines(root, rel)
    points = {}
    in_table = False
    for i, line in enumerate(lines, 1):
        stripped = line.strip()
        if re.match(r"\|\s*point\s*\|\s*injects into\s*\|", stripped):
            in_table = True
            continue
        if in_table:
            if not stripped.startswith("|"):
                break
            m = re.search(r"\|\s*`([^`]+)`", stripped)
            if m:
                points[m.group(1)] = i
    return points, rel


def check_d3(root, findings):
    code, code_rel = fault_points_in_code(root)
    docs, docs_rel = fault_points_in_readme(root)
    if code is None or docs is None:
        return  # nothing to cross-check in this tree
    for point, line in sorted(code.items()):
        if point not in docs:
            findings.append(Finding(
                "D3", code_rel, line,
                f"fault point '{point}' is registered in code but "
                f"missing from README.md's fault-point table"))
    for point, line in sorted(docs.items()):
        if point not in code:
            findings.append(Finding(
                "D3", docs_rel, line,
                f"fault point '{point}' is documented in README.md "
                f"but not registered in knownPoints()"))


EXPERIMENT_ID_RES = [
    # REGISTER_EXPERIMENT(id, ...) / REGISTER_EXPERIMENT_OPTS(id, ...)
    re.compile(r"REGISTER_EXPERIMENT(?:_OPTS)?\(\s*([A-Za-z_]\w*)"),
    # const api::ExperimentRegistrar reg(...{"dotted.id", ...
    re.compile(r"ExperimentRegistrar\s+\w+\(\s*\{\s*\"([^\"]+)\""),
    # registry.add({{"dotted.id", ...
    re.compile(r"\.add\(\s*\{\s*\{\s*\"([^\"]+)\""),
]


def check_d4(root, findings):
    readme_path = os.path.join(root, "README.md")
    if not os.path.exists(readme_path):
        return
    with open(readme_path, encoding="utf-8", errors="replace") as f:
        readme = f.read()
    for rel in iter_sources(root):
        lines = read_lines(root, rel)
        text = "\n".join(lines)
        for pattern in EXPERIMENT_ID_RES:
            for m in pattern.finditer(text):
                exp_id = m.group(1)
                line = text[:m.start()].count("\n") + 1
                # The macro definitions themselves, not registrations.
                if lines[line - 1].lstrip().startswith("#define"):
                    continue
                if exp_id in readme:
                    continue
                findings.append(Finding(
                    "D4", rel, line,
                    f"experiment id '{exp_id}' is registered but not "
                    f"documented in README.md (the `rowpress list "
                    f"--format json` schema docs)"))


def check_d5(root, rel, lines, findings):
    for i, line in enumerate(lines, 1):
        if allowed(line, "D5"):
            continue
        if D5_RE.search(code_of(line)):
            findings.append(Finding(
                "D5", rel, i,
                "volatile sig_atomic_t is not thread-safe (only "
                "async-signal-safe); use a lock-free std::atomic for "
                "flags shared between a signal handler and threads"))


def check_d6(root, rel, lines, findings):
    if rel.startswith(D6_EXEMPT_PREFIX):
        return
    for i, line in enumerate(lines, 1):
        if allowed(line, "D6"):
            continue
        m = D6_RE.search(code_of(line))
        if m:
            findings.append(Finding(
                "D6", rel, i,
                f"raw std::{m.group(1)} outside src/core/: use the "
                f"annotated core::Mutex / core::LockGuard / "
                f"core::UniqueLock / core::CondVar "
                f"(core/thread_annotations.h) so Thread Safety "
                f"Analysis sees the acquisition"))


def lint(root):
    findings = []
    for rel in iter_sources(root):
        # The linter's own rule fixtures intentionally violate rules.
        if "fixtures" in rel.split(os.sep):
            continue
        lines = read_lines(root, rel)
        check_d1(root, rel, lines, findings)
        check_d2(root, rel, lines, findings)
        check_d5(root, rel, lines, findings)
        check_d6(root, rel, lines, findings)
    check_d3(root, findings)
    check_d4(root, findings)
    findings.sort(key=lambda f: (f.rule, f.path, f.line))
    return findings


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="rowpress determinism/invariant linter (D1-D6)")
    parser.add_argument(
        "--root", default=None,
        help="tree to lint (default: the repo containing this script)")
    args = parser.parse_args(argv)

    root = args.root
    if root is None:
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))

    findings = lint(root)
    for finding in findings:
        print(finding)
    if findings:
        print(f"lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
