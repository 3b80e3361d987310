#!/usr/bin/env python3
"""Protocol-invariant linter for the threev tree.

Checks invariants that neither the compiler nor the clang thread-safety
analysis can express, because they live above the type system:

  wire-symmetry      Every MsgType enumerator has a name-table arm in
                     message.cc, is constructed somewhere, and is handled
                     somewhere. Every WalRecordType enumerator has a
                     name-table arm in wal.cc, a replay arm in recovery.cc,
                     and a producer. An enumerator failing this is a message
                     or log record that silently vanishes on one side of the
                     wire - historically the worst class of protocol bug.

  lock-blocking      No direct blocking call (Send, fsync/fdatasync, sleeps,
                     condition waits) while a MutexLock on a protocol-layer
                     mutex is lexically in scope, in core/ storage/ lock/
                     verify/ baseline/. This is DESIGN.md's "no lock is
                     held across a Send" rule for the classes that keep
                     locks (the cluster, the history recorder, the
                     manual-versioning baseline), machine-checked. Lexical only: calls via helpers are
                     deliberately out of scope.

  version-arith      Version variables never take raw +1/+2/-1/-2 literals;
                     protocol code must use the ids.h helpers (NextVersion,
                     PrevVersion, MaxUpdateVersionFor, VersionGateOpen) so
                     each offset names the protocol fact it encodes.

  determinism        Simulation-driven code (core/ sim/ storage/ txn/ lock/
                     verify/ workload/ baseline/ fuzz/) takes time only from
                     Network::Now() and randomness only from seeded Rng:
                     ambient clocks and entropy there break SimNet replay
                     (and, for fuzz/, bit-reproducible seed schedules).

  capability         threev::Mutex (common/mutex.h) is the only lock type
                     in src/threev: raw std::mutex cannot carry a clang
                     capability, so using it anywhere else punches a hole in
                     the -Wthread-safety tier.

  analysis-optout    Every NO_THREAD_SAFETY_ANALYSIS carries an adjacent
                     `// SAFETY:` comment stating why the unsynchronized
                     access is sound (for example: the code runs before
                     the object is published to any other thread). An
                     undocumented opt-out is a silent hole in the
                     -Wthread-safety tier.

  metrics-observability
                     Every field of Metrics (atomic counter or Histogram)
                     has exactly one row in the instrument tables in
                     metrics.cc (kMetricsCounters, kMetricsHistograms).
                     Reset(), MergeFrom(), Report() and the Prometheus
                     exporter loop over those tables, so the row is the
                     one place a new field can be forgotten: a counter
                     that is bumped but never exported is invisible
                     exactly when someone needs it, and a shard merge
                     that skips it under-counts silently.

  message-fields     Every data member of struct Message (net/message.h) is
                     written by EncodeMessageTo, read back by DecodeMessage
                     (net/wire.cc), and read somewhere outside net/ through
                     a Message-typed variable. A field nothing outside the
                     transports reads is dead weight on every frame.

  node-send          In core/node.cc, network_->Send appears only inside
                     Node::Send, which commits the node's staged WAL frames
                     before a message leaves: log before externalize
                     (DESIGN.md section 9), enforced by structure.

  net-threads        Under net/, a std::thread is constructed only in
                     ThreadNet::Start (endpoint workers, timer) and
                     TcpNet::Start (accept), and no container of threads
                     is declared. An endpoint's worker reads its own
                     inbound sockets; a thread per connection must not
                     come back.

  node-owned         A node's and the advancement coordinator's state
                     belongs to the one thread that runs the endpoint's
                     handler (DESIGN.md section 6), so core/node.*,
                     core/coordinator.*, core/owner_thread.*,
                     core/counters.*, lock/ and storage/ name no lock:
                     no Mutex, SharedMutex, MutexLock, raw std::mutex
                     family, GUARDED_BY, REQUIRES or EXCLUDES. A lock
                     there would guard state no second thread may touch,
                     or hide one that does. Nor do they call
                     ScheduleAfter, whose callback runs on the transport's
                     timer thread: they arm owned timers (ScheduleTimer),
                     which run on the endpoint's own thread.

Usage:
  tools/threev_lint.py [--root REPO_ROOT]   lint the tree (exit 1 on findings)
  tools/threev_lint.py --self-test          run the seeded-violation tests
"""

import argparse
import os
import re
import sys

SRC_SUBDIR = os.path.join("src", "threev")

# ---------------------------------------------------------------------------
# Source model
# ---------------------------------------------------------------------------


def strip_comments_and_strings(text):
    """Replaces comment and string-literal contents with spaces, preserving
    offsets and newlines so line numbers survive."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            seg = text[i : j + 2]
            out.append(re.sub(r"[^\n]", " ", seg))
            i = j + 2
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            seg = text[i : j + 1]
            out.append(quote + " " * max(0, len(seg) - 2) + quote)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


class SourceFile:
    def __init__(self, path, text):
        self.path = path
        self.text = text
        self.code = strip_comments_and_strings(text)

    def line_of(self, offset):
        return self.text.count("\n", 0, offset) + 1


def load_tree(root):
    files = []
    src_root = os.path.join(root, SRC_SUBDIR)
    for dirpath, _, names in os.walk(src_root):
        for name in sorted(names):
            if not name.endswith((".h", ".cc")):
                continue
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as f:
                files.append(SourceFile(os.path.relpath(path, root), f.read()))
    return files


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def by_path(files):
    return {f.path.replace(os.sep, "/"): f for f in files}


# ---------------------------------------------------------------------------
# Rule: wire symmetry
# ---------------------------------------------------------------------------


def parse_enum(code, enum_name):
    m = re.search(r"enum\s+class\s+" + enum_name + r"\b[^{]*\{(.*?)\};", code,
                  re.S)
    if m is None:
        return []
    names = re.findall(r"\b(k[A-Za-z0-9]+)\s*(?:=\s*\d+)?\s*,?", m.group(1))
    return names


def check_wire_symmetry(files):
    findings = []
    paths = by_path(files)

    def tree_code(exclude):
        return [
            f for f in files
            if f.path.replace(os.sep, "/") not in exclude and f.path.endswith(".cc")
        ]

    specs = [
        {
            "enum": "MsgType",
            "decl": "src/threev/net/message.h",
            "name_table": "src/threev/net/message.cc",
            "replay": None,
            # wire.cc is the generic field codec; message.cc the name table.
            "dispatch_exclude": {"src/threev/net/message.cc",
                                 "src/threev/net/wire.cc"},
        },
        {
            "enum": "WalRecordType",
            "decl": "src/threev/durability/wal.h",
            "name_table": "src/threev/durability/wal.cc",
            "replay": "src/threev/durability/recovery.cc",
            "dispatch_exclude": {"src/threev/durability/wal.cc",
                                 "src/threev/durability/recovery.cc"},
        },
    ]

    for spec in specs:
        decl = paths.get(spec["decl"])
        if decl is None:
            findings.append(Finding("wire-symmetry", spec["decl"], 1,
                                    "enum declaration file missing"))
            continue
        enumerators = parse_enum(decl.code, spec["enum"])
        if not enumerators:
            findings.append(Finding("wire-symmetry", spec["decl"], 1,
                                    f"could not parse enum {spec['enum']}"))
            continue
        name_table = paths.get(spec["name_table"])
        replay = paths.get(spec["replay"]) if spec["replay"] else None
        producers = tree_code(spec["dispatch_exclude"])
        for e in enumerators:
            qualified = f"{spec['enum']}::{e}"
            if name_table is None or \
                    f"case {qualified}" not in name_table.code:
                findings.append(Finding(
                    "wire-symmetry", spec["name_table"], 1,
                    f"{qualified} has no name-table arm (add a case to "
                    f"{spec['enum']}Name)"))
            if replay is not None and f"case {qualified}" not in replay.code:
                findings.append(Finding(
                    "wire-symmetry", spec["replay"], 1,
                    f"{qualified} has no replay arm: a logged record of this "
                    "type would be skipped during recovery"))
            # Producer: an assignment whose right-hand side mentions the
            # enumerator (covers `m.type = prepare ? kPrepare : kDecision`).
            produced = any(
                re.search(r"\.\s*type\s*=(?!=)[^;]*" + re.escape(qualified),
                          f.code)
                for f in producers)
            if not produced:
                findings.append(Finding(
                    "wire-symmetry", spec["decl"], 1,
                    f"{qualified} is never produced (no `.type = {qualified}` "
                    "outside its codec): dead enumerator or missing sender"))
            # Consumer: for WAL records the replay switch checked above IS
            # the consumer; for messages, require a dispatch arm or
            # comparison outside the codec.
            handled = any(
                re.search(r"(case\s+|[=!]=\s*)" + re.escape(qualified),
                          f.code)
                for f in producers)
            if spec["replay"] is None and not handled:
                findings.append(Finding(
                    "wire-symmetry", spec["decl"], 1,
                    f"{qualified} is never dispatched (no case/comparison "
                    "outside its codec): receivers would drop it"))
    return findings


# ---------------------------------------------------------------------------
# Rule: no blocking call under a protocol-layer lock
# ---------------------------------------------------------------------------

PROTOCOL_DIRS = ("core/", "storage/", "lock/", "verify/", "baseline/")

BLOCKING_PATTERNS = [
    (re.compile(r"[.>]\s*Send\s*\("), "network Send"),
    (re.compile(r"\bf(?:data)?sync\s*\("), "fsync"),
    (re.compile(r"\bsleep_for\s*\(|\bsleep_until\s*\(|\busleep\s*\("),
     "sleep"),
    (re.compile(r"\bcv_?\w*\s*\.\s*wait(?:_for|_until)?\s*\("),
     "condition wait"),
]

GUARD_RE = re.compile(
    r"\b(?:MutexLock|"
    r"std::lock_guard\s*<[^>]*>|std::unique_lock\s*<[^>]*>|"
    r"std::scoped_lock(?:\s*<[^>]*>)?)\s+\w+\s*[({]")


def in_protocol_dir(path):
    rel = path.replace(os.sep, "/")
    return any(("/" + d) in ("/" + rel) for d in
               (f"threev/{d}" for d in PROTOCOL_DIRS))


def check_lock_blocking(files):
    findings = []
    for f in files:
        if not in_protocol_dir(f.path):
            continue
        code = f.code
        guard_starts = [m.start() for m in GUARD_RE.finditer(code)]
        # For each guard, its scope is the enclosing brace block: scan
        # forward until depth drops below the depth at declaration.
        guard_spans = []
        for start in guard_starts:
            depth = 0
            end = len(code)
            i = start
            while i < len(code):
                c = code[i]
                if c == "{":
                    depth += 1
                elif c == "}":
                    depth -= 1
                    if depth < 0:
                        end = i
                        break
                i += 1
            guard_spans.append((start, end))
        for pattern, label in BLOCKING_PATTERNS:
            for m in pattern.finditer(code):
                for start, end in guard_spans:
                    if start < m.start() < end:
                        findings.append(Finding(
                            "lock-blocking", f.path, f.line_of(m.start()),
                            f"{label} while a lock guard is in scope; "
                            "release the lock (scope block) before blocking"))
                        break
    return findings


# ---------------------------------------------------------------------------
# Rule: version arithmetic hygiene
# ---------------------------------------------------------------------------

VERSION_ARITH_RE = re.compile(
    r"\b(?:\w+(?:\.|->))*"
    r"((?:new_|old_|check_)?(?:vu|vr|version|period|readable)\w*)"
    r"\s*(\+|-|\+=|-=)\s*([12])\b")

VERSION_ARITH_EXCLUDE = {"src/threev/common/ids.h"}


def check_version_arith(files):
    findings = []
    for f in files:
        rel = f.path.replace(os.sep, "/")
        if rel in VERSION_ARITH_EXCLUDE:
            continue
        for m in VERSION_ARITH_RE.finditer(f.code):
            var, op, lit = m.groups()
            helper = {
                ("+", "1"): "NextVersion",
                ("+=", "1"): "NextVersion",
                ("-", "1"): "PrevVersion",
                ("-=", "1"): "PrevVersion",
                ("+", "2"): "MaxUpdateVersionFor",
            }.get((op, lit), "the ids.h version helpers")
            findings.append(Finding(
                "version-arith", f.path, f.line_of(m.start()),
                f"raw `{var} {op} {lit}` on a version variable; use "
                f"{helper} (ids.h) so the offset names its protocol fact"))
    return findings


# ---------------------------------------------------------------------------
# Rule: determinism in sim-driven code
# ---------------------------------------------------------------------------

DETERMINISTIC_DIRS = ("core/", "sim/", "storage/", "txn/", "lock/",
                      "verify/", "workload/", "baseline/", "fuzz/")

NONDET_PATTERNS = [
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (re.compile(r"\b(?:std::)?s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\bstd::chrono::(?:system|steady|high_resolution)_clock\b"),
     "ambient chrono clock"),
    (re.compile(r"\bgettimeofday\s*\(|\bclock_gettime\s*\(|\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)"),
     "wall-clock syscall"),
    (re.compile(r"\bsleep_for\s*\(|\bsleep_until\s*\(|\busleep\s*\("),
     "real sleep"),
]


def in_deterministic_dir(path):
    rel = path.replace(os.sep, "/")
    return any(("/" + d) in ("/" + rel) for d in
               (f"threev/{d}" for d in DETERMINISTIC_DIRS))


def check_determinism(files):
    findings = []
    for f in files:
        if not in_deterministic_dir(f.path):
            continue
        for pattern, label in NONDET_PATTERNS:
            for m in pattern.finditer(f.code):
                findings.append(Finding(
                    "determinism", f.path, f.line_of(m.start()),
                    f"{label} in simulation-driven code; take time from "
                    "Network::Now() and randomness from a seeded Rng"))
    return findings


# ---------------------------------------------------------------------------
# Rule: capability discipline (threev::Mutex only)
# ---------------------------------------------------------------------------

RAW_MUTEX_RE = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|shared_mutex|lock_guard|"
    r"unique_lock|scoped_lock|condition_variable)\b(?!_any)")

CAPABILITY_EXCLUDE = {"src/threev/common/mutex.h"}


def check_capability(files):
    findings = []
    for f in files:
        rel = f.path.replace(os.sep, "/")
        if rel in CAPABILITY_EXCLUDE:
            continue
        for m in RAW_MUTEX_RE.finditer(f.code):
            findings.append(Finding(
                "capability", f.path, f.line_of(m.start()),
                f"raw std::{m.group(1)}; use threev::Mutex / MutexLock / "
                "CondVar (common/mutex.h) so the clang thread-safety tier "
                "can see the lock"))
    return findings


# ---------------------------------------------------------------------------
# Rule: documented analysis opt-outs
# ---------------------------------------------------------------------------
#
# NO_THREAD_SAFETY_ANALYSIS is a hole in the -Wthread-safety tier, but a
# hole can be sound: code that runs before its object is published to any
# other thread, or a read validated by its own protocol (every cell atomic,
# a sequence re-check). The rule is not "never opt out" - it is "every
# opt-out carries its safety argument": the macro must have a `SAFETY:`
# comment within the preceding few lines explaining why the unsynchronized
# access is sound.

OPTOUT_MACRO = "NO_THREAD_SAFETY_ANALYSIS"
OPTOUT_EXCLUDE = {"src/threev/common/thread_annotations.h"}
OPTOUT_LOOKBACK_LINES = 12


def check_analysis_optout(files):
    findings = []
    for f in files:
        rel = f.path.replace(os.sep, "/")
        if rel in OPTOUT_EXCLUDE:
            continue
        # Search the raw text: the justification lives in comments, which the
        # stripped view deliberately blanks out.
        for m in re.finditer(r"\b" + OPTOUT_MACRO + r"\b", f.text):
            line = f.line_of(m.start())
            lines = f.text.split("\n")
            lookback = "\n".join(
                lines[max(0, line - 1 - OPTOUT_LOOKBACK_LINES):line])
            if "SAFETY:" not in lookback:
                findings.append(Finding(
                    "analysis-optout", f.path, line,
                    f"{OPTOUT_MACRO} without an adjacent `// SAFETY:` comment;"
                    " every opt-out must state why the unsynchronized access"
                    " is sound"))
    return findings


# ---------------------------------------------------------------------------
# Rule: metrics observability
# ---------------------------------------------------------------------------

METRICS_DECL = "src/threev/metrics/metrics.h"
# Holds kMetricsCounters / kMetricsHistograms, the one table per kind that
# Reset(), MergeFrom(), Report() and the Prometheus exporter loop over.
METRICS_TABLE = "src/threev/metrics/metrics.cc"


def parse_metrics_fields(code):
    m = re.search(r"struct\s+Metrics\s*\{(.*?)\n\};", code, re.S)
    if m is None:
        return []
    body = m.group(1)
    fields = re.findall(r"std::atomic<[^>]+>\s+(\w+)\s*\{", body)
    fields += re.findall(r"\bHistogram\s+(\w+)\s*;", body)
    return fields


def function_body_span(code, name):
    """Returns the (start, end) offsets of the brace-enclosed body of the
    first definition of `name`, or None."""
    m = re.search(re.escape(name) + r"\s*\(", code)
    if m is None:
        return None
    open_brace = code.find("{", m.end())
    if open_brace == -1:
        return None
    depth = 0
    for i in range(open_brace, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return open_brace + 1, i
    return None


def extract_function_body(code, name):
    """Returns the brace-enclosed body of the first definition of `name`,
    or None."""
    span = function_body_span(code, name)
    return None if span is None else code[span[0]:span[1]]


def check_metrics_observability(files):
    findings = []
    paths = by_path(files)
    decl = paths.get(METRICS_DECL)
    if decl is None:
        return findings
    fields = parse_metrics_fields(decl.code)
    if not fields:
        findings.append(Finding(
            "metrics-observability", METRICS_DECL, 1,
            "could not parse the Metrics struct's fields"))
        return findings
    table = paths.get(METRICS_TABLE)
    rows = {}
    if table is not None:
        for m in re.finditer(r"&\s*Metrics::(\w+)", table.code):
            rows.setdefault(m.group(1), []).append(table.line_of(m.start()))
    for field in fields:
        lines = rows.get(field, [])
        if not lines:
            findings.append(Finding(
                "metrics-observability", METRICS_TABLE, 1,
                f"Metrics::{field} has no row in kMetricsCounters or "
                "kMetricsHistograms, so Reset(), MergeFrom(), Report() and "
                "the Prometheus exporter all skip it"))
        elif len(lines) > 1:
            findings.append(Finding(
                "metrics-observability", METRICS_TABLE, lines[1],
                f"Metrics::{field} has {len(lines)} table rows; one is "
                "needed, or every surface counts it twice"))
    return findings


# ---------------------------------------------------------------------------
# Rule: message fields
# ---------------------------------------------------------------------------
#
# Each Message field costs bytes on every frame, so each must mean something
# to the protocol: the codec carries it both ways and some layer above the
# transports reads it. A "read" is `var.field` on a variable declared as a
# Message in the same file, not followed by an assignment or a container
# mutator. Lexical, like the other rules: it sees handler parameters and
# locals (`const Message& msg`, `Message reply;`), which is where protocol
# code touches messages.

MESSAGE_DECL = "src/threev/net/message.h"
MESSAGE_CODEC = "src/threev/net/wire.cc"
NET_DIR = "src/threev/net/"
MESSAGE_MUTATORS = {"push_back", "emplace_back", "assign", "insert", "clear",
                    "reserve", "resize"}


def parse_message_fields(code):
    m = re.search(r"struct\s+Message\s*\{(.*?)\n\};", code, re.S)
    if m is None:
        return []
    fields = []
    for stmt in m.group(1).split(";"):
        stmt = stmt.strip()
        decl = stmt.split("=", 1)[0]
        if not stmt or "(" in decl:
            continue  # member function declaration
        name = re.search(r"(\w+)\s*(?:\{[^}]*\})?\s*$", decl)
        if name is not None:
            fields.append(name.group(1))
    return fields


def message_vars(code):
    return set(re.findall(
        r"\bMessage\s*(?:const\s*)?(?:&&|&|\*)?\s*([A-Za-z_]\w*)\s*[;,)=({]",
        code))


def reads_field(code, var, field):
    pattern = (r"\b" + re.escape(var) + r"\s*\.\s*" + field +
               r"\b((?:\s*\.\s*\w+)*)\s*(==|=|\()?")
    for m in re.finditer(pattern, code):
        chain = re.findall(r"\w+", m.group(1))
        if m.group(2) == "=":
            continue  # assignment to the field (or a sub-field)
        if m.group(2) == "(" and chain and chain[-1] in MESSAGE_MUTATORS:
            continue
        return True
    return False


def check_message_fields(files):
    findings = []
    paths = by_path(files)
    decl = paths.get(MESSAGE_DECL)
    codec = paths.get(MESSAGE_CODEC)
    if decl is None or codec is None:
        return findings
    fields = parse_message_fields(decl.code)
    if not fields:
        findings.append(Finding("message-fields", MESSAGE_DECL, 1,
                                "could not parse the Message struct's fields"))
        return findings
    bodies = {}
    for fn in ("EncodeMessageTo", "DecodeMessage"):
        bodies[fn] = extract_function_body(codec.code, fn)
        if bodies[fn] is None:
            findings.append(Finding("message-fields", MESSAGE_CODEC, 1,
                                    f"could not locate the body of {fn}"))
    outside = [f for f in files
               if not f.path.replace(os.sep, "/").startswith(NET_DIR)]
    for field in fields:
        line = decl.line_of(decl.code.find(field,
                                           decl.code.find("struct Message")))
        for fn, body in bodies.items():
            if body is not None and not re.search(
                    r"\bmsg\s*\.\s*" + field + r"\b", body):
                findings.append(Finding(
                    "message-fields", MESSAGE_DECL, line,
                    f"Message::{field} is not handled by {fn}; the field "
                    "would silently vanish on the TCP wire"))
        if not any(reads_field(f.code, var, field)
                   for f in outside for var in message_vars(f.code)):
            findings.append(Finding(
                "message-fields", MESSAGE_DECL, line,
                f"Message::{field} is never read outside net/; delete it or "
                "give it a reader"))
    return findings


# ---------------------------------------------------------------------------
# Rule: a node externalizes only through Node::Send
# ---------------------------------------------------------------------------
#
# Log before externalize (DESIGN.md section 9) holds by construction because
# Node::Send commits the node's staged WAL frames before it hands a message
# to the network. A direct network_->Send anywhere else in node.cc would let
# a message overtake the records it depends on.

NODE_IMPL = "src/threev/core/node.cc"
RAW_SEND_RE = re.compile(r"\bnetwork_\s*->\s*Send\s*\(")


def check_node_send(files):
    node = by_path(files).get(NODE_IMPL)
    if node is None:
        return []
    span = function_body_span(node.code, "Node::Send")
    if span is None:
        return [Finding("node-send", NODE_IMPL, 1,
                        "could not locate the body of Node::Send")]
    findings = []
    for m in RAW_SEND_RE.finditer(node.code):
        if not span[0] <= m.start() < span[1]:
            findings.append(Finding(
                "node-send", NODE_IMPL, node.line_of(m.start()),
                "network_->Send outside Node::Send; send through Node::Send, "
                "which commits the staged log frames first"))
    return findings


# ---------------------------------------------------------------------------
# Rule: net threads. The transports run a fixed set of threads: one worker
# per endpoint and a timer (ThreadNet::Start) plus an accept thread
# (TcpNet::Start). Inbound sockets belong to the destination's worker
# (DESIGN.md section 6), so a thread constructed anywhere else under net/ -
# or a container of threads, which constructs them in emplace_back - is a
# thread per connection (or per something) creeping back.

NET_DIR = "src/threev/net/"
THREAD_START_FUNCS = ("ThreadNet::Start", "TcpNet::Start")
# `std::thread(`/`std::thread{` (a temporary) or `std::thread name(`/`{`.
THREAD_CTOR_RE = re.compile(r"\bstd::j?thread\s*(?:\w+\s*)?[({]")
THREAD_CONTAINER_RE = re.compile(r"<\s*std::j?thread\s*>")


def check_net_threads(files):
    findings = []
    for f in files:
        path = f.path.replace(os.sep, "/")
        if not path.startswith(NET_DIR):
            continue
        spans = [span for span in (function_body_span(f.code, name)
                                   for name in THREAD_START_FUNCS)
                 if span is not None]
        for m in THREAD_CTOR_RE.finditer(f.code):
            if not any(a <= m.start() < b for a, b in spans):
                findings.append(Finding(
                    "net-threads", path, f.line_of(m.start()),
                    "std::thread constructed outside ThreadNet::Start / "
                    "TcpNet::Start; inbound sockets belong to the "
                    "destination's worker, not to a thread of their own"))
        for m in THREAD_CONTAINER_RE.finditer(f.code):
            findings.append(Finding(
                "net-threads", path, f.line_of(m.start()),
                "container of std::thread under net/: the transports run "
                "a fixed set of threads"))
    return findings


# ---------------------------------------------------------------------------
# Rule: endpoint-owned state takes no locks. Handlers, timer callbacks
# included, run on the endpoint's own thread, so a node (its counters, lock
# table and store) and the advancement coordinator are single-threaded by
# construction (DESIGN.md section 6). A lock there would guard nothing - or
# hide a second thread that must not exist; the overlap check in both
# HandleMessage functions catches the latter at run time, this rule keeps
# the former from creeping back.

NODE_OWNED_PREFIXES = ("src/threev/core/node.", "src/threev/core/coordinator.",
                       "src/threev/core/owner_thread.",
                       "src/threev/core/counters.",
                       "src/threev/lock/", "src/threev/storage/")
NODE_OWNED_BANNED_RE = re.compile(
    r"\b(?:Mutex|SharedMutex|MutexLock|(?:PT_)?GUARDED_BY|"
    r"REQUIRES(?:_SHARED)?|EXCLUDES)\b|"
    r"\bstd::(?:recursive_|timed_|shared_)?mutex\b")
NODE_OWNED_TIMER_RE = re.compile(r"\bScheduleAfter\s*\(")


def check_node_owned(files):
    findings = []
    for f in files:
        path = f.path.replace(os.sep, "/")
        if not path.startswith(NODE_OWNED_PREFIXES):
            continue
        for m in NODE_OWNED_BANNED_RE.finditer(f.code):
            findings.append(Finding(
                "node-owned", path, f.line_of(m.start()),
                f"`{m.group(0)}` in node-owned code; one thread runs an "
                "endpoint's handlers and timers, so its state takes no "
                "locks (DESIGN.md section 6)"))
        for m in NODE_OWNED_TIMER_RE.finditer(f.code):
            findings.append(Finding(
                "node-owned", path, f.line_of(m.start()),
                "`ScheduleAfter` in node-owned code runs its callback on "
                "the transport's timer thread; arm an owned timer "
                "(ScheduleTimer / OwnedTimers::Arm) instead"))
    return findings


RULES = [
    check_wire_symmetry,
    check_lock_blocking,
    check_version_arith,
    check_determinism,
    check_capability,
    check_analysis_optout,
    check_metrics_observability,
    check_message_fields,
    check_node_send,
    check_net_threads,
    check_node_owned,
]


def lint(root):
    files = load_tree(root)
    if not files:
        print(f"threev_lint: no sources under {os.path.join(root, SRC_SUBDIR)}",
              file=sys.stderr)
        return 2
    findings = []
    for rule in RULES:
        findings.extend(rule(files))
    for finding in sorted(findings, key=lambda x: (x.path, x.line)):
        print(finding)
    if findings:
        print(f"threev_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"threev_lint: OK ({len(files)} files)")
    return 0


# ---------------------------------------------------------------------------
# Self-test: each rule must fire on a seeded violation and stay quiet on the
# equivalent clean snippet.
# ---------------------------------------------------------------------------


def _mkfile(path, text):
    return SourceFile(path, text)


def self_test():
    failures = []

    def expect(name, findings, rule, want):
        fired = any(f.rule == rule for f in findings)
        if fired != want:
            failures.append(
                f"{name}: expected rule '{rule}' fired={want}, got {fired}"
                + ("".join("\n    " + str(f) for f in findings) or " (none)"))

    # --- wire symmetry ----------------------------------------------------
    decl = _mkfile("src/threev/net/message.h",
                   "enum class MsgType : uint8_t {\n  kPing = 0,\n  kPong,\n};\n")
    name_table = _mkfile(
        "src/threev/net/message.cc",
        "case MsgType::kPing: return \"Ping\";\n"
        "case MsgType::kPong: return \"Pong\";\n")
    user = _mkfile(
        "src/threev/core/node.cc",
        "m.type = MsgType::kPing;\n"
        "case MsgType::kPing: break;\n"
        "m.type = MsgType::kPong;\n"
        "if (msg.type == MsgType::kPong) {}\n")
    wal_decl = _mkfile("src/threev/durability/wal.h",
                       "enum class WalRecordType : uint8_t { kUpdate = 1, };\n")
    wal_cc = _mkfile("src/threev/durability/wal.cc",
                     "case WalRecordType::kUpdate: return \"Update\";\n")
    recovery = _mkfile("src/threev/durability/recovery.cc",
                       "case WalRecordType::kUpdate: break;\n")
    wal_user = _mkfile("src/threev/core/node2.cc",
                       "rec.type = WalRecordType::kUpdate;\n"
                       "if (r.type == WalRecordType::kUpdate) {}\n")
    clean = [decl, name_table, user, wal_decl, wal_cc, recovery, wal_user]
    expect("wire clean", check_wire_symmetry(clean), "wire-symmetry", False)

    # Seed: kPong loses its name-table arm and its dispatch arm.
    broken_table = _mkfile("src/threev/net/message.cc",
                           "case MsgType::kPing: return \"Ping\";\n")
    expect("wire missing name arm",
           check_wire_symmetry([decl, broken_table, user, wal_decl, wal_cc,
                                recovery, wal_user]),
           "wire-symmetry", True)
    silent_user = _mkfile("src/threev/core/node.cc",
                          "m.type = MsgType::kPing;\n"
                          "case MsgType::kPing: break;\n"
                          "m.type = MsgType::kPong;\n")
    expect("wire undispatched enumerator",
           check_wire_symmetry([decl, name_table, silent_user, wal_decl,
                                wal_cc, recovery, wal_user]),
           "wire-symmetry", True)
    # Seed: a WAL record type with no replay arm.
    wal_decl2 = _mkfile(
        "src/threev/durability/wal.h",
        "enum class WalRecordType : uint8_t { kUpdate = 1, kCounter = 3, };\n")
    wal_cc2 = _mkfile("src/threev/durability/wal.cc",
                      "case WalRecordType::kUpdate: return \"Update\";\n"
                      "case WalRecordType::kCounter: return \"Counter\";\n")
    wal_user2 = _mkfile("src/threev/core/node2.cc",
                        "rec.type = WalRecordType::kUpdate;\n"
                        "if (r.type == WalRecordType::kUpdate) {}\n"
                        "rec.type = WalRecordType::kCounter;\n"
                        "if (r.type == WalRecordType::kCounter) {}\n")
    expect("wal missing replay arm",
           check_wire_symmetry([decl, name_table, user, wal_decl2, wal_cc2,
                                recovery, wal_user2]),
           "wire-symmetry", True)

    # --- lock blocking ----------------------------------------------------
    bad_lock = _mkfile("src/threev/core/node.cc", """
void Node::Bad() {
  MutexLock lock(mu_);
  network_->Send(0, std::move(m));
}
""")
    expect("send under lock", check_lock_blocking([bad_lock]),
           "lock-blocking", True)
    good_lock = _mkfile("src/threev/core/node.cc", """
void Node::Good() {
  {
    MutexLock lock(mu_);
    staged = true;
  }
  network_->Send(0, std::move(m));
}
""")
    expect("send after lock scope", check_lock_blocking([good_lock]),
           "lock-blocking", False)
    bad_wait = _mkfile("src/threev/lock/lock_manager.cc", """
void LockManager::Bad() {
  MutexLock lock(mu_);
  cv_.wait(lock);
}
""")
    expect("cv wait under protocol lock", check_lock_blocking([bad_wait]),
           "lock-blocking", True)
    net_wait = _mkfile("src/threev/net/thread_net.cc", """
void ThreadNet::TimerLoop() {
  MutexLock lock(timer_mu_);
  timer_cv_.wait(lock);
}
""")
    expect("net-layer cv wait exempt", check_lock_blocking([net_wait]),
           "lock-blocking", False)

    # --- version arithmetic ----------------------------------------------
    bad_arith = _mkfile("src/threev/core/node.cc",
                        "pass = ctx->version == vr_ + 1;\n")
    expect("raw version +1", check_version_arith([bad_arith]),
           "version-arith", True)
    bad_arith2 = _mkfile("src/threev/core/cluster.cc",
                         "ok = vu <= vr + 2;\n")
    expect("raw version +2", check_version_arith([bad_arith2]),
           "version-arith", True)
    good_arith = _mkfile(
        "src/threev/core/node.cc",
        "pass = VersionGateOpen(ctx->version, vr_);\n"
        "ok = vu <= MaxUpdateVersionFor(vr);\n"
        "count = count + 1;\n"          # non-version identifier: fine
        "// vr + 1 in a comment is fine\n")
    expect("helper-based arithmetic", check_version_arith([good_arith]),
           "version-arith", False)

    # --- determinism ------------------------------------------------------
    bad_rng = _mkfile("src/threev/workload/gen.cc",
                      "std::random_device rd;\n")
    expect("random_device in workload", check_determinism([bad_rng]),
           "determinism", True)
    bad_clock = _mkfile("src/threev/core/node.cc",
                        "auto t = std::chrono::steady_clock::now();\n")
    expect("ambient clock in core", check_determinism([bad_clock]),
           "determinism", True)
    good_net = _mkfile("src/threev/net/thread_net.cc",
                       "auto t = std::chrono::steady_clock::now();\n")
    expect("net layer may use real clocks", check_determinism([good_net]),
           "determinism", False)
    good_now = _mkfile("src/threev/core/node.cc",
                       "Micros now = network_->Now();\n")
    expect("Network::Now in core", check_determinism([good_now]),
           "determinism", False)
    bad_fuzz = _mkfile("src/threev/fuzz/fuzz.cc",
                       "auto t = std::chrono::steady_clock::now();\n")
    expect("ambient clock in fuzz subsystem", check_determinism([bad_fuzz]),
           "determinism", True)
    bad_fuzz_rng = _mkfile("src/threev/fuzz/plan.cc",
                           "std::srand(42);\n")
    expect("ambient randomness in fuzz subsystem",
           check_determinism([bad_fuzz_rng]), "determinism", True)

    # --- capability discipline -------------------------------------------
    bad_mutex = _mkfile("src/threev/core/node.h", "std::mutex mu_;\n")
    expect("raw std::mutex", check_capability([bad_mutex]),
           "capability", True)
    ok_any = _mkfile("src/threev/common/other.h",
                     "std::condition_variable_any cv_;\nMutex mu_;\n")
    expect("condition_variable_any allowed", check_capability([ok_any]),
           "capability", False)
    wrapper = _mkfile("src/threev/common/mutex.h", "std::mutex mu_;\n")
    expect("wrapper file exempt", check_capability([wrapper]),
           "capability", False)

    # --- analysis opt-out documentation -----------------------------------
    bad_optout = _mkfile("src/threev/core/coordinator.h",
                         "void Restore() NO_THREAD_SAFETY_ANALYSIS;\n")
    expect("undocumented opt-out", check_analysis_optout([bad_optout]),
           "analysis-optout", True)
    good_optout = _mkfile(
        "src/threev/core/coordinator.h",
        "// SAFETY: runs from the constructor, before the object is\n"
        "// published to any other thread.\n"
        "void Restore() NO_THREAD_SAFETY_ANALYSIS;\n")
    expect("documented opt-out", check_analysis_optout([good_optout]),
           "analysis-optout", False)
    macro_def = _mkfile("src/threev/common/thread_annotations.h",
                        "#define NO_THREAD_SAFETY_ANALYSIS \\\n"
                        "  THREEV_THREAD_ANNOTATION(no_thread_safety_analysis)\n")
    expect("macro definition site exempt", check_analysis_optout([macro_def]),
           "analysis-optout", False)

    # --- metrics observability -------------------------------------------
    metrics_h = _mkfile(
        "src/threev/metrics/metrics.h",
        "struct Metrics {\n"
        "  std::atomic<int64_t> txns_committed{0};\n"
        "  std::atomic<int64_t> lock_waits{0};\n"
        "  Histogram update_latency;\n"
        "  void Reset();\n"
        "};\n"
        "struct MetricsCounter {\n"
        "  std::atomic<int64_t> Metrics::*field;\n"
        "};\n")
    metrics_cc_ok = _mkfile(
        "src/threev/metrics/metrics.cc",
        "constexpr MetricsCounter kCounters[] = {\n"
        "    {&Metrics::txns_committed, \"txns_committed\", \"txns\", \"c\"},\n"
        "    {&Metrics::lock_waits, \"lock_waits\", \"blocking\", \"w\"},\n"
        "};\n"
        "constexpr MetricsHistogram kHistograms[] = {\n"
        "    {&Metrics::update_latency, \"update_latency\", \"u\"},\n"
        "};\n"
        "void Metrics::Reset() {\n"
        "  for (const MetricsCounter& c : kMetricsCounters) this->*c.field = 0;\n"
        "}\n")
    expect("metrics table complete",
           check_metrics_observability([metrics_h, metrics_cc_ok]),
           "metrics-observability", False)
    # Seed: lock_waits has no row (a comment naming it does not count).
    metrics_cc_missing = _mkfile(
        "src/threev/metrics/metrics.cc",
        "constexpr MetricsCounter kCounters[] = {\n"
        "    {&Metrics::txns_committed, \"txns_committed\", \"txns\", \"c\"},\n"
        "    // {&Metrics::lock_waits, \"lock_waits\", \"blocking\", \"w\"},\n"
        "};\n"
        "constexpr MetricsHistogram kHistograms[] = {\n"
        "    {&Metrics::update_latency, \"update_latency\", \"u\"},\n"
        "};\n")
    expect("metrics counter without a row",
           check_metrics_observability([metrics_h, metrics_cc_missing]),
           "metrics-observability", True)
    # Seed: the histogram has no row.
    metrics_cc_no_hist = _mkfile(
        "src/threev/metrics/metrics.cc",
        "constexpr MetricsCounter kCounters[] = {\n"
        "    {&Metrics::txns_committed, \"txns_committed\", \"txns\", \"c\"},\n"
        "    {&Metrics::lock_waits, \"lock_waits\", \"blocking\", \"w\"},\n"
        "};\n")
    expect("metrics histogram without a row",
           check_metrics_observability([metrics_h, metrics_cc_no_hist]),
           "metrics-observability", True)
    # Seed: lock_waits has two rows.
    metrics_cc_twice = _mkfile(
        "src/threev/metrics/metrics.cc",
        "constexpr MetricsCounter kCounters[] = {\n"
        "    {&Metrics::txns_committed, \"txns_committed\", \"txns\", \"c\"},\n"
        "    {&Metrics::lock_waits, \"lock_waits\", \"blocking\", \"w\"},\n"
        "    {&Metrics::lock_waits, \"lock_waits2\", \"blocking\", \"w2\"},\n"
        "};\n"
        "constexpr MetricsHistogram kHistograms[] = {\n"
        "    {&Metrics::update_latency, \"update_latency\", \"u\"},\n"
        "};\n")
    expect("metrics counter with two rows",
           check_metrics_observability([metrics_h, metrics_cc_twice]),
           "metrics-observability", True)

    # --- message fields ---------------------------------------------------
    message_h = _mkfile(
        "src/threev/net/message.h",
        "struct Message {\n"
        "  MsgType type = MsgType::kSubtxnRequest;\n"
        "  NodeId from = 0;\n"
        "  std::vector<std::pair<NodeId, int64_t>> counters_r;\n"
        "  std::string ToString() const;\n"
        "};\n")
    wire_cc = _mkfile(
        "src/threev/net/wire.cc",
        "void EncodeMessageTo(WireWriter& w, const Message& msg) {\n"
        "  w.U8(msg.type);\n  w.U32(msg.from);\n"
        "  for (auto& c : msg.counters_r) w.U32(c.first);\n"
        "}\n"
        "Result<Message> DecodeMessage(const uint8_t* data, size_t size) {\n"
        "  msg.type = r.U8();\n  msg.from = r.U32();\n"
        "  msg.counters_r.emplace_back(r.U32(), 0);\n"
        "}\n")
    reader_cc = _mkfile(
        "src/threev/core/node.cc",
        "void Node::HandleMessage(const Message& msg) {\n"
        "  switch (msg.type) {}\n"
        "  Message reply;\n  reply.from = id;\n"
        "  Reply(msg.from, msg.counters_r.size());\n"
        "}\n")
    expect("message fields encoded, decoded and read",
           check_message_fields([message_h, wire_cc, reader_cc]),
           "message-fields", False)
    # Seed: a field that rides the wire but nothing outside net/ reads - only
    # written (`reply.origin = ...`) and read off another struct (`job.`).
    message_h_dead = _mkfile(
        "src/threev/net/message.h",
        "struct Message {\n"
        "  MsgType type = MsgType::kSubtxnRequest;\n"
        "  NodeId from = 0;\n"
        "  NodeId origin = 0;\n"
        "  std::vector<std::pair<NodeId, int64_t>> counters_r;\n"
        "};\n")
    wire_cc_dead = _mkfile(
        "src/threev/net/wire.cc",
        "void EncodeMessageTo(WireWriter& w, const Message& msg) {\n"
        "  w.U8(msg.type);\n  w.U32(msg.from);\n  w.U32(msg.origin);\n"
        "  for (auto& c : msg.counters_r) w.U32(c.first);\n"
        "}\n"
        "Result<Message> DecodeMessage(const uint8_t* data, size_t size) {\n"
        "  msg.type = r.U8();\n  msg.from = r.U32();\n"
        "  msg.origin = r.U32();\n"
        "  msg.counters_r.emplace_back(r.U32(), 0);\n"
        "}\n")
    writer_cc = _mkfile(
        "src/threev/core/node.cc",
        "void Node::HandleMessage(const Message& msg) {\n"
        "  switch (msg.type) {}\n"
        "  Message reply;\n  reply.from = id;\n  reply.origin = job.origin;\n"
        "  Reply(msg.from, msg.counters_r.size());\n"
        "}\n")
    expect("message field never read outside net/",
           check_message_fields([message_h_dead, wire_cc_dead, writer_cc]),
           "message-fields", True)
    # Seed: a field the encoder forgets.
    wire_cc_lossy = _mkfile(
        "src/threev/net/wire.cc",
        "void EncodeMessageTo(WireWriter& w, const Message& msg) {\n"
        "  w.U8(msg.type);\n  w.U32(msg.from);\n"
        "}\n"
        "Result<Message> DecodeMessage(const uint8_t* data, size_t size) {\n"
        "  msg.type = r.U8();\n  msg.from = r.U32();\n"
        "  msg.counters_r.emplace_back(r.U32(), 0);\n"
        "}\n")
    expect("message field missing from the encoder",
           check_message_fields([message_h, wire_cc_lossy, reader_cc]),
           "message-fields", True)

    # --- node send --------------------------------------------------------
    node_ok = _mkfile("src/threev/core/node.cc", """
void Node::Send(NodeId to, Message m) {
  if (wal_ != nullptr && !CommitLog()) return;
  network_->Send(to, std::move(m));
}
void Node::OnPrepare(const Message& msg) {
  Send(msg.from, std::move(m));
}
""")
    expect("sends through Node::Send", check_node_send([node_ok]),
           "node-send", False)
    # Seed: a handler that bypasses the choke point.
    node_bypass = _mkfile("src/threev/core/node.cc", """
void Node::Send(NodeId to, Message m) {
  if (wal_ != nullptr && !CommitLog()) return;
  network_->Send(to, std::move(m));
}
void Node::OnPrepare(const Message& msg) {
  network_->Send(msg.from, std::move(m));
}
""")
    expect("network_->Send outside Node::Send", check_node_send([node_bypass]),
           "node-send", True)
    node_no_choke = _mkfile("src/threev/core/node.cc", """
void Node::OnPrepare(const Message& msg) {
  network_->Send(msg.from, std::move(m));
}
""")
    expect("node without Node::Send", check_node_send([node_no_choke]),
           "node-send", True)

    # --- net threads ------------------------------------------------------
    net_ok = [
        _mkfile("src/threev/net/thread_net.cc", """
void ThreadNet::Start() {
  for (auto& [id, ep] : endpoints_) {
    ep->worker = std::thread([this] { WorkerLoop(); });
  }
  timer_thread_ = std::thread([this] { TimerLoop(); });
}
"""),
        _mkfile("src/threev/net/tcp_net.cc", """
Status TcpNet::Start() {
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}
"""),
        _mkfile("src/threev/net/tcp_net.h", "  std::thread accept_thread_;\n"),
        # Outside net/ the rule does not apply.
        _mkfile("src/threev/core/pool.cc",
                "std::vector<std::thread> pool;\n"
                "pool.emplace_back([] {});\n"),
    ]
    expect("threads only in the Start functions", check_net_threads(net_ok),
           "net-threads", False)
    # Seed: a reader thread per accepted connection.
    reader_per_conn = _mkfile("src/threev/net/tcp_net.cc", """
Status TcpNet::Start() {
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}
void TcpNet::AcceptLoop() {
  int fd = ::accept(lfd, nullptr, nullptr);
  reader_threads_.emplace_back([this, fd] { ReaderLoop(fd); });
}
""")
    reader_decl = _mkfile(
        "src/threev/net/tcp_net.h",
        "  std::vector<std::thread> reader_threads_ GUARDED_BY(mu_);\n")
    expect("container of threads under net/",
           check_net_threads([reader_per_conn, reader_decl]),
           "net-threads", True)
    named_thread = _mkfile("src/threev/net/tcp_net.cc", """
void TcpNet::AcceptLoop() {
  std::thread reader([this, fd] { ReaderLoop(fd); });
  reader.detach();
}
""")
    expect("named thread outside the Start functions",
           check_net_threads([named_thread]), "net-threads", True)
    temp_thread = _mkfile("src/threev/net/thread_net.cc", """
void ThreadNet::Start() {
  timer_thread_ = std::thread([this] { TimerLoop(); });
}
void ThreadNet::Deliver(NodeId to, Message&& msg) {
  std::thread([e] { e->handler(msg); }).detach();
}
""")
    expect("temporary thread outside the Start functions",
           check_net_threads([temp_thread]), "net-threads", True)

    # --- node-owned -------------------------------------------------------
    owned_clean = [
        _mkfile("src/threev/core/node.h",
                "// One thread owns the node; no Mutex, no GUARDED_BY.\n"
                "std::atomic<bool> halted_{false};\n"
                "std::map<SubtxnId, PendingSubtxn> pending_;\n"),
        _mkfile("src/threev/storage/versioned_store.cc",
                "Status s = Status::NotFound(\"Mutex\");\n"),
        # The coordinator: atomics for its foreign-thread API, plain
        # members for the rest.
        _mkfile("src/threev/core/coordinator.h",
                "std::atomic<bool> claimed_{false};\n"
                "std::atomic<uint64_t> auto_token_{0};\n"
                "std::set<NodeId> awaiting_;\nuint64_t epoch_ = 0;\n"),
        _mkfile("src/threev/core/coordinator.cc",
                "if (claimed_.exchange(true, std::memory_order_acq_rel)) "
                "return false;\n"
                "HandlerScope owner(in_handler_, \"coordinator\", id);\n"
                "network_->ScheduleTimer(options_.id, period, token);\n"),
        # Classes called synchronously from foreign threads keep their locks.
        _mkfile("src/threev/core/cluster.h",
                "mutable Mutex mu_;\n"
                "uint64_t next_seq_ GUARDED_BY(mu_) = 1;\n"),
        _mkfile("src/threev/core/cluster.cc", "MutexLock lock(mu_);\n"),
        # Outside the owned files, ScheduleAfter stays legal.
        _mkfile("src/threev/baseline/manual_versioning.cc",
                "network_->ScheduleAfter(period, [this] { Tick(); });\n"),
    ]
    expect("node-owned code without locks", check_node_owned(owned_clean),
           "node-owned", False)
    for path, text in [
        ("src/threev/core/node.h", "mutable Mutex mu_;\n"),
        ("src/threev/core/node.cc", "MutexLock lock(mu_);\n"),
        ("src/threev/core/counters.h",
         "std::map<Version, Row> rows_ GUARDED_BY(mu_);\n"),
        ("src/threev/lock/lock_manager.h",
         "void ReleaseAll(uint64_t owner) EXCLUDES(mu_);\n"),
        ("src/threev/lock/lock_manager.cc",
         "void Promote() REQUIRES(mu_);\n"),
        ("src/threev/storage/versioned_store.h",
         "mutable SharedMutex mu;\n"),
        ("src/threev/storage/versioned_store.cc", "std::mutex mu;\n"),
        ("src/threev/storage/versioned_store.h",
         "std::shared_mutex mu;\n"),
        ("src/threev/core/coordinator.cc", "MutexLock lock(mu_);\n"),
        ("src/threev/core/coordinator.cc", "static Mutex registry_mu;\n"),
        ("src/threev/core/coordinator.cc",
         "Phase phase_ GUARDED_BY(mu_) = Phase::kIdle;\n"),
        ("src/threev/core/coordinator.h",
         "uint64_t epoch_ GUARDED_BY(mu_) = 0;\n"),
        ("src/threev/core/coordinator.h",
         "bool StartAdvancement(DoneCallback done) EXCLUDES(mu_);\n"),
        ("src/threev/core/owner_thread.h", "Mutex mu_;\n"),
    ]:
        expect(f"lock in node-owned {path}",
               check_node_owned([_mkfile(path, text)]), "node-owned", True)
    for path, text in [
        ("src/threev/core/coordinator.cc",
         "network_->ScheduleAfter(options_.check_interval, [this] {\n"),
        ("src/threev/core/node.cc",
         "network_->ScheduleAfter (delay, [this] { Retry(); });\n"),
    ]:
        expect(f"ScheduleAfter in node-owned {path}",
               check_node_owned([_mkfile(path, text)]), "node-owned", True)

    # --- stripping machinery ---------------------------------------------
    stripped = strip_comments_and_strings(
        'a = 1; // vr + 1\n/* std::mutex */ s = "vu + 2"; b = 2;\n')
    if "vr + 1" in stripped or "std::mutex" in stripped or "vu + 2" in stripped:
        failures.append("comment/string stripping leaked contents")
    if stripped.count("\n") != 2:
        failures.append("comment/string stripping changed line structure")

    if failures:
        print("threev_lint self-test FAILED:", file=sys.stderr)
        for failure in failures:
            print("  " + failure, file=sys.stderr)
        return 1
    print("threev_lint self-test OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repository root (default: parent of tools/)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the seeded-violation self-tests and exit")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    return lint(root)


if __name__ == "__main__":
    sys.exit(main())
