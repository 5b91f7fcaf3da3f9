#!/usr/bin/env python3
"""xdb_lint: project-invariant checks Clang TSA cannot express.

The static half of xdb-check (the dynamic half is the LockRank enforcer in
src/common/lock_order.h). Rules:

  latch-then-log      (a) no WalLog append/commit or engine Log* append
                          reachable while a Collection::latch_ scope is
                          open in the same function: the engine's
                          log-before-latch rule.
  guard-writable      (b) every public Engine/Collection mutating entry
                          point calls GuardWritable/GuardWrite (directly or
                          via its designated guarded delegate) before its
                          first state change (a write latch, a Log* append,
                          a *Locked call or an Apply* body).
  replay-apply        (c) nothing replay runs calls the engine's WAL append
                          (Log*), calls GuardWrite/GuardWritable or names
                          ddl_mu_. "What replay runs" is every function
                          reachable by name from the replay roots: the
                          REPLAY_ROOTS and every Apply* function (a callee
                          resolves to the definitions in the caller's own
                          file when there are any, else to every file's).
                          A write body's append of the record its caller
                          passes (`if (rec) ... LogRecord(*rec)`) is not a
                          re-log, provided every call to that body from
                          what replay runs passes nullptr as its last
                          argument.
  raw-std-sync        (d) no raw std::mutex / std::shared_mutex /
                          std::lock_guard / std::unique_lock /
                          std::condition_variable outside common/mutex.h.
  lockmgr-in-latch    (e) no LockManager acquisition (LockDocument/LockNode)
                          inside a latch scope: transaction locks come
                          BEFORE the structure latch, never under it.
  wait-span-rank      (i) an armed obs::WaitSpan must not stay open across
                          the construction of a mutex guard whose LockRank
                          is strictly below the span's component rank: such
                          a span would attribute a coarser-scope (earlier-
                          rank) wait to a finer component, corrupting the
                          breakdown. Holding a span across its OWN
                          component's lock (equal rank) is the normal
                          pattern and allowed.

Annotation-coverage audit (same exit-code discipline; CI requires an empty
report):

  locked-needs-requires  (f) a method named *Locked that declares no lock
                             contract at all (neither XDB_REQUIRES /
                             XDB_REQUIRES_SHARED — caller holds it — nor
                             XDB_EXCLUDES — method takes it itself).
  dangling-annotation    (g) XDB_GUARDED_BY/XDB_REQUIRES/XDB_EXCLUDES naming
                             a mutex that is not a member of any enclosing
                             class.
  unannotated-mutex      (h) a Mutex/SharedMutex member no annotation in the
                             file refers to: a lock the analysis cannot see
                             protecting anything.

The audit is two-pass per header: pass 1 collects every class extent and its
mutex members (annotated methods are declared BEFORE the private member
section in this codebase, so a single pass would see an empty member set);
pass 2 validates annotations and *Locked declarations against the completed
maps. common/mutex.h and common/lock_order.h are exempt — they are the
annotation/enforcement layer itself.

Backends: --backend=clang walks the AST through clang.cindex over
build/compile_commands.json; --backend=lex is a self-contained
lexer/brace-tracking scanner with identical rule semantics (used where
libclang is unavailable — the rules are lexical invariants, so the scanner
is exact on this codebase's style). --backend=auto (default) prefers clang
and falls back. The structural audit rules (f/g/h) are header-shape checks
and always run on the lexical scanner.

Diagnostics: `path:line: [rule-id] message`, exit 1 if any fired.
"""

import argparse
import json
import os
import re
import sys

RULE_LATCH_LOG = "latch-then-log"
RULE_GUARD = "guard-writable"
RULE_REPLAY = "replay-apply"
RULE_RAW_SYNC = "raw-std-sync"
RULE_LOCKMGR = "lockmgr-in-latch"
RULE_WAIT_SPAN = "wait-span-rank"
RULE_LOCKED_REQ = "locked-needs-requires"
RULE_DANGLING = "dangling-annotation"
RULE_UNANNOTATED = "unannotated-mutex"

ALL_RULES = [
    RULE_LATCH_LOG,
    RULE_GUARD,
    RULE_REPLAY,
    RULE_RAW_SYNC,
    RULE_LOCKMGR,
    RULE_WAIT_SPAN,
    RULE_LOCKED_REQ,
    RULE_DANGLING,
    RULE_UNANNOTATED,
]

# Rule (b) configuration: mutating entry point -> call tokens that count as
# its guard. A delegate (e.g. InsertDocument -> InsertTokens) is listed when
# the entry's only path runs through a function that guards first itself.
ENTRY_GUARDS = {
    "Engine::CreateCollection": ["GuardWritable"],
    "Engine::DropCollection": ["GuardWritable"],
    "Engine::RegisterSchema": ["GuardWritable"],
    "Collection::InsertTokens": ["GuardWrite"],
    "Collection::InsertDocument": ["GuardWrite", "InsertTokens"],
    "Collection::DeleteDocument": ["GuardWrite"],
    "Collection::UpdateTextNode": ["GuardWrite"],
    "Collection::DeleteSubtree": ["GuardWrite"],
    "Collection::InsertSubtree": ["GuardWrite"],
    # The DDL Apply* bodies are not entry points: replay runs them ungated,
    # so each public wrapper guards itself.
    "Collection::CreateValueIndex": ["GuardWrite"],
    "Collection::DropValueIndex": ["GuardWrite"],
    "Collection::CreateStructuralIndex": ["GuardWrite"],
    "Collection::DropStructuralIndex": ["GuardWrite"],
}

# Rule (c) configuration: the replay paths that are not named Apply*. Open
# replays the WAL at startup; Scrub runs the filtered replay and the salvage
# re-insert (Collection::ScrubAndRepair). ApplyReplicatedRecords, the
# replica's segment apply, is an Apply* root already.
REPLAY_ROOTS = {"Engine::Open", "Engine::Scrub"}
REPLAY_FORBIDDEN_CALLS = {"GuardWrite", "GuardWritable"}

RAW_SYNC_TYPES = {
    "mutex",
    "shared_mutex",
    "recursive_mutex",
    "timed_mutex",
    "recursive_timed_mutex",
    "shared_timed_mutex",
    "lock_guard",
    "unique_lock",
    "shared_lock",
    "scoped_lock",
    "condition_variable",
    "condition_variable_any",
}

LOG_CALL_RE = re.compile(r"Log[A-Z]\w*")
CONTROL_KEYWORDS = {"if", "while", "for", "switch", "catch"}

# Rule (i) configuration. Each WaitState is pinned to the LockRank of the
# component whose waits it attributes; mirrors obs/wait_state.h.
WAIT_STATE_RANK = {
    "kBufferIo": 100,   # LockRank::kBufferShard
    "kLockWait": 70,    # LockRank::kLockManager
    "kWalCommit": 60,   # LockRank::kWalCommit
    "kLatch": 80,       # LockRank::kCollectionLatch
    "kFreshness": 170,  # LockRank::kEngineFreshness
    "kIndexProbe": 80,  # LockRank::kCollectionLatch
    "kReplApply": 20,   # LockRank::kEngineCatalog
}

# Mutex member name -> LockRank value, for guard constructions that name the
# member directly. `mu_` is deliberately absent: the bare name is ambiguous
# across classes (Engine::mu_ is kEngineCatalog, Shard::mu is kBufferShard),
# so only unambiguous members participate. Guards constructed with an
# explicit `LockRank::k...` argument are ranked from LOCK_RANK_VALUES
# instead.
MUTEX_NAME_RANK = {
    "latch_": 80,         # kCollectionLatch
    "commit_mu_": 60,     # kWalCommit
    "fresh_mu_": 170,     # kEngineFreshness
    "wal_names_mu_": 40,  # kWalNames
    "ddl_mu_": 30,        # kCollectionDdl
    "docid_mu_": 130,     # kCollectionDocId
}

# Mirrors common/lock_rank.h (engine ranks; the enforcer's test-only ranks
# are irrelevant to production scans but harmless to include).
LOCK_RANK_VALUES = {
    "kMetricsRegistry": 10,
    "kEngineCatalog": 20,
    "kCollectionDdl": 30,
    "kWalNames": 40,
    "kWalAppend": 50,
    "kWalCommit": 60,
    "kLockManager": 70,
    "kCollectionLatch": 80,
    "kRecordManager": 90,
    "kBufferShard": 100,
    "kBufferLsn": 110,
    "kTableSpace": 120,
    "kCollectionDocId": 130,
    "kNameDictionary": 140,
    "kCollectionStats": 150,
    "kPlanCache": 160,
    "kEngineFreshness": 170,
    "kThreadPoolWorker": 180,
    "kThreadPoolIdle": 190,
    "kSyncLatch": 200,
    "kShipTransport": 210,
    "kFaultInjector": 220,
    "kTestLow": 1000,
}

GUARD_TYPES = ("MutexLock", "ReaderMutexLock", "WriterMutexLock")


class Diagnostic:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# Lexing: comment/string/preprocessor stripping and tokenization.
# --------------------------------------------------------------------------


def strip_noncode(text):
    """Blanks comments, string/char literals and preprocessor directives,
    preserving every newline so token line numbers match the source."""
    out = []
    i, n = 0, len(text)
    line_start = True
    while i < n:
        c = text[i]
        if line_start and c == "#":
            # Preprocessor directive (with continuations).
            while i < n:
                if text[i] == "\n":
                    if i > 0 and text[i - 1] == "\\":
                        out.append("\n")
                        i += 1
                        continue
                    break
                out.append(" ")
                i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            out.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and
                                 text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
            continue
        if c == '"' or c == "'":
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                    continue
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append(" ")
                i += 1
            continue
        out.append(c)
        if c == "\n":
            line_start = True
        elif not c.isspace():
            line_start = False
        i += 1
    return "".join(out)


TOKEN_RE = re.compile(r"[A-Za-z_]\w*|\d[\w.]*|::|->|<<|>>|\S")


class Tok:
    __slots__ = ("text", "line")

    def __init__(self, text, line):
        self.text = text
        self.line = line

    def __repr__(self):
        return f"{self.text}@{self.line}"


def tokenize(stripped):
    toks = []
    line = 1
    pos = 0
    for m in TOKEN_RE.finditer(stripped):
        line += stripped.count("\n", pos, m.start())
        pos = m.start()
        toks.append(Tok(m.group(0), line))
    return toks


def is_ident(t):
    return bool(re.fullmatch(r"[A-Za-z_]\w*", t))


def match_brackets(toks):
    """Forward pass building open->close and close->open maps for () and {}."""
    open_of, close_of = {}, {}
    stacks = {"(": [], "{": []}
    pair = {")": "(", "}": "{"}
    for i, t in enumerate(toks):
        if t.text in ("(", "{"):
            stacks[t.text].append(i)
        elif t.text in (")", "}"):
            st = stacks[pair[t.text]]
            if st:
                j = st.pop()
                open_of[i] = j
                close_of[j] = i
    return open_of, close_of


# --------------------------------------------------------------------------
# Scope scanning: function definitions with name, signature and body extents.
# --------------------------------------------------------------------------


class FunctionUnit:
    def __init__(self, name, qualified, line, sig_tokens, body_tokens):
        self.name = name            # unqualified ("InsertTokens")
        self.qualified = qualified  # "Collection::InsertTokens"
        self.line = line
        self.sig_tokens = sig_tokens    # tokens between param ')' and '{'
        self.body_tokens = body_tokens  # tokens inside the body braces


def _skip_trailing_return(toks, k, open_of):
    """From index k (just before '{'), skip a trailing return type back to
    its '->'..')' if present. Returns the index of the param-list ')' or
    None."""
    limit = 60
    while k >= 0 and limit:
        t = toks[k].text
        if t == ")":
            return k
        if t in (";", "{", "}"):
            return None
        if t == ">" :
            # jump over template argument list conservatively
            depth = 1
            k -= 1
            while k >= 0 and depth and limit:
                if toks[k].text == ">":
                    depth += 1
                elif toks[k].text == "<":
                    depth -= 1
                k -= 1
                limit -= 1
            continue
        k -= 1
        limit -= 1
    return None


def classify_brace(toks, b, open_of, in_function):
    """Classifies the '{' at index b. Returns (kind, name, param_close) with
    kind in {'function','namespace','class','block','init'}."""
    k = b - 1
    while k >= 0:
        t = toks[k].text
        if t in ("const", "noexcept", "override", "final", "mutable", "try",
                 "&", "&&"):
            k -= 1
            continue
        if t == ")":
            j = open_of.get(k)
            if j is None:
                return ("block", None, None)
            pre = toks[j - 1].text if j > 0 else ""
            if pre in CONTROL_KEYWORDS:
                return ("block", None, None)
            if re.fullmatch(r"XDB_[A-Z_0-9]+", pre):
                k = j - 2  # annotation macro: keep walking left
                continue
            if pre == "]":
                return ("function", "<lambda>", k)
            if pre == ")":
                # operator()(...) definition
                j2 = open_of.get(j - 1)
                if j2 is not None and j2 > 0 and toks[j2 - 1].text == "operator":
                    return ("function", "operator()", k)
                return ("block", None, None)
            if not is_ident(pre):
                # operator overloads: 'operator' SYMBOL '(' ... ')'
                if j >= 2 and toks[j - 2].text == "operator":
                    return ("function", "operator" + pre, k)
                return ("block", None, None)
            # pre is an identifier: either the function name or a
            # constructor-initializer element like `a_(x)`.
            q = j - 1
            parts = [pre]
            q -= 1
            while q >= 1 and toks[q].text == "::":
                parts.append(toks[q - 1].text)
                q -= 2
            before = toks[q].text if q >= 0 else ""
            if before == ",":
                # skip this initializer element and keep walking
                k = q
                continue
            if before == ":":
                # ctor-init ':' vs access-specifier ':'
                if q >= 1 and toks[q - 1].text in ("public", "private",
                                                   "protected"):
                    return ("function", "::".join(reversed(parts)), k)
                k = q - 1  # ctor-init list: continue to the param list
                continue
            return ("function", "::".join(reversed(parts)), k)
        if t == ">":
            pc = _skip_trailing_return(toks, k, open_of)
            if pc is None:
                return ("init", None, None)
            k = pc
            continue
        if is_ident(t):
            # walk back looking for namespace/class keys
            q = k
            limit = 40
            while q >= 0 and limit:
                tq = toks[q].text
                if tq in (";", "{", "}", ")"):
                    break
                if tq == "namespace":
                    return ("namespace", toks[k].text, None)
                if tq in ("class", "struct", "union"):
                    nm = toks[q + 1].text if q + 1 < len(toks) else ""
                    return ("class", nm, None)
                if tq == "enum":
                    nm_i = q + 1
                    if nm_i < len(toks) and toks[nm_i].text in ("class",
                                                                "struct"):
                        nm_i += 1
                    return ("class", toks[nm_i].text if nm_i < len(toks)
                            else "", None)
                q -= 1
                limit -= 1
            return ("init", None, None)
        if t in ("else", "do"):
            return ("block", None, None)
        if t in ("=", ",", "(", "[", "{", "return", ":"):
            return ("init", None, None)
        if t == "namespace":
            return ("namespace", "<anon>", None)
        return ("block" if in_function else "init", None, None)
    return ("init", None, None)


def scan_functions(toks):
    """Yields FunctionUnits for every function definition (top level or
    inline in a class); lambdas merge into their enclosing function."""
    open_of, close_of = match_brackets(toks)
    units = []
    scope = []  # (kind, name, close_index)
    i = 0
    n = len(toks)
    while i < n:
        if toks[i].text == "{" and i in close_of:
            in_fn = any(s[0] == "function" for s in scope)
            kind, name, param_close = classify_brace(toks, i, open_of, in_fn)
            close = close_of[i]
            if kind == "function" and not in_fn and name not in (None,
                                                                 "<lambda>"):
                cls = "::".join(s[1] for s in scope if s[0] == "class")
                qualified = name if "::" in name else (
                    f"{cls}::{name}" if cls else name)
                sig = toks[param_close + 1:i] if param_close else []
                units.append(FunctionUnit(
                    name.split("::")[-1], qualified, toks[i].line, sig,
                    toks[i + 1:close]))
                scope.append(("function", name, close))
            else:
                scope.append((kind, name or "", close))
        elif toks[i].text == "}":
            while scope and scope[-1][2] == i:
                scope.pop()
        i += 1
    return units


# --------------------------------------------------------------------------
# Shared rule logic over FunctionUnits.
# --------------------------------------------------------------------------


def _call_matches(body, i):
    """True if token i is an identifier immediately invoked: ident '('"""
    return (i + 1 < len(body) and body[i + 1].text == "(")


def _latch_scopes(unit):
    """Yields (index, is_open_event) latch-scope tracking over the body:
    returns a list 'active_at[i]' of booleans: is a latch scope open just
    before token i. XDB_REQUIRES(latch_) in the signature opens the whole
    body."""
    body = unit.body_tokens
    active = [False] * (len(body) + 1)
    always = False
    sig = unit.sig_tokens
    for i, t in enumerate(sig):
        if t.text == "XDB_REQUIRES" or t.text == "XDB_REQUIRES_SHARED":
            for u in sig[i:i + 12]:
                if u.text.endswith("latch_"):
                    always = True
    scopes = []  # depths
    depth = 0
    for i, t in enumerate(body):
        if t.text == "{":
            depth += 1
        elif t.text == "}":
            depth -= 1
            while scopes and scopes[-1] > depth:
                scopes.pop()
        if (t.text in ("ReaderMutexLock", "WriterMutexLock")
                and i + 2 < len(body) and is_ident(body[i + 1].text)
                and body[i + 2].text == "("):
            j = i + 3
            while j < len(body) and body[j].text != ")":
                if body[j].text.endswith("latch_"):
                    scopes.append(depth)
                    break
                j += 1
        active[i + 1] = always or bool(scopes)
    active[0] = always
    return active


def _is_wal_call(body, i):
    """Token index i starts a WAL append/commit call."""
    t = body[i].text
    if (t in ("Append", "AppendRaw", "Commit") and _call_matches(body, i)
            and i >= 2 and body[i - 1].text in ("->", ".")
            and "wal" in body[i - 2].text):
        return f"WalLog::{t}"
    if (LOG_CALL_RE.fullmatch(t) and _call_matches(body, i)
            and i >= 2 and body[i - 1].text in ("->", ".")
            and body[i - 2].text.startswith("engine")):
        return t
    return None


def rule_latch_then_log(path, units, diags):
    for unit in units:
        active = _latch_scopes(unit)
        body = unit.body_tokens
        for i, t in enumerate(body):
            if not active[i]:
                continue
            wal = _is_wal_call(body, i)
            if wal:
                diags.append(Diagnostic(
                    path, t.line, RULE_LATCH_LOG,
                    f"{unit.qualified}: {wal} reachable while a latch_ scope "
                    f"is open — WAL records must be appended BEFORE taking "
                    f"the structure latch (log-before-latch)"))


def rule_lockmgr_in_latch(path, units, diags):
    for unit in units:
        active = _latch_scopes(unit)
        body = unit.body_tokens
        for i, t in enumerate(body):
            if not active[i]:
                continue
            if t.text in ("LockDocument", "LockNode") and _call_matches(
                    body, i):
                diags.append(Diagnostic(
                    path, t.line, RULE_LOCKMGR,
                    f"{unit.qualified}: LockManager::{t.text} inside a "
                    f"latch_ scope — transaction locks are acquired BEFORE "
                    f"the structure latch, never under it"))


def _paren_args(body, i):
    """Token list inside the parens/braces opening at index i (exclusive),
    plus the index just past the closer. body[i] must be '(' or '{'."""
    openers = {"(": ")", "{": "}"}
    closer = openers[body[i].text]
    depth = 1
    j = i + 1
    args = []
    while j < len(body) and depth:
        tj = body[j].text
        if tj in openers:
            depth += 1
        elif tj == closer:
            depth -= 1
            if depth == 0:
                break
        args.append(body[j])
        j += 1
    return args, j + 1


def _args_wait_state(args):
    """The WaitState::k... constant named in a token list, or None."""
    for k in range(2, len(args)):
        if (args[k].text in WAIT_STATE_RANK and args[k - 1].text == "::"
                and args[k - 2].text == "WaitState"):
            return args[k].text
    return None


def _args_mutex_rank(args):
    """(rank, display-name) of the ranked mutex a guard/Mutex construction
    names, or (None, None). Explicit LockRank::k... arguments win over the
    member-name table."""
    for k in range(2, len(args)):
        if (args[k].text in LOCK_RANK_VALUES and args[k - 1].text == "::"
                and args[k - 2].text == "LockRank"):
            return LOCK_RANK_VALUES[args[k].text], f"LockRank::{args[k].text}"
    for a in args:
        if not is_ident(a.text):
            continue
        for mname, mrank in MUTEX_NAME_RANK.items():
            if a.text.endswith(mname):
                return mrank, a.text
    return None, None


def rule_wait_span_rank(path, units, diags):
    """An open WaitSpan (declared, not yet Finish()ed, scope still live)
    must not cover the construction of a mutex guard — or a rank-literal
    Mutex — whose LockRank is strictly below the span's component rank."""
    for unit in units:
        body = unit.body_tokens
        spans = []  # {"var","state","rank","depth","line"}
        depth = 0
        i = 0
        n = len(body)
        while i < n:
            t = body[i]
            if t.text == "{":
                depth += 1
            elif t.text == "}":
                depth -= 1
                spans = [s for s in spans if s["depth"] <= depth]
            elif (t.text == "WaitSpan" and i + 2 < n
                  and is_ident(body[i + 1].text)
                  and body[i + 2].text == "("):
                args, nxt = _paren_args(body, i + 2)
                state = _args_wait_state(args)
                if state is not None:
                    spans.append({"var": body[i + 1].text, "state": state,
                                  "rank": WAIT_STATE_RANK[state],
                                  "depth": depth, "line": t.line})
                i = nxt
                continue
            elif (is_ident(t.text) and i + 2 < n
                  and body[i + 1].text == "." and body[i + 2].text == "Finish"):
                spans = [s for s in spans if s["var"] != t.text]
            elif (spans and t.text in GUARD_TYPES + ("Mutex", "SharedMutex")
                  and i + 2 < n and is_ident(body[i + 1].text)
                  and body[i + 2].text in ("(", "{")):
                args, _ = _paren_args(body, i + 2)
                rank, mutex = _args_mutex_rank(args)
                if rank is not None:
                    for s in spans:
                        if rank < s["rank"]:
                            diags.append(Diagnostic(
                                path, t.line, RULE_WAIT_SPAN,
                                f"{unit.qualified}: {t.text} on {mutex} "
                                f"(rank {rank}) constructed while WaitSpan "
                                f"'{s['var']}' ({s['state']}, component rank "
                                f"{s['rank']}) is open — Finish() the span "
                                f"first, or the {s['state']} bucket absorbs "
                                f"a lower-ranked component's wait"))
            i += 1


MUTATION_MARKERS = ("WriterMutexLock",)


def _is_mutation_marker(body, i):
    t = body[i].text
    if t in MUTATION_MARKERS:
        return True
    if LOG_CALL_RE.fullmatch(t) and _call_matches(body, i):
        return True
    if t.endswith("Locked") and _call_matches(body, i):
        return True
    # A write or DDL body (replay runs them ungated).
    if re.fullmatch(r"Apply[A-Z]\w*", t) and _call_matches(body, i):
        return True
    return False


def rule_guard_writable(path, units, diags):
    for unit in units:
        guards = ENTRY_GUARDS.get(unit.qualified)
        if not guards:
            continue
        body = unit.body_tokens
        guarded = False
        for i, t in enumerate(body):
            if t.text in guards and _call_matches(body, i):
                guarded = True
                break
            if _is_mutation_marker(body, i):
                diags.append(Diagnostic(
                    path, t.line, RULE_GUARD,
                    f"{unit.qualified}: state change ({t.text}) before "
                    f"{' or '.join(guards)} — replica/replay write "
                    f"protection must come first"))
                guarded = True  # one diagnostic per entry point
                break
        if not guarded:
            diags.append(Diagnostic(
                path, unit.line, RULE_GUARD,
                f"{unit.qualified}: mutating entry point never calls "
                f"{' or '.join(guards)}"))


def _passed_record_append(body, i):
    """Token i starts a Log* call that appends the record its function was
    passed, `if (rec) ... LogRecord(*rec)`: a write body logs only when its
    caller hands it a record."""
    if not (i + 4 < len(body) and body[i + 2].text == "*"
            and is_ident(body[i + 3].text) and body[i + 4].text == ")"):
        return False
    cond = ["if", "(", body[i + 3].text, ")"]
    return any([t.text for t in body[k:k + 4]] == cond
               for k in range(max(0, i - 12), i - 3))


def _last_argument_is_null(body, i):
    """The call whose name is token i passes nullptr as its last argument."""
    depth = 0
    for k in range(i + 1, len(body)):
        if body[k].text == "(":
            depth += 1
        elif body[k].text == ")":
            depth -= 1
            if depth == 0:
                return body[k - 1].text == "nullptr" and body[k - 2].text == ","
    return False


def rule_replay_apply(units_by_path, diags):
    """Walks the call graph from the replay roots (by name, across files)
    and flags every WAL append, guard call or ddl_mu_ in what it reaches,
    and every call in it that hands a write body a record to append."""
    local = {}   # path -> name -> [unit]
    every = {}   # name -> [(path, unit)]
    appenders = set()  # names of bodies that append a record they are passed
    for path, units in units_by_path:
        for unit in units:
            local.setdefault(path, {}).setdefault(unit.name, []).append(unit)
            every.setdefault(unit.name, []).append((path, unit))
            body = unit.body_tokens
            if any(LOG_CALL_RE.fullmatch(t.text) and _call_matches(body, i)
                   and _passed_record_append(body, i)
                   for i, t in enumerate(body)):
                appenders.add(unit.name)
    work = [(path, unit) for path, units in units_by_path for unit in units
            if unit.qualified in REPLAY_ROOTS
            or re.fullmatch(r"Apply[A-Z]\w*", unit.name)]
    seen = set()
    while work:
        path, unit = work.pop()
        if id(unit) in seen:
            continue
        seen.add(id(unit))
        body = unit.body_tokens
        for i, t in enumerate(body):
            if t.text == "ddl_mu_":
                diags.append(Diagnostic(
                    path, t.line, RULE_REPLAY,
                    f"{unit.qualified} (run by replay) names ddl_mu_ — "
                    f"replay already holds the WAL ordering, taking the DDL "
                    f"mutex here deadlocks against clients"))
                continue
            if not (is_ident(t.text) and _call_matches(body, i)):
                continue
            if i >= 1 and body[i - 1].text == "::":
                continue
            if LOG_CALL_RE.fullmatch(t.text):
                if not _passed_record_append(body, i):
                    diags.append(Diagnostic(
                        path, t.line, RULE_REPLAY,
                        f"{unit.qualified} (run by replay) calls the WAL "
                        f"append {t.text} — replay must never re-log"))
                continue
            if t.text in REPLAY_FORBIDDEN_CALLS:
                diags.append(Diagnostic(
                    path, t.line, RULE_REPLAY,
                    f"{unit.qualified} (run by replay) calls {t.text} — "
                    f"replay runs the write bodies, never a guarded public "
                    f"mutation"))
                continue
            if t.text in appenders and not _last_argument_is_null(body, i):
                diags.append(Diagnostic(
                    path, t.line, RULE_REPLAY,
                    f"{unit.qualified} (run by replay) hands {t.text} a WAL "
                    f"record to append — replay passes nullptr and never "
                    f"re-logs"))
            callees = local.get(path, {}).get(t.text)
            if callees:
                work.extend((path, u) for u in callees)
            else:
                work.extend(every.get(t.text, []))


def rule_raw_std_sync(path, toks, diags):
    if path.replace(os.sep, "/").endswith("common/mutex.h"):
        return
    for i, t in enumerate(toks):
        if (t.text == "std" and i + 2 < len(toks)
                and toks[i + 1].text == "::"
                and toks[i + 2].text in RAW_SYNC_TYPES):
            diags.append(Diagnostic(
                path, t.line, RULE_RAW_SYNC,
                f"raw std::{toks[i + 2].text} outside common/mutex.h — use "
                f"the annotated, rank-checked wrappers (Mutex, SharedMutex, "
                f"MutexLock, CondVar)"))


# --------------------------------------------------------------------------
# Annotation-coverage audit (headers; lexical by design).
# --------------------------------------------------------------------------

ANNOTATION_MACROS = ("XDB_GUARDED_BY", "XDB_REQUIRES", "XDB_REQUIRES_SHARED",
                     "XDB_EXCLUDES")

# Audit exemptions: the annotation/enforcement layer itself. mutex.h holds
# reference members (`Mutex& mu_`) inside the RAII guards and the macro
# plumbing; lock_order.h is the checker's own API.
AUDIT_EXEMPT = ("common/mutex.h", "common/lock_order.h")

CONTRACT_MACROS = ("XDB_REQUIRES", "XDB_REQUIRES_SHARED", "XDB_EXCLUDES")


def _collect_classes(toks, open_of, close_of):
    """Pass 1: every class/struct extent with its Mutex/SharedMutex value
    members (including brace-initialized `Mutex mu_{LockRank::kX};`).
    Returns (class records, record-by-open-brace-index)."""
    classes = []
    rec_by_open = {}
    stack = []  # (kind, record-or-None) per open brace
    n = len(toks)
    for i, t in enumerate(toks):
        if t.text == "{" and i in close_of:
            in_fn = any(k == "function" for k, _ in stack)
            kind, name, _ = classify_brace(toks, i, open_of, in_fn)
            rec = None
            if kind == "class":
                rec = {"name": name or "<anon>", "open": i,
                       "close": close_of[i], "mutexes": {}}
                classes.append(rec)
                rec_by_open[i] = rec
            stack.append((kind, rec))
        elif t.text == "}" and i in open_of:
            if stack:
                stack.pop()
        elif (t.text in ("Mutex", "SharedMutex") and i + 2 < n
              and is_ident(toks[i + 1].text)
              and toks[i + 2].text in (";", "{")):
            # A value member at class scope (not a local inside an inline
            # body, not a `Mutex&` reference, not a constructor call).
            if any(k == "function" for k, _ in stack):
                continue
            rec = next((r for k, r in reversed(stack) if r is not None),
                       None)
            if rec is not None:
                rec["mutexes"][toks[i + 1].text] = t.line
    return classes, rec_by_open


def audit_header(path, toks, diags, enabled):
    norm = path.replace(os.sep, "/")
    if norm.endswith(AUDIT_EXEMPT):
        return
    open_of, close_of = match_brackets(toks)
    classes, rec_by_open = _collect_classes(toks, open_of, close_of)
    # Pass 2: validate annotations and *Locked declarations against the
    # completed member maps. Annotation references are pooled file-wide for
    # the unannotated-mutex check so `shard.mu`-style dotted references from
    # an outer class cover nested-struct members.
    file_refs = set()
    stack = []  # (kind, record-or-None) per open brace
    n = len(toks)
    i = 0
    while i < n:
        t = toks[i]
        if t.text == "{" and i in close_of:
            rec = rec_by_open.get(i)
            if rec is not None:
                stack.append(("class", rec))
            else:
                in_fn = any(k == "function" for k, _ in stack)
                kind, _, _ = classify_brace(toks, i, open_of, in_fn)
                stack.append((kind, None))
            i += 1
            continue
        if t.text == "}" and i in open_of:
            if stack:
                stack.pop()
            i += 1
            continue
        in_fn = any(k == "function" for k, _ in stack)
        enclosing = [r for _, r in stack if r is not None]
        cls = enclosing[-1] if enclosing else None
        if t.text in ANNOTATION_MACROS and i + 1 < n and \
                toks[i + 1].text == "(":
            close = close_of.get(i + 1)
            if close is not None:
                args = toks[i + 2:close]
                simple = [a.text for a in args if is_ident(a.text)]
                dotted = any(a.text in (".", "->") for a in args)
                file_refs.update(simple)
                if not dotted and cls is not None and RULE_DANGLING in \
                        enabled:
                    for name in simple:
                        if not any(name in r["mutexes"]
                                   for r in enclosing):
                            diags.append(Diagnostic(
                                path, t.line, RULE_DANGLING,
                                f"{t.text}({name}) does not name a "
                                f"Mutex/SharedMutex member of "
                                f"{cls['name']} or an enclosing class"))
                i = close + 1
                continue
        # *Locked declarations at class scope must state a lock contract:
        # XDB_REQUIRES[_SHARED] (caller holds it) or XDB_EXCLUDES (the
        # method takes it itself — e.g. InsertTokensLocked, where "Locked"
        # refers to the document write-lock, not the latch).
        if (RULE_LOCKED_REQ in enabled and is_ident(t.text)
                and t.text.endswith("Locked") and cls is not None
                and not in_fn and i + 1 < n and toks[i + 1].text == "("):
            close = close_of.get(i + 1)
            if close is not None:
                j = close + 1
                has_contract = False
                while j < n and toks[j].text not in (";", "{"):
                    if toks[j].text in CONTRACT_MACROS:
                        has_contract = True
                    j += 1
                if not has_contract:
                    diags.append(Diagnostic(
                        path, t.line, RULE_LOCKED_REQ,
                        f"{cls['name']}::{t.text} is a *Locked method with "
                        f"no lock contract — annotate XDB_REQUIRES (caller "
                        f"holds the lock) or XDB_EXCLUDES (method acquires "
                        f"it)"))
        i += 1
    if RULE_UNANNOTATED in enabled:
        for rec in classes:
            for mname, mline in rec["mutexes"].items():
                if mname not in file_refs:
                    diags.append(Diagnostic(
                        path, mline, RULE_UNANNOTATED,
                        f"{rec['name']}::{mname} is a mutex no "
                        f"XDB_GUARDED_BY/XDB_REQUIRES/XDB_EXCLUDES in this "
                        f"file refers to — the analysis cannot see what it "
                        f"protects"))


# --------------------------------------------------------------------------
# Backends.
# --------------------------------------------------------------------------


def lex_units(text):
    toks = tokenize(strip_noncode(text))
    return toks, scan_functions(toks)


def clang_units(path, compile_args):
    """AST-accurate FunctionUnits via libclang. Token streams come from the
    real lexer; function extents and qualified names from the AST."""
    from clang import cindex  # noqa: deferred import; availability gated

    index = cindex.Index.create()
    tu = index.parse(path, args=compile_args)
    units = []
    toks = []
    for tok in tu.get_tokens(extent=tu.cursor.extent):
        if tok.kind.name in ("COMMENT",):
            continue
        if tok.location.file and tok.location.file.name != path:
            continue
        toks.append(Tok(tok.spelling, tok.location.line))

    def walk(cur):
        for c in cur.get_children():
            if c.location.file and c.location.file.name != path:
                continue
            if c.kind.name in ("FUNCTION_DECL", "CXX_METHOD", "CONSTRUCTOR",
                               "DESTRUCTOR") and c.is_definition():
                body = [ch for ch in c.get_children()
                        if ch.kind.name == "COMPOUND_STMT"]
                if body:
                    b = body[0]
                    body_toks = [Tok(t.spelling, t.location.line)
                                 for t in tu.get_tokens(extent=b.extent)
                                 if t.kind.name != "COMMENT"][1:-1]
                    sig_toks = [Tok(t.spelling, t.location.line)
                                for t in tu.get_tokens(extent=c.extent)
                                if t.kind.name != "COMMENT"
                                and t.location.line <= b.extent.start.line]
                    parent = c.semantic_parent
                    qual = c.spelling
                    if parent and parent.kind.name in ("CLASS_DECL",
                                                       "STRUCT_DECL"):
                        qual = f"{parent.spelling}::{c.spelling}"
                    units.append(FunctionUnit(c.spelling, qual,
                                              c.location.line, sig_toks,
                                              body_toks))
            walk(c)

    walk(tu.cursor)
    return toks, units


def load_compile_commands(build_dir):
    ccpath = os.path.join(build_dir, "compile_commands.json")
    if not os.path.exists(ccpath):
        return {}
    with open(ccpath) as f:
        entries = json.load(f)
    args = {}
    for e in entries:
        file = os.path.normpath(os.path.join(e["directory"], e["file"]))
        cmd = e.get("arguments") or e["command"].split()
        # keep -I/-D/-std flags for the parse
        keep = []
        it = iter(cmd[1:])
        for a in it:
            if a.startswith(("-I", "-D", "-std=")):
                keep.append(a)
            elif a in ("-isystem",):
                keep.append(a)
                keep.append(next(it, ""))
        args[file] = keep
    return args


# --------------------------------------------------------------------------
# Driver.
# --------------------------------------------------------------------------


def collect_files(root):
    exts = (".cc", ".h")
    files = []
    for dirpath, _, names in os.walk(root):
        for nm in sorted(names):
            if nm.endswith(exts):
                files.append(os.path.join(dirpath, nm))
    return files


def run(paths, backend, compile_args_by_file, rules):
    diags = []
    use_clang = backend == "clang"
    if backend == "auto":
        try:
            from clang import cindex  # noqa: F401
            use_clang = True
        except ImportError:
            use_clang = False
    units_by_path = []  # rule (c) walks calls across files
    for path in paths:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        rel = path
        lex_toks = None
        if use_clang and path.endswith(".cc"):
            try:
                toks, units = clang_units(
                    path, compile_args_by_file.get(os.path.normpath(path),
                                                   []))
            except Exception as exc:  # fall back per-file
                print(f"xdb_lint: clang backend failed on {path}: {exc}; "
                      f"falling back to lex", file=sys.stderr)
                toks, units = lex_units(text)
        else:
            toks, units = lex_units(text)
            lex_toks = toks
        if RULE_RAW_SYNC in rules:
            rule_raw_std_sync(rel, toks, diags)
        if path.endswith(".cc"):
            if RULE_LATCH_LOG in rules:
                rule_latch_then_log(rel, units, diags)
            if RULE_LOCKMGR in rules:
                rule_lockmgr_in_latch(rel, units, diags)
            if RULE_WAIT_SPAN in rules:
                rule_wait_span_rank(rel, units, diags)
            if RULE_GUARD in rules:
                rule_guard_writable(rel, units, diags)
            units_by_path.append((rel, units))
        if path.endswith(".h"):
            if lex_toks is None:
                lex_toks = tokenize(strip_noncode(text))
            audit_header(rel, lex_toks, diags, rules)
    if RULE_REPLAY in rules:
        rule_replay_apply(units_by_path, diags)
    return diags


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="directory tree to lint (default: <repo>/src)")
    ap.add_argument("--backend", choices=["auto", "clang", "lex"],
                    default="auto")
    ap.add_argument("-p", "--build-dir", default=None,
                    help="build dir with compile_commands.json "
                         "(clang backend)")
    ap.add_argument("--rules", default=None,
                    help="comma-separated rule subset (default: all)")
    ap.add_argument("files", nargs="*", help="explicit files to lint")
    args = ap.parse_args(argv)

    rules = set(ALL_RULES)
    if args.rules:
        rules = set(args.rules.split(","))
        unknown = rules - set(ALL_RULES)
        if unknown:
            ap.error(f"unknown rules: {sorted(unknown)}")

    if args.files:
        paths = args.files
    else:
        root = args.root
        if root is None:
            root = os.path.join(
                os.path.dirname(os.path.dirname(
                    os.path.dirname(os.path.abspath(__file__)))), "src")
        paths = collect_files(root)

    compile_args = {}
    if args.build_dir:
        compile_args = load_compile_commands(args.build_dir)

    diags = run(paths, args.backend, compile_args, rules)
    for d in diags:
        print(d)
    if diags:
        print(f"xdb_lint: {len(diags)} finding(s)", file=sys.stderr)
        return 1
    print(f"xdb_lint: clean ({len(paths)} files)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
