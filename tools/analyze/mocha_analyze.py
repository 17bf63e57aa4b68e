#!/usr/bin/env python3
"""mocha-analyze: semantic protocol checker for the mocha live runtime.

Three whole-call-graph checks over the annotation vocabulary declared in
src/util/analysis_annotations.h:

  reactor-blocking   [check 1a] No path from reactor context (an fd
                     handler, timer, post()ed lambda, endpoint port
                     handler or run_on_loop callback, or any function
                     marked MOCHA_REACTOR_ONLY) may reach a function
                     marked MOCHA_BLOCKING or a known-blocking call
                     (connect, poll, usleep, condition-variable waits,
                     ...). MOCHA_REACTOR_SAFE functions are trusted and
                     not descended into.
  reactor-affinity   [check 1b] A MOCHA_REACTOR_ONLY function may only
                     be called from reactor context (another
                     MOCHA_REACTOR_ONLY function or a reactor-armed
                     lambda). Constructors/destructors are exempt:
                     pre-run configuration and post-join teardown are
                     the documented exceptions in reactor.h.
  raw-wire           [check 2] In the wire-facing directories
                     (src/live, src/net, src/replica, src/util/buffer.h)
                     parsing of network-sourced bytes must flow through
                     util::WireReader / checked helpers. memcpy,
                     reinterpret_cast, and get_uNN-style raw reads are
                     findings unless the site carries MOCHA_RAW_WIRE_OK.
  callback-capture   [check 3] Lambdas armed on a reactor (post,
                     call_after, call_at, watch_fd, set_port_handler,
                     run_on_loop, send_tracked) must not capture
                     locals by reference, and may capture `this` only
                     from a class carrying the class-level
                     MOCHA_REACTOR_SAFE marker (documented teardown
                     ordering: the destructor stops and joins the
                     reactor before members are destroyed).

Suppression: a MOCHA_RAW_WIRE_OK or MOCHA_REACTOR_SAFE token appearing
in the source text (macro or comment) suppresses the matching findings
on its own line and the three lines that follow.

Frontends (--frontend auto|clang|text):
  clang   libclang via clang.cindex, driving compile_commands.json
          (-p/--build-dir). Precise name resolution and AST-level
          annotation reads. Requires a working libclang, which not
          every environment has.
  text    A self-contained fallback: comment/string stripping,
          brace-matched structure scanning, and name-based call-graph
          resolution. No dependencies beyond the Python stdlib. This is
          the frontend wired into ctest and the CI lint gate.
Both frontends populate the same intermediate model; the checks are
shared.

Usage:
  mocha_analyze.py                      # analyze the repo tree
  mocha_analyze.py --frontend=text      # force the fallback frontend
  mocha_analyze.py --frontend=clang -p build
  mocha_analyze.py --self-test          # run the fixture corpus

Exit status: 0 clean, 1 findings, 2 internal/usage error.
"""

from __future__ import annotations

import argparse
import bisect
import os
import re
import sys

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")

# Directories whose functions participate in the reactor checks (1, 3).
LIVE_DIRS = ("src/live",)
# Files whose raw byte handling is policed by check 2.
WIRE_DIRS = ("src/live", "src/net", "src/replica")
WIRE_EXTRA_FILES = ("src/util/buffer.h",)

# Calls whose lambda arguments run on a reactor's loop thread. Endpoint
# port handlers, run_on_loop callbacks and tracked-send outcomes run on the
# endpoint's loop.
ARMING_APIS = ("post", "call_after", "call_at", "watch_fd",
               "set_port_handler", "run_on_loop", "send_tracked")

# ::name calls (global scope) that block the calling thread.
GLOBAL_BLOCKING = {
    "connect", "poll", "ppoll", "select", "pselect", "epoll_wait",
    "epoll_pwait", "epoll_pwait2", "usleep", "sleep", "nanosleep", "flock",
    "fsync",
}
# Member / namespace-qualified calls that block regardless of receiver.
MEMBER_BLOCKING = {
    "wait", "wait_for", "wait_until", "wait_for_us",
    "sleep_for", "sleep_until", "usleep",
}

ANNOTATION_TOKENS = ("MOCHA_REACTOR_ONLY", "MOCHA_REACTOR_SAFE", "MOCHA_BLOCKING")
TOKEN_TO_ANN = {
    "MOCHA_REACTOR_ONLY": "reactor_only",
    "MOCHA_REACTOR_SAFE": "reactor_safe",
    "MOCHA_BLOCKING": "blocking",
}
ANNOTATE_TO_ANN = {
    "mocha::reactor_only": "reactor_only",
    "mocha::reactor_safe": "reactor_safe",
    "mocha::blocking": "blocking",
}

CPP_KEYWORDS = {
    "if", "while", "for", "switch", "return", "sizeof", "catch", "throw",
    "new", "delete", "alignof", "decltype", "static_assert", "noexcept",
    "alignas", "typeid", "assert", "defined", "operator", "co_await",
    "co_return", "co_yield", "case", "default", "else", "do", "goto",
}

SUPPRESS_WINDOW = 3  # marker line + the three lines after it


class Call:
    __slots__ = ("name", "file", "line", "is_global", "argtail")

    def __init__(self, name, file, line, is_global, argtail=""):
        self.name = name
        self.file = file
        self.line = line
        self.is_global = is_global
        self.argtail = argtail


class FunctionInfo:
    __slots__ = ("qual", "name", "class_name", "file", "line", "ann",
                 "calls", "is_ctor_dtor", "is_lambda_root", "lambda_api",
                 "captures")

    def __init__(self, qual, name, class_name, file, line):
        self.qual = qual
        self.name = name
        self.class_name = class_name
        self.file = file
        self.line = line
        self.ann = set()
        self.calls = []
        self.is_ctor_dtor = False
        self.is_lambda_root = False
        self.lambda_api = None
        self.captures = None  # raw capture-list text for lambda roots


class Model:
    def __init__(self):
        self.functions = []            # [FunctionInfo]
        self.by_qual = {}              # qual -> FunctionInfo (merged)
        self.by_name = {}              # simple name -> [FunctionInfo]
        self.reactor_safe_classes = set()
        self.raw_sites = []            # [(file, line, excerpt)]
        self.raw_lines = {}            # file -> [original line text]

    def add_function(self, fi):
        existing = self.by_qual.get(fi.qual)
        if existing is not None and not fi.is_lambda_root:
            existing.ann |= fi.ann
            existing.calls.extend(fi.calls)
            return existing
        self.by_qual[fi.qual] = fi
        self.functions.append(fi)
        self.by_name.setdefault(fi.name, []).append(fi)
        return fi


class Finding:
    def __init__(self, file, line, check, message):
        self.file = file
        self.line = line
        self.check = check
        self.message = message

    def render(self):
        rel = os.path.relpath(self.file, REPO_ROOT)
        if rel.startswith(".."):
            rel = self.file
        return f"{rel}:{self.line}: [{self.check}] {self.message}"


# ---------------------------------------------------------------------------
# Text frontend: strip comments/strings, scan structure, extract the model.
# ---------------------------------------------------------------------------

def strip_code(text):
    """Blank comments, string and char literals, preserving offsets."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n:
            nxt = text[i + 1]
            if nxt == "/":
                j = text.find("\n", i)
                j = n if j < 0 else j
                for k in range(i, j):
                    out[k] = " "
                i = j
                continue
            if nxt == "*":
                j = text.find("*/", i + 2)
                j = n - 2 if j < 0 else j
                for k in range(i, j + 2):
                    if out[k] != "\n":
                        out[k] = " "
                i = j + 2
                continue
        if c == '"':
            if i > 0 and text[i - 1] == "R":  # raw string R"delim(...)delim"
                m = re.match(r'R"([^(\s]*)\(', text[i - 1:i + 20])
                if m:
                    close = ")" + m.group(1) + '"'
                    j = text.find(close, i)
                    j = n - len(close) if j < 0 else j
                    for k in range(i, j + len(close)):
                        if out[k] != "\n":
                            out[k] = " "
                    i = j + len(close)
                    continue
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\\":
                    j += 1
                j += 1
            for k in range(i, min(j + 1, n)):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 1
            continue
        if c == "'":
            if i > 0 and text[i - 1].isdigit():  # digit separator 1'000'000
                out[i] = " "
                i += 1
                continue
            j = i + 1
            while j < n and text[j] != "'":
                if text[j] == "\\":
                    j += 1
                j += 1
            for k in range(i, min(j + 1, n)):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 1
            continue
        i += 1
    return "".join(out)


def match_brace(code, open_pos):
    depth = 0
    for i in range(open_pos, len(code)):
        c = code[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(code) - 1


def match_paren(code, open_pos):
    depth = 0
    for i in range(open_pos, len(code)):
        c = code[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return i
    return len(code) - 1


class LineIndex:
    def __init__(self, text):
        self.offsets = [m.start() for m in re.finditer("\n", text)]

    def line(self, pos):
        return bisect.bisect_right(self.offsets, pos - 1) + 1


FUNC_NAME_RE = re.compile(r"([\w~][\w~]*(?:\s*::\s*[\w~][\w~]*)*)\s*\($")


def _func_name_before_paren(header, paren_rel):
    """Identifier (possibly Class::qualified) directly before '(' or None."""
    m = re.search(r"((?:[A-Za-z_~]\w*\s*::\s*)*[A-Za-z_~]\w*)\s*$",
                  header[:paren_rel])
    if not m:
        return None
    name = re.sub(r"\s+", "", m.group(1))
    last = name.rsplit("::", 1)[-1].lstrip("~")
    if last in CPP_KEYWORDS:
        return None
    return name


def _classify_header(header):
    """-> (kind, name) where kind in {namespace, enum, function, class, other}."""
    h = header.strip()
    if not h:
        return ("other", None)
    if re.search(r"\benum\b", h):
        return ("enum", None)
    if re.search(r"\bnamespace\b", h) and "(" not in h:
        m = re.search(r"\bnamespace\s+([\w:]+)?", h)
        return ("namespace", m.group(1) if m and m.group(1) else None)
    paren = h.find("(")
    if paren >= 0:
        name = _func_name_before_paren(h, paren)
        if name:
            return ("function", name)
    m = re.search(r"\b(class|struct)\b", h)
    if m:
        # first identifier after class/struct that is not a marker macro
        tokens = re.findall(r"[A-Za-z_]\w*", h[m.end():])
        for tok in tokens:
            if tok in ("final", "alignas", "public", "private", "protected"):
                continue
            if tok.startswith("MOCHA_") or tok.isupper():
                continue
            return ("class", tok)
        return ("class", None)
    return ("other", None)


def _extract_annotations(chunk):
    ann = set()
    for tok, a in TOKEN_TO_ANN.items():
        if re.search(r"\b%s\b" % tok, chunk):
            ann.add(a)
    return ann


def _extract_calls(model, fi, code, start, end, lidx, path):
    for m in re.finditer(r"(?<![\w])(::\s*)?([A-Za-z_]\w*)\s*\(", code[start:end]):
        name = m.group(2)
        if name in CPP_KEYWORDS:
            continue
        abs_open = start + m.end() - 1
        is_global = m.group(1) is not None
        argtail = ""
        if name in MEMBER_BLOCKING or name in GLOBAL_BLOCKING or \
                name == "recv_for" or name in model.by_name:
            close = match_paren(code, abs_open)
            argtail = re.sub(r"\s+", " ", code[abs_open + 1:close]).strip()
        fi.calls.append(Call(name, path, lidx.line(start + m.start()),
                             is_global, argtail))


LAMBDA_RE = re.compile(
    r"\[([^\]]*)\]\s*(\([^()]*(?:\([^()]*\)[^()]*)*\))?"
    r"\s*(?:mutable\b\s*)?(?:noexcept\b\s*)?(?:->\s*[\w:<>&*\s]+?)?\s*\{")


def _extract_reactor_lambdas(model, fi, code, body_start, body_end, lidx, path):
    """Find lambdas armed via post/call_after/call_at/watch_fd inside the
    body; register them as synthetic reactor-context functions and return
    their body spans so the caller can blank them out of `fi`'s own text."""
    spans = []
    for m in re.finditer(r"\b(%s)\s*\(" % "|".join(ARMING_APIS),
                         code[body_start:body_end]):
        api = m.group(1)
        open_abs = body_start + m.end() - 1
        close_abs = match_paren(code, open_abs)
        pos = open_abs + 1
        while pos < close_abs:
            lm = LAMBDA_RE.search(code, pos, close_abs + 1)
            if not lm:
                break
            lb_open = lm.end() - 1
            lb_close = match_brace(code, lb_open)
            line = lidx.line(lm.start())
            lam = FunctionInfo(
                qual=f"{fi.qual}::<lambda@{api}:{line}>",
                name=f"<lambda@{api}>", class_name=fi.class_name,
                file=path, line=line)
            lam.is_lambda_root = True
            lam.lambda_api = api
            lam.captures = lm.group(1)
            lam = model.add_function(lam)
            _extract_calls(model, lam, code, lb_open + 1, lb_close, lidx, path)
            spans.append((lb_open + 1, lb_close))
            pos = lb_close + 1
    return spans


def _scan_region(model, code, start, end, class_stack, lidx, path, pending):
    """Scan a namespace/class region; record declarations + definitions.
    `pending` collects (fi, body_start, body_end) for deferred call/lambda
    extraction once all declarations (and thus by_name) are known."""
    i = start
    chunk = start
    while i < end:
        c = code[i]
        if c == ";":
            _handle_decl_chunk(model, code[chunk:i], chunk, class_stack,
                               lidx, path)
            chunk = i + 1
            i += 1
        elif c == "{":
            close = match_brace(code, i)
            header = code[chunk:i]
            kind, name = _classify_header(header)
            if kind == "namespace":
                _scan_region(model, code, i + 1, close, class_stack, lidx,
                             path, pending)
            elif kind == "class":
                if name and re.search(r"\bMOCHA_REACTOR_SAFE\b", header):
                    model.reactor_safe_classes.add(name)
                _scan_region(model, code, i + 1, close,
                             class_stack + ([name] if name else []),
                             lidx, path, pending)
            elif kind == "function":
                fi = _record_function(model, header, name, chunk, class_stack,
                                      lidx, path)
                pending.append((fi, i + 1, close))
            elif kind == "enum":
                pass
            else:
                _scan_region(model, code, i + 1, close, class_stack, lidx,
                             path, pending)
            chunk = close + 1
            i = close + 1
        else:
            i += 1
    _handle_decl_chunk(model, code[chunk:end], chunk, class_stack, lidx, path)


def _qualify(name, class_stack):
    if "::" in name:
        return name, name.rsplit("::", 1)[0].rsplit("::", 1)[-1]
    if class_stack:
        return f"{class_stack[-1]}::{name}", class_stack[-1]
    return name, None


def _record_function(model, header, name, chunk_pos, class_stack, lidx, path):
    qual, cls = _qualify(name, class_stack)
    simple = qual.rsplit("::", 1)[-1]
    fi = FunctionInfo(qual, simple, cls, path, lidx.line(chunk_pos))
    fi.ann = _extract_annotations(header)
    if cls is not None and (simple == cls or simple.startswith("~")):
        fi.is_ctor_dtor = True
    return model.add_function(fi)


def _handle_decl_chunk(model, chunk, chunk_pos, class_stack, lidx, path):
    ann = _extract_annotations(chunk)
    if not ann:
        return
    if re.search(r"\b(class|struct)\b", chunk) and "(" not in chunk:
        kind, name = _classify_header(chunk)
        if kind == "class" and name and "reactor_safe" in ann:
            model.reactor_safe_classes.add(name)
        return
    paren = chunk.find("(")
    if paren < 0:
        return
    name = _func_name_before_paren(chunk, paren)
    if not name:
        return
    _record_function(model, chunk, name, chunk_pos, class_stack, lidx, path)


RAW_SITE_RE = re.compile(
    r"\bmemcpy\s*\(|\breinterpret_cast\b|\bget_u(?:8|16|32|64)\s*\(")


def build_model_text(live_files, wire_files):
    model = Model()
    every = []
    seen = set()
    for p in list(live_files) + list(wire_files):
        if p not in seen:
            seen.add(p)
            every.append(p)
    stripped_by_file = {}
    for path in every:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            text = f.read()
        model.raw_lines[path] = text.splitlines()
        stripped_by_file[path] = strip_code(text)

    live_set = set(live_files)
    pending = []
    for path in every:
        if path not in live_set:
            continue
        code = stripped_by_file[path]
        lidx = LineIndex(code)
        _scan_region(model, code, 0, len(code), [], lidx, path, pending)

    # Second pass: calls + reactor lambdas (now that by_name is complete).
    for fi, body_start, body_end in pending:
        code = stripped_by_file[fi.file]
        lidx = LineIndex(code)
        spans = _extract_reactor_lambdas(model, fi, code, body_start,
                                         body_end, lidx, fi.file)
        if spans:
            buf = list(code[body_start:body_end])
            for s, e in spans:
                for k in range(s - body_start, e - body_start):
                    if buf[k] != "\n":
                        buf[k] = " "
            scan_text = "".join(buf)
            tmp = code[:body_start] + scan_text + code[body_end:]
            _extract_calls(model, fi, tmp, body_start, body_end, lidx, fi.file)
        else:
            _extract_calls(model, fi, code, body_start, body_end, lidx,
                           fi.file)

    # Raw wire sites (check 2) are purely line-based.
    for path in wire_files:
        code = stripped_by_file[path]
        for lineno, line in enumerate(code.splitlines(), start=1):
            if RAW_SITE_RE.search(line):
                model.raw_sites.append(
                    (path, lineno, model.raw_lines[path][lineno - 1].strip()))
    return model


# ---------------------------------------------------------------------------
# Clang frontend: same model, built from the AST via clang.cindex.
# ---------------------------------------------------------------------------

def _load_cindex():
    import clang.cindex as cindex  # noqa: raises ImportError when absent
    try:
        cindex.Index.create()
        return cindex
    except Exception:
        pass
    import glob as _glob
    candidates = []
    for pat in ("/usr/lib/llvm-*/lib/libclang*.so*",
                "/usr/lib/*/libclang*.so*", "/usr/local/lib/libclang*.so*"):
        candidates.extend(sorted(_glob.glob(pat), reverse=True))
    for cand in candidates:
        try:
            cindex.Config.loaded = False
            cindex.Config.set_library_file(cand)
            cindex.Index.create()
            return cindex
        except Exception:
            continue
    raise RuntimeError("no usable libclang found for clang.cindex")


def build_model_clang(live_files, wire_files, build_dir):
    cindex = _load_cindex()
    ck = cindex.CursorKind

    model = Model()
    for p in set(list(live_files) + list(wire_files)):
        with open(p, "r", encoding="utf-8", errors="replace") as f:
            model.raw_lines[p] = f.read().splitlines()

    live_set = {os.path.abspath(p) for p in live_files}
    wire_set = {os.path.abspath(p) for p in wire_files}
    db = cindex.CompilationDatabase.fromDirectory(build_dir)
    index = cindex.Index.create()

    func_kinds = {ck.CXX_METHOD, ck.FUNCTION_DECL, ck.CONSTRUCTOR,
                  ck.DESTRUCTOR, ck.FUNCTION_TEMPLATE}
    seen_defs = set()

    def annotations_of(cursor):
        ann = set()
        for decl in (cursor, cursor.canonical):
            for ch in decl.get_children():
                if ch.kind == ck.ANNOTATE_ATTR and \
                        ch.spelling in ANNOTATE_TO_ANN:
                    ann.add(ANNOTATE_TO_ANN[ch.spelling])
        return ann

    def lambda_captures_text(cursor):
        toks = [t.spelling for t in cursor.get_tokens()]
        if not toks or toks[0] != "[":
            return ""
        depth = 0
        out = []
        for t in toks:
            if t == "[":
                depth += 1
                if depth == 1:
                    continue
            elif t == "]":
                depth -= 1
                if depth == 0:
                    break
            out.append(t)
        return " ".join(out)

    def walk_body(cursor, fi, path, in_arm_call):
        for ch in cursor.get_children():
            kind = ch.kind
            if kind == ck.LAMBDA_EXPR:
                line = ch.location.line
                if in_arm_call:
                    lam = FunctionInfo(
                        qual=f"{fi.qual}::<lambda@{in_arm_call}:{line}>",
                        name=f"<lambda@{in_arm_call}>",
                        class_name=fi.class_name, file=path, line=line)
                    lam.is_lambda_root = True
                    lam.lambda_api = in_arm_call
                    lam.captures = lambda_captures_text(ch)
                    lam = model.add_function(lam)
                    walk_body(ch, lam, path, None)
                else:
                    walk_body(ch, fi, path, None)
                continue
            if kind == ck.CALL_EXPR:
                ref = ch.referenced
                name = (ref.spelling if ref is not None else ch.spelling) or ""
                is_global = False
                if ref is not None and ref.semantic_parent is not None and \
                        ref.semantic_parent.kind in (
                            ck.TRANSLATION_UNIT, ck.LINKAGE_SPEC):
                    is_global = True
                argtail = ""
                args = list(ch.get_arguments())
                if args:
                    last = args[-1]
                    ltoks = [t.spelling for t in last.get_tokens()]
                    argtail = ", ".join(
                        ["..."] * (len(args) - 1) + ["".join(ltoks)])
                if name:
                    fi.calls.append(Call(name, path, ch.location.line,
                                         is_global, argtail))
                if name == "memcpy" or re.fullmatch(r"get_u(?:8|16|32|64)",
                                                    name or ""):
                    ap = os.path.abspath(str(ch.location.file))
                    if ap in wire_set:
                        model.raw_sites.append((ap, ch.location.line, name))
                walk_body(ch, fi, path,
                          name if name in ARMING_APIS else None)
                continue
            if kind == ck.CXX_REINTERPRET_CAST_EXPR:
                ap = os.path.abspath(str(ch.location.file)) \
                    if ch.location.file else None
                if ap in wire_set:
                    model.raw_sites.append(
                        (ap, ch.location.line, "reinterpret_cast"))
            walk_body(ch, fi, path, in_arm_call)

    def visit(cursor):
        for ch in cursor.get_children():
            loc = ch.location
            floc = os.path.abspath(str(loc.file)) if loc.file else None
            if ch.kind in func_kinds and floc in live_set:
                parent = ch.semantic_parent
                cls = parent.spelling if parent is not None and parent.kind in (
                    ck.CLASS_DECL, ck.STRUCT_DECL, ck.CLASS_TEMPLATE) else None
                simple = ch.spelling
                qual = f"{cls}::{simple}" if cls else simple
                ann = annotations_of(ch)
                if ch.is_definition():
                    key = (floc, loc.line, qual)
                    if key in seen_defs:
                        continue
                    seen_defs.add(key)
                    fi = FunctionInfo(qual, simple, cls, floc, loc.line)
                    fi.ann = ann
                    if ch.kind in (ck.CONSTRUCTOR, ck.DESTRUCTOR):
                        fi.is_ctor_dtor = True
                    fi = model.add_function(fi)
                    walk_body(ch, fi, floc, None)
                elif ann:
                    fi = FunctionInfo(qual, qual.rsplit("::", 1)[-1], cls,
                                      floc, loc.line)
                    fi.ann = ann
                    model.add_function(fi)
            if ch.kind in (ck.CLASS_DECL, ck.STRUCT_DECL, ck.CLASS_TEMPLATE) \
                    and floc in live_set:
                for a in ch.get_children():
                    if a.kind == ck.ANNOTATE_ATTR and \
                            ANNOTATE_TO_ANN.get(a.spelling) == "reactor_safe":
                        model.reactor_safe_classes.add(ch.spelling)
            if ch.kind in (ck.NAMESPACE, ck.CLASS_DECL, ck.STRUCT_DECL,
                           ck.CLASS_TEMPLATE, ck.LINKAGE_SPEC):
                visit(ch)

    parsed = set()
    for cmd in db.getAllCompileCommands() or []:
        src = os.path.abspath(os.path.join(cmd.directory, cmd.filename))
        if src in parsed:
            continue
        if src not in live_set and src not in wire_set:
            continue
        parsed.add(src)
        args = [a for a in list(cmd.arguments)[1:]
                if a not in ("-c", "-o", cmd.filename) and
                not a.endswith(".o")]
        tu = index.parse(src, args=args)
        visit(tu.cursor)
    if not parsed:
        raise RuntimeError(
            f"compile_commands.json in {build_dir} matched no analyzed files")
    return model


# ---------------------------------------------------------------------------
# Checks (shared between frontends).
# ---------------------------------------------------------------------------

def _suppressed(model, path, line, token):
    lines = model.raw_lines.get(path)
    if not lines:
        return False
    lo = max(1, line - SUPPRESS_WINDOW)
    hi = min(line, len(lines))
    return any(token in lines[i - 1] for i in range(lo, hi + 1))


def _resolve(model, call, caller_class):
    cands = model.by_name.get(call.name, [])
    cands = [c for c in cands if not c.is_lambda_root]
    same = [c for c in cands if caller_class is not None and
            c.class_name == caller_class]
    return same or cands


def _nonblocking_special_case(call):
    # recv_for(port, 0) is a zero-timeout poll: it never blocks.
    return call.name == "recv_for" and \
        re.search(r"(,|^)\s*0\s*$", call.argtail or "")


def check_reactor_blocking(model, findings):
    roots = [f for f in model.functions
             if f.is_lambda_root or "reactor_only" in f.ann]
    reported = set()

    def report(root, path, call, what):
        key = (root.qual, call.file, call.line)
        if key in reported:
            return
        reported.add(key)
        chain = " -> ".join([root.qual] + [p.name for p in path] + [what])
        findings.append(Finding(
            call.file, call.line, "reactor-blocking",
            f"reactor context reaches blocking call: {chain}"))

    def walk(fi, root, path, visited):
        for call in fi.calls:
            if _nonblocking_special_case(call):
                continue
            if call.is_global:
                if call.name in GLOBAL_BLOCKING and not _suppressed(
                        model, call.file, call.line, "MOCHA_REACTOR_SAFE"):
                    report(root, path, call, f"::{call.name}")
                continue
            if call.name in MEMBER_BLOCKING:
                if not _suppressed(model, call.file, call.line,
                                   "MOCHA_REACTOR_SAFE"):
                    report(root, path, call, f"{call.name}()")
                continue
            for target in _resolve(model, call, fi.class_name):
                if "reactor_safe" in target.ann:
                    continue
                if "blocking" in target.ann:
                    if not _suppressed(model, call.file, call.line,
                                       "MOCHA_REACTOR_SAFE"):
                        report(root, path, call,
                               f"{target.qual} [MOCHA_BLOCKING]")
                    continue
                if target in visited:
                    continue
                visited.add(target)
                walk(target, root, path + [target], visited)

    for root in roots:
        walk(root, root, [], {root})


def check_reactor_affinity(model, findings):
    for fi in model.functions:
        if fi.is_lambda_root or "reactor_only" in fi.ann or fi.is_ctor_dtor:
            continue
        for call in fi.calls:
            if call.is_global:
                continue
            targets = _resolve(model, call, fi.class_name)
            ro = [t for t in targets if "reactor_only" in t.ann]
            if not ro:
                continue
            if _suppressed(model, call.file, call.line, "MOCHA_REACTOR_SAFE"):
                continue
            findings.append(Finding(
                call.file, call.line, "reactor-affinity",
                f"{ro[0].qual} is MOCHA_REACTOR_ONLY but is called from "
                f"{fi.qual}, which is not reactor context"))


def check_raw_wire(model, findings):
    for path, line, excerpt in model.raw_sites:
        if _suppressed(model, path, line, "MOCHA_RAW_WIRE_OK"):
            continue
        findings.append(Finding(
            path, line, "raw-wire",
            "raw byte access in wire-facing code; use util::WireReader / "
            f"checked helpers or justify with MOCHA_RAW_WIRE_OK ({excerpt})"))


def check_callback_capture(model, findings):
    for fi in model.functions:
        if not fi.is_lambda_root:
            continue
        caps = (fi.captures or "").strip()
        if not caps:
            continue
        entries = []
        depth = 0
        cur = []
        for c in caps:
            if c in "([{<":
                depth += 1
            elif c in ")]}>":
                depth -= 1
            if c == "," and depth == 0:
                entries.append("".join(cur).strip())
                cur = []
            else:
                cur.append(c)
        if cur:
            entries.append("".join(cur).strip())
        for entry in entries:
            if not entry:
                continue
            if entry == "&" or (entry.startswith("&") and
                                not entry.startswith("&&")):
                if not _suppressed(model, fi.file, fi.line,
                                   "MOCHA_REACTOR_SAFE"):
                    findings.append(Finding(
                        fi.file, fi.line, "callback-capture",
                        f"lambda armed via {fi.lambda_api}() captures by "
                        f"reference ([{entry}]); the callback can outlive "
                        "the enclosing frame — capture by value"))
            elif entry == "this":
                cls = fi.class_name
                if cls not in model.reactor_safe_classes and not _suppressed(
                        model, fi.file, fi.line, "MOCHA_REACTOR_SAFE"):
                    findings.append(Finding(
                        fi.file, fi.line, "callback-capture",
                        f"lambda armed via {fi.lambda_api}() captures `this` "
                        f"but {cls or 'the enclosing type'} has no documented "
                        "teardown ordering with the reactor — mark the class "
                        "MOCHA_REACTOR_SAFE once its destructor stops and "
                        "joins the loop before members die"))


def run_checks(model, with_reactor=True, with_wire=True):
    findings = []
    if with_reactor:
        check_reactor_blocking(model, findings)
        check_reactor_affinity(model, findings)
        check_callback_capture(model, findings)
    if with_wire:
        check_raw_wire(model, findings)
    findings.sort(key=lambda f: (f.file, f.line, f.check))
    return findings


# ---------------------------------------------------------------------------
# Drivers.
# ---------------------------------------------------------------------------

def collect_tree_files(root):
    live, wire = [], []
    for d in LIVE_DIRS:
        base = os.path.join(root, d)
        for dirpath, _, names in os.walk(base):
            for n in sorted(names):
                if n.endswith((".h", ".cc", ".cpp", ".hpp")):
                    live.append(os.path.join(dirpath, n))
    for d in WIRE_DIRS:
        base = os.path.join(root, d)
        for dirpath, _, names in os.walk(base):
            for n in sorted(names):
                if n.endswith((".h", ".cc", ".cpp", ".hpp")):
                    wire.append(os.path.join(dirpath, n))
    for f in WIRE_EXTRA_FILES:
        wire.append(os.path.join(root, f))
    return live, wire


def build_model(frontend, live, wire, build_dir):
    if frontend == "text":
        return build_model_text(live, wire), "text"
    if frontend == "clang":
        return build_model_clang(live, wire, build_dir), "clang"
    # auto: prefer clang, fall back to text
    try:
        return build_model_clang(live, wire, build_dir), "clang"
    except Exception as exc:
        sys.stderr.write(
            f"mocha-analyze: libclang unavailable ({exc.__class__.__name__}: "
            f"{exc}); using the textual fallback frontend\n")
        return build_model_text(live, wire), "text"


def analyze_tree(args):
    live, wire = collect_tree_files(args.root)
    missing = [p for p in live + wire if not os.path.exists(p)]
    if missing:
        sys.stderr.write("mocha-analyze: missing inputs: %s\n" % missing[:3])
        return 2
    model, used = build_model(args.frontend, live, wire, args.build_dir)
    findings = run_checks(model)
    for f in findings:
        print(f.render())
    n_funcs = len([f for f in model.functions if not f.is_lambda_root])
    n_lams = len([f for f in model.functions if f.is_lambda_root])
    print(f"mocha-analyze[{used}]: {len(findings)} finding(s) across "
          f"{n_funcs} functions, {n_lams} reactor callbacks, "
          f"{len(model.raw_sites)} raw byte sites")
    return 1 if findings else 0


# Fixture expectations: check id -> minimum finding count. Files not
# listed for a check must produce zero findings of that check.
FIXTURE_EXPECT = {
    "check1_bad.cc": {"reactor-blocking": 2, "reactor-affinity": 1},
    "check1_good.cc": {},
    "check1_port_handler_bad.cc": {"reactor-blocking": 1},
    "check1_port_handler_good.cc": {},
    "check2_bad.cc": {"raw-wire": 2},
    "check2_good.cc": {},
    "check3_bad.cc": {"callback-capture": 2},
    "check3_good.cc": {},
}


def self_test(args):
    failures = []
    for fixture, expect in sorted(FIXTURE_EXPECT.items()):
        path = os.path.join(FIXTURE_DIR, fixture)
        if not os.path.exists(path):
            failures.append(f"{fixture}: fixture file missing")
            continue
        model = build_model_text([path], [path])
        findings = run_checks(model)
        got = {}
        for f in findings:
            got[f.check] = got.get(f.check, 0) + 1
        for check, minimum in expect.items():
            if got.get(check, 0) < minimum:
                failures.append(
                    f"{fixture}: expected >= {minimum} [{check}] finding(s), "
                    f"got {got.get(check, 0)}")
        for check, count in got.items():
            if check not in expect:
                failures.append(
                    f"{fixture}: unexpected [{check}] finding(s) ({count}): "
                    + "; ".join(f.render() for f in findings
                                if f.check == check))
        status = "ok" if not any(f.startswith(fixture) for f in failures) \
            else "FAIL"
        print(f"  {fixture:<18} {status}  "
              f"({', '.join(f'{k}={v}' for k, v in sorted(got.items())) or 'clean'})")
    if failures:
        print("mocha-analyze self-test: FAIL")
        for f in failures:
            print("  " + f)
        return 1
    print("mocha-analyze self-test: all fixtures behaved as expected")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(
        prog="mocha_analyze.py",
        description="semantic protocol checker for the mocha live runtime")
    ap.add_argument("--frontend", choices=("auto", "clang", "text"),
                    default="auto")
    ap.add_argument("-p", "--build-dir", default=os.path.join(REPO_ROOT,
                                                              "build"),
                    help="directory holding compile_commands.json "
                         "(clang frontend)")
    ap.add_argument("--root", default=REPO_ROOT,
                    help="repository root to analyze")
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture corpus and verify each check "
                         "flags its bad fixture and passes its good one")
    args = ap.parse_args(argv)
    try:
        if args.self_test:
            return self_test(args)
        return analyze_tree(args)
    except BrokenPipeError:
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
