#!/usr/bin/env python3
"""Wire-protocol coverage lint.

The compiler already proves what it can about the wire vocabulary, declared
once as X-macro tables (src/net/frame_type.h, src/replica/msg_type.h): a
static_assert keeps every value unique and off the retired ones,
-Werror=switch keeps the frame dispatcher and event_kind_name() complete,
and tests/frame_conformance_test.cc expands each codec row into a
round-trip case. This lint keeps the checks no compiler can make:

  3. every MsgType row must have at least one producer (``writer.u8(kX)``)
     and at least one consumer (``case kX`` or a ``reader.u8() ==/!= kX``
     comparison) somewhere under src/,
  5. every MsgType row with a typed codec (a ``CODEC`` row) must be
     referenced under src/live/ or in one of the protocol cores the live
     runtime links (as ``kX`` or its ``XMsg`` struct) — the live backend
     speaks the same lock protocol as the sim, and a codec the live runtime
     never touches means the two backends have drifted; and a codec in
     src/replica/wire.h (an encoder writing ``kX``) whose row names none is
     flagged too, since it would drop out of the generated round trips,
  6. the telemetry vocabulary must be live: every ``trace::EventKind``
     enumerator is recorded (``EventKind::kX``) somewhere under src/
     outside its own header, and every metric leaf named in the
     docs/OBSERVABILITY.md catalog or scraped by tools/mocha_top.py
     appears in a string literal under src/ — a cataloged metric no code
     produces is a stale doc row, and a scraped one is a dashboard that
     silently reads zeros.

(Rules 1, 2 and 4 — unique values, frame dispatch, conformance coverage —
moved into the compiler; the numbers of the rest are kept.) Rules 3 and 5
look at code only: ``//`` and ``/* */`` comments are stripped first, so a
codec named in a comment does not count as spoken. Rule 6 reads string
literals and keeps the raw text.

Run with ``--self-test`` to prove the lint still catches violations: it
re-runs every check against deliberately broken in-memory copies of the
sources and fails if any expected finding is missed.

Exit status: 0 clean, 1 findings, 2 parse/usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

MSG_TYPE_TABLE = "src/replica/msg_type.h"
WIRE_HEADER = "src/replica/wire.h"
# Rule 5: the protocol cores both runtimes run. The live runtime speaks a
# message through one of these as much as through its own src/live/ code.
SHARED_CORES = [
    "src/replica/lock_directory.cc",
    "src/replica/daemon_core.cc",
    "src/replica/lock_client_core.cc",
]
# Rule 6 inputs: the shared event vocabulary, the human-facing metric
# catalog, and the dashboard that scrapes the registry.
EVENT_KIND_HEADER = "src/trace/event_kind.h"
OBSERVABILITY_DOC = "docs/OBSERVABILITY.md"
MOCHA_TOP = "tools/mocha_top.py"
# Registry name prefixes that mark a string as a metric reference.
METRIC_PREFIXES = ("ep", "shard", "client", "daemon", "bulk")


class ParseError(Exception):
    pass


def parse_enum_names(text: str, enum_name: str) -> list[str]:
    """Returns the enumerators of ``enum [class] <enum_name>``, one a line."""
    match = re.search(
        rf"enum\s+(?:class\s+)?{enum_name}\s*:\s*[\w:]+\s*\{{(.*?)\}};",
        text,
        re.DOTALL,
    )
    if match is None:
        raise ParseError(f"enum {enum_name} not found")
    names = re.findall(r"^\s*(k\w+)", match.group(1), re.MULTILINE)
    if not names:
        raise ParseError(f"enum {enum_name} has no enumerators")
    return names


def parse_msg_table(text: str) -> list[tuple[str, str | None]]:
    """Returns the (enumerator, codec stem or None) rows of MOCHA_MSG_TYPES."""
    match = re.search(r"#define MOCHA_MSG_TYPES\(MSG, CODEC\)((?:.*\\\n)*.*)",
                      text)
    if match is None:
        raise ParseError("MOCHA_MSG_TYPES table not found")
    rows = [
        (name, stem or None)
        for name, stem in re.findall(
            r"\b(?:MSG|CODEC)\(\s*(k\w+)\s*,\s*\d+\s*(?:,\s*(\w+)\s*)?\)",
            match.group(1),
        )
    ]
    if not rows:
        raise ParseError("MOCHA_MSG_TYPES has no rows")
    return rows


# A comment, or a string/char literal that may contain comment markers.
# The char-literal arm skips C++14 digit separators (300'000).
_COMMENT_OR_LITERAL = re.compile(
    r"//[^\n]*|/\*.*?\*/"
    r"|\"(?:\\.|[^\"\\\n])*\"|(?<![0-9A-Fa-f])'(?:\\.|[^'\\\n])*'",
    re.DOTALL,
)


def strip_comments(text: str) -> str:
    """Source text with every comment blanked; line breaks are kept."""
    def blank(match: re.Match) -> str:
        token = match.group(0)
        if token.startswith(("//", "/*")):
            return "\n" * token.count("\n") or " "
        return token
    return _COMMENT_OR_LITERAL.sub(blank, text)


def check_msg_types(files: dict[str, str], findings: list[str]) -> None:
    rows = parse_msg_table(files[MSG_TYPE_TABLE])
    src_files = {
        path: text for path, text in files.items() if path.startswith("src/")
    }
    for name, _ in rows:
        producer = rf"\.u8\(\s*(?:\w+::)?{name}\s*\)"
        consumer = (
            rf"case\s+(?:\w+::)?{name}\b"
            rf"|u8\(\)\s*[!=]=\s*(?:\w+::)?{name}\b"
        )
        if not any(re.search(producer, text) for text in src_files.values()):
            findings.append(
                f"MsgType {name} has no producer "
                f"(`writer.u8({name})`) under src/"
            )
        if not any(re.search(consumer, text) for text in src_files.values()):
            findings.append(
                f"MsgType {name} has no consumer "
                f"(`case {name}` or `reader.u8() == {name}`) under src/"
            )
    # The live backend must speak every typed codec (by enumerator or by the
    # XMsg struct), or the two runtimes have drifted apart.
    live_files = {
        path: text
        for path, text in files.items()
        if path.startswith("src/live/") or path in SHARED_CORES
    }
    for name, stem in rows:
        if stem is None:
            # A codec in wire.h behind a row that names none would be left
            # out of the generated round trips and out of this rule.
            if re.search(rf"\.u8\(\s*{name}\s*\)", files[WIRE_HEADER]):
                findings.append(
                    f"MsgType {name} has a typed codec in {WIRE_HEADER} but "
                    f"its {MSG_TYPE_TABLE} row names none (use CODEC)"
                )
            continue
        codec = stem + "Msg"
        live_ref = rf"\b(?:{name}|{codec})\b"
        if not any(re.search(live_ref, text) for text in live_files.values()):
            findings.append(
                f"MsgType {name} has a typed codec ({codec}) in "
                f"{MSG_TYPE_TABLE} but is never referenced (as {name} or "
                f"{codec}) under src/live/ or in the shared cores"
            )


def metric_leaves_from_doc(doc: str) -> list[str]:
    """Leaf names from the OBSERVABILITY.md catalog table.

    A catalog row is a markdown table line whose first cell carries
    backticked metric names and whose second cell is a known metric type.
    ``<...>`` placeholders are wildcards; the leaf is the segment after the
    last dot (or the whole span for the short form in two-span rows, e.g.
    ``bytes_in``).
    """
    leaves: list[str] = []
    for line in doc.splitlines():
        if not line.lstrip().startswith("|"):
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) < 3 or cells[1] not in ("counter", "gauge", "hist"):
            continue
        for span in re.findall(r"`([^`]+)`", cells[0]):
            name = re.sub(r"<[^>]*>", "*", span)
            leaf = name.rsplit(".", 1)[-1]
            if re.fullmatch(r"\w+", leaf):
                leaves.append(leaf)
    return leaves


def metric_leaves_from_top(top: str) -> list[str]:
    """Leaf names mocha_top.py scrapes, from its string literals.

    Handles all three spellings the dashboard uses: plain keys, f-string
    templates (``{...}`` placeholders), and anchored regexes (``^``/``$``,
    escaped dots, ``(a|b)`` alternations). A literal counts as a metric
    reference when its first dotted segment is a registry prefix.
    """
    leaves: list[str] = []
    for lit in re.findall(r'"([^"\n]+)"', top):
        name = lit.lstrip("^").replace(r"\.", ".")
        name = re.sub(r"\{[^}]*\}", "*", name)
        if "." not in name or name.split(".", 1)[0] not in METRIC_PREFIXES:
            continue
        tail = name.rsplit(".", 1)[-1].rstrip("$").strip("()")
        for part in tail.split("|"):
            if re.fullmatch(r"\w+", part):
                leaves.append(part)
    return leaves


def check_observability(files: dict[str, str], findings: list[str]) -> None:
    # 6a: the event vocabulary is live — an enumerator nobody records is
    # either dead weight or a recorder that silently fell out in a refactor
    # (event_kind.h itself names every kind in event_kind_name(), so it is
    # excluded from the usage scan).
    names = parse_enum_names(files[EVENT_KIND_HEADER], "EventKind")
    src_files = {
        path: text
        for path, text in files.items()
        if path.startswith("src/") and path != EVENT_KIND_HEADER
    }
    for name in names:
        if not any(
            re.search(rf"EventKind::{name}\b", text)
            for text in src_files.values()
        ):
            findings.append(
                f"EventKind::{name} is declared in {EVENT_KIND_HEADER} but "
                f"never recorded under src/"
            )

    # 6b/6c: every metric leaf the catalog documents or the dashboard
    # scrapes must appear in a string literal under src/ — registry names
    # are built from string fragments, so the leaf always survives intact.
    all_src = "\n".join(
        text for path, text in files.items() if path.startswith("src/")
    )

    def produced(leaf: str) -> bool:
        return (
            re.search(r'"[^"\n]*' + re.escape(leaf) + r'[^"\n]*"', all_src)
            is not None
        )

    for leaf in sorted(set(metric_leaves_from_doc(files[OBSERVABILITY_DOC]))):
        if not produced(leaf):
            findings.append(
                f"metric `{leaf}` is cataloged in {OBSERVABILITY_DOC} but no "
                f"string literal under src/ produces it (stale catalog row)"
            )
    for leaf in sorted(set(metric_leaves_from_top(files[MOCHA_TOP]))):
        if not produced(leaf):
            findings.append(
                f"{MOCHA_TOP} scrapes metric `{leaf}` but no string literal "
                f"under src/ produces it (the dashboard would read zeros)"
            )


def run_lint(files: dict[str, str]) -> list[str]:
    findings: list[str] = []
    code = {path: strip_comments(text) for path, text in files.items()}
    check_msg_types(code, findings)
    check_observability(files, findings)
    return findings


def load_files() -> dict[str, str]:
    files: dict[str, str] = {}
    for pattern in ("src/**/*.h", "src/**/*.cc"):
        for path in sorted(REPO_ROOT.glob(pattern)):
            files[path.relative_to(REPO_ROOT).as_posix()] = path.read_text()
    for extra in (OBSERVABILITY_DOC, MOCHA_TOP):
        files[extra] = (REPO_ROOT / extra).read_text()
    for path in (MSG_TYPE_TABLE, WIRE_HEADER, EVENT_KIND_HEADER):
        if path not in files:
            raise ParseError(f"required file missing: {path}")
    return files


def mutate(files: dict[str, str], path: str, old: str, new: str) -> dict[str, str]:
    if old not in files[path]:
        raise ParseError(f"self-test anchor {old!r} not found in {path}")
    patched = dict(files)
    patched[path] = files[path].replace(old, new, 1)
    return patched


def self_test(files: dict[str, str]) -> int:
    """Negative tests: the lint must flag deliberately broken trees."""
    failures: list[str] = []

    clean = run_lint(files)
    if clean:
        failures.append(
            "expected the real tree to be clean, got: " + "; ".join(clean)
        )

    # A message nobody encodes or decodes must be flagged twice.
    broken = mutate(files, MSG_TYPE_TABLE, "CODEC(kGrant, 22, Grant)",
                    "CODEC(kGrant, 22, Grant) MSG(kOrphan, 99)")
    found = run_lint(broken)
    if sum("kOrphan" in f for f in found) != 2:
        failures.append(f"orphan MsgType not fully flagged: {found}")

    # A typed codec the live backend never references must be flagged: the
    # injected row has no producer, no consumer and no live reference.
    ghost = mutate(files, MSG_TYPE_TABLE, "CODEC(kGrant, 22, Grant)",
                   "CODEC(kGrant, 22, Grant) CODEC(kGhost, 98, Ghost)")
    found = run_lint(ghost)
    if not any("kGhost" in f and "src/live/" in f for f in found):
        failures.append(f"live-coverage gap not flagged: {found}")

    # A live-side reference that sits only in comments does not count.
    broken = mutate(
        mutate(ghost, "src/live/lock_server.cc",
               '#include "live/lock_server.h"',
               '#include "live/lock_server.h"  // serves kGhost'),
        "src/live/daemon.cc", '#include "live/daemon.h"',
        '#include "live/daemon.h"\n/* GhostMsg is\n   applied here */',
    )
    found = run_lint(broken)
    if not any("kGhost" in f and "src/live/" in f for f in found):
        failures.append(f"comment-only live reference counted: {found}")

    # A typed codec whose row names no codec must be flagged: it would drop
    # out of the conformance test's generated round trips unnoticed.
    broken = mutate(files, MSG_TYPE_TABLE,
                    "CODEC(kShardMapRequest, 25, ShardMapRequest)",
                    "MSG(kShardMapRequest, 25)")
    found = run_lint(broken)
    if not any("kShardMapRequest" in f and "names none" in f for f in found):
        failures.append(f"codec row demoted to MSG not flagged: {found}")

    # Rule 6a: an event kind nobody records must be flagged (the header's
    # own event_kind_name() switch does not count as a recorder).
    broken = mutate(
        files, EVENT_KIND_HEADER, "kDatagramSent,", "kDatagramSent,\n  kGhostEvent,"
    )
    found = run_lint(broken)
    if not any("kGhostEvent" in f and "never recorded" in f for f in found):
        failures.append(f"unrecorded EventKind not flagged: {found}")

    # Rule 6b: a catalog row naming a metric no code produces must be
    # flagged (the phantom row reuses the shard prefix so only the leaf is
    # novel — exactly what a renamed-but-not-redocumented metric leaves).
    broken = mutate(
        files,
        OBSERVABILITY_DOC,
        "| `shard.<id>.acquires` | counter | ACQUIRE messages processed |",
        "| `shard.<id>.acquires` | counter | ACQUIRE messages processed |\n"
        "| `shard.<id>.phantom_total` | counter | does not exist |",
    )
    found = run_lint(broken)
    if not any("phantom_total" in f and "stale catalog row" in f for f in found):
        failures.append(f"stale catalog metric not flagged: {found}")

    # Rule 6c: the dashboard scraping a metric the runtime never emits must
    # be flagged (mutating the retransmits regex models a rename on the
    # producer side that never reached mocha_top).
    broken = mutate(files, MOCHA_TOP, "retransmits$", "phantom_retx$")
    found = run_lint(broken)
    if not any("phantom_retx" in f and "read zeros" in f for f in found):
        failures.append(f"scraped-but-unproduced metric not flagged: {found}")

    if failures:
        for failure in failures:
            print(f"lint_protocol self-test FAILED: {failure}", file=sys.stderr)
        return 1
    print("lint_protocol self-test passed")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="verify the lint catches violations (negative test)",
    )
    args = parser.parse_args(argv)

    try:
        files = load_files()
        if args.self_test:
            return self_test(files)
        findings = run_lint(files)
    except ParseError as err:
        print(f"lint_protocol: parse error: {err}", file=sys.stderr)
        return 2

    for finding in findings:
        print(f"lint_protocol: {finding}", file=sys.stderr)
    if findings:
        print(f"lint_protocol: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint_protocol: protocol coverage clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
