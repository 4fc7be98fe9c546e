#!/usr/bin/env python3
"""Layering guard: TCP line I/O lives in src/net/line_io.{hpp,cpp} only.

Every socket in the program (NetServer, NetClient, replication, the
cluster driver and sites) dials, listens, waits and frames lines through
that one module. This check fails when one of those jobs is written
again somewhere else under src/:

  - a raw poll, connect, bind, listen, accept4 or recv call;
  - a newline search over wire input (find('\\n') or a memchr for
    '\\n') in the modules that handle wire text: src/net, src/distrib,
    src/service.

Comments are ignored. Usage: scripts/check_net_layering.py [REPO_ROOT]
Exit 0 when the layering holds; 1 otherwise, listing each offending line.
"""

import pathlib
import re
import sys

HOME = {"src/net/line_io.hpp", "src/net/line_io.cpp"}

SYSCALLS = re.compile(
    r"(?<!\w)::(poll|connect|bind|listen|accept4|recv)\s*\(")
NEWLINE_SCAN = re.compile(r"find\(\s*'\\n'|memchr\([^;]*'\\n'")
WIRE_DIRS = ("src/net/", "src/distrib/", "src/service/")


def code_only(line: str) -> str:
    """The line minus a trailing // comment (string contents kept)."""
    in_str = False
    for i, ch in enumerate(line):
        if ch == '"' and (i == 0 or line[i - 1] != "\\"):
            in_str = not in_str
        elif not in_str and line.startswith("//", i):
            return line[:i]
    return line


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else
                        pathlib.Path(__file__).resolve().parent.parent)
    bad = []
    scanned = 0
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in (".hpp", ".cpp", ".h", ".cc"):
            continue
        rel = path.relative_to(root).as_posix()
        if rel in HOME:
            continue
        scanned += 1
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1):
            code = code_only(line)
            hit = SYSCALLS.search(code)
            if not hit and rel.startswith(WIRE_DIRS):
                hit = NEWLINE_SCAN.search(code)
            if hit:
                bad.append(f"{rel}:{lineno}: {hit.group(0)}  -> "
                           "use net/line_io.hpp")
    for entry in bad:
        print(entry)
    if bad:
        print(f"check_net_layering: {len(bad)} socket I/O site(s) outside "
              "src/net/line_io.*")
        return 1
    print(f"check_net_layering: ok ({scanned} files outside line_io)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
