#!/usr/bin/env python3
"""Fingerprint the command line output on the whole catalog.

Runs a fixed list of 474 `thinville` commands in one process through
`thinville.cli.main` and prints one line per command:

    <exit code> <sha256 of stdout> <sha256 of stderr> <argv>

The engine is imported from PYTHONPATH, so the same script fingerprints
any checkout; "same behaviour" between two checkouts is then a plain
diff of the two outputs:

    PYTHONPATH=src python3 tools/cli_snapshot.py > after.txt
    PYTHONPATH=<other checkout>/src python3 tools/cli_snapshot.py > before.txt
    diff before.txt after.txt

The list: `beauville --exhaustive` and `analyze` on the p = 3 entries
and the builtins; `beauville --guided` and `analyze --guided --json` on
the p = 5 entries; `beauville --exhaustive` on thin5-c5-A1 and
thin5-c6-A2; `lattice` and `lattice --dot` on every target; and
`verify-theorems --suite p3` and `--suite p5`, all 112 at the default
budget.  Then, at `--budget` 10, 1000 and 100000, `analyze --json`,
`beauville`, `beauville --exhaustive` and `lattice` on every target and
on heisenberg-1009 and elab-1009: 348 commands, where the budget runs
out at different phases.  Last, 14 commands on the identity battery:
`formulas --p P` and `formulas --p P --json` for P = 3, 5, 7, 11 and
401, `formulas --p 4`, and `verify-theorems --suite formulas` alone,
with `--p 7`, and with `--p 7 --budget 10`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

from thinville.catalog import BUILTIN_IDS, data_entry_paths
from thinville.cli import main


def commands():
    entries = [Path(p).stem for p in data_entry_paths()]
    p3 = [e for e in entries if e.startswith(("sg-3_", "thin3"))]
    p5 = [e for e in entries if e.startswith("thin5-")]
    out = []
    for target in p3 + list(BUILTIN_IDS):
        out.append(["beauville", target, "--exhaustive"])
        out.append(["analyze", target])
    for target in p5:
        out.append(["beauville", target, "--guided"])
        out.append(["analyze", target, "--guided", "--json"])
    for target in ("thin5-c5-A1", "thin5-c6-A2"):
        out.append(["beauville", target, "--exhaustive"])
    for target in list(BUILTIN_IDS) + entries:
        out.append(["lattice", target])
        out.append(["lattice", target, "--dot"])
    out.append(["verify-theorems", "--suite", "p3"])
    out.append(["verify-theorems", "--suite", "p5"])
    for budget in ("10", "1000", "100000"):
        for target in (list(BUILTIN_IDS) + entries
                       + ["heisenberg-1009", "elab-1009"]):
            for argv in (["analyze", target, "--json"],
                         ["beauville", target],
                         ["beauville", target, "--exhaustive"],
                         ["lattice", target]):
                out.append(argv + ["--budget", budget])
    for p in ("3", "5", "7", "11", "401"):
        out.append(["formulas", "--p", p])
        out.append(["formulas", "--p", p, "--json"])
    out.append(["formulas", "--p", "4"])
    suite = ["verify-theorems", "--suite", "formulas"]
    out.extend([suite, suite + ["--p", "7"],
                suite + ["--p", "7", "--budget", "10"]])
    return out


def run(argv):
    """(exit code, stdout, stderr) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def snapshot():
    for argv in commands():
        code, out, err = run(argv)
        print(code, digest(out), digest(err), " ".join(argv), flush=True)


if __name__ == "__main__":
    sys.exit(snapshot())
