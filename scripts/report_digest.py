#!/usr/bin/env python3
"""Print one line per CLI report: its SHA-256, the exit code and the command.

Runs each applicable ``superquad`` subcommand over ``corpus/*.sqd``, plus
the ``example gn 2 | cohomology``, ``example class-c 2 | decompose`` and
``example class-c 3 | decompose`` pipes (the last at dimension 30, the
default ``--max-dim``), from the source tree of a checkout.  Two checkouts whose digests
print identically produce byte-identical reports, so the output of

    python3 scripts/report_digest.py [CHECKOUT]

on two commits can be compared with ``diff``.  CHECKOUT defaults to the
checkout this script lives in.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

PIPES = ((("example", "gn", "2"), ("cohomology", "-")),
         (("example", "class-c", "2"), ("decompose", "-")),
         (("example", "class-c", "3"), ("decompose", "-")))


def _run(root: Path, args, stdin: bytes | None = None):
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "superquad.cli", *args],
                          cwd=root, env=env, input=stdin,
                          stdout=subprocess.PIPE, check=False)
    return proc.stdout, proc.returncode


def _declared(text: str, keyword: str) -> list[str]:
    """Names of the cochains a document declares under ``keyword``."""
    return sorted(set(re.findall(rf"^{keyword}\s+(\w+)\(", text, re.M)))


def corpus_commands(path: str, text: str) -> list[tuple[str, ...]]:
    """The subcommands that apply to one corpus document."""
    labels = re.search(r"^basis\s+(.*)$", text, re.M).group(1).split()
    names = [label.split(":")[0] for label in labels]
    omegas = _declared(text, "cochain2")
    cmds = [("check", path), ("cohomology", path), ("tstar", path)]
    cmds += [("tstar", path, "--omega", w) for w in omegas]
    for phi in _declared(text, "scalar2"):
        cmds.append(("isometry", path, "--phi", phi))
        cmds += [("isometry", path, "--phi", phi, "--omega", w)
                 for w in omegas]
    if re.search(r"^form\s", text, re.M):
        if len(names) % 2 == 0:
            half = "; ".join(names[len(names) // 2:])
            cmds.append(("recognize", path, "--ideal", half))
        cmds.append(("decompose", path))
    return cmds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?",
                        default=str(Path(__file__).resolve().parent.parent),
                        help="root of the checkout to run (default: this one)")
    root = Path(parser.parse_args(argv).checkout).resolve()
    for doc in sorted((root / "corpus").glob("*.sqd")):
        rel = doc.relative_to(root).as_posix()
        for cmd in corpus_commands(rel, doc.read_text(encoding="utf-8")):
            out, code = _run(root, cmd)
            print(f"{hashlib.sha256(out).hexdigest()}  {code}  "
                  f"superquad {' '.join(cmd)}")
    for first, second in PIPES:
        doc, code1 = _run(root, first)
        out, code2 = _run(root, second, stdin=doc)
        print(f"{hashlib.sha256(out).hexdigest()}  {code1},{code2}  "
              f"superquad {' '.join(first)} | superquad {' '.join(second)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
