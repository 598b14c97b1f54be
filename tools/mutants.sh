#!/bin/sh
# Mutation check: the tier-1 suite must kill every mutant on a fixed list.
#
# usage: sh tools/mutants.sh [NAME...]
#
# Each entry of tools/mutants.json names a file, a text that occurs exactly
# once in it and the text that replaces it.  The script copies the working
# tree's src, tests, bench and pyproject.toml to a directory under $TMPDIR
# (/tmp by default) and checks that the tier-1 suite passes there.  Then,
# for each mutant (or only the NAMEs given), it applies the replacement,
# runs the suite with -x and restores the file.  A mutant is killed when
# the suite fails, and the first failing test is reported; it survives
# when the suite passes.  The exit status is 1 when any mutant survives,
# and 2 when the unmutated copy fails or an entry no longer matches its
# file.  Nothing is written in the repository.  Each mutant costs up to
# one tier-1 run (about 25 s on 2 CPUs).
set -e
ROOT=$(cd "$(dirname "$0")/.." && pwd)
WORK=$(mktemp -d "${TMPDIR:-/tmp}/pbmrf-mutants.XXXXXX")
trap 'rm -rf "$WORK"' EXIT INT TERM
python3 - "$ROOT" "$WORK" "$@" <<'EOF'
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

root, work, wanted = Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3:]
mutants = json.loads((root / "tools" / "mutants.json").read_text())
unknown = set(wanted) - {m["name"] for m in mutants}
if unknown:
    sys.exit(f"error: no mutant named {', '.join(sorted(unknown))}")
ignore = ("__pycache__", ".hypothesis", ".pytest_cache")
for part, skip in (("src", ()), ("tests", ()), ("bench", ("out",))):
    shutil.copytree(root / part, work / part, ignore=shutil.ignore_patterns(*ignore, *skip))
shutil.copy(root / "pyproject.toml", work)
env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        "--continue-on-collection-errors"]


def first_failure(proc):
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    return failed[0] if failed else f"exit {proc.returncode}"


proc = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True)
if proc.returncode != 0:
    print(f"error: the unmutated copy fails {first_failure(proc)}; no mutant was run")
    sys.exit(2)
survivors = stale = 0
for m in mutants:
    if wanted and m["name"] not in wanted:
        continue
    path = work / m["file"]
    original = path.read_text()
    if original.count(m["old"]) != 1:
        print(f"{m['name']}: STALE, the old text occurs "
              f"{original.count(m['old'])} times in {m['file']}", flush=True)
        stale += 1
        continue
    path.write_text(original.replace(m["old"], m["new"]))
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True)
    seconds = time.monotonic() - start
    path.write_text(original)
    if proc.returncode == 0:
        survivors += 1
        verdict = "SURVIVED"
    else:
        verdict = "killed by " + first_failure(proc)
    print(f"{m['name']}: {verdict} ({seconds:.1f} s)", flush=True)
sys.exit(2 if stale else 1 if survivors else 0)
EOF
