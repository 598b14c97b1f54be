"""Record the benchmark on a parent commit and on this checkout, in pairs.

usage: python3 tools/bench_record.py --parent REV --workload exact \
           --seeds 4101-4110 --seconds 15 --out BENCH_N.json

For each workload and seed it runs ``bench/run.py --trace 0`` once on a
``git archive`` copy of REV and once on this checkout (its working tree, so
uncommitted changes count as the change), alternating which side runs
first from one seed to the next.  The JSON record holds every run, and per
workload and end-to-end metric the median of each side, the quartiles of
the parent's runs and the number of pairs the change won (ties count for
neither side).  The copy is unpacked under the temporary directory
(``TMPDIR``) and removed at the end; it adds no worktree to the repository.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    """``4101-4110`` or ``1,5,9``."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"error: {' '.join(argv[1:])} in {checkout} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result


def _summary(runs: list[dict], spec: dict) -> dict:
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict[str, dict]] = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["metrics"]
        rows = {}
        for m in spec["end_to_end"]:
            name, sign = m["name"], (1 if m["better"] == "lower" else -1)
            parent = [p["parent"][name] for p in pairs.values()]
            change = [p["change"][name] for p in pairs.values()]
            q1, _, q3 = statistics.quantiles(parent, n=4)
            rows[name] = {
                "parent_median": statistics.median(parent),
                "change_median": statistics.median(change),
                "parent_q1": q1,
                "parent_q3": q3,
                "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
                "pairs": len(parent),
                "bound": m["bound"],
            }
        out[workload] = rows
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", args.parent],
                         capture_output=True, text=True, check=True).stdout.strip()
    copy = Path(tempfile.mkdtemp(prefix="bench-parent-"))
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(copy)], input=archive, check=True)
    runs = []
    try:
        for workload in args.workload:
            for k, seed in enumerate(args.seeds):
                sides = [("parent", copy), ("change", ROOT)]
                if k % 2:
                    sides.reverse()
                for position, (side, checkout) in enumerate(sides):
                    result = _run(checkout, workload, seed, args.seconds)
                    runs.append({"workload": workload, "seed": seed, "side": side,
                                 "first": position == 0, **result})
                    print(f"{workload} seed {seed} {side:6s} "
                          f"wall_s {result['metrics']['wall_s']:.3f}", flush=True)
    finally:
        shutil.rmtree(copy)

    record = {
        "parent": rev,
        "command": f"bench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version()},
        "summary": _summary(runs, spec),
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
