"""pbmrf benchmark: closed-loop workloads with end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload norm --seed 1 --seconds 15 --trace 0

One caller in one process issues each operation after the previous one
returns (a closed loop, no worker threads, no ``--jobs``; the only other
thread is speed.py's probe, which calls no pbmrf code).  A run repeats the
workload's round of operations a fixed number of times,
round(seconds / the round's duration at the seed commit) and at least the
workload's min_rounds, so two commits
always do the same work and ``wall_s`` compares them.  Times are reported in
reference seconds (speed.py): wall time scaled by the machine's speed while
it was measured, because on a shared machine the same work takes up to
twice as long from one minute to the next; set-up time is scaled by a
numpy import timed beside it instead (setup_seconds).  Outputs are checked
after the timed phase; a failed call, a nonzero exit code, a wrong output
or an output that differs from an earlier call with the same inputs counts
as a failed operation.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
repeats the timed phase with spans recorded around pbmrf's public functions
(see tracer.py), writes the spans as JSON lines under ``bench/out/`` and
prints the per-layer metrics; span times are wall seconds, the
per-operation times and ``trace.overhead_frac`` reference seconds.  ``--smoke`` runs the same code paths on tiny
lattices in a few seconds.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

SETUP_PROBE = """\
import sys, time
sys.path.insert(0, {src!r})
start = time.perf_counter()
import pbmrf.cli
pbmrf.models.model_from_config({config!r})
print(time.perf_counter() - start)
"""
# The yardstick for set-up: a fresh interpreter importing numpy alone.
IMPORT_PROBE = """\
import time
start = time.perf_counter()
import numpy
print(time.perf_counter() - start)
"""
IMPORT_REFERENCE_S = 0.09  # numpy's import time at the speed of a reference second


def _import_program():
    """Import pbmrf from this checkout's src/, never from elsewhere."""
    if not (SRC / "pbmrf" / "__init__.py").is_file():
        sys.exit(f"error: no pbmrf package under {SRC}")
    sys.path.insert(0, str(SRC))
    import pbmrf

    if Path(pbmrf.__file__).resolve().parent != SRC / "pbmrf":
        sys.exit(f"error: imported pbmrf from {pbmrf.__file__}, not {SRC}")
    return pbmrf


def _probe_seconds(code: str) -> float:
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.split()[-1])


def setup_seconds(config: dict, pairs: int) -> float:
    """Reference seconds for a fresh interpreter to import pbmrf and build a model.

    Import time is file, page-fault and unmarshalling work whose speed on a
    shared machine drifts by half from one minute to the next, and speed.py's
    snippet does not follow it.  So each set-up probe is paired with a probe
    that imports numpy alone, run right before it, and the median ratio of
    the two is reported in units of IMPORT_REFERENCE_S.
    """
    program = SETUP_PROBE.format(src=str(SRC), config=config)
    ratios = []
    for _ in range(pairs):
        yardstick = _probe_seconds(IMPORT_PROBE)
        ratios.append(_probe_seconds(program) / yardstick)
    return statistics.median(ratios) * IMPORT_REFERENCE_S


def timed_phase(ops, rounds, work, label, speed, tracer=None):
    """Run the rounds of ops back to back; returns (records, reference seconds)."""
    from workloads import Record

    records = []
    clock = time.perf_counter
    started = clock()
    for r in range(rounds):
        for op in ops:
            path = work / f"{label}-{r}-{op.name}.out"
            if tracer is not None:
                tracer.op = path.stem
            t0 = clock()
            try:
                raw, error = op.run(path), None
            except Exception as exc:  # the loop goes on; the op counts as failed
                raw, error = None, f"{type(exc).__name__}: {exc}"
            records.append(Record(op, t0, clock(), path, raw, error))
    ended = clock()
    for rec in records:
        rec.seconds = speed.seconds(rec.start, rec.end)
    return records, speed.seconds(started, ended)


def verify(records) -> None:
    """Read and check every output; equal inputs must give equal bytes."""
    from workloads import CheckError

    first: dict[str, str] = {}
    facts: dict[str, dict] = {}
    for rec in records:
        if rec.error is not None:
            continue
        try:
            out = rec.op.read(rec.path, rec.raw)
            rec.size = len(out.data) if out.written else 0
            digest = hashlib.sha256(out.data + out.log.encode()).hexdigest()
            if first.setdefault(rec.op.name, digest) != digest:
                raise CheckError("output differs from an earlier call with the same inputs")
            if digest not in facts:
                facts[digest] = rec.op.check(out)
            rec.facts = facts[digest]
        except (CheckError, OSError, ValueError, KeyError, IndexError) as exc:
            rec.error = f"{type(exc).__name__}: {exc}"
        finally:
            rec.path.unlink(missing_ok=True)


def peak_traced_mb(workload) -> float:
    """tracemalloc peak of one eliminate call: the workload's memory probe."""
    import pbmrf.elimination

    target, cfg = workload.memory_probe()
    tracemalloc.start()
    try:
        pbmrf.elimination.eliminate(target, cfg)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def layer_metrics(tracer, records, wall, untraced_wall) -> dict:
    total, own, calls = tracer.layer_totals()
    counts = tracer.counts
    trials = counts["apps.reject_trials"]
    return {
        "models.build_s": total["models.build"],
        "models.build_calls": calls["models.build"],
        "pbf.transform_s": total["pbf.transform"],
        "pbf.transform_calls": calls["pbf.transform"],
        "pbf.transform_entries": counts["pbf.transform_entries"],
        "pbf.evaluate_many_s": total["pbf.evaluate_many"],
        "pbf.evaluate_rows": counts["pbf.evaluate_rows"],
        "pbf.poly_build_s": total["pbf.poly_build"],
        "approx.partner_score_s": total["approx.partner_score"],
        "approx.partner_score_calls": calls["approx.partner_score"],
        "approx.soir_s": total["approx.soir"],
        "approx.soir_calls": calls["approx.soir"],
        "approx.clamp_s": total["approx.clamp"],
        "approx.clamp_calls": calls["approx.clamp"],
        "approx.splits": counts["approx.splits"],
        "approx.pivot_calls": calls["approx.pivot"],
        "elimination.eliminate_s": total["elimination.eliminate"],
        "elimination.eliminate_calls": calls["elimination.eliminate"],
        "elimination.self_s": own["elimination.eliminate"],
        "elimination.table_entries": counts["elimination.table_entries"],
        "elimination.max_eta": counts["elimination.max_eta"],
        "elimination.removals": counts["elimination.removals"],
        "elimination.fallback_partners": counts["elimination.fallback_partners"],
        "pomm.sample_s": total["pomm.sample"],
        "pomm.sample_rows": counts["pomm.sample_rows"],
        "pomm.log_density_s": total["pomm.log_density"],
        "apps.gibbs_s": total["apps.gibbs"],
        "apps.gibbs_site_updates": counts["apps.gibbs_site_updates"],
        "apps.reject_self_s": own["apps.reject"],
        "apps.reject_trials": trials,
        "apps.reject_acceptance": counts["apps.reject_accepted"] / trials if trials else 0.0,
        "apps.reject_used_frac": counts["apps.reject_returned"] / trials if trials else 0.0,
        "apps.mle_self_s": own["apps.mle"],
        "apps.mle_grid_points": counts["apps.mle_grid_points"],
        "cli.self_s": own["cli.main"],
        "cli.bytes_written": sum(r.size for r in records),
        "trace.overhead_frac": wall / untraced_wall - 1.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny lattices and two rounds, for the benchmark's tests")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pbmrf = _import_program()
    import numpy as np
    from speed import SpeedProbe
    from tracer import Tracer
    from workloads import OP_METRICS, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, work, args.smoke)
        rounds = 2 if args.smoke else max(
            workload.min_rounds, round(args.seconds / workload.round_s)
        )
        with SpeedProbe() as speed:
            setup_s = setup_seconds(workload.setup_config, 1 if args.smoke else 7)
            records, wall = timed_phase(workload.ops, rounds, work, "timed", speed)
            op_records = list(records)
            if args.trace:
                with Tracer() as tracer:
                    traced, traced_wall = timed_phase(
                        workload.ops, rounds, work, "traced", speed, tracer
                    )
                records += traced
            elif rounds == 1:
                repeat = [op for op in workload.ops if op.name == workload.repeat]
                records += timed_phase(repeat, 1, work, "repeat", speed)[0]
        values = {"setup_s": setup_s, "wall_s": wall}
        verify(records)
        failed = sum(r.error is not None for r in records)
        for rec in records:
            print(f"op {rec.path.stem:32s} {rec.end - rec.start:10.4f} s wall "
                  f"{rec.seconds:10.4f} s reference  {rec.error or 'ok'}")
        raw_wall = sum(r.end - r.start for r in op_records)
        print(f"timed phase: {raw_wall:.4f} s wall, {wall:.4f} s reference")

        if args.trace:
            values.update(layer_metrics(tracer, traced, traced_wall, wall))
            values.update(dict.fromkeys(OP_METRICS, 0.0))
            values.update(workload.op_metrics(op_records))
            values["elimination.peak_traced_mb"] = peak_traced_mb(workload)
            tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
            wanted = spec["per_layer"]
        else:
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            values["ok_rate"] = 1.0 - failed / len(records)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "rounds": rounds, "trace": args.trace, "smoke": args.smoke,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "pbmrf": pbmrf.__version__,
    }
    print("env " + json.dumps(env))
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:32s} {values[m['name']]:>16.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
