"""Tests of the benchmark itself: smoke runs, the references and the checks.

Run with ``python3 -m pytest bench`` from the repository root; every
benchmark run here uses ``--smoke`` (tiny lattices), so the file finishes
in seconds.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckError, Output  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke(workload, trace, seed=3):
    done = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def brute_force(theta, rows, cols, unary):
    best, values = -np.inf, []
    for bits in itertools.product((0, 1), repeat=rows * cols):
        grid = np.array(bits).reshape(rows, cols)
        agree = np.sum(grid[1:] == grid[:-1]) + np.sum(grid[:, 1:] == grid[:, :-1])
        energy = theta * agree + unary[np.arange(rows * cols), bits].sum()
        values.append(energy)
        best = max(best, energy)
    return np.logaddexp.reduce(values), best


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 4), (4, 1), (2, 3), (3, 3), (3, 4)])
def test_frontier_reference_matches_brute_force(rows, cols):
    rng = np.random.default_rng(rows * 10 + cols)
    y = rng.normal(size=rows * cols)
    unary = reference.gaussian_log_lik(y, 0.0, 1.0, 0.8)
    log_c, _ = brute_force(0.6, rows, cols, np.zeros((rows * cols, 2)))
    _, best = brute_force(0.6, rows, cols, unary)
    assert reference.ising_log_c(0.6, rows, cols) == pytest.approx(log_c, rel=1e-12)
    got = reference.ising_posterior_max(0.6, rows, cols, y, 0.0, 1.0, 0.8)
    assert got == pytest.approx(best, rel=1e-12)


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] != 0 for m in wanted)


def test_layers_split_work_between_workloads():
    exact = smoke("exact", 1)["metrics"]
    norm = smoke("norm", 1)["metrics"]
    assert all(v["value"] == 0 for k, v in exact.items() if k.startswith("approx."))
    assert norm["approx.splits"]["value"] > 0


def test_traced_counts_repeat_exactly():
    counts = [
        {k: v["value"] for k, v in smoke("sample", 1)["metrics"].items() if v["unit"] == "count"}
        for _ in range(2)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["apps.reject_trials"] > 0


def test_checks_reject_wrong_outputs(tmp_path):
    load = workloads.exact(5, tmp_path, smoke=True)
    ops = {op.name: op for op in load.ops}
    good = ops["exact-sum"].read(None, ops["exact-sum"].run(None))
    ops["exact-sum"].check(good)
    result = json.loads(good.data)
    result["log_value"] *= 1 + 1e-6
    with pytest.raises(CheckError):
        ops["exact-sum"].check(Output(json.dumps(result).encode(), ""))

    path = tmp_path / "map.out"
    mode = ops["map-exact"].read(path, ops["map-exact"].run(path))
    ops["map-exact"].check(mode)
    state = mode.data.decode().splitlines()[1]
    flipped = ("1" if state[0] == "0" else "0") + state[1:]
    with pytest.raises(CheckError):
        ops["map-exact"].check(Output(f"state\n{flipped}\n".encode(), ""))
    with pytest.raises(CheckError):
        ops["map-exact"].check(Output(f"state\n{state[1:]}\n".encode(), ""))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "norm", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_speed_probe_scales_short_and_long_intervals():
    with speed.SpeedProbe() as probe:
        t0 = time.perf_counter()
        time.sleep(0.3)
        t1 = time.perf_counter()
        time.sleep(0.2)
    assert len(probe.durations) >= 4
    assert probe.seconds(t0, t1) == pytest.approx((t1 - t0) * probe.factor(t0, t1))
    assert probe.factor(t0, t1) > 0
    assert probe.factor(t1, t1 + 1e-6) > 0  # no sample inside: borrows nearby ones
