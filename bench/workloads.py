"""The benchmark's workloads: inputs made from the seed, operations, checks.

Each workload is a fixed sequence of operations (a round) that one caller
issues back to back.  Operations go through ``pbmrf.cli.main`` in-process,
except exact summation, which has no command and is called as
``pbmrf.elimination.eliminate_exact_sum``.  The seed determines every
input: theta values, potentials, observation files, observed states and
sampler seeds.  pbmrf only receives the files and arguments made here.

Every check raises :class:`CheckError` on a wrong output and otherwise
returns facts about the output (row counts, gaps, bracket width) that the
per-operation metrics use.

Which per-layer metric should move which end-to-end metric, and where:

* ``models.build_*``: ``wall_s`` and ``mle_s`` on mle, and ``setup_s``.
* ``pbf.transform_*``: ``wall_s``, ``exact_lnc_s`` and ``map_s`` on exact.
* ``pbf.evaluate_many_s``, ``pbf.poly_build_s``: ``exact_draws_per_s`` and
  ``mh_rate_s`` on sample.
* ``approx.partner_score_*``: ``bounds_s`` on norm and ``mle_s`` on mle;
  zero on exact.  ``approx.soir_*``, ``approx.clamp_*``, ``approx.splits``,
  ``approx.pivot_calls``: ``bounds_s`` on norm.
* ``elimination.*_s`` and the per-step counts: ``bounds_s``,
  ``exact_lnc_s``, ``map_s`` and ``mle_s``; ``elimination.peak_traced_mb``
  moves ``peak_rss_mb`` on exact.
* ``pomm.*``: ``pomm_draws_per_s`` and ``mh_rate_s`` on sample.
* ``apps.gibbs_*``: ``mh_rate_s``; ``apps.reject_*``: ``exact_draws_per_s``;
  ``apps.mle_*``: ``mle_s``.
* ``cli.self_s``, ``cli.bytes_written``: ``pomm_draws_per_s`` on sample,
  near zero elsewhere.

Each of these moves ``wall_s`` of the workload named with it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Callable

import numpy as np

import pbmrf.cli
import pbmrf.elimination
import pbmrf.models
import pbmrf.pomm
import reference

REL_TOL = 1e-9


class CheckError(Exception):
    """An operation failed or its output is wrong."""


@dataclass(frozen=True)
class Output:
    data: bytes  # the written table (or library result); repeats byte for byte
    log: str  # what the operation wrote to stderr
    written: bool = True  # data is a file the program wrote


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[Path], object]  # the timed call; writes to the given path
    read: Callable[[Path, object], Output]  # untimed: collect the output
    check: Callable[[Output], dict]  # untimed: raise CheckError or return facts


@dataclass
class Record:
    """One executed operation."""

    op: Op
    start: float  # perf_counter at the call
    end: float
    path: Path
    raw: object = None
    error: str | None = None
    seconds: float = 0.0  # end - start in reference seconds (see speed.py)
    size: int = 0  # bytes of the file the operation wrote
    facts: dict | None = None


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    round_s: float  # seconds per round at the seed commit, 2 CPUs; sizes rounds
    repeat: str  # op run again untimed when a run made each op only once
    setup_config: dict  # the model built by the set-up probe
    memory_probe: Callable[[], tuple]  # (target, EliminationConfig) under tracemalloc
    op_metrics: Callable[[list[Record]], dict]
    min_rounds: int = 1  # for ops whose time varies much from call to call


# -- helpers -----------------------------------------------------------------


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * max(1.0, abs(want))


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _rows(out: Output, header: str) -> list[list[str]]:
    lines = out.data.decode("ascii").splitlines()
    if not lines or lines[0] != header:
        raise CheckError(f"expected header {header!r}, got {lines[:1]!r}")
    return [line.split(",") for line in lines[1:]]


def _floats(rows, column: int) -> np.ndarray:
    values = np.array([float(r[column]) for r in rows])
    if not np.all(np.isfinite(values)):
        raise CheckError("non-finite value in the output")
    return values


def _states(rows, n: int) -> np.ndarray:
    """Parse the state column, requiring n binary digits per state."""
    text = "".join(r[0] for r in rows).encode("ascii")
    bits = np.frombuffer(text, dtype=np.uint8) - ord("0")
    if any(len(r[0]) != n for r in rows) or np.any(bits > 1):
        raise CheckError(f"a state is not a string of {n} binary digits")
    return bits.reshape(len(rows), n)


def _cli_op(name: str, argv: list[str], check: Callable[[Output], dict]) -> Op:
    def run(path: Path):
        log = io.StringIO()
        with contextlib.redirect_stderr(log):
            code = pbmrf.cli.main([*argv, "--out", str(path)])
        return code, log.getvalue()

    def read(path: Path, raw) -> Output:
        code, log = raw
        if code != 0:
            raise CheckError(f"exit code {code}: {log.strip()}")
        return Output(path.read_bytes(), log)

    return Op(name, run, read, check)


def _ising(rows: int, cols: int, theta: float) -> dict:
    return {"family": "ising", "rows": rows, "cols": cols, "params": [theta]}


def _seconds(records, name) -> list[float]:
    return [r.seconds for r in records if r.op.name == name and r.error is None]


def _facts(records, name) -> list[dict]:
    return [r.facts for r in records if r.op.name == name and r.error is None]


def _rate(records, name, key) -> float:
    seconds = sum(_seconds(records, name))
    return sum(f[key] for f in _facts(records, name)) / seconds if seconds else 0.0


def _median(values) -> float:
    return median(values) if values else 0.0


# -- norm --------------------------------------------------------------------


def _check_norm(out: Output) -> dict:
    rows = _rows(out, "nu,ln_c_approx,ln_c_lower,ln_c_upper,gap,wall_seconds")
    _, lower, upper = (_floats(rows, column) for column in (1, 2, 3))
    if np.any(lower > upper):
        raise CheckError("ln_c_lower exceeds ln_c_upper")
    return {"triples": len(rows), "gap_sum": float(np.sum(upper - lower))}


def norm(seed: int, work: Path, smoke: bool) -> Workload:
    rng = np.random.default_rng([seed, 1])
    theta = float(rng.uniform(0.3, 0.7))
    potentials = [float(p) for p in rng.uniform(-1.0, 1.0, 10)]
    side, nu = (6, 3) if smoke else (30, 8)
    ho_side, ho_nu, ho_cap = (6, 3, 2) if smoke else (16, 6, 3)
    ising = _write_json(work / "norm-ising.json", _ising(side, side, theta))
    ho_model = {"family": "higher_order", "rows": ho_side, "cols": ho_side,
                "params": potentials}
    ho = _write_json(work / "norm-higher-order.json", ho_model)
    ops = (
        _cli_op("norm-ising", ["norm", "--config", ising, "--nu", str(nu)], _check_norm),
        _cli_op(
            "norm-higher-order",
            ["norm", "--config", ho, "--nu", str(ho_nu), "--table-cap", str(ho_cap)],
            _check_norm,
        ),
    )

    def probe():
        cfg = pbmrf.elimination.EliminationConfig(
            mode="upper_bound", nu=ho_nu, table_cap=ho_cap
        )
        return pbmrf.models.model_from_config(ho_model), cfg

    def op_metrics(records):
        facts = _facts(records, "norm-ising") + _facts(records, "norm-higher-order")
        seconds = _seconds(records, "norm-ising") + _seconds(records, "norm-higher-order")
        triples = sum(f["triples"] for f in facts)
        return {
            "bounds_s": sum(seconds) / triples if triples else 0.0,
            "gap_nats": sum(f["gap_sum"] for f in facts) / triples if triples else 0.0,
        }

    return Workload(ops, 24.0, "norm-higher-order", _ising(side, side, theta),
                    probe, op_metrics)


# -- exact -------------------------------------------------------------------


def exact(seed: int, work: Path, smoke: bool) -> Workload:
    rng = np.random.default_rng([seed, 2])
    theta = float(rng.uniform(0.3, 0.7))
    rows, cols = (4, 5) if smoke else (12, 12)
    n = rows * cols
    mu0, mu1, sigma = 0.0, 1.0, 0.8
    truth = reference.ising_gibbs_state(theta, rows, cols, rng)
    y = np.array([mu0, mu1])[truth] + sigma * rng.standard_normal(n)
    y_path = work / "exact-y.txt"
    y_path.write_text("\n".join(f"{v:.17g}" for v in y) + "\n", encoding="ascii")
    config = _ising(rows, cols, theta)
    config_path = _write_json(work / "exact-ising.json", config)
    model = pbmrf.models.model_from_config(config)
    want_log_c = reference.ising_log_c(theta, rows, cols)
    want_max = reference.ising_posterior_max(theta, rows, cols, y, mu0, mu1, sigma)

    def run_exact(path):
        return pbmrf.elimination.eliminate_exact_sum(model)

    def read_exact(path, result) -> Output:
        return Output(result.to_json().encode("ascii"), "", written=False)

    def check_exact(out: Output) -> dict:
        got = json.loads(out.data)["log_value"]
        if not _close(got, want_log_c):
            raise CheckError(f"ln c {got!r} differs from the reference {want_log_c!r}")
        return {}

    def check_map(out: Output) -> dict:
        rows_ = _rows(out, "state")
        if len(rows_) != 1:
            raise CheckError("map must write one state")
        state = _states(rows_, n)[0]
        got = reference.ising_posterior_energy(theta, rows, cols, state, y, mu0, mu1, sigma)
        if not _close(got, want_max):
            raise CheckError(f"MAP energy {got!r} is not the maximum {want_max!r}")
        return {}

    argv = ["map", "--config", config_path, "--y", str(y_path), "--mu0", str(mu0),
            "--mu1", str(mu1), "--sigma", str(sigma), "--mode", "exact"]
    ops = (
        Op("exact-sum", run_exact, read_exact, check_exact),
        _cli_op("map-exact", argv, check_map),
    )

    def probe():
        return model, pbmrf.elimination.EliminationConfig()

    def op_metrics(records):
        return {
            "exact_lnc_s": _median(_seconds(records, "exact-sum")),
            "map_s": _median(_seconds(records, "map-exact")),
        }

    # The 6-s exact sum varies by 15% from call to call on a shared machine;
    # three of them in a run keep the spread of wall_s within its bound.
    return Workload(ops, 6.5, "map-exact", config, probe, op_metrics, min_rounds=3)


# -- sample ------------------------------------------------------------------


def sample(seed: int, work: Path, smoke: bool) -> Workload:
    rng = np.random.default_rng([seed, 3])
    theta = float(rng.uniform(0.3, 0.7))
    seeds = [str(s) for s in rng.integers(0, 2**31, size=3)]
    side, nu, count = (6, 3, 200) if smoke else (30, 6, 20_000)
    small, reject_nu, reject_count = (4, 3, 50) if smoke else (12, 7, 2_000)
    mh_nu, pairs = (2, 20) if smoke else (6, 500)
    big = _ising(side, side, theta)
    big_path = _write_json(work / "sample-ising.json", big)
    small_path = _write_json(work / "sample-ising-small.json", _ising(small, small, theta))
    pomm_cfg = pbmrf.elimination.EliminationConfig(
        mode="approximate", nu=nu, pomm_variant="post_approximation"
    )
    pomm_cache = []

    def check_sample(out: Output) -> dict:
        rows = _rows(out, "state,log_density")
        if len(rows) != count:
            raise CheckError(f"expected {count} states, got {len(rows)}")
        states = _states(rows, side * side)
        written = _floats(rows, 1)
        if not pomm_cache:
            model = pbmrf.models.model_from_config(big)
            pomm_cache.append(pbmrf.elimination.eliminate(model, pomm_cfg).pomm)
        want = pbmrf.pomm.log_density_many(pomm_cache[0], states)
        if not np.allclose(written, want, rtol=REL_TOL, atol=REL_TOL):
            raise CheckError("a written log density differs from log_density_many")
        return {"rows": len(rows)}

    def check_reject(out: Output) -> dict:
        rows = _rows(out, "state,log_density")
        if len(rows) != reject_count:
            raise CheckError(f"expected {reject_count} samples, got {len(rows)}")
        _states(rows, small * small)
        _floats(rows, 1)
        return {"rows": len(rows)}

    def check_mh(out: Output) -> dict:
        rows = _rows(out, "pairs,rate")
        rate = _floats(rows, 1)
        if len(rows) != 1 or not 0.0 <= rate[0] <= 1.0:
            raise CheckError(f"acceptance rate {rate} is not one value in [0, 1]")
        return {}

    ops = (
        _cli_op("sample", ["sample", "--config", big_path, "--nu", str(nu),
                           "--count", str(count), "--seed", seeds[0]], check_sample),
        _cli_op("reject", ["reject", "--config", small_path, "--nu", str(reject_nu),
                           "--count", str(reject_count), "--seed", seeds[1]], check_reject),
        _cli_op("mh-rate", ["mh-rate", "--config", small_path, "--nu", str(mh_nu),
                            "--pairs", str(pairs), "--seed", seeds[2]], check_mh),
    )

    def probe():
        return pbmrf.models.model_from_config(big), pomm_cfg

    def op_metrics(records):
        return {
            "pomm_draws_per_s": _rate(records, "sample", "rows"),
            "exact_draws_per_s": _rate(records, "reject", "rows"),
            "mh_rate_s": _median(_seconds(records, "mh-rate")),
        }

    return Workload(ops, 11.0, "reject", big, probe, op_metrics)


# -- mle ---------------------------------------------------------------------

_BRACKET = re.compile(r"mle bracket: \(([^,]+), ([^)]+)\)")


def mle(seed: int, work: Path, smoke: bool) -> Workload:
    rng = np.random.default_rng([seed, 4])
    theta = float(rng.uniform(0.3, 0.7))
    side, nus, points = (4, "2,3", 5) if smoke else (12, "2,4,6", 11)
    lo_theta, hi_theta = 0.0, 2.0
    observed = reference.ising_gibbs_state(theta, side, side, rng)
    x_path = work / "mle-x.txt"
    x_path.write_text("".join(str(v) for v in observed) + "\n", encoding="ascii")
    config = _ising(side, side, 1.0)
    config_path = _write_json(work / "mle-ising.json", config)

    def check_mle(out: Output) -> dict:
        rows = _rows(out, "nu,theta,ell_lower,ell_upper,retained")
        if np.any(_floats(rows, 2) > _floats(rows, 3)):
            raise CheckError("ell_lower exceeds ell_upper")
        found = _BRACKET.search(out.log)
        if not found:
            raise CheckError("mle printed no bracket")
        lo, hi = float(found.group(1)), float(found.group(2))
        if not (math.isfinite(lo) and lo_theta <= lo <= hi <= hi_theta):
            raise CheckError(f"bracket ({lo}, {hi}) is empty or leaves the grid")
        return {"width": hi - lo}

    argv = ["mle", "--config", config_path, "--x", str(x_path),
            "--theta-min", str(lo_theta), "--theta-max", str(hi_theta),
            "--nu", nus, "--grid-points", str(points)]
    ops = (_cli_op("mle", argv, check_mle),)

    def probe():
        last_nu = int(nus.split(",")[-1])
        cfg = pbmrf.elimination.EliminationConfig(mode="upper_bound", nu=last_nu)
        return pbmrf.models.model_from_config(config), cfg

    def op_metrics(records):
        widths = [f["width"] for f in _facts(records, "mle")]
        return {
            "mle_s": _median(_seconds(records, "mle")),
            "bracket_width": widths[0] if widths else 0.0,
        }

    return Workload(ops, 6.2, "mle", config, probe, op_metrics)


# Per-operation times and results; each workload reports its own and 0 for
# the others' (they are per-layer metrics because of that).
OP_METRICS = ("bounds_s", "gap_nats", "exact_lnc_s", "map_s", "pomm_draws_per_s",
              "exact_draws_per_s", "mh_rate_s", "mle_s", "bracket_width")

WORKLOADS = {"norm": norm, "exact": exact, "sample": sample, "mle": mle}
