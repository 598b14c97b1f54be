"""Command-line interface: outputs, determinism, exit codes."""

import json
import math

import numpy as np
import pytest

from helpers import all_states, brute_log_c, eval_pbf, star_mrf
from pbmrf import (
    DENSE_TABLE_CAP,
    EliminationConfig,
    LatticeSpec,
    build_ising,
    eliminate,
    gibbs_sampler,
)
from pbmrf import cli
from pbmrf.cli import main
from pbmrf.pomm import sample as pomm_sample, state_texts


@pytest.fixture
def ising_config(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"family": "ising", "rows": 3, "cols": 3, "params": [0.4]}))
    return str(path)


def run(args):
    return main(args)


def per_bit_text(state) -> str:
    """A state as text the way the CLI wrote it before vectorising."""
    return "".join("1" if v else "0" for v in state)


def test_norm_rows_and_independence_equality(tmp_path):
    cfg = tmp_path / "ind.json"
    cfg.write_text(
        json.dumps({"family": "independence", "rows": 2, "cols": 3, "params": [0.7]})
    )
    out = tmp_path / "norm.csv"
    assert run(["norm", "--config", str(cfg), "--nu", "1,3", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "nu,ln_c_approx,ln_c_lower,ln_c_upper,gap,wall_seconds"
    want = 6 * math.log(1 + math.exp(0.7))
    for line in lines[1:]:
        fields = line.split(",")
        approx, lower, upper, gap = map(float, fields[1:5])
        assert abs(approx - want) < 1e-10
        assert approx == lower == upper
        assert gap == 0.0


def test_norm_sweep_brackets_brute_force(tmp_path):
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps({"family": "ising", "rows": 4, "cols": 4, "params": [0.8]}))
    out = tmp_path / "norm.csv"
    assert run(["norm", "--config", str(cfg), "--nu", "1,2,3,4", "--out", str(out)]) == 0
    exact = brute_log_c(build_ising(LatticeSpec(4, 4), 0.8), 4, 4)
    for line in out.read_text().strip().splitlines()[1:]:
        fields = line.split(",")
        lower, upper, gap = float(fields[2]), float(fields[3]), float(fields[4])
        assert gap >= 0
        assert lower - 1e-12 <= exact <= upper + 1e-12


def test_norm_is_byte_identical_across_runs(ising_config, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["norm", "--config", ising_config, "--nu", "1,2,3"]
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sample_deterministic_and_well_formed(ising_config, tmp_path):
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    argv = [
        "sample",
        "--config",
        ising_config,
        "--nu",
        "3",
        "--count",
        "20",
        "--seed",
        "5",
    ]
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert lines[0] == "state,log_density"
    assert len(lines) == 21
    state = lines[1].split(",")[0]
    assert len(state) == 9 and set(state) <= {"0", "1"}


def test_sample_json_format(ising_config, tmp_path):
    out = tmp_path / "s.jsonl"
    assert (
        run(
            [
                "sample",
                "--config",
                ising_config,
                "--nu",
                "2",
                "--count",
                "3",
                "--seed",
                "1",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    rows = [json.loads(line) for line in out.read_text().strip().splitlines()]
    assert len(rows) == 3
    assert set(rows[0]) == {"state", "log_density"}
    cfg = EliminationConfig(mode="approximate", nu=2, pomm_variant="post_approximation")
    batch = pomm_sample(eliminate(build_ising(LatticeSpec(3, 3), 0.4), cfg).pomm, 1, 3)
    assert [row["state"] for row in rows] == [per_bit_text(s) for s in batch.states]
    assert [row["log_density"] for row in rows] == batch.log_densities.tolist()


def test_gibbs_command(ising_config, tmp_path):
    out = tmp_path / "g.csv"
    argv = [
        "gibbs",
        "--config",
        ising_config,
        "--sweeps",
        "40",
        "--burn-in",
        "20",
        "--thin",
        "5",
        "--seed",
        "3",
        "--out",
        str(out),
    ]
    assert run(argv) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "state,log_density"
    assert len(lines) == 5
    batch = gibbs_sampler(build_ising(LatticeSpec(3, 3), 0.4), 40, 20, 5, 3)
    first = "".join(str(int(v)) for v in batch.states[0])
    assert lines[1].split(",")[0] == first


def test_map_flat_prior_thresholds(tmp_path):
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps({"family": "ising", "rows": 2, "cols": 3, "params": [0.0]}))
    y = np.array([0.2, 0.9, -0.4, 1.3, 0.51, 0.49])
    ypath = tmp_path / "y.txt"
    ypath.write_text("\n".join(f"{v}" for v in y))
    out = tmp_path / "map.csv"
    assert (
        run(
            [
                "map",
                "--config",
                str(cfg),
                "--y",
                str(ypath),
                "--mode",
                "exact",
                "--mu0",
                "0",
                "--mu1",
                "1",
                "--sigma",
                "1",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    state = out.read_text().strip().splitlines()[1]
    want = "".join("1" if abs(v - 1) < abs(v) else "0" for v in y)
    assert state == want


def test_mle_command_brackets_grid_mle(tmp_path):
    lat = LatticeSpec(3, 3)
    m = build_ising(lat, 0.5)
    obs = gibbs_sampler(m, sweeps=150, burn_in=149, thin=1, seed=2).states[0]
    xpath = tmp_path / "x.txt"
    xpath.write_text("".join(str(int(v)) for v in obs))
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps({"family": "ising", "rows": 3, "cols": 3, "params": [0.5]}))
    out = tmp_path / "mle.csv"
    assert (
        run(
            [
                "mle",
                "--config",
                str(cfg),
                "--x",
                str(xpath),
                "--nu",
                "9",
                "--theta-min",
                "0",
                "--theta-max",
                "2",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "nu,theta,ell_lower,ell_upper,retained"
    rows = [line.split(",") for line in lines[1:]]
    thetas = [float(r[1]) for r in rows]
    ells = [
        eval_pbf(build_ising(lat, t).energy, obs.reshape(1, -1))[0]
        - brute_log_c(build_ising(lat, t), 3, 3)
        for t in thetas
    ]
    best = int(np.argmax(ells))
    assert rows[best][4] == "1"


def test_reject_and_mh_rate_commands(ising_config, tmp_path):
    out = tmp_path / "r.csv"
    assert (
        run(
            [
                "reject",
                "--config",
                ising_config,
                "--nu",
                "3",
                "--count",
                "50",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    assert len(out.read_text().strip().splitlines()) == 51

    out2 = tmp_path / "rate.csv"
    assert (
        run(
            [
                "mh-rate",
                "--config",
                ising_config,
                "--nu",
                "3",
                "--pairs",
                "40",
                "--seed",
                "2",
                "--out",
                str(out2),
            ]
        )
        == 0
    )
    header, row = out2.read_text().strip().splitlines()
    assert header == "pairs,rate"
    rate = float(row.split(",")[1])
    assert 0.0 <= rate <= 1.0


def test_exit_code_on_config_errors(tmp_path):
    missing = tmp_path / "nope.json"
    assert run(["norm", "--config", str(missing), "--nu", "2"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run(["norm", "--config", str(bad), "--nu", "2"]) == 2
    incomplete = tmp_path / "inc.json"
    incomplete.write_text(json.dumps({"family": "ising"}))
    assert run(["norm", "--config", str(incomplete), "--nu", "2"]) == 2


def test_exit_code_on_resource_cap(ising_config):
    # a canonicalisation cap beyond the dense-table limit can never run
    assert run(["norm", "--config", ising_config, "--nu", "1", "--table-cap", "30"]) == 3


def test_config_file_supplies_table_cap_and_format(tmp_path):
    model = {"family": "ising", "rows": 3, "cols": 3, "params": [0.4]}
    capped = tmp_path / "capped.json"
    capped.write_text(json.dumps({**model, "table-cap": 26}))
    assert run(["norm", "--config", str(capped), "--nu", "2"]) == 3
    as_json = tmp_path / "as_json.json"
    as_json.write_text(json.dumps({**model, "format": "json"}))
    out = tmp_path / "norm.jsonl"
    assert run(["norm", "--config", str(as_json), "--nu", "1,2", "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().strip().splitlines()]
    assert [row["nu"] for row in rows] == [1, 2]
    # the flag still wins over the file
    argv = ["norm", "--config", str(as_json), "--nu", "1", "--format", "csv"]
    assert run(argv + ["--out", str(out)]) == 0
    assert out.read_text().startswith("nu,ln_c_approx")
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({**model, "format": "xml"}))
    assert run(["norm", "--config", str(unknown), "--nu", "2"]) == 2


def test_map_honours_table_cap(ising_config, tmp_path):
    ypath = tmp_path / "y.txt"
    ypath.write_text(" ".join(["0.3"] * 9))
    argv = ["map", "--config", ising_config, "--y", str(ypath), "--mode", "upper"]
    assert run(argv + ["--nu", "2", "--table-cap", "26"]) == 3


@pytest.mark.parametrize("command", ["sample", "map"])
def test_config_mode_outside_the_cli_names_is_a_usage_error(tmp_path, capsys, command):
    ypath = tmp_path / "y.txt"
    ypath.write_text(" ".join(["0.3"] * 9))
    model = {"family": "ising", "rows": 3, "cols": 3, "params": [0.4]}
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**model, "y": str(ypath), "mode": "approximate"}))
    assert run([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "'approximate'" in err
    assert all(name in err for name in ("approx", "exact", "lower", "upper"))


@pytest.mark.parametrize("count, n", [(0, 9), (1, 1), (7, 13), (40, 65), (3, 0)])
def test_state_texts_match_per_bit_join(count, n):
    states = (np.random.default_rng(n).random((count, n)) < 0.5).astype(np.uint8)
    assert state_texts(states) == [per_bit_text(s) for s in states]
    assert state_texts(np.asfortranarray(states)) == state_texts(states)


def test_gibbs_exit_code_on_neighbour_cap(monkeypatch):
    monkeypatch.setattr(cli, "_model", lambda args, config: star_mrf(DENSE_TABLE_CAP + 1))
    assert run(["gibbs", "--sweeps", "1", "--burn-in", "0", "--thin", "1"]) == 3


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("norm", "--mode", "exact"),
        ("norm", "--seed", "1"),
        ("sample", "--table-cap", "2"),
        ("gibbs", "--nu", "2"),
        ("gibbs", "--mode", "exact"),
        ("gibbs", "--table-cap", "2"),
        ("map", "--seed", "1"),
        ("mle", "--mode", "exact"),
        ("mle", "--seed", "1"),
        ("reject", "--mode", "exact"),
        ("mh-rate", "--mode", "exact"),
        ("mh-rate", "--table-cap", "2"),
    ],
)
def test_flags_a_command_does_not_read_are_usage_errors(
    ising_config, capsys, command, flag, value
):
    with pytest.raises(SystemExit) as info:
        run([command, "--config", ising_config, flag, value])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err



@pytest.fixture
def exact_config(tmp_path):
    """A 3x3 Ising config with observations for map and nu and table-cap defaults."""
    ypath = tmp_path / "y.txt"
    ypath.write_text(" ".join(["0.3"] * 9))
    model = {"family": "ising", "rows": 3, "cols": 3, "params": [0.4]}
    path = tmp_path / "exact.json"
    path.write_text(json.dumps({**model, "y": str(ypath), "nu": 2, "table-cap": 1}))
    return str(path)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["sample", "--mode", "exact", "--nu", "2"], "--nu"),
        (["map", "--mode", "exact", "--nu", "2", "--table-cap", "1"], "--nu"),
        (["map", "--mode", "exact", "--table-cap", "1"], "--table-cap"),
        # map defaults to exact mode
        (["map", "--nu", "2"], "--nu"),
    ],
)
def test_flags_exact_mode_does_not_read_are_usage_errors(
    exact_config, capsys, argv, flag
):
    assert run(argv + ["--config", exact_config]) == 2
    assert f"error: {flag} has no effect under --mode exact" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sample", "map"])
def test_config_defaults_exact_mode_does_not_read_are_allowed(
    exact_config, tmp_path, command
):
    out = tmp_path / "out.csv"
    argv = [command, "--config", exact_config, "--mode", "exact", "--out", str(out)]
    assert run(argv) == 0
