"""Command-line interface: outputs, determinism, exit codes."""

import contextlib
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import all_states, brute_log_c, eval_pbf, star_mrf
from pbmrf import (
    DENSE_TABLE_CAP,
    EliminationConfig,
    LatticeSpec,
    ResourceCapError,
    build_ising,
    eliminate,
    gibbs_sampler,
)
from pbmrf import cli
from pbmrf.cli import main
from pbmrf.models import MAX_LATTICE_NODES
from pbmrf.pbf import evaluate_many
from pbmrf.pomm import (
    _BLOCK_ROWS as BLOCK_ROWS,
    sample as pomm_sample,
    state_texts,
)


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
    exact = brute_log_c("ising", (0.8,), 4, 4)
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


@pytest.mark.parametrize("fmt, text", [("csv", "state,log_density\n"), ("json", "")])
def test_sample_zero_count_writes_only_the_header(ising_config, tmp_path, fmt, text):
    out = tmp_path / f"s.{fmt}"
    args = ["sample", "--config", ising_config, "--nu", "2", "--count", "0"]
    assert run(args + ["--format", fmt, "--out", str(out)]) == 0
    assert out.read_text() == text


@pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sample_streams_blocks_of_text(
    ising_config, tmp_path, monkeypatch, capsys, fmt, to_file
):
    rendered = []

    def one_block_at_a_time(states):
        rendered.append(len(states))
        return state_texts(states)

    monkeypatch.setattr(cli, "state_texts", one_block_at_a_time)
    count = 2 * BLOCK_ROWS + 808
    argv = ["sample", "--config", ising_config, "--nu", "2", "--count", str(count),
            "--seed", "4", "--format", fmt]
    out = tmp_path / "s.out"
    assert run(argv + (["--out", str(out)] if to_file else [])) == 0
    got = out.read_text() if to_file else capsys.readouterr().out
    assert rendered == [BLOCK_ROWS, BLOCK_ROWS, 808]

    cfg = EliminationConfig(mode="approximate", nu=2, pomm_variant="post_approximation")
    batch = pomm_sample(eliminate(build_ising(LatticeSpec(3, 3), 0.4), cfg).pomm, 4, count)
    pairs = zip(state_texts(batch.states), batch.log_densities)
    if fmt == "csv":
        want = "state,log_density\n" + "".join(f"{t},{d:.17g}\n" for t, d in pairs)
    else:
        want = "".join(f'{{"state": "{t}", "log_density": {d:.17g}}}\n' for t, d in pairs)
    assert got == want


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
    model = build_ising(LatticeSpec(3, 3), 0.4)
    states = gibbs_sampler(model, 40, 20, 5, 3)
    texts, dens = zip(*(line.split(",") for line in lines[1:]))
    assert list(texts) == [per_bit_text(s) for s in states]
    # the log density column is the log target U(x) of each written state, bit for bit
    written = np.array([[int(ch) for ch in t] for t in texts], dtype=np.uint8)
    want = evaluate_many(model, written)
    assert [float(d).hex() for d in dens] == [float(u).hex() for u in want]


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
    obs = gibbs_sampler(m, sweeps=150, burn_in=149, thin=1, seed=2)[0]
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
        eval_pbf(build_ising(lat, t), obs.reshape(1, -1))[0]
        - brute_log_c("ising", (t,), 3, 3)
        for t in thetas
    ]
    best = int(np.argmax(ells))
    assert rows[best][4] == "1"


@pytest.mark.parametrize(
    "command, argv, message",
    [("norm", ["--family", "autologistic", "--params", "0.5,nan", "--nu", "2"],
      "coefficient of (0, 1) must be finite"),
     ("norm", ["--family", "ising", "--params", "inf", "--nu", "2"], "must be finite"),
     ("map", ["--family", "ising", "--params", "0.5", "--y", "Y_NAN", "--mode", "exact"],
      "must be finite"),
     ("map", ["--family", "ising", "--params", "0.5", "--y", "Y", "--sigma", "nan", "--mode",
              "exact"], "sigma must be positive, got nan"),
     ("mle", ["--family", "ising", "--params", "0.5", "--x", "X", "--theta-min", "nan",
              "--nu", "2"], "must be finite"),
     ("reject", ["--family", "ising", "--params", "0.5", "--nu", "2", "--rate-floor", "nan"],
      "rate_floor must lie in [0, 1], got nan")],
)
def test_non_finite_inputs_are_usage_errors(tmp_path, capsys, command, argv, message):
    files = {"Y": "0.1 " * 9, "Y_NAN": "0.1 " * 8 + "nan", "X": "010101010"}
    for name, text in files.items():
        (tmp_path / name).write_text(text + "\n")
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    out = tmp_path / "out.csv"
    assert run([command, "--rows", "3", "--cols", "3", *argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bound", ["--theta-max=inf", "--theta-min=-inf"])
def test_mle_non_finite_theta_range_prints_only_the_error(ising_config, tmp_path, capsys, bound):
    x = tmp_path / "x.txt"
    x.write_text("0" * 9)
    argv = ["mle", "--config", ising_config, "--x", str(x), "--nu", "2", bound]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([*argv, "--out", str(tmp_path / "mle.csv")]) == 2
    assert [str(w.message) for w in caught] == []
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: theta-min and theta-max must be finite, got ")


@pytest.mark.parametrize(
    "command, argv",
    [("sample", ["--nu", "2", "--count", "3"]),
     ("gibbs", ["--sweeps", "2", "--burn-in", "0", "--thin", "1"]),
     ("reject", ["--nu", "2", "--count", "3"]),
     ("mh-rate", ["--nu", "2", "--pairs", "3", "--burn-in", "0", "--thin", "1"])],
)
def test_seed_past_64_bits_is_a_usage_error(ising_config, tmp_path, capsys, command, argv):
    argv = [command, "--config", ising_config, *argv, "--out", str(tmp_path / "out.csv")]
    assert run([*argv, "--seed", str(2**64 - 1)]) == 0
    capsys.readouterr()
    assert run([*argv, "--seed", str(2**64)]) == 2
    assert capsys.readouterr().err == f"error: seed must lie in [0, 2^64 - 1], got {2**64}\n"


def test_pomm_sample_refuses_a_seed_past_64_bits():
    model = build_ising(LatticeSpec(2, 2), 0.4)
    pomm = eliminate(model, EliminationConfig(pomm_variant="pre_approximation")).pomm
    assert pomm_sample(pomm, 2**64 - 1, 2).count == 2
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^64 - 1\]"):
        pomm_sample(pomm, 2**64, 2)


def test_mle_command_needs_three_grid_points(ising_config, tmp_path, capsys):
    x = tmp_path / "x.txt"
    x.write_text("0" * 9)
    argv = ["mle", "--config", ising_config, "--x", str(x), "--nu", "2,3", "--grid-points", "2"]
    assert run(argv) == 2
    assert "grid_points must be at least 3" in capsys.readouterr().err


@pytest.mark.parametrize("points", [2**63 - 1, 2**63, 2**64])
def test_mle_grid_points_past_numpy_counts_is_a_usage_error(ising_config, tmp_path, capsys, points):
    # np.linspace read a count near 2^63 as an empty grid: an IndexError, exit 1
    x = tmp_path / "x.txt"
    x.write_text("0" * 9)
    argv = ["mle", "--config", ising_config, "--x", str(x), "--nu", "2", "--grid-points"]
    assert run([*argv, str(points), "--out", str(tmp_path / "mle.csv")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("flag", ["--mu0=1e308", "--mu1=1e308", "--sigma=1e-300"])
def test_map_overflowing_likelihood_prints_only_the_error(ising_config, tmp_path, capsys, flag):
    # each used to print numpy's overflow or divide-by-zero warning first
    y = tmp_path / "y.txt"
    y.write_text("0.3 " * 9)
    argv = ["map", "--config", ising_config, "--y", str(y), flag]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([*argv, "--out", str(tmp_path / "map.csv")]) == 2
    assert [str(w.message) for w in caught] == []
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert re.match(r"error: coefficient of \(.*\) must be finite, got ", lines[0])


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


@pytest.mark.parametrize("chains", ["0", "-1"])
def test_mh_rate_refuses_fewer_than_one_chain(ising_config, tmp_path, capsys, chains):
    out = tmp_path / "rate.csv"
    argv = ["mh-rate", "--config", ising_config, "--nu", "2", "--pairs", "3"]
    assert run(argv + ["--chains", chains, "--out", str(out)]) == 2
    assert f"chains must be >= 1, got {chains}" in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_on_config_errors(tmp_path):
    missing = tmp_path / "nope.json"
    assert run(["norm", "--config", str(missing), "--nu", "2"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run(["norm", "--config", str(bad), "--nu", "2"]) == 2
    incomplete = tmp_path / "inc.json"
    incomplete.write_text(json.dumps({"family": "ising"}))
    assert run(["norm", "--config", str(incomplete), "--nu", "2"]) == 2


@pytest.mark.parametrize(
    "settings, key",
    [({"nu": 2.7}, "nu"), ({"count": 3.9}, "count"), ({"seed": 1.5}, "seed"),
     ({"nu": [2, 2.5]}, "nu"), ({"seed": True}, "seed"), ({"rows": 3.5}, "rows")],
)
def test_config_file_refuses_non_integral_settings(tmp_path, capsys, settings, key):
    path = tmp_path / "model.json"
    model = {"family": "ising", "rows": 3, "cols": 3, "params": [0.4], "nu": 2}
    path.write_text(json.dumps({**model, **settings}))
    assert run(["sample", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"{key} must be an integer" in capsys.readouterr().err


def test_config_file_takes_integral_floats(tmp_path):
    model = {"family": "ising", "rows": 3.0, "cols": 3, "params": [0.4]}
    outputs = []
    for settings in ({"nu": 2.0, "count": 5.0, "seed": 1.0}, {"nu": 2, "count": 5, "seed": 1}):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**model, **settings}))
        out = tmp_path / f"out{len(outputs)}.csv"
        assert run(["sample", "--config", str(path), "--out", str(out)]) == 0
        outputs.append(out.read_text())
    assert outputs[0] == outputs[1] and len(outputs[0].splitlines()) == 6


def test_nu_flag_refuses_a_fraction(ising_config, capsys):
    assert run(["norm", "--config", ising_config, "--nu", "2,2.5"]) == 2
    assert "nu must be an integer, got '2.5'" in capsys.readouterr().err


def test_exit_code_on_resource_cap(ising_config):
    # a canonicalisation cap beyond the dense-table limit can never run
    assert run(["norm", "--config", ising_config, "--nu", "1", "--table-cap", "30"]) == 3


def test_exit_code_on_out_of_memory(ising_config, monkeypatch, capsys):
    def refuse(pomm, seed, count):
        raise MemoryError()

    monkeypatch.setattr(cli, "pomm_sample", refuse)
    assert run(["sample", "--config", ising_config, "--nu", "2", "--count", "5"]) == 3
    assert capsys.readouterr().err == "resource cap: out of memory\n"


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
    "argv",
    [
        ["gibbs", "--sweeps", str(2**64), "--burn-in", "0", "--thin", str(2**63)],
        ["gibbs", "--sweeps", str(2**63 + 5), "--burn-in", str(2**63), "--thin", "2"],
        ["mh-rate", "--nu", "1", "--pairs", "9", "--chains", "8", "--thin", str(2**63)],
        ["mh-rate", "--nu", "1", "--pairs", "3", "--burn-in", str(2**63)],
    ],
)
def test_gibbs_work_past_the_update_cap_exits_3(argv, capsys):
    # each records a few states after about 2^63 sweeps
    assert run(argv + ["--family", "ising", "--rows", "2", "--cols", "2", "--params", "0.4"]) == 3
    assert "site updates" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_state_blocks_render_as_the_row_writer_does(fmt):
    states = np.random.default_rng(3).integers(0, 2, size=(10, 7), dtype=np.uint8)
    dens = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -1.7976931348623157e308,
            0.1, -123.456789012345678, 1e22]
    rows = [{"state": t, "log_density": d} for t, d in zip(state_texts(states), dens)]
    want = "".join(cli._lines(["state", "log_density"], rows, fmt))
    assert "".join(cli._state_lines(states, np.array(dens), fmt)) == want


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
        ("reject", "--table-cap", "2"),
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


@pytest.mark.parametrize(
    "source, nus",
    [("flag", [2, 5]), ("config", [2, 5]), ("config", [])],
    ids=["flag", "config", "empty"],
)
@pytest.mark.parametrize(
    "command, flags",
    [
        ("sample", ["--count", "3"]),
        ("map", ["--mode", "approx"]),
        ("reject", ["--count", "3"]),
        ("mh-rate", ["--pairs", "3", "--burn-in", "0", "--thin", "1"]),
    ],
)
def test_single_cap_commands_refuse_a_nu_list(tmp_path, capsys, command, flags, source, nus):
    # each used to run with the first value and drop the rest (an empty list: an IndexError)
    ypath = tmp_path / "y.txt"
    ypath.write_text(" ".join(["0.3"] * 9))
    config = {"family": "ising", "rows": 3, "cols": 3, "params": [0.4], "y": str(ypath)}
    path = tmp_path / "model.json"
    argv = [command, "--config", str(path), *flags, "--out", str(tmp_path / "out.csv")]
    path.write_text(json.dumps({**config, "nu": 2}))
    assert run(argv) == 0
    capsys.readouterr()
    if source == "flag":
        argv += ["--nu", ",".join(map(str, nus))]
    else:
        path.write_text(json.dumps({**config, "nu": nus}))
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: --nu must be one value for {command}, got {nus}\n"


@pytest.mark.parametrize("command", ["sample", "map"])
def test_config_defaults_exact_mode_does_not_read_are_allowed(
    exact_config, tmp_path, command
):
    out = tmp_path / "out.csv"
    argv = [command, "--config", exact_config, "--mode", "exact", "--out", str(out)]
    assert run(argv) == 0


# -- every bad input refused by name: the command-line contract ----------------


@pytest.mark.parametrize("rows, cols", [(MAX_LATTICE_NODES + 1, 1), (1, MAX_LATTICE_NODES + 1),
                                        (2**63, 2), (2, 2**64)])
def test_lattice_past_the_node_cap_is_refused_before_it_builds(tmp_path, capsys, rows, cols):
    # a lattice of 2^63 rows used to be built edge by edge until memory ran
    # out; this test runs before the contract tests below, which draw such
    # sizes, so that a lost cap fails here rather than building there
    with pytest.raises(ResourceCapError, match=rf"rows={rows} x cols={cols} has "):
        LatticeSpec(rows, cols)
    argv = ["norm", "--family", "ising", "--rows", str(rows), "--cols", str(cols),
            "--params", "0.4", "--nu", "2", "--out", str(tmp_path / "out.csv")]
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err == f"resource cap: lattice rows={rows} x cols={cols} has {rows * cols} nodes, " \
                  f"cap is {MAX_LATTICE_NODES}\n"
    assert LatticeSpec(MAX_LATTICE_NODES, 1).n == MAX_LATTICE_NODES


# Values that slipped through hand-made checks before: integers at and past
# 64 bits, non-finite and fractional numbers, a word, the empty string, a
# missing file and a parameter list of the wrong length.
EDGE_VALUES = ["0", "-1", str(2**63), str(2**64), "1e308", "inf", "-inf", "nan", "2.5",
               "true", "", "MISSING", "0.1,0.2,0.3"]
# Every flag takes every value: a lattice past models.MAX_LATTICE_NODES is
# refused before it is built, and a Gibbs run past apps.GIBBS_UPDATE_CAP
# before its first sweep, so every run stays short.
MODEL_FLAGS = {"--family": "ising", "--rows": "2", "--cols": "2", "--params": "0.4"}
# Each command's flags, with a value that runs on the 2x2 Ising model.
COMMAND_FLAGS = {
    "norm": {"--nu": "1", "--table-cap": "1"},
    "sample": {"--nu": "1", "--count": "3", "--seed": "0", "--mode": "approx",
               "--pomm-variant": "post"},
    "gibbs": {"--sweeps": "3", "--burn-in": "0", "--thin": "1", "--chains": "2", "--seed": "0"},
    "map": {"--y": "Y", "--mu0": "0", "--mu1": "1", "--sigma": "1", "--mode": "upper",
            "--nu": "1", "--table-cap": "1"},
    "mle": {"--x": "X", "--theta-min": "0", "--theta-max": "2", "--grid-points": "3",
            "--nu": "1", "--table-cap": "1"},
    "reject": {"--nu": "1", "--count": "3", "--seed": "0", "--rate-floor": "0.001"},
    "mh-rate": {"--nu": "1", "--seed": "0", "--pairs": "3", "--burn-in": "0", "--thin": "1",
                "--chains": "8"},
}
# The RuntimeErrors the commands document (exit 1).
DOCUMENTED_RUNTIME_ERRORS = ("error: rejection rate ", "error: no grid point survives ")


@pytest.fixture(scope="module")
def edge_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("edge")
    (root / "Y").write_text("0.1 0.2 0.9 0.3\n")
    (root / "X").write_text("0101\n")
    return root


def assert_one_error_line(edge_files, command, flags):
    """Run ``command`` with ``flags``: no exception, no warning, one error line if it fails."""
    files = {"Y": edge_files / "Y", "X": edge_files / "X", "MISSING": edge_files / "missing"}
    argv = [command] + [f"{flag}={files.get(value, value)}" for flag, value in flags.items()]
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        try:
            code = run([*argv, f"--out={edge_files / 'out'}"])
        except SystemExit as exc:  # argparse refused the text of a flag
            code = exc.code
    assert [str(w.message) for w in caught] == [], argv
    if code == 0:
        return
    lines = stderr.getvalue().splitlines()
    errors = [line for line in lines if "error: " in line or line.startswith("resource cap: ")]
    assert len(errors) == 1, (argv, lines)
    assert code in (1, 2, 3), argv
    if code == 1:
        assert errors[0].startswith(DOCUMENTED_RUNTIME_ERRORS), (argv, errors)


def test_every_bad_flag_value_is_refused_by_one_error_line(edge_files):
    # each flag of each command alone, at every value of its pool
    for command, own in COMMAND_FLAGS.items():
        flags = {**MODEL_FLAGS, **own}
        for flag in flags:
            for value in EDGE_VALUES:
                assert_one_error_line(edge_files, command, {**flags, flag: value})


@st.composite
def edge_commands(draw):
    """A command and its flags, two or three of them set to an edge value."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    flags = {**MODEL_FLAGS, **COMMAND_FLAGS[command]}
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), min_size=2, max_size=3, unique=True)):
        flags[flag] = draw(st.sampled_from(EDGE_VALUES))
    return command, flags


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(edge_commands())
def test_every_bad_input_is_refused_by_one_error_line(edge_files, drawn):
    # combinations of bad values; the test above takes every single one
    assert_one_error_line(edge_files, *drawn)
