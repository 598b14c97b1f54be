"""Command-line front end.

Commands (all take ``--config`` with a model description and write a
machine-readable result table):

* ``norm``     -- approximate ln(c) plus certified lower/upper bounds per nu
* ``sample``   -- draw states from the POMM surrogate
* ``gibbs``    -- reference Gibbs sampling
* ``map``      -- maximum posterior state under Gaussian observations
* ``mle``      -- bracket the MLE of an Ising parameter
* ``reject``   -- exact samples by rejection against the POMM
* ``mh-rate``  -- Metropolis-Hastings acceptance rate of POMM proposals

The config file is JSON: the model keys (family, rows, cols, params) plus
optional defaults for any command flag (nu, seed, count, ...); flags win
over the file.  Each command accepts only the flags it reads, so a flag
it would ignore is a usage error (exit 2).  Every command is
deterministic given (config, seed); the ``norm`` timing column stays 0
unless ``--timing`` is passed, because wall-clock values would break
byte-identical reruns.

Exit codes: 0 success, 1 internal error (RuntimeError), 2 configuration
error, 3 resource-cap abort or out of memory.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .apps import (
    GaussianLikelihoodSpec,
    gibbs_sampler,
    map_estimate,
    mh_acceptance_rate,
    mle_bracket,
    rejection_sampler,
)
from .elimination import EliminationConfig, eliminate
from .models import MODEL_FAMILIES, LatticeSpec, build_ising, model_from_config
from .pbf import ResourceCapError, as_int, evaluate_many
from .pomm import _BLOCK_ROWS, sample as pomm_sample, state_texts

FORMATS = ("csv", "json")

MODE_NAMES = {
    "exact": "exact",
    "approx": "approximate",
    "lower": "lower_bound",
    "upper": "upper_bound",
}


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _lines(columns: list[str], rows, fmt: str):
    """The output text, one line at a time: a CSV header, then one line per row."""
    if fmt == "csv":
        yield ",".join(columns) + "\n"
        for row in rows:
            yield ",".join(_fmt(row[c]) for c in columns) + "\n"
        return
    for row in rows:
        fields = ", ".join(
            f'"{c}": ' + (json.dumps(row[c]) if isinstance(row[c], str) else _fmt(row[c]))
            for c in columns
        )
        yield "{" + fields + "}\n"


# A (state, log_density) row as :func:`_lines` writes it, for a 0/1 state
# string and a float density ("%.17g" formats as _fmt does).
_STATE_LINE = {"csv": "%s,%.17g\n", "json": '{"state": "%s", "log_density": %.17g}\n'}


def _state_lines(states, log_densities, fmt: str):
    """The (state, log_density) table: a header, then one string per block.

    Each block of _BLOCK_ROWS states is rendered by one format of the row
    template over the block's state texts and densities.
    """
    yield from _lines(["state", "log_density"], (), fmt)
    for start in range(0, len(states), _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        texts = state_texts(states[start:stop])
        cells = [None] * (2 * len(texts))
        cells[::2] = texts
        cells[1::2] = log_densities[start:stop].tolist()
        yield _STATE_LINE[fmt] * len(texts) % tuple(cells)


def _write(path, chunks) -> None:
    """Write each string of the iterable ``chunks`` as it arrives."""
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)


def _load_config(args) -> dict:
    config = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = json.load(handle)
        if not isinstance(config, dict):
            raise ValueError("config file must hold a JSON object")
    return config


def _setting(args, config, name, default=None, cast=None):
    """Flag value if given, else config-file value, else default."""
    value = getattr(args, name.replace("-", "_"), None)
    if value is None:
        value = config.get(name, default)
    if value is None:
        return None
    if cast is int:
        return as_int(name, value)
    return cast(value) if cast else value


def _refuse_under_exact(args, mode: str, *names: str) -> None:
    """Refuse flags (not config values) that exact mode does not read."""
    for name in names:
        if mode == "exact" and getattr(args, name) is not None:
            raise ValueError(f"--{name.replace('_', '-')} has no effect under --mode exact")


def _named(args, config, name, default, names: dict):
    """What ``names`` maps the flag or config-file value of ``name`` to."""
    key = _setting(args, config, name, default, str)
    if key not in names:
        raise ValueError(f"{name} must be one of {sorted(names)}, got {key!r}")
    return names[key]


def _model(args, config):
    model_keys = {"family", "rows", "cols", "params"}
    merged = {k: config[k] for k in model_keys if k in config}
    if args.family:
        merged["family"] = args.family
    if args.rows is not None:
        merged["rows"] = args.rows
    if args.cols is not None:
        merged["cols"] = args.cols
    if args.params:
        merged["params"] = [float(p) for p in args.params.split(",")]
    missing = model_keys - set(merged)
    if missing:
        raise ValueError(f"model config is missing {sorted(missing)}")
    return model_from_config(merged)


def _nu_list(args, config) -> list[int]:
    raw = _setting(args, config, "nu")
    if raw is None:
        raise ValueError("this command needs --nu")
    if isinstance(raw, str):
        raw = raw.split(",")
    return [as_int("nu", v) for v in (raw if isinstance(raw, list) else [raw])]


def _nu(args, config) -> int:
    """The one ``nu`` of a command that runs one cap; a list (flag or config) is refused."""
    nus = _nu_list(args, config)
    if len(nus) != 1:
        raise ValueError(f"--nu must be one value for {args.command}, got {nus}")
    return nus[0]


def _read_state(path, n: int) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as handle:
        bits = handle.read().split()
    joined = "".join(bits)
    if len(joined) != n or set(joined) - {"0", "1"}:
        raise ValueError(f"state file must hold exactly {n} binary digits")
    return np.array([int(ch) for ch in joined], dtype=np.uint8)


def _read_reals(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as handle:
        return np.array([float(tok) for tok in handle.read().split()], dtype=float)


# -- commands -----------------------------------------------------------------


def _cmd_norm(args, config) -> int:
    model = _model(args, config)
    table_cap = _setting(args, config, "table-cap", None, int)
    rows = []
    for nu in _nu_list(args, config):
        started = time.perf_counter()
        row = {"nu": nu}
        for mode, column in (
            ("approximate", "ln_c_approx"),
            ("lower_bound", "ln_c_lower"),
            ("upper_bound", "ln_c_upper"),
        ):
            cfg = EliminationConfig(mode=mode, nu=nu, table_cap=table_cap)
            row[column] = eliminate(model, cfg).log_value
        row["gap"] = row["ln_c_upper"] - row["ln_c_lower"]
        row["wall_seconds"] = time.perf_counter() - started if args.timing else 0.0
        rows.append(row)
    columns = ["nu", "ln_c_approx", "ln_c_lower", "ln_c_upper", "gap", "wall_seconds"]
    _write(args.out, _lines(columns, rows, args.format))
    return 0


def _cmd_sample(args, config) -> int:
    model = _model(args, config)
    seed = _setting(args, config, "seed", 0, int)
    count = _setting(args, config, "count", 100, int)
    variants = {"pre": "pre_approximation", "post": "post_approximation"}
    variant_name = _named(args, config, "pomm-variant", "post", variants)
    mode = _named(args, config, "mode", "approx", MODE_NAMES)
    if mode not in ("exact", "approximate"):
        raise ValueError("sample only supports exact or approx modes")
    _refuse_under_exact(args, mode, "nu")
    cfg = EliminationConfig(
        mode=mode,
        nu=_nu(args, config) if mode != "exact" else None,
        pomm_variant=variant_name,
    )
    pomm = eliminate(model, cfg).pomm
    batch = pomm_sample(pomm, seed, count)
    _write(args.out, _state_lines(batch.states, batch.log_densities, args.format))
    return 0


def _cmd_gibbs(args, config) -> int:
    model = _model(args, config)
    states = gibbs_sampler(
        model,
        sweeps=_setting(args, config, "sweeps", 1000, int),
        burn_in=_setting(args, config, "burn-in", 100, int),
        thin=_setting(args, config, "thin", 10, int),
        seed=_setting(args, config, "seed", 0, int),
        chains=_setting(args, config, "chains", 1, int),
    )
    # a Gibbs draw has no sampling density: the column holds the log target U(x)
    _write(args.out, _state_lines(states, evaluate_many(model, states), args.format))
    return 0


def _cmd_map(args, config) -> int:
    model = _model(args, config)
    y = _read_reals(_require_arg(args, config, "y"))
    lik = GaussianLikelihoodSpec(
        mu0=_setting(args, config, "mu0", 0.0, float),
        mu1=_setting(args, config, "mu1", 1.0, float),
        sigma=_setting(args, config, "sigma", 1.0, float),
    )
    mode = _named(args, config, "mode", "exact", MODE_NAMES)
    _refuse_under_exact(args, mode, "nu", "table_cap")
    nu = None if mode == "exact" else _nu(args, config)
    table_cap = _setting(args, config, "table-cap", None, int)
    cfg = EliminationConfig(mode=mode, marginal="max", nu=nu, table_cap=table_cap)
    state = map_estimate(y, model, lik, cfg)
    rows = [{"state": state_texts(state.reshape(1, -1))[0]}]
    _write(args.out, _lines(["state"], rows, args.format))
    return 0


def _cmd_mle(args, config) -> int:
    _model(args, config)  # refused as any command refuses it, a non-finite theta too
    if _setting(args, config, "family") != "ising":
        raise ValueError("mle bracketing supports the scalar-parameter ising family")
    lat = LatticeSpec(*(_setting(args, config, key, None, int) for key in ("rows", "cols")))
    observed = _read_state(_require_arg(args, config, "x"), lat.n)
    lo = _setting(args, config, "theta-min", 0.0, float)
    hi = _setting(args, config, "theta-max", 2.0, float)
    if not np.isfinite((lo, hi)).all():  # np.linspace would warn first
        raise ValueError(f"theta-min and theta-max must be finite, got {lo} and {hi}")
    points = _setting(args, config, "grid-points", 11, int)
    if points < 3:
        raise ValueError(f"grid_points must be at least 3, got {points}")
    np.empty(points)  # np.linspace misreads a count near 2^63; this refuses it first
    nus = _nu_list(args, config)
    bracket = mle_bracket(
        observed,
        lambda theta: build_ising(lat, theta),
        np.linspace(lo, hi, points),
        nus,
        table_cap=_setting(args, config, "table-cap", None, int),
    )
    rows = []
    for rnd in bracket.rounds:
        for k, theta in enumerate(rnd.grid):
            rows.append(
                {
                    "nu": rnd.nu,
                    "theta": theta,
                    "ell_lower": rnd.ell_lower[k],
                    "ell_upper": rnd.ell_upper[k],
                    "retained": int(rnd.kept_lo <= k <= rnd.kept_hi),
                }
            )
    columns = ["nu", "theta", "ell_lower", "ell_upper", "retained"]
    _write(args.out, _lines(columns, rows, args.format))
    sys.stderr.write(
        f"mle bracket: ({bracket.theta_lo:.17g}, {bracket.theta_hi:.17g})\n"
    )
    return 0


def _cmd_reject(args, config) -> int:
    model = _model(args, config)
    result = rejection_sampler(
        model,
        nu=_nu(args, config),
        seed=_setting(args, config, "seed", 0, int),
        count=_setting(args, config, "count", 100, int),
        rate_floor=_setting(args, config, "rate-floor", 1e-3, float),
    )
    samples = result.samples
    _write(args.out, _state_lines(samples.states, samples.log_densities, args.format))
    sys.stderr.write(
        f"acceptance_rate {result.acceptance_rate:.17g} trials {result.trials} "
        f"log_k_bound {result.log_k_bound:.17g}\n"
    )
    return 0


def _cmd_mh_rate(args, config) -> int:
    model = _model(args, config)
    nu = _nu(args, config)
    seed = _setting(args, config, "seed", 0, int)
    pairs = _setting(args, config, "pairs", 200, int)
    cfg = EliminationConfig(
        mode="approximate", nu=nu, pomm_variant="pre_approximation"
    )
    pomm = eliminate(model, cfg).pomm
    thin = _setting(args, config, "thin", 10, int)
    burn_in = _setting(args, config, "burn-in", 100, int)
    chains = _setting(args, config, "chains", 8, int)
    if chains < 1:
        raise ValueError(f"chains must be >= 1, got {chains}")
    if pairs < 1:
        raise ValueError(f"pairs must be >= 1, got {pairs}")
    # the reference states: each chain records one state every thin sweeps
    # after burn-in, until the chains hold at least one per pair
    per_chain = -(-pairs // chains)
    reference = gibbs_sampler(
        model,
        sweeps=burn_in + per_chain * thin,
        burn_in=burn_in,
        thin=thin,
        seed=seed,
        chains=chains,
    )[:pairs]
    rate = mh_acceptance_rate(model, pomm, reference, seed)
    _write(args.out, _lines(["pairs", "rate"], [{"pairs": pairs, "rate": rate}], args.format))
    return 0


def _require_arg(args, config, name):
    value = _setting(args, config, name)
    if value is None:
        raise ValueError(f"this command needs --{name}")
    return value


# -- argument parsing -----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbmrf",
        description="Pseudo-Boolean elimination for binary Markov random fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Flags some commands read; each command registers only those it reads,
    # so argparse rejects the others instead of ignoring them.
    shared = {
        "--nu": {"help": "neighbourhood cap, or comma list for sweeps"},
        "--mode": {"choices": sorted(MODE_NAMES)},
        "--seed": {"type": int},
        "--table-cap": {
            "type": int,
            "help": "bound canonicalisation cap: the most variables a merged "
            "clamp table may span besides the partner (default nu)",
        },
    }

    def command(name, help_text, run, *flags):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file with the model and defaults")
        p.add_argument("--family", choices=sorted(MODEL_FAMILIES))
        p.add_argument("--rows", type=int)
        p.add_argument("--cols", type=int)
        p.add_argument("--params", help="comma-separated model parameters")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=FORMATS)
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        p.set_defaults(run=run)
        return p

    p = command(
        "norm", "normalising-constant approximation and bounds", _cmd_norm,
        "--nu", "--table-cap",
    )
    p.add_argument("--timing", action="store_true", help="fill the wall_seconds column")

    p = command(
        "sample", "draw states from the POMM surrogate", _cmd_sample,
        "--nu", "--mode", "--seed",
    )
    p.add_argument("--count", type=int)
    p.add_argument("--pomm-variant", choices=["pre", "post"])

    p = command("gibbs", "reference Gibbs sampler", _cmd_gibbs, "--seed")
    p.add_argument("--sweeps", type=int)
    p.add_argument("--burn-in", type=int)
    p.add_argument("--thin", type=int)
    p.add_argument("--chains", type=int)

    p = command(
        "map", "maximum posterior state", _cmd_map, "--nu", "--mode", "--table-cap"
    )
    p.add_argument("--y", help="file of real observations, one per node")
    p.add_argument("--mu0", type=float)
    p.add_argument("--mu1", type=float)
    p.add_argument("--sigma", type=float)

    p = command("mle", "bracket the Ising MLE", _cmd_mle, "--nu", "--table-cap")
    p.add_argument("--x", help="file with the observed 0/1 state")
    p.add_argument("--theta-min", type=float)
    p.add_argument("--theta-max", type=float)
    p.add_argument("--grid-points", type=int)

    p = command("reject", "exact samples by rejection", _cmd_reject, "--nu", "--seed")
    p.add_argument("--count", type=int)
    p.add_argument("--rate-floor", type=float)

    p = command(
        "mh-rate", "POMM proposal acceptance rate", _cmd_mh_rate, "--nu", "--seed"
    )
    p.add_argument("--pairs", type=int)
    p.add_argument("--burn-in", type=int)
    p.add_argument("--thin", type=int)
    p.add_argument("--chains", type=int)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
        # The output format every command shares: flag, then config file.
        args.format = _setting(args, config, "format", "csv", str)
        if args.format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}, got {args.format!r}")
        return args.run(args, config)
    except (ResourceCapError, MemoryError) as exc:
        sys.stderr.write(f"resource cap: {str(exc) or 'out of memory'}\n")
        return 3
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except RuntimeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
