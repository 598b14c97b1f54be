#!/bin/sh
# Byte-identity check for refactors that must not change any output.
#
# usage: sh tools/compare_outputs.sh SRC_DIR OUT_DIR
#
# Runs a fixed set of CLI commands and library calls against the pbmrf
# package found in SRC_DIR (the directory holding the `pbmrf` package,
# e.g. a checkout's `src`) and writes every output into OUT_DIR.  Run it
# once on the old tree's src and once on the new tree's src, into two
# directories, then compare them with `diff -r OUT_OLD OUT_NEW`: any
# difference is a change in behaviour.
set -e
SRC=$1; OUT=$2; mkdir -p "$OUT"
export PYTHONPATH="$SRC"
P="python3 -m pbmrf.cli"
echo '{"family":"ising","rows":10,"cols":10,"params":[0.6]}' > "$OUT/ising.json"
echo '{"family":"higher_order","rows":10,"cols":10,"params":[0.3,-0.2,0.1,0.4,-0.3,0.2,0.1,-0.1,0.25,-0.15]}' > "$OUT/ho.json"
echo '{"family":"ising","rows":5,"cols":5,"params":[0.4]}' > "$OUT/small.json"
python3 -c "import numpy as np; r=np.random.default_rng(7); print(' '.join(f'{v:.6f}' for v in r.normal(0,0.6,100) + (np.arange(100) % 10 >= 5)))" > "$OUT/y.txt"
python3 -c "import numpy as np; r=np.random.default_rng(8); print(''.join(str(v) for v in r.integers(0,2,25)))" > "$OUT/x.txt"
$P norm --config "$OUT/ising.json" --nu 3,6 --out "$OUT/norm_ising.csv"
$P norm --config "$OUT/ho.json" --nu 5 --table-cap 3 --out "$OUT/norm_ho.csv"
$P map --config "$OUT/ising.json" --y "$OUT/y.txt" --mode exact --out "$OUT/map_exact.csv"
$P map --config "$OUT/ising.json" --y "$OUT/y.txt" --mode upper --nu 4 --out "$OUT/map_upper.csv"
$P map --config "$OUT/ho.json" --y "$OUT/y.txt" --mode exact --out "$OUT/map_ho_exact.csv"
$P sample --config "$OUT/ising.json" --nu 6 --count 300 --seed 3 --out "$OUT/sample.csv"
$P sample --config "$OUT/ho.json" --nu 5 --count 100 --seed 4 --pomm-variant pre --format json --out "$OUT/sample_ho.json"
$P sample --config "$OUT/small.json" --nu 3 --count 9000 --seed 10 --out "$OUT/sample_9000.csv"
$P sample --config "$OUT/small.json" --mode exact --count 200 --seed 11 --out "$OUT/sample_exact.csv"
$P reject --config "$OUT/small.json" --nu 4 --count 100 --seed 5 --out "$OUT/reject.csv" 2> "$OUT/reject.err"
# A round of 2 x 3000 trials is drawn in two blocks of at most 4,096 rows.
$P reject --config "$OUT/small.json" --nu 4 --count 3000 --seed 6 --out "$OUT/reject_3000.csv" 2> "$OUT/reject_3000.err"
# Ising 30x30 theta 0.6 nu 6: many removals, so the rejection constant is
# loosest here and its acceptance rate shows the certificate's slack.
$P reject --family ising --rows 30 --cols 30 --params 0.6 --nu 6 --count 100 --seed 5 --out "$OUT/reject_30x30.csv" 2> "$OUT/reject_30x30.err"
$P mh-rate --config "$OUT/small.json" --nu 3 --pairs 100 --seed 5 --out "$OUT/mh.csv"
# The first-order families besides Ising: autologistic bounds, and the MAP
# of an autologistic prior with theta0 = 0, whose energy holds its
# singletons only as closure zeros that the posterior fills in.
$P norm --family autologistic --rows 8 --cols 8 --params 0.4,-0.3 --nu 3,6 --out "$OUT/norm_autologistic.csv"
$P map --family autologistic --rows 10 --cols 10 --params 0,0.3 --y "$OUT/y.txt" --mode exact --out "$OUT/map_autologistic.csv"
$P norm --family independence --rows 7 --cols 7 --params 0.5 --nu 2,4 --out "$OUT/norm_independence.csv"
$P gibbs --config "$OUT/small.json" --sweeps 50 --burn-in 10 --thin 5 --seed 2 --out "$OUT/gibbs.csv"
$P gibbs --config "$OUT/ho.json" --sweeps 60 --burn-in 10 --thin 5 --seed 6 --chains 3 --out "$OUT/gibbs_ho.csv"
$P gibbs --family ising --rows 4 --cols 7 --params 0.7 --sweeps 80 --burn-in 20 --thin 3 --seed 7 --chains 2 --format json --out "$OUT/gibbs_4x7.json"
$P mh-rate --config "$OUT/ho.json" --nu 4 --pairs 60 --burn-in 20 --thin 4 --seed 8 --out "$OUT/mh_ho.csv"
# Exact sampling on Ising 6x9: the POMM's conditionals reach 9 dependencies,
# so a row index with the sampled bit appended needs 10 bits (uint16).
$P sample --family ising --rows 6 --cols 9 --params 0.5 --mode exact --count 5000 --seed 12 --out "$OUT/sample_exact_6x9.csv"
# 1,000 chains leave room for the uniforms of 4 sweeps, so the Gibbs
# wavefront widens its skew to 3 and draws its 18 sweeps in 8 chunks.
$P gibbs --config "$OUT/small.json" --sweeps 30 --burn-in 4 --thin 13 --seed 13 --chains 1000 --out "$OUT/gibbs_chunks.csv"
# The bench's mh-rate shape: Ising 12x12, nu 6, 500 pairs from 8 chains.
$P mh-rate --family ising --rows 12 --cols 12 --params 0.5 --nu 6 --pairs 500 --chains 8 --seed 14 --out "$OUT/mh_12x12.csv"
$P mle --config "$OUT/small.json" --x "$OUT/x.txt" --nu 2,4 --grid-points 7 --out "$OUT/mle.csv" 2> "$OUT/mle.err"
# The bench mle run on its seed-1 observed state, and a first round at nu 4
# over the whole [0, 2] grid, where the grid's batched eliminations split.
echo '{"family":"ising","rows":12,"cols":12,"params":[1.0]}' > "$OUT/ising12.json"
echo 001010011000000000000111111100000100001000011101011100000101100010001100110011101001110111101110000111111000100010010100000000001000000011000001 > "$OUT/x12.txt"
$P mle --config "$OUT/ising12.json" --x "$OUT/x12.txt" --theta-min 0 --theta-max 2 --nu 2,4,6 --grid-points 11 --out "$OUT/mle_bench.csv" 2> "$OUT/mle_bench.err"
$P mle --config "$OUT/ising12.json" --x "$OUT/x12.txt" --theta-min 0 --theta-max 2 --nu 4,6 --grid-points 11 --out "$OUT/mle_wide.csv" 2> "$OUT/mle_wide.err"
python3 - > "$OUT/lib.txt" <<'EOF'
import numpy as np
from pbmrf import (LatticeSpec, build_ising, build_higher_order, build_2x2_rotinv,
    EliminationConfig, eliminate, eliminate_exact_sum, soir, bound_remove_pair,
    remove_single_interaction, to_json, interactions_from_values,
    extract_subset_family, add_scaled, scale)
from pbmrf import build_autologistic, GaussianLikelihoodSpec
from pbmrf.apps import posterior_energy, rejection_sampler
from pbmrf.pbf import tabulate
from pbmrf.pomm import log_density_many, sample
print(repr(eliminate_exact_sum(build_ising(LatticeSpec(8, 8), 0.6)).log_value))
ho = build_higher_order(LatticeSpec(5, 5), np.random.default_rng(3).uniform(-1, 1, 10))
print(repr(eliminate_exact_sum(ho).log_value))
r = eliminate(ho, EliminationConfig(marginal="max"))
print(r.to_json(), r.argmax.tolist())
f = build_higher_order(LatticeSpec(4, 4), np.random.default_rng(4).uniform(-1, 1, 10))
g, rep = soir(f, 0, 5)
print(to_json(g)); print(rep.to_json())
print(to_json(bound_remove_pair(f, 0, 5, "upper", 1)))
print(to_json(bound_remove_pair(f, 0, 5, "lower", 3)))
print(to_json(bound_remove_pair(f, 5, 10, "upper", 0)))
h, rep = remove_single_interaction(f, (0, 1, 4, 5))
print(to_json(h)); print(rep.to_json())
print(to_json(interactions_from_values(range(16), tabulate(f.terms().items(), range(16), "lib"))))
print(tabulate(f.terms().items(), range(15, -1, -1), "lib")[::97].tolist())
print(extract_subset_family(f, (5,), "containing"))
print(extract_subset_family(f, (5, 6), "complement")[:40])
print(to_json(add_scaled(f, scale(f, 0.5), 1.0, -2.0)))
for mode in ("approximate", "lower_bound", "upper_bound"):
    for marg in ("sum", "max"):
        r = eliminate(ho, EliminationConfig(mode=mode, marginal=marg, nu=3))
        print(r.to_json(), None if r.argmax is None else r.argmax.tolist(), r.per_step)
pomm = eliminate(ho, EliminationConfig(mode="approximate", nu=4, pomm_variant="post_approximation")).pomm
batch = sample(pomm, 12, 500)
print(batch.log_densities.tolist())
print(log_density_many(pomm, batch.states).tolist())
rot = build_2x2_rotinv(LatticeSpec(4, 4), [0.3, -0.2, 0.5, 0.1, -0.4])
print(to_json(rot))
# the posterior of an autologistic prior with theta0 = 0 (see map_autologistic.csv)
y = np.random.default_rng(5).normal(0, 0.6, 36) + (np.arange(36) % 3 == 0)
post = posterior_energy(y, build_autologistic(LatticeSpec(6, 6), 0.0, 0.3), GaussianLikelihoodSpec(0.0, 1.0, 0.6))
for mode in ("exact", "approximate", "upper_bound"):
    r = eliminate(post, EliminationConfig(mode=mode, marginal="max", nu=None if mode == "exact" else 3))
    print(r.to_json(), r.argmax.tolist(), r.per_step)
res = rejection_sampler(build_ising(LatticeSpec(4, 4), 0.5), nu=2, seed=9, count=50)
print(res.acceptance_rate, res.trials, res.max_alpha, res.log_k_bound)
print(res.samples.states.tolist(), res.samples.log_densities.tolist())
EOF
python3 - > "$OUT/orders.txt" <<'EOF'
# Runs on orders other than the identity, where a variable's index and its
# position in the order differ, so mixing the two up changes the output.
import numpy as np
from pbmrf import (LatticeSpec, build_ising, build_higher_order, EliminationConfig,
    eliminate, PseudoBooleanFunction)
def lattice_orders(rows, cols):
    n = rows * cols
    return {
        "column-major": tuple(r * cols + c for c in range(cols) for r in range(rows)),
        "reversed": tuple(range(n - 1, -1, -1)),
        "shuffled": tuple(int(v) for v in np.random.default_rng(7).permutation(n)),
    }
def show(label, target, order):
    for mode in ("exact", "approximate", "lower_bound", "upper_bound"):
        for marg in ("sum", "max"):
            r = eliminate(target, EliminationConfig(
                mode=mode, marginal=marg, nu=None if mode == "exact" else 3,
                order=order, table_cap=2,
                pomm_variant="post_approximation" if marg == "sum" else "none"))
            print(label, r.to_json(), None if r.argmax is None else r.argmax.tolist(), r.per_step)
            for c in r.pomm.conditionals if r.pomm else ():
                print(c.variable, c.depends_on, c.prob_one.tolist())
ho = build_higher_order(LatticeSpec(5, 6), np.random.default_rng(11).uniform(-1, 1, 10))
for name, order in lattice_orders(5, 6).items():
    show("higher_order 5x6 " + name, ho, order)
for name, order in lattice_orders(6, 7).items():
    show("ising 6x7 " + name, build_ising(LatticeSpec(6, 7), 0.6), order)
# an unpruned input whose zero leaves are dead from the start
terms = build_higher_order(LatticeSpec(3, 4), np.random.default_rng(12).uniform(-1, 1, 10)).terms()
terms.update({(0, 5): 0.0, (2, 7, 11): 0.0, (3, 4): 0.0, (1, 6, 8, 9): 0.0})
dead = PseudoBooleanFunction(12, terms, prune=False)
for name, order in lattice_orders(3, 4).items():
    show("dead leaves " + name, dead, order)
EOF
python3 - > "$OUT/bench_norm.txt" <<'EOF'
# The two models of the bench norm workload (seed 1), in every capped mode:
# their wide neighbourhoods have the densest partner-score ties and splits.
# Each run prints its SOIR certificate (soir_error, which to_json leaves
# out) in hex, so a change in any removal's residuals shows.
# The column-major runs file wide folded tables where a variable's index and
# its position in the order differ; they add about 8 s to this script
# (7-9 s on 2 CPUs of a shared machine).
import numpy as np
from pbmrf import LatticeSpec, build_ising, build_higher_order, EliminationConfig, eliminate
rng = np.random.default_rng([1, 1])
ising = build_ising(LatticeSpec(30, 30), float(rng.uniform(0.3, 0.7)))
ho = build_higher_order(LatticeSpec(16, 16), rng.uniform(-1.0, 1.0, 10))
for label, side, model, nu, cap in (("ising 30x30", 30, ising, 8, None),
                                    ("higher_order 16x16", 16, ho, 6, 3)):
    column_major = tuple(r * side + c for c in range(side) for r in range(side))
    for name, order in (("", None), (" column-major", column_major)):
        for mode in ("approximate", "lower_bound", "upper_bound"):
            for marg in ("sum", "max"):
                r = eliminate(model, EliminationConfig(
                    mode=mode, marginal=marg, nu=nu, table_cap=cap, order=order))
                print(label + name, r.to_json(), r.soir_error.hex(),
                      None if r.argmax is None else r.argmax.tolist(), r.per_step)
EOF
python3 - > "$OUT/batch_groups.txt" <<'EOF'
# One batched call whose 12x12 Ising members hold different nonzero input
# sets: theta 0 (no interactions), theta 0.6 with and without the last
# variable's singleton, the same energy with its sets in reversed order, and
# theta 0.9.  Every member must come out as its own run would, its SOIR
# certificate (in hex) included.  A POMM table is printed as the SHA-256 of
# its bytes: the exact ones are wide.
import hashlib
from pbmrf import LatticeSpec, build_ising, EliminationConfig, eliminate_many, PseudoBooleanFunction
lattice = LatticeSpec(12, 12)
base = build_ising(lattice, 0.6)
late = PseudoBooleanFunction(lattice.n, {**base.terms(), (lattice.n - 1,): 0.0})
reordered = PseudoBooleanFunction(lattice.n, dict(reversed(base.terms().items())))
members = [build_ising(lattice, 0.0), base, late, reordered, build_ising(lattice, 0.9)]
for mode, marg, variant in (("exact", "sum", "pre_approximation"),
                            ("approximate", "sum", "post_approximation"),
                            ("approximate", "max", "none"),
                            ("upper_bound", "sum", "none")):
    cfg = EliminationConfig(mode=mode, marginal=marg, pomm_variant=variant,
                            nu=None if mode == "exact" else 6)
    for k, r in enumerate(eliminate_many(members, cfg)):
        print(k, r.to_json(), r.soir_error.hex(),
              None if r.argmax is None else r.argmax.tolist(), r.per_step)
        for c in r.pomm.conditionals if r.pomm else ():
            print(c.variable, c.depends_on, hashlib.sha256(c.prob_one.tobytes()).hexdigest())
EOF
