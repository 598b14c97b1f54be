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
$P mh-rate --config "$OUT/small.json" --nu 3 --pairs 100 --seed 5 --out "$OUT/mh.csv"
$P gibbs --config "$OUT/small.json" --sweeps 50 --burn-in 10 --thin 5 --seed 2 --out "$OUT/gibbs.csv"
$P gibbs --config "$OUT/ho.json" --sweeps 60 --burn-in 10 --thin 5 --seed 6 --chains 3 --out "$OUT/gibbs_ho.csv"
$P gibbs --family ising --rows 4 --cols 7 --params 0.7 --sweeps 80 --burn-in 20 --thin 3 --seed 7 --chains 2 --format json --out "$OUT/gibbs_4x7.json"
$P mh-rate --config "$OUT/ho.json" --nu 4 --pairs 60 --burn-in 20 --thin 4 --seed 8 --out "$OUT/mh_ho.csv"
$P mle --config "$OUT/small.json" --x "$OUT/x.txt" --nu 2,4 --grid-points 7 --out "$OUT/mle.csv" 2> "$OUT/mle.err"
python3 - > "$OUT/lib.txt" <<'EOF'
import numpy as np
from pbmrf import (LatticeSpec, build_ising, build_higher_order, build_2x2_rotinv,
    EliminationConfig, eliminate, eliminate_exact_sum, soir, bound_remove_pair,
    remove_single_interaction, to_json, values_from_interactions,
    interactions_from_values, extract_subset_family, add_scaled, scale)
from pbmrf.apps import pomm_log_density_polynomial, rejection_sampler
from pbmrf.pomm import log_density_many, sample
print(repr(eliminate_exact_sum(build_ising(LatticeSpec(8, 8), 0.6)).log_value))
ho = build_higher_order(LatticeSpec(5, 5), np.random.default_rng(3).uniform(-1, 1, 10))
print(repr(eliminate_exact_sum(ho).log_value))
r = eliminate(ho, EliminationConfig(marginal="max"))
print(r.to_json(), r.argmax.tolist())
f = build_higher_order(LatticeSpec(4, 4), np.random.default_rng(4).uniform(-1, 1, 10)).energy
g, rep = soir(f, 0, 5)
print(to_json(g)); print(rep.to_json())
print(to_json(bound_remove_pair(f, 0, 5, "upper", 1)))
print(to_json(bound_remove_pair(f, 0, 5, "lower", 3)))
print(to_json(bound_remove_pair(f, 5, 10, "upper", 0)))
h, rep = remove_single_interaction(f, (0, 1, 4, 5))
print(to_json(h)); print(rep.to_json())
print(to_json(interactions_from_values(values_from_interactions(f))))
print(values_from_interactions(f, tuple(range(15, -1, -1))).values[::97].tolist())
print(extract_subset_family(f, (5,), "containing"))
print(extract_subset_family(f, (5, 6), "complement")[:40])
print(to_json(add_scaled(f, scale(f, 0.5), 1.0, -2.0)))
for mode in ("approximate", "lower_bound", "upper_bound"):
    for marg in ("sum", "max"):
        r = eliminate(ho, EliminationConfig(mode=mode, marginal=marg, nu=3))
        print(r.to_json(), None if r.argmax is None else r.argmax.tolist(), r.per_step)
pomm = eliminate(ho, EliminationConfig(mode="approximate", nu=4, pomm_variant="post_approximation")).pomm
print(to_json(pomm_log_density_polynomial(pomm)))
batch = sample(pomm, 12, 500)
print(batch.log_densities.tolist())
print(log_density_many(pomm, batch.states).tolist())
rot = build_2x2_rotinv(LatticeSpec(4, 4), [0.3, -0.2, 0.5, 0.1, -0.4])
print(to_json(rot.energy))
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
terms = build_higher_order(LatticeSpec(3, 4), np.random.default_rng(12).uniform(-1, 1, 10)).energy.terms()
terms.update({(0, 5): 0.0, (2, 7, 11): 0.0, (3, 4): 0.0, (1, 6, 8, 9): 0.0})
dead = PseudoBooleanFunction(12, terms, prune=False)
for name, order in lattice_orders(3, 4).items():
    show("dead leaves " + name, dead, order)
EOF
python3 - > "$OUT/bench_norm.txt" <<'EOF'
# The two models of the bench norm workload (seed 1), in every capped mode:
# their wide neighbourhoods have the densest partner-score ties and splits.
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
                print(label + name, r.to_json(),
                      None if r.argmax is None else r.argmax.tolist(), r.per_step)
EOF
