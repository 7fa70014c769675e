# Monte Carlo cross-check of the variance estimators: draw many samples,
# average each estimator, and compare against the replicate variance of
# the actual statistic.  The exact-moment order-8 value is shown with its
# z-score against the reference.

import argparse
from fractions import Fraction

from restime.core import DistributionSpec
from restime.mc import ExperimentConfig, run_experiment
from restime.moments import exact_moments
from restime.taylor import evaluate_expression, generate_expression

DISTS = {
    "geom05": DistributionSpec.geometric(Fraction(1, 2)),
    "geom005": DistributionSpec.geometric(Fraction(1, 20)),
    "unif": DistributionSpec.uniform(1, 100),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dists", nargs="+", default=list(DISTS), choices=list(DISTS))
    ap.add_argument("--sizes", nargs="+", type=int, default=[30, 158, 1902])
    ap.add_argument("--replicates", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    expr8 = generate_expression(8)
    print(f"{'dist':<9}{'N':>6}{'reference':>14}{'ratio dev':>11}"
          f"{'S8 dev':>11}{'S8(exact) z':>13}")
    for name in args.dists:
        dist = DISTS[name]
        mom = exact_moments(dist, max_central_order=16)
        cfg = ExperimentConfig(
            dist=dist,
            sizes=tuple(args.sizes),
            replicates=args.replicates,
            seed=args.seed,
            estimators=("ratio", "taylor8"),
        )
        for row in run_experiment(cfg):
            ref = row.reference_var
            s8 = float(evaluate_expression(expr8, mom, row.n))
            z = (s8 - ref) / row.reference_var_se
            dev = {k: (row.means[k] - ref) / ref for k in ("ratio", "taylor8")}
            print(f"{name:<9}{row.n:>6}{ref:>14.6g}{dev['ratio']:>+11.2%}"
                  f"{dev['taylor8']:>+11.2%}{z:>+13.2f}")


if __name__ == "__main__":
    main()
