# How fast does the plug-in bias of the variance estimators die off with
# sample size?  Sweeps N on a log grid for one distribution and prints
# the mean estimate relative to the replicate reference.

import argparse
from fractions import Fraction

from restime.core import DistributionSpec, ParseError
from restime.mc import ExperimentConfig, run_experiment


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dist", default="geom:p=1/20",
                    help="geom:p=<rational> or uniform:a=<int>,b=<int>")
    ap.add_argument("--sizes", nargs="+", type=int,
                    default=[10, 30, 100, 300, 1000, 3000])
    ap.add_argument("--replicates", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    dist = DistributionSpec.parse(args.dist)
    cfg = ExperimentConfig(
        dist=dist,
        sizes=tuple(args.sizes),
        replicates=args.replicates,
        seed=args.seed,
        estimators=("ratio", "taylor1", "taylor3", "taylor8"),
    )
    labels = cfg.estimators
    header = f"{'N':>6}{'reference':>14}" + "".join(f"{k:>12}" for k in labels)
    print(header)
    for row in run_experiment(cfg):
        cells = "".join(
            f"{row.means[k] / row.reference_var:>12.4f}" for k in labels
        )
        print(f"{row.n:>6}{row.reference_var:>14.6g}{cells}")
    print("\ncells are mean estimate / reference variance; 1.0 is unbiased")


if __name__ == "__main__":
    main()
