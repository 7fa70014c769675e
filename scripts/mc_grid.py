"""Monte Carlo cross-check of the variance estimators: draw many samples,
average each estimator, and compare against the replicate variance of
the actual statistic.  Each estimator column is the deviation of its mean
from that reference, 0 being unbiased; the exact-moment order-8 value is
shown with its z-score against the reference.  The default is the paper's
grid; the plug-in bias sweep over N is `mc_grid.py --dist geom:p=1/20
--sizes 10 30 100 300 1000 3000 --replicates 20000`."""

from restime.cli import _Parser
from restime.core import DistributionSpec, DomainError, ParseError
from restime.mc import ExperimentConfig, run_experiment
from restime.moments import exact_moments
from restime.taylor import evaluate_expression, generate_expression

LABELS = ("ratio", "taylor1", "taylor3", "taylor8")


def main():
    ap = _Parser(description=__doc__)
    ap.add_argument("--dist", nargs="+", default=["geom:p=1/2", "geom:p=1/20", "uniform:a=1,b=100"],
                    help="geom:p=<rational> or uniform:a=<int>,b=<int>")
    ap.add_argument("--sizes", nargs="+", type=int, default=[30, 158, 1902])
    ap.add_argument("--replicates", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    try:
        configs = [
            ExperimentConfig(dist=DistributionSpec.parse(spec), sizes=tuple(args.sizes),
                             replicates=args.replicates, seed=args.seed, estimators=LABELS)
            for spec in args.dist
        ]
    except (ParseError, DomainError) as exc:
        ap.error(str(exc))

    expr8 = generate_expression(8)
    print(f"{'dist':<19}{'N':>6}{'reference':>14}" + "".join(f"{k + ' dev':>13}" for k in LABELS)
          + f"{'S8(exact) z':>13}")
    for cfg in configs:
        mom = exact_moments(cfg.dist, max_central_order=16)
        for row in run_experiment(cfg):
            ref = row.reference_var
            z = (float(evaluate_expression(expr8, mom, row.n)) - ref) / row.reference_var_se
            devs = "".join(f"{(row.means[k] - ref) / ref:>+13.2%}" for k in LABELS)
            print(f"{str(cfg.dist):<19}{row.n:>6}{ref:>14.6g}{devs}{z:>+13.2f}")


if __name__ == "__main__":
    main()
