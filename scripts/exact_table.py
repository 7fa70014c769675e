# Rebuild the exact-moment variance table for the two reference
# distributions.  Rational arithmetic end to end; only the final
# rendering rounds.

import argparse
from fractions import Fraction

from restime.core import DistributionSpec, format_rational
from restime.estimators import ratio_variance_from_moments
from restime.mc import exact_variance_small
from restime.moments import exact_moments
from restime.taylor import evaluate_expression, generate_expression
from restime.core import DomainError


def column(dist, n):
    mom = exact_moments(dist, max_central_order=16)
    rows = [("ratio", ratio_variance_from_moments(mom, n))]
    for m in range(1, 9):
        expr = generate_expression(m)
        rows.append((f"S{m}", evaluate_expression(expr, mom, n)))
    try:
        rows.append(("exact", exact_variance_small(dist, n)))
    except DomainError:
        pass
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--digits", type=int, default=16)
    args = ap.parse_args()

    grid = [
        (DistributionSpec.geometric(Fraction(1, 20)), (30, 1000)),
        (DistributionSpec.uniform(93, 100), (10, 1000)),
    ]
    for dist, sizes in grid:
        for n in sizes:
            print(f"\n{dist}  N={n}")
            for label, value in column(dist, n):
                print(f"  {label:<6}{format_rational(value, args.digits)}")


if __name__ == "__main__":
    main()
