"""Rebuild the exact-moment variance table for the two reference
distributions.  Rational arithmetic end to end; only the final
rendering rounds."""

from fractions import Fraction

from restime.cli import _MAX_DIGITS, _Parser
from restime.core import DistributionSpec, DomainError, format_rational
from restime.estimators import ratio_variance_from_moments
from restime.mc import exact_variance_small
from restime.moments import exact_moments
from restime.taylor import evaluate_expression, generate_expression


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
    ap = _Parser(description=__doc__)
    ap.add_argument("--digits", type=int, default=16, help=f"significant digits, 1..{_MAX_DIGITS}")
    args = ap.parse_args()
    if not 1 <= args.digits <= _MAX_DIGITS:
        ap.error(f"--digits must be within 1..{_MAX_DIGITS}, got {args.digits}")

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
