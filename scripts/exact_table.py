"""Rebuild the exact-moment variance table for the two reference
distributions.  Rational arithmetic end to end; only the final
rendering rounds.  A cell without an exact row gives the reason as one
`note:` line on stderr, as `restime exact` does."""

import sys
from fractions import Fraction

from restime.cli import _MAX_DIGITS, _Parser, _exact_column
from restime.core import DistributionSpec, format_rational


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
            rows, omitted = _exact_column(dist, n, range(1, 9))
            if omitted:
                print(f"note: exact row omitted: {omitted}", file=sys.stderr)
            for label, value in rows:
                print(f"  {label:<8}{format_rational(value, args.digits)}")


if __name__ == "__main__":
    main()
