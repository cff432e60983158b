"""The bi-invariant metric on the compact unitary group is never a local
maximum of scalar curvature among unit-volume left-invariant metrics (n >= 3).

Splitting off a subgroup one rank down gives three summands with dimensions
((n-1)^2 - 1, 2(n-1), 1) and constants [111] = (n-1)(n-2), [122] = n-2,
[223] = 1.  On the unit-volume slice the Hessian at the all-ones metric has
the kernel direction (-2/(n-2), 1); the third derivative along that line is
n^2 (n-1) / (n-2)^2, a positive rational, computed here exactly.
"""

from fractions import Fraction

from homscal import build, probe_chart


def main():
    print(f"{'n':>3} {'S1':>4} {'S2':>4} {'S3 (exact)':>14} {'float':>12} verdict")
    for n in range(3, 11):
        entry = build("su_n", n)
        res = probe_chart(entry.chart, entry.curve(), mode="exact")
        assert res.s3 == Fraction(n * n * (n - 1), (n - 2) ** 2)
        print(f"{n:>3} {str(res.s1):>4} {str(res.s2):>4} {str(res.s3):>14} "
              f"{float(res.s3):>12.6f} {res.verdict}")

    # the kernel claim, verified with exact rational arithmetic at n = 6
    n = 6
    entry = build("su_n", n)
    ones = (Fraction(1), Fraction(1))
    h = [[entry.chart.reduced.derivative((i, j)).eval_exact(ones) for j in range(2)]
         for i in range(2)]
    v = entry.kernel_direction
    hv = [sum((h[i][j] * Fraction(v[j]) for j in range(2)), Fraction(0)) for i in range(2)]
    print(f"\nexact Hessian entries at (1,1), n={n}:")
    for i in range(2):
        print("  ", [str(h[i][j]) for j in range(2)])
    print(f"H . (-2/(n-2), 1) = {[str(x) for x in hv]}  (exactly zero)")


if __name__ == "__main__":
    main()
