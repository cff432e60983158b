"""The symmetric metric on SU(2n)/Sp(n) through a smaller transitive group.

Presenting the quotient with a group one rank down yields three summands of
dimensions ((2n-1)(n-2), 4(n-1), 1), with every b_k = 4(2n-1),
[011] = 4(2n-1)(n-2) and [112] = 4(2n-1) for the invariant form Q/(4(2n-1))
(catalog.su2n_space).  Restricted to the unit-volume slice with the last
summand eliminated, the symmetric metric sits at (a, a/2) where

    a = (16 n / ((2n-1) 16^n))^(1/(n+1-2n^2))

normalizes the volume to one.  The point is irrational, so the probe runs in
floating point: S1 and S2 cancel to machine precision and S3 matches the
closed form -2 n^2 (n-2)(2n-1)(n-1)/a^4, which is negative, so the improving
witness lies on the t < 0 side of the kernel line.
"""

from homscal import build, improving_offset, probe_chart
from homscal.catalog import su2n_volume_normalizer


def main():
    print(f"{'n':>3} {'a':>10} {'S1 rel':>9} {'S2 rel':>9} {'S3':>14} "
          f"{'closed form':>14} verdict")
    for n in range(3, 7):
        entry = build("su2n_mod_spn", n)
        a = su2n_volume_normalizer(n)
        res = probe_chart(entry.chart, entry.curve())
        rel1, rel2, _ = res.relative()
        print(f"{n:>3} {a:>10.6f} {rel1:>9.1e} {rel2:>9.1e} {float(res.s3):>14.5f} "
              f"{float(entry.expected_s3):>14.5f} {res.verdict}")

    n = 3
    entry = build("su2n_mod_spn", n)
    a = su2n_volume_normalizer(n)
    print(f"\nn={n}: a = (1280/3)^(1/14) = {a}")
    d1, d2, _ = entry.chart.dims
    volume = a ** d1 * (a / 2) ** d2 * (n * a / (2 * n - 1))
    print(f"volume of the symmetric metric (a, a/2, na/(2n-1)): {volume:.15f}")

    res = probe_chart(entry.chart, entry.curve())
    witness = improving_offset(entry.chart, entry.curve(), res.s3)
    base = [float(x) for x in entry.critical_point]
    print(f"witness at x = {witness[0]:.6f} < a = {a:.6f} (S3 < 0 picks t < 0):")
    print(f"  scal(critical) = {entry.chart.reduced.eval_float(base):.12f}")
    print(f"  scal(witness)  = {entry.chart.reduced.eval_float(witness):.12f}")


if __name__ == "__main__":
    main()
