"""The standard metric on the full flag manifold SO(2n)/T^n (n >= 4).

The isotropy representation splits into n(n-1)/2 four-dimensional root-plane
blocks, and every triangle of blocks shares the structural constant 2/(n-1).
The computation collapses to two parameters: one value x on the blocks
touching the first torus factor, one value y on the rest.  Coefficient
matching gives the aggregate constants [xxy] = 2(n-2) and [yyy] = 2(n-2)(n-3),
and the exact bracket oracle confirms them for every n shown.

Eliminating y introduces genuinely fractional exponents (x^(2/(n-2))), which
the exact signomial algebra carries unchanged; the third derivative at the
standard metric is 2 n^2 (n-1)/(n-2)^2.
"""

from homscal import build, collapsed_so2n_constants, probe_chart
from homscal.lie_constants import (
    so2n_basis,
    so2n_collapsed_partition,
    structural_constants,
    summand_dims,
)


def main():
    print("aggregate constants of the collapsed model:")
    for n in range(4, 9):
        print(f"  n={n}: {{(0,0,1): {collapsed_so2n_constants(n)[(0, 0, 1)]}, "
              f"(1,1,1): {collapsed_so2n_constants(n).get((1, 1, 1), 0)}}}")

    print("\nexact bracket cross-check with the two-summand partition:")
    for n in range(4, 9):
        basis, partition, pairs = so2n_basis(n)
        partition = so2n_collapsed_partition(partition, pairs)
        got = structural_constants(basis, partition)
        table = ", ".join(f"[{i}{j}{k}] = {v}" for (i, j, k), v in got.items())
        verdict = "matches" if got == collapsed_so2n_constants(n) else "differs from"
        print(f"  so({2 * n}): dims {summand_dims(partition)}, {table} {verdict} the catalog")

    print("\nthird-derivative probes at the standard metric:")
    for n in range(4, 9):
        entry = build("so2n_flag", n)
        print(f"  n={n}: reduced = {entry.chart.reduced.to_text(['x'])}")
        res = probe_chart(entry.chart, entry.curve(), mode="exact")
        print(f"        S3 = {res.s3} ({float(res.s3):.6f}), {res.verdict}")


if __name__ == "__main__":
    main()
