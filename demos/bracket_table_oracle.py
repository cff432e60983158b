"""Structural constants from first principles: brute-force bracket sums.

For a compact Lie algebra with invariant inner product Q and a block
decomposition, the constant attached to blocks (i, j, k) is the sum of
squared projections Q([e_a, e_b], e_c)^2 over Q-orthonormal block bases.
This script derives Q = -Killing numerically from the bracket table,
orthonormalizes, and evaluates the triple sums for su(2), su(3), su(4) and
so(8), recovering every closed-form constant used by the catalog.
"""

import itertools

from homscal.lie_constants import (
    killing_gram,
    orthonormalize,
    so8_table,
    structural_constants,
    su2_abstract_table,
    su_n_table,
    summand_dims,
)


def show(name, table, partition):
    ortho = orthonormalize(table, partition)
    got = structural_constants(ortho, partition)
    print(f"{name}: summand dims {summand_dims(partition)}")
    for key, value in sorted(got.items()):
        print(f"  [{key[0] + 1}{key[1] + 1}{key[2] + 1}] = {value:.12f}")
    return got


def main():
    table, partition = su2_abstract_table()
    print("su(2) defined by [e1,e2] = 2e3 cyclic; -Killing diagonal:",
          killing_gram(table.brackets)[0, 0])
    show("su(2), one summand", table, partition)

    for n in (3, 4):
        table, partition = su_n_table(n)
        got = show(f"\nsu({n}), blocks (subalgebra, last column, diagonal)",
                   table, partition)
        total = sum(
            v * len(set(itertools.permutations(k))) for k, v in got.items()
        )
        print(f"  orbit-weighted total = {total:.9f} (equals dim su({n}) = {n * n - 1})")

    table, partition, pairs = so8_table()
    print("\nso(8), six root-plane blocks; nonzero constants sit on triangles:")
    got = structural_constants(orthonormalize(table, partition), partition)
    for key, value in sorted(got.items()):
        names = ", ".join(str(pairs[t]) for t in key)
        print(f"  [{names}] = {value:.12f}  (= 2/(n-1) at n = 4)")


if __name__ == "__main__":
    main()
