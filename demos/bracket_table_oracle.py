"""Structural constants from first principles: exact bracket sums.

For a compact simple Lie algebra with a basis orthogonal for Q = -tr(XY)
and a block decomposition, the constant attached to blocks (i, j, k) of the
normal metric -B is lambda^-1 sum Q([X_a, X_b], X_c)^2 / (Q_a Q_b Q_c), with
lambda = -B/Q read off the same brackets.  This script evaluates the sums as
Fractions on integer matrix bases of su(2), ..., su(5), so(8) and so(10),
recovering every closed-form constant the catalog uses for them.
"""

import itertools

from homscal.lie_constants import so2n_basis, structural_constants, su_n_basis, summand_dims


def show(name, basis, partition):
    got = structural_constants(basis, partition)
    print(f"{name}: summand dims {summand_dims(partition)}")
    for key, value in got.items():
        print(f"  [{key[0] + 1}{key[1] + 1}{key[2] + 1}] = {value}")
    return got


def main():
    show("su(2), one summand", *su_n_basis(2))

    for n in (3, 4, 5):
        got = show(f"\nsu({n}), blocks (subalgebra, last column, diagonal)", *su_n_basis(n))
        total = sum(v * len(set(itertools.permutations(k))) for k, v in got.items())
        print(f"  orbit-weighted total = {total} (equals dim su({n}) = {n * n - 1})")

    for n in (4, 5):
        basis, partition, pairs = so2n_basis(n)
        print(f"\nso({2 * n}), {len(pairs)} root-plane blocks; nonzero constants sit on triangles:")
        for key, value in structural_constants(basis, partition).items():
            names = ", ".join(str(pairs[t]) for t in key)
            print(f"  [{names}] = {value}  (= 2/(n-1) at n = {n})")


if __name__ == "__main__":
    main()
