"""A complete inflection certificate on a two-summand space.

The space has isotropy summands of dimensions 20 and 40 and a single
structural constant [122] = 10, so the invariant scalar curvature of a
metric (x, y) is

    scal(x, y) = 5/x + 20/y - 5x/(2y^2).

Eliminating x against the unit-volume constraint x^20 y^40 = 1 (that is,
x = y^-2) leaves a one-variable function whose value, first and second
derivative at y = 1 all vanish, while the third derivative is 180.  The
standard metric is therefore an inflection point, not a local maximum, and
a nearby metric with strictly larger scalar curvature can be written down.
"""

from fractions import Fraction

from homscal import (
    CriticalPoint,
    CurveSpec,
    HomogeneousSpace,
    improving_offset,
    probe_chart,
    restrict,
)


def main():
    space = HomogeneousSpace(
        name="two-summand demo", dims=(20, 40), triples={(0, 1, 1): Fraction(10)}
    )
    scal = space.scalar_curvature()
    print("scalar curvature:", scal.to_text(["x", "y"]))
    vol = " ".join(f"x{i}^{d}" for i, d in enumerate(space.dims))
    print("unit-volume monomial:", vol)

    chart = restrict(space, eliminated=0)
    print("\nreduced to the slice (x eliminated):", chart.reduced.to_text(["y"]))

    cp = CriticalPoint.at(chart, (1.0,))
    print("\nclassification at y = 1:", cp.label)
    print("kernel direction(s):", [list(v) for v in cp.kernel()])

    curve = CurveSpec(base=(Fraction(1),), direction=(Fraction(1),))
    result = probe_chart(chart, curve)
    print("\nprobe along the kernel line (exact):")
    print(f"  S1 = {result.s1}, S2 = {result.s2}, S3 = {result.s3}")
    print("  verdict:", result.verdict)

    witness = improving_offset(chart, curve, result.s3)
    before = chart.reduced.eval_exact((Fraction(1),))
    after = chart.reduced.eval_float(witness)
    print(f"\nwitness point y = {witness[0]}:")
    print(f"  scal(critical) = {before} = {float(before)}")
    print(f"  scal(witness)  = {after}  (larger, as certified)")


if __name__ == "__main__":
    main()
