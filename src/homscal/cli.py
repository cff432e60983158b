"""Command line surface: catalog browsing, probes, oracle checks, reports.

Subcommands:

  list               families and validity ranges
  probe              full pipeline for one entry: restrict, classify, kernel,
                     third-order probe, witness
  verify-constants   exact bracket oracle vs the catalog constants
  report             batch reproduction table over parameter ranges
  custom             ingest a space file, classify its critical points and
                     probe the degenerate ones

Exit codes: 0 success, 1 verification mismatch, 2 usage or range error.
Rationals print as p/q, floats with 17 significant digits, so output is
byte-stable across runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from fractions import Fraction

from . import catalog, lie_constants
from .catalog import CatalogEntry
from .chart import KERNEL_TOL, Classification, CriticalPoint, exact_snap, find_critical_points
from .probe import Verdict, improving_offset, probe_chart
from .signomial import ExactEvaluationError


def fmt(value) -> "str | None":
    if value is None:
        return None
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


def _s3_matches(result_s3, expected, mode: str) -> "bool | None":
    if expected is None:
        return None
    if mode == "exact" and isinstance(expected, Fraction):
        return result_s3 == expected
    a, b = float(result_s3), float(expected)
    return abs(a - b) <= 1e-6 * max(abs(a), abs(b), 1e-300)


def probe_record(entry: CatalogEntry, cp: CriticalPoint, mode: str = "auto") -> dict:
    """Probe an entry along its kernel line and return a plain-dict record.

    cp is the entry's critical point as the caller labelled it.  Only a
    Degenerate point is probed: the third-order test settles nothing at a
    point of any other label, whose record is Inconclusive with no S values
    and no witness.
    """
    ch = entry.chart
    kernel = [] if cp.label is Classification.NOT_CRITICAL else cp.kernel()
    curve = entry.curve()
    record = {
        "family": entry.family,
        "n": entry.n,
        "reduced": ch.reduced.to_text(),
        "critical_point": [fmt(x) for x in entry.critical_point],
        "classification": str(cp.label),
        "kernel_directions": [[fmt(float(c)) for c in v] for v in kernel],
        "direction": [fmt(c) for c in curve.direction],
        "mode": None,
        "s1": None,
        "s2": None,
        "s3": None,
        "expected_s3": fmt(entry.expected_s3),
        "s3_matches_expected": None,
        "verdict": str(Verdict.INCONCLUSIVE),
        "value_at_critical": fmt(ch.reduced.eval_float(cp.coords)),
        "witness": None,
        "value_at_witness": None,
    }
    if cp.label is not Classification.DEGENERATE:
        return record
    result = probe_chart(ch, curve, mode=mode)
    record.update(
        mode=result.mode,
        s1=fmt(result.s1),
        s2=fmt(result.s2),
        s3=fmt(result.s3),
        s3_matches_expected=_s3_matches(result.s3, entry.expected_s3, result.mode),
        verdict=str(result.verdict),
    )
    if result.verdict is Verdict.NOT_LOCAL_MAX:
        witness = improving_offset(ch, curve, result.s3)
        record.update(
            witness=[fmt(x) for x in witness],
            value_at_witness=fmt(ch.reduced.eval_float(witness)),
        )
    return record


def _print_record(record: dict, out) -> None:
    head = record["family"] if record["n"] is None else f"{record['family']} n={record['n']}"
    print(f"[{head}]", file=out)
    for key in (
        "critical_point",
        "classification",
        "kernel_directions",
        "mode",
        "s1",
        "s2",
        "s3",
        "expected_s3",
        "s3_matches_expected",
        "verdict",
        "witness",
        "value_at_critical",
        "value_at_witness",
    ):
        print(f"  {key}: {record[key]}", file=out)


def _record_ok(record: dict) -> bool:
    if record["verdict"] != str(Verdict.NOT_LOCAL_MAX):
        return False
    return record["s3_matches_expected"] in (True, None)


# -- subcommand implementations ---------------------------------------------------


def cmd_list(args) -> int:
    for family, info in sorted(catalog.FAMILIES.items()):
        if args.family in (None, family):
            rng = "fixed size" if info.min_n is None else f"n >= {info.min_n}"
            print(f"{family:16s} {rng:12s} {info.description}")
    return 0


def cmd_probe(args) -> int:
    entry = catalog.build(args.family, args.n)
    cp = CriticalPoint.at(entry.chart, entry.critical_point, kernel_tol=args.kernel_tol)
    record = probe_record(entry, cp, mode=args.mode)
    if args.json:
        print(json.dumps(record, indent=2))
    else:
        _print_record(record, sys.stdout)
    return 0 if _record_ok(record) else 1


def cmd_verify_constants(args) -> int:
    if args.algebra == "so8":
        basis, partition, pairs = lie_constants.so2n_basis(4)
        expected = {}
        for i in range(4):
            for j in range(i + 1, 4):
                for k in range(j + 1, 4):
                    key = tuple(
                        sorted(
                            (pairs.index((i, j)), pairs.index((i, k)), pairs.index((j, k)))
                        )
                    )
                    expected[key] = Fraction(2, 3)
    elif args.algebra == "su2":
        basis, partition = lie_constants.su_n_basis(2)
        expected = {(0, 0, 0): Fraction(3)}
    else:
        basis, partition = lie_constants.su_n_basis(3)
        expected = catalog.su_n_space(3).triples
    computed = lie_constants.structural_constants(basis, partition)
    dims = lie_constants.summand_dims(partition)
    print(f"algebra {args.algebra}: summand dims {dims}")
    worst = Fraction(0)
    for key in sorted(set(expected) | set(computed)):
        want = expected.get(key, Fraction(0))
        got = computed.get(key, Fraction(0))
        dev = abs(got - want)
        worst = max(worst, dev)
        print(f"  [{key[0]}{key[1]}{key[2]}] computed {float(got):.12f}  "
              f"expected {float(want):.12f}  |dev| {float(dev):.2e}")
    print(f"max deviation: {float(worst):.3e}")
    if computed != expected:
        print("FAIL: computed constants differ from the catalog", file=sys.stderr)
        return 1
    return 0


def _parse_range(text: str, name: str) -> list[int]:
    if text.strip() == "":
        return []
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{name} must look like A..B, got {text!r}"
        ) from None
    return list(range(lo, hi + 1))


def cmd_report(args) -> int:
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    unknown = [f for f in families if f not in catalog.FAMILIES]
    if unknown:
        raise ValueError(f"unknown families {unknown}")
    ranges = {
        "su_n": args.range_su,
        "so2n_flag": args.range_flag,
        "su2n_mod_spn": args.range_sp,
    }
    jobs = set()
    for family in families:
        rng = ranges.get(family)
        jobs.update((family, n) for n in (catalog.FAMILIES[family].defaults if rng is None else rng))
    records = []
    for f, n in sorted(jobs, key=lambda fn: (fn[0], -1 if fn[1] is None else fn[1])):
        entry = catalog.build(f, n)
        cp = CriticalPoint.at(entry.chart, entry.critical_point)
        records.append(probe_record(entry, cp, mode=args.mode))
    payload = json.dumps({"records": records}, indent=2)
    if args.out in (None, "-"):
        print(payload)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
        print(f"wrote {len(records)} records to {args.out}")
    return 0 if all(_record_ok(r) for r in records) else 1


def cmd_custom(args) -> int:
    entry = catalog.load_custom(args.file)
    hinted = not args.search and entry.critical_point is not None
    if hinted:
        points = [CriticalPoint.at(entry.chart, entry.critical_point,
                                   kernel_tol=args.kernel_tol)]
    else:
        points = find_critical_points(entry.chart, kernel_tol=args.kernel_tol)
        if not points:
            raise ValueError(f"{args.file}: no critical points found on the slice")
    if hinted:
        print(f"critical point {tuple(fmt(x) for x in points[0].coords)}: {points[0].label}")
    else:
        for cp in points:
            print(f"critical point {tuple(fmt(x) for x in cp.coords)}: "
                  f"{cp.label}, |grad| = {fmt(cp.grad_norm)}, "
                  f"eigenvalues {[fmt(v) for v in cp.eigenvalues]}")
    status = 0
    for cp in points:
        if cp.label is not Classification.DEGENERATE:
            continue
        if hinted and entry.kernel_direction is not None:
            directions = [entry.kernel_direction]
        else:
            directions = [tuple(float(c) for c in v) for v in cp.kernel()]
        # a search point that newton_critical snapped to a rational is
        # verified again and probed as its Fractions
        point = entry.critical_point if hinted else (
            exact_snap(entry.chart, cp.coords) or cp.coords)
        for direction in directions:
            probe_entry = dataclasses.replace(
                entry,
                critical_point=_rationalize(point),
                kernel_direction=_rationalize(direction),
                expected_s3=entry.expected_s3 if hinted else None,
            )
            record = probe_record(probe_entry, cp, mode=args.mode)
            _print_record(record, sys.stdout)
            if not _record_ok(record):
                status = 1
    return status


def _rationalize(values) -> tuple:
    """Turn integer-valued floats into Fractions so probes can go exact."""
    out = []
    for v in values:
        if isinstance(v, float) and v.is_integer():
            out.append(Fraction(int(v)))
        else:
            out.append(v)
    return tuple(out)


# -- parser ----------------------------------------------------------------------


def _tolerance(text: str) -> float:
    """argparse type of the tolerance options: a finite float >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parse_args
    leaves it unchanged, and building it costs more than parsing."""
    parser = argparse.ArgumentParser(
        prog="homscal",
        description="Scalar curvature probes for homogeneous Einstein metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="enumerate families and validity ranges")
    p.add_argument("--family", choices=sorted(catalog.FAMILIES), default=None)
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("probe", help="run the full pipeline for one entry")
    p.add_argument("--family", choices=sorted(catalog.FAMILIES), required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--mode", choices=("auto", "exact", "float"), default="auto")
    p.add_argument("--kernel-tol", type=_tolerance, default=KERNEL_TOL)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("verify-constants", help="exact bracket oracle vs catalog constants")
    p.add_argument("--algebra", choices=("su2", "su3", "so8"), required=True)
    p.set_defaults(func=cmd_verify_constants)

    p = sub.add_parser("report", help="batch reproduction table")
    p.add_argument("--range-su", type=lambda s: _parse_range(s, "--range-su"), default=None)
    p.add_argument("--range-flag", type=lambda s: _parse_range(s, "--range-flag"), default=None)
    p.add_argument("--range-sp", type=lambda s: _parse_range(s, "--range-sp"), default=None)
    p.add_argument(
        "--families",
        default=",".join(sorted(catalog.FAMILIES)),
        help="comma-separated family subset",
    )
    p.add_argument("--mode", choices=("auto", "exact", "float"), default="auto")
    p.add_argument("--out", default=None, help="output path, '-' for stdout")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("custom", help="probe a user-supplied space file")
    p.add_argument("--file", required=True)
    p.add_argument("--search", action="store_true", help="multi-start even when hints exist")
    p.add_argument("--mode", choices=("auto", "exact", "float"), default="auto")
    p.add_argument("--kernel-tol", type=_tolerance, default=KERNEL_TOL)
    p.set_defaults(func=cmd_custom)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; the one place where an error becomes exit 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ExactEvaluationError as exc:
        print(f"error: exact mode impossible here ({exc}); use --mode auto", file=sys.stderr)
    except (OSError, OverflowError, ValueError) as exc:  # also ParameterRangeError, JSONDecodeError
        print(f"error: {exc}", file=sys.stderr)
    return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
