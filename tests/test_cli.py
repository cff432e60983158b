"""Command line surface: subcommands, exit codes, deterministic output."""

import dataclasses
import hashlib
import itertools
import json
import os
import shlex
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import homscal.catalog as catalog
import homscal.chart as chart_mod
import homscal.cli as cli
from homscal.catalog import FAMILIES, build, default_entries
from homscal.chart import KERNEL_TOL, CriticalPoint
from homscal.cli import build_parser, main, probe_record
from homscal.signomial import Signomial
from homscal.space import space_to_dict


# the dims [3, 3] space whose critical point 1/2 is rational but not an integer
HALF_SPACE = {
    "name": "half", "dims": [3, 3], "b": ["12", "25"],
    "triples": [{"i": 0, "j": 0, "k": 1, "value": "3"}], "eliminate": 1,
    "critical_point": ["1/2"], "kernel_direction": ["1"],
}


# sha256 of `report --out` over the default ranges: every record's bytes
REPORT_SHA256 = "5fc062ac81dfd448f3003e91d9a5f7fa34ab7059ed058398c902b626a221d498"

ONE_SUMMAND_SPACE = {"name": "one", "dims": [3], "triples": [{"i": 0, "j": 0, "k": 0, "value": 1}]}

# the exact third partial at (1) has coefficient 4.5e308, past the largest double
OVERFLOW_SPACE = {
    "name": "ovf", "dims": [1, 1], "b": ["9e307", "7.5e307"],
    "triples": [{"i": 0, "j": 0, "k": 1, "value": "3e307"}],
    "critical_point": ["1"], "kernel_direction": ["1"],
}


def flag_space(n):
    """The two-summand collapse of SO(2n)/T^n as a space file."""
    return {
        "name": f"so{2 * n}_flag_collapsed", "dims": [4 * (n - 1), 2 * (n - 1) * (n - 2)],
        "triples": [{"i": 0, "j": 0, "k": 1, "value": str(2 * (n - 2))},
                    {"i": 1, "j": 1, "k": 1, "value": str(2 * (n - 2) * (n - 3))}],
    }


# two-summand space files whose `custom --search` output is pinned
SEARCH_SPACES = {
    **{f"flag-{n}": flag_space(n) for n in (4, 5, 9)},
    "e6": {"name": "custom-e6", "dims": [20, 40],
           "triples": [{"i": 0, "j": 1, "k": 1, "value": "10"}], "eliminate": 0},
    "half": {k: v for k, v in HALF_SPACE.items() if k not in ("critical_point", "kernel_direction")},
    # a float Saddle and a float LocalMaxCandidate
    "random-1": {"name": "random-1", "dims": [11, 28],
                 "triples": [{"i": 0, "j": 0, "k": 0, "value": "9/4"},
                             {"i": 0, "j": 1, "k": 1, "value": "2"}]},
    "random-3": {"name": "random-3", "dims": [14, 30],
                 "triples": [{"i": 0, "j": 0, "k": 1, "value": "4"},
                             {"i": 0, "j": 1, "k": 1, "value": "3/2"}]},
}

# sha256 of f"{exit code}\n{stdout}\n{stderr}" of `custom --file F --search`
SEARCH_SHA256 = {
    "flag-4": "f17ef0fe626dd9714b736a43fb7aa60a134ec89313be245ee0af39fdbe52d8bd",
    "flag-5": "76216f04f9a51fcf403576e3e98817201c3eb7783758d8c0e6e73670e4ae588b",
    "flag-9": "ff1df9240de0faee6c6750c5ef44cb70798612553a09b1e4ee18fc8b129e40fb",
    "e6": "18aa93bbc7a3b0cdbd541fcad4fc5abcada974de9a4fb7cf9ed5abb026cd9faf",
    "half": "9ca9a3987ec13f9a08d5c18b16e769d379a6af3a81cf4f33667b8a7372e20981",
    "random-1": "de485fc903373ef58258ca88289383861f3e6c140fddbf244cd97d2f60ffac8d",
    "random-3": "dd9df75cb8ff98cb9d6f004ccf0c5a7174f6b800faf46bca4223ee3268ac103b",
}


def _env_with_src():
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_defaults_are_the_library_constants():
    parser = build_parser()
    probe = parser.parse_args(["probe", "--family", "su_n"])
    assert probe.kernel_tol == KERNEL_TOL
    custom = parser.parse_args(["custom", "--file", "space.json"])
    assert custom.kernel_tol == KERNEL_TOL
    report = parser.parse_args(["report"])
    assert report.families.split(",") == sorted(FAMILIES)


def test_parser_is_built_once_and_keeps_no_state_between_calls(capsys):
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["probe", "--family", "su_n", "--n", "5", "--kernel-tol", "-1"])
    assert exc.value.code == 2
    capsys.readouterr()
    args = build_parser().parse_args(["probe", "--family", "su_n"])
    assert (args.n, args.mode, args.kernel_tol, args.json) == (None, "auto", KERNEL_TOL, False)
    args = build_parser().parse_args(["report"])
    # three settable options: the families with their ranges, the mode, the path
    assert sorted(vars(args)) == ["command", "families", "func", "mode", "out"]
    assert (args.mode, args.out) == ("auto", None)
    assert args.families.split(",") == sorted(FAMILIES)


def _readme_commands() -> list:
    """The argument lists of the `homscal ...` lines in the README's
    "Command line" block, without their comments."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]
    assert commands and all(argv[0] == "homscal" for argv in commands)
    return [argv[1:] for argv in commands]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_commands_parse(argv):
    # an option removed from the parser cannot stay in the documented examples
    build_parser().parse_args(argv)


TOLERANCE_OPTIONS = [
    ["probe", "--family", "su_n", "--n", "5", "--kernel-tol"],
    ["custom", "--file", "space.json", "--kernel-tol"],
]


@pytest.mark.parametrize("argv", TOLERANCE_OPTIONS, ids=lambda a: a[0])
@pytest.mark.parametrize("value", ["-1", "nan", "inf", "abc"])
def test_tolerance_must_be_finite_and_nonnegative(capsys, argv, value):
    with pytest.raises(SystemExit) as exc:
        main(argv + [value])
    assert exc.value.code == 2
    assert f"must be a finite number >= 0, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", TOLERANCE_OPTIONS, ids=lambda a: a[0])
def test_zero_tolerance_is_accepted(argv):
    args = build_parser().parse_args(argv + ["0"])
    assert vars(args)[argv[-1][2:].replace("-", "_")] == 0.0


class TestErrorExit:
    """Bad input, an unwritable path or an impossible exact mode: exit 2 with
    one `error:` line on stderr."""

    @pytest.mark.parametrize(
        "case", ["exact-search-along-float-kernel", "unwritable-out", "exact-at-irrational",
                 "third-partial-overflows", "third-partial-overflows-search"]
    )
    def test_one_error_line(self, capsys, tmp_path, case):
        ovf = tmp_path / "ovf.json"
        ovf.write_text(json.dumps(OVERFLOW_SPACE))
        su5 = tmp_path / "su5.json"
        su5.write_text(json.dumps(space_to_dict(build("su_n", 5).space)))
        argv = {
            # the search snaps to (1, 1), but the kernel direction is irrational
            "exact-search-along-float-kernel": ["custom", "--file", str(su5), "--search",
                                                "--mode", "exact"],
            "unwritable-out": ["report", "--out", str(tmp_path / "missing" / "r.json")],
            "exact-at-irrational": ["probe", "--family", "su2n_mod_spn", "--n", "3",
                                    "--mode", "exact"],
            "third-partial-overflows": ["custom", "--file", str(ovf)],
            "third-partial-overflows-search": ["custom", "--file", str(ovf), "--search"],
        }[case]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err
        if case.startswith("exact"):
            assert err.endswith("; use --mode auto\n")
        if argv[0] == "custom":  # the labelled point printed before the probe failed
            assert out.startswith("critical point (")
        if case.startswith("third-partial-overflows"):
            assert "partial (0, 0, 0) of order 3 has coefficient -2.7e+308" in err


# stdout of `list`: one line per family, in name order
LIST_STDOUT = (
    "e6_su2_so6       fixed size   two-summand E6 quotient, standard metric; fixed size\n"
    "so2n_flag        n >= 4       full flag manifold SO(2n)/T^n, standard metric, n >= 4\n"
    "su2n_mod_spn     n >= 3       quaternionic quotient SU(2n)/Sp(n), symmetric metric, n >= 3\n"
    "su_n             n >= 3       compact unitary group, left-invariant metrics, n >= 3\n"
)


class TestList:
    def test_stdout_bytes_are_pinned(self, capsys):
        assert run(capsys, "list") == (0, LIST_STDOUT, "")

    def test_single_family_bytes_are_pinned(self, capsys):
        assert run(capsys, "list", "--family", "su_n") == (0, LIST_STDOUT.splitlines(True)[3], "")

    def test_all_families(self, capsys):
        code, out, _ = run(capsys, "list")
        assert code == 0
        for family in ("e6_su2_so6", "su_n", "su2n_mod_spn", "so2n_flag"):
            assert family in out

    def test_single_family_range(self, capsys):
        code, out, _ = run(capsys, "list", "--family", "su_n")
        assert code == 0
        assert "n >= 3" in out
        assert "e6_su2_so6" not in out

    def test_unknown_family_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["list", "--family", "nope"])
        assert exc.value.code == 2


def test_a_family_is_one_record(capsys, monkeypatch):
    # build, default_entries, list and report all read the one FAMILIES table
    toy = catalog.Family(None, "a copy of the E6 quotient", (None,), FAMILIES["e6_su2_so6"].make)
    monkeypatch.setitem(catalog.FAMILIES, "toy", toy)
    ranged = catalog.Family(3, "a copy of the unitary family", (3,), FAMILIES["su_n"].make)
    monkeypatch.setitem(catalog.FAMILIES, "toy_n", ranged)
    entry = build("toy")
    assert (entry.family, entry.n, entry.expected_s3) == ("toy", None, 180)
    entries = default_entries()
    assert len(entries) == 20 and [e.family for e in entries].count("toy") == 1
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert "toy              fixed size   a copy of the E6 quotient\n" in out
    code, out, _ = run(capsys, "report", "--families", "toy", "--out", "-")
    assert code == 0
    (record,) = json.loads(out)["records"]
    assert (record["family"], record["n"], record["s3"]) == ("toy", None, "180")
    # a range needs no option of its own: the record's floor checks it
    code, out, _ = run(capsys, "report", "--families", "toy_n=4..5", "--out", "-")
    assert code == 0
    records = json.loads(out)["records"]
    assert [(r["family"], r["n"], r["s3"]) for r in records] == [
        ("toy_n", 4, "12"), ("toy_n", 5, "100/9")]
    code, out, err = run(capsys, "report", "--families", "toy_n=2..4")
    assert (code, out, err) == (2, "", "error: toy_n requires n >= 3, got 2\n")


class TestProbe:
    def test_two_summand_pipeline(self, capsys):
        code, out, _ = run(capsys, "probe", "--family", "e6_su2_so6")
        assert code == 0
        assert "s3: 180" in out
        assert "verdict: NotLocalMax" in out

    def test_flag_family_value(self, capsys):
        code, out, _ = run(capsys, "probe", "--family", "so2n_flag", "--n", "4")
        assert code == 0
        assert "s3: 24" in out

    @pytest.mark.parametrize("n", [16, 37, 39])
    def test_flag_point_with_roundoff_hessian_is_degenerate(self, capsys, n):
        code, out, _ = run(capsys, "probe", "--family", "so2n_flag", "--n", str(n))
        assert code == 0
        assert "classification: Degenerate" in out
        assert "kernel_directions: [['1']]" in out
        assert "verdict: NotLocalMax" in out

    def test_out_of_range_parameter(self, capsys):
        code, _, err = run(capsys, "probe", "--family", "su2n_mod_spn", "--n", "2")
        assert code == 2
        assert "requires n >= 3" in err

    def test_fixed_size_family_rejects_a_parameter(self, capsys):
        code, out, err = run(capsys, "probe", "--family", "e6_su2_so6", "--n", "7")
        assert (code, out) == (2, "")
        assert err == "error: e6_su2_so6 has a fixed size and takes no n, got 7\n"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "probe", "--family", "su_n", "--n", "5", "--json")
        assert code == 0
        record = json.loads(out)
        assert record["s3"] == "100/9"
        assert record["mode"] == "exact"
        assert record["classification"] == "Degenerate"

    def test_forced_float_mode(self, capsys):
        code, out, _ = run(capsys, "probe", "--family", "su_n", "--n", "3",
                           "--mode", "float", "--json")
        assert code == 0
        assert json.loads(out)["mode"] == "float"

    def test_record_diagonalizes_the_hessian_once(self, monkeypatch):
        calls = []
        original = chart_mod.jacobi_eigh
        monkeypatch.setattr(chart_mod, "jacobi_eigh", lambda m: calls.append(m) or original(m))
        entry = build("su_n", 5)
        record = probe_record(entry, CriticalPoint.at(entry.chart, entry.critical_point))
        assert record["classification"] == "Degenerate"
        assert len(record["kernel_directions"]) == 1
        assert len(calls) == 1

    def test_non_degenerate_point_is_inconclusive_without_a_probe(self, capsys, tmp_path):
        # with no brackets the slice of dims (2, 3) has one critical point,
        # the equal metric x = 1: a Saddle with Hessian eigenvalue 5/3, so
        # even with no kernel band nothing is probed
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"name": "flat", "dims": [2, 3], "eliminate": 1,
                                    "critical_point": ["1"], "kernel_direction": ["1"],
                                    "expected_s3": "1"}))
        code, out, _ = run(capsys, "custom", "--file", str(path), "--kernel-tol", "0")
        assert (code, out) == (1, "critical point ('1',): Saddle\n")
        entry = catalog.load_custom(path)
        cp = CriticalPoint.at(entry.chart, entry.critical_point, kernel_tol=0.0)
        assert cp.eigenvalues == (5 / 3,)
        record = probe_record(entry, cp)
        assert record["classification"] == "Saddle"
        assert record["kernel_directions"] == []
        assert record["verdict"] == "Inconclusive"
        for key in ("mode", "s1", "s2", "s3", "s3_matches_expected", "witness",
                    "value_at_witness"):
            assert record[key] is None, key
        assert record["expected_s3"] == "1"
        assert record["value_at_critical"] == "2.5"

    def test_only_a_degenerate_point_is_probed(self, monkeypatch):
        calls = []
        original = cli.probe_chart
        monkeypatch.setattr(cli, "probe_chart", lambda *a, **k: calls.append(a) or original(*a, **k))
        entry = build("e6_su2_so6")
        not_critical = CriticalPoint.at(entry.chart, (2,))
        assert str(not_critical.label) == "NotCritical"
        record = probe_record(entry, not_critical)
        assert (record["verdict"], record["s3"], record["witness"]) == ("Inconclusive", None, None)
        assert calls == []
        record = probe_record(entry, CriticalPoint.at(entry.chart, entry.critical_point))
        assert (record["verdict"], record["s3"]) == ("NotLocalMax", "180")
        assert len(calls) == 1

    def test_forced_exact_mode_on_irrational_point(self, capsys):
        code, _, err = run(capsys, "probe", "--family", "su2n_mod_spn", "--n", "3",
                           "--mode", "exact")
        assert code == 2
        assert "exact mode" in err


VERIFY_CONSTANTS_STDOUT = {
    "su2": """algebra su2: summand dims (3,)
  [000] computed 3.000000000000  expected 3.000000000000  |dev| 0.00e+00
max deviation: 0.000e+00
""",
    "su3": """algebra su3: summand dims (3, 4, 1)
  [000] computed 2.000000000000  expected 2.000000000000  |dev| 0.00e+00
  [011] computed 1.000000000000  expected 1.000000000000  |dev| 0.00e+00
  [112] computed 1.000000000000  expected 1.000000000000  |dev| 0.00e+00
max deviation: 0.000e+00
""",
    "so8": """algebra so8: summand dims (4, 4, 4, 4, 4, 4)
  [013] computed 0.666666666667  expected 0.666666666667  |dev| 0.00e+00
  [024] computed 0.666666666667  expected 0.666666666667  |dev| 0.00e+00
  [125] computed 0.666666666667  expected 0.666666666667  |dev| 0.00e+00
  [345] computed 0.666666666667  expected 0.666666666667  |dev| 0.00e+00
max deviation: 0.000e+00
""",
}


class TestVerifyConstants:
    @pytest.mark.parametrize("algebra", sorted(VERIFY_CONSTANTS_STDOUT))
    def test_builtin_algebras_match_byte_for_byte(self, capsys, algebra):
        code, out, err = run(capsys, "verify-constants", "--algebra", algebra)
        assert (code, out, err) == (0, VERIFY_CONSTANTS_STDOUT[algebra], "")

    def test_tolerance_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-constants", "--algebra", "su3", "--tol", "1e-8"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    def test_su3_checks_the_catalog_constants(self, capsys, monkeypatch):
        space = catalog.su_n_space(3)
        wrong = dataclasses.replace(space, triples={**space.triples, (1, 1, 2): Fraction(2)})
        monkeypatch.setattr(catalog, "su_n_space", lambda n: wrong)
        code, _, err = run(capsys, "verify-constants", "--algebra", "su3")
        assert code == 1
        assert "FAIL" in err


class TestReport:
    def test_default_ranges_census(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "report", "--out", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        records = payload["records"]
        assert len(records) == 18
        assert all(r["verdict"] == "NotLocalMax" for r in records)
        assert all(r["s3_matches_expected"] for r in records)
        keys = [(r["family"], r["n"] if r["n"] is not None else -1) for r in records]
        assert keys == sorted(keys)
        assert [(r["family"], r["n"]) for r in records] == [
            (e.family, e.n) for e in default_entries()
        ]

    def test_default_report_bytes_are_pinned(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "report", "--out", str(out_path))
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == REPORT_SHA256

    def test_report_bytes_need_no_numpy(self, tmp_path):
        # a fresh process in which `import numpy` fails
        out_path = tmp_path / "report.json"
        code = ("import sys; sys.modules['numpy'] = None; from homscal.cli import main; "
                "sys.exit(main(['report', '--out', sys.argv[1]]))")
        proc = subprocess.run([sys.executable, "-c", code, str(out_path)], env=_env_with_src(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == REPORT_SHA256

    def test_workers_option_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--workers", "0"])
        assert exc.value.code == 2

    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        families = "e6_su2_so6,so2n_flag=4..4,su2n_mod_spn=3..3,su_n=3..4"
        run(capsys, "report", "--out", str(a), "--families", families)
        run(capsys, "report", "--out", str(b), "--families", families)
        assert a.read_bytes() == b.read_bytes()
        records = json.loads(a.read_bytes())["records"]
        assert [(r["family"], r["n"]) for r in records] == [
            ("e6_su2_so6", None), ("so2n_flag", 4), ("su2n_mod_spn", 3), ("su_n", 3), ("su_n", 4)]

    def test_empty_ranges_give_empty_report(self, capsys):
        code, out, _ = run(capsys, "report", "--families", "su_n=9..3")
        assert code == 0
        assert json.loads(out)["records"] == []

    @pytest.mark.parametrize("families, message", [
        ("e6_su2_so6=1..2", "e6_su2_so6 has a fixed size and takes no range, got '1..2'"),
        ("su_n=3", "su_n: range must look like A..B, got '3'"),
        ("su_n=3..x", "su_n: range must look like A..B, got '3..x'"),
        ("su_n=", "su_n: range must look like A..B, got ''"),
        ("so2n_flag=2..5", "so2n_flag requires n >= 4, got 2"),
        ("bogus=3..4,su_n", "unknown families ['bogus']"),
    ])
    def test_bad_range_is_a_usage_error(self, capsys, families, message):
        code, out, err = run(capsys, "report", "--families", families)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_unknown_family_rejected(self, capsys):
        code, _, err = run(capsys, "report", "--families", "bogus")
        assert code == 2
        assert "unknown families" in err

    def test_stdout_default(self, capsys):
        code, out, _ = run(capsys, "report", "--families", "e6_su2_so6")
        assert code == 0
        assert len(json.loads(out)["records"]) == 1


class TestCustom:
    @staticmethod
    def write_e6(tmp_path, **extra):
        payload = {
            "name": "custom-e6",
            "dims": [20, 40],
            "triples": [{"i": 0, "j": 1, "k": 1, "value": "10"}],
            "eliminate": 0,
        }
        payload.update(extra)
        path = tmp_path / "space.json"
        path.write_text(json.dumps(payload))
        return path

    def test_matches_builtin_verdict(self, capsys, tmp_path):
        path = self.write_e6(tmp_path)
        code, out, _ = run(capsys, "custom", "--file", str(path))
        assert code == 0
        assert "Degenerate" in out
        assert "s3: 180" in out
        assert "verdict: NotLocalMax" in out

    def test_records_use_the_kernel_tol_of_the_search(self, capsys, tmp_path):
        # at kernel_tol 2 the su_n n=5 point (1, 1) has a two-dimensional
        # kernel; each probed direction's record must list both vectors
        space = build("su_n", 5).space
        path = tmp_path / "su5.json"
        path.write_text(json.dumps({
            "name": "su5", "dims": list(space.dims), "b": [str(v) for v in space.b],
            "triples": [{"i": i, "j": j, "k": k, "value": str(v)}
                        for (i, j, k), v in space.triples.items()],
        }))
        _, out, _ = run(capsys, "custom", "--file", str(path), "--kernel-tol", "2")
        kernels = [line for line in out.splitlines() if "kernel_directions" in line]
        assert len(kernels) == 2
        assert all(line.count("], [") == 1 for line in kernels)

    @pytest.mark.parametrize("direction", [[-0.025, 0.1], [-0.25, 1.0]])
    def test_float_verdict_does_not_depend_on_the_hinted_direction_length(
        self, capsys, tmp_path, direction
    ):
        # float hints force a float probe of su_n n=10 along its kernel line
        path = tmp_path / "su10.json"
        path.write_text(json.dumps({**space_to_dict(build("su_n", 10).space),
                                    "critical_point": [1.0, 1.0],
                                    "kernel_direction": direction}))
        code, out, _ = run(capsys, "custom", "--file", str(path))
        assert "mode: float" in out
        assert "verdict: NotLocalMax" in out
        assert code == 0

    def test_long_hinted_direction_is_probed(self, capsys, tmp_path):
        # S1-S3 need only the base point; the witness stays within 2e-2 of it
        path = self.write_e6(tmp_path, critical_point=["1"], kernel_direction=["1000"])
        code, out, err = run(capsys, "custom", "--file", str(path))
        assert (code, err) == (0, "")
        assert "s3: 180000000000" in out
        assert "verdict: NotLocalMax" in out
        witness = next(line for line in out.splitlines() if line.startswith("  witness:"))
        assert 1 < float(witness.split("'")[1]) <= 1.02

    def test_hinted_entry_without_search(self, capsys, tmp_path):
        path = self.write_e6(tmp_path, critical_point=["1"], kernel_direction=["1"],
                             expected_s3="180")
        code, out, _ = run(capsys, "custom", "--file", str(path))
        assert code == 0
        assert "s3_matches_expected: True" in out

    def test_hinted_point_is_labelled_once(self, capsys, tmp_path, monkeypatch):
        path = self.write_e6(tmp_path, critical_point=["1"], kernel_direction=["1"])
        calls = []
        original = CriticalPoint.at.__func__
        monkeypatch.setattr(CriticalPoint, "at",
                            classmethod(lambda cls, *a, **kw: calls.append(a)
                                        or original(cls, *a, **kw)))
        code, out, _ = run(capsys, "custom", "--file", str(path))
        assert code == 0
        assert "verdict: NotLocalMax" in out
        assert len(calls) == 1

    def test_wrong_expectation_is_verification_failure(self, capsys, tmp_path):
        path = self.write_e6(tmp_path, critical_point=["1"], kernel_direction=["1"],
                             expected_s3="181")
        code, out, _ = run(capsys, "custom", "--file", str(path))
        assert code == 1
        assert "s3_matches_expected: False" in out

    def test_malformed_rational_is_usage_error(self, capsys, tmp_path):
        path = self.write_e6(tmp_path)
        payload = json.loads(path.read_text())
        payload["triples"][0]["value"] = "1/0"
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "custom", "--file", str(path))
        assert code == 2
        assert "bad rational" in err

    def test_json_array_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(json.dumps([{"dims": [20, 40]}]))
        code, out, err = run(capsys, "custom", "--file", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: expected a JSON object\n"

    def test_asymmetric_triples_is_usage_error(self, capsys, tmp_path):
        path = self.write_e6(tmp_path)
        payload = json.loads(path.read_text())
        payload["triples"].append({"i": 1, "j": 0, "k": 1, "value": "9"})
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "custom", "--file", str(path))
        assert code == 2
        assert "permutations" in err

    def test_repeated_triple_with_another_value_is_usage_error(self, capsys, tmp_path):
        path = self.write_e6(tmp_path, critical_point=["1"])
        payload = json.loads(path.read_text())
        payload["triples"].append({"i": 0, "j": 1, "k": 1, "value": "3"})
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "custom", "--file", str(path))
        assert (code, out) == (2, "")
        assert err == (f"error: {path}: triples[0] and triples[1] repeat (0, 1, 1) "
                       "with different values 10 != 3\n")

    def test_repeated_triple_with_the_same_value_is_accepted(self, capsys, tmp_path):
        path = self.write_e6(tmp_path, critical_point=["1"], kernel_direction=["1"])
        payload = json.loads(path.read_text())
        code, once, _ = run(capsys, "custom", "--file", str(path))
        payload["triples"].append({"i": 0, "j": 1, "k": 1, "value": "10"})
        path.write_text(json.dumps(payload))
        assert run(capsys, "custom", "--file", str(path)) == (code, once, "")
        assert code == 0

    def test_empty_b_is_not_all_ones(self, capsys, tmp_path):
        path = self.write_e6(tmp_path, b=[], critical_point=["1"])
        code, out, err = run(capsys, "custom", "--file", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: b has 0 entries for 2 summands\n"

    @pytest.mark.parametrize("search", [False, True], ids=["custom", "custom-search"])
    def test_one_summand_file_is_usage_error(self, capsys, tmp_path, search):
        path = tmp_path / "one.json"
        path.write_text(json.dumps(ONE_SUMMAND_SPACE))
        code, out, err = run(capsys, "custom", "--file", str(path), *(["--search"] if search else []))
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: needs at least two summands, got 1\n"

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "custom", "--file", str(tmp_path / "nope.json"))
        assert code == 2

    def test_non_finite_critical_point_is_usage_error(self, capsys, tmp_path):
        path = self.write_e6(tmp_path, critical_point=[float("nan")])
        code, out, err = run(capsys, "custom", "--file", str(path))
        assert code == 2
        assert out == ""
        assert "critical_point[0]" in err

    def test_nonpositive_critical_point_is_usage_error(self, capsys, tmp_path):
        path = self.write_e6(tmp_path, critical_point=["-1"])
        code, _, err = run(capsys, "custom", "--file", str(path))
        assert code == 2
        assert "strictly positive" in err

    @pytest.mark.parametrize(
        "dims, field", [([20.7, 40], "dims[0]"), ("12", ".dims"), ([20, True], "dims[1]")]
    )
    def test_non_integer_dims_are_usage_errors(self, capsys, tmp_path, dims, field):
        path = self.write_e6(tmp_path, dims=dims)
        code, _, err = run(capsys, "custom", "--file", str(path))
        assert code == 2
        assert field in err

    @pytest.mark.parametrize(
        "family, extra, field",
        [
            ("e6", {"b": [[1], 1]}, "b[0]"),
            ("e6", {"triples": [{"i": 0, "j": 1, "k": 1, "value": None}]}, "triples[0].value"),
            ("e6", {"expected_s3": [1]}, "expected_s3"),
            ("e6", {"b": [True, 1]}, "b[0]"),
            ("e6", {"b": 5}, "b"),
            ("e6", {"triples": 5}, "triples"),
            ("e6", {"critical_point": 5}, "critical_point"),
            ("e6", {"b": "11"}, "b"),
            ("su_n", {"critical_point": "11"}, "critical_point"),
            ("e6", {"critical_point": ["1"], "kernel_direction": ["1", "2"]}, "kernel_direction"),
            ("e6", {"critical_point": ["1"], "kernel_direction": ["0"]}, "kernel_direction"),
            # hints beyond the range of a double, or that round to 0 as one
            ("e6", {"critical_point": ["1e400"]}, "critical_point[0]"),
            ("e6", {"critical_point": ["1e-400"]}, "critical_point"),
            ("e6", {"critical_point": ["1"], "kernel_direction": ["1e400"]},
             "kernel_direction[0]"),
            ("e6", {"critical_point": ["1"], "kernel_direction": ["1e-400"]},
             "kernel_direction"),
            ("e6", {"critical_point": [1.0000000001], "expected_s3": "1e400"}, "expected_s3"),
        ],
    )
    def test_malformed_field_is_usage_error(self, capsys, tmp_path, family, extra, field):
        if family == "e6":
            path = self.write_e6(tmp_path, **extra)
        else:
            path = tmp_path / "su5.json"
            path.write_text(json.dumps({**space_to_dict(build("su_n", 5).space), **extra}))
        code, out, err = run(capsys, "custom", "--file", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}.{field}: ")
        assert err.count("\n") == 1

    def test_hinted_rational_point_is_probed_exactly(self, capsys, tmp_path):
        path = tmp_path / "half.json"
        path.write_text(json.dumps(HALF_SPACE))
        code, out, _ = run(capsys, "custom", "--file", str(path))
        assert code == 0
        assert "critical_point: ['1/2']" in out
        assert "mode: exact" in out
        assert "s3: 1152" in out
        assert "verdict: NotLocalMax" in out

    def test_search_at_rational_point_is_probed_exactly(self, capsys, tmp_path):
        # the search snaps to 1/2 and verifies it exactly; the record goes on
        # from that Fraction, as the hinted run's does
        path = tmp_path / "half.json"
        path.write_text(json.dumps(HALF_SPACE))
        code, hinted, _ = run(capsys, "custom", "--file", str(path))
        code_search, out, err = run(capsys, "custom", "--file", str(path), "--search")
        assert (code, code_search, err) == (0, 0, "")
        assert "critical_point: ['1/2']" in out
        assert "mode: exact" in out
        assert "s3: 1152" in out
        assert "verdict: NotLocalMax" in out
        assert out.split("\n", 1)[1] == hinted.split("\n", 1)[1]

    def test_search_that_overflows_finds_nothing(self, capsys, tmp_path):
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({
            "name": "overflow",
            "dims": [27, 1],
            "triples": [{"i": 0, "j": 1, "k": 1, "value": "3/2"},
                        {"i": 1, "j": 1, "k": 1, "value": "7/2"}],
        }))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "custom", "--file", str(path), "--search")
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: no critical points found on the slice\n"

    def test_search_with_a_coefficient_beyond_a_double_names_its_partial(self, capsys, tmp_path):
        # the chart's coefficients are about 1e400: the search stops with the
        # kernel's own message, not as a search that found nothing
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "dims": [2, 3], "triples": [{"i": 0, "j": 1, "k": 1, "value": "1e400"}],
        }))
        code, out, err = run(capsys, "custom", "--file", str(path), "--search")
        assert code == 2
        assert out == ""
        assert err == ("error: partial (0, 0) of order 2 has coefficient -1e+400, "
                       "beyond the range of a double\n")

    def test_hinted_search_that_finds_nothing_is_usage_error(self, capsys, tmp_path,
                                                             monkeypatch):
        path = self.write_e6(tmp_path, critical_point=["1"])
        monkeypatch.setattr(cli, "find_critical_points", lambda chart, **kw: [])
        code, out, err = run(capsys, "custom", "--file", str(path), "--search")
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: no critical points found on the slice\n"

    def test_overflowing_hinted_point_is_usage_error(self, capsys, tmp_path):
        path = self.write_e6(tmp_path, critical_point=[1e-150])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "custom", "--file", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: chart point (1e-150,): a term overflows a float\n"

    def test_hessian_entry_overflowing_at_hinted_point_is_usage_error(self, capsys, tmp_path):
        # -50 * x^-6 is finite as a power but overflows to -inf in the
        # coefficient multiply: an infinite Hessian entry, not a label
        path = self.write_e6(tmp_path, critical_point=[5.9e-52])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "custom", "--file", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: chart point (5.9e-52,): a term overflows a float\n"

    def test_cancelling_overflow_at_hinted_point_is_usage_error(self, capsys, tmp_path):
        # terms of about +-1e308 overflow to +-inf and cancel to a NaN gradient
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({
            "name": "nan", "dims": [1, 1], "b": ["1e306", "1"],
            "triples": [{"i": 0, "j": 0, "k": 1, "value": "1e306"}],
            "critical_point": ["1/32"], "kernel_direction": ["1"],
        }))
        code, out, err = run(capsys, "custom", "--file", str(path))
        assert code == 2
        assert "Degenerate" not in out
        assert err == "error: chart point (0.03125,): a term overflows a float\n"

    @pytest.mark.parametrize("name", sorted(SEARCH_SPACES))
    def test_search_output_bytes_are_pinned(self, capsys, tmp_path, name):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(SEARCH_SPACES[name]))
        code, out, err = run(capsys, "custom", "--file", str(path), "--search")
        digest = hashlib.sha256(f"{code}\n{out}\n{err}".encode()).hexdigest()
        assert digest == SEARCH_SHA256[name]

    @pytest.mark.parametrize("name", sorted(SEARCH_SPACES))
    def test_search_builds_no_partial_signomial(self, monkeypatch, capsys, tmp_path, name):
        # the exact gradient test reads Signomial.line_exact along each axis
        path = tmp_path / "space.json"
        path.write_text(json.dumps(SEARCH_SPACES[name]))
        partial, calls = Signomial.partial, []

        def counted(self, var):
            calls.append(var)
            return partial(self, var)

        monkeypatch.setattr(Signomial, "partial", counted)
        run(capsys, "custom", "--file", str(path), "--search")
        assert calls == []

    def test_large_hinted_point_is_labelled_without_warning(self, capsys, tmp_path):
        path = self.write_e6(tmp_path, critical_point=[1e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "custom", "--file", str(path))
        assert code == 1  # not Degenerate: Inconclusive, as in probe
        assert err == ""
        assert out == "critical point ('9.9999999999999997e+199',): NotCritical\n"

    def test_hinted_point_without_direction_probes_every_kernel_vector(self, capsys, tmp_path):
        # SO(8)/T^4: six root planes of dimension 4, [ijk] = 2/3 on the four
        # triangles of pairs; the all-ones metric has a 3-dimensional kernel
        pairs = list(itertools.combinations(range(4), 2))
        triples = [
            {"i": pairs.index((i, j)), "j": pairs.index((i, k)), "k": pairs.index((j, k)),
             "value": "2/3"}
            for i, j, k in itertools.combinations(range(4), 3)
        ]
        path = tmp_path / "so8_flag.json"
        path.write_text(json.dumps({"name": "so8_flag", "dims": [4] * 6, "triples": triples,
                                    "critical_point": ["1"] * 5}))
        code, out, _ = run(capsys, "custom", "--file", str(path))
        assert out.count("[so8_flag]") == 3
        assert out.count("verdict: Inconclusive") == 3
        assert code == 1
