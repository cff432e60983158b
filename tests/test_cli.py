"""Command line surface: subcommands, exit codes, deterministic output."""

import itertools
import json
import warnings

import pytest

import homscal.chart as chart_mod
import homscal.cli as cli
from homscal.catalog import build, default_entries
from homscal.chart import KERNEL_TOL
from homscal.cli import build_parser, main, probe_record
from homscal.probe import TOL_HIGH, TOL_LOW


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_defaults_are_the_library_constants():
    parser = build_parser()
    probe = parser.parse_args(["probe", "--family", "su_n"])
    assert (probe.tol_low, probe.tol_high, probe.kernel_tol) == (TOL_LOW, TOL_HIGH, KERNEL_TOL)
    custom = parser.parse_args(["custom", "--file", "space.json"])
    assert custom.kernel_tol == KERNEL_TOL


class TestList:
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
        record = probe_record(build("su_n", 5))
        assert record["classification"] == "Degenerate"
        assert len(record["kernel_directions"]) == 1
        assert len(calls) == 1

    def test_forced_exact_mode_on_irrational_point(self, capsys):
        code, _, err = run(capsys, "probe", "--family", "su2n_mod_spn", "--n", "3",
                           "--mode", "exact")
        assert code == 2
        assert "exact mode" in err


class TestVerifyConstants:
    @pytest.mark.parametrize("algebra", ["su2", "su3", "so8"])
    def test_builtin_algebras_match(self, capsys, algebra):
        code, out, _ = run(capsys, "verify-constants", "--algebra", algebra)
        assert code == 0
        assert "max deviation" in out

    def test_tight_tolerance_fails(self, capsys):
        code, _, err = run(capsys, "verify-constants", "--algebra", "su3",
                           "--tol", "1e-20")
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

    def test_workers_option_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--workers", "0"])
        assert exc.value.code == 2

    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "report", "--out", str(a), "--range-su", "3..4",
            "--range-flag", "4..4", "--range-sp", "3..3")
        run(capsys, "report", "--out", str(b), "--range-su", "3..4",
            "--range-flag", "4..4", "--range-sp", "3..3")
        assert a.read_bytes() == b.read_bytes()

    def test_empty_ranges_give_empty_report(self, capsys):
        code, out, _ = run(capsys, "report", "--families", "su_n",
                           "--range-su", "9..3")
        assert code == 0
        assert json.loads(out)["records"] == []

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

    def test_hinted_entry_without_search(self, capsys, tmp_path):
        path = self.write_e6(tmp_path, critical_point=["1"], kernel_direction=["1"],
                             expected_s3="180")
        code, out, _ = run(capsys, "custom", "--file", str(path))
        assert code == 0
        assert "s3_matches_expected: True" in out

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

    def test_asymmetric_triples_is_usage_error(self, capsys, tmp_path):
        path = self.write_e6(tmp_path)
        payload = json.loads(path.read_text())
        payload["triples"].append({"i": 1, "j": 0, "k": 1, "value": "9"})
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "custom", "--file", str(path))
        assert code == 2
        assert "permutations" in err

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

    def test_large_hinted_point_is_labelled_without_warning(self, capsys, tmp_path):
        path = self.write_e6(tmp_path, critical_point=[1e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "custom", "--file", str(path))
        assert code == 0
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
