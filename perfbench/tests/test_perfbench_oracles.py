"""Each workload's check counts a deliberately wrong output as failed."""

import dataclasses
import json
from types import SimpleNamespace

import oracles
import run
import workloads


def failures(wl, item, doctor=lambda raw: raw):
    """Failures a Loop counts for one op whose output went through `doctor`."""
    loop = run.Loop(SimpleNamespace(run=lambda it: doctor(wl.run(it)), check=wl.check))
    loop.op(item)
    assert len(loop.times) == 1
    return loop.failures


def test_report_wrong_record_fails(hs, workdir):
    wl = workloads.Report(hs, 1, workdir)

    def wrong_s3(raw):
        payload = json.loads(open(wl.out).read())
        payload["records"][5]["s3"] = "1/7"
        open(wl.out, "w").write(json.dumps(payload))
        return raw

    assert failures(wl, None) == []
    assert len(failures(wl, None, wrong_s3)) == 1


def test_report_oracle_rejects_wrong_verdict_and_exit_code():
    records = [
        {"family": f, "n": n, "verdict": "NotLocalMax", "classification": "Degenerate",
         "s3": str(oracles.expected_s3(f, n)), "value_at_witness": "2", "value_at_critical": "1"}
        for f, n in oracles.DEFAULT_REPORT
    ]
    assert oracles.report_problems({"records": records}, 0) == []
    assert oracles.report_problems({"records": records}, 1)
    records[0]["verdict"] = "Inconclusive"
    assert oracles.report_problems({"records": records}, 0)


def test_search_wrong_critical_point_fails(hs, workdir):
    wl = workloads.Search(hs, 3, workdir)
    flag, random_space = wl.items[0], wl.items[1]
    assert failures(wl, flag) == []
    moved = lambda raw: (raw[0], raw[1].replace("critical point ('1',)", "critical point ('1.001',)"), raw[2])
    assert len(failures(wl, flag, moved)) == 1
    wrong_exit = lambda raw: (1,) + raw[1:]
    assert len(failures(wl, flag, wrong_exit)) == 1
    rc, out, err = wl.run(random_space)
    problems = oracles.search_problems(random_space[1], None, rc, out, err)[2]
    assert problems == []


def test_search_oracle_checks_points_independently():
    space = workloads.flag_space(6)
    out = "critical point ('1',): Degenerate, |grad| = 0, eigenvalues ['0']\n"
    record = "[so12_flag_collapsed]\n  critical_point: ['1']\n  s3: {}\n  verdict: NotLocalMax\n"
    good = out + record.format(oracles.expected_s3("so2n_flag", 6))
    assert oracles.search_problems(space, 6, 0, good, "") == ("found", [(("1",), "Degenerate")], [])
    assert oracles.search_problems(space, 6, 0, out + record.format("1"), "")[2]
    mislabeled = good.replace("Degenerate,", "LocalMaxCandidate,")
    assert oracles.search_problems(space, 6, 0, mislabeled, "")[2]


def test_none_found_is_an_outcome_not_a_failure():
    space = workloads.flag_space(5)
    err = "error: x.json: no critical points found on the slice\n"
    assert oracles.search_problems(space, None, 2, "", err) == ("none_found", [], [])
    assert oracles.search_problems(space, None, 1, "", err)[2]


def test_flow_wrong_trajectory_fails(hs, workdir):
    wl = workloads.Flow(hs, 2, workdir)
    item = wl.pool[0][0]

    def dip(traj):
        values = list(traj.values)
        values[7] -= 1e-6
        return dataclasses.replace(traj, values=values)

    def negative(traj):
        points = list(traj.points)
        points[3] = (-points[3][0],) + points[3][1:]
        return dataclasses.replace(traj, points=points)

    assert failures(wl, item) == []
    assert len(failures(wl, item, dip)) == 1
    assert len(failures(wl, item, negative)) == 1
    assert len(failures(wl, item, lambda t: dataclasses.replace(t, reason="converged"))) == 1


def test_oracles_wrong_constant_and_fd_fail(hs, workdir):
    wl = workloads.Oracles(hs, 4, workdir)
    wl.algebras, wl.curves = ["su3"], wl.curves[:3]

    def wrong_constant(raw):
        constants, probes = raw
        (a, (rc, out, err)), = constants
        return [(a, (rc, out.replace("computed 1.0000", "computed 1.0100", 1), err))], probes

    def wrong_fd(raw):
        constants, probes = raw
        entry, res, fd = probes[0]
        return constants, [(entry, res, (fd[0], fd[1], fd[2] * (1 + 1e-3)))] + probes[1:]

    assert failures(wl, None) == []
    assert len(failures(wl, None, wrong_constant)) == 1
    assert len(failures(wl, None, wrong_fd)) == 1


def test_traceback_counts_as_failed_and_loop_goes_on():
    def flaky(item):
        if item == 0:
            raise RuntimeError("boom")
        return item

    ok = workloads.Check([], 1, "fp")
    loop = run.Loop(SimpleNamespace(run=flaky, check=lambda item, raw: ok))
    loop.run_items([0, 1, 2])
    assert len(loop.times) == 3
    assert len(loop.failures) == 1 and "boom" in loop.failures[0]
