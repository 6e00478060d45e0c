"""Tests of the benchmark's own parts: each output check rejects a report with
one corrupted cell or field, the workloads follow from the seed, and the
trace wrappers report under the listed names and put every binding back."""

import copy
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.append(str(HERE.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from inprocess import run_jobs  # noqa: E402

B2 = workloads.coxeter_generators("B", 2)
SMALL_JOBS = [
    {"name": "B2", "command": "quotient", "group": ["B", 2],
     "doc": {"command": "quotient", "generators": B2, "t_max": 4}},
    {"name": "B2-conjugate", "command": "quotient", "group": ["B", 2],
     "like": "B2",
     "doc": {"command": "quotient", "t_max": 4, "generators":
             workloads.conjugate(B2, [[1, 1], [-1, 2]])}},
    {"name": "S3-oracle", "command": "quotient", "group": ["S", 3],
     "doc": {"command": "quotient", "t_max": 3, "oracle": True,
             "generators": workloads.coxeter_generators("S", 3)}},
    {"name": "circle", "command": "circle", "doc": {"command": "circle", "n": 4}},
    {"name": "gamma", "command": "gamma", "doc": {"command": "gamma", "r": 3}},
    {"name": "wps", "command": "wps",
     "doc": {"command": "wps", "weights": [4, 6, 9]}},
]
JOBS = {job["name"]: job for job in SMALL_JOBS}


@pytest.fixture(scope="module")
def outputs():
    _, results = run_jobs(SMALL_JOBS)
    return {r["name"]: r for r in results}


def report_of(outputs, name):
    return json.loads(outputs[name]["stdout"])


def test_closed_forms():
    assert checks.partition_counts(5) == [1, 1, 2, 3, 5, 7]
    assert [checks.class_count("B", n) for n in (2, 3, 4)] == [5, 10, 20]
    assert checks.class_count("S", 5) == 7
    assert checks.group_order("B", 4) == 384
    # Molien series of S3 on A^3: 1 / ((1 - t)(1 - t^2)(1 - t^3))
    assert checks.solomon_series([1, 2, 3], 6)[0] == [1, 1, 2, 3, 4, 5, 7]
    assert checks.union_of_root_groups([2, 3]) == 4


def test_outputs_at_this_commit_pass_every_check(outputs):
    for job in SMALL_JOBS:
        out = outputs[job["name"]]
        assert checks.check_output(job, out["exit"], out["stdout"])[1] == []
    assert checks.check_same_tables(report_of(outputs, "B2-conjugate"),
                                    report_of(outputs, "B2")) == []


def _bump(table, p, d):
    table[p][d] = str(int(table[p][d]) + 1)


def _untwisted(r):
    return next(s for s in r["sectors"] if s["fixed_dim"] == 2)


def _twisted(r):
    return next(s for s in r["sectors"] if s["fixed_dim"] == 1)


CORRUPTIONS = [
    ("B2", "group_order", lambda r: r.update(group_order=7)),
    ("B2", "sector_count", lambda r: r["sectors"].pop()),
    ("B2", "class_equation",
     lambda r: r["sectors"][1].update(centralizer_order=9)),
    ("B2", "hh00", lambda r: _bump(r["HH"], "0", "0")),
    ("B2", "cells", lambda r: _twisted(r)["HH"]["1"].update({"2": "-1"})),
    ("B2", "cells", lambda r: _twisted(r)["HHcoh"]["1"].update({"1": "1/2"})),
    ("B2", "solomon_hh", lambda r: _bump(_untwisted(r)["HH"], "1", "2")),
    ("B2", "solomon_hhcoh", lambda r: _bump(_untwisted(r)["HHcoh"], "1", "1")),
    ("B2", "malformed", lambda r: r.pop("sectors")),
    ("B2", "command", lambda r: r.update(command="wps")),
    ("S3-oracle", "oracle", lambda r: r["oracle"].update(agreement=False)),
    ("S3-oracle", "oracle", lambda r: r["oracle"].update(checked=False)),
    ("circle", "circle_fiber", lambda r: r["fiber_dimension"].update(generic=5)),
    ("circle", "circle_fiber", lambda r: r["fiber_dimension"].update(central=3)),
    ("circle", "circle_central", lambda r: r["central_complex"].update(H0=2)),
    ("circle", "circle_central", lambda r: r["central_complex"].update(H1=0)),
    ("circle", "circle_central",
     lambda r: r["central_complex"].update(action_trivial=False)),
    ("circle", "circle_generic", lambda r: r["generic_fiber"].update(H1=2)),
    ("gamma", "gamma_cofiber", lambda r: r["cofiber"].update(H1="Z/2")),
    ("gamma", "gamma_cover", lambda r: r["cover"].update(H2="Z")),
    ("wps", "wps_hh", lambda r: r["HH"].update({"0": 20})),
    ("wps", "wps_components", lambda r: r["components"].pop()),
]


@pytest.mark.parametrize("name,tag,corrupt", CORRUPTIONS,
                         ids=["%s-%s-%d" % (c[0], c[1], i)
                              for i, c in enumerate(CORRUPTIONS)])
def test_each_check_rejects_one_corrupted_field(outputs, name, tag, corrupt):
    report = copy.deepcopy(report_of(outputs, name))
    corrupt(report)
    errors = checks.check_report(JOBS[name], report)
    assert any(e.startswith(tag + ":") for e in errors), errors


def test_conjugation_check_rejects_one_corrupted_cell(outputs):
    plain = report_of(outputs, "B2")
    report = copy.deepcopy(report_of(outputs, "B2-conjugate"))
    _bump(_twisted(report)["HH"], "0", "0")
    errors = checks.check_same_tables(report, plain)
    assert errors and errors[0].startswith("conjugation:"), errors


def test_failed_exit_and_bad_json_are_rejected(outputs):
    job, out = JOBS["gamma"], outputs["gamma"]["stdout"]
    assert checks.check_output(job, 4, out)[1][0].startswith("exit:")
    assert checks.check_output(job, 0, out[:-5])[1][0].startswith("json:")


def test_workloads_follow_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 7) == workloads.build(name, 7)
    conj = [workloads.build("quotient-molien", s)[2]["doc"]["generators"]
            for s in range(4)]
    assert len({json.dumps(c) for c in conj}) > 1
    assert any("/" in x for g in conj[0] for row in g for x in row)
    for seed in range(20):
        wps = [j["doc"]["weights"] for j in workloads.build("circle-wps", seed)
               if j["command"] == "wps"]
        assert len(set(wps[0] + wps[1])) == 6
        assert set(wps[0] + wps[1]) <= set(workloads.PRIMES)


def _bindings():
    return {(name, attr): value for name, m in sys.modules.items()
            if m is not None and name.split(".")[0] == tracing.PACKAGE
            for attr, value in vars(m).items() if callable(value)}


def test_tracer_counts_and_restores_every_binding():
    from orbifold_hkr import cli, groups, hkr
    before = _bindings()
    original = groups.conjugacy_classes
    with tracing.Tracer() as tracer:
        assert hkr.conjugacy_classes is groups.conjugacy_classes
        assert hkr.conjugacy_classes is not original
        _, results = run_jobs([JOBS["S3-oracle"]], tracer)
    assert _bindings() == before
    assert cli.generate is groups.generate
    assert results[0]["exit"] == 0
    m = tracer.metrics()
    assert set(m) == set(tracing.metric_names()) - {"trace.overhead_s"}
    # S3 has 6 elements in 3 classes with centralizers of order 6, 2 and 3;
    # the homology report, the cohomology report and the oracle each
    # enumerate the classes
    assert (m["groups.order"], m["groups.classes"]) == (6, 3)
    assert m["groups.centralizer_sum"] == 11
    assert m["groups.conjugacy_classes.calls"] == 3
    assert m["hkr.oracle_basis.max"] > 0
    assert m["hkr.oracle_basis.sum"] >= m["hkr.oracle_basis.max"]
    for name in tracing.COUNTERS:
        assert m[name] == int(m[name])
    for module, fns in tracing.LAYERS.items():
        for fn in fns:
            key = "%s.%s" % (module, fn)
            assert m[key + ".s"] >= m[key + ".self_s"] >= 0


def test_missing_function_is_absent_not_an_error(monkeypatch):
    from orbifold_hkr import wps
    monkeypatch.delattr(wps, "hh_vector")
    with tracing.Tracer() as tracer:
        pass
    m = tracer.metrics()
    assert not any(k.startswith("wps.hh_vector.") for k in m)
    assert "wps.inertia_components.calls" in m


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names()
    assert [m["name"] for m in spec["end_to_end"]] == [
        "wall_s", "slowest_job_s", "peak_rss_mb", "setup_s"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
