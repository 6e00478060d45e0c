import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from orbifold_hkr import cli, groups, hkr, sectors
from orbifold_hkr.cli import (NonSquareMatrix, SchemaError, main, parse_jobspec,
                              render_json, render_table, run)
from orbifold_hkr.exact import CapExceeded, mat_det, mat_inv, mat_mul

from conftest import (B3, B4_CARTAN, C3_RAT, D4, D4_CARTAN, S3_PERM, SIGN_1D, ZOO,
                      cartan_generators, m)
from test_hkr import _b4

from fractions import Fraction

F = Fraction


# parsing ------------------------------------------------------------------------

def test_parse_wps_job():
    job = parse_jobspec('{"command": "wps", "weights": [2, 3]}')
    assert job.command == "wps"
    assert job.weights == (2, 3)
    assert job.t_max == 10
    assert job.output == "json"
    assert not job.oracle


def test_parse_gamma_job():
    job = parse_jobspec('{"command": "gamma", "r": 2}')
    assert job.r == 2


def test_parse_quotient_job():
    text = ('{"command": "quotient", "generators": [[["0","-1"],["1","0"]]], '
            '"t_max": 6, "oracle": true}')
    job = parse_jobspec(text)
    assert job.generators == (((F(0), F(-1)), (F(1), F(0))),)
    assert job.t_max == 6
    assert job.oracle


def test_parse_accepts_integer_entries():
    job = parse_jobspec('{"command": "quotient", "generators": [[[0, -1], [1, 0]]]}')
    assert job.generators[0][0][1] == F(-1)


@pytest.mark.parametrize("text", [
    "not json",
    "[1, 2]",
    '{"weights": [2, 3]}',
    '{"command": "dance"}',
    '{"command": "wps"}',
    '{"command": "wps", "weights": []}',
    '{"command": "wps", "weights": [2, 0]}',
    '{"command": "wps", "weights": [2.5]}',
    '{"command": "wps", "weights": [true]}',
    '{"command": "wps", "weights": [2], "r": 3}',
    '{"command": "gamma", "r": 1}',
    '{"command": "gamma", "r": "2"}',
    '{"command": "circle", "n": 1}',
    '{"command": "quotient", "generators": []}',
    '{"command": "quotient", "generators": [[["1.5"]]]}',
    '{"command": "quotient", "generators": [[[1, 0], [0, 1]]], "t_max": -1}',
    '{"command": "quotient", "generators": [[[1]]], "format": "yaml"}',
    '{"command": "quotient", "generators": [[[1]]], "oracle": "yes"}',
])
def test_parse_rejects_bad_documents(text):
    with pytest.raises(SchemaError):
        parse_jobspec(text)


def test_parse_rejects_non_square_matrix():
    with pytest.raises(NonSquareMatrix):
        parse_jobspec('{"command": "quotient", "generators": [[[1, 0]]]}')


def test_parse_rejects_mixed_sizes():
    text = '{"command": "quotient", "generators": [[[1]], [[1, 0], [0, 1]]]}'
    with pytest.raises(SchemaError):
        parse_jobspec(text)


# reports -------------------------------------------------------------------------

def test_wps_report_contents():
    job = parse_jobspec('{"command": "wps", "weights": [2, 3]}')
    report = run(job)
    assert report["HH"] == {"0": 5}
    assert len(report["components"]) == 4
    assert report["components"][0]["dimension"] == 1


def test_gamma_report_contents():
    job = parse_jobspec('{"command": "gamma", "r": 2}')
    report = run(job)
    assert report["cofiber"]["H1"] == "Z/2"
    assert report["cofiber"]["H0"] == "Z"
    assert report["cofiber"]["H2"] == "0"
    assert report["cover"]["H2"] == "Z"


def test_circle_report_contents():
    job = parse_jobspec('{"command": "circle", "n": 3}')
    report = run(job)
    assert report["fiber_dimension"] == {"generic": 3, "central": 3}
    assert report["central_complex"] == {"H0": 1, "H1": 1, "action_trivial": True}
    assert report["generic_fiber"] == {"H0": 1, "H1": 1}


def test_quotient_report_with_oracle():
    text = ('{"command": "quotient", "generators": [[["-1"]]], '
            '"t_max": 4, "oracle": true}')
    report = run(parse_jobspec(text))
    assert report["group_order"] == 2
    assert report["oracle"]["checked"] is True
    assert report["oracle"]["agreement"] is True
    assert report["HH"]["0"]["0"] == "2"


def test_json_round_trip():
    report = run(parse_jobspec('{"command": "wps", "weights": [2, 3]}'))
    text = render_json(report)
    assert json.loads(text) == report
    assert text.endswith("\n")


def test_table_render_smoke():
    report = run(parse_jobspec('{"command": "quotient", "generators": [[["-1"]]], "t_max": 3}'))
    text = render_table(report)
    assert "HH (rows p, columns weight):" in text
    assert "quotient report" in text


# the executable ---------------------------------------------------------------------

def test_main_with_spec_file(tmp_path, capsys):
    spec = tmp_path / "job.json"
    spec.write_text('{"command": "wps", "weights": [2, 3]}')
    code = main(["wps", "--spec", str(spec)])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)["HH"] == {"0": 5}


def test_main_stdin(monkeypatch, capsys):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO('{"command": "gamma", "r": 4}'))
    code = main(["gamma"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["cofiber"]["H1"] == "Z/4"


def test_main_command_mismatch(tmp_path, capsys):
    spec = tmp_path / "job.json"
    spec.write_text('{"command": "wps", "weights": [2, 3]}')
    assert main(["gamma", "--spec", str(spec)]) == 2
    assert "input error" in capsys.readouterr().err


def test_main_bad_input_exit_2(tmp_path, capsys):
    spec = tmp_path / "job.json"
    spec.write_text("{broken")
    assert main(["wps", "--spec", str(spec)]) == 2


def test_main_missing_file_exit_2(capsys):
    assert main(["wps", "--spec", "/nonexistent/job.json"]) == 2


def _launch_on_spec(tmp_path, data):
    # one CLI launch on a spec file of raw bytes: (exit code, stdout, stderr)
    spec = tmp_path / "job.json"
    spec.write_bytes(data)
    proc = subprocess.run([sys.executable, "-m", "orbifold_hkr", "quotient", "--spec",
                           str(spec)], capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_deeply_nested_document_exit_2_without_a_traceback(tmp_path):
    # json.loads recurses once per bracket and raises RecursionError
    code, out, err = _launch_on_spec(tmp_path, b"[" * 100000 + b"]" * 100000)
    assert (code, out) == (2, "")
    assert err.startswith("input error:") and "Traceback" not in err


def test_spec_file_of_invalid_utf8_exit_2_without_a_traceback(tmp_path):
    code, out, err = _launch_on_spec(tmp_path, b'\xff{"command": "quotient"}')
    assert (code, out) == (2, "")
    assert err.startswith("input error:") and "Traceback" not in err


def test_main_singular_generator_exit_2(tmp_path, capsys):
    spec = tmp_path / "job.json"
    spec.write_text('{"command": "quotient", "generators": [[[1, 2], [2, 4]]]}')
    assert main(["quotient", "--spec", str(spec)]) == 2


def test_main_cap_exceeded_exit_3(tmp_path, capsys):
    spec = tmp_path / "job.json"
    spec.write_text('{"command": "quotient", "generators": [[[0, -1], [1, 0]]], "cap": 3}')
    assert main(["quotient", "--spec", str(spec)]) == 3
    assert "cap exceeded" in capsys.readouterr().err


def test_main_shear_exit_3(tmp_path, capsys):
    spec = tmp_path / "job.json"
    spec.write_text('{"command": "quotient", "generators": [[[1, 1], [0, 1]]]}')
    assert main(["quotient", "--spec", str(spec)]) == 3


def test_main_growing_generator_exit_3(tmp_path, capsys):
    spec = tmp_path / "job.json"
    spec.write_text('{"command": "quotient", "generators": [[[2, 0], [0, 1]]]}')
    assert main(["quotient", "--spec", str(spec)]) == 3
    assert "infinite order" in capsys.readouterr().err


def test_main_infinite_dihedral_exit_3(tmp_path, capsys):
    # finite-order generators, infinite group: the orbit of the row vectors
    # passes n times Minkowski's bound, or n times a lower cap
    doc = {"command": "quotient", "generators": [[[-1, 0], [0, 1]], [[-1, 1], [0, 1]]]}
    code, out, err = _exit_and_err(tmp_path, capsys, doc)
    assert code == 3 and out == "" and "infinite" in err
    # at t_max 0 each table has 3 cells, under the cap
    code, out, err = _exit_and_err(tmp_path, capsys, dict(doc, cap=5, t_max=0))
    assert code == 3 and out == "" and "exceeds cap 5" in err


def test_main_determinant_not_a_unit_exit_3(tmp_path, capsys):
    # [[2]] + I on A^40 has infinite order, seen from its determinant before
    # any orbit is walked, where a walk of its powers would run to the cap
    gen = [[str(2 if i == j == 0 else int(i == j)) for j in range(40)] for i in range(40)]
    doc = {"command": "quotient", "generators": [gen], "t_max": 1}
    code, out, err = _exit_and_err(tmp_path, capsys, doc)
    assert code == 3 and out == "" and "infinite order" in err


def test_main_oracle_checks_the_fixed_dimension(tmp_path, capsys, monkeypatch):
    # the report takes f from the trace average alone; under --oracle the
    # oracle's V^g step compares it with the nullspace, here one vector short
    real = sectors.nullspace_basis
    monkeypatch.setattr(sectors, "nullspace_basis", lambda A: real(A)[1:])
    doc = {"command": "quotient", "t_max": 2,
           "generators": [[[str(x) for x in row] for row in g] for g in S3_PERM]}
    code, out, err = _exit_and_err(tmp_path, capsys, doc)
    assert code == 0 and err == ""
    code, out, err = _exit_and_err(tmp_path, capsys, dict(doc, oracle=True))
    assert code == 5 and out == ""
    assert err.startswith("internal error: the trace average of <g> is 3, not the "
                          "fixed dimension 2")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cyclic_group_of_order_420_reads_its_powers_from_the_cosets():
    # C420 on A^19, one permutation of cycles 3, 4, 5 and 7: every sector is
    # central and has a term per class, 420^2 terms per table, and the powers
    # h^j of each term are read off the class's cosets, not walked along
    # h's closure word of length up to 419
    perm = [base + (i + 1) % k for base, k in ((0, 3), (3, 4), (7, 5), (12, 7))
            for i in range(k)]
    gen = [[int(j == perm[i]) for j in range(19)] for i in range(19)]
    start = time.perf_counter()
    report = run(parse_jobspec(json.dumps({"command": "quotient", "t_max": 2,
                                           "generators": [gen]})))
    assert time.perf_counter() - start < 5.0
    assert report["group_order"] == 420 and len(report["sectors"]) == 420
    assert report["HH"]["0"]["0"] == "420"


def _exit_and_err(tmp_path, capsys, doc):
    spec = tmp_path / "job.json"
    spec.write_text(json.dumps(doc))
    start = time.perf_counter()
    code = main([doc["command"], "--spec", str(spec)])
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    return code, out, err


def test_main_wps_weights_over_cap_exit_3(tmp_path, capsys):
    # the sum of the weights bounds the number of inertia components; three
    # primes near 10^6 used to run out of memory after about 40 s
    doc = {"command": "wps", "weights": [1000003, 1000033, 1000037]}
    code, out, err = _exit_and_err(tmp_path, capsys, doc)
    assert code == 3 and out == ""
    assert err == "cap exceeded: weights sum to 3000073, over cap 100000\n"
    # the bound is inclusive
    assert _exit_and_err(tmp_path, capsys, dict(doc, weights=[2, 3], cap=5))[0] == 0
    assert _exit_and_err(tmp_path, capsys, dict(doc, weights=[2, 3], cap=4))[0] == 3


def test_main_gamma_r_over_cap_exit_3(tmp_path, capsys):
    # the cover model has r 2-cells; r = 10^8 used to run out of memory
    for r in (10 ** 7, 10 ** 8):
        code, out, err = _exit_and_err(tmp_path, capsys, {"command": "gamma", "r": r})
        assert code == 3 and out == ""
        assert err == "cap exceeded: r = %d is over cap 100000\n" % r
    doc = {"command": "gamma", "r": 12, "cap": 12}
    assert _exit_and_err(tmp_path, capsys, doc)[0] == 0
    assert _exit_and_err(tmp_path, capsys, dict(doc, cap=11))[0] == 3


def test_main_circle_n_over_cap_exit_3(tmp_path, capsys):
    # the generic-fiber graph has n^2 edges; n = 316 is the largest n the
    # default cap admits, and it took about 8 s
    code, out, err = _exit_and_err(tmp_path, capsys, {"command": "circle", "n": 317})
    assert code == 3 and out == ""
    assert err == ("cap exceeded: circle n = 317 has 100489 generic-fiber edges,"
                   " over cap 100000\n")
    # the bound is inclusive
    doc = {"command": "circle", "n": 20, "cap": 400}
    assert _exit_and_err(tmp_path, capsys, doc)[0] == 0
    assert _exit_and_err(tmp_path, capsys, dict(doc, cap=399))[0] == 3


def test_main_quotient_t_max_over_cap_exit_3(tmp_path, capsys, monkeypatch):
    # each reported table has (t_max + 1) * (n + 1) cells; [[-1]] at t_max
    # 100000 used to take 6.7 s and 387 MB, with nothing bounding it
    doc = {"command": "quotient", "generators": [[[-1]]], "t_max": 50000}
    code, out, err = _exit_and_err(tmp_path, capsys, doc)
    assert code == 3 and out == ""
    assert err == ("cap exceeded: t_max = 50000 on A^1 gives 100002 cells per "
                   "table, over cap 100000\n")
    # the bound is inclusive
    small = {"command": "quotient", "generators": [[[-1]]], "t_max": 4, "cap": 10}
    assert _exit_and_err(tmp_path, capsys, small)[0] == 0
    code, out, err = _exit_and_err(tmp_path, capsys, dict(small, cap=9))
    assert (code, out) == (3, "")
    assert err == "cap exceeded: t_max = 4 on A^1 gives 10 cells per table, over cap 9\n"
    # within the bound, a group over the cap is still refused by the closure
    klein = {"command": "quotient", "generators": [[[-1, 0], [0, 1]], [[1, 0], [0, -1]]],
             "t_max": 0, "cap": 3}
    assert _exit_and_err(tmp_path, capsys, klein)[2] == \
        "cap exceeded: group order exceeds cap 3\n"

    # at the default cap's bound the job gets past it to the closure, which
    # is stubbed so that the full 100000-cell tables are not computed
    def closure_reached(generators, cap):
        raise CapExceeded("closure reached")

    monkeypatch.setattr(cli, "generate", closure_reached)
    code, out, err = _exit_and_err(tmp_path, capsys, dict(doc, t_max=49999))
    assert (code, out, err) == (3, "", "cap exceeded: closure reached\n")


def test_main_oracle_work_over_guard_exit_3(tmp_path, capsys, monkeypatch):
    # a reflection of A^10 at t_max 6: the identity sector's largest cell has
    # 5005 * 252 basis elements, a dense projector of 1.6e12 entries, so the
    # estimate refuses the job before any oracle image is built
    def no_images(sector):
        raise AssertionError("an oracle image was built")

    monkeypatch.setattr(hkr, "_oracle_tables", no_images)
    reflection = [[-1 if i == j == 9 else int(i == j) for j in range(10)]
                  for i in range(10)]
    doc = {"command": "quotient", "generators": [reflection], "t_max": 6,
           "oracle": True}
    code, out, err = _exit_and_err(tmp_path, capsys, doc)
    assert (code, out) == (3, "")
    assert err == ("cap exceeded: oracle work estimate 6008243456892 (largest cell "
                   "1590779310120) is over the guard 30000000 (per cell 5000000)\n")


def test_main_flag_overrides(tmp_path, capsys):
    spec = tmp_path / "job.json"
    spec.write_text('{"command": "quotient", "generators": [[["-1"]]], "t_max": 9}')
    code = main(["quotient", "--spec", str(spec), "--t-max", "2", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report["HH"]["0"]) == ["0", "1", "2"]
    assert report["input"]["t_max"] == 2


def test_main_t_max_and_cap_flags_are_checked_like_the_fields(tmp_path, capsys):
    # the flags go through the validator of the job fields, with its messages
    spec = tmp_path / "job.json"
    spec.write_text('{"command": "quotient", "generators": [[["-1"]]], "t_max": 4}')
    for flags, message in ((["--t-max", "-1"], "t_max: must be at least 0"),
                           (["--cap", "0"], "cap: must be at least 1")):
        assert main(["quotient", "--spec", str(spec)] + flags) == 2
        assert capsys.readouterr() == ("", "input error: %s\n" % message)
    # t_max 4 on A^1 gives 10 cells per table, and the bound is inclusive
    assert main(["quotient", "--spec", str(spec), "--cap", "10"]) == 0
    assert json.loads(capsys.readouterr().out)["input"]["cap"] == 10
    assert main(["quotient", "--spec", str(spec), "--cap", "9"]) == 3
    assert capsys.readouterr().err.startswith("cap exceeded: t_max = 4 on A^1")


def test_main_oracle_disagreement_exit_4(tmp_path, capsys, monkeypatch):
    # the disagreement branch is unreachable through honest math, so the
    # exit-code contract is pinned by stubbing the verdict
    mismatch = {"mode": "homology", "sector": 0, "degree": 0, "weight": 0,
                "molien": "1", "oracle": "2"}
    monkeypatch.setattr(cli, "oracle_verdict", lambda G, t: mismatch)
    spec = tmp_path / "job.json"
    spec.write_text('{"command": "quotient", "generators": [[["-1"]]], "oracle": true}')
    code = main(["quotient", "--spec", str(spec)])
    assert code == 4
    report = json.loads(capsys.readouterr().out)
    assert report["oracle"]["agreement"] is False
    assert report["oracle"]["first_disagreement"] == mismatch


def test_main_determinism(tmp_path, capsys):
    spec = tmp_path / "job.json"
    spec.write_text('{"command": "quotient", "generators": [[[0, -1], [1, -1]]], '
                    '"t_max": 5, "oracle": true}')
    assert main(["quotient", "--spec", str(spec)]) == 0
    first = capsys.readouterr().out
    assert main(["quotient", "--spec", str(spec)]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_main_internal_error_exit_5(tmp_path, capsys, monkeypatch):
    # the integrality guard on the averaged series fires once every Molien
    # factor is off by a factor 3
    real = hkr.det_series_factor
    monkeypatch.setattr(hkr, "det_series_factor",
                        lambda *a, **k: tuple(Fraction(x, 3) for x in real(*a, **k)))
    spec = tmp_path / "job.json"
    spec.write_text('{"command": "quotient", "generators": [[["-1"]]], "t_max": 3}')
    assert main(["quotient", "--spec", str(spec)]) == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: averaged series has a non-integral")
    assert err.count("\n") == 1 and "Traceback" not in err


# change of basis -------------------------------------------------------------------

@st.composite
def _signed_permutations(draw, max_n=4):
    # one to three signed permutation matrices on A^n, n <= max_n: they
    # generate a finite group, a subgroup of B_n
    n = draw(st.integers(1, max_n))
    signs = st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)
    drawn = draw(st.lists(st.tuples(st.permutations(range(n)), signs),
                          min_size=1, max_size=3))
    return tuple(m([[s[i] * (j == perm[i]) for j in range(n)] for i in range(n)])
                 for perm, s in drawn)


@st.composite
def _zoo_conjugate(draw):
    # a zoo group at t_max 5 or a drawn signed permutation group at t_max 3,
    # and a change of basis with entries in [-2, 2]
    gens, t_max = draw(st.one_of(st.sampled_from(sorted(ZOO)).map(lambda k: (ZOO[k], 5)),
                                 _signed_permutations().map(lambda g: (g, 3))))
    n = len(gens[0])
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    P = draw(st.lists(row, min_size=n, max_size=n).map(m).filter(mat_det))
    return gens, P, t_max


def _report_without_input(gens, t_max=5):
    doc = {"command": "quotient", "t_max": t_max, "oracle": True,
           "generators": [[[str(x) for x in row] for row in g] for g in gens]}
    report = run(parse_jobspec(json.dumps(doc)))
    del report["input"]
    return render_json(report)


@settings(max_examples=25, deadline=None)
@given(_zoo_conjugate())
def test_report_is_invariant_under_change_of_basis(case):
    # the closure visits the elements in the same order in any basis, so the
    # classes, sectors and tables come out byte for byte the same
    gens, P, t_max = case
    Pinv = mat_inv(P)
    conjugated = [mat_mul(mat_mul(P, g), Pinv) for g in gens]
    assert _report_without_input(conjugated, t_max) == _report_without_input(gens, t_max)


def _rational_conjugator(n, seed):
    # a seeded rational matrix of nonzero determinant with entries p/q,
    # |p| <= 3 and 1 <= q <= 3, so a conjugate of a signed permutation
    # group acts by dense non-integral matrices
    rng = random.Random(seed)
    while True:
        P = tuple(tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
                  for _ in range(n))
        if mat_det(P):
            return P


@settings(max_examples=40, deadline=None)
@given(_signed_permutations(max_n=3), st.integers(0, 2 ** 32 - 1),
       st.randoms(use_true_random=False))
def test_rational_conjugates_keep_their_tables_and_the_oracle(gens, seed, rng):
    # a drawn signed permutation group and its conjugate by a seeded rational
    # matrix give the same bytes, with the oracle agreeing at t_max 2 in both
    # bases; shuffling the conjugate's generators and repeating one of them
    # changes neither the verdict nor any table
    P = _rational_conjugator(len(gens[0]), seed)
    Pinv = mat_inv(P)
    conjugated = tuple(mat_mul(mat_mul(P, g), Pinv) for g in gens)
    report = _report_without_input(conjugated, 2)
    assert report == _report_without_input(gens, 2)
    assert json.loads(report)["oracle"] == {"checked": True, "agreement": True,
                                            "first_disagreement": None}
    reordered = list(conjugated)
    rng.shuffle(reordered)
    reordered.insert(rng.randrange(len(reordered) + 1), rng.choice(conjugated))
    assert _order_invariants(tuple(reordered), 2) == _order_invariants(conjugated, 2)


def test_b4_oracle_job_in_the_root_basis(tmp_path):
    # B4 in the root basis of its Cartan matrix, through the command line:
    # its lattice has no signed-permutation basis, so the oracle builds
    # projector columns that a signed basis would skip
    spec = tmp_path / "job.json"
    spec.write_text(json.dumps({"command": "quotient", "generators": [
        [[str(x) for x in row] for row in g] for g in cartan_generators(B4_CARTAN)]}))
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "orbifold_hkr", "quotient", "--spec",
                           str(spec), "--oracle", "--t-max", "2"],
                          capture_output=True, text=True)
    elapsed = time.monotonic() - start
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout)
    assert report["group_order"] == 384
    assert report["oracle"] == {"checked": True, "agreement": True,
                                "first_disagreement": None}
    assert elapsed < 1.5


def test_d4_oracle_agrees_in_the_root_basis_and_a_signed_basis(tmp_path, capsys):
    # the root lattice of D4 has no basis in which the Weyl group acts by
    # signed permutations, so the oracle builds more projector columns there;
    # the group and every table must still come out the same
    n = 4
    signed = [m([[int(j == perm[i]) for j in range(n)] for i in range(n)])
              for perm in ((1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2))]
    signed.append(m([[0, -1, 0, 0], [-1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
    reports = []
    for gens in (cartan_generators(D4_CARTAN), signed):
        spec = tmp_path / "job.json"
        spec.write_text(json.dumps({"command": "quotient", "t_max": 3, "generators":
                                    [[[str(x) for x in row] for row in g] for g in gens]}))
        assert main(["quotient", "--spec", str(spec), "--oracle"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    root, sign = reports
    assert root["oracle"]["agreement"] is True and sign["oracle"]["agreement"] is True
    assert root["group_order"] == sign["group_order"] == 192
    assert (root["HH"], root["HHcoh"]) == (sign["HH"], sign["HHcoh"])


# generator order -------------------------------------------------------------------

_ORDER_CASES = dict(ZOO, B3=B3)


def test_report_is_invariant_under_duplicating_a_generator():
    # a copy of generator k placed anywhere after it adds no new product to
    # the closure, so every element keeps its index and the bytes stay the same
    for gens in _ORDER_CASES.values():
        want = _report_without_input(gens)
        for k in range(len(gens)):
            for j in range(k + 1, len(gens) + 1):
                assert _report_without_input(gens[:j] + (gens[k],) + gens[j:]) == want


def _order_invariants(gens, t_max=5):
    report = json.loads(_report_without_input(gens, t_max))
    sectors = sorted(json.dumps(s, sort_keys=True) for s in report.pop("sectors"))
    return report, sectors


def test_report_is_invariant_under_permuting_the_generators():
    # the closure order, and with it the order of the sectors, may change
    # (it does for S3, D4 and B3), so the sectors are compared as a multiset;
    # group order, exponent, oracle verdict and total tables must be equal
    for gens in _ORDER_CASES.values():
        want = _order_invariants(gens)
        for perm in permutations(range(len(gens))):
            assert _order_invariants(tuple(gens[i] for i in perm)) == want


@settings(max_examples=10, deadline=None)
@given(_signed_permutations(), st.randoms(use_true_random=False))
def test_drawn_groups_match_the_oracle_for_any_generator_order(gens, rng):
    # the Molien tables of a drawn signed permutation group agree with the
    # oracle at t_max 3, and shuffling the generators and repeating one of
    # them anywhere changes neither the verdict nor any table
    want = _order_invariants(gens, 3)
    assert want[0]["oracle"] == {"checked": True, "agreement": True,
                                 "first_disagreement": None}
    reordered = list(gens)
    rng.shuffle(reordered)
    reordered.insert(rng.randrange(len(reordered) + 1), rng.choice(gens))
    assert _order_invariants(tuple(reordered), 3) == want


def _report_t6(gens, oracle=False):
    doc = {"command": "quotient", "t_max": 6, "oracle": oracle,
           "generators": [[[str(x) for x in row] for row in g] for g in gens]}
    return run(parse_jobspec(json.dumps(doc)))


def test_repeated_generators_are_closed_over_once(monkeypatch):
    # each generator of B4 listed ten times: the echo keeps all 40, and the
    # rest of the report is the plain B4 one, from one right table and one
    # element_order call per distinct generator
    made, orders = [], []
    real_generate, real_order = cli.generate, groups.element_order
    monkeypatch.setattr(cli, "generate", lambda *a: made.append(real_generate(*a)) or made[-1])
    monkeypatch.setattr(groups, "element_order", lambda *a: orders.append(a[0]) or real_order(*a))
    gens = _b4()
    plain = _report_t6(gens)
    repeated = _report_t6(tuple(g for g in gens for _ in range(10)))
    assert len(repeated["input"]["generators"]) == 40
    del plain["input"], repeated["input"]
    assert render_json(repeated) == render_json(plain)
    assert [G.order for G in made] == [384, 384]
    assert [len(G.right) for G in made] == [4, 4]
    assert orders == list(gens) * 2


# products ---------------------------------------------------------------------------

def _block_diagonal(gens1, gens2):
    # G1 x G2 on V1 + V2: each g1 as g1 + I, each g2 as I + g2
    n1, n2 = len(gens1[0]), len(gens2[0])

    def block(g, at):
        n, k = n1 + n2, len(g)
        return tuple(tuple(g[i - at][j - at] if at <= i < at + k and at <= j < at + k
                           else F(int(i == j)) for j in range(n)) for i in range(n))
    return tuple(block(g, 0) for g in gens1) + tuple(block(g, n1) for g in gens2)


def _product_table(a, b, t_max):
    # the rendered tables as series in (u, t), multiplied and cut at t_max
    a = [[F(a[p][d]) for d in sorted(a[p], key=int)] for p in sorted(a, key=int)]
    b = [[F(b[p][d]) for d in sorted(b[p], key=int)] for p in sorted(b, key=int)]
    out = [[F(0)] * (t_max + 1) for _ in range(len(a) + len(b) - 1)]
    for p1, row1 in enumerate(a):
        for p2, row2 in enumerate(b):
            for d1, x in enumerate(row1):
                for d2, y in enumerate(row2[:t_max + 1 - d1]):
                    out[p1 + p2][d1 + d2] += x * y
    return {str(p): {str(d): str(x) for d, x in enumerate(row)} for p, row in enumerate(out)}


@pytest.mark.parametrize("gens1, gens2, oracle", [
    (D4, S3_PERM, False),
    (C3_RAT, SIGN_1D, True),
    (D4, C3_RAT, False),
], ids=["B2xS3", "C3xC2", "B2xC3"])
def test_report_of_a_product_is_the_product_of_the_reports(gens1, gens2, oracle):
    _check_product(gens1, gens2, oracle)


@st.composite
def _two_signed_groups(draw):
    # G1 on A^n1 and G2 on A^n2, drawn signed permutation groups, n1 + n2 <= 4
    gens1 = draw(_signed_permutations(max_n=3))
    return gens1, draw(_signed_permutations(max_n=4 - len(gens1[0])))


@settings(max_examples=30, deadline=None)
@given(_two_signed_groups())
def test_drawn_products_keep_kunneth(pair):
    _check_product(*pair, oracle=False)


def _check_product(gens1, gens2, oracle):
    # the inertia stack of [V1 / G1] x [V2 / G2] is the product of theirs, and
    # HKR is multiplicative: both totals are the products of the factors'
    # totals, as series in (u, t) cut at t_max, and the sectors are the pairs
    # of sectors, with class sizes and centralizer orders multiplied, fixed
    # dimensions and codimensions added and the sector tables multiplied
    r1, r2 = _report_t6(gens1), _report_t6(gens2)
    both = _report_t6(_block_diagonal(gens1, gens2), oracle)
    assert both["group_order"] == r1["group_order"] * r2["group_order"]
    for table in ("HH", "HHcoh"):
        assert both[table] == _product_table(r1[table], r2[table], 6), table
    pairs = Counter(json.dumps({
        "class_size": s1["class_size"] * s2["class_size"],
        "centralizer_order": s1["centralizer_order"] * s2["centralizer_order"],
        "fixed_dim": s1["fixed_dim"] + s2["fixed_dim"],
        "normal_codim": s1["normal_codim"] + s2["normal_codim"],
        "HH": _product_table(s1["HH"], s2["HH"], 6),
        "HHcoh": _product_table(s1["HHcoh"], s2["HHcoh"], 6),
    }, sort_keys=True) for s1 in r1["sectors"] for s2 in r2["sectors"])
    assert Counter(json.dumps(s, sort_keys=True) for s in both["sectors"]) == pairs
    assert both["oracle"]["checked"] is oracle
    assert both["oracle"]["agreement"] is (True if oracle else None)


# dependencies ----------------------------------------------------------------------

def test_cli_imports_only_the_standard_library():
    # a fresh interpreter without site-packages, so nothing installed can
    # stand in for a module the package forgot it needs
    code = ("import sys; before = set(sys.modules); import orbifold_hkr.cli; "
            "print(*sorted(set(sys.modules) - before))")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "orbifold_hkr.cli" in loaded
    assert [name for name in loaded
            if name.partition(".")[0] not in sys.stdlib_module_names
            and name.partition(".")[0] != "orbifold_hkr"] == []
