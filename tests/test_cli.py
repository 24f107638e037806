"""CLI and JSON document round-trips."""

import csv
import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

import convval
from convval.cli import main
from convval.documents import (DocumentError, function_from_doc,
                               function_to_doc, growth_from_doc, growth_to_doc,
                               parse_rational)
from convval.functions import make, pwa_equal
from convval.growth import make_growth


@pytest.fixture
def abs_doc(tmp_path):
    u = make([((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0)], n=2)
    p = tmp_path / "abs2.json"
    p.write_text(json.dumps(function_to_doc(u)))
    return str(p)


@pytest.fixture
def zeta_docs(tmp_path):
    z0 = make_growth([0, 2], [[2, -1]])
    zn = make_growth([0, 1], [[1]])
    p0, pn = tmp_path / "z0.json", tmp_path / "zn.json"
    p0.write_text(json.dumps(growth_to_doc(z0)))
    pn.write_text(json.dumps(growth_to_doc(zn)))
    return str(p0), str(pn)


class TestDocuments:
    def test_function_roundtrip_identity(self):
        u = make([((F(1, 3), F(-2)), F(5, 7)), ((-1, 1), 0), ((1, 1), 0), ((-1, -1), 0)], n=2)
        doc = function_to_doc(u)
        v = function_from_doc(doc)
        assert pwa_equal(u, v)
        assert function_to_doc(v) == doc  # byte-stable canonical form

    def test_growth_roundtrip_identity(self):
        z = make_growth([0, 1, 2], [[0, 1], [2, -1]], left_constant=0,
                        tail=None, require_nonnegative=True)
        doc = growth_to_doc(z)
        assert growth_to_doc(growth_from_doc(doc)) == doc

    def test_tailed_growth_roundtrip(self):
        z = make_growth([0], [], tail=(F(3, 2), [1, 2]))
        doc = growth_to_doc(z)
        z2 = growth_from_doc(doc)
        assert z2.tail == z.tail

    def test_zero_denominator_rejected(self):
        with pytest.raises(DocumentError):
            parse_rational("3/0")

    def test_bad_schema_rejected(self):
        with pytest.raises(DocumentError):
            function_from_doc({"schema": "convval/99", "kind": "function"})

    def test_missing_field_rejected(self):
        with pytest.raises(DocumentError):
            function_from_doc({"schema": "convval/1", "kind": "function", "n": 2})


class TestEval:
    def test_inside(self, abs_doc, capsys):
        assert main(["eval", abs_doc, "--point", "1/2,-1/2"]) == 0
        assert capsys.readouterr().out.strip() == "1/2"

    def test_malformed_point(self, abs_doc, capsys):
        assert main(["eval", abs_doc, "--point", "1/0,2"]) == 2

    def test_missing_file(self, capsys):
        assert main(["eval", "/nonexistent.json", "--point", "0,0"]) == 2


class TestConjugate:
    def test_writes_valid_document(self, abs_doc, tmp_path, capsys):
        out = str(tmp_path / "star.json")
        assert main(["conjugate", abs_doc, "--out", out]) == 0
        star = function_from_doc(json.loads(open(out).read()))
        # conjugate of the max-of-unit-slopes function is the indicator of its
        # subdifferential body: finite (0) at the origin
        assert star.eval((0, 0)) == 0

    def test_double_conjugate_roundtrip(self, abs_doc, tmp_path):
        s1 = str(tmp_path / "s1.json")
        s2 = str(tmp_path / "s2.json")
        assert main(["conjugate", abs_doc, "--out", s1]) == 0
        assert main(["conjugate", s1, "--out", s2]) == 0
        u = function_from_doc(json.loads(open(abs_doc).read()))
        u2 = function_from_doc(json.loads(open(s2).read()))
        assert pwa_equal(u, u2)


class TestInfconv:
    def test_output_parses(self, abs_doc, tmp_path):
        out = str(tmp_path / "w.json")
        assert main(["infconv", abs_doc, abs_doc, "--out", out]) == 0
        w = function_from_doc(json.loads(open(out).read()))
        assert w.eval((0, 0)) == 0


class TestValuation:
    def test_report_and_profile(self, abs_doc, zeta_docs, tmp_path, capsys):
        z0, zn = zeta_docs
        out = str(tmp_path / "rep.json")
        prof = str(tmp_path / "prof.csv")
        assert main(["valuation", abs_doc, z0, zn, "--out", out,
                     "--profile-csv", prof]) == 0
        rep = json.loads(open(out).read())
        assert rep["command"] == "valuation"
        assert rep["results"]["min_value"] == "0"
        # abs2 max over 8 sign patterns... here 4 slopes: sublevel {|x|_1<=t}?
        # the document is max(+-x1, +-x2) = |x|_inf: V(t) = (2t)^2, zeta_n = 1
        # on [0,1] so Z = V(1) = 4 ... plus zeta0(0) = 2
        assert parse_rational(rep["results"]["combined_valuation"]) == 6
        with open(prof) as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            t = parse_rational(row["t"])
            assert parse_rational(row["V"]) == 4 * t * t

    def test_deterministic_report_fields(self, abs_doc, zeta_docs, tmp_path):
        z0, zn = zeta_docs
        o1, o2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        main(["valuation", abs_doc, z0, zn, "--out", o1])
        main(["valuation", abs_doc, z0, zn, "--out", o2])
        r1, r2 = json.loads(open(o1).read()), json.loads(open(o2).read())
        for k in ("results", "inputs_digest", "command", "version"):
            assert r1[k] == r2[k]


class TestGrowth:
    def test_csv_relation(self, zeta_docs, tmp_path):
        z0, _ = zeta_docs
        out = str(tmp_path / "g.csv")
        assert main(["growth", z0, "--n", "2", "--tmax", "3", "--out", out]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            assert parse_rational(row["zeta"]) == parse_rational(row["signed_nth_derivative"])
        last = rows[-1]
        assert parse_rational(last["psi_n"]) == 0  # past the support


    @pytest.mark.parametrize("argv, message", [
        (["--steps", "0"], "argument --steps: must be >= 1"),
        (["--steps", "x"], "argument --steps: expected an integer"),
        (["--n", "0"], "argument --n: must be >= 1"),
        (["--n", "-2"], "argument --n: must be >= 1"),
        (["--n", "2.5"], "argument --n: expected an integer"),
        (["--tmin", "abc"], "argument --tmin: value: bad rational 'abc'"),
        (["--tmax", "1/0"], "argument --tmax: value: bad rational '1/0'"),
    ])
    def test_malformed_argv_exits_2(self, zeta_docs, capsys, argv, message):
        z0, _ = zeta_docs
        with pytest.raises(SystemExit) as exc:
            main(["growth", z0] + argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


MALFORMED_COUNTS = [
    (["--count", "0"], "argument --count: must be >= 1"),
    (["--count", "-1"], "argument --count: must be >= 1"),
    (["--count", "x"], "argument --count: expected an integer"),
    (["--n", "0"], "argument --n: must be >= 1"),
    (["--n", "2.5"], "argument --n: expected an integer"),
]


class TestLaws:
    @pytest.mark.parametrize("suite", ["valuation", "growth", "staircase"])
    @pytest.mark.parametrize("argv, message", MALFORMED_COUNTS)
    def test_malformed_argv_exits_2(self, capsys, suite, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["laws", suite] + argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_valuation_suite_passes(self, capsys):
        assert main(["laws", "valuation", "--seed", "0", "--count", "3", "--n", "2"]) == 0

    def test_growth_suite_passes(self, capsys):
        assert main(["laws", "growth", "--seed", "1", "--count", "4", "--n", "2"]) == 0

    @pytest.mark.parametrize("suite, argv, cap, checks", [
        ("convergence", ["--n", "1"], 5, 5),
        ("staircase", [], 3, 12),
    ])
    def test_capped_count_is_reported(self, tmp_path, capsys, suite, argv, cap, checks):
        out = tmp_path / "capped.json"
        assert main(["laws", suite, "--count", "10", "--out", str(out)] + argv) == 0
        err = capsys.readouterr().err
        assert f"{checks}/{checks} checks passed (ran {cap} of the 10 requested)" in err
        capped = json.loads(out.read_text())
        assert main(["laws", suite, "--count", str(cap), "--out", str(out)] + argv) == 0
        assert "requested" not in capsys.readouterr().err
        exact = json.loads(out.read_text())
        for rep in (capped, exact):
            del rep["elapsed_seconds"]
        assert capped == exact

    def test_unknown_suite(self, capsys):
        assert main(["laws", "nonsense"]) == 2

    def test_report_schema(self, tmp_path, capsys):
        out = str(tmp_path / "laws.json")
        assert main(["laws", "conjugacy", "--seed", "0", "--count", "2",
                     "--n", "2", "--out", out]) == 0
        rep = json.loads(open(out).read())
        assert rep["results"]["passed"] == rep["results"]["checks"]
        assert all(r["passed"] for r in rep["law_reports"])
        assert rep["seed"] == 0


class TestFixtures:
    @pytest.mark.parametrize("argv, message", MALFORMED_COUNTS)
    def test_malformed_argv_exits_2(self, tmp_path, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["fixtures", "--out", str(tmp_path / "fx")] + argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "fx").exists()

    def test_writes_loadable_pairs(self, tmp_path, capsys):
        out = str(tmp_path / "fx")
        assert main(["fixtures", "--seed", "5", "--count", "2", "--n", "2",
                     "--out", out]) == 0
        paths = capsys.readouterr().out.split()
        assert len(paths) == 4
        for p in paths:
            function_from_doc(json.loads(open(p).read()))

    def test_deterministic(self, tmp_path, capsys):
        o1, o2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["fixtures", "--seed", "9", "--count", "1", "--n", "2", "--out", o1])
        main(["fixtures", "--seed", "9", "--count", "1", "--n", "2", "--out", o2])
        a = open(o1 + "/pair9_u.json").read()
        b = open(o2 + "/pair9_u.json").read()
        assert a == b


def test_import_and_growth_leave_sympy_and_mpmath_unloaded(tmp_path):
    doc = tmp_path / "zeta.json"
    doc.write_text(json.dumps(growth_to_doc(
        make_growth([0, 1, 2], [[0, 1], [2, -1]], require_nonnegative=True))))
    assert json.loads(doc.read_text())["nonnegative"] is True
    code = (
        "import sys\n"
        "loaded = lambda: sorted({'sympy', 'mpmath'} & set(sys.modules))\n"
        "import convval\n"
        "print(loaded())\n"
        "from convval.cli import main\n"
        f"assert main(['growth', {str(doc)!r}, '--n', '3']) == 0\n"
        "print(loaded())\n"
    )
    src = os.path.dirname(os.path.dirname(convval.__file__))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0] == "[]" and out.stdout.splitlines()[-1] == "[]"
