"""CLI and JSON document round-trips."""

import csv
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

import convval

from convval.cli import main
from convval.documents import (DocumentError, function_from_doc,
                               function_to_doc, growth_from_doc, growth_to_doc,
                               parse_rational)
from convval.functions import make, pwa_equal
from convval.growth import make_growth, psi_from_zeta
from convval.laws import SUITES
from oracles import RUN_MODULES, python_stdout, weights


@pytest.fixture
def abs_doc(tmp_path):
    u = make([((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0)], n=2)
    p = tmp_path / "abs2.json"
    p.write_text(json.dumps(function_to_doc(u)))
    return str(p)


@pytest.fixture
def tail_doc(tmp_path):
    """(2 + t) e^(-t) on [0, inf), the tailed weight of the benchmark's CLI mix."""
    p = tmp_path / "tail.json"
    p.write_text(json.dumps(growth_to_doc(
        make_growth([0], [], tail=(1, [2, 1]), require_nonnegative=True))))
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

    def test_polynomial_left_piece_is_refused(self):
        """psi_2 of 1 on [0, 1] is 1 - 2t left of 0; a document keeps only a
        left constant, so it would read back 1 at t = -1, not 3."""
        psi = psi_from_zeta(make_growth([0, 1], [[1]]), 2)
        assert psi.eval(-1) == 3
        with pytest.raises(DocumentError, match="left piece of degree 1"):
            growth_to_doc(psi)

    @settings(max_examples=100, deadline=None)
    @given(weights())
    def test_constant_left_weights_round_trip_byte_identically(self, zeta):
        """Every weight ``make_growth`` builds has a constant left piece and
        is written and read back unchanged."""
        text = json.dumps(growth_to_doc(zeta), indent=2, sort_keys=True)
        assert json.dumps(growth_to_doc(growth_from_doc(json.loads(text))),
                          indent=2, sort_keys=True) == text

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


ABS1 = function_to_doc(make([((1,), 0), ((-1,), 0)]))
BOX = growth_to_doc(make_growth([0, 1], [[1]]))


def _edited(doc, **fields):
    return {**doc, **fields}


# Each input was read by Python's own iteration or truthiness (a string as its
# characters, true as 1, "no" as true) or raised a TypeError traceback.
MALFORMED_DOCUMENTS = [
    ("eval", _edited(ABS1, pieces=5), "pieces: expected an array"),
    ("eval", _edited(ABS1, pieces=[1]), "pieces[0]: expected an object"),
    ("eval", _edited(ABS1, domain=7), "domain: expected an array"),
    ("eval", _edited(ABS1, domain=[[1, 2]]), "domain[0]: expected an object"),
    ("eval", _edited(ABS1, pieces=[{"a": "1", "b": "0"}, {"a": ["-1"], "b": "0"}]),
     "pieces[0].a: expected an array"),
    ("eval", _edited(ABS1, n=True), "bad dimension n=True"),
    ("eval", _edited(ABS1, coercive="no"), "coercive: expected true or false"),
    ("eval", _edited(ABS1, pieces=[{"a": [True], "b": "0"}, {"a": ["-1"], "b": "0"}]),
     "pieces[0].a: expected a rational string, got True"),
    ("growth", _edited(BOX, pieces=[5]), "pieces[0]: expected an array"),
    ("growth", _edited(BOX, pieces=["1"]), "pieces[0]: expected an array"),
    ("growth", _edited(BOX, breakpoints="12"), "breakpoints: expected an array"),
    ("growth", _edited(BOX, tail=5), "tail: expected an object"),
    ("growth", _edited(BOX, tail={"lambda": "1", "coeffs": "1"}), "tail.coeffs: expected an array"),
    ("growth", _edited(BOX, nonnegative="no"), "nonnegative: expected true or false"),
]


class TestMalformedDocuments:
    @pytest.mark.parametrize("command, doc, message", MALFORMED_DOCUMENTS)
    def test_exits_2_without_traceback(self, tmp_path, capsys, command, doc, message):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = [command, str(path)] + (["--point", "1"] if command == "eval" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"document error: {message}" in err and "Traceback" not in err

    def test_valid_documents_parse_as_before(self):
        assert function_to_doc(function_from_doc(ABS1)) == ABS1
        assert growth_to_doc(growth_from_doc(BOX)) == BOX
        assert function_from_doc(_edited(ABS1, coercive=False)).coercive is False
        assert function_from_doc({k: v for k, v in ABS1.items() if k != "domain"}).n == 1


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


# sha256 of each `laws SUITE --count 1 --n N` report, without elapsed_seconds,
# as sorted-key JSON: moving or refactoring a suite must not change its report.
REPORT_DIGESTS = {  # suite: (n = 1, n = 2)
    "valuation": ("26a39fdb6a7e09d0", "d1f7f124df5cf7f6"),
    "invariance": ("5959947e3952f2c2", "6c0f7b9641001ffa"),
    "growth": ("8070275ccad4859b", "a886f310c363e939"),
    "convergence": ("61b923e90f8d8b70", "9c50d316b3d920ac"),
    "staircase": ("e3044b1eb20901a4", "e3044b1eb20901a4"),
    "conjugacy": ("c665bc3cd62565ba", "c665bc3cd62565ba"),
}


class TestLaws:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("suite", list(SUITES))
    def test_every_suite_reports_as_recorded(self, tmp_path, capsys, suite, n):
        out = tmp_path / "laws.json"
        assert main(["laws", suite, "--count", "1", "--n", str(n), "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        rep = json.loads(out.read_text())
        del rep["elapsed_seconds"]
        digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()[:16]
        assert digest == REPORT_DIGESTS[suite][n - 1]

    @pytest.mark.parametrize("suite", list(SUITES))
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


@pytest.mark.parametrize("argv", [
    ["conjugate", "{u}", "--out", "{bad}"],
    ["infconv", "{u}", "{u}", "--out", "{bad}"],
    ["valuation", "{u}", "{z0}", "{zn}", "--out", "{bad}"],
    ["valuation", "{u}", "{z0}", "{zn}", "--profile-csv", "{bad}"],
    ["growth", "{z0}", "--out", "{bad}"],
    ["laws", "growth", "--count", "1", "--out", "{bad}"],
    ["fixtures", "--count", "1", "--out", "{file}"],
], ids=["conjugate", "infconv", "valuation", "valuation-csv", "growth", "laws", "fixtures"])
def test_unwritable_output_exits_2(abs_doc, zeta_docs, tmp_path, capsys, argv):
    z0, zn = zeta_docs
    bad = str(tmp_path / "missing" / "out.json")  # the directory does not exist
    existing = tmp_path / "a-file"
    existing.write_text("")
    paths = {"u": abs_doc, "z0": z0, "zn": zn, "bad": bad, "file": str(existing)}
    assert main([a.format(**paths) for a in argv]) == 2
    target = paths["file"] if argv[0] == "fixtures" else bad
    err = capsys.readouterr().err
    assert f"error: cannot write {target}: " in err and "Traceback" not in err


CONVVAL_MODULES = {f"convval.{m}" for m in ("cli", "conjugacy", "documents", "errors",
                                              "functions", "growth", "laws", "linalg",
                                              "polyhedra", "reports", "valuation")}
OTHERS = {"hashlib", "mpmath", "numpy", "sympy"}


def _unloaded(*names):
    return {f"convval.{m}" for m in names}


# argv (None: only ``import convval``) and the watched modules it must leave
# unrun (``import convval`` lists its library modules in sys.modules, unrun).
# Only a tailed ``growth`` integrates with mpmath, only ``valuation``
# digests its inputs with hashlib, and no command loads numpy (``laws
# staircase`` fits its log-log slope with ``statistics``).
LEAVES_UNLOADED = [
    (None, CONVVAL_MODULES | OTHERS),
    (["growth", "{poly}", "--n", "3"],
     _unloaded("polyhedra", "functions", "linalg", "laws", "valuation", "conjugacy") | OTHERS),
    (["growth", "{tail}", "--n", "3"],
     _unloaded("polyhedra", "functions", "linalg", "laws", "valuation", "conjugacy")
     | OTHERS - {"mpmath"}),
    (["eval", "{u}", "--point", "1,0"], _unloaded("laws", "valuation", "conjugacy") | OTHERS),
    (["conjugate", "{u}"], _unloaded("laws", "valuation") | OTHERS),
    (["infconv", "{u}", "{u}"], _unloaded("laws", "valuation") | OTHERS),
    (["valuation", "{u}", "{z0}", "{zn}"], _unloaded("laws", "conjugacy") | OTHERS - {"hashlib"}),
    (["laws", "valuation", "--count", "1"], OTHERS),
    (["laws", "staircase", "--count", "1"], OTHERS),
    (["fixtures", "--count", "1", "--out", "{fx}"], OTHERS),
]


def test_import_and_growth_leave_sympy_and_mpmath_unloaded(abs_doc, zeta_docs, tail_doc,
                                                           tmp_path):
    """Each command, in a fresh interpreter, loads only the modules it runs."""
    poly = tmp_path / "zeta.json"
    poly.write_text(json.dumps(growth_to_doc(
        make_growth([0, 1, 2], [[0, 1], [2, -1]], require_nonnegative=True))))
    assert json.loads(poly.read_text())["nonnegative"] is True
    paths = {"u": abs_doc, "z0": zeta_docs[0], "zn": zeta_docs[1], "poly": str(poly),
             "tail": tail_doc, "fx": str(tmp_path / "fx")}
    for argv, unloaded in LEAVES_UNLOADED:
        if argv is None:
            run = "import convval\n"
        else:
            argv = [a.format(**paths) for a in argv]
            run = ("import contextlib, io\n"
                   "from convval.cli import main\n"
                   "with contextlib.redirect_stdout(io.StringIO()):\n"
                   f"    assert main({argv!r}) == 0\n")
        watched = sorted(CONVVAL_MODULES | OTHERS)
        code = (f"import json\n{run}"
                f"print(json.dumps(sorted(set({RUN_MODULES}) & set({watched!r}))))\n")
        loaded = set(json.loads(python_stdout(code).splitlines()[-1]))
        assert not loaded & unloaded, (argv, sorted(loaded & unloaded))


def test_laws_help_lists_the_suites_in_order(capsys):
    """The parser lists the suites of ``laws.SUITES``, in its order, without importing laws."""
    with pytest.raises(SystemExit) as exc:
        main(["laws", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert re.search(r"one of: (.*?) options:", text).group(1).split(", ") == list(SUITES)


# The CLI's contract on inputs that reach its failure paths: each row, in a
# fresh process and in this one, exits 0, 1 or 2 and prints no traceback.
# x and -x on R are both proper, but their infimal convolution is -inf.
# Files that are not JSON text are written as raw bytes.
CONTRACT_DOCUMENTS = {
    "x": function_to_doc(make([((1,), 0)], coercive=False)),
    "minus_x": function_to_doc(make([((-1,), 0)], coercive=False)),
    "negative": _edited(BOX, pieces=[["-1"]], nonnegative=True),
    "not_utf8": b"\xff\xfe\x00{",
    "nested": b"[" * 200000 + b"]" * 200000,
}
CLI_CONTRACT = {  # name: (argv, exit status, on standard error)
    "infconv-minus-infinity": (["infconv", "{x}", "{minus_x}"], 2,
                               "error: polyhedron is unbounded below"),
    "valuation-noncoercive": (["valuation", "{x}", "{z0}", "{zn}"], 2,
                              "error: level-volume profile requires a coercive function"),
    "growth-tailed-n1": (["growth", "{tail}", "--n", "1"], 0, ""),
    "growth-failed-certificate": (["growth", "{negative}"], 2,
                                  "document error: invalid growth document: "
                                  "nonnegativity certificate failed"),
    "eval-not-utf8": (["eval", "{not_utf8}", "--point", "0"], 2,
                      "not_utf8.json: not UTF-8 text at byte 0"),
    "eval-nested-too-deeply": (["eval", "{nested}", "--point", "0"], 2,
                               "nested.json: JSON nested too deeply"),
}


@pytest.mark.parametrize("argv, status, message", CLI_CONTRACT.values(), ids=list(CLI_CONTRACT))
def test_cli_contract(zeta_docs, tail_doc, tmp_path, capsys, argv, status, message):
    paths = {"z0": zeta_docs[0], "zn": zeta_docs[1], "tail": tail_doc}
    for name, doc in CONTRACT_DOCUMENTS.items():
        paths[name] = str(tmp_path / f"{name}.json")
        data = doc if isinstance(doc, bytes) else json.dumps(doc).encode()
        (tmp_path / f"{name}.json").write_bytes(data)
    argv = [a.format(**paths) for a in argv]
    src = os.path.dirname(os.path.dirname(convval.__file__))
    fresh = subprocess.run([sys.executable, "-m", "convval.cli", *argv],
                           env=dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1"),
                           capture_output=True, text=True, timeout=300)
    assert fresh.returncode in (0, 1, 2) and "Traceback" not in fresh.stderr, fresh.stderr
    assert fresh.returncode == status and message in fresh.stderr
    assert main(argv) == status
    assert message in capsys.readouterr().err


# Every subcommand once; a fresh process must behave as main() does in one
# where the tests have imported every module already.
FRESH_COMMANDS = {
    "eval": ["eval", "{u}", "--point", "1/2,-1"],
    "conjugate": ["conjugate", "{u}"],
    "infconv": ["infconv", "{u}", "{u}", "--out", "{out}/infconv.json"],
    "valuation": ["valuation", "{u}", "{z0}", "{zn}", "--profile-csv", "{out}/profile.csv",
                  "--out", "{out}/report.json"],
    "growth-polynomial": ["growth", "{z0}", "--n", "3"],
    "growth-tailed": ["growth", "{tail}", "--n", "3"],
    **{f"laws-{suite}": ["laws", suite, "--count", "1", "--out", "{out}/laws.json"]
       for suite in SUITES},
    "fixtures": ["fixtures", "--count", "1", "--out", "{out}/fx"],
}


def _written(out):
    """Every file under ``out`` by relative path, with the report's run time
    zeroed."""
    files = {}
    for root, _, names in os.walk(out):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                data = fh.read()
            files[os.path.relpath(path, out)] = re.sub(
                rb'"elapsed_seconds": [-+.e0-9]+', b'"elapsed_seconds": 0', data)
    return files


@pytest.mark.parametrize("argv", FRESH_COMMANDS.values(), ids=list(FRESH_COMMANDS))
def test_fresh_process_matches_in_process_main(abs_doc, zeta_docs, tail_doc, tmp_path, capsys,
                                               argv):
    out = tmp_path / "out"
    paths = {"u": abs_doc, "z0": zeta_docs[0], "zn": zeta_docs[1], "tail": tail_doc,
             "out": str(out)}
    argv = [a.format(**paths) for a in argv]
    out.mkdir()
    src = os.path.dirname(os.path.dirname(convval.__file__))
    fresh = subprocess.run([sys.executable, "-m", "convval.cli", *argv],
                           env=dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1"),
                           capture_output=True, timeout=300)
    assert b"Traceback" not in fresh.stderr, fresh.stderr.decode()
    fresh_files = _written(out)
    shutil.rmtree(out)
    out.mkdir()
    code = main(argv)
    assert (fresh.returncode, fresh.stdout.decode()) == (code, capsys.readouterr().out)
    assert fresh_files == _written(out)
