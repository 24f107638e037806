"""JSON documents (schema "convval/1") for functions and growth functions.

Rationals are serialized as canonical "p/q" strings (plain integers when the
denominator is 1); floats use 17 significant digits.  parse(serialize(x))
is the identity on canonical documents.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import DocumentError

if TYPE_CHECKING:
    from .functions import PWAConvex
    from .growth import GrowthFunction

# The readers import the modules that build their results, so writing a
# document, or reading only growth documents, loads no polyhedra.

SCHEMA = "convval/1"


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def parse_rational(s, field: str = "value") -> Fraction:
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if not isinstance(s, str):
        raise DocumentError(f"{field}: expected a rational string, got {s!r}")
    try:
        f = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"{field}: bad rational {s!r} ({exc})") from None
    return f


_JSON_TYPES = {list: "an array", dict: "an object", bool: "true or false"}


def _typed(x, kind: type, field: str):
    """``x`` if it is a JSON value of the given kind (list, dict or bool)."""
    if not isinstance(x, kind):
        raise DocumentError(f"{field}: expected {_JSON_TYPES[kind]}, got {x!r}")
    return x


def _rationals(xs, field: str) -> tuple[Fraction, ...]:
    return tuple(parse_rational(x, field) for x in _typed(xs, list, field))


def _require(doc: dict, key: str, kind: str):
    if key not in doc:
        raise DocumentError(f"{kind} document missing field {key!r}")
    return doc[key]


def _check_schema(doc: dict, kind: str):
    if not isinstance(doc, dict):
        raise DocumentError("document is not a JSON object")
    if doc.get("schema") != SCHEMA:
        raise DocumentError(f"unsupported schema {doc.get('schema')!r} (want {SCHEMA!r})")
    if doc.get("kind") != kind:
        raise DocumentError(f"expected a {kind!r} document, got {doc.get('kind')!r}")


# -- functions ---------------------------------------------------------------

def function_to_doc(u: PWAConvex, provenance: str | None = None) -> dict:
    doc = {
        "schema": SCHEMA,
        "kind": "function",
        "n": u.n,
        "pieces": [{"a": [format_rational(x) for x in a], "b": format_rational(b)}
                   for a, b in u.pieces],
        "domain": [{"c": [format_rational(x) for x in c], "d": format_rational(d)}
                   for c, d in u.domain.halfspaces],
        "coercive": u.coercive,
    }
    if provenance:
        doc["provenance"] = provenance
    return doc


def function_from_doc(doc: dict) -> PWAConvex:
    from .functions import make
    from .polyhedra import HRep
    _check_schema(doc, "function")
    n = _require(doc, "n", "function")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DocumentError(f"bad dimension n={n!r}")
    pieces = []
    for i, p in enumerate(_typed(_require(doc, "pieces", "function"), list, "pieces")):
        p = _typed(p, dict, f"pieces[{i}]")
        a = _rationals(_require(p, "a", "piece"), f"pieces[{i}].a")
        if len(a) != n:
            raise DocumentError(f"pieces[{i}].a has length {len(a)}, expected {n}")
        pieces.append((a, parse_rational(_require(p, "b", "piece"), f"pieces[{i}].b")))
    rows = []
    for i, hs in enumerate(_typed(doc.get("domain", []), list, "domain")):
        hs = _typed(hs, dict, f"domain[{i}]")
        c = _rationals(_require(hs, "c", "halfspace"), f"domain[{i}].c")
        if len(c) != n:
            raise DocumentError(f"domain[{i}].c has length {len(c)}, expected {n}")
        rows.append((c, parse_rational(_require(hs, "d", "halfspace"), f"domain[{i}].d")))
    coercive = _typed(doc.get("coercive", True), bool, "coercive")
    try:
        return make(pieces, HRep(n, tuple(rows)), n=n, coercive=coercive)
    except Exception as exc:
        raise DocumentError(f"invalid function document: {exc}") from exc


# -- growth functions --------------------------------------------------------

def growth_to_doc(z: GrowthFunction) -> dict:
    """The document of ``z``, whose left piece must be a constant: the schema
    has only ``left_constant``, so a polynomial left piece (a psi_n from
    ``psi_from_zeta``) raises a :class:`DocumentError`."""
    if len(z.left) > 1:
        raise DocumentError(f"left piece of degree {len(z.left) - 1}: a growth document "
                            "holds only a left constant")
    doc = {
        "schema": SCHEMA,
        "kind": "growth",
        "breakpoints": [format_rational(b) for b in z.breakpoints],
        "pieces": [[format_rational(c) for c in p] for p in z.pieces],
        "left_constant": format_rational(z.left[0] if z.left else Fraction(0)),
        "nonnegative": z.nonnegative,
    }
    if z.tail is not None:
        lam, coeffs = z.tail
        doc["tail"] = {"lambda": format_rational(lam),
                       "coeffs": [format_rational(c) for c in coeffs]}
    return doc


def growth_from_doc(doc: dict) -> GrowthFunction:
    from .growth import make_growth
    _check_schema(doc, "growth")
    bp = _rationals(_require(doc, "breakpoints", "growth"), "breakpoints")
    pieces = [_rationals(p, f"pieces[{i}]")
              for i, p in enumerate(_typed(_require(doc, "pieces", "growth"), list, "pieces"))]
    tail = None
    if "tail" in doc:
        t = _typed(doc["tail"], dict, "tail")
        tail = (parse_rational(_require(t, "lambda", "tail"), "tail.lambda"),
                _rationals(_require(t, "coeffs", "tail"), "tail.coeffs"))
    left = parse_rational(doc.get("left_constant", 0), "left_constant")
    nonnegative = _typed(doc.get("nonnegative", False), bool, "nonnegative")
    try:
        return make_growth(bp, pieces, left_constant=left, tail=tail,
                           require_nonnegative=nonnegative)
    except ValueError as exc:
        raise DocumentError(f"invalid growth document: {exc}") from exc


# -- files -------------------------------------------------------------------

def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path}: not UTF-8 text at byte {exc.start}") from None
    except RecursionError:
        raise DocumentError(f"{path}: JSON nested too deeply") from None


def load_function(path: str) -> PWAConvex:
    return function_from_doc(load_json(path))


def load_growth(path: str) -> GrowthFunction:
    return growth_from_doc(load_json(path))


def dump(doc: dict, path: str | None):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path is None:
        print(text, end="")
    else:
        with open(path, "w") as fh:
            fh.write(text)
