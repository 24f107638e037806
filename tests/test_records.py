"""The frozen value classes made by ``reports.record``: construction,
equality, hashing, repr, immutability and cached properties, one test per
class."""

from fractions import Fraction as F

import pytest

from convval.conjugacy import ConeBound
from convval.functions import make
from convval.growth import GrowthFunction
from convval.laws import FixturePair
from convval.polyhedra import HRep, VRep
from convval.reports import LawReport
from convval.valuation import LevelVolumeProfile

U = make([((1,), 0), ((-1,), 0)])
V = make([((2,), -1), ((-1,), 0)])

# class: (the required fields, the defaults in order, one field and a value
# that differs from it)
RECORDS = {
    HRep: ({"d": 1, "halfspaces": (((F(1),), F(2)),)}, {}, ("d", 2)),
    VRep: ({"d": 1, "vertices": ((F(0),),)}, {"rays": (), "lines": ()},
           ("vertices", ((F(1),),))),
    GrowthFunction: ({"breakpoints": (F(0), F(1)), "pieces": ((F(1),),), "left": (),
                      "tail": None}, {"nonnegative": False}, ("left", (F(1),))),
    LawReport: ({"law": "l", "inputs": "i", "passed": True},
                {"left": None, "right": None, "tolerance": 0, "witness": None, "details": {}},
                ("passed", False)),
    LevelVolumeProfile: ({"n": 1, "t_min": F(0), "atom": F(0), "breakpoints": (F(0), F(1)),
                          "interval_polys": ((F(0), F(2)),), "final_poly": (F(2), F(2))},
                         {}, ("atom", F(1))),
    FixturePair: ({"u": U, "v": V, "seed": 3, "wedge": U}, {}, ("seed", 4)),
    ConeBound: ({"a": F(1, 2), "b": F(-7)}, {}, ("b", F(-6))),
}


def _checked(obj, fields):
    """Every field of ``obj`` as ``fields`` gives it, and the repr a
    dataclass writes."""
    assert {f: getattr(obj, f) for f in fields} == fields
    shown = ", ".join(f"{f}={v!r}" for f, v in fields.items())
    assert repr(obj) == f"{type(obj).__qualname__}({shown})"
    return obj


@pytest.mark.parametrize("cls", RECORDS, ids=[c.__name__ for c in RECORDS])
def test_record_semantics(cls):
    required, defaults, (name, other) = RECORDS[cls]
    fields = {**required, **defaults}
    by_position = _checked(cls(*required.values()), fields)
    by_keyword = _checked(cls(**required), fields)
    spelled_out = _checked(cls(*fields.values()), fields)
    assert by_position == by_keyword == spelled_out
    assert not by_position != by_keyword
    changed = cls(**{**fields, name: other})
    assert changed != by_position and not changed == by_position
    assert by_position.__eq__(object()) is NotImplemented
    assert by_position != tuple(fields.values())
    if cls is LawReport:  # its details dict makes it unhashable, as before
        with pytest.raises(TypeError):
            hash(by_position)
    else:
        assert hash(by_position) == hash(by_keyword) == hash(tuple(fields.values()))
    for attr in (name, "no_such_field"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{attr}'"):
            setattr(by_position, attr, other)
        with pytest.raises(AttributeError):
            delattr(by_position, attr)
    assert getattr(by_position, name) == fields[name]
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*fields.values(), None)


def test_an_hrep_and_a_vrep_with_equal_fields_differ():
    assert HRep(2, ()) != VRep(2, ())
    assert not HRep(2, ()) == VRep(2, ())
    assert HRep(2, ()) == HRep(2, ())


def test_law_reports_never_share_details():
    a, b = LawReport("l", "i", True), LawReport("l", "i", True)
    assert a.details == b.details == {} and a.details is not b.details
    a.details["k"] = 1
    assert b.details == {} and LawReport("l", "i", True).details == {}
    assert LawReport("l", "i", True, details=None).details is None
    mine = {"k": 2}
    assert LawReport("l", "i", True, details=mine).details is mine


def test_cone_bound_repr_reaches_documents_unchanged():
    assert repr(ConeBound(F(1, 2), F(-7))) == "ConeBound(a=Fraction(1, 2), b=Fraction(-7, 1))"
    assert str(ConeBound(F(1, 2), F(-7))) == repr(ConeBound(F(1, 2), F(-7)))


def test_cached_properties_fill_on_first_read():
    h = HRep(1, (((F(2),), F(3)),))
    assert "int_rows" not in vars(h)
    assert h.int_rows == [(2, -3)] and vars(h)["int_rows"] is h.int_rows
    pair = FixturePair(U, V, 0, U)
    assert "vee" not in vars(pair)
    assert pair.vee is pair.vee and vars(pair)["vee"] is pair.vee
    assert pair.lattice() == (U, pair.vee)
    prof = LevelVolumeProfile(1, F(0), F(0), (F(0), F(1)), ((F(0), F(2)),), (F(2), F(2)))
    assert "_derivatives" not in vars(prof)
    assert prof._derivatives == ((F(2),), (F(2),)) and "_derivatives" in vars(prof)
    assert prof.verify_monotone()
