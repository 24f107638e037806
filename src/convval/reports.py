"""Shared result record for executable law checks, the law suites' names,
and the ``record`` decorator of the package's frozen value classes."""

from __future__ import annotations

from typing import Any

# The law suites ``convval laws`` runs, in order; ``laws.SUITES`` maps each
# name to its runner.  They are named here so the CLI can list them without
# importing ``laws``.
SUITE_NAMES = ("valuation", "invariance", "growth", "convergence", "staircase", "conjugacy")


def _frozen(self, name, value=None):
    raise AttributeError(f"cannot assign to field {name!r}")


def record(cls):
    """``cls`` as ``dataclasses.dataclass(frozen=True)`` makes it, over its
    annotated fields: the same ``__init__`` (a ``{}`` default is fresh per
    instance), ``__eq__``, ``__hash__`` and ``__repr__``, and assignment
    raising ``AttributeError``; ``cached_property`` fills ``__dict__``."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    env, params, sets = {"_set": object.__setattr__}, [], []
    for f in names:
        value = f
        if f in cls.__dict__:
            env[f"_{f}"] = default = cls.__dict__[f]
            params.append(f"{f}=_{f}")
            if type(default) is dict:
                delattr(cls, f)
                value = f"{{}} if {f} is _{f} else {f}"
        else:
            params.append(f)
        sets.append(f"_set(self, {f!r}, {value})")
    mine, theirs = (" ".join(f"{s}.{f}," for f in names) for s in ("self", "other"))
    shown = ", ".join(f"{f}={{self.{f}!r}}" for f in names)
    exec(f"def __init__(self, {', '.join(params)}):\n {'; '.join(sets) or 'pass'}\n"
         "def __eq__(self, other):\n"
         f" if other.__class__ is self.__class__: return ({mine}) == ({theirs})\n"
         " return NotImplemented\n"
         f"def __hash__(self):\n return hash(({mine}))\n"
         f"def __repr__(self):\n return f\"{{self.__class__.__qualname__}}({shown})\"\n", env)
    for name in ("__init__", "__eq__", "__hash__", "__repr__"):
        setattr(cls, name, env[name])
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls


@record
class LawReport:
    """Outcome of one identity check.

    ``passed`` is equivalent to |left - right| <= tolerance; exact paths use
    tolerance 0 on rational values.  ``witness`` records the point/level/seed
    at which a failing comparison occurred.
    """
    law: str
    inputs: str
    passed: bool
    left: Any = None
    right: Any = None
    tolerance: Any = 0
    witness: Any = None
    details: dict = {}

    def __bool__(self):
        return self.passed
