"""Exception hierarchy for varleb.

Every error raised by the library derives from :class:`VarlebError`, so
callers can distinguish "the mathematics refused the input" from genuine
bugs.  The subclasses follow the failure modes of the numerical contracts:

* :class:`DomainError` -- operands live on incompatible grids or boxes,
  or a parameter is outside its documented range.
* :class:`RangeError` -- a derived exponent left the admissible range
  (for example an inverted blend produced a nonpositive reciprocal).
  Carries the violating point when one is known.
* :class:`ConvergenceError` -- an iterative solve (the Newton
  Luxemburg solve) failed to converge within its evaluation budget.
* :class:`EmptyRegionError` -- a region of integration contains no grid
  node at the current resolution.
* :class:`OverflowToInfinityError` -- a weight-constant scan produced a
  per-cube value beyond the overflow threshold, which we read as "the
  constant is infinite at grid scale".
* :class:`HypothesisFailureError` -- a theorem-shaped routine was asked
  to run with its hypotheses violated (for example a compactness
  diagnostic whose gating weight condition fails).
* :class:`SchemaError` -- a JSON descriptor or CLI config is malformed:
  unknown keys, missing fields, wrong types.
* :class:`ArityMismatchError` -- an operator received a tuple of inputs
  whose length differs from its declared arity.
* :class:`SpecMismatchError` -- two quadruples or experiment halves that
  must share structure (arity, gamma, domain) do not.
"""

from __future__ import annotations


class VarlebError(Exception):
    """Base class for all varleb errors."""


class DomainError(VarlebError):
    pass


class RangeError(VarlebError):
    """A derived exponent or parameter left its admissible range.

    ``point`` is the first sample point at which the violation was seen,
    or None when the failure is global.
    """

    def __init__(self, message: str, point=None):
        super().__init__(message if point is None else f"{message} (at point {point})")
        self.point = point


class ConvergenceError(VarlebError):
    pass


class EmptyRegionError(VarlebError):
    pass


class OverflowToInfinityError(VarlebError):
    pass


class HypothesisFailureError(VarlebError):
    pass


class SchemaError(VarlebError):
    pass


class ArityMismatchError(VarlebError):
    pass


class SpecMismatchError(VarlebError):
    pass


class VersionMismatchWarning(UserWarning):
    """A replayed report was produced by a different library version."""


def check_keys(desc, required: set[str], optional: set[str], where: str) -> None:
    """Raise SchemaError unless ``desc`` is a dict holding every required
    key and no key outside ``required | optional``."""
    if not isinstance(desc, dict):
        raise SchemaError(f"{where} must be a JSON object")
    unknown = set(desc) - required - optional
    if unknown:
        raise SchemaError(f"unknown keys {sorted(unknown)} in {where}")
    missing = required - set(desc)
    if missing:
        raise SchemaError(f"missing keys {sorted(missing)} in {where}")


def read_number(value, key: str, where: str, integer: bool = False):
    """Return a config value as a float, or as an int when ``integer``;
    raise SchemaError naming ``where`` and ``key`` for null, bools,
    strings, lists and, for integer keys, non-integral numbers."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or integer and not float(value).is_integer()):
        raise SchemaError(f"{where} key '{key}' must be a number, got {value!r}")
    return int(value) if integer else float(value)


def read_list(value, key: str, where: str) -> list:
    """Return a config value that must be a list (or tuple); raise
    SchemaError naming ``where`` and ``key`` for anything else."""
    if not isinstance(value, (list, tuple)):
        raise SchemaError(f"{where} key '{key}' must be a list, got {value!r}")
    return list(value)


def read_numbers(value, key: str, where: str) -> list[float]:
    """A list-valued config key whose entries are numbers."""
    return [read_number(v, key, where) for v in read_list(value, key, where)]
