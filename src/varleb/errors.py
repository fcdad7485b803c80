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
* :class:`EmptyRegionError` -- a cube of a weight-constant scan contains
  no grid node at the current resolution.
* :class:`OverflowToInfinityError` -- a check that needs a finite weight
  constant met a cube value whose log passes that of the threshold, read
  as "the constant is infinite at grid scale".
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

import math


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


# ---------------------------------------------------------------------------
# config schema: every config block is a table ``key -> (reader, default)``;
# a reader takes ``(value, key, where)`` and returns the value read, or raises
# SchemaError naming ``where`` and ``key``.  A kind table maps each descriptor
# kind to ``(builder, table)``, the table's keys the builder's parameters after
# its context (the grid or the box).

REQUIRED = object()


def read_fields(desc, table: dict, where: str) -> dict:
    """Check ``desc`` against ``table`` and return every key of the table,
    read by its reader, or its default when absent (REQUIRED: the key must
    be present; None: the code that uses the key says what absence means)."""
    if not isinstance(desc, dict):
        raise SchemaError(f"{where} must be a JSON object")
    unknown = desc.keys() - table.keys()
    if unknown:
        raise SchemaError(f"unknown keys {sorted(unknown)} in {where}")
    missing = [key for key, (_, default) in table.items()
               if default is REQUIRED and key not in desc]
    if missing:
        raise SchemaError(f"missing keys {sorted(missing)} in {where}")
    return {key: reader(desc[key], key, where) if key in desc else default
            for key, (reader, default) in table.items()}


def read_kind(desc, kinds: dict, noun: str, *context):
    """Build a tagged descriptor: ``builder(*context, **keys)`` of the
    entry ``(builder, table)`` of its ``kind`` in ``kinds``, with the rest
    of the descriptor read by the table."""
    kind = desc.get("kind") if isinstance(desc, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise SchemaError(f"{noun} needs a 'kind' among {sorted(kinds)}")
    build, table = kinds[kind]
    rest = {key: value for key, value in desc.items() if key != "kind"}
    return build(*context, **read_fields(rest, table, f"{noun} '{kind}'"))


def _refuse(noun: str, value, key: str, where: str):
    raise SchemaError(f"{where} key '{key}' must be {noun}, got {value!r}")


def number(value, key: str, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        if value in ("inf", "-inf"):  # a report's echo of an infinite config leaf
            return float(value)
        _refuse("a number", value, key, where)
    if math.isnan(value):
        _refuse("a number other than NaN", value, key, where)
    return float(value)


def integer(value, key: str, where: str) -> int:
    if not number(value, key, where).is_integer():
        _refuse("an integer", value, key, where)
    if abs(value) > 2 ** 53:  # the largest integers JSON carries exactly (RFC 8259)
        _refuse("an integer of at most 2**53 in magnitude", value, key, where)
    return int(value)


def string(value, key: str, where: str) -> str:
    if not isinstance(value, str):
        _refuse("a string", value, key, where)
    return value


def array(value, key: str, where: str):
    """A number, or a list of numbers or of such lists."""
    return (list_of(array) if isinstance(value, (list, tuple)) else number)(value, key, where)


def descriptor(noun: str):
    """Reader of a JSON object left to its kind table; ``noun``: "an exponent"."""
    def read(value, key, where):
        if not isinstance(value, dict):
            _refuse(f"{noun} descriptor object", value, key, where)
        return value
    return read


def block(table: dict):
    """Reader of a JSON object read by ``table``; its faults name the key."""
    return lambda value, key, where: read_fields(value, table, key)


def list_of(reader):
    def read(value, key, where):
        if not isinstance(value, (list, tuple)):
            _refuse("a list", value, key, where)
        return [reader(v, key, where) for v in value]
    return read


def per_axis(reader):
    """Reader of one value for every axis, or a list of one per axis."""
    return lambda value, key, where: (list_of(reader) if isinstance(value, (list, tuple))
                                      else reader)(value, key, where)


def each_axis(value, dim: int, key: str) -> list:
    """A value of ``key`` read by ``per_axis`` as a list of one per axis."""
    if not isinstance(value, (list, tuple)):
        return [value] * dim
    if len(value) != dim:
        raise SchemaError(f"{key} has {len(value)} coordinates, expected {dim} "
                          "(one per grid axis)")
    return list(value)
