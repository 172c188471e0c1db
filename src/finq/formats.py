"""JSON interchange for the object kinds the command line handles.

Lattices travel as cover relations, quantales as a lattice plus a
multiplication table with optional negation images, semigroups as operation
tables, relations as boolean matrices, endomaps as image arrays. Loading
validates shape only; mathematical laws are checked by the operations the
caller runs afterwards.
"""

import json

import numpy as np

from .errors import ParseError, ValidationFailed
from .lattice import EndoMap, build_lattice
from .nuclei import BinaryRelation, FiniteSemigroup


def _json_value(value):
    """The JSON form of a numpy value json.dumps meets in a payload."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    raise ValidationFailed(f"cannot serialize {type(value).__name__}")


def dumps_report(payload):
    return json.dumps(payload, indent=2, sort_keys=True,
                      default=_json_value) + "\n"


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}")


def _require(d, keys, what):
    if not isinstance(d, dict):
        raise ParseError(f"{what} must be a JSON object")
    for key in keys:
        if key not in d:
            raise ParseError(f"{what} is missing the {key!r} field")


def _int_array(value, shape, what, upper):
    """value as an int64 array of the given shape with entries in
    [0, upper); floats, booleans, strings and ragged rows are rejected,
    not converted. numpy reads a boolean among integers as 0 or 1, so the
    entries of an integer table are scanned for booleans once."""
    try:
        arr = np.asarray(value)
    except ValueError:
        arr = None
    if arr is None or arr.shape != shape:
        raise ParseError(f"{what} must have shape {shape}")
    if arr.size and arr.dtype.kind not in "iu":
        raise ParseError(f"{what} must hold integers only")
    rows = [value] if arr.ndim == 1 else value
    if not isinstance(value, np.ndarray) and any(
            isinstance(v, bool) for row in rows for v in row):
        raise ParseError(f"{what} must hold integers only")
    if arr.size and (arr.min() < 0 or arr.max() >= upper):
        raise ParseError(f"{what} contains an out-of-range element index")
    return arr.astype(np.int64, copy=False)


def lattice_to_dict(L):
    out = {"n": L.n, "covers": [[x, y] for x, y in L.covers]}
    if L.labels is not None:
        out["labels"] = list(L.labels)
    return out


def lattice_from_dict(d):
    _require(d, ("n", "covers"), "lattice")
    return build_lattice(d["covers"], d["n"], d.get("labels"))


def quantale_to_dict(Q, lneg=None, rneg=None):
    out = {"lattice": lattice_to_dict(Q.lattice), "mult": Q.mult.tolist()}
    if lneg is not None:
        out["lneg"] = [int(v) for v in lneg]
    if rneg is not None:
        out["rneg"] = [int(v) for v in rneg]
    return out


def quantale_from_dict(d):
    """Returns (lattice, mult, lneg, rneg); laws are not checked here."""
    _require(d, ("lattice", "mult"), "quantale")
    L = lattice_from_dict(d["lattice"])
    mult = _int_array(d["mult"], (L.n, L.n), "multiplication table", L.n)
    lneg = _int_array(d["lneg"], (L.n,), "lneg", L.n) if "lneg" in d else None
    rneg = _int_array(d["rneg"], (L.n,), "rneg", L.n) if "rneg" in d else None
    return L, mult, lneg, rneg


def endomap_from_dict(d, L):
    _require(d, ("image",), "endomap")
    return EndoMap(L, _int_array(d["image"], (L.n,), "endomap image", L.n))


def endomap_to_dict(f):
    return {"image": [int(v) for v in f.image]}


def semigroup_from_dict(d):
    _require(d, ("n", "op"), "semigroup")
    n = d["n"]
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValidationFailed("semigroup size must be an integer")
    op = _int_array(d["op"], (n, n), "semigroup operation", n)
    return FiniteSemigroup(n, op, tuple(d["labels"]) if "labels" in d
                           else None)


def relation_from_dict(d):
    _require(d, ("rel",), "relation")
    rows = d["rel"]
    n = len(rows)
    arr = np.asarray(rows, dtype=bool)
    if arr.shape != (n, n):
        raise ParseError("relation must be a square boolean matrix")
    return BinaryRelation(n, arr)
