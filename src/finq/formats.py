"""JSON interchange for the object kinds the command line handles.

Lattices travel as cover relations, quantales as a lattice plus a
multiplication table with optional negation images, semigroups as operation
tables, relations as boolean matrices, endomaps as image arrays. Loading
validates shape only; mathematical laws are checked by the operations the
caller runs afterwards. Only this module turns numpy values into JSON: a
report payload holds the library's arrays as they are, for dumps_report's
_json_value, and the public *_to_dict writers return plain lists.
"""

import json

import numpy as np

from .errors import ParseError, ValidationFailed
from .lattice import EndoMap, _index_array, build_lattice
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


def _parsed(check, *args):
    """check(*args), a library boundary check, with its ValidationFailed
    raised again as the ParseError of a malformed file."""
    try:
        return check(*args)
    except ValidationFailed as exc:
        raise ParseError(str(exc)) from None


def _labels(d):
    """The optional labels field, a list of strings; the constructors check
    that there is one label per element."""
    labels = d.get("labels")
    if labels is not None and not (isinstance(labels, list) and all(
            isinstance(v, str) for v in labels)):
        raise ParseError("labels must be a list of strings")
    return labels


def lattice_to_dict(L):
    out = {"n": L.n, "covers": L.cover_array.tolist()}
    if L.labels is not None:
        out["labels"] = list(L.labels)
    return out


def lattice_from_dict(d):
    _require(d, ("n", "covers"), "lattice")
    return build_lattice(d["covers"], d["n"], _labels(d))


def quantale_to_dict(Q, lneg=None, rneg=None):
    out = {"lattice": lattice_to_dict(Q.lattice), "mult": Q.mult.tolist()}
    for key, image in (("lneg", lneg), ("rneg", rneg)):
        if image is not None:
            out[key] = _index_array(image, key, (Q.n,), Q.n).tolist()
    return out


def quantale_from_dict(d):
    """Returns (lattice, mult, lneg, rneg); laws are not checked here."""
    _require(d, ("lattice", "mult"), "quantale")
    L = lattice_from_dict(d["lattice"])
    n = L.n
    mult = _parsed(_index_array, d["mult"], "multiplication table", (n, n), n)
    lneg, rneg = (_parsed(_index_array, d[key], key, (n,), n)
                  if key in d else None for key in ("lneg", "rneg"))
    return L, mult, lneg, rneg


def endomap_from_dict(d, L):
    _require(d, ("image",), "endomap")
    return _parsed(EndoMap, L, d["image"])


def endomap_to_dict(f):
    return {"image": f.image.tolist()}


def semigroup_from_dict(d):
    _require(d, ("n", "op"), "semigroup")
    n = d["n"]
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValidationFailed("semigroup size must be an integer")
    op = _parsed(_index_array, d["op"], "semigroup operation", (n, n), n)
    return FiniteSemigroup(n, op, _labels(d))


def relation_from_dict(d):
    _require(d, ("rel",), "relation")
    rows = d["rel"]
    if not isinstance(rows, list):
        raise ParseError("relation must be a list of rows")
    return _parsed(BinaryRelation, len(rows), rows)
