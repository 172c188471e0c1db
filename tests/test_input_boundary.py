"""Every entry point that takes an index table, a map image or a relation
from its caller rejects malformed input with ValidationFailed, through the
one boundary in finq.lattice, instead of truncating or reinterpreting it.
"""

import copy

import pytest

from finq.diamonds import f_gen, tight_profile_mn
from finq.errors import ValidationFailed
from finq.formats import quantale_to_dict
from finq.lattice import EndoMap, FiniteLattice, LatticeMap, chain, \
    join_of, m_lattice, meet_of
from finq.nuclei import (
    BinaryRelation,
    FiniteSemigroup,
    Nucleus,
    is_nucleus,
    quotient_quantale,
)
from finq.quantale import (
    Quantale,
    check_frobenius,
    check_quantale,
    dual_mult,
    element_flags,
    frobenius_from_dualizing,
    is_positive_element,
    residual_left,
    residual_right,
    trivial_quantale,
)
from finq.raney import a_map, c_map, tensor_map, tight_quantale

KINDS = ["float-entry", "bool-in-list", "all-bool", "ragged-row",
         "wrong-shape", "out-of-range"]


def _entry_points():
    """name -> (a valid input, the bound of its entries, the call)."""
    two = chain(2)
    Q = check_quantale(two, two.meet_table)
    T = tight_quantale(two)
    return {
        "FiniteLattice-order": (
            [[True, True], [False, True]], 2,
            lambda t: FiniteLattice(2, t, two.join_table, two.meet_table,
                                    0, 1)),
        "FiniteLattice-join": (
            [[0, 1], [1, 1]], 2,
            lambda t: FiniteLattice(2, two.leq, t, two.meet_table, 0, 1)),
        "LatticeMap": ([0, 2], 3, lambda t: LatticeMap(two, chain(3), t)),
        "EndoMap": ([0, 1], 2, lambda t: EndoMap(two, t)),
        "Quantale": ([[0, 0], [0, 1]], 2, lambda t: Quantale(two, t)),
        "check_quantale": ([[0, 0], [0, 1]], 2,
                           lambda t: check_quantale(two, t)),
        "check_frobenius": ([1, 0], 2,
                            lambda t: check_frobenius(Q, t, [1, 0])),
        "trivial_quantale": ([1, 0], 2,
                             lambda t: trivial_quantale(two, (t, [1, 0]))),
        "TightQuantale.index_of": ([0, 1], 2, T.index_of),
        "quantale_to_dict": ([1, 0], 2, lambda t: quantale_to_dict(Q, t)),
        "tight_profile_mn": ([0, 1, 2, 3], 4,
                             lambda t: tight_profile_mn(2, t)),
        "Nucleus": ([0, 1], 2, lambda t: Nucleus(Q, t)),
        "is_nucleus": ([0, 1], 2, lambda t: is_nucleus(Q, t)),
        "quotient_quantale": ([0, 1], 2, lambda t: quotient_quantale(Q, t)),
        "FiniteSemigroup": ([[0, 1], [1, 0]], 2,
                            lambda t: FiniteSemigroup(2, t)),
        "BinaryRelation": ([[True, False], [False, True]], 2,
                           lambda t: BinaryRelation(2, t)),
    }


def _flip(v):
    """The entry as the other kind: an integer as a bool, a bool as 0/1."""
    return int(v) if isinstance(v, bool) else bool(v)


def malformed(good, kind, upper):
    """The valid nested list good with one defect in its last entry or
    row. In a boolean table (an order or a relation) the roles of integers
    and bools swap: an integer is the foreign entry there."""
    bad = copy.deepcopy(good)
    nested = isinstance(bad[0], list)
    row = bad[-1] if nested else bad
    if kind == "float-entry":
        row[-1] = 0.5 if isinstance(row[-1], bool) else row[-1] + 0.5
    elif kind == "bool-in-list":
        row[-1] = _flip(row[-1])
    elif kind == "all-bool":
        bad = [[_flip(v) for v in r] for r in bad] if nested else \
            [_flip(v) for v in bad]
    elif kind == "ragged-row":
        bad[-1] = row[:-1] if nested else [row[-1], row[-1]]
    elif kind == "wrong-shape":
        bad = bad[:-1]
    else:
        row[-1] = upper
    return bad


ENTRY_POINTS = _entry_points()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_entry_point_rejects_malformed_input(name, kind):
    """A float is not truncated, a bool is not read as 0 or 1 (nor an
    integer as a bool), and ragged rows, a wrong shape or an entry out of
    range are refused. is_nucleus reports the last two as its "shape"
    law."""
    good, upper, call = ENTRY_POINTS[name]
    call(good)
    bad = malformed(good, kind, upper)
    if name == "is_nucleus" and kind in ("wrong-shape", "out-of-range"):
        assert call(bad).law == "shape"
        return
    with pytest.raises(ValidationFailed):
        call(bad)


_CHAIN2 = check_quantale(chain(2), chain(2).meet_table)
_CHAIN2_F = frobenius_from_dualizing(_CHAIN2, 0)


@pytest.mark.parametrize("call", [
    lambda: c_map(chain(2), 1.5),
    lambda: a_map(m_lattice(3), True),
    lambda: tensor_map(m_lattice(3), 1.5, 2),
    lambda: f_gen(3, True, 2, 2, 1),
    lambda: FiniteLattice(2, chain(2).leq, chain(2).join_table,
                          chain(2).meet_table, 0.7, 1),
    lambda: join_of(m_lattice(3), [1.5]),
    lambda: join_of(m_lattice(3), [True]),
    lambda: join_of(m_lattice(3), 1 << 5),
    lambda: join_of(m_lattice(3), -1),
    lambda: meet_of(m_lattice(3), [7]),
    lambda: meet_of(m_lattice(3), [-1]),
    lambda: is_positive_element(_CHAIN2, 1.5),
    lambda: element_flags(_CHAIN2, -1),
    lambda: frobenius_from_dualizing(_CHAIN2, -1),
    lambda: residual_left(_CHAIN2, -1, 0),
    lambda: residual_right(_CHAIN2, 0, 2),
    lambda: dual_mult(_CHAIN2_F, 0, -1),
], ids=["c_map", "a_map", "tensor_map", "f_gen", "FiniteLattice-bottom",
        "join_of-float", "join_of-bool", "join_of-bitmask-too-large",
        "join_of-bitmask-negative", "meet_of-out-of-range",
        "meet_of-negative", "is_positive_element", "element_flags",
        "frobenius_from_dualizing", "residual_left", "residual_right",
        "dual_mult"])
def test_element_arguments_reject_non_integers(call):
    """An element passed as a number goes through the same check: 1.5 is
    not read as 1, nor True as 1, and an index outside 0..n-1 (-1 too) or
    a bitmask outside 0..2^n-1 is refused rather than wrapped."""
    with pytest.raises(ValidationFailed):
        call()
