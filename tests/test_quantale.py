import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from finq.errors import (
    BottomNotAbsorbed,
    CoincidenceFailed,
    NotADuality,
    NotAssociative,
    NotDistributive,
    NotDualizing,
    NotInjective,
    ValidationFailed,
)
from finq.lattice import (
    EndoMap,
    LatticeMap,
    boolean,
    chain,
    identity_map,
    m_lattice,
)
from finq.quantale import (
    FrobeniusStructure,
    Quantale,
    check_frobenius,
    check_quantale,
    check_strongly_continuous,
    chu,
    dual_mult,
    dual_mult_table,
    element_flags,
    find_unit,
    frobenius_from_dualizing,
    is_positive_element,
    is_positive_quantale,
    residual_left,
    residual_right,
    trivial_quantale,
)


def counterexample_3chain():
    """The commutative quantale on the 3-chain with 2*2 = 1, rest 0."""
    mult = np.zeros((3, 3), dtype=np.int64)
    mult[2, 2] = 1
    return check_quantale(chain(3), mult)


def and_quantale(L):
    """Meet as multiplication; unital with unit top."""
    return check_quantale(L, L.meet_table)


def quantale_battery():
    return [
        trivial_quantale(chain(2)),
        trivial_quantale(m_lattice(3)),
        counterexample_3chain(),
        and_quantale(chain(2)),
        and_quantale(chain(3)),
        and_quantale(boolean(2)),
    ]


def test_check_quantale_accepts_counterexample():
    Q = counterexample_3chain()
    assert Q.mult_of(2, 2) == 1
    assert Q.mult_of(2, 1) == 0


def test_check_quantale_distributivity_witness():
    # 1*1 = 2, rest 0: associative, but 1*(1 v 2) = 0 while (1*1) v (1*2) = 2
    mult = np.zeros((3, 3), dtype=np.int64)
    mult[1, 1] = 2
    with pytest.raises(NotDistributive) as exc:
        check_quantale(chain(3), mult)
    e = exc.value
    assert (e.side, e.x, e.y, e.z) == ("left", 1, 1, 2)


def test_check_quantale_associativity_witness():
    L = chain(3)
    mult = np.zeros((3, 3), dtype=np.int64)
    mult[1, 1] = 2
    mult[2, 1] = 1
    mult[2, 2] = 2
    with pytest.raises(NotAssociative) as exc:
        check_quantale(L, mult)
    e = exc.value
    assert (e.x, e.y, e.z) == (1, 1, 1)
    assert mult[mult[e.x, e.y], e.z] != mult[e.x, mult[e.y, e.z]]


def test_check_quantale_bottom_witness():
    L = chain(2)
    mult = np.array([[0, 1], [1, 1]], dtype=np.int64)
    with pytest.raises((BottomNotAbsorbed, NotDistributive)):
        check_quantale(L, mult)


@pytest.mark.parametrize("mult", [
    [[0, 0], [0, 1.7]],
    np.array([[0, 0], [0, 1.0]]),
    [[False, False], [False, True]],
    np.array([[0, 0], [0, 1]], dtype=object),
    [[0, 0], [0]],
])
def test_quantale_rejects_non_integer_tables(mult):
    """A float, bool or object table or ragged rows are rejected, not
    truncated to an integer table."""
    for make in (check_quantale, Quantale):
        with pytest.raises(ValidationFailed):
            make(chain(2), mult)


def test_check_frobenius_rejects_non_integer_maps():
    Q = check_quantale(chain(2), chain(2).meet_table)
    for bad in ([1, 0.2], [True, False], [[1], []]):
        with pytest.raises(ValidationFailed):
            check_frobenius(Q, bad, [1, 0])
        with pytest.raises(ValidationFailed):
            check_frobenius(Q, [1, 0], bad)


def test_residuals_trivial_all_top():
    Q = trivial_quantale(m_lattice(3))
    assert (Q.left_residual_table == 4).all()
    assert (Q.right_residual_table == 4).all()


def test_residual_tables_are_read_only():
    Q = counterexample_3chain()
    for table in (Q.left_residual_table, Q.right_residual_table):
        with pytest.raises(ValueError):
            table[0, 0] = 0


def test_residuals_counterexample_frozen():
    Q = counterexample_3chain()
    # x\0 values: r(0) = r(1) = 2 and r(2) = 1
    assert [residual_left(Q, x, 0) for x in range(3)] == [2, 2, 1]
    assert residual_left(Q, 0, 0) == 2
    assert residual_left(Q, 2, 0) == 1


def test_residuals_against_bruteforce():
    for Q in quantale_battery():
        n = Q.n
        for x in range(n):
            for z in range(n):
                assert residual_left(Q, x, z) == \
                    oracles.residual_left_bruteforce(Q, x, z)
                assert residual_right(Q, x, z) == \
                    oracles.residual_right_bruteforce(Q, x, z)


def test_residuation_equivalence_exhaustive():
    """x*y <= z iff y <= x\\z iff x <= z/y on every battery quantale."""
    for Q in quantale_battery():
        leq = Q.lattice.leq
        for x, y, z in itertools.product(range(Q.n), repeat=3):
            a = leq[Q.mult[x, y], z]
            b = leq[y, Q.left_residual_table[x, z]]
            c = leq[x, Q.right_residual_table[z, y]]
            assert a == b == c


def test_element_flags_counterexample():
    Q = counterexample_3chain()
    flags = element_flags(Q, 0)
    assert flags["weakly_cyclic"]
    assert flags["cyclic"]
    assert not flags["dualizing"]


def test_element_flags_trivial():
    Q = trivial_quantale(chain(2))
    flags = element_flags(Q, 0)
    assert flags["cyclic"]
    assert not flags["dualizing"]


def test_element_flags_chu_unit_negation():
    Q = and_quantale(chain(2))
    CQ, F = chu(Q)
    unit = find_unit(CQ).unit
    assert unit is not None
    zero = F.rneg(unit)
    assert element_flags(CQ, zero)["dualizing"]


def test_frobenius_from_dualizing_on_chu():
    CQ, F = chu(and_quantale(chain(2)))
    zero = F.rneg(find_unit(CQ).unit)
    G = frobenius_from_dualizing(CQ, zero)
    assert G.girard
    assert G.lneg == F.lneg and G.rneg == F.rneg


def test_frobenius_from_dualizing_errors():
    with pytest.raises(NotDualizing):
        frobenius_from_dualizing(trivial_quantale(chain(2)), 0)
    # Heyting but not boolean: bottom is not dualizing in the 3-chain
    with pytest.raises(NotDualizing):
        frobenius_from_dualizing(and_quantale(chain(3)), 0)


def test_boolean_and_quantale_is_girard():
    Q = and_quantale(boolean(2))
    F = frobenius_from_dualizing(Q, 0)
    assert F.girard
    # complement map
    assert list(F.lneg.image) == [3, 2, 1, 0]


def atom_cycle_duality():
    L = m_lattice(3)
    r = [4, 2, 3, 1, 0]
    l = [4, 3, 1, 2, 0]
    return L, l, r


def test_trivial_quantale_with_duality():
    F = trivial_quantale(chain(2), duality=([1, 0], [1, 0]))
    assert F.girard
    assert F.report.frobenius_valid and F.report.shift_holds

    L, l, r = atom_cycle_duality()
    F = trivial_quantale(L, duality=(l, r))
    assert not F.girard
    assert F.report.frobenius_valid
    assert not F.report.images_coincide or F.report.commutes


def test_trivial_quantale_duality_errors():
    with pytest.raises(NotADuality):
        trivial_quantale(chain(2), duality=([0, 0], [0, 0]))
    with pytest.raises(NotADuality):
        trivial_quantale(chain(2), duality=([0, 1], [0, 1]))
    L, l, r = atom_cycle_duality()
    with pytest.raises(NotADuality):
        trivial_quantale(L, duality=(l, l))


def test_trivial_singleton_unital():
    Q = trivial_quantale(chain(1))
    assert find_unit(Q).unit == 0


def test_check_frobenius_identity_pair_not_galois():
    """On the trivial 2-chain the identity pair satisfies the shift relation
    vacuously but is not antitone, and the constant-bottom pair is antitone
    but not a Galois connection."""
    Q = trivial_quantale(chain(2))
    rep = check_frobenius(Q, [0, 1], [0, 1])
    assert rep.shift_holds
    assert not rep.antitone
    rep = check_frobenius(Q, [0, 0], [0, 0])
    assert rep.antitone
    assert rep.shift_holds
    assert not rep.is_galois
    assert rep.witnesses["is_galois"] == (0, 1)


def test_check_frobenius_atom_cycle():
    L, l, r = atom_cycle_duality()
    Q = trivial_quantale(L)
    rep = check_frobenius(Q, l, r)
    assert rep.frobenius_valid
    assert rep.serre_gc_valid
    assert not rep.girard
    assert rep.images_coincide


def test_serre_identities_on_valid_structures():
    """x\\y = rneg(x)/rneg(y), x/y = lneg(x)\\lneg(y), lneg(x)\\y = x/rneg(y)
    for every validated Frobenius structure."""
    L, l3, r3 = atom_cycle_duality()
    structures = [
        trivial_quantale(chain(2), duality=([1, 0], [1, 0])),
        trivial_quantale(L, duality=(l3, r3)),
        chu(and_quantale(chain(2)))[1],
        chu(counterexample_3chain())[1],
    ]
    for F in structures:
        Q = F.quantale
        l, r = F.lneg.image, F.rneg.image
        lres, rres = Q.left_residual_table, Q.right_residual_table
        assert np.array_equal(lres, rres[np.ix_(r, r)])
        assert np.array_equal(rres, lres[np.ix_(l, l)])
        assert np.array_equal(lres[l, :], rres[:, r])


def test_dual_mult_girard_collapse():
    CQ, F = chu(and_quantale(chain(2)))
    table = dual_mult_table(F)
    l = F.lneg.image
    # De Morgan dual computed independently
    expected = l[CQ.mult[np.ix_(l, l)]].T
    assert np.array_equal(table, expected)
    assert dual_mult(F, 0, 3) == table[0, 3]


def test_dual_mult_coincidence_failure():
    Q = trivial_quantale(chain(2))
    F = FrobeniusStructure(Q, EndoMap(Q.lattice, [0, 1]),
                           EndoMap(Q.lattice, [0, 1]))
    with pytest.raises(CoincidenceFailed):
        dual_mult_table(F)


def test_find_unit():
    assert find_unit(and_quantale(chain(3))).unit == 2
    assert find_unit(and_quantale(boolean(2))).unit == 3
    assert find_unit(trivial_quantale(chain(2))).unit is None
    assert find_unit(counterexample_3chain()).unit is None


def test_find_unit_candidate_always_shrinks():
    for Q in quantale_battery():
        rep = find_unit(Q)
        assert rep.xu_below_x and rep.ux_below_x
        if rep.unit is not None:
            assert rep.candidate == rep.unit


def test_positivity():
    Q = and_quantale(chain(3))
    assert is_positive_element(Q, 2)
    assert not is_positive_element(Q, 0)
    assert is_positive_quantale(Q)
    for Q in quantale_battery():
        if Q.n > 1:
            assert not is_positive_element(Q, Q.lattice.bot)


def test_chu_girard_and_units():
    """C(Q) is a Girard quantale and is unital exactly when Q is."""
    for Q in quantale_battery():
        CQ, F = chu(Q)
        assert CQ.n == Q.n * Q.n
        assert F.report.frobenius_valid and F.report.shift_holds
        assert F.girard
        base_unit = find_unit(Q).unit
        chu_unit = find_unit(CQ).unit
        assert (base_unit is None) == (chu_unit is None)
        if base_unit is not None:
            assert chu_unit == base_unit * Q.n + Q.lattice.top


def test_chu_residual_formulas_match_generic():
    """The residual tables of chu(Q), validated or not, equal the closed
    form of the oracle. Validated, chu returns check_quantale's Quantale,
    which already holds them; unvalidated, they are folded on first use."""
    for Q in quantale_battery():
        left, right = oracles.chu_residuals(Q)
        for validate in (True, False):
            CQ, _ = chu(Q, validate=validate)
            assert ("left_residual_table" in vars(CQ)) == validate
            assert np.array_equal(CQ.left_residual_table, left)
            assert np.array_equal(CQ.right_residual_table, right)


def test_chu_mult_formula_spot():
    Q = counterexample_3chain()
    CQ, _ = chu(Q)
    n = 3
    lres, rres = Q.left_residual_table, Q.right_residual_table
    for x1, x2, y1, y2 in itertools.product(range(n), repeat=4):
        got = CQ.mult[x1 * n + x2, y1 * n + y2]
        first = Q.mult[x1, y1]
        second = Q.lattice.meet_table[lres[y1, x2], rres[y2, x1]]
        assert got == first * n + second


def test_strongly_continuous_identity():
    Q = and_quantale(chain(3))
    rep = check_strongly_continuous(Q, Q, identity_map(Q.lattice))
    assert bool(rep)


def test_strongly_continuous_not_injective():
    Q = and_quantale(chain(2))
    Q3 = and_quantale(chain(3))
    with pytest.raises(NotInjective):
        check_strongly_continuous(Q3, Q3,
                                  LatticeMap(chain(3), chain(3), [0, 0, 2]))
    assert not check_strongly_continuous(
        Q, Q3, LatticeMap(chain(2), chain(3), [0, 1]))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_property_residuation(data):
    Q = data.draw(st.sampled_from(quantale_battery()))
    x = data.draw(st.integers(0, Q.n - 1))
    y = data.draw(st.integers(0, Q.n - 1))
    z = data.draw(st.integers(0, Q.n - 1))
    leq = Q.lattice.leq
    assert leq[Q.mult[x, y], z] == leq[y, Q.left_residual_table[x, z]]
    assert leq[Q.mult[x, y], z] == leq[x, Q.right_residual_table[z, y]]
