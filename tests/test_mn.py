import itertools

import numpy as np
import pytest

import oracles
from finq.diamonds import (
    ClosureReport,
    MnTightReport,
    check_negation_formulas,
    closures_vs_sublattices,
    count_tight_mn,
    f_gen,
    pentagon_diamond_check,
    positivity_suite_mn,
    sup_endomap_images_mn,
    tight_count_formula,
    tight_images_mn,
    tight_profile_mn,
)
from finq.errors import (
    BudgetExceeded,
    NotDistinctAtoms,
    NotSupPreserving,
    ValidationFailed,
)
from finq.lattice import (
    EndoMap,
    boolean,
    chain,
    enumerate_sup_endomaps,
    identity_map,
    is_distributive,
    is_sup_preserving,
    m_lattice,
    n5,
)
from finq.lattice import FiniteLattice
from finq.raney import c_map, is_tight, tight_quantale


def test_formula_values_frozen():
    assert [tight_count_formula(n) for n in range(7)] == \
        [2, 6, 16, 44, 114, 262, 536]


def test_sup_enumeration_matches_generic():
    for n in range(5):
        L = m_lattice(n)
        generic = np.asarray([m.image for m in enumerate_sup_endomaps(L)])
        assert np.array_equal(sup_endomap_images_mn(n), generic)


def test_tight_images_match_bruteforce_m3():
    L = m_lattice(3)
    expected = [tuple(f) for f in oracles.tight_endomaps_bruteforce(L)]
    got = [tuple(int(v) for v in row) for row in tight_images_mn(3)]
    assert sorted(got) == sorted(expected)


def test_count_tight_small():
    for n, classes in [
        (0, {"constants": 2, "c_compose_a": 0, "c_join_a": 0,
             "f_generators": 0, "others": 0}),
        (1, {"constants": 2, "c_compose_a": 3, "c_join_a": 1,
             "f_generators": 0, "others": 0}),
        (2, {"constants": 2, "c_compose_a": 8, "c_join_a": 4,
             "f_generators": 2, "others": 0}),
        (3, {"constants": 2, "c_compose_a": 15, "c_join_a": 9,
             "f_generators": 18, "others": 0}),
        (4, {"constants": 2, "c_compose_a": 24, "c_join_a": 16,
             "f_generators": 72, "others": 0}),
    ]:
        report = count_tight_mn(n)
        assert report.counted == report.formula_value
        assert report.by_class == classes
        assert sum(classes.values()) == report.counted


def test_count_class_sizes_follow_closed_forms():
    for n in range(2, 6):
        report = count_tight_mn(n)
        assert report.by_class["constants"] == 2
        assert report.by_class["c_compose_a"] == n * n + 2 * n
        assert report.by_class["c_join_a"] == n * n
        assert report.by_class["f_generators"] == \
            n * n * (n - 1) * (n - 1) // 2
        assert report.by_class["others"] == 0


def test_count_m7_reaches_the_closed_form():
    assert count_tight_mn(7, max_atoms=7).counted == 996


def test_count_without_enumeration():
    report = count_tight_mn(9, enumerate=False)
    assert report == MnTightReport(9, None, tight_count_formula(9), None)


def test_count_budget():
    with pytest.raises(BudgetExceeded):
        count_tight_mn(7)


def test_m2_all_sup_maps_are_tight():
    assert count_tight_mn(2).counted == len(sup_endomap_images_mn(2)) == 16


def test_tight_profile():
    n = 4
    L = m_lattice(n)
    three_atoms = EndoMap(L, [0, 1, 2, 3, 5, 5])
    profile = tight_profile_mn(n, three_atoms)
    assert profile == {"tight": False, "image_distributive": False,
                       "atoms_in_image": 3}
    generator = c_map(L, 2).compose(
        EndoMap(L, np.where(L.leq[:, 1], L.bot, L.top)))
    profile = tight_profile_mn(n, generator)
    assert profile["tight"] and profile["atoms_in_image"] == 1
    swap = tight_profile_mn(3, EndoMap(m_lattice(3), [0, 2, 1, 3, 4]))
    assert swap == {"tight": False, "image_distributive": False,
                    "atoms_in_image": 3}
    with pytest.raises(NotSupPreserving):
        tight_profile_mn(3, EndoMap(m_lattice(3), [1, 1, 2, 3, 4]))


def test_tight_profile_agrees_everywhere():
    for n in range(2, 6):
        L = m_lattice(n)
        tight = {row.tobytes() for row in tight_images_mn(n)}
        for row in sup_endomap_images_mn(n):
            profile = tight_profile_mn(n, row)
            assert profile["tight"] == (row.tobytes() in tight)


def test_f_gen_values_and_errors():
    f = f_gen(3, 1, 2, 2, 3)
    assert list(f.image) == [0, 2, 3, 4, 4]
    with pytest.raises(NotDistinctAtoms):
        f_gen(3, 1, 2, 1, 3)
    with pytest.raises(NotDistinctAtoms):
        f_gen(3, 1, 2, 2, 2)
    with pytest.raises(NotDistinctAtoms):
        f_gen(3, 0, 2, 2, 3)
    with pytest.raises(NotDistinctAtoms):
        f_gen(3, 1, 4, 2, 3)


def test_f_gen_is_tight_with_four_element_image():
    for x1, x2 in itertools.permutations(range(1, 4), 2):
        for y1, y2 in itertools.permutations(range(1, 4), 2):
            f = f_gen(3, x1, y1, x2, y2)
            assert is_tight(f)
            assert len(set(f.image.tolist())) == 4


def test_negation_formulas():
    for n in (3, 4):
        report = check_negation_formulas(n)
        assert bool(report)
        assert report.witnesses == {}


def test_negation_formula_spot_check():
    # star(c_b o a_a) computed directly equals c_a v a_b
    L = m_lattice(3)
    a, b = 1, 2
    from finq.raney import a_map, star
    lhs = star(c_map(L, b).compose(a_map(L, a)))
    rhs = L.join_table[c_map(L, a).image, a_map(L, b).image]
    assert list(lhs.image) == list(rhs)


def test_pentagon_diamond():
    assert pentagon_diamond_check(m_lattice(3))
    assert pentagon_diamond_check(n5())
    with pytest.raises(ValidationFailed):
        pentagon_diamond_check(boolean(2))


def test_iso_counts_against_bruteforce():
    assert len(oracles.order_isos_bruteforce(m_lattice(3))) == 6
    assert len(oracles.order_isos_bruteforce(n5())) == 1


def test_m4_breaks_the_pentagon_diamond_identity():
    """A non-injective sup map hitting three atoms is neither tight nor an
    order isomorphism, so tight != sup minus isos on M_4."""
    L = m_lattice(4)
    f = EndoMap(L, [0, 1, 2, 3, 5, 5])
    assert is_sup_preserving(f)
    assert len(set(f.image.tolist())) < L.n
    assert not is_tight(f)
    from finq.lattice import is_order_isomorphism
    assert not is_order_isomorphism(f)


def test_positivity_suite():
    for n in (3, 4):
        report = positivity_suite_mn(n)
        assert bool(report), report.witnesses
        assert report.flags == {"residual_squares_positive": True,
                                "residuals_above_identity": True,
                                "bottom_not_positive": True}


def test_positivity_budget():
    with pytest.raises(BudgetExceeded):
        positivity_suite_mn(8)


def test_closures_vs_sublattices_m3():
    report = closures_vs_sublattices(3)
    assert bool(report), report.witnesses
    assert report.closure_count == report.sublattice_count == 8
    assert report.family == ((0, 1, 2, 4), (0, 1, 3, 4))
    assert report.flags["pointwise_meet_is_identity"]
    assert report.flags["tight_meet_is_bottom"]


def test_closures_vs_sublattices_m4():
    report = closures_vs_sublattices(4)
    assert bool(report)
    assert report.closure_count == 16
    assert len(report.family) == 2


def test_closures_n2_has_no_collapse_section():
    report = closures_vs_sublattices(2)
    assert bool(report)
    assert report.closure_count == 4
    assert report.family == ()
    assert "tight_meet_is_bottom" not in report.flags


def test_closure_operators_match_bruteforce():
    for n in (2, 3):
        L = m_lattice(n)
        expected = sorted(oracles.closure_operators_bruteforce(L))
        report = closures_vs_sublattices(n)
        assert report.closure_count == len(expected)


def test_sublattices_match_bruteforce():
    L = m_lattice(3)
    assert sorted(oracles.sublattices_bruteforce(L)) == \
        sorted(tuple(sorted((0, 4) + s))
               for r in range(4)
               for s in itertools.combinations((1, 2, 3), r))


def test_single_atom_closure_is_tight():
    L = m_lattice(3)
    j = EndoMap(L, [0, 1, 4, 4, 4])
    assert is_tight(j)
    members = sorted(set(j.image.tolist()) | {0})
    sub = FiniteLattice.from_leq(L.leq[np.ix_(members, members)])
    assert is_distributive(sub)
    assert not is_tight(identity_map(L))


def test_image_distributive_implies_tight_generally():
    """On arbitrary small lattices a sup-preserving map with distributive
    image is tight; the converse is specific to M_n."""
    for L in [n5(), m_lattice(3), boolean(3), chain(4)]:
        for f in enumerate_sup_endomaps(L):
            members = sorted(set(f.image.tolist()))
            sub = FiniteLattice.from_leq(L.leq[np.ix_(members, members)])
            if is_distributive(sub):
                assert is_tight(f)


def test_tight_lattice_meet_is_interior_of_pointwise_meet():
    L = m_lattice(3)
    T = tight_quantale(L)
    imgs = [f.image for f in T.elements]
    from finq.raney import tight_interior
    for i in range(T.n):
        for j in range(T.n):
            pw = EndoMap(L, L.meet_table[imgs[i], imgs[j]])
            assert T.quantale.lattice.meet_table[i, j] == \
                T.index_of(tight_interior(pw))
