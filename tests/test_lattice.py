import itertools
from collections import Counter
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from finq.errors import (
    BudgetExceeded,
    CycleDetected,
    NotALattice,
    NotBounded,
    NotSupPreserving,
    ValidationFailed,
)
from finq.lattice import (
    EndoMap,
    FiniteLattice,
    LatticeMap,
    boolean,
    build_lattice,
    chain,
    enumerate_sup_endomaps,
    identity_map,
    is_distributive,
    is_meet_preserving,
    is_order_isomorphism,
    is_sup_preserving,
    join_of,
    left_adjoint,
    m_lattice,
    meet_of,
    n5,
    product,
    right_adjoint,
    standard_lattice,
)
from finq.lattice import _sup_endomap_images
from test_carriers import assert_same_lattice


def test_build_m3_from_covers(m3):
    L = build_lattice([(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)], 5)
    assert L == m3
    assert L.join(1, 2) == 4
    assert L.meet(1, 2) == 0
    assert L.bot == 0 and L.top == 4


def test_build_chain():
    L = build_lattice([(0, 1), (1, 2)], 3)
    assert L == chain(3)
    assert L.join(0, 2) == 2 and L.meet(1, 2) == 1


def test_build_n5(pentagon):
    assert pentagon.join(1, 2) == 4
    assert pentagon.meet(1, 3) == 0
    assert pentagon.join(2, 3) == 3
    assert pentagon.covers == [(0, 1), (0, 2), (1, 4), (2, 3), (3, 4)]


def test_build_lattice_errors():
    # CycleDetected names the least element on a cycle
    for covers, n, node in [
            ([(0, 1), (1, 0)], 2, 0),
            ([(0, 1), (2, 3), (3, 2)], 4, 2),
            ([(0, 1), (1, 1)], 2, 1),
            ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8),
              (8, 3), (8, 9)], 10, 3)]:
        with pytest.raises(CycleDetected) as err:
            build_lattice(covers, n)
        assert err.value.node == node
    with pytest.raises(NotBounded):
        build_lattice([], 2)
    with pytest.raises(ValidationFailed):
        build_lattice([(0, 7)], 3)
    # two minimal elements 0 and 1: no bottom
    with pytest.raises(NotBounded) as err:
        build_lattice([(0, 2), (0, 3), (1, 2), (1, 3)], 4)
    assert err.value.which == "bottom"
    # bounded, but 1 and 2 have the two minimal upper bounds 3 and 4
    with pytest.raises(NotALattice) as err:
        build_lattice([(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4),
                       (3, 5), (4, 5)], 6)
    assert (err.value.x, err.value.y, err.value.kind) == \
        (1, 2, "least upper bound")


def test_build_lattice_refuses_too_few_covers_first():
    """Every element but the bottom needs a pair entering it, so fewer than
    n - 1 pairs raise NotBounded before an n x n table is allocated; a
    cycle among them still names its least element."""
    with pytest.raises(NotBounded) as err:
        build_lattice([], 10 ** 30)
    assert err.value.which == "bottom"
    with pytest.raises(NotBounded):
        build_lattice([(3, 4)], 10 ** 6)
    with pytest.raises(CycleDetected) as err:
        build_lattice([(0, 1), (1, 0)], 5)
    assert err.value.node == 0


def test_map_repr_prints_plain_integers():
    assert repr(identity_map(chain(3))) == "EndoMap([0, 1, 2])"


def test_join_meet_of(m3):
    assert join_of(m3, [1, 2]) == 4
    assert meet_of(m3, [1, 2]) == 0
    assert join_of(chain(3), []) == 0
    assert meet_of(chain(3), []) == 2
    # bitmask argument: {1, 2} is mask 0b110
    assert join_of(m3, 0b110) == 4
    assert meet_of(m3, 0b110) == 0


def test_join_irreducibles():
    assert m_lattice(3).join_irreducibles == [1, 2, 3]
    assert n5().join_irreducibles == [1, 2, 3]
    assert chain(4).join_irreducibles == [1, 2, 3]
    assert boolean(3).join_irreducibles == [1, 2, 4]
    assert m_lattice(3).atoms == [1, 2, 3]


def test_distributivity():
    assert is_distributive(chain(4))
    assert is_distributive(boolean(3))
    assert not is_distributive(m_lattice(3))
    assert not is_distributive(n5())


def test_standard_lattice_parser(m3):
    assert standard_lattice("M(3)") == m3
    assert standard_lattice("chain(4)") == chain(4)
    assert standard_lattice("N5") == n5()
    assert standard_lattice("dual(chain(3))") == chain(3).dual()
    assert standard_lattice("product(chain(2),chain(2))") == \
        product(chain(2), chain(2))
    with pytest.raises(ValidationFailed):
        standard_lattice("hexagon(6)")


def test_dual_involution(small_lattices):
    for L in small_lattices:
        D = L.dual()
        assert D.dual() == L
        assert np.array_equal(D.dual().join_table, L.join_table)
        assert D.bot == L.top and D.top == L.bot
    # dual(chain) is the chain with reversed indices
    D = chain(3).dual()
    rev = [2, 1, 0]
    assert all(D.leq[x, y] == chain(3).leq[rev[x], rev[y]]
               for x in range(3) for y in range(3))


def test_dual_swaps_tables(m3):
    D = m3.dual()
    assert np.array_equal(D.join_table, m3.meet_table)
    assert np.array_equal(D.meet_table, m3.join_table)


def test_boolean_m2_square():
    # the 4-element square is M(2) up to isomorphism
    B, M = boolean(2), m_lattice(2)
    perm = (0, 1, 2, 3)
    relabel = {0: 0, 1: 1, 2: 2, 3: 3}
    found = False
    for perm in itertools.permutations(range(4)):
        if all(B.leq[x, y] == M.leq[perm[x], perm[y]]
               for x in range(4) for y in range(4)):
            found = True
            break
    assert found


def test_product_tables():
    P = product(chain(2), chain(3))
    assert P.n == 6
    assert P.bot == 0 and P.top == 5
    # (1,1) join (0,2) = (1,2)
    assert P.join(1 * 3 + 1, 0 * 3 + 2) == 1 * 3 + 2
    assert P.meet(1 * 3 + 1, 0 * 3 + 2) == 0 * 3 + 1
    assert FiniteLattice.from_leq(P.leq) == P


def test_from_leq_matches_tables(small_lattices):
    for L in small_lattices + [boolean(3), product(chain(2), m_lattice(3))]:
        ref = oracles.from_leq_bruteforce(L.leq)
        assert_same_lattice(L, ref)
        assert_same_lattice(FiniteLattice.from_leq(L.leq), ref)


def random_bounded_order(rng, size):
    """A bounded order on size >= 2 elements with scrambled labels: a
    bottom and a top around the transitive closure of a random DAG."""
    leq = np.eye(size, dtype=bool)
    leq[0, :] = leq[:, -1] = True
    density = rng.uniform(0.1, 0.7)
    leq[1:-1, 1:-1] |= np.triu(rng.random((size - 2, size - 2)) < density)
    for k in range(size):
        leq |= leq[:, k, None] & leq[k]
    perm = rng.permutation(size)
    return leq[np.ix_(perm, perm)]


def test_from_leq_witness_parity():
    """On random bounded orders, from_leq gives the oracle's tables, or
    raises NotALattice on the oracle's first pair and kind."""
    rng = np.random.default_rng(31)
    seen = Counter()
    for _ in range(1500):
        leq = random_bounded_order(rng, int(rng.integers(2, 13)))
        expected = oracles.from_leq_bruteforce(leq)
        if isinstance(expected, tuple):
            with pytest.raises(NotALattice) as err:
                FiniteLattice.from_leq(leq)
            assert (err.value.x, err.value.y, err.value.kind) == expected
            seen[expected[2]] += 1
            continue
        assert_same_lattice(FiniteLattice.from_leq(leq), expected)
        seen["lattice"] += 1
    # at least one order in eight is not a lattice
    assert seen["least upper bound"] + seen["greatest lower bound"] >= 180
    assert min(seen.values()) >= 60


def test_sup_meet_preserving_basic(m3):
    assert is_sup_preserving(identity_map(m3))
    assert is_meet_preserving(identity_map(m3))
    const_top = EndoMap(m3, [4] * 5)
    assert not is_sup_preserving(const_top)
    assert is_meet_preserving(const_top)
    const_bot = EndoMap(m3, [0] * 5)
    assert is_sup_preserving(const_bot)
    assert not is_meet_preserving(const_bot)


def test_preservation_against_subset_oracle(small_lattices):
    """Pairwise checks agree with the full 2^n subset definition."""
    rng = np.random.default_rng(7)
    for L in small_lattices:
        for img in oracles.random_images(rng, L.n, 60):
            f = EndoMap(L, img)
            assert is_sup_preserving(f) == \
                oracles.is_sup_preserving_bruteforce(L, tuple(img))
            assert is_meet_preserving(f) == \
                oracles.is_meet_preserving_bruteforce(L, tuple(img))


def test_enumerate_counts_frozen(m3):
    # counts pinned by the brute-force oracle over all n^n endofunctions
    assert len(enumerate_sup_endomaps(m3)) == 50
    assert len(enumerate_sup_endomaps(chain(2))) == 2
    assert len(enumerate_sup_endomaps(m_lattice(2))) == 16


def test_enumerate_matches_bruteforce(small_lattices):
    for L in small_lattices:
        got = [tuple(f.image) for f in enumerate_sup_endomaps(L)]
        expected = oracles.sup_endomaps_bruteforce(L)
        assert sorted(got) == sorted(expected)
        assert got == sorted(got)
        assert len(set(got)) == len(got)


# M(n): 1 + n + n(n+1) + sum over m of C(n,m) P(n,m), by the image of top:
# bot (the zero map); an atom c, with at most one atom sent to bot and the
# rest to c; top, with one atom sent to bot and the rest to top, or m atoms
# sent injectively to atoms and the rest to top
@pytest.mark.parametrize("lattice, count", [
    *[(chain(k), comb(2 * k - 2, k - 1)) for k in range(1, 9)],
    *[(boolean(k), 2 ** (k * k)) for k in range(4)],
    *[(m_lattice(n), c) for n, c in
      enumerate([2, 6, 16, 50, 234, 1582, 13376, 130986])],
], ids=[*[f"chain({k})" for k in range(1, 9)],
        *[f"boolean({k})" for k in range(4)],
        *[f"M({n})" for n in range(8)]])
def test_enumerate_counts_closed_form(lattice, count):
    imgs = _sup_endomap_images(lattice)
    assert len(imgs) == count
    assert len(np.unique(imgs, axis=0)) == count


@pytest.mark.parametrize("spec", ["M(4)", "N5", "boolean(3)", "dual(M(4))",
                                  "chain(5)", "product(chain(2),M(3))"])
def test_enumerate_sorts_relabelled_lattices(spec):
    """On M_n the branching order already yields sorted rows; under a
    seeded relabelling the rows must still come out int64, strictly
    lexsorted, and equal to the relabelled image set."""
    L = standard_lattice(spec)
    rng = np.random.default_rng(sum(map(ord, spec)))
    new = rng.permutation(L.n)
    old = np.argsort(new)
    P = FiniteLattice.from_leq(L.leq[np.ix_(old, old)])
    got = _sup_endomap_images(P)
    assert got.dtype == np.int64 and got.shape[1] == L.n
    rows = [tuple(r) for r in got.tolist()]
    assert all(a < b for a, b in zip(rows, rows[1:]))
    expected = np.unique(new[_sup_endomap_images(L)][:, old], axis=0)
    assert np.array_equal(got, expected)


def test_enumerate_budget(m3):
    with pytest.raises(BudgetExceeded):
        enumerate_sup_endomaps(m3, max_candidates=10)


def test_right_adjoint_values(m3):
    # right adjoint of (c_a on M(3)): y maps to top if a <= y else bot
    c_a = EndoMap(m3, [0, 1, 1, 1, 1])
    alpha = right_adjoint(c_a)
    assert list(alpha.image) == [0, 4, 0, 0, 4]
    assert right_adjoint(identity_map(chain(3))) == identity_map(chain(3))


def test_right_adjoint_not_sup_preserving(m3):
    with pytest.raises(NotSupPreserving):
        right_adjoint(EndoMap(m3, [4] * 5))


def test_adjunction_law(small_lattices):
    """f(x) <= y iff x <= rho(f)(y), exhaustively on small lattices."""
    for L in small_lattices:
        for f in enumerate_sup_endomaps(L):
            g = right_adjoint(f)
            for x in range(L.n):
                for y in range(L.n):
                    assert L.leq[f(x), y] == L.leq[x, g(y)]
            assert left_adjoint(g) == f


def test_adjoint_bruteforce_agreement(m3):
    for f in enumerate_sup_endomaps(m3):
        assert tuple(right_adjoint(f).image) == \
            oracles.right_adjoint_bruteforce(m3, tuple(f.image))


def test_galois_composite_is_closure(small_lattices):
    for L in small_lattices:
        for f in enumerate_sup_endomaps(L):
            c = right_adjoint(f).compose(f)
            assert c.is_monotone()
            assert all(L.leq[x, c(x)] for x in range(L.n))
            assert c.compose(c) == c


def test_cross_lattice_adjoint():
    # endpoint-preserving refinement of a chain
    eps = LatticeMap(chain(2), chain(3), [0, 2])
    rho = right_adjoint(eps)
    assert list(rho.image) == [0, 0, 1]
    lam = left_adjoint(eps)
    assert list(lam.image) == [0, 1, 1]


def test_order_isomorphisms(m3):
    assert is_order_isomorphism(identity_map(m3))
    swap = EndoMap(m3, [0, 2, 1, 3, 4])
    assert is_order_isomorphism(swap)
    assert not is_order_isomorphism(EndoMap(m3, [0, 1, 1, 3, 4]))
    isos = [f for f in enumerate_sup_endomaps(m3) if is_order_isomorphism(f)]
    assert len(isos) == len(oracles.order_isos_bruteforce(m3)) == 6


def test_endomap_equality_and_compose(m3):
    f = EndoMap(m3, [0, 1, 1, 1, 4])
    g = EndoMap(m3, [0, 2, 2, 2, 4])
    assert f != g
    assert f.compose(g) == EndoMap(m3, [0, 1, 1, 1, 4])
    assert g.compose(f) == EndoMap(m3, [0, 2, 2, 2, 4])
    assert hash(f) != hash(g)
    with pytest.raises(ValidationFailed):
        EndoMap(m3, [0, 1, 2])
    with pytest.raises(ValidationFailed):
        EndoMap(m3, [0, 1, 2, 3, 9])


@pytest.mark.parametrize("image", [
    [0, 1.9], np.array([0.0, 1.0]), [False, True],
    np.array([0, 1], dtype=object), [[0], [1, 1]],
])
def test_maps_reject_non_integer_images(image):
    """A float, bool or object image or ragged input is rejected, not
    truncated to an integer image."""
    with pytest.raises(ValidationFailed):
        EndoMap(chain(2), image)
    with pytest.raises(ValidationFailed):
        LatticeMap(chain(2), chain(3), image)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_join_meet_laws(data):
    L = data.draw(st.sampled_from(
        [chain(4), boolean(2), m_lattice(3), n5()]))
    x = data.draw(st.integers(0, L.n - 1))
    y = data.draw(st.integers(0, L.n - 1))
    z = data.draw(st.integers(0, L.n - 1))
    assert L.join(x, y) == L.join(y, x)
    assert L.meet(x, L.join(x, y)) == x
    assert L.join(x, L.meet(x, y)) == x
    assert L.join(L.join(x, y), z) == L.join(x, L.join(y, z))
    assert L.leq[L.meet(x, y), x] and L.leq[x, L.join(x, y)]
