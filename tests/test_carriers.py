"""The carriers, whose tables FiniteLattice.from_leq derives from their
order, against the brute-force lattice of the same order.

tight_quantale and bullet_quantale order their enumerated maps pointwise,
quotient_quantale restricts the ambient order to the closed elements, and
m_lattice writes its order directly; each then hands its order to from_leq.
oracles.from_leq_bruteforce finds every join and meet by looking up the set
of common bounds among the upsets and downsets, and the two must agree
everywhere. The batched meet closure and the sorted row index, which the
carriers use for their products, are compared with brute-force lookups.
"""
import numpy as np
import pytest

import oracles
from finq.errors import InvariantViolated, ValidationFailed
from finq.lattice import (
    EndoMap,
    chain,
    m_lattice,
    n5,
    product,
)
from finq.raney import (
    _meet_closure_batch,
    _RowIndex,
    bullet_quantale,
    meet_closure,
    tight_quantale,
)


@pytest.fixture(scope="module")
def carrier_lattices(small_lattices):
    return small_lattices + [m_lattice(4), m_lattice(3).dual(), n5(),
                             product(chain(2), chain(3))]


@pytest.fixture(scope="module")
def bullets(carrier_lattices):
    return [bullet_quantale(L) for L in carrier_lattices]


def assert_same_lattice(lat, ref):
    assert lat.n == ref.n
    assert np.array_equal(lat.leq, ref.leq)
    assert np.array_equal(lat.join_table, ref.join_table)
    assert np.array_equal(lat.meet_table, ref.meet_table)
    assert (lat.bot, lat.top) == (ref.bot, ref.top)


def test_tight_carrier_matches_from_leq(carrier_lattices):
    for L in carrier_lattices:
        lat = tight_quantale(L).quantale.lattice
        assert_same_lattice(lat, oracles.from_leq_bruteforce(lat.leq))


def test_bullet_carrier_matches_from_leq(bullets):
    for B in bullets:
        lat = B.quantale.lattice
        assert_same_lattice(lat, oracles.from_leq_bruteforce(lat.leq))


def test_quotient_lattice_matches_closed_suborder(bullets):
    for B in bullets:
        quot = B.quotient
        sub = np.asarray(quot.closed)
        ambient = quot.ambient.lattice
        assert_same_lattice(
            quot.quantale.lattice,
            oracles.from_leq_bruteforce(ambient.leq[np.ix_(sub, sub)]))


def test_m_lattice_matches_from_leq():
    for n in range(9):
        L = m_lattice(n)
        assert_same_lattice(L, oracles.from_leq_bruteforce(L.leq))
        assert L.labels == \
            ("bot",) + tuple(f"a{i}" for i in range(1, n + 1)) + ("top",)


def monotone_rows(L, rng, count):
    rows = oracles.random_images(rng, L.n, 40 * count)
    keep = [(~L.leq | L.leq[np.ix_(r, r)]).all() for r in rows]
    return rows[np.flatnonzero(keep)[:count]]


def test_meet_closure_batch_rows_match_bruteforce(small_lattices):
    rng = np.random.default_rng(21)
    for L in small_lattices:
        rows = np.concatenate([monotone_rows(L, rng, 6),
                               np.full((1, L.n), L.bot),
                               np.full((1, L.n), L.top)])
        batch = _meet_closure_batch(L, rows)
        for img, closed in zip(rows, batch):
            assert tuple(closed) == oracles.meet_closure_bruteforce(L, img)
            assert meet_closure(EndoMap(L, img)).image.tolist() == \
                closed.tolist()
        # any leading shape, row for row
        grid = _meet_closure_batch(L, rows[:4].reshape(2, 2, L.n))
        assert np.array_equal(grid.reshape(4, L.n), batch[:4])


def synthetic_rows(n, lasts, head=None):
    """Rows of length n, all entries >= 16, equal to head (default n - 1)
    everywhere but in their last position."""
    rows = np.full((len(lasts), n), n - 1 if head is None else head,
                   dtype=np.int64)
    rows[:, -1] = lasts
    return rows


@pytest.mark.parametrize("n", [20, 40, 300])
def test_row_index_exact_beyond_fifteen(n):
    lasts = np.arange(16, n, 2)
    rows = synthetic_rows(n, lasts)
    index = _RowIndex(rows)
    assert np.array_equal(index.find(rows, "row"), np.arange(len(rows)))
    assert np.array_equal(index.find(rows[::-1], "row"),
                          np.arange(len(rows))[::-1])
    for foreign in (synthetic_rows(n, [17]), synthetic_rows(n, [n - 2], 16),
                    synthetic_rows(n, [n - 1])):
        with pytest.raises(ValidationFailed):
            index.find(foreign, "row")


def test_row_index_matches_tuple_lookup():
    rng = np.random.default_rng(22)
    n = 18
    # entries mostly 16 outside the last column: long shared prefixes
    rows = np.maximum(rng.integers(0, n, size=(400, n)), 16)
    rows[:, -1] = rng.integers(0, n, size=400)
    rows = np.unique(rows, axis=0)
    index = _RowIndex(rows)
    table = {tuple(r): i for i, r in enumerate(rows.tolist())}
    probe = rows[rng.integers(0, len(rows), size=1000)]
    assert index.find(probe, "row").tolist() == \
        [table[tuple(r)] for r in probe.tolist()]


def test_row_index_rejects_unsorted_rows():
    rows = synthetic_rows(16, [20, 18])
    with pytest.raises(InvariantViolated):
        _RowIndex(rows)


def test_index_of_finds_every_element():
    T = tight_quantale(m_lattice(3))
    assert [T.index_of(f) for f in T.elements] == list(range(T.n))
