"""The join-irreducible paths of the lattice, law and residual layers
against the full scans and brute-force definitions in oracles.py.

The adjunction kernel of finq.lattice decides sup-preservation and folds
right adjoints over the irreducibles; check_quantale accepts through it and
rescans only on failure; the residual tables are its adjoints;
check_frobenius reads the shift relation off the Serre identity;
is_distributive asks whether every irreducible is join-prime. Each must
give the same outcome, error type and first witness as the full definition.
None of them may hold more than a few N x N tables at once.
"""

import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import finq
from finq.cli import main
from finq.errors import (
    BottomNotAbsorbed,
    InvariantViolated,
    NotAssociative,
    NotDistributive,
)
from finq.lattice import (
    FiniteLattice,
    _adjunction_holds,
    _downset_fold,
    _right_adjoints,
    _sup_witness,
    is_distributive,
    join_of,
    meet_of,
    standard_lattice,
)
from finq.nuclei import represent_frobenius
from finq.quantale import (
    FrobeniusStructure,
    check_frobenius,
    check_quantale,
    chu,
    dual_mult_table,
)
from finq.raney import tight_quantale

CARRIER_SPECS = ("M(2)", "M(3)", "N5", "product(chain(2),chain(2))")


@pytest.fixture(scope="module")
def carriers():
    return {s: tight_quantale(standard_lattice(s)) for s in CARRIER_SPECS}


def outcome(L, mult):
    """check_quantale's result in the oracle's (type, witness) form."""
    try:
        check_quantale(L, mult)
    except NotAssociative as e:
        return "NotAssociative", (e.x, e.y, e.z)
    except NotDistributive as e:
        return "NotDistributive", (e.side, e.x, e.y, e.z)
    except BottomNotAbsorbed as e:
        return "BottomNotAbsorbed", (e.x, e.side)
    return None


@pytest.mark.parametrize("spec", CARRIER_SPECS)
def test_check_quantale_matches_full_scan(carriers, spec):
    Q = carriers[spec].quantale
    L, n = Q.lattice, Q.n
    assert outcome(L, Q.mult) is None
    rng = np.random.default_rng([4, n])
    failed = 0
    for _ in range(40):
        mult = Q.mult.copy()
        for _ in range(int(rng.integers(1, 4))):
            x, y = rng.integers(0, n, size=2)
            mult[x, y] = rng.integers(0, n)
        expected = oracles.first_law_violation(L, mult)
        assert outcome(L, mult) == expected
        failed += expected is not None
    assert failed > 20


def test_check_quantale_failures_of_every_kind():
    """Every one-entry change of three tables on the 3-chain (meet, zero,
    join): all three error types and some passes are reached."""
    L = finq.chain(3)
    seen = set()
    for base in (L.meet_table, np.zeros((3, 3), dtype=np.int64),
                 L.join_table):
        for x, y, v in np.ndindex(3, 3, 3):
            mult = base.copy()
            mult[x, y] = v
            expected = oracles.first_law_violation(L, mult)
            assert outcome(L, mult) == expected
            seen.add(expected and expected[0])
    assert seen == {None, "NotAssociative", "NotDistributive",
                    "BottomNotAbsorbed"}


@pytest.mark.parametrize("spec, mult", [
    # bottom absorbed, associative on J^3, both counits hold; 1*- is not
    # monotone (1*1 = 1 > 0 = 1*2)
    ("chain(3)", [[0, 0, 0], [0, 1, 0], [0, 0, 0]]),
    # monotone, bottom absorbed, associative; only the left counit fails
    # (x = 2: 2\0 = 3 and 2*3 = 1)
    ("boolean(2)", [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 1]]),
    # its transpose: only the right counit fails
    ("boolean(2)", [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 1]]),
])
def test_each_accept_check_rejects_on_its_own(spec, mult):
    """Tables that pass every accept check but one: monotonicity on the
    covers, the left counit x*(x\\z) <= z, the right counit (z/y)*y <= z."""
    L = standard_lattice(spec)
    mult = np.asarray(mult, dtype=np.int64)
    expected = oracles.first_law_violation(L, mult)
    assert expected is not None
    assert outcome(L, mult) == expected


def test_law_scan_that_finds_nothing_is_an_invariant_violation(monkeypatch):
    monkeypatch.setattr(finq.quantale, "_laws_hold_on_irreducibles",
                        lambda lattice, mult: False)
    L = finq.chain(2)
    with pytest.raises(InvariantViolated):
        check_quantale(L, L.meet_table)


@pytest.mark.parametrize("spec", CARRIER_SPECS)
def test_residual_tables_match_bruteforce(carriers, spec):
    Q = carriers[spec].quantale
    fresh = finq.Quantale(Q.lattice, Q.mult)
    for x in range(Q.n):
        for z in range(Q.n):
            assert fresh.left_residual_table[x, z] == \
                oracles.residual_left_bruteforce(Q, x, z)
            assert fresh.right_residual_table[x, z] == \
                oracles.residual_right_bruteforce(Q, x, z)


@pytest.mark.parametrize("spec", CARRIER_SPECS)
def test_check_quantale_keeps_its_residual_fold(carriers, spec):
    """The Quantale check_quantale returns already holds both residual
    tables, read-only and equal to a fresh fold and to the definitions."""
    base = carriers[spec].quantale
    Q = check_quantale(base.lattice, base.mult.copy())
    assert {"left_residual_table", "right_residual_table"} <= set(vars(Q))
    fresh = finq.Quantale(Q.lattice, Q.mult)
    for name, brute in (("left_residual_table",
                         oracles.residual_left_bruteforce),
                        ("right_residual_table",
                         oracles.residual_right_bruteforce)):
        table = getattr(Q, name)
        assert np.array_equal(table, getattr(fresh, name))
        assert not table.flags.writeable
        assert not getattr(fresh, name).flags.writeable
        assert table.tolist() == [[brute(Q, a, b) for b in range(Q.n)]
                                  for a in range(Q.n)]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_check_quantale_matches_oracle_on_random_changes(
        small_lattices, carriers, data):
    """1-3 drawn entries of a meet, zero, join or tight multiplication
    table changed: the outcome, error type and witness of check_quantale
    are those of the full scan."""
    bases = [(L, table) for L in small_lattices
             for table in (L.meet_table, np.zeros((L.n, L.n), dtype=np.int64),
                           L.join_table)]
    bases += [(T.quantale.lattice, T.quantale.mult)
              for T in carriers.values()]
    L, base = data.draw(st.sampled_from(bases))
    mult = base.copy()
    entry = st.integers(0, L.n - 1)
    for x, y, v in data.draw(st.lists(st.tuples(entry, entry, entry),
                                      min_size=1, max_size=3)):
        mult[x, y] = v
    assert outcome(L, mult) == oracles.first_law_violation(L, mult)


@pytest.mark.parametrize("spec", CARRIER_SPECS)
def test_shift_relation_matches_scan(carriers, spec):
    T = carriers[spec]
    Q, n = T.quantale, T.n
    star = T.frobenius.lneg.image
    rng = np.random.default_rng([6, n])
    pairs = [(star, star), (np.arange(n), np.arange(n))]
    for _ in range(15):
        pairs.append(tuple(rng.integers(0, n, size=(2, n))))
        near = star.copy()
        near[rng.integers(0, n)] = rng.integers(0, n)
        pairs += [(near, star), (star, near)]
    failed = 0
    for l, r in pairs:
        rep = check_frobenius(Q, l, r)
        witness = oracles.shift_relation_scan(Q, l, r)
        assert rep.shift_holds == (witness is None)
        assert rep.witnesses.get("shift_holds") == witness
        assert rep.shift_holds == rep.serre_identity
        failed += witness is not None
    assert failed > 15


def test_join_irreducibles_match_lower_covers(small_lattices, carriers):
    lattices = list(small_lattices) + [T.quantale.lattice
                                       for T in carriers.values()]
    for L in lattices + [L.dual() for L in lattices]:
        assert L.join_irreducibles == oracles.join_irreducibles_by_covers(L)


def test_covers_match_bruteforce(small_lattices, carriers):
    lattices = list(small_lattices) + [T.quantale.lattice
                                       for T in carriers.values()]
    for L in lattices + [L.dual() for L in lattices]:
        assert L.covers == oracles.covers_bruteforce(L)


def test_downset_fold_matches_definition(small_lattices, carriers):
    """_downset_fold leaves at each x the join, or meet, of the entries at
    every u <= x, column by column."""
    rng = np.random.default_rng(7)
    lattices = list(small_lattices) + [T.quantale.lattice
                                       for T in carriers.values()]
    for L in lattices + [L.dual() for L in lattices]:
        vals = rng.integers(0, L.n, size=(L.n, 3))
        for table, fold in ((L.join_table, join_of),
                            (L.meet_table, meet_of)):
            want = [[fold(L, vals[L.leq[:, x], c].tolist())
                     for c in range(3)] for x in range(L.n)]
            assert np.array_equal(_downset_fold(L, table, vals.copy()), want)


def test_chu_failed_validation_is_an_invariant_violation(monkeypatch):
    real = finq.quantale.check_frobenius

    def broken(Q, l, r):
        return dataclasses.replace(real(Q, l, r), serre_identity=False,
                                   witnesses={"serre_identity": (0, 0)})

    monkeypatch.setattr(finq.quantale, "check_frobenius", broken)
    Q = check_quantale(finq.chain(2), finq.chain(2).meet_table)
    with pytest.raises(InvariantViolated) as exc:
        chu(Q)
    assert exc.value.witness == {"serre_identity": (0, 0)}
    chu(Q, validate=False)


def _first_join_failure(S, T, img):
    """The definition's witness for f: S -> T: ("bot",) if f(bot) != bot,
    else the first (x, y), row-major, with f(x v y) != f(x) v f(y)."""
    if img[S.bot] != T.bot:
        return ("bot",)
    return next((x, y) for x in range(S.n) for y in range(S.n)
                if img[S.join_table[x, y]] != T.join_table[img[x], img[y]])


def test_adjunction_kernel_matches_definitions(small_lattices):
    """On every small lattice, its dual and chain(3) -> M(3): the
    sup-preserving maps, some monotone maps that are not, and one-entry
    changes of both, mixed into batches. _adjunction_holds is the
    brute-force sup-preservation test row by row; _sup_witness names the
    first failing row's first witness; _right_adjoints is the brute-force
    right adjoint of each sup-preserving row."""
    duals = [L.dual() for L in small_lattices]
    pairs = [(L, L) for L in list(small_lattices) + duals]
    pairs.append((finq.chain(3), finq.m_lattice(3)))
    rng = np.random.default_rng(14)
    failed = 0
    for S, T in pairs:
        maps = np.array(list(itertools.product(range(T.n), repeat=S.n)))
        mono = maps[(T.leq[maps[:, :, None], maps[:, None, :]]
                     | ~S.leq).all(axis=(1, 2))]
        sup = np.array([oracles.is_sup_preserving_bruteforce(S, f, T)
                        for f in mono.tolist()])
        sups, others = mono[sup], mono[~sup][:20]
        assert np.array_equal(
            _right_adjoints(S, T, sups),
            [oracles.right_adjoint_bruteforce(S, f, T) for f in sups.tolist()])
        near = np.concatenate([sups, others])[
            rng.integers(0, len(sups) + len(others), size=20)]
        near[np.arange(20), rng.integers(0, S.n, size=20)] = \
            rng.integers(0, T.n, size=20)
        pool = np.concatenate([sups, others, near])
        passes = np.array([oracles.is_sup_preserving_bruteforce(S, f, T)
                           for f in pool.tolist()])
        assert np.array_equal(
            _adjunction_holds(S, T, pool, _right_adjoints(S, T, pool)),
            passes)
        for _ in range(10):
            rows = rng.integers(0, len(pool), size=rng.integers(1, 6))
            bad = np.flatnonzero(~passes[rows])
            expected = _first_join_failure(S, T, pool[rows[bad[0]]]) \
                if bad.size else None
            assert _sup_witness(S, T, pool[rows]) == expected
            failed += expected is not None
    assert failed > 100


def test_one_adjoint_fold_per_call(spy):
    """The fold that decides sup-preservation also gives the adjoints:
    right_adjoint, left_adjoint and star fold _right_adjoints once per
    call, and check_negation_formulas once per formula table."""
    folds = spy("_right_adjoints")
    L = finq.m_lattice(3)
    f, g = finq.EndoMap(L, [0, 1, 4, 4, 4]), finq.EndoMap(L, [0, 0, 0, 3, 4])
    for name, call, expected in [
            ("right_adjoint", lambda: finq.right_adjoint(f), 1),
            ("left_adjoint", lambda: finq.left_adjoint(g), 1),
            ("star", lambda: finq.star(f), 1),
            ("check_negation_formulas",
             lambda: finq.check_negation_formulas(3), 2)]:
        folds.clear()
        call()
        assert len(folds) == expected, name


def test_one_serre_check_per_quotient(spy, tmp_path):
    """Each quotient checks its Serre pair and its nucleus once: the
    public constructors check their input, the internal callers their own
    facts, and all build through one step. check_frobenius counts the
    quotient's own Frobenius report too."""
    T = tight_quantale(finq.m_lattice(2))
    s = T.frobenius.lneg.image
    _, quot, F = finq.serre_gc_quotient(T.quantale, s, s)
    S = finq.cyclic_group(8)
    R = finq.BinaryRelation(8, (np.add.outer(np.arange(8),
                                             np.arange(8)) % 8) != 0)
    C = tight_quantale(finq.chain(3))
    star = C.frobenius.lneg.image.tolist()
    qpath, jpath = tmp_path / "q.json", tmp_path / "j.json"
    qpath.write_text(json.dumps(finq.quantale_to_dict(C.quantale, star,
                                                      star)))
    jpath.write_text(json.dumps({"image": list(range(C.n))}))
    frobenius, nucleus = spy("check_frobenius"), spy("is_nucleus")
    for name, call, expected in [
            ("serre_gc_quotient",
             lambda: finq.serre_gc_quotient(T.quantale, s, s), (2, 1)),
            ("phase_quantale", lambda: finq.phase_quantale(S, R), (1, 1)),
            ("bullet_quantale",
             lambda: finq.bullet_quantale(finq.m_lattice(3)), (2, 1)),
            ("lift_serre", lambda: finq.lift_serre(
                T.quantale, quot, F.lneg.image, F.rneg.image), (3, 1)),
            ("finq nucleus", lambda: main(
                ["nucleus", "--quantale", str(qpath), "--endomap",
                 str(jpath), "--out", str(tmp_path / "out.json")]),
             (0, 1))]:
        frobenius.clear()
        nucleus.clear()
        call()
        assert (len(frobenius), len(nucleus)) == expected, name


def test_relation_flags_are_the_powerset_serre_flags():
    """phase_quantale takes the Serre flags of (l, r) on the powerset from
    relation_galois instead of checking them: antitone and is_galois
    always hold, shift_holds is associative and commutes is
    weakly_symmetric. Every relation on Z2, Z3 and the left-zero
    semigroups on 2 and 3 elements, against check_frobenius."""
    seen = set()
    for S in (finq.cyclic_group(2), finq.cyclic_group(3),
              finq.left_zero_semigroup(2), finq.left_zero_semigroup(3)):
        PQ = finq.powerset_quantale(S)
        for bits in itertools.product((False, True), repeat=S.n * S.n):
            gal = finq.relation_galois(S, np.reshape(bits, (S.n, S.n)))
            rep = check_frobenius(PQ, gal.l, gal.r)
            assert rep.antitone and rep.is_galois
            flags = (gal.associative, gal.weakly_symmetric)
            assert (rep.shift_holds, rep.commutes) == flags, (S, bits)
            seen.add(flags)
    assert len(seen) == 4


def test_is_distributive_matches_triple_scan(small_lattices, carriers):
    lattices = list(small_lattices) + [T.quantale.lattice
                                       for T in carriers.values()]
    seen = set()
    for L in lattices + [L.dual() for L in lattices]:
        expected = oracles.is_distributive_bruteforce(L)
        assert is_distributive(L) == expected
        seen.add(expected)
    assert seen == {True, False}


@pytest.fixture(scope="module")
def tight_m5():
    """tight(M(5)) (N = 262) as check_quantale returns it, with its star
    pair's report computed."""
    T = tight_quantale(standard_lattice("M(5)"))
    Q = check_quantale(T.quantale.lattice, T.quantale.mult)
    F = FrobeniusStructure(Q, T.frobenius.lneg, T.frobenius.rneg)
    assert F.report.frobenius_valid
    return Q, F


MEMORY_CALLS = {
    "check_quantale": lambda Q, F: check_quantale(Q.lattice, Q.mult),
    "check_frobenius": lambda Q, F: check_frobenius(Q, F.lneg, F.rneg),
    "dual_mult_table": lambda Q, F: dual_mult_table(F),
    "represent_frobenius": lambda Q, F: represent_frobenius(Q, F),
    "from_leq": lambda Q, F: FiniteLattice.from_leq(Q.lattice.leq),
    "tight_quantale": lambda Q, F: tight_quantale(standard_lattice("M(5)")),
}


@pytest.mark.parametrize("call", sorted(MEMORY_CALLS))
def test_peak_memory_is_a_few_tables(tight_m5, call):
    """On tight(M(5)) each call peaks below 8 N x N int64 tables (4.2 MiB
    for N = 262), as traced by tracemalloc: one N^3 bool intermediate
    alone would be 18 MB."""
    Q, F = tight_m5
    tracemalloc.start()
    try:
        MEMORY_CALLS[call](Q, F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * Q.n * Q.n * 8, f"{peak / 2 ** 20:.1f} MiB"
