import dataclasses
import itertools
import time

import numpy as np
import pytest

import oracles
from finq.errors import (
    BudgetExceeded,
    NotANucleus,
    NotAssociativeRelation,
    NotSerreDualityOnQuotient,
    NotSerreGC,
    NotWeaklySymmetric,
    ValidationFailed,
)
from finq.lattice import (
    EndoMap,
    FiniteLattice,
    boolean,
    chain,
    m_lattice,
    n5,
    standard_lattice,
)
from finq.nuclei import (
    BinaryRelation,
    FiniteSemigroup,
    Nucleus,
    cyclic_group,
    is_nucleus,
    left_zero_semigroup,
    lift_serre,
    phase_quantale,
    powerset_quantale,
    quotient_quantale,
    relation_galois,
    represent_frobenius,
    representable_flags,
    serre_gc_quotient,
)
from finq.quantale import (
    FrobeniusStructure,
    Quantale,
    check_frobenius,
    check_quantale,
    chu,
    element_flags,
    find_unit,
    frobenius_from_dualizing,
    trivial_quantale,
)
from finq.raney import tight_quantale
from test_quantale import (
    and_quantale,
    atom_cycle_duality,
    counterexample_3chain,
    quantale_battery,
)


def test_is_nucleus_basic():
    Q = counterexample_3chain()
    assert is_nucleus(Q, np.arange(3))
    assert is_nucleus(Q, [1, 1, 2])
    top = Q.lattice.top
    assert is_nucleus(trivial_quantale(chain(3)), [top] * 3)


def test_is_nucleus_witnesses():
    Q = counterexample_3chain()
    rep = is_nucleus(Q, [0, 0, 2])
    assert (rep.law, rep.witness) == ("increasing", (1,))
    rep = is_nucleus(Q, [1, 0, 2])
    assert rep.law == "isotone"
    rep = is_nucleus(Q, [1, 2, 2])
    assert rep.law == "idempotent" and rep.witness == (0,)
    # closure operator that is not laxly multiplicative: j(1)*j(1) = 1 > j(0)
    rep = is_nucleus(Q, [0, 2, 2])
    assert (rep.law, rep.witness) == ("lax_multiplicative", (1, 1))


def test_accepted_closure_operators_satisfy_the_split_form():
    """is_nucleus does not check x*j(y) <= j(x*y) and j(x)*y <= j(x*y):
    under a monotone multiplication they follow from the laws it checks.
    Every endomap it accepts on the battery satisfies both."""
    accepted = 0
    for Q in quantale_battery():
        leq, m = Q.lattice.leq, Q.mult
        for img in oracles.all_endofunctions(Q.lattice):
            if not is_nucleus(Q, img):
                continue
            accepted += 1
            for x, y in itertools.product(range(Q.n), repeat=2):
                assert leq[m[x, img[y]], img[m[x, y]]], (Q, img, x, y)
                assert leq[m[img[x], y], img[m[x, y]]], (Q, img, x, y)
    assert accepted > 20


def test_is_nucleus_on_a_non_monotone_multiplication():
    """Outside its precondition is_nucleus checks its own laws and claims
    no defect: here 0 <= 1 but 0*1 = 2 > 1*1 = 0, and j = [1, 1, 2] is a
    laxly multiplicative closure operator although 0*j(0) = 2 > j(0*0)."""
    Q = Quantale(chain(3), [[0, 2, 2], [2, 0, 0], [2, 0, 1]])
    assert is_nucleus(Q, [1, 1, 2])


def test_quotient_counterexample():
    Q = counterexample_3chain()
    quot = quotient_quantale(Q, [1, 1, 2])
    assert quot.closed == (1, 2)
    assert np.array_equal(quot.quantale.mult, np.zeros((2, 2), int))
    assert quot.to_closed[0] == -1
    with pytest.raises(ValidationFailed):
        quot.closed_index(0)
    assert quot.closed_index(2) == 1


def test_quotient_identity_nucleus():
    Q = counterexample_3chain()
    quot = quotient_quantale(Q, Nucleus(Q, np.arange(3)))
    assert quot.quantale == Q


def test_quotient_rejects_non_nucleus():
    Q = counterexample_3chain()
    with pytest.raises(NotANucleus) as exc:
        quotient_quantale(Q, [0, 0, 2])
    assert exc.value.law == "increasing"


def test_serre_gc_quotient_counterexample():
    """Double negation at 0 collapses the 3-chain to the trivial 2-chain
    quantale; 0 itself is not closed."""
    Q = counterexample_3chain()
    neg = [2, 2, 1]
    nuc, quot, F = serre_gc_quotient(Q, neg, neg)
    assert list(nuc.image) == [1, 1, 2]
    assert quot.closed == (1, 2)
    assert np.array_equal(quot.quantale.mult, np.zeros((2, 2), int))
    assert list(F.lneg.image) == [1, 0]
    assert F.girard
    assert 0 not in quot.closed


def test_serre_gc_quotient_booleanization():
    """Double negation on the Heyting 3-chain yields the 2-element boolean
    quantale; here 0 is closed and the quotient is unital."""
    Q = and_quantale(chain(3))
    neg = [2, 0, 0]
    nuc, quot, F = serre_gc_quotient(Q, neg, neg)
    assert quot.closed == (0, 2)
    assert find_unit(quot.quantale).unit == 1
    assert list(F.lneg.image) == [1, 0]


def test_serre_gc_quotient_inverse_pair_is_identity_nucleus():
    L, l, r = atom_cycle_duality()
    Q = trivial_quantale(L)
    nuc, quot, F = serre_gc_quotient(Q, l, r)
    assert list(nuc.image) == list(range(5))
    assert quot.closed == tuple(range(5))
    assert not F.girard


def test_serre_gc_quotient_rejects():
    Q = trivial_quantale(chain(2))
    with pytest.raises(NotSerreGC) as exc:
        serre_gc_quotient(Q, [0, 1], [0, 1])
    assert exc.value.flag == "antitone"
    with pytest.raises(NotSerreGC) as exc:
        serre_gc_quotient(Q, [0, 0], [0, 0])
    assert exc.value.flag == "is_galois"
    assert exc.value.witness == (0, 1)


def test_lift_serre_counterexample():
    Q = counterexample_3chain()
    _, quot, _ = serre_gc_quotient(Q, [2, 2, 1], [2, 2, 1])
    L, R = lift_serre(Q, quot, [1, 0], [1, 0])
    assert list(L.image) == [2, 2, 1]
    assert list(R.image) == [2, 2, 1]


def test_lift_serre_identity_nucleus_returns_input():
    L, l, r = atom_cycle_duality()
    Q = trivial_quantale(L)
    quot = quotient_quantale(Q, np.arange(5))
    lifted_l, lifted_r = lift_serre(Q, quot, l, r)
    assert list(lifted_l.image) == l
    assert list(lifted_r.image) == r


def test_lift_serre_rejects_non_duality():
    Q = counterexample_3chain()
    quot = quotient_quantale(Q, [1, 1, 2])
    with pytest.raises(NotSerreDualityOnQuotient) as exc:
        lift_serre(Q, quot, [0, 1], [0, 1])
    assert exc.value.flag == "antitone"


def test_lift_serre_rejects_a_quotient_of_another_quantale():
    L = chain(3)
    quot = quotient_quantale(trivial_quantale(L), [1, 1, 2])
    with pytest.raises(ValidationFailed):
        lift_serre(and_quantale(L), quot, [1, 0], [1, 0])


def test_representable_flags():
    Q = counterexample_3chain()
    assert representable_flags(Q, [2, 2, 1], [2, 2, 1]) == \
        {"representable_by": 0}

    L, l, r = atom_cycle_duality()
    assert representable_flags(trivial_quantale(L), l, r) == \
        {"representable_by": None}

    Q = and_quantale(chain(2))
    F = frobenius_from_dualizing(Q, 0)
    flags = representable_flags(Q, F.lneg, F.rneg)
    unit = find_unit(Q).unit
    assert flags["representable_by"] == F.rneg(unit) == 0


def test_semigroup_validation():
    with pytest.raises(ValidationFailed):
        FiniteSemigroup(2, [[0, 1], [1, 2]])
    with pytest.raises(ValidationFailed):
        # x.y = max(x,y)+... a non-associative table
        FiniteSemigroup(3, [[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    S = cyclic_group(3)
    assert S.op[1, 2] == 0


def test_powerset_quantale_z2():
    PQ = powerset_quantale(cyclic_group(2))
    assert PQ.n == 4
    # {1}*{1} = {0}
    assert PQ.mult[2, 2] == 1
    check_quantale(PQ.lattice, PQ.mult)
    assert find_unit(PQ).unit == 1


def test_powerset_quantale_left_zero():
    S = left_zero_semigroup(2)
    PQ = powerset_quantale(S)
    check_quantale(PQ.lattice, PQ.mult)
    for X in range(4):
        for Y in range(4):
            assert PQ.mult[X, Y] == (X if Y else 0)


def test_powerset_residuals_match_set_comprehension():
    for S in [cyclic_group(2), cyclic_group(3), left_zero_semigroup(2)]:
        PQ = powerset_quantale(S)
        for X in range(PQ.n):
            xs = {i for i in range(S.n) if X >> i & 1}
            for Y in range(PQ.n):
                ys = {i for i in range(S.n) if Y >> i & 1}
                left, right = oracles.powerset_residuals_bruteforce(
                    S.op, S.n, xs, ys)
                assert PQ.left_residual_table[X, Y] == \
                    sum(1 << s for s in left)
                assert PQ.right_residual_table[Y, X] == \
                    sum(1 << s for s in right)


def test_powerset_budget():
    with pytest.raises(BudgetExceeded):
        powerset_quantale(cyclic_group(12))
    with pytest.raises(BudgetExceeded):
        powerset_quantale(cyclic_group(4), max_elements=3)


def test_phase_refuses_before_building_the_galois_maps():
    """The powerset budget is checked before relation_galois allocates, so
    it also comes before the relation's own flags."""
    ar = np.arange(19)
    S = cyclic_group(19)
    R = BinaryRelation(19, np.add.outer(ar, ar) % 19 != 0)
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded) as exc:
        phase_quantale(S, R)
    assert time.perf_counter() - t0 < 0.05
    assert exc.value.what == "powerset tables"
    with pytest.raises(BudgetExceeded):
        phase_quantale(left_zero_semigroup(2), BinaryRelation(
            2, [[True, True], [False, False]]), max_elements=1)


def orthogonality_z2():
    return cyclic_group(2), BinaryRelation(2, [[True, False], [False, True]])


def test_relation_galois_orthogonality():
    S, R = orthogonality_z2()
    rep = relation_galois(S, R)
    assert rep.associative and rep.weakly_symmetric
    assert list(rep.r) == [3, 1, 2, 0]
    assert list(rep.l) == [3, 1, 2, 0]


def test_relation_galois_total_and_empty():
    S = cyclic_group(2)
    rep = relation_galois(S, BinaryRelation(2, np.ones((2, 2), bool)))
    assert rep.associative and rep.weakly_symmetric
    assert list(rep.l) == [3, 3, 3, 3] and list(rep.r) == [3, 3, 3, 3]
    rep = relation_galois(S, BinaryRelation(2, np.zeros((2, 2), bool)))
    assert rep.associative and rep.weakly_symmetric
    assert list(rep.r) == [3, 0, 0, 0]


def test_relation_galois_flags_negative():
    S = cyclic_group(2)
    rep = relation_galois(S, BinaryRelation(2, [[True, True],
                                                [False, False]]))
    assert not rep.associative
    assert rep.witnesses["associative"] == (0, 1, 0)

    # rows constant makes R associative over a left-zero semigroup, but
    # r({1}) = {} is not an l-image and l({0}) = {0} is not an r-image
    S = left_zero_semigroup(2)
    rep = relation_galois(S, BinaryRelation(2, [[True, True],
                                                [False, False]]))
    assert rep.associative
    assert not rep.weakly_symmetric
    assert not rep.r_singletons_l_closed
    assert not rep.l_singletons_r_closed
    assert rep.witnesses["r_singletons_l_closed"] == (1,)
    assert rep.witnesses["l_singletons_r_closed"] == (0,)


def test_phase_quantale_z2_orthogonality():
    S, R = orthogonality_z2()
    quot, F = phase_quantale(S, R)
    assert quot.closed == (0, 1, 2, 3)
    assert F.girard
    assert F.report.frobenius_valid and F.report.shift_holds
    assert find_unit(quot.quantale).unit == 1
    zero = F.rneg(find_unit(quot.quantale).unit)
    assert element_flags(quot.quantale, zero)["dualizing"]


def test_phase_quantale_symmetric_is_girard():
    S = cyclic_group(2)
    R = BinaryRelation(2, [[False, True], [True, False]])
    quot, F = phase_quantale(S, R)
    assert F.girard
    assert list(F.lneg.image) == [3, 2, 1, 0]


def test_phase_quantale_left_zero_degenerate():
    S = left_zero_semigroup(2)
    quot, F = phase_quantale(S, BinaryRelation(2, np.zeros((2, 2), bool)))
    assert quot.closed == (0, 3)
    assert np.array_equal(quot.quantale.mult, [[0, 0], [0, 1]])
    assert list(F.lneg.image) == [1, 0]


def _truncated_semigroup(n):
    """{1..n} with x.y = min(x + y, n); index i stands for i + 1."""
    ar = np.arange(n)
    return FiniteSemigroup(n, np.minimum(ar[:, None] + ar + 1, n - 1))


def _phase_cases():
    """(S, R) with x R y iff x.y is outside D: Z_2..Z_9 with D = {0} and
    {0, 1}; the left-zero semigroups on 1..3 elements and the truncated
    semigroups {1..n}, x.y = min(x + y, n), n <= 5, with every nonempty D."""
    for k in range(2, 10):
        for D in ([0], [0, 1]):
            yield cyclic_group(k), D
    for S in [left_zero_semigroup(k) for k in (1, 2, 3)] + \
            [_truncated_semigroup(n) for n in range(1, 6)]:
        for size in range(1, S.n + 1):
            for D in itertools.combinations(range(S.n), size):
                yield S, list(D)


def test_phase_closed_sets_are_the_intersection_closure():
    """The closed sets of every accepted phase quotient are the
    intersection closure of S and the r({x})."""
    accepted = 0
    for S, D in _phase_cases():
        R = BinaryRelation(S.n, ~np.isin(S.op, D))
        try:
            quot, _ = phase_quantale(S, R)
        except (NotAssociativeRelation, NotWeaklySymmetric):
            continue
        r = relation_galois(S, R).r
        family = oracles._intersection_closure(
            [int(r[0])] + [int(r[1 << x]) for x in range(S.n)])
        assert quot.closed == tuple(sorted(family)), (S.op, D)
        accepted += 1
    assert accepted == 76


def test_phase_quantale_rejections():
    S = cyclic_group(2)
    with pytest.raises(NotAssociativeRelation):
        phase_quantale(S, BinaryRelation(2, [[True, True],
                                             [False, False]]))
    S = left_zero_semigroup(2)
    with pytest.raises(NotWeaklySymmetric):
        phase_quantale(S, BinaryRelation(2, [[True, True],
                                             [False, False]]))


def test_represent_trivial_2chain():
    F = trivial_quantale(chain(2), duality=([1, 0], [1, 0]))
    rep = represent_frobenius(F.quantale, F)
    assert rep.passed, rep.flags


def test_represent_chu_of_trivial_2chain():
    CQ, F = chu(trivial_quantale(chain(2)))
    rep = represent_frobenius(CQ, F)
    assert rep.passed, rep.flags


def test_represent_atom_cycle():
    L, l, r = atom_cycle_duality()
    F = trivial_quantale(L, duality=(l, r))
    rep = represent_frobenius(F.quantale, F)
    assert rep.passed, rep.flags


def test_represent_rejects_invalid():
    Q = trivial_quantale(chain(2))
    F = FrobeniusStructure(Q, EndoMap(Q.lattice, [0, 1]),
                           EndoMap(Q.lattice, [0, 1]))
    with pytest.raises(ValidationFailed):
        represent_frobenius(Q, F)


_REPRESENT_TIGHT = ("chain(2)", "chain(3)", "M(2)", "M(3)", "N5",
                    "boolean(2)", "M(4)", "dual(M(3))",
                    "product(chain(2),chain(2))")


def _represent_valid_cases():
    for spec in _REPRESENT_TIGHT:
        T = tight_quantale(standard_lattice(spec))
        yield f"tight {spec}", T.quantale, T.frobenius
    F = trivial_quantale(chain(2), duality=([1, 0], [1, 0]))
    yield "chain(2) duality", F.quantale, F
    L, l, r = atom_cycle_duality()
    F = trivial_quantale(L, duality=(l, r))
    yield "atom-cycle duality", F.quantale, F
    yield "chu trivial chain(2)", *chu(trivial_quantale(chain(2)))
    yield "chu tight M(2)", *chu(tight_quantale(m_lattice(2)).quantale)


def _represent_twisted_cases():
    """lneg = star o alpha and rneg its inverse, for alpha(f) = s o f o s^-1
    and each atom permutation s of M(k), on the tight quantale and on the
    trivial quantale of its carrier. The pair is inverse and antitone, but
    need not satisfy the Serre identity: F.report is check_frobenius's
    with only serre_identity forced true, so the flags can fail."""
    for k in (2, 3):
        T = tight_quantale(m_lattice(k))
        star = T.frobenius.lneg.image
        lat = T.quantale.lattice
        for perm in itertools.permutations(range(1, k + 1)):
            s = np.array((0, *perm, k + 1))
            s_inv = np.argsort(s)
            alpha = np.array([T.index_of(EndoMap(T.lattice, s[f.image[s_inv]]))
                              for f in T.elements])
            lneg = star[alpha]
            rneg = np.argsort(lneg)
            for name, Q in (("tight", T.quantale),
                            ("trivial", trivial_quantale(lat))):
                F = FrobeniusStructure(Q, EndoMap(lat, lneg),
                                       EndoMap(lat, rneg))
                F.__dict__["report"] = dataclasses.replace(
                    check_frobenius(Q, lneg, rneg), serre_identity=True)
                yield f"{name} M({k}) atoms {perm}", Q, F


def test_represent_matches_set_level_oracle():
    """represent_frobenius's tables give the oracle's report on valid
    structures and, flags and witnesses alike, on twisted pairs."""
    failing = set()
    for name, Q, F in [*_represent_valid_cases(),
                       *_represent_twisted_cases()]:
        got = represent_frobenius(Q, F).to_dict()
        assert got == oracles.represent_bruteforce(Q, F).to_dict(), name
        if not got["passed"]:
            failing.add(name)
            assert got["witnesses"], name
    assert failing and all("atoms" in name for name in failing)


def test_meet_transport_fails_on_a_wrong_meet_table():
    """A lattice whose meet table has one wrong entry, at one argument
    order or at both, fails meet_transport; every other table is the
    lattice's own, with an antitone involution on the trivial quantale."""
    for L, inv in ((chain(3), [2, 1, 0]), (m_lattice(3), [4, 1, 2, 3, 0]),
                   (n5(), [4, 1, 3, 2, 0]), (boolean(2), [3, 2, 1, 0])):
        for x, y in itertools.product(range(L.n), repeat=2):
            for v in range(L.n):
                if v == L.meet_table[x, y]:
                    continue
                for cells in ([(x, y)], [(x, y), (y, x)]):
                    mt = L.meet_table.copy()
                    for a, b in cells:
                        mt[a, b] = v
                    bad = FiniteLattice(L.n, L.leq, L.join_table, mt,
                                        L.bot, L.top)
                    F = trivial_quantale(bad, duality=(inv, inv))
                    rep = represent_frobenius(F.quantale, F)
                    assert not rep.flags["meet_transport"], (L, cells, v)


def test_structures_must_belong_to_the_quantale():
    """A Frobenius structure, nucleus or map of another quantale or
    lattice is refused, not checked on the wrong object."""
    L = chain(3)
    T = tight_quantale(L)
    meet = check_quantale(T.quantale.lattice, T.quantale.lattice.meet_table)
    with pytest.raises(ValidationFailed):
        represent_frobenius(meet, T.frobenius)
    other = Nucleus(check_quantale(L, L.meet_table), [1, 1, 2])
    with pytest.raises(ValidationFailed):
        quotient_quantale(trivial_quantale(L), other)
    Q = counterexample_3chain()
    dual_map = EndoMap(L.dual(), [1, 1, 2])
    for check in (quotient_quantale, is_nucleus):
        with pytest.raises(ValidationFailed):
            check(Q, dual_map)
    assert quotient_quantale(Q, EndoMap(L, [1, 1, 2])).closed == (1, 2)
    assert is_nucleus(Q, [1, 1]) == (False, "shape", None)


def test_commuting_images_on_valid_pairs():
    L, l, r = atom_cycle_duality()
    for F in [trivial_quantale(chain(2), duality=([1, 0], [1, 0])),
              trivial_quantale(L, duality=(l, r)),
              chu(counterexample_3chain())[1]]:
        assert F.report.commutes and F.report.images_coincide


def test_nucleus_quotient_join_rule():
    """Joins in the quotient are j applied to the ambient join."""
    Q = and_quantale(chain(3))
    quot = quotient_quantale(Q, [2, 2, 2])
    assert quot.closed == (2,)
    Q = counterexample_3chain()
    quot = quotient_quantale(Q, [1, 1, 2])
    sub = np.asarray(quot.closed)
    jt = quot.quantale.lattice.join_table
    amb = Q.lattice.join_table[np.ix_(sub, sub)]
    assert np.array_equal(sub[jt], np.asarray([1, 1, 2])[amb])


def test_serre_quotient_invariant_raises_a_typed_error(monkeypatch):
    """A failed library invariant is InvariantViolated, not an assert
    that python -O would strip."""
    import finq
    from finq.nuclei import NucleusReport
    T = finq.tight_quantale(m_lattice(2))
    monkeypatch.setattr(finq.nuclei, "is_nucleus",
                        lambda Q, j: NucleusReport(False, "isotone", (0, 1)))
    with pytest.raises(finq.InvariantViolated) as exc:
        serre_gc_quotient(T.quantale, T.frobenius.lneg.image,
                          T.frobenius.rneg.image)
    assert exc.value.witness == (0, 1)
