import dataclasses
import itertools

import numpy as np
import pytest

import oracles
from finq.errors import (
    InvariantViolated,
    NotMonotone,
    NotSupPreserving,
    NotTight,
    ValidationFailed,
)
from finq.lattice import (
    EndoMap,
    LatticeMap,
    boolean,
    chain,
    enumerate_sup_endomaps,
    identity_map,
    left_adjoint,
    m_lattice,
    meet_of,
    n5,
    product,
    right_adjoint,
)
from finq.quantale import (
    Quantale,
    check_frobenius,
    check_quantale,
    check_strongly_continuous,
    chu,
    find_unit,
)
import finq.raney
from finq.raney import (
    _raney_inf_batch,
    _raney_sup_batch,
    a_map,
    bullet_quantale,
    c_map,
    cotight_closure,
    decompose_tight,
    is_cotight,
    is_tight,
    meet_closure,
    raney_inf,
    raney_sup,
    star,
    tensor_map,
    tight_interior,
    tight_quantale,
)
from test_quantale import counterexample_3chain


def all_endo_images(n):
    return np.asarray(list(itertools.product(range(n), repeat=n)),
                      dtype=np.int64)


def meet_endomaps(L):
    """Meet-preserving endomaps, via sup-preservation on the dual."""
    return [EndoMap(L, m.image) for m in enumerate_sup_endomaps(L.dual())]


def test_transforms_match_bruteforce(small_lattices):
    rng = np.random.default_rng(11)
    for L in small_lattices:
        for img in oracles.random_images(rng, L.n, 40):
            f = EndoMap(L, img)
            assert tuple(raney_sup(f).image) == oracles.rans_bruteforce(L, img)
            assert tuple(raney_inf(f).image) == oracles.rani_bruteforce(L, img)


def test_batch_transforms_on_blocks(small_lattices):
    """The batch kernels on a (3, 7, n) block of random, non-monotone rows,
    the shape bullet's pair tables pass, row by row against the oracles."""
    rng = np.random.default_rng(13)
    for L in [*small_lattices, m_lattice(4).dual()]:
        block = oracles.random_images(rng, L.n, 21).reshape(3, 7, L.n)
        sup, inf = _raney_sup_batch(L, block), _raney_inf_batch(L, block)
        assert sup.shape == inf.shape == block.shape
        for i, j in itertools.product(range(3), range(7)):
            img = block[i, j]
            assert tuple(sup[i, j]) == oracles.rans_bruteforce(L, img)
            assert tuple(inf[i, j]) == oracles.rani_bruteforce(L, img)


def test_transform_outputs_preserve(small_lattices):
    rng = np.random.default_rng(12)
    for L in small_lattices:
        for img in oracles.random_images(rng, L.n, 25):
            f = EndoMap(L, img)
            assert oracles.is_sup_preserving_bruteforce(L, raney_sup(f).image)
            assert oracles.is_meet_preserving_bruteforce(
                L, raney_inf(f).image)


def test_frozen_examples():
    # on a chain the identity is tight, though rans alone shifts it down
    assert tight_interior(identity_map(chain(3))) == identity_map(chain(3))
    assert list(raney_sup(identity_map(chain(3))).image) == [0, 0, 1]
    assert cotight_closure(identity_map(chain(3))) == identity_map(chain(3))
    m3 = m_lattice(3)
    assert tight_interior(identity_map(m3)) == c_map(m3, m3.bot)
    for y in range(m3.n):
        constant = EndoMap(m3, np.full(m3.n, y))
        assert raney_sup(constant) == c_map(m3, y)


def test_is_tight_frozen():
    m3 = m_lattice(3)
    assert not is_tight(identity_map(m3))
    assert is_tight(identity_map(boolean(3)))
    for L in [m3, n5()]:
        for y in range(L.n):
            for x in range(L.n):
                assert is_tight(c_map(L, y).compose(a_map(L, x)))


def test_interior_and_closure_are_extremal():
    """rand(f) is the greatest tight map below f and ranD(f) the least
    cotight map above it, over every endofunction of M_3."""
    L = m_lattice(3)
    every = all_endo_images(L.n)
    interiors = _raney_sup_batch(L, _raney_inf_batch(L, every))
    closures = _raney_inf_batch(L, _raney_sup_batch(L, every))
    assert L.leq[interiors, every].all()
    assert L.leq[every, closures].all()
    # idempotence
    again = _raney_sup_batch(L, _raney_inf_batch(L, interiors))
    assert np.array_equal(again, interiors)

    T = tight_quantale(L)
    tight_imgs = np.asarray([f.image for f in T.elements])
    below = L.leq[tight_imgs[:, None, :], every[None, :, :]].all(axis=2)
    dominated = L.leq[tight_imgs[:, None, :], interiors[None, :, :]] \
        .all(axis=2)
    assert (dominated | ~below).all()

    cotight_imgs = np.asarray(
        [f.image for f in meet_endomaps(L) if is_cotight(f)])
    above = L.leq[every[None, :, :], cotight_imgs[:, None, :]].all(axis=2)
    dominates = L.leq[closures[None, :, :], cotight_imgs[:, None, :]] \
        .all(axis=2)
    assert (dominates | ~above).all()


def test_star_fundamental_maps():
    L = m_lattice(3)
    for v in range(L.n):
        assert star(c_map(L, v)) == a_map(L, v)
        assert star(a_map(L, v)) == c_map(L, v)
    jt = L.join_table
    for y in range(L.n):
        for x in range(L.n):
            f = c_map(L, y).compose(a_map(L, x))
            expected = jt[c_map(L, x).image, a_map(L, y).image]
            assert list(star(f).image) == list(expected)


def test_star_involution_and_antitone():
    T = tight_quantale(m_lattice(3))
    imgs = np.asarray([f.image for f in T.elements])
    star_map = T.frobenius.lneg
    for i, f in enumerate(T.elements):
        assert star(f) == T.elements[star_map(i)]
        assert star(star(f)) == f
    leq = T.quantale.lattice.leq
    s = star_map.image
    assert np.array_equal(leq, leq[np.ix_(s, s)].T)


def test_star_requires_sup_preserving():
    L = m_lattice(3)
    with pytest.raises(NotSupPreserving):
        star(EndoMap(L, np.full(L.n, L.top)))


def test_rans_of_tensor_is_generator():
    L = m_lattice(3)
    for y in range(L.n):
        for x in range(L.n):
            assert raney_sup(tensor_map(L, y, x)) == \
                c_map(L, y).compose(a_map(L, x))


def test_tight_quantale_m3():
    T = tight_quantale(m_lattice(3))
    assert T.n == 44
    check_quantale(T.quantale.lattice, T.quantale.mult)
    rep = check_frobenius(T.quantale, T.frobenius.lneg, T.frobenius.rneg)
    assert rep.frobenius_valid and rep.shift_holds
    assert T.frobenius.girard
    assert find_unit(T.quantale).unit is None
    # no one-sided unit either
    ar = np.arange(T.n)
    for u in range(T.n):
        assert not (T.quantale.mult[u, :] == ar).all()
        assert not (T.quantale.mult[:, u] == ar).all()


def test_tight_quantale_chain3_unital():
    L = chain(3)
    T = tight_quantale(L)
    assert len(T.elements) == len(enumerate_sup_endomaps(L))
    unit = find_unit(T.quantale).unit
    assert unit == T.index_of(identity_map(L))


def test_tight_quantale_n5_drops_exactly_identity():
    L = n5()
    sup = {m.image.tobytes() for m in enumerate_sup_endomaps(L)}
    T = tight_quantale(L)
    tight = {f.image.tobytes() for f in T.elements}
    assert sup - tight == {identity_map(L).image.tobytes()}


def test_tight_quantale_boolean2():
    T = tight_quantale(boolean(2))
    assert T.n == 16
    assert find_unit(T.quantale).unit == T.index_of(
        identity_map(boolean(2)))


def test_tight_residual_formula():
    """f\\g = rand(rho(f) o g) inside the tight quantale."""
    T = tight_quantale(m_lattice(3))
    L = T.lattice
    lres = T.quantale.left_residual_table
    for i, f in enumerate(T.elements):
        rho = right_adjoint(f).image
        for j, g in enumerate(T.elements):
            composite = EndoMap(L, rho[g.image])
            assert lres[i, j] == T.index_of(tight_interior(composite))


def test_index_of_rejects_non_element():
    T = tight_quantale(m_lattice(3))
    with pytest.raises(ValidationFailed):
        T.index_of(identity_map(m_lattice(3)))


def test_decompose_tight():
    L = m_lattice(3)
    T = tight_quantale(L)
    for f in T.elements:
        pairs = decompose_tight(f)
        assert len(pairs) == L.n
        g = raney_inf(f)
        assert pairs == [(int(g.image[t]), t) for t in range(L.n)]
    with pytest.raises(NotTight):
        decompose_tight(identity_map(L))


def test_meet_closure_against_bruteforce():
    rng = np.random.default_rng(13)
    for L in [chain(4), m_lattice(2), m_lattice(3), n5()]:
        every = all_endo_images(L.n)
        keep = np.ones(len(every), dtype=bool)
        for x in range(L.n):
            for y in range(L.n):
                if L.leq[x, y]:
                    keep &= L.leq[every[:, x], every[:, y]]
        monotone = every[keep]
        majorant_pool = oracles.meet_endomaps_bruteforce(L)
        picks = monotone[rng.choice(len(monotone), 30, replace=False)]
        for img in picks:
            above = [g for g in majorant_pool
                     if all(L.leq[img[x], g[x]] for x in range(L.n))]
            expected = [meet_of(L, [g[x] for g in above])
                        for x in range(L.n)]
            assert list(meet_closure(EndoMap(L, img)).image) == expected


def test_meet_closure_frozen_and_errors():
    L = m_lattice(3)
    bottom = EndoMap(L, np.full(L.n, L.bot))
    closed = meet_closure(bottom)
    expected = np.full(L.n, L.bot)
    expected[L.top] = L.top
    assert list(closed.image) == list(expected)
    for g in meet_endomaps(L):
        assert meet_closure(g) == g
    with pytest.raises(NotMonotone):
        meet_closure(EndoMap(L, [1, 0, 0, 0, 0]))


def test_meet_closure_composition_equation():
    """closure(g o closure(f)) = closure(g o f) for sup-preserving g."""
    L = m_lattice(3)
    rng = np.random.default_rng(14)
    monotone = []
    for img in oracles.random_images(rng, L.n, 200):
        if not (L.leq & ~L.leq[np.ix_(img, img)]).any():
            monotone.append(img)
    sup_maps = enumerate_sup_endomaps(L)
    for f in monotone[:12]:
        cf = meet_closure(EndoMap(L, f)).image
        for g in sup_maps:
            lhs = meet_closure(EndoMap(L, g.image[cf]))
            rhs = meet_closure(EndoMap(L, g.image[f]))
            assert lhs == rhs


def test_adjunction_exhaustive_small(small_lattices):
    """rans(f) <= g iff f <= rani(g) over all endofunction pairs."""
    for L in small_lattices:
        every = all_endo_images(L.n)
        rans_all = _raney_sup_batch(L, every)
        rani_all = _raney_inf_batch(L, every)
        lhs = L.leq[rans_all[:, None, :], every[None, :, :]].all(axis=2)
        rhs = L.leq[every[:, None, :], rani_all[None, :, :]].all(axis=2)
        assert np.array_equal(lhs, rhs)


def test_adjunction_random_larger():
    rng = np.random.default_rng(15)
    for L in [m_lattice(4), m_lattice(5), chain(6), chain(7)]:
        f_imgs = oracles.random_images(rng, L.n, 2500)
        g_imgs = oracles.random_images(rng, L.n, 2500)
        lhs = L.leq[_raney_sup_batch(L, f_imgs), g_imgs].all(axis=1)
        rhs = L.leq[f_imgs, _raney_inf_batch(L, g_imgs)].all(axis=1)
        assert np.array_equal(lhs, rhs)


def test_rans_has_pointwise_right_adjoint():
    """rans(f)(x) <= y iff x <= g(y) with g(y) = meet{t | f(t) not<= y},
    for arbitrary f."""
    for L in [chain(3), m_lattice(2), m_lattice(3)]:
        every = all_endo_images(L.n)
        rans_all = _raney_sup_batch(L, every)
        for img, rf in zip(every, rans_all):
            g = oracles.rans_right_adjoint(L, img)
            assert np.array_equal(L.leq[rf[:, None], np.arange(L.n)],
                                  L.leq[:, g])


def test_rho_rans_is_rani_of_left_adjoint():
    for L in [m_lattice(3), n5()]:
        for f in meet_endomaps(L):
            lhs = right_adjoint(raney_sup(f))
            rhs = raney_inf(left_adjoint(f))
            assert lhs == rhs


def test_rans_slides_past_sup_preserving():
    L = m_lattice(3)
    rng = np.random.default_rng(16)
    g_imgs = oracles.random_images(rng, L.n, 100)
    for f in enumerate_sup_endomaps(L):
        for g in g_imgs:
            lhs = raney_sup(EndoMap(L, f.image[g]))
            rhs = EndoMap(L, f.image[raney_sup(EndoMap(L, g)).image])
            assert lhs == rhs


def test_bullet_quantale_m3():
    L = m_lattice(3)
    B = bullet_quantale(L)
    assert len(B.elements) == 50
    assert B.serre_report.serre_gc_valid
    assert B.quotient.quantale.n == 44
    assert B.frobenius.girard
    assert B.iso.passed
    assert B.tight.n == 44


def test_bullet_tensor_law():
    L = m_lattice(3)
    B = bullet_quantale(L)
    index = {f.image.tobytes(): i for i, f in enumerate(B.elements)}
    bottom_img = tensor_map(L, L.bot, L.top).image
    for v, u, y, x in itertools.product(range(L.n), repeat=4):
        a = index[tensor_map(L, v, u).image.tobytes()]
        b = index[tensor_map(L, y, x).image.tobytes()]
        got = B.elements[B.quantale.mult[a, b]].image
        if L.leq[y, u]:
            assert np.array_equal(got, bottom_img)
        else:
            assert np.array_equal(got, tensor_map(L, v, x).image)


def test_bullet_chain3_units_correspond():
    B = bullet_quantale(chain(3))
    qu = find_unit(B.quotient.quantale).unit
    tu = find_unit(B.tight.quantale).unit
    assert qu is not None
    assert B.iso.mapping[qu] == tu == B.tight.index_of(
        identity_map(chain(3)))


def test_bullet_quotient_product_is_rani_of_composed_rans():
    """On the cotight quotient g *_j f = rani(rans(g) o rans(f)): a closed
    q is rani(rans(q)) and the iso's mult flag transports the product."""
    for L in (chain(3), m_lattice(3), n5()):
        B = bullet_quantale(L)
        cot = np.asarray([B.elements[q].image for q in B.quotient.closed])
        rs = _raney_sup_batch(L, cot)
        assert np.array_equal(_raney_inf_batch(L, rs[:, rs]),
                              cot[B.quotient.quantale.mult])


def test_bullet_quotient_defect_fails_the_iso(monkeypatch):
    """A quotient with one wrong product entry is caught by the iso's
    mult flag."""
    serre_quotient = finq.raney._serre_quotient

    def one_wrong_entry(Q, l, r):
        nuc, quot, F = serre_quotient(Q, l, r)
        mult = quot.quantale.mult.copy()
        mult[0, 0] = (mult[0, 0] + 1) % quot.quantale.n
        return nuc, dataclasses.replace(
            quot, quantale=Quantale(quot.quantale.lattice, mult)), F

    monkeypatch.setattr(finq.raney, "_serre_quotient", one_wrong_entry)
    with pytest.raises(InvariantViolated) as exc:
        bullet_quantale(m_lattice(3))
    assert exc.value.witness == ["mult"]


def free_unit(Q):
    """Adjoin a unit freely: carrier Q x 2, unit (bot, 1)."""
    L = Q.lattice
    P = product(L, chain(2))
    n = L.n
    mult = np.empty((2 * n, 2 * n), dtype=np.int64)
    jt = L.join_table
    for x, beta in itertools.product(range(n), range(2)):
        for y, gamma in itertools.product(range(n), range(2)):
            first = Q.mult[x, y]
            if gamma:
                first = jt[first, x]
            if beta:
                first = jt[first, y]
            mult[2 * x + beta, 2 * y + gamma] = 2 * first + (beta & gamma)
    return check_quantale(P, mult)


def test_free_unit_is_unital_extension():
    Q0 = counterexample_3chain()
    FU = free_unit(Q0)
    assert find_unit(FU).unit == 1
    emb = np.arange(3) * 2
    assert np.array_equal(FU.mult[np.ix_(emb, emb)], emb[Q0.mult])


def test_strong_continuity_fails_into_chu_of_free_unit():
    """Mapping x to (x, top) lands the 3-chain counterexample in the Girard
    quantale over its free unital extension, but not continuously."""
    Q0 = counterexample_3chain()
    CQ, _ = chu(free_unit(Q0))
    iota = LatticeMap(Q0.lattice, CQ.lattice,
                      [(2 * x) * 6 + 5 for x in range(3)])
    rep = check_strongly_continuous(Q0, CQ, iota)
    assert not rep
    assert not rep.flags["meets"]


def test_strong_continuity_between_tight_quantales():
    """Conjugating by the embedding of the 2-chain into the 3-chain is a
    strongly continuous, non-unital map of tight quantales."""
    c2, c3 = chain(2), chain(3)
    T2, T3 = tight_quantale(c2), tight_quantale(c3)
    eps = LatticeMap(c2, c3, [0, 2])
    lam = left_adjoint(eps)
    assert list(lam.image) == [0, 1, 1]
    image = []
    for f in T2.elements:
        conj = eps.image[f.image[lam.image]]
        image.append(T3.index_of(conj))
    iota = LatticeMap(T2.quantale.lattice, T3.quantale.lattice, image)
    rep = check_strongly_continuous(T2.quantale, T3.quantale, iota)
    assert bool(rep), rep.flags
    u2 = find_unit(T2.quantale).unit
    u3 = find_unit(T3.quantale).unit
    assert u2 is not None and u3 is not None
    assert iota(u2) != u3
    assert T3.elements[iota(u2)] == c_map(c3, c3.top)
