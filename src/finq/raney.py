"""Raney transforms, tight endomaps, and the two Girard quantales they form.

For an endofunction f on a complete lattice the transforms are

    rans(f)(x) = join of { f(t) | x not<= t }
    rani(f)(x) = meet of { f(t) | t not<= x }

rans always lands in sup-preserving maps, rani in meet-preserving ones, and
rans is left adjoint to rani pointwise. A map is tight when it is fixed by
rans o rani; the tight maps form a Girard quantale under composition with
the star negation star(f) = rans of the right adjoint of f. The bullet
quantale on all meet-preserving maps quotients onto its cotight part, which
rans carries isomorphically onto the tight quantale.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolated, NotMonotone, NotTight, \
    ValidationFailed
from .lattice import (
    _BLOCK_ENTRIES,
    EndoMap,
    FiniteLattice,
    _downset_fold,
    _endo_image,
    _index_array,
    _right_adjoints,
    _row_keys,
    _sup_endomap_images,
    right_adjoint,
)
from .nuclei import _serre_quotient
from .quantale import FrobeniusStructure, Quantale, check_frobenius, \
    check_quantale


def _raney_sup_batch(L, imgs):
    """rans over the rows of an (..., n) image array."""
    return _raney_fold(imgs, L.join_table, L.bot, L.leq)


def _raney_inf_batch(L, imgs):
    """rani over the rows of an (..., n) image array."""
    return _raney_fold(imgs, L.meet_table, L.top, L.leq.T)


def _raney_fold(imgs, table, start, skip):
    """out(x) = fold of table over f(t) for every t with skip[x, t] false,
    from start, for each row f of an (..., n) image array. It works on a
    contiguous (n, R) copy, one flat lookup per pair (x, t)."""
    n = imgs.shape[-1]
    cols = np.ascontiguousarray(imgs.reshape(-1, n).T, dtype=np.int64)
    out = np.full(cols.shape, start, dtype=np.int64)
    flat = table.ravel()
    for x in range(n):
        for t in np.flatnonzero(~skip[x]):
            np.take(flat, out[x] * n + cols[t], out=out[x])
    return out.T.reshape(imgs.shape)


def raney_sup(f):
    """rans(f): always sup-preserving, and tight when f is meet-preserving."""
    L = f.lattice
    return EndoMap(L, _raney_sup_batch(L, f.image[None, :])[0])


def raney_inf(f):
    """rani(f): always meet-preserving."""
    L = f.lattice
    return EndoMap(L, _raney_inf_batch(L, f.image[None, :])[0])


def tight_interior(f):
    """rans(rani(f)): the greatest tight map below f."""
    L = f.lattice
    return EndoMap(L, _raney_sup_batch(L, _raney_inf_batch(
        L, f.image[None, :]))[0])


def cotight_closure(f):
    """rani(rans(f)): the least cotight map above f."""
    L = f.lattice
    return EndoMap(L, _raney_inf_batch(L, _raney_sup_batch(
        L, f.image[None, :]))[0])


def _tight_mask(L, imgs):
    """Which rows of an (R, n) image array are tight: fixed by rans o rani."""
    return (_raney_sup_batch(L, _raney_inf_batch(L, imgs)) == imgs).all(-1)


def is_tight(f):
    return bool(_tight_mask(f.lattice, f.image[None, :])[0])


def is_cotight(f):
    return cotight_closure(f) == f


def star(f):
    """The tight negation rans(rho(f)) of a sup-preserving map."""
    g = right_adjoint(f)
    return raney_sup(g)


def _c_rows(L, ys):
    """The images of c_y, one row per entry of ys."""
    ys = _index_array(ys, "c_y value", None, L.n)
    rows = np.repeat(ys[:, None], L.n, axis=1)
    rows[:, L.bot] = L.bot
    return rows


def _a_rows(L, xs):
    """The images of a_x, one row per entry of xs."""
    xs = _index_array(xs, "a_x value", None, L.n)
    return np.where(L.leq.T[xs], L.bot, L.top)


def _generator_rows(L, ys, xs):
    """The images of c_y o a_x for the paired entries of ys and xs."""
    return np.take_along_axis(_c_rows(L, ys), _a_rows(L, xs), axis=1)


def c_map(L, y):
    """c_y: bot at bot, constantly y elsewhere; tight."""
    return EndoMap(L, _c_rows(L, [y])[0])


def a_map(L, x):
    """a_x: bot on the downset of x, top elsewhere; tight."""
    return EndoMap(L, _a_rows(L, [x])[0])


def decompose_tight(f):
    """Write a tight map as the join of the generators c_y o a_x.

    Returns the pairs (g(t), t) for g = rani(f); the pointwise join of
    c_{g(t)} o a_t over them reproduces f, which is checked
    (InvariantViolated if not).
    """
    L = f.lattice
    rd = tight_interior(f)
    if rd != f:
        bad = np.flatnonzero(rd.image != f.image)
        raise NotTight(int(bad[0]))
    g = raney_inf(f)
    pairs = [(int(g.image[t]), t) for t in range(L.n)]
    acc = np.full(L.n, L.bot, dtype=np.int64)
    for row in _generator_rows(L, g.image, np.arange(L.n)):
        acc = L.join_table[acc, row]
    bad = np.flatnonzero(acc != f.image)
    if bad.size:
        raise InvariantViolated("a tight map is the join of its generators",
                                (int(bad[0]),))
    return pairs


def meet_closure(f):
    """The least meet-preserving map above a monotone map.

    A one-row call of the batch kernel that also builds the bullet
    quantale's joins and products.
    """
    L = f.lattice
    viol = L.leq & ~L.leq[np.ix_(f.image, f.image)]
    if viol.any():
        raise NotMonotone(tuple(int(v) for v in np.argwhere(viol)[0]))
    return EndoMap(L, _meet_closure_batch(L, f.image[None, :])[0])


def _meet_closure_batch(L, imgs):
    """meet_closure over the rows of an (..., n) array of monotone maps.

    Fixpoint repair: force top |-> top, then per pass add g(x) ^ g(y) into
    g(x ^ y) for the incomparable pairs (comparable ones hold for monotone
    g) and restore monotonicity by lattice._downset_fold of the join
    table, until a pass changes nothing. Each step is forced in any
    meet-preserving majorant, so the fixpoint is the least one. Rows are
    dropped from the pass as soon as they are stable.
    """
    n, jt, mt, leq = L.n, L.join_table, L.meet_table, L.leq
    xs, ys = np.nonzero(np.triu(~(leq | leq.T)))
    meets = [(int(x), int(y), int(mt[x, y])) for x, y in zip(xs, ys)]
    g = imgs.reshape(-1, n).T.copy()
    g[L.top] = L.top
    active = np.arange(g.shape[1])
    while active.size:
        h = g[:, active]
        prev = h.copy()
        for x, y, z in meets:
            h[z] = jt[h[z], mt[h[x], h[y]]]
        _downset_fold(L, jt, h)
        g[:, active] = h
        active = active[(h != prev).any(axis=0)]
    return g.T.reshape(imgs.shape)


class _RowIndex:
    """Positions of the rows of a strictly lexsorted (N, n) image array.

    Rows are looked up by their _row_keys, whose byte order is row order,
    so a batch of lookups is one binary search.
    """

    def __init__(self, rows):
        self._keys = _row_keys(rows)
        bad = np.flatnonzero(self._keys[1:] <= self._keys[:-1])
        if bad.size:
            raise InvariantViolated("carrier rows are strictly lexsorted",
                                    (int(bad[0]),))

    def locate(self, rows):
        """Positions of the rows of an (..., n) array, and which exist."""
        keys = _row_keys(rows)
        pos = np.minimum(np.searchsorted(self._keys, keys),
                         len(self._keys) - 1)
        return pos, self._keys[pos] == keys

    def find(self, rows, what):
        """Indices of the rows of an (..., n) array, shaped (...)."""
        pos, found = self.locate(rows)
        if not found.all():
            raise ValidationFailed(f"{what} is not an element of the carrier")
        return pos


def _pair_table(A, B, fn):
    """The (len(A), len(B)) table fn(A[block], B), where fn maps a block of
    rows and all of B to the block's rows of the table. Blocks are sized so
    that an intermediate of block x len(B) x n holds at most _BLOCK_ENTRIES
    entries."""
    step = max(1, _BLOCK_ENTRIES // B.size)
    return np.concatenate([fn(A[i:i + step], B)
                           for i in range(0, len(A), step)])


def _pointwise_leq(L, imgs):
    return _pair_table(imgs, imgs,
                       lambda a, b: L.leq[a[:, None, :], b].all(axis=-1))


@dataclass(frozen=True)
class TightQuantale:
    """The Girard quantale of tight endomaps under composition."""

    lattice: FiniteLattice
    elements: tuple
    quantale: Quantale
    frobenius: FrobeniusStructure

    @property
    def n(self):
        return len(self.elements)

    def index_of(self, f):
        return int(self._index.find(_endo_image(f, self.lattice, "map"),
                                    "map"))

    def __eq__(self, other):
        return isinstance(other, TightQuantale) and \
            self.quantale == other.quantale

    def __hash__(self):
        return hash(self.quantale)


def tight_quantale(L, max_candidates=10 ** 9):
    """Enumerate the tight endomaps of L and assemble their Girard quantale.

    Elements are sorted by image array. The order is pointwise, and
    FiniteLattice.from_leq derives the joins and meets from it. The
    multiplication is composition and the negation is star, rans of the
    batched right adjoints, both located through one sorted row index.
    Laws are not re-verified here; check_quantale and check_frobenius
    accept the result.
    """
    imgs = _sup_endomap_images(L, max_candidates)
    imgs = imgs[_tight_mask(L, imgs)]
    index = _RowIndex(imgs)
    lat = FiniteLattice.from_leq(_pointwise_leq(L, imgs))
    comp = _pair_table(imgs, imgs,
                       lambda a, b: index.find(a[:, b], "composition"))
    Q = Quantale(lat, comp)

    star_idx = index.find(
        _raney_sup_batch(L, _right_adjoints(L, L, imgs)), "star")
    F = FrobeniusStructure(Q, EndoMap(lat, star_idx), EndoMap(lat, star_idx))

    elements = tuple(EndoMap(L, row) for row in imgs)
    T = TightQuantale(L, elements, Q, F)
    object.__setattr__(T, "_index", index)
    return T


@dataclass(frozen=True, eq=False)
class IsoReport:
    """A candidate quantale isomorphism, as an index mapping plus flags."""

    mapping: np.ndarray
    flags: dict

    @property
    def passed(self):
        return all(self.flags.values())

    def __bool__(self):
        return self.passed


@dataclass(frozen=True, eq=False)
class BulletStructure:
    """The bullet quantale on meet-preserving endomaps of a lattice.

    Carries the self-adjoint Serre Galois connection perp(f) = rani of the
    left adjoint of f, whose nucleus is the cotight closure; the quotient
    onto the cotight maps; and the isomorphism that rans induces from that
    quotient onto the tight quantale.
    """

    lattice: FiniteLattice
    elements: tuple
    quantale: Quantale
    perp: EndoMap
    serre_report: object
    quotient: object
    frobenius: FrobeniusStructure
    tight: TightQuantale
    iso: IsoReport


def tensor_map(L, y, x):
    """The elementary tensor: top at top, y on the rest of the upset of x,
    bot elsewhere; rans of it is c_y o a_x."""
    y, x = _index_array([y, x], "tensor_map arguments", (2,), L.n)
    img = np.where(L.leq[x, :], y, L.bot)
    img[L.top] = L.top
    return EndoMap(L, img)


def bullet_quantale(L, max_candidates=10 ** 9):
    """Assemble the bullet quantale g . f = meet_closure(rans(g) o f).

    The carrier is the meet-preserving maps, i.e. the sup-preserving maps
    of the dual lattice, indexed by one sorted row index. Its order is
    pointwise, and FiniteLattice.from_leq derives the joins and meets from
    it. Products are batched meet closures; perp is rani of the batched
    left adjoints. Verifies the quantale laws, the Serre Galois connection
    perp, that its nucleus is the cotight closure, and that rans is an
    isomorphism from the cotight quotient onto tight_quantale(L)
    transporting perp to star; a failure of the last three is a library
    defect and raises InvariantViolated. The quotient product is then
    rani(rans(g) o rans(f)) with no table of its own: a closed q is
    rani(rans(q)), as the nucleus is the cotight closure, and the iso's
    mult flag gives rans(g *_j f) = rans(g) o rans(f).
    """
    D = L.dual()
    imgs = _sup_endomap_images(D, max_candidates)
    index = _RowIndex(imgs)
    elements = tuple(EndoMap(L, row) for row in imgs)
    lat = FiniteLattice.from_leq(_pointwise_leq(L, imgs))

    rans_rows = _raney_sup_batch(L, imgs)
    mult = _pair_table(rans_rows, imgs, lambda a, b: index.find(
        _meet_closure_batch(L, a[:, b]), "bullet product"))
    Q = check_quantale(lat, mult)

    perp_idx = index.find(
        _raney_inf_batch(L, _right_adjoints(D, D, imgs)), "perp")
    perp = EndoMap(lat, perp_idx)
    serre_report = check_frobenius(Q, perp_idx, perp_idx)
    if not serre_report.serre_gc_valid:
        raise InvariantViolated("perp is a Serre Galois connection",
                                serre_report.witnesses)

    nuc, quot, Fq = _serre_quotient(Q, perp_idx, perp_idx)
    ranD_idx = index.find(_raney_inf_batch(L, rans_rows), "cotight closure")
    bad = np.flatnonzero(nuc.image != ranD_idx)
    if bad.size:
        raise InvariantViolated("the Serre nucleus is the cotight closure",
                                (int(bad[0]),))

    sub = np.asarray(quot.closed, dtype=np.int64)
    T = tight_quantale(L, max_candidates=max_candidates)
    mapping = T._index.find(rans_rows[sub], "rans image")
    flags = {}
    flags["bijective"] = len(set(mapping.tolist())) == T.n == len(sub)
    qlat = quot.quantale.lattice
    flags["order_iso"] = bool(np.array_equal(
        qlat.leq, T.quantale.lattice.leq[np.ix_(mapping, mapping)]))
    flags["mult"] = bool(np.array_equal(
        mapping[quot.quantale.mult],
        T.quantale.mult[np.ix_(mapping, mapping)]))
    flags["negation"] = bool(np.array_equal(
        mapping[Fq.lneg.image], T.frobenius.lneg.image[mapping]))
    iso = IsoReport(mapping, flags)
    if not iso.passed:
        raise InvariantViolated(
            "rans is an isomorphism onto the tight quantale",
            [k for k, v in flags.items() if not v])

    return BulletStructure(L, elements, Q, perp, serre_report, quot, Fq,
                           T, iso)
