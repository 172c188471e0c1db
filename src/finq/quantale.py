"""Quantales on finite lattices: residuals, dualizing elements, Serre pairs,
Frobenius and Girard structure, the Chu construction, units and positivity.

A quantale is a complete lattice with an associative multiplication that
distributes over arbitrary joins in each argument. Finiteness reduces every
"arbitrary join" condition to the empty and binary cases, and every element
is the join of the join-irreducibles below it, so the law checks and the
residual tables below run over the join-irreducibles.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    BottomNotAbsorbed,
    CoincidenceFailed,
    InvariantViolated,
    NotADuality,
    NotAssociative,
    NotDistributive,
    NotDualizing,
    NotInjective,
    ValidationFailed,
)
from .lattice import (
    _BLOCK_ENTRIES,
    EndoMap,
    _endo_image,
    _frozen,
    _index_array,
    product,
)


class Quantale:
    """A lattice with a multiplication table. Use check_quantale to build a
    validated instance; this constructor only checks that the table is a
    square table of integer element indices.

    The residual tables, find_unit, is_positive_quantale and the shift
    relation of check_frobenius assume bottom absorption and both
    distributive laws (associativity is not needed). Every quantale the
    library builds satisfies them: check_quantale, the tight, bullet,
    quotient and powerset quantales, and chu. Both residual tables come
    from one _residual_fold; a Quantale returned by check_quantale already
    holds them, as that fold is its distributivity check.
    """

    def __init__(self, lattice, mult):
        self.lattice = lattice
        n = lattice.n
        self.mult = _frozen(
            _index_array(mult, "multiplication table", (n, n), n))

    @property
    def n(self):
        return self.lattice.n

    def mult_of(self, x, y):
        return int(self.mult[x, y])

    def __eq__(self, other):
        return (isinstance(other, Quantale)
                and self.lattice == other.lattice
                and np.array_equal(self.mult, other.mult))

    def __hash__(self):
        return hash((self.lattice, self.mult.tobytes()))

    def __repr__(self):
        return f"Quantale(n={self.n})"

    @cached_property
    def left_residual_table(self):
        """table[x, z] = x\\z = join of {y | x*y <= z}."""
        return self._residuals()[0]

    @cached_property
    def right_residual_table(self):
        """table[z, y] = z/y = join of {x | x*y <= z}."""
        return self._residuals()[1]

    def _residuals(self):
        """Both residual tables, from one _residual_fold."""
        self._keep_residuals(*_residual_fold(self.lattice, self.mult))
        return self.left_residual_table, self.right_residual_table

    def _keep_residuals(self, lres, rres):
        """Cache both tables of _residual_fold, frozen."""
        self.__dict__.update(left_residual_table=_frozen(lres),
                             right_residual_table=_frozen(rres))


def _residual_fold(lattice, mult):
    """(lres, rres) with lres[x, z] = join of {j in J | x*j <= z} and
    rres[z, y] = join of {j in J | j*y <= z}: one step per join-irreducible
    j, in row blocks of x and of y.

    Under bottom absorption and distributivity {y | x*y <= z} is closed
    under joins and holds every irreducible below its join, so these are
    the residuals x\\z and z/y. For any table, x*- preserves all joins iff
    it is monotone and x*lres[x, z] <= z for every z (then lres[x, z] is
    the largest y with x*y <= z, a right adjoint), and likewise -*y with
    rres[z, y]*y <= z: check_quantale accepts on that.
    """
    leq, jt, n, bot = lattice.leq, lattice.join_table, lattice.n, lattice.bot
    steps = [(jt[:, j].copy(), mult[:, j], mult[j, :])
             for j in lattice.join_irreducibles]
    lres = np.full((n, n), bot, dtype=np.int64)
    rres = np.empty_like(lres)
    step = max(1, _BLOCK_ENTRIES // n)
    for b in range(0, n, step):
        rows = slice(b, b + step)
        left = lres[rows]
        right = np.full_like(left, bot)         # right[y - b, z] = z/y
        for col, xj, jy in steps:
            np.copyto(left, col[left], where=leq[xj[rows]])
            np.copyto(right, col[right], where=leq[jy[rows]])
        rres[:, rows] = right.T
    return lres, rres


def check_quantale(lattice, mult):
    """Validate the quantale laws and return the Quantale, with both
    residual tables already computed.

    Accepts through the residual adjunction, cheapest law first: bottom
    absorption on both sides; associativity on J x J x J for the
    join-irreducibles J; x*- and -*y monotone, checked on the covers;
    then one _residual_fold and its counits x*(x\\z) <= z and
    (z/y)*y <= z for all x, y, z. A monotone map with such a right adjoint
    preserves all joins (binary and empty), so both distributive laws
    hold; then both sides of associativity are join-preserving in each
    argument, and every element is a join of irreducibles. That is
    N^2 |J| work instead of N^3, and the fold's tables are the residuals.

    When any of these fails, _first_law_violation rescans in lexicographic
    index order, so the error type and the first witness do not depend on
    the accept path: associativity first, then left and right
    distributivity over binary joins, then bottom absorption (the empty
    join).
    """
    Q = Quantale(lattice, mult)
    tables = _laws_hold_on_irreducibles(lattice, Q.mult)
    if not tables:
        _first_law_violation(lattice, Q.mult)
    Q._keep_residuals(*tables)
    return Q


def _laws_hold_on_irreducibles(lattice, mult):
    """The accept path of check_quantale: _residual_fold's (lres, rres)
    if every law holds, else None."""
    n, bot = lattice.n, lattice.bot
    if not ((mult[bot, :] == bot).all() and (mult[:, bot] == bot).all()):
        return None
    irr = np.asarray(lattice.join_irreducibles, dtype=np.int64)
    mJ = mult[np.ix_(irr, irr)]
    if not all(np.array_equal(mult[mult[a, irr][:, None], irr], mult[a, mJ])
               for a in irr):
        return None
    if not _monotone_on_covers(lattice, mult):
        return None
    lres, rres = _residual_fold(lattice, mult)
    leq_f, mult_f, ar = lattice.leq.ravel(), mult.ravel(), np.arange(n)
    # x*(x\z) <= z and (z/y)*y <= z, in row blocks of x and of z
    if not _all_in_blocks(n, n, lambda s: (
            leq_f[mult_f[ar[s, None] * n + lres[s]] * n + ar].all()
            and leq_f[mult_f[rres[s] * n + ar] * n + ar[s, None]].all())):
        return None
    return lres, rres


def _monotone_on_covers(lattice, mult):
    """a*y <= b*y and y*a <= y*b for every cover (a, b) and every y."""
    n, cov, leq_f = lattice.n, lattice.cover_array, lattice.leq.ravel()
    return all(_all_in_blocks(len(cov), n, lambda s, t=t: leq_f[
        t[cov[s, 0]] * n + t[cov[s, 1]]].all())
        for t in (mult, np.ascontiguousarray(mult.T)))


def _all_in_blocks(count, width, check):
    """Whether check(rows) holds for every slice of range(count), in
    blocks of at most _BLOCK_ENTRIES // width rows of width entries."""
    step = max(1, _BLOCK_ENTRIES // width)
    return all(check(slice(b, b + step)) for b in range(0, count, step))


def _first_law_violation(lattice, mult):
    """Raise the first violated quantale law in lexicographic order; reached
    only once the accept path of check_quantale has failed."""
    jt = lattice.join_table
    n = lattice.n
    for x in range(n):
        left = mult[mult[x, :], :]
        right = mult[x, mult]
        if not np.array_equal(left, right):
            y, z = map(int, np.argwhere(left != right)[0])
            raise NotAssociative(x, y, z)
    for x in range(n):
        row = mult[x, :]
        lhs = mult[x, jt]
        rhs = jt[row[:, None], row[None, :]]
        if not np.array_equal(lhs, rhs):
            y, z = map(int, np.argwhere(lhs != rhs)[0])
            raise NotDistributive("left", x, y, z)
    for x in range(n):
        col = mult[:, x]
        lhs = mult[jt, x]
        rhs = jt[col[:, None], col[None, :]]
        if not np.array_equal(lhs, rhs):
            y, z = map(int, np.argwhere(lhs != rhs)[0])
            raise NotDistributive("right", x, y, z)
    bad = np.flatnonzero(mult[lattice.bot, :] != lattice.bot)
    if bad.size:
        raise BottomNotAbsorbed(int(bad[0]), "left")
    bad = np.flatnonzero(mult[:, lattice.bot] != lattice.bot)
    if bad.size:
        raise BottomNotAbsorbed(int(bad[0]), "right")
    raise InvariantViolated(
        "a law that fails on join-irreducibles fails on some triple")


def residual_left(Q, x, z):
    """x\\z, the largest y with x*y <= z."""
    return int(Q.left_residual_table[x, z])


def residual_right(Q, z, y):
    """z/y, the largest x with x*y <= z."""
    return int(Q.right_residual_table[z, y])


def element_flags(Q, zero):
    """Dualizing / cyclic / weak-cyclicity flags of a candidate element.

    zero is dualizing when 0/(x\\0) = (0/x)\\0 = x for every x, cyclic when
    x\\0 = 0/x, and weakly cyclic when the two double negations agree without
    being the identity.
    """
    lneg = Q.right_residual_table[zero, :]
    rneg = Q.left_residual_table[:, zero]
    ar = np.arange(Q.n)
    lr = lneg[rneg]
    rl = rneg[lneg]
    return {
        "dualizing": bool((lr == ar).all() and (rl == ar).all()),
        "cyclic": bool((lneg == rneg).all()),
        "weakly_cyclic": bool((lr == rl).all()),
    }


@dataclass(frozen=True)
class FrobeniusStructure:
    """A quantale with a pair of inverse antitone negations satisfying the
    Serre identity x\\lneg(y) = rneg(x)/y."""

    quantale: Quantale
    lneg: EndoMap
    rneg: EndoMap

    @property
    def girard(self):
        return bool(np.array_equal(self.lneg.image, self.rneg.image))

    @cached_property
    def report(self):
        return check_frobenius(self.quantale, self.lneg, self.rneg)

    def __hash__(self):
        return hash((self.quantale, self.lneg, self.rneg))


@dataclass
class SerrePairReport:
    """Diagnostics for a candidate pair (l, r) of negation maps.

    frobenius_valid is the Definition-of-structure aggregate (inverse antitone
    pair with the Serre identity); serre_gc_valid is the weaker
    Galois-connection aggregate used by the quotient machinery.
    """

    antitone: bool
    is_galois: bool
    is_inverse_pair: bool
    commutes: bool
    shift_holds: bool
    serre_identity: bool
    images_coincide: bool
    girard: bool
    witnesses: dict = field(default_factory=dict)

    @property
    def frobenius_valid(self):
        return self.antitone and self.is_inverse_pair and self.serre_identity

    @property
    def serre_gc_valid(self):
        return self.antitone and self.is_galois and self.commutes \
            and self.shift_holds

    def to_dict(self):
        return {
            "antitone": self.antitone,
            "is_galois": self.is_galois,
            "is_inverse_pair": self.is_inverse_pair,
            "commutes": self.commutes,
            "shift_holds": self.shift_holds,
            "serre_identity": self.serre_identity,
            "images_coincide": self.images_coincide,
            "girard": self.girard,
            "frobenius_valid": self.frobenius_valid,
            "serre_gc_valid": self.serre_gc_valid,
            "witnesses": {k: list(v) for k, v in self.witnesses.items()},
        }


def check_frobenius(Q, lneg, rneg):
    """Evaluate every Serre-pair diagnostic for (lneg, rneg).

    The Galois-connection law is y <= lneg(x) iff x <= rneg(y); the shift
    relation is x*z <= lneg(y) iff z*y <= rneg(x). All scans are exhaustive
    and the first counterexample per failed flag is recorded.

    Q must satisfy bottom absorption and both distributive laws (see
    Quantale). Then x*z <= lneg(y) iff z <= x\\lneg(y) and z*y <= rneg(x)
    iff z <= rneg(x)/y, so the shift relation is the Serre identity
    x\\lneg(y) = rneg(x)/y, read off the residual tables. Its witness
    (x, z, y) takes x from the first row where the identity fails and (z, y)
    as the first pair with z below exactly one of x\\lneg(y) and
    rneg(x)/y.
    """
    n, leq = Q.n, Q.lattice.leq
    l = _endo_image(lneg, Q.lattice, "lneg")
    r = _endo_image(rneg, Q.lattice, "rneg")
    ar = np.arange(n)
    witnesses = {}

    def first(mask, key):
        bad = np.argwhere(mask)
        if bad.size:
            witnesses[key] = tuple(int(v) for v in bad[0])
            return True
        return False

    anti_l = leq & ~leq[np.ix_(l, l)].T
    anti_r = leq & ~leq[np.ix_(r, r)].T
    antitone = not (first(anti_l, "antitone_lneg")
                    | first(anti_r, "antitone_rneg"))

    galois = leq[:, l].T == leq[:, r]
    is_galois = not first(~galois, "is_galois")

    inv = (l[r] != ar) | (r[l] != ar)
    is_inverse_pair = not first(inv, "is_inverse_pair")

    commutes = not first(l[r] != r[l], "commutes")

    lres, rres = Q.left_residual_table, Q.right_residual_table
    bad = np.argwhere(lres[:, l] != rres[r, :])
    serre_identity = not bad.size
    if bad.size:
        x = int(bad[0][0])
        below = leq[:, lres[x, l]] != leq[:, rres[r[x], :]]
        z, y = map(int, np.argwhere(below)[0])
        witnesses["shift_holds"] = (x, z, y)
        witnesses["serre_identity"] = tuple(int(v) for v in bad[0])

    images_coincide = set(l.tolist()) == set(r.tolist())
    girard = bool(np.array_equal(l, r))

    return SerrePairReport(antitone, is_galois, is_inverse_pair, commutes,
                           serre_identity, serre_identity, images_coincide,
                           girard, witnesses)


def frobenius_from_dualizing(Q, zero):
    """The Frobenius structure induced by a dualizing element:
    lneg(x) = 0/x and rneg(x) = x\\0."""
    flags = element_flags(Q, zero)
    if not flags["dualizing"]:
        lneg = Q.right_residual_table[zero, :]
        rneg = Q.left_residual_table[:, zero]
        bad = np.flatnonzero(lneg[rneg] != np.arange(Q.n))
        wit = int(bad[0]) if bad.size else int(
            np.flatnonzero(rneg[lneg] != np.arange(Q.n))[0])
        raise NotDualizing(zero, wit)
    F = FrobeniusStructure(Q,
                           EndoMap(Q.lattice, Q.right_residual_table[zero, :]),
                           EndoMap(Q.lattice, Q.left_residual_table[:, zero]))
    _require_valid(F, "a dualizing element induces a Frobenius structure")
    return F


def _require_valid(F, what):
    """Raise InvariantViolated unless F's report is Frobenius-valid, which
    includes the shift relation."""
    if not F.report.frobenius_valid:
        raise InvariantViolated(what, F.report.witnesses)


def dual_mult(F, x, y):
    """The dual multiplication lneg(rneg(y) * rneg(x)), asserted against its
    three equivalent forms."""
    Q = F.quantale
    l, r = F.lneg.image, F.rneg.image
    e1 = int(l[Q.mult[r[y], r[x]]])
    e2 = int(r[Q.mult[l[y], l[x]]])
    e3 = int(Q.left_residual_table[l[x], y])
    e4 = int(Q.right_residual_table[x, r[y]])
    if not e1 == e2 == e3 == e4:
        raise CoincidenceFailed(x, y, (e1, e2, e3, e4))
    return e1


def dual_mult_table(F):
    Q = F.quantale
    l, r = F.lneg.image, F.rneg.image
    e1 = l[Q.mult[r[:, None], r[None, :]]].T
    e2 = r[Q.mult[l[:, None], l[None, :]]].T
    e3 = Q.left_residual_table[l, :]
    e4 = Q.right_residual_table[:, r]
    for other in (e2, e3, e4):
        bad = np.argwhere(e1 != other)
        if bad.size:
            x, y = map(int, bad[0])
            raise CoincidenceFailed(x, y, (int(e1[x, y]), int(other[x, y])))
    return _frozen(e1)


class UnitReport(NamedTuple):
    unit: Optional[int]
    candidate: int
    xu_below_x: bool
    ux_below_x: bool


def find_unit(Q):
    """Locate a two-sided unit if one exists and report the canonical
    candidate u = meet of {x\\x ^ x/x}.

    The candidate always satisfies x*u <= x and u*x <= x; when the quantale
    is unital the unit is the largest such element.
    """
    n, ar = Q.n, np.arange(Q.n)
    unit = None
    for u in range(n):
        if (Q.mult[u, :] == ar).all() and (Q.mult[:, u] == ar).all():
            unit = u
            break
    dl = Q.left_residual_table.diagonal()
    dr = Q.right_residual_table.diagonal()
    mt = Q.lattice.meet_table
    cand = Q.lattice.top
    for x in range(n):
        cand = int(mt[cand, mt[dl[x], dr[x]]])
    xu = bool(Q.lattice.leq[Q.mult[:, cand], ar].all())
    ux = bool(Q.lattice.leq[Q.mult[cand, :], ar].all())
    return UnitReport(unit, cand, xu, ux)


def is_positive_element(Q, p):
    """x <= x*p and x <= p*x for every x."""
    ar = np.arange(Q.n)
    return bool(Q.lattice.leq[ar, Q.mult[:, p]].all()
                and Q.lattice.leq[ar, Q.mult[p, :]].all())


def is_positive_quantale(Q):
    """Every element of the form x\\x or x/x is positive."""
    dl = Q.left_residual_table.diagonal()
    dr = Q.right_residual_table.diagonal()
    return all(is_positive_element(Q, int(p))
               for p in set(dl.tolist()) | set(dr.tolist()))


class ContinuityReport:
    """Outcome of a strong-continuity check; truthy iff all parts pass."""

    def __init__(self, flags, witnesses):
        self.flags = flags
        self.witnesses = witnesses

    def __bool__(self):
        return all(self.flags.values())

    def __repr__(self):
        return f"ContinuityReport({self.flags})"


def check_strongly_continuous(Q0, Q1, iota):
    """True iff the injection preserves joins, meets, multiplication and both
    residuals; all conditions are checked pairwise plus the empty cases."""
    if iota.source != Q0.lattice or iota.target != Q1.lattice:
        raise ValidationFailed("map endpoints do not match the quantales")
    img = iota.image
    if len(set(img.tolist())) != Q0.n:
        seen = {}
        for x, v in enumerate(img.tolist()):
            if v in seen:
                raise NotInjective((seen[v], x))
            seen[v] = x
    flags, wit = {}, {}

    def record(name, lhs, rhs):
        ok = np.array_equal(lhs, rhs)
        flags[name] = bool(ok)
        if not ok:
            bad = np.argwhere(np.asarray(lhs) != np.asarray(rhs))
            wit[name] = tuple(int(v) for v in bad[0])

    ix = np.ix_(img, img)
    record("joins", img[Q0.lattice.join_table], Q1.lattice.join_table[ix])
    flags["joins"] &= bool(img[Q0.lattice.bot] == Q1.lattice.bot)
    record("meets", img[Q0.lattice.meet_table], Q1.lattice.meet_table[ix])
    flags["meets"] &= bool(img[Q0.lattice.top] == Q1.lattice.top)
    record("mult", img[Q0.mult], Q1.mult[ix])
    record("left_residuals", img[Q0.left_residual_table],
           Q1.left_residual_table[ix])
    record("right_residuals", img[Q0.right_residual_table],
           Q1.right_residual_table[ix])
    return ContinuityReport(flags, wit)


def chu(Q, validate=True):
    """The Chu construction on Q x Q^op.

    (x1,x2) * (y1,y2) = (x1*y1, y1\\x2 ^ y2/x1) with the swap (x1,x2) |->
    (x2,x1) as both negations; the result is a Girard quantale, unital iff Q
    is, with unit (u, top). With validate, the result is the Quantale that
    check_quantale returns, residual tables included, and a swap pair that
    is not Frobenius raises InvariantViolated; without, the residual tables
    are folded on first use.
    """
    L = Q.lattice
    n = L.n
    carrier = product(L, L.dual())
    lres, rres = Q.left_residual_table, Q.right_residual_table

    second = L.meet_table[lres.T[None, :, :, None], rres.T[:, None, None, :]]
    comp = (Q.mult[:, None, :, None] * n + second).reshape(n * n, n * n)

    ar2 = np.arange(n * n)
    swap = (ar2 % n) * n + ar2 // n

    CQ = check_quantale(carrier, comp) if validate else Quantale(carrier, comp)
    F = FrobeniusStructure(CQ, EndoMap(carrier, swap), EndoMap(carrier, swap))
    if validate:
        _require_valid(F, "the Chu construction is a Girard quantale")
    return CQ, F


def trivial_quantale(L, duality=None):
    """x*y = bot everywhere; with an inverse antitone pair attached, a
    Frobenius structure (the shift relation holds vacuously)."""
    Q = check_quantale(L, np.full((L.n, L.n), L.bot, dtype=np.int64))
    if duality is None:
        return Q
    l = _endo_image(duality[0], L, "l")
    r = _endo_image(duality[1], L, "r")
    for name, img in (("l", l), ("r", r)):
        if len(set(img.tolist())) != L.n:
            raise NotADuality(f"{name} is not a bijection")
        viol = L.leq & ~L.leq[np.ix_(img, img)].T
        if viol.any():
            raise NotADuality(f"{name} is not antitone")
    ar = np.arange(L.n)
    if not ((l[r] == ar).all() and (r[l] == ar).all()):
        raise NotADuality("maps are not mutually inverse")
    F = FrobeniusStructure(Q, EndoMap(L, l), EndoMap(L, r))
    _require_valid(F, "a duality on the trivial quantale is Frobenius")
    return F
