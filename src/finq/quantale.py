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
    EndoMap,
    _adjunction_holds,
    _endo_image,
    _frozen,
    _index_array,
    _right_adjoints,
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
    quotient and powerset quantales, and chu. The residual tables are the
    lattice's _right_adjoints of the rows x*- and the columns -*y of mult;
    a Quantale returned by check_quantale already holds them, as they are
    its distributivity check.
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
        return self is other or (isinstance(other, Quantale)
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
        """Both residual tables: x\\z is the right adjoint of x*- at z, and
        z/y that of -*y, read off the transposed table's adjoints."""
        L = self.lattice
        self._keep_residuals(_right_adjoints(L, L, self.mult),
                             _right_adjoints(L, L, self.mult.T).T)
        return self.left_residual_table, self.right_residual_table

    def _keep_residuals(self, lres, rres):
        """Cache both residual tables, frozen."""
        self.__dict__.update(left_residual_table=_frozen(lres),
                             right_residual_table=_frozen(rres))


def check_quantale(lattice, mult):
    """Validate the quantale laws and return the Quantale, with both
    residual tables already computed.

    Accepts through the residual adjunction: associativity on J x J x J
    for the join-irreducibles J; then each row x*- and each column -*y of
    the table must pass the lattice's _adjunction_holds with its
    _right_adjoints, which are x\\z and z/y. A map with such a right
    adjoint preserves all joins, binary and empty, so both distributive
    laws and bottom absorption hold; then both sides of associativity are
    join-preserving in each argument, and every element is a join of
    irreducibles. That is N^2 |J| work instead of N^3.

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
    """The accept path of check_quantale: the residual tables (lres, rres)
    if every law holds, else None."""
    irr = np.asarray(lattice.join_irreducibles, dtype=np.int64)
    mJ = mult[np.ix_(irr, irr)]
    if not all(np.array_equal(mult[mult[a, irr][:, None], irr], mult[a, mJ])
               for a in irr):
        return None
    adjoints = []
    for table in (mult, mult.T):
        adj = _right_adjoints(lattice, lattice, table)
        if not _adjunction_holds(lattice, lattice, table, adj).all():
            return None
        adjoints.append(adj)
    return adjoints[0], adjoints[1].T


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
    return int(Q.left_residual_table[_elements(Q, "residual_left", x, z)])


def residual_right(Q, z, y):
    """z/y, the largest x with x*y <= z."""
    return int(Q.right_residual_table[_elements(Q, "residual_right", z, y)])


def _elements(Q, what, *xs):
    """The element arguments xs of Q, checked by _index_array, as a tuple
    of ints."""
    return tuple(_index_array(list(xs), f"{what} arguments", (len(xs),),
                              Q.n).tolist())


def element_flags(Q, zero):
    """Dualizing / cyclic / weak-cyclicity flags of a candidate element.

    zero is dualizing when 0/(x\\0) = (0/x)\\0 = x for every x, cyclic when
    x\\0 = 0/x, and weakly cyclic when the two double negations agree without
    being the identity.
    """
    zero, = _elements(Q, "element_flags", zero)
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
    x, y = _elements(Q, "dual_mult", x, y)
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
    p, = _elements(Q, "is_positive_element", p)
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
    are computed on first use.
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
