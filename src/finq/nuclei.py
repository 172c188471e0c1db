"""Nuclei, quotient quantales, Serre Galois connections, phase quantales.

A nucleus j on a quantale yields the quotient on its fixed points with
x *_j y = j(x * y).  Serre Galois connections induce such nuclei via
j = l o r and their restrictions equip the quotient with a Frobenius
structure.  Powerset quantales over finite semigroups, together with the
Galois maps of a binary relation, specialize this to phase quantales; the
representation theorem runs the construction backwards on principal
downsets without ever materializing a powerset.
"""

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    BudgetExceeded,
    InvariantViolated,
    NotANucleus,
    NotAssociativeRelation,
    NotSerreDualityOnQuotient,
    NotSerreGC,
    NotWeaklySymmetric,
    ValidationFailed,
)
from .lattice import (
    EndoMap,
    FiniteLattice,
    LatticeMap,
    _bool_table,
    _downset_fold,
    _endo_image,
    _frozen,
    _index_array,
    boolean,
)
from .quantale import FrobeniusStructure, Quantale, check_frobenius, \
    find_unit


@dataclass(frozen=True)
class Nucleus:
    """A closure operator j with j(x)*j(y) <= j(x*y)."""

    quantale: Quantale
    image: np.ndarray

    def __post_init__(self):
        n = self.quantale.n
        object.__setattr__(self, "image", _frozen(
            _index_array(self.image, "nucleus image", (n,), n)))

    def __call__(self, x):
        return int(self.image[x])

    def __eq__(self, other):
        return isinstance(other, Nucleus) and \
            self.quantale == other.quantale and \
            np.array_equal(self.image, other.image)

    def __hash__(self):
        return hash((self.quantale, self.image.tobytes()))


class NucleusReport(NamedTuple):
    ok: bool
    law: Optional[str]
    witness: Optional[tuple]

    def __bool__(self):
        return self.ok


def is_nucleus(Q, j):
    """Check the closure-operator laws and lax multiplicativity of j.

    Returns a report carrying the first violated law and a witness; an
    image array of the wrong length or range is the law "shape", while a
    Nucleus or EndoMap of another quantale or lattice raises
    ValidationFailed. Q must have a monotone multiplication: then the
    split form x*j(y) <= j(x*y) follows from x*j(y) <= j(x)*j(y) <=
    j(x*y), and j(x)*y <= j(x*y) likewise.
    """
    n, leq = Q.n, Q.lattice.leq
    img = _index_array(_map_image(Q, j), "nucleus image", None, None)
    if img.shape != (n,) or img.min() < 0 or img.max() >= n:
        return NucleusReport(False, "shape", None)
    ar = np.arange(n)

    bad = np.argwhere(leq & ~leq[np.ix_(img, img)])
    if bad.size:
        return NucleusReport(False, "isotone", tuple(map(int, bad[0])))
    bad = np.argwhere(~leq[ar, img])
    if bad.size:
        return NucleusReport(False, "increasing", (int(bad[0][0]),))
    bad = np.argwhere(img[img] != img)
    if bad.size:
        return NucleusReport(False, "idempotent", (int(bad[0][0]),))

    bad = np.argwhere(~leq[Q.mult[np.ix_(img, img)], img[Q.mult]])
    if bad.size:
        return NucleusReport(False, "lax_multiplicative",
                             tuple(map(int, bad[0])))
    return NucleusReport(True, None, None)


def _map_image(Q, j):
    """The image of j, a Nucleus of Q or an EndoMap of its lattice
    (ValidationFailed for one of another), or j itself."""
    if isinstance(j, Nucleus):
        if j.quantale != Q:
            raise ValidationFailed("the nucleus belongs to a different "
                                   "quantale")
        return j.image
    if isinstance(j, LatticeMap):
        return _endo_image(j, Q.lattice, "nucleus")
    return j


@dataclass(frozen=True)
class QuotientQuantale:
    """The quantale on the j-closed elements of an ambient quantale."""

    ambient: Quantale
    nucleus: Nucleus
    closed: tuple
    quantale: Quantale
    to_closed: np.ndarray

    def closed_index(self, ambient_element):
        """Index within the quotient of a closed ambient element."""
        idx = int(self.to_closed[ambient_element])
        if idx < 0:
            raise ValidationFailed(
                f"element {ambient_element} is not closed")
        return idx


def quotient_quantale(Q, j):
    """Restrict Q to the fixed points of the nucleus j.

    The quotient lattice is the ambient order restricted to the closed
    elements, with its tables from FiniteLattice.from_leq (its joins are j
    of the ambient joins, its meets the ambient ones). The induced
    multiplication is x *_j y = j(x * y). The projection j: Q -> Q_j is
    checked to be a surjective quantale homomorphism. A Nucleus or EndoMap
    of another quantale or lattice raises ValidationFailed.
    """
    nuc = j if isinstance(j, Nucleus) else Nucleus(Q, _map_image(Q, j))
    rep = is_nucleus(Q, nuc)
    if not rep:
        raise NotANucleus(rep.law, rep.witness)
    img = nuc.image

    ar = np.arange(Q.n)
    closed = tuple(int(x) for x in ar[img == ar])
    sub = np.asarray(closed, dtype=np.int64)
    to_closed = np.full(Q.n, -1, dtype=np.int64)
    to_closed[sub] = np.arange(len(closed))

    L = Q.lattice
    labels = None if L.labels is None else [L.labels[x] for x in closed]
    lat = FiniteLattice.from_leq(L.leq[np.ix_(sub, sub)], labels)

    mult_j = to_closed[img[Q.mult[np.ix_(sub, sub)]]]
    quot = Quantale(lat, mult_j)

    # j is a homomorphism: j(x*y) = j(x) *_j j(y), surjective by fixpoints
    jq = to_closed[img]
    bad = np.argwhere(jq[Q.mult] != mult_j[np.ix_(jq, jq)])
    if bad.size:
        raise InvariantViolated("the nucleus is a quantale homomorphism",
                                tuple(map(int, bad[0])))
    return QuotientQuantale(Q, nuc, closed, quot, to_closed)


_SERRE_FLAGS = ("antitone", "is_galois", "commutes", "shift_holds")


def serre_gc_quotient(Q, l, r):
    """Quotient Q by the nucleus j = l o r of a Serre Galois connection.

    (l, r) must be an antitone Galois connection whose composites commute
    and which satisfies the shift relation x*z <= l(y) iff z*y <= r(x),
    checked once (NotSerreGC). The restrictions of l and r to the closed
    elements form a Frobenius structure on the quotient.
    """
    _raise_first_failure(check_frobenius(Q, l, r), _SERRE_FLAGS, NotSerreGC)
    return _serre_quotient(Q, _endo_image(l, Q.lattice, "l"),
                           _endo_image(r, Q.lattice, "r"))


def _serre_quotient(Q, l, r):
    """serre_gc_quotient for image arrays l, r whose Serre flags the
    caller has checked; what follows from them raises InvariantViolated
    if it fails."""
    try:
        quot = quotient_quantale(Q, Nucleus(Q, l[r]))
    except NotANucleus as exc:
        raise InvariantViolated("l o r of a Serre Galois connection is a "
                                f"nucleus ({exc.law})", exc.witness) from None

    sub = np.asarray(quot.closed, dtype=np.int64)
    l_j = quot.to_closed[l[sub]]
    r_j = quot.to_closed[r[sub]]
    bad = np.flatnonzero((l_j < 0) | (r_j < 0))
    if bad.size:
        raise InvariantViolated("l and r map closed elements to closed ones",
                                int(sub[bad[0]]))
    F = FrobeniusStructure(quot.quantale,
                           EndoMap(quot.quantale.lattice, l_j),
                           EndoMap(quot.quantale.lattice, r_j))
    if not F.report.frobenius_valid:
        raise InvariantViolated("the restricted pair is a Frobenius "
                                "structure on the quotient",
                                F.report.witnesses)
    return quot.nucleus, quot, F


def _raise_first_failure(rep, flags, error):
    """Raise error(flag, witness) for the first of flags that the
    SerrePairReport rep fails; a failed "antitone" is witnessed under
    antitone_lneg or antitone_rneg."""
    for name in flags:
        if not getattr(rep, name):
            w = rep.witnesses
            raise error(name, w.get(name) or w.get("antitone_lneg")
                        or w.get("antitone_rneg"))


def lift_serre(Q, j, l, r):
    """Lift a Serre duality (l, r) on Q_j to the Serre GC (l o j, r o j).

    l and r act on the closed indices of Q_j, given by a nucleus on Q or a
    quotient of Q (ValidationFailed otherwise). The lifted pair is checked
    to be a Serre GC on Q whose quotient reproduces (Q_j, l, r).
    """
    quot = j if isinstance(j, QuotientQuantale) else \
        quotient_quantale(Q, j)
    if quot.ambient != Q:
        raise ValidationFailed("the quotient is not a quotient of Q")
    l_j = _endo_image(l, quot.quantale.lattice, "l")
    r_j = _endo_image(r, quot.quantale.lattice, "r")
    _raise_first_failure(check_frobenius(quot.quantale, l_j, r_j),
                         ("antitone", "is_inverse_pair", "shift_holds"),
                         NotSerreDualityOnQuotient)

    sub = np.asarray(quot.closed, dtype=np.int64)
    jc = quot.to_closed[quot.nucleus.image]
    lifted_l = sub[l_j[jc]]
    lifted_r = sub[r_j[jc]]
    lrep = check_frobenius(Q, lifted_l, lifted_r)
    if not lrep.serre_gc_valid:
        raise InvariantViolated("the lifted pair is a Serre Galois "
                                "connection", lrep.witnesses)

    # round-trip: quotienting by the lifted pair restores the input
    _, quot2, F2 = _serre_quotient(Q, lifted_l, lifted_r)
    for what, same in (
            ("closed elements", quot2.closed == quot.closed),
            ("multiplication",
             np.array_equal(quot2.quantale.mult, quot.quantale.mult)),
            ("lneg", np.array_equal(F2.lneg.image, l_j)),
            ("rneg", np.array_equal(F2.rneg.image, r_j))):
        if not same:
            raise InvariantViolated(
                "quotienting by the lifted pair restores the quotient", what)
    return (EndoMap(Q.lattice, lifted_l), EndoMap(Q.lattice, lifted_r))


def representable_flags(Q, l, r):
    """Search for an element z with r(x) = x\\z and l(x) = z/x for all x."""
    l_arr = _endo_image(l, Q.lattice, "l")
    r_arr = _endo_image(r, Q.lattice, "r")
    lres = Q.left_residual_table
    rres = Q.right_residual_table
    found = None
    for z in range(Q.n):
        if np.array_equal(r_arr, lres[:, z]) and \
                np.array_equal(l_arr, rres[z, :]):
            found = z
            break
    if found is None:
        # every Serre GC on a unital quantale is representable
        if find_unit(Q).unit is not None and \
                check_frobenius(Q, l_arr, r_arr).serre_gc_valid:
            raise InvariantViolated(
                "a Serre Galois connection on a unital quantale is "
                "representable")
    return {"representable_by": found}


@dataclass(frozen=True)
class FiniteSemigroup:
    """An associative binary operation on {0, ..., n-1}."""

    n: int
    op: np.ndarray
    labels: Optional[tuple] = None

    def __post_init__(self):
        n = self.n
        op = _index_array(self.op, "semigroup table", (n, n), n)
        bad = np.argwhere(op[op] != op[:, op])
        if bad.size:
            x, y, z = map(int, bad[0])
            raise ValidationFailed(
                f"operation not associative at ({x}, {y}, {z})")
        object.__setattr__(self, "op", _frozen(op))
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != n:
                raise ValidationFailed(
                    "label count does not match element count")


def cyclic_group(k):
    ar = np.arange(k)
    return FiniteSemigroup(k, (ar[:, None] + ar[None, :]) % k)


def left_zero_semigroup(k):
    ar = np.arange(k)
    return FiniteSemigroup(k, np.broadcast_to(ar[:, None], (k, k)).copy())


@dataclass(frozen=True)
class BinaryRelation:
    """A relation on {0, ..., n-1}, stored as a boolean table."""

    n: int
    rel: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rel", _frozen(_bool_table(
            self.rel, "relation table", (self.n, self.n))))


_POWERSET_TABLE_BUDGET = 2048


def _powerset_size(n, max_elements):
    """2^n, the powerset carrier size; refuses a carrier above
    2^max_elements or tables above the budget before anything allocates."""
    if max_elements < 0:
        raise ValidationFailed("max_elements must be nonnegative")
    if n > max_elements:
        raise BudgetExceeded(2 ** n, 2 ** max_elements, "powerset carrier")
    N = 1 << n
    if N > _POWERSET_TABLE_BUDGET:
        raise BudgetExceeded(N * N, _POWERSET_TABLE_BUDGET ** 2,
                             "powerset tables")
    return N


def powerset_quantale(S, max_elements=20):
    """The quantale of subsets of a finite semigroup, X*Y = {x.y}.

    Subsets are encoded as bitmasks indexing the boolean lattice, so the
    carrier has 2^|S| elements; refuses semigroups whose tables would not
    fit in memory. Laws hold by construction and are not re-checked here.
    """
    n = S.n
    N = _powerset_size(n, max_elements)
    # rows[i, Y] = bitmask {i.y | y in Y}, then OR over i in X
    rows = np.zeros((n, N), dtype=np.int64)
    bits = np.int64(1) << S.op
    for Y in range(1, N):
        lsb = Y & -Y
        rows[:, Y] = rows[:, Y ^ lsb] | bits[:, lsb.bit_length() - 1]
    mult = np.zeros((N, N), dtype=np.int64)
    for X in range(1, N):
        lsb = X & -X
        mult[X, :] = mult[X ^ lsb, :] | rows[lsb.bit_length() - 1, :]
    return Quantale(boolean(n), mult)


class RelationGaloisReport(NamedTuple):
    l: np.ndarray
    r: np.ndarray
    associative: bool
    weakly_symmetric: bool
    r_singletons_l_closed: bool
    l_singletons_r_closed: bool
    witnesses: dict


def relation_galois(S, R):
    """Galois maps of a relation on a semigroup, with the phase flags.

    r(Z) = {u | z R u for all z in Z} and l(Y) = {u | u R y for all y in Y},
    returned as arrays over subset bitmasks. The relation is associative
    when x.y R z iff x R y.z for all triples; weak symmetry is decided by
    checking that every r({x}) lies in the image of l and dually.
    """
    n = S.n
    if n > 20:
        raise BudgetExceeded(2 ** n, 2 ** 20, "relation Galois maps")
    rel = R.rel if isinstance(R, BinaryRelation) else \
        BinaryRelation(n, R).rel
    N = 1 << n
    weights = np.int64(1) << np.arange(n)
    rowbits = (rel * weights[None, :]).sum(axis=1)
    colbits = (rel * weights[:, None]).sum(axis=0)
    full = np.int64(N - 1)
    r_arr = np.empty(N, dtype=np.int64)
    l_arr = np.empty(N, dtype=np.int64)
    r_arr[0] = l_arr[0] = full
    for Z in range(1, N):
        lsb = Z & -Z
        b = lsb.bit_length() - 1
        r_arr[Z] = r_arr[Z ^ lsb] & rowbits[b]
        l_arr[Z] = l_arr[Z ^ lsb] & colbits[b]

    witnesses = {}
    assoc_lhs = rel[S.op, :]
    assoc_rhs = rel[:, S.op]
    associative = bool((assoc_lhs == assoc_rhs).all())
    if not associative:
        witnesses["associative"] = tuple(
            int(v) for v in np.argwhere(assoc_lhs != assoc_rhs)[0])

    img_l = set(int(v) for v in l_arr)
    img_r = set(int(v) for v in r_arr)
    r_ok, l_ok = True, True
    for x in range(n):
        if int(r_arr[1 << x]) not in img_l:
            r_ok = False
            witnesses.setdefault("r_singletons_l_closed", (x,))
        if int(l_arr[1 << x]) not in img_r:
            l_ok = False
            witnesses.setdefault("l_singletons_r_closed", (x,))
    return RelationGaloisReport(l_arr, r_arr, associative, r_ok and l_ok,
                                r_ok, l_ok, witnesses)


def phase_quantale(S, R, max_elements=20):
    """Quotient the powerset quantale of S by the Galois maps of R.

    Requires R associative and weakly symmetric, after the powerset budget.
    For every R these are the Serre flags of (l, r) on the powerset, not
    checked again: Y <= l(X) iff X <= r(Y) (an antitone Galois connection);
    X*Z <= l(Y) iff (x.z) R y and Z*Y <= r(X) iff x R (z.y) for all x in X,
    z in Z, y in Y (shift is associativity); l o r and r o l are the
    closures onto the images of l and r, which S and the l({x}), resp. the
    r({x}), generate under intersection, so they commute iff each r({x}) is
    an l-image and each l({x}) an r-image (weak symmetry). The closed sets,
    the fixed points of l o r = r o l, are then the image of r. Each r(Z)
    is the intersection of S and the r({z}), z in Z, so the closed sets
    are the intersection closure of S and the r({x}) by construction, and
    are not compared with it.
    """
    _powerset_size(S.n, max_elements)
    gal = relation_galois(S, R)
    if not gal.associative:
        raise NotAssociativeRelation(gal.witnesses.get("associative"))
    if not gal.weakly_symmetric:
        raise NotWeaklySymmetric(
            gal.witnesses.get("r_singletons_l_closed")
            or gal.witnesses.get("l_singletons_r_closed"))
    PQ = powerset_quantale(S, max_elements=max_elements)
    _, quot, F = _serre_quotient(PQ, gal.l, gal.r)
    return quot, F


@dataclass
class RepresentationReport:
    """Outcome of rebuilding a Frobenius quantale from its phase relation.

    The relation x R y iff x <= lneg(y) on the carrier-as-semigroup has
    principal downsets as its closed sets; the report records whether the
    assignment x -> (downset of x) is an isomorphism onto that phase
    structure, negations included.
    """

    flags: dict
    witnesses: dict = field(default_factory=dict)

    @property
    def passed(self):
        return all(self.flags.values())

    def __bool__(self):
        return self.passed

    def to_dict(self):
        return {
            "flags": dict(self.flags),
            "passed": self.passed,
            "witnesses": {k: list(v) if isinstance(v, tuple) else v
                          for k, v in self.witnesses.items()},
        }


def represent_frobenius(Q, F):
    """Verify the principal-downset representation of a Frobenius quantale.

    F must be a Frobenius structure on Q (else ValidationFailed) and Q keep
    the Quantale contract, under which the residual tables are adjoints,
    as for check_frobenius. For l = lneg, r = rneg, x R y iff x <= l(y),
    set_l(Y) = {u | u R y for y in Y} and set_r(Z) = {w | z R w for z in
    Z}, each flag and the witness of its set-level check are read off
    N x N or length-N tables; meet_l[y], the meet of l over down y, and
    every fold over the downsets are lattice._downset_fold.
    - associative_relation, x*y R z iff x R y*z: as x*y <= w iff x <= w/y,
      it is l(z)/y = l(y*z); on failure the rows x are scanned in order
      for the first triple.
    - r_singletons_principal: set_r({x}) = down r(x), the Galois law
      x <= l(y) iff y <= r(x) that every inverse antitone pair has. The
      next three flags equal it. r is a bijection, so the set_r({x}) are
      all N principal downsets, and down a & down b = down (a ^ b) in any
      lattice, so their intersection closure with down top is the
      principal downsets (closed_family_is_principal_downsets). Each
      set_l({y}) = down l(y) is one of them (l_singletons_r_closed), and
      weakly_symmetric is both singleton flags.
    - mult_transport: x*y is the join of {a*b | a <= x, b <= y}, the fold
      of mult over the rows, then the columns.
    - negation_transport: set_l(down y) = down meet_l[y] is down l(y), and
      set_r(down x), row x of R by the order axioms, is down r(x).
    - join_transport: set_r(down x | down y) = set_r(down (x v y)), so the
      flag is set_l(set_r(down x)) = down x. An inverse antitone pair has
      x <= l(w) iff w <= r(x), so set_r(down x) = down r(x) and the flag
      is meet_l[r(x)] = x.
    - meet_transport: down x & down y = down (x ^ y), that is, the meet
      table is the glb of the order, read off leq alone: the table is
      symmetric, idempotent, below its first argument (so below both),
      and monotone along every cover (w, z), mt[w] <= mt[z] pointwise.
      Monotone along the covers is monotone in each argument, so z <= x
      and z <= y give z = z ^ z <= x ^ y; the glb has all four
      properties.
    - round_trip: each downset joins to its generator.
    """
    if F.quantale != Q:
        raise ValidationFailed("the Frobenius structure belongs to a "
                               "different quantale")
    if not F.report.frobenius_valid:
        raise ValidationFailed("not a valid Frobenius structure")
    n, L, ar = Q.n, Q.lattice, np.arange(Q.n)
    leq, jt, mt = L.leq, L.join_table, L.meet_table
    l_arr, r_arr = F.lneg.image, F.rneg.image
    flags, witnesses = {}, {}

    def record(name, ok, wit=None):
        flags[name] = bool(ok)
        if not ok and wit is not None:
            witnesses[name] = wit

    lhs, rhs = Q.right_residual_table[l_arr].T, l_arr[Q.mult]
    bad, wit = np.argwhere(lhs != rhs), None
    if bad.size:
        a, b = lhs[tuple(bad.T)], rhs[tuple(bad.T)]
        x = next(x for x in range(n) if (leq[x, a] != leq[x, b]).any())
        wit = (x, *map(int, bad[np.argmax(leq[x, a] != leq[x, b])]))
    record("associative_relation", not bad.size, wit)

    ok_r = (leq[:, l_arr] == leq[:, r_arr].T).all()
    for name in ("r_singletons_principal",
                 "closed_family_is_principal_downsets",
                 "l_singletons_r_closed", "weakly_symmetric"):
        record(name, ok_r)

    gen = _downset_fold(L, jt, _downset_fold(L, jt, Q.mult.copy()).T)
    bad = np.argwhere(gen.T != Q.mult)
    record("mult_transport", not bad.size,
           tuple(int(v) for v in bad[0]) if bad.size else None)

    meet_l = _downset_fold(L, mt, l_arr.copy())
    record("negation_transport", (meet_l == l_arr).all() and ok_r)
    record("join_transport", (meet_l[r_arr] == ar).all())
    record("meet_transport", (mt == mt.T).all() and (mt[ar, ar] == ar).all()
           and leq[mt, ar[:, None]].all()
           and all(leq[mt[w], mt[z]].all() for w, z in L._fold_covers))
    record("round_trip", (_downset_fold(L, jt, ar.copy()) == ar).all())
    return RepresentationReport(flags, witnesses)
