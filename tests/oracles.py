"""Brute-force reference implementations.

Everything here is written straight from the definitions, with plain python
folds and full enumerations, deliberately sharing no code with the library's
vectorized paths. Tests compare the two on small instances and freeze the
resulting counts as literals.
"""
import itertools

import numpy as np

from finq.errors import ValidationFailed
from finq.lattice import FiniteLattice, join_of, meet_of
from finq.nuclei import RepresentationReport


def all_endofunctions(L):
    """Every function L -> L as an image tuple, n^n of them."""
    return itertools.product(range(L.n), repeat=L.n)


def all_subsets(L):
    for r in range(L.n + 1):
        yield from itertools.combinations(range(L.n), r)


def is_sup_preserving_bruteforce(L, img, target=None):
    """Checks f(join S) = join f(S) over every one of the 2^n subsets, for
    f from L to target (L itself by default)."""
    T = L if target is None else target
    for S in all_subsets(L):
        if img[join_of(L, S)] != join_of(T, [img[x] for x in S]):
            return False
    return True


def is_meet_preserving_bruteforce(L, img):
    for S in all_subsets(L):
        if img[meet_of(L, S)] != meet_of(L, [img[x] for x in S]):
            return False
    return True


def sup_endomaps_bruteforce(L):
    return [f for f in all_endofunctions(L)
            if is_sup_preserving_bruteforce(L, f)]


def meet_endomaps_bruteforce(L):
    return [f for f in all_endofunctions(L)
            if is_meet_preserving_bruteforce(L, f)]


def right_adjoint_bruteforce(L, img, target=None):
    """g(y) = join of {x | f(x) <= y} for f from L to target (L itself by
    default)."""
    T = L if target is None else target
    return tuple(join_of(L, [x for x in range(L.n) if T.leq[img[x], y]])
                 for y in range(T.n))


def is_distributive_bruteforce(L):
    """x ^ (y v z) = (x ^ y) v (x ^ z) over every triple, as two
    n x n x n tables."""
    mt, jt = L.meet_table, L.join_table
    lhs = mt[np.arange(L.n)[:, None, None], jt[None, :, :]]
    rhs = jt[mt[:, :, None], mt[:, None, :]]
    return bool((lhs == rhs).all())


def order_isos_bruteforce(L):
    out = []
    for perm in itertools.permutations(range(L.n)):
        if all((L.leq[x, y] == L.leq[perm[x], perm[y]])
               for x in range(L.n) for y in range(L.n)):
            out.append(perm)
    return out


def rans_bruteforce(L, img):
    return tuple(join_of(L, [img[t] for t in range(L.n) if not L.leq[x, t]])
                 for x in range(L.n))


def rani_bruteforce(L, img):
    return tuple(meet_of(L, [img[t] for t in range(L.n) if not L.leq[t, x]])
                 for x in range(L.n))


def is_tight_bruteforce(L, img):
    return tuple(img) == rans_bruteforce(L, rani_bruteforce(L, img))


def tight_endomaps_bruteforce(L):
    return [f for f in sup_endomaps_bruteforce(L)
            if is_tight_bruteforce(L, f)]


def residual_left_bruteforce(Q, x, z):
    L = Q.lattice
    return join_of(L, [y for y in range(L.n) if L.leq[Q.mult[x, y], z]])


def residual_right_bruteforce(Q, z, y):
    L = Q.lattice
    return join_of(L, [x for x in range(L.n) if L.leq[Q.mult[x, y], z]])


def chu_residuals(Q):
    """Both residual tables of chu(Q) in closed form, on the pair indices
    x1 * n + x2: (x1,x2)\\(z1,z2) = (x1\\z1 ^ x2/z2, z2*x1) and
    (z1,z2)/(y1,y2) = (z1/y1 ^ z2\\y2, y1*z2)."""
    n, mt = Q.n, Q.lattice.meet_table
    pairs = list(itertools.product(range(n), repeat=2))
    left = [[mt[residual_left_bruteforce(Q, x1, z1),
                residual_right_bruteforce(Q, x2, z2)] * n + Q.mult[z2, x1]
             for z1, z2 in pairs] for x1, x2 in pairs]
    right = [[mt[residual_right_bruteforce(Q, z1, y1),
                 residual_left_bruteforce(Q, z2, y2)] * n + Q.mult[y1, z2]
              for y1, y2 in pairs] for z1, z2 in pairs]
    return np.array(left), np.array(right)


def meet_closure_bruteforce(L, img):
    """Pointwise meet of every meet-preserving map above img.

    Meet-preserving maps are closed under pointwise meets, so the fold is
    itself meet-preserving and is the least majorant.
    """
    above = [g for g in meet_endomaps_bruteforce(L)
             if all(L.leq[img[x], g[x]] for x in range(L.n))]
    assert above, "the constant-top map is always a majorant"
    return tuple(meet_of(L, [g[x] for g in above]) for x in range(L.n))


def closure_operators_bruteforce(L):
    """Sup-preserving endomaps that are increasing and idempotent."""
    out = []
    for f in sup_endomaps_bruteforce(L):
        arr = list(f)
        if all(L.leq[x, arr[x]] for x in range(L.n)) and \
                all(arr[arr[x]] == arr[x] for x in range(L.n)):
            out.append(f)
    return out


def sublattices_bruteforce(L):
    """Subsets containing bot and top, closed under binary join and meet."""
    out = []
    for S in all_subsets(L):
        sub = set(S)
        if L.bot not in sub or L.top not in sub:
            continue
        if all(L.join_table[x, y] in sub and L.meet_table[x, y] in sub
               for x in sub for y in sub):
            out.append(tuple(sorted(sub)))
    return out


def powerset_residuals_bruteforce(op, n, X, Y):
    """Set comprehension residuals over a semigroup table.

    X\\Y = {s | x.s in Y for all x in X} and Y/X = {s | s.x in Y for all
    x in X}, with sets as python frozensets.
    """
    left = frozenset(s for s in range(n)
                     if all(op[x][s] in Y for x in X))
    right = frozenset(s for s in range(n)
                      if all(op[s][x] in Y for x in X))
    return left, right


def random_images(rng, n, count):
    return np.asarray(rng.integers(0, n, size=(count, n)))


def first_law_violation(L, mult):
    """The first failed quantale law as (error type, witness), or None.

    The full lexicographic scan: associativity over every triple, then left
    and right distributivity over every binary join, then bottom absorption
    on the left and on the right.
    """
    jt, n = L.join_table, L.n
    for x in range(n):
        left = mult[mult[x, :], :]
        right = mult[x, mult]
        if not np.array_equal(left, right):
            y, z = map(int, np.argwhere(left != right)[0])
            return "NotAssociative", (x, y, z)
    for side, m in (("left", mult), ("right", mult.T)):
        for x in range(n):
            row = m[x, :]
            lhs = m[x, jt]
            rhs = jt[row[:, None], row[None, :]]
            if not np.array_equal(lhs, rhs):
                y, z = map(int, np.argwhere(lhs != rhs)[0])
                return "NotDistributive", (side, x, y, z)
    for side, row in (("left", mult[L.bot, :]), ("right", mult[:, L.bot])):
        bad = np.flatnonzero(row != L.bot)
        if bad.size:
            return "BottomNotAbsorbed", (int(bad[0]), side)
    return None


def shift_relation_scan(Q, l, r):
    """x*z <= l(y) iff z*y <= r(x), scanned row by row over x; returns the
    first failing (x, z, y) or None."""
    leq = Q.lattice.leq
    l, r = np.asarray(l), np.asarray(r)
    for x in range(Q.n):
        lhs = leq[Q.mult[x, :][:, None], l[None, :]]
        rhs = leq[Q.mult, r[x]]
        bad = np.argwhere(lhs != rhs)
        if bad.size:
            z, y = map(int, bad[0])
            return (x, z, y)
    return None


def covers_bruteforce(L):
    """Pairs x < y with no z strictly between, scanning every z."""
    def lt(a, b):
        return a != b and L.leq[a, b]
    return [(x, y) for x in range(L.n) for y in range(L.n)
            if lt(x, y) and not any(lt(x, z) and lt(z, y)
                                    for z in range(L.n))]


def join_irreducibles_by_covers(L):
    """Elements with exactly one lower cover."""
    lower = [0] * L.n
    for _, y in covers_bruteforce(L):
        lower[y] += 1
    return [y for y in range(L.n) if lower[y] == 1]


def from_leq_bruteforce(leq):
    """The lattice of a bounded partial order, or the first index pair
    x <= y, row-major, with no least upper bound (checked first) or no
    greatest lower bound, as (x, y, kind).

    An element is the lub of {x, y} exactly when its upset equals the set
    of common upper bounds, so a dict keyed on upset rows finds it; dually
    for the glb. The lattice is assembled from these tables directly.
    """
    leq = np.asarray(leq, dtype=bool)
    n = len(leq)
    upset_id = {leq[i].tobytes(): i for i in range(n)}
    downset_id = {leq[:, i].tobytes(): i for i in range(n)}
    join = np.empty((n, n), dtype=np.int64)
    meet = np.empty((n, n), dtype=np.int64)
    for x in range(n):
        for y in range(x, n):
            j = upset_id.get((leq[x] & leq[y]).tobytes())
            if j is None:
                return x, y, "least upper bound"
            m = downset_id.get((leq[:, x] & leq[:, y]).tobytes())
            if m is None:
                return x, y, "greatest lower bound"
            join[x, y] = join[y, x] = j
            meet[x, y] = meet[y, x] = m
    bot = next(x for x in range(n) if leq[x].all())
    top = next(x for x in range(n) if leq[:, x].all())
    return FiniteLattice(n, leq, join, meet, bot, top)


def rans_right_adjoint(L, img):
    """The pointwise right adjoint of rans on an arbitrary endofunction f:
    g(y) = meet of {t | f(t) not<= y}."""
    out = np.full(L.n, L.top, dtype=np.int64)
    mt = L.meet_table
    for t in range(L.n):
        mask = ~L.leq[img[t], :]
        out[mask] = mt[out[mask], t]
    return out


def _disjoint_rows(a, b):
    """[i, k] is True when the boolean rows a[i] and b[k] share no True
    entry; one packed-bit step per row of a."""
    pa, pb = np.packbits(a, axis=1), np.packbits(b, axis=1)
    return np.array([~(row & pb).any(axis=1) for row in pa])


def _intersection_closure(seeds):
    """The smallest set of int bitmasks that holds the seeds and is closed
    under bitwise and (intersection of the sets they encode)."""
    family = set(seeds)
    frontier = list(family)
    while frontier:
        a = frontier.pop()
        for b in list(family):
            c = a & b
            if c not in family:
                family.add(c)
                frontier.append(c)
    return family


def _bitmasks(rows):
    """Each boolean row as an int whose bit u is the row's entry u."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def represent_bruteforce(Q, F):
    """represent_frobenius on sets: the same report, each flag read off
    the downsets and relation rows themselves. The relation's
    associativity is compared on two N^3 tables, the transport of
    multiplication and the round trip are folds of N x N tables over every
    element, and the set-level negations are _disjoint_rows of the
    downsets against the relation rows.
    """
    if not F.report.frobenius_valid:
        raise ValidationFailed("not a valid Frobenius structure")
    n = Q.n
    leq = Q.lattice.leq
    l_arr, r_arr = F.lneg.image, F.rneg.image
    flags, witnesses = {}, {}

    def record(name, ok, wit=None):
        flags[name] = bool(ok)
        if not ok and wit is not None:
            witnesses[name] = wit

    # relation x R y iff x <= lneg(y)
    Rbool = leq[:, l_arr]
    lhs = Rbool[Q.mult, :]
    rhs = Rbool[:, Q.mult]
    ok = bool((lhs == rhs).all())
    wit = None if ok else tuple(int(v) for v in np.argwhere(lhs != rhs)[0])
    record("associative_relation", ok, wit)

    # downsets and relation rows as bitmasks: bit u of down[x] is u <= x
    down = _bitmasks(leq.T)
    rrow = _bitmasks(Rbool)
    full = (1 << n) - 1

    # r({x}) is the principal downset of rneg(x): the set-level form of the
    # Galois-connection law x <= lneg(u) iff u <= rneg(x)
    ok_r = bool((Rbool == leq[:, r_arr].T).all())
    record("r_singletons_principal", ok_r)

    family = _intersection_closure([full] + rrow)
    record("closed_family_is_principal_downsets",
           family == set(down) and len(set(down)) == n)

    # dual weak-symmetry condition: every l-image of a singleton lies in
    # the closure family generated by the r-images
    ok_l = all(down[y] in family for y in l_arr)
    record("l_singletons_r_closed", ok_l)
    record("weakly_symmetric", ok_r and ok_l)

    # join of {a*b | a <= x, b <= y}, folded over b and then over a
    jt, mt = Q.lattice.join_table, Q.lattice.meet_table
    part = np.full((n, n), Q.lattice.bot, dtype=np.int64)
    for b in range(n):
        np.copyto(part, jt[part, Q.mult[:, b, None]], where=leq[None, b, :])
    gen = np.full((n, n), Q.lattice.bot, dtype=np.int64)
    for a in range(n):
        np.copyto(gen, jt[gen, part[None, a, :]], where=leq[a, :, None])
    bad = np.argwhere(gen != Q.mult)
    record("mult_transport", not bad.size,
           tuple(int(v) for v in bad[0]) if bad.size else None)

    # set_l(Y) = {u | u R y for all y in Y} and set_r(Z) = {w | z R w for
    # all z in Z} on downsets: u is in when no member of Y is outside R(u, .)
    set_l_down = _disjoint_rows(leq.T, ~Rbool)
    set_r_down = _disjoint_rows(leq.T, ~Rbool.T)
    record("negation_transport",
           (set_l_down == leq[:, l_arr].T).all()
           and (set_r_down == leq[:, r_arr].T).all())

    # set_r(down x | down y) = set_r(down x) & set_r(down y), which is
    # set_r(down(x v y)) in a lattice: the closure of the union is the
    # closure of one downset, and every element is some x v y
    closure = _disjoint_rows(set_r_down, ~Rbool)
    record("join_transport", (closure == leq.T).all())
    # down x & down y is the downset of x ^ y, on packed rows
    packed = np.packbits(leq.T, axis=1)
    record("meet_transport", all(
        np.array_equal(packed[x] & packed, packed[mt[x]]) for x in range(n)))

    # the join of each downset, folded over its members
    acc = np.full(n, Q.lattice.bot, dtype=np.int64)
    for u in range(n):
        acc = np.where(leq[u], jt[acc, u], acc)
    record("round_trip", (acc == np.arange(n)).all())
    return RepresentationReport(flags, witnesses)
