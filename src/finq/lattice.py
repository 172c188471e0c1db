"""Finite bounded lattices and maps between them.

Elements are dense integer indices 0..n-1. The order is kept as a full n x n
boolean table and binary joins and meets are precomputed element tables, so
every downstream algorithm works by array lookup. A finite bounded lattice is
complete, so arbitrary joins and meets are folds of the binary tables.
"""
from __future__ import annotations

from functools import cached_property, reduce

import numpy as np

from .errors import (
    BudgetExceeded,
    CycleDetected,
    NotALattice,
    NotBounded,
    NotMeetPreserving,
    NotSupPreserving,
    ValidationFailed,
)


def _frozen(a):
    a.setflags(write=False)
    return a


class FiniteLattice:
    """A finite complete lattice given by its order and operation tables."""

    def __init__(self, n, leq, join_table, meet_table, bot, top, labels=None):
        self.n = int(n)
        self.leq = _frozen(np.asarray(leq, dtype=bool))
        self.join_table = _frozen(np.asarray(join_table, dtype=np.int64))
        self.meet_table = _frozen(np.asarray(meet_table, dtype=np.int64))
        self.bot = int(bot)
        self.top = int(top)
        self.labels = tuple(labels) if labels is not None else None
        if self.leq.shape != (self.n, self.n):
            raise ValidationFailed("order table has wrong shape")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValidationFailed("label count does not match element count")

    @classmethod
    def from_leq(cls, leq, labels=None):
        """Build a lattice from an order table alone.

        Checks the partial-order axioms, locates bottom and top, and computes
        the join and meet tables. Raises NotALattice when some pair has no
        least upper bound or no greatest lower bound.
        """
        leq = np.asarray(leq, dtype=bool)
        n = leq.shape[0]
        if leq.shape != (n, n) or n == 0:
            raise ValidationFailed("order table must be square and nonempty")
        if not leq.diagonal().all():
            raise ValidationFailed("order not reflexive")
        if (leq & leq.T).sum() != n:
            raise ValidationFailed("order not antisymmetric")
        if ((leq.astype(np.int64) @ leq.astype(np.int64) > 0) & ~leq).any():
            raise ValidationFailed("order not transitive")

        bots = np.flatnonzero(leq.all(axis=1))
        if bots.size != 1:
            raise NotBounded("bottom")
        tops = np.flatnonzero(leq.all(axis=0))
        if tops.size != 1:
            raise NotBounded("top")

        # An element is the lub of {x, y} exactly when its upset equals the
        # set of common upper bounds, so a dict keyed on upset rows finds it.
        upset_id = {leq[i].tobytes(): i for i in range(n)}
        downset_id = {leq[:, i].tobytes(): i for i in range(n)}
        join_table = np.empty((n, n), dtype=np.int64)
        meet_table = np.empty((n, n), dtype=np.int64)
        for x in range(n):
            for y in range(x, n):
                ub = leq[x] & leq[y]
                j = upset_id.get(ub.tobytes())
                if j is None:
                    raise NotALattice(x, y, "least upper bound")
                join_table[x, y] = join_table[y, x] = j
                lb = leq[:, x] & leq[:, y]
                m = downset_id.get(lb.tobytes())
                if m is None:
                    raise NotALattice(x, y, "greatest lower bound")
                meet_table[x, y] = meet_table[y, x] = m
        return cls(n, leq, join_table, meet_table, int(bots[0]), int(tops[0]),
                   labels)

    def __len__(self):
        return self.n

    def __eq__(self, other):
        return (isinstance(other, FiniteLattice)
                and self.n == other.n
                and np.array_equal(self.leq, other.leq))

    def __hash__(self):
        return hash((self.n, self.leq.tobytes()))

    def __repr__(self):
        return f"FiniteLattice(n={self.n})"

    def le(self, x, y):
        return bool(self.leq[x, y])

    def join(self, x, y):
        return int(self.join_table[x, y])

    def meet(self, x, y):
        return int(self.meet_table[x, y])

    @cached_property
    def covers(self):
        """Pairs (x, y) with x < y and nothing strictly between."""
        strict = self.leq & ~np.eye(self.n, dtype=bool)
        via = (strict.astype(np.int64) @ strict.astype(np.int64)) > 0
        cov = strict & ~via
        return [(int(x), int(y)) for x, y in np.argwhere(cov)]

    @cached_property
    def join_irreducibles(self):
        """Elements with exactly one lower cover.

        Every element is the join of the irreducibles below it, which is what
        drives sup-endomap enumeration.
        """
        lower = np.zeros(self.n, dtype=np.int64)
        for x, y in self.covers:
            lower[y] += 1
        return [int(j) for j in np.flatnonzero(lower == 1)]

    @cached_property
    def atoms(self):
        return [y for x, y in self.covers if x == self.bot]

    def dual(self):
        """The same carrier with the opposite order."""
        return FiniteLattice(self.n, self.leq.T, self.meet_table,
                             self.join_table, self.top, self.bot, self.labels)

    def label(self, x):
        return self.labels[x] if self.labels is not None else str(x)


def build_lattice(covers, n, labels=None):
    """Build a lattice from a cover relation on n elements.

    The order is the reflexive-transitive closure of the covers; fails when
    the covers are cyclic, the poset is unbounded, or some pair lacks a least
    upper or greatest lower bound.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n <= 0:
        raise ValidationFailed("element count must be a positive integer")
    n = int(n)
    try:
        pairs = np.asarray(covers)
    except ValueError:
        raise ValidationFailed("covers must be pairs of element indices")
    if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2
                       or pairs.dtype.kind not in "iu"):
        raise ValidationFailed("covers must be pairs of element indices")
    pairs = pairs.reshape(-1, 2).astype(np.int64)
    bad = np.flatnonzero(((pairs < 0) | (pairs >= n)).any(axis=1))
    if bad.size:
        x, y = pairs[bad[0]]
        raise ValidationFailed(f"cover ({x}, {y}) out of range for n={n}")
    adj = np.zeros((n, n), dtype=bool)
    adj[pairs[:, 0], pairs[:, 1]] = True
    closure = adj.copy()
    for _ in range(n):
        nxt = closure | ((closure.astype(np.int64) @ adj) > 0)
        if np.array_equal(nxt, closure):
            break
        closure = nxt
    diag = np.flatnonzero(closure.diagonal())
    if diag.size:
        raise CycleDetected(int(diag[0]))
    leq = closure | np.eye(n, dtype=bool)
    return FiniteLattice.from_leq(leq, labels)


def join_of(L, S):
    """Join of a family of elements; the empty join is bottom.

    S may be any iterable of indices or an int bitmask over indices.
    """
    return _fold(L.join_table, L.bot, S)


def meet_of(L, S):
    """Meet of a family of elements; the empty meet is top."""
    return _fold(L.meet_table, L.top, S)


def _fold(table, start, S):
    if isinstance(S, (int, np.integer)):
        S = _bits(int(S))
    return int(reduce(lambda a, b: table[a, b], S, start))


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class LatticeMap:
    """A function between two finite lattices, stored as an image array.

    No property beyond well-formedness is assumed; monotonicity and the
    preservation properties are queried, not enforced.
    """

    def __init__(self, source, target, image):
        self.source = source
        self.target = target
        self.image = _frozen(np.asarray(image, dtype=np.int64))
        if self.image.shape != (source.n,):
            raise ValidationFailed("image length does not match source size")
        if self.image.size and (
                self.image.min() < 0 or self.image.max() >= target.n):
            raise ValidationFailed("image contains an invalid element index")

    def __call__(self, x):
        return int(self.image[x])

    def __eq__(self, other):
        return (isinstance(other, LatticeMap)
                and self.source == other.source
                and self.target == other.target
                and np.array_equal(self.image, other.image))

    def __hash__(self):
        return hash((self.source, self.target, self.image.tobytes()))

    def __repr__(self):
        return f"{type(self).__name__}({list(self.image)})"

    def compose(self, other):
        """self after other."""
        if other.target != self.source:
            raise ValidationFailed("composition sources do not line up")
        cls = EndoMap if other.source == self.target else LatticeMap
        args = ([other.source] if cls is EndoMap
                else [other.source, self.target])
        return cls(*args, self.image[other.image])

    def is_monotone(self):
        s, t = self.source.leq, self.target.leq
        return bool((~s | t[np.ix_(self.image, self.image)]).all())


class EndoMap(LatticeMap):
    """A function from a lattice to itself."""

    def __init__(self, lattice, image):
        super().__init__(lattice, lattice, image)

    @property
    def lattice(self):
        return self.source


def identity_map(L):
    return EndoMap(L, np.arange(L.n))


def is_sup_preserving(f):
    """True iff f preserves all joins.

    Finiteness reduces this to the empty join f(bot) = bot plus binary joins
    f(x v y) = f(x) v f(y) over all pairs.
    """
    img = f.image
    if img[f.source.bot] != f.target.bot:
        return False
    lhs = img[f.source.join_table]
    rhs = f.target.join_table[np.ix_(img, img)]
    return bool((lhs == rhs).all())


def is_meet_preserving(f):
    img = f.image
    if img[f.source.top] != f.target.top:
        return False
    lhs = img[f.source.meet_table]
    rhs = f.target.meet_table[np.ix_(img, img)]
    return bool((lhs == rhs).all())


def right_adjoint(f):
    """The right adjoint of a sup-preserving map.

    f(x) <= y iff x <= g(y), realized as g(y) = join of {x | f(x) <= y}.
    """
    if not is_sup_preserving(f):
        raise NotSupPreserving(_sup_witness(f))
    image = _right_adjoint_batch(f.source, f.target, f.image[None, :])[0]
    if f.source == f.target:
        return EndoMap(f.source, image)
    return LatticeMap(f.target, f.source, image)


def left_adjoint(g):
    """The left adjoint of a meet-preserving map.

    f(x) <= y iff x <= g(y), realized as f(x) = meet of {y | x <= g(y)}:
    the right adjoint between the dual lattices.
    """
    if not is_meet_preserving(g):
        raise NotMeetPreserving(_meet_witness(g))
    image = _right_adjoint_batch(g.source.dual(), g.target.dual(),
                                 g.image[None, :])[0]
    if g.source == g.target:
        return EndoMap(g.source, image)
    return LatticeMap(g.target, g.source, image)


def _right_adjoint_batch(source, target, imgs):
    """Right adjoints g(y) = join of {x | f(x) <= y} of the sup-preserving
    maps source -> target in the rows of an (R, source.n) image array.

    One pass over the source elements, each a step over all rows at once;
    pass the dual lattices for left adjoints of meet-preserving maps.
    """
    out = np.full((len(imgs), target.n), source.bot, dtype=np.int64)
    for x in range(source.n):
        below = target.leq[imgs[:, x], :]
        out = np.where(below, source.join_table[out, x], out)
    return out


def _sup_witness(f):
    if f.image[f.source.bot] != f.target.bot:
        return ("bot",)
    lhs = f.image[f.source.join_table]
    rhs = f.target.join_table[np.ix_(f.image, f.image)]
    bad = np.argwhere(lhs != rhs)
    return (int(bad[0][0]), int(bad[0][1])) if bad.size else None


def _meet_witness(g):
    if g.image[g.source.top] != g.target.top:
        return ("top",)
    lhs = g.image[g.source.meet_table]
    rhs = g.target.meet_table[np.ix_(g.image, g.image)]
    bad = np.argwhere(lhs != rhs)
    return (int(bad[0][0]), int(bad[0][1])) if bad.size else None


def is_order_isomorphism(f):
    """Bijective and order-reflecting in both directions."""
    if f.source.n != f.target.n or len(set(f.image.tolist())) != f.source.n:
        return False
    return bool(
        (f.source.leq == f.target.leq[np.ix_(f.image, f.image)]).all())


def is_distributive(L):
    """Binary distributivity over all triples.

    For finite lattices this coincides with complete distributivity.
    """
    mt, jt = L.meet_table, L.join_table
    lhs = mt[np.arange(L.n)[:, None, None], jt[None, :, :]]
    rhs = jt[mt[:, :, None], mt[:, None, :]]
    return bool((lhs == rhs).all())


def chain(k):
    """The k-element chain 0 < 1 < ... < k-1."""
    if k < 1:
        raise ValidationFailed("chain needs at least one element")
    r = np.arange(k)
    return FiniteLattice(k, r[:, None] <= r[None, :],
                         np.maximum.outer(r, r), np.minimum.outer(r, r),
                         0, k - 1)


def boolean(k):
    """The boolean lattice of subsets of a k-element set.

    Element i is the bitmask of a subset; the order is mask inclusion.
    """
    if k < 0:
        raise ValidationFailed("boolean lattice needs k >= 0")
    n = 1 << k
    r = np.arange(n)
    leq = (r[:, None] & ~r[None, :]) == 0
    return FiniteLattice(n, leq, r[:, None] | r[None, :],
                         r[:, None] & r[None, :], 0, n - 1)


def m_lattice(n):
    """M(n): bottom 0, pairwise-incomparable atoms 1..n, top n+1."""
    if n < 0:
        raise ValidationFailed("M(n) needs n >= 0")
    size = n + 2
    top = size - 1
    leq = np.eye(size, dtype=bool)
    leq[0, :] = True
    leq[:, top] = True
    r = np.arange(size)
    # comparable pairs join to the larger; two distinct atoms join to top
    join = np.where(leq, r[None, :], np.where(leq.T, r[:, None], top))
    meet = np.where(leq, r[:, None], np.where(leq.T, r[None, :], 0))
    labels = ["bot"] + [f"a{i}" for i in range(1, n + 1)] + ["top"]
    return FiniteLattice(size, leq, join, meet, 0, top, labels)


def n5():
    """The pentagon: bot < a < top and bot < b < c < top."""
    return build_lattice([(0, 1), (0, 2), (2, 3), (1, 4), (3, 4)], 5,
                         labels=["bot", "a", "b", "c", "top"])


def product(L1, L2):
    """Componentwise product; the pair (x1, x2) has index x1 * |L2| + x2."""
    n1, n2 = L1.n, L2.n
    leq = (L1.leq[:, None, :, None] & L2.leq[None, :, None, :])
    jt = (L1.join_table[:, None, :, None] * n2
          + L2.join_table[None, :, None, :])
    mt = (L1.meet_table[:, None, :, None] * n2
          + L2.meet_table[None, :, None, :])
    labels = None
    if L1.labels is not None and L2.labels is not None:
        labels = [f"({a},{b})" for a in L1.labels for b in L2.labels]
    return FiniteLattice(n1 * n2, leq.reshape(n1 * n2, n1 * n2),
                         jt.reshape(n1 * n2, n1 * n2),
                         mt.reshape(n1 * n2, n1 * n2),
                         L1.bot * n2 + L2.bot, L1.top * n2 + L2.top, labels)


def standard_lattice(spec):
    """Parse a constructor expression such as 'M(3)', 'chain(4)', 'N5',
    'boolean(2)', 'dual(M(3))' or 'product(chain(2),chain(3))'."""
    spec = spec.strip()
    if spec in ("N5", "n5"):
        return n5()
    head, sep, rest = spec.partition("(")
    if not sep or not spec.endswith(")"):
        raise ValidationFailed(f"cannot parse lattice expression {spec!r}")
    body = rest[:-1]
    head = head.strip()
    if head in ("chain", "boolean", "M", "m"):
        try:
            k = int(body)
        except ValueError:
            raise ValidationFailed(
                f"{head}(...) needs an integer argument, got {body!r}")
        return {"chain": chain, "boolean": boolean,
                "M": m_lattice, "m": m_lattice}[head](k)
    if head == "dual":
        return standard_lattice(body).dual()
    if head == "product":
        depth, split = 0, None
        for i, ch in enumerate(body):
            depth += ch == "("
            depth -= ch == ")"
            if ch == "," and depth == 0:
                split = i
                break
        if split is None:
            raise ValidationFailed(f"cannot parse product arguments {body!r}")
        return product(standard_lattice(body[:split]),
                       standard_lattice(body[split + 1:]))
    raise ValidationFailed(f"unknown lattice constructor {head!r}")


def enumerate_sup_endomaps(L, max_candidates=10**9):
    """All sup-preserving endomaps of L, each exactly once, sorted by image.

    A sup-preserving map is f(x) = join of {f(j) | j irreducible, j <= x}
    for a monotone assignment on the join-irreducibles that preserves binary
    joins; see _sup_endomap_images for how those are grown. The budget is
    the n^|J| bound on assignments, checked before anything is allocated.
    """
    return [EndoMap(L, row) for row in _sup_endomap_images(L, max_candidates)]


def _sup_endomap_images(L, max_candidates=10**9):
    """Image rows of every sup-preserving endomap of L, lexsorted.

    Assigns the join-irreducibles one at a time in a linear extension. Each
    row of F holds, at every x, the join of the images assigned so far to
    irreducibles below x. The next irreducible j branches a row on every
    v >= F(j), the join of the images below j, so the rows are exactly the
    monotone assignments and none repeats. A row is dropped once some
    incomparable pair x, y whose irreducibles are all assigned has
    F(x v y) not below F(x) v F(y): F(x) and F(y) are final and F(x v y)
    only grows, so this is sound early and binary-join preservation at the
    end. No stage holds more than n^|J| rows.
    """
    irr = L.join_irreducibles
    estimate = L.n ** len(irr)
    if estimate > max_candidates:
        raise BudgetExceeded(estimate, max_candidates)
    n, leq, jt = L.n, L.leq, L.join_table
    # downset sizes grow strictly along the order: a linear extension
    height = leq.sum(axis=0)
    irr = sorted(irr, key=lambda j: height[j])
    # the step after which every irreducible below x is assigned
    ready = np.full(n, -1)
    for step, j in enumerate(irr):
        ready[leq[j]] = step
    xs, ys = np.nonzero(np.triu(~(leq | leq.T)))
    pairs = [(int(x), int(y), int(jt[x, y]), max(ready[x], ready[y]))
             for x, y in zip(xs, ys)]
    F = np.full((1, n), L.bot, dtype=np.int64)
    for step, j in enumerate(irr):
        rows, vals = np.nonzero(leq[F[:, j]])
        F = F[rows]
        up = leq[j]
        F[:, up] = jt[F[:, up], vals[:, None]]
        # a pair needs a look when it just became ready or F(x v y) grew
        keep = np.ones(len(F), dtype=bool)
        for x, y, xy, r in pairs:
            if r <= step and up[xy]:
                keep &= leq[F[:, xy], jt[F[:, x], F[:, y]]]
        F = F[keep]
    return F[np.lexsort(F.T[::-1])]
