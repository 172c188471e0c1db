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
    InvariantViolated,
    NotALattice,
    NotBounded,
    NotMeetPreserving,
    NotSupPreserving,
    ValidationFailed,
)

# entries of an intermediate built at once: N x N tables are filled in row
# blocks of at most this many entries
_BLOCK_ENTRIES = 1 << 16


def _frozen(a):
    a.setflags(write=False)
    return a


def _index_array(a, what, shape, upper):
    """a as an int64 array of element indices: the one check of every index
    table, map image and index list a caller hands finq. Ragged input, a
    float, bool or object dtype, a bool among the integers of a list (numpy
    reads it as 0 or 1), a shape other than shape and an entry outside
    0..upper-1 raise ValidationFailed; None skips the shape or range check.
    An int64 ndarray is returned as it is, with no copy and no scan."""
    arr = _array(a, what, shape)
    if arr.size and (arr.dtype.kind not in "iu" or (
            not isinstance(a, np.ndarray) and _holds_bool(a, arr.ndim))):
        raise ValidationFailed(f"{what} must hold integer element indices")
    arr = arr.astype(np.int64, copy=False)
    # one pass for both ends: as uint64 a negative index is at least 2^63
    if upper is not None and arr.size and arr.view(np.uint64).max() >= upper:
        raise ValidationFailed(
            f"{what} holds an element index outside 0..{upper - 1}")
    return arr


def _bool_table(a, what, shape):
    """a as a bool array, checked like _index_array: the one check of
    orders and relations. Only true/false entries are accepted."""
    arr = _array(a, what, shape)
    if arr.size and arr.dtype != bool:
        raise ValidationFailed(f"{what} must hold true/false entries only")
    return arr.astype(bool, copy=False)


def _array(a, what, shape):
    try:
        arr = np.asarray(a)
    except ValueError:
        raise ValidationFailed(f"{what} is ragged")
    if shape is not None and arr.shape != shape:
        raise ValidationFailed(f"{what} must have shape {shape}")
    return arr


def _holds_bool(a, ndim):
    """Whether a nested sequence with ndim levels has a bool entry, by one
    set of entry types per innermost row (a bool scalar has a bool dtype)."""
    if ndim > 1:
        return any(_holds_bool(row, ndim - 1) for row in a)
    return ndim == 1 and not {bool, np.bool_}.isdisjoint(map(type, a))


class FiniteLattice:
    """A finite complete lattice given by its order and operation tables."""

    def __init__(self, n, leq, join_table, meet_table, bot, top, labels=None):
        self.n = int(n)
        square = (self.n, self.n)
        self.leq = _frozen(_bool_table(leq, "order table", square))
        self.join_table = _frozen(
            _index_array(join_table, "join table", square, self.n))
        self.meet_table = _frozen(
            _index_array(meet_table, "meet table", square, self.n))
        self.bot, self.top = _index_array(
            [bot, top], "bottom and top", (2,), self.n).tolist()
        self.labels = tuple(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != self.n:
            raise ValidationFailed("label count does not match element count")

    @classmethod
    def from_leq(cls, leq, labels=None):
        """Build a lattice from an order table alone; the one place where
        join and meet tables are derived from an order. Checks the order
        axioms and bounds, then folds over the join-irreducibles J in
        O(|J| n^2) (_lattice_tables). NotALattice names the first index pair
        x <= y, row-major, with no lub or, checked second, no glb."""
        leq = _bool_table(leq, "order table", None)
        n = leq.shape[0]
        if leq.shape != (n, n) or n == 0:
            raise ValidationFailed("order table must be square and nonempty")
        if not leq.diagonal().all():
            raise ValidationFailed("order not reflexive")
        if (leq & leq.T).sum() != n:
            raise ValidationFailed("order not antisymmetric")
        if (_composed(leq) & ~leq).any():
            raise ValidationFailed("order not transitive")
        return cls._from_order(leq, labels)

    @classmethod
    def _from_order(cls, leq, labels):
        """from_leq for a bool table its caller knows to be a partial
        order: the bounds and the tables, no order axiom checked again."""
        n = len(leq)
        bots = np.flatnonzero(leq.all(axis=1))
        if bots.size != 1:
            raise NotBounded("bottom")
        tops = np.flatnonzero(leq.all(axis=0))
        if tops.size != 1:
            raise NotBounded("top")
        return cls(n, leq, *_lattice_tables(leq, int(bots[0])),
                   int(bots[0]), int(tops[0]), labels)

    def __len__(self):
        return self.n

    def __eq__(self, other):
        return self is other or (isinstance(other, FiniteLattice)
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
        """Pairs (x, y) with x < y and nothing strictly between, row-major."""
        return [tuple(c) for c in self.cover_array.tolist()]

    @cached_property
    def cover_array(self):
        """covers as a read-only (k, 2) int64 array: the strict order
        minus its square, one float32 matmul."""
        strict = self.leq & ~np.eye(self.n, dtype=bool)
        cov = strict & ~_composed(strict)
        return _frozen(np.ascontiguousarray(np.argwhere(cov)))

    @cached_property
    def _fold_covers(self):
        """covers as pairs (w, z) by the downset size of z, so that every
        cover into w comes before every cover out of w."""
        cov = self.cover_array
        return cov[np.argsort(self.leq.sum(axis=0)[cov[:, 1]],
                              kind="stable")].tolist()

    @cached_property
    def join_irreducibles(self):
        """Elements that are not the join of the elements strictly below
        them, read off the order. Every element is the join of the
        irreducibles below it: this drives the tables, the sup-endomap
        enumeration and the law checks."""
        return [int(j) for j in np.flatnonzero(_irreducible_mask(self.leq))]

    @cached_property
    def atoms(self):
        return [y for x, y in self.covers if x == self.bot]

    def dual(self):
        """The same carrier with the opposite order."""
        return FiniteLattice(self.n, self.leq.T, self.meet_table,
                             self.join_table, self.top, self.bot, self.labels)

    def label(self, x):
        return self.labels[x] if self.labels is not None else str(x)


def _composed(rel):
    """A boolean relation composed with itself as a float32 matmul (BLAS);
    a sum of 0/1 products is positive iff some product is 1."""
    f = rel.astype(np.float32)
    return f @ f > 0


def _least(bounds, order, size):
    """The first element of each row of bounds (columns in the element order
    `order`), and whether its size (upset or downset size) is the row's
    count, which makes it the row's least (or greatest) element."""
    first = order[bounds.argmax(axis=1)]
    return first, size[first] == np.count_nonzero(bounds, axis=1)


def _irreducible_mask(leq):
    """Which elements of a finite poset have a greatest element strictly
    below them, equivalently exactly one lower cover."""
    down = leq.sum(axis=0)
    # downset sizes grow strictly along the order: a linear extension
    order = np.argsort(down, kind="stable")[::-1]
    strict = (leq & ~np.eye(len(leq), dtype=bool)).T[:, order]
    return _least(strict, order, down)[1]


def _lattice_tables(leq, bot):
    """The join and meet tables of a bounded poset; NotALattice if it is not
    a lattice. x v j, for j in J, is the first common upper bound in a linear
    extension if that is least. If all exist, each y is the join of the j
    below it (by induction: for lower covers a != b of y, folding a v j over
    the j <= b ends at y), so x v y folds x v j over those j and x ^ y the
    join over the j below both; in place, in row blocks."""
    n = len(leq)
    order = np.argsort(leq.sum(axis=0), kind="stable")
    up, up_size = leq[:, order], leq.sum(axis=1)
    irr = np.flatnonzero(_irreducible_mask(leq))
    with_j = [_least(up & up[j], order, up_size) for j in irr]
    if not all(least.all() for _, least in with_j):
        raise NotALattice(*_first_missing_bound(leq))
    join = np.repeat(np.arange(n)[:, None], n, axis=1)
    meet = np.full((n, n), bot, dtype=np.int64)
    step = max(1, _BLOCK_ENTRIES // n)
    for b in range(0, n, step):
        rows = slice(b, b + step)
        for j, (col, _) in zip(irr, with_j):
            np.copyto(join[rows], col[join[rows]], where=leq[j])
            np.copyto(meet[rows], col[meet[rows]],
                      where=leq[j, rows, None] & leq[j])
    return join, meet


def _first_missing_bound(leq):
    """The first index pair x <= y, row-major, of a bounded non-lattice
    that has no least upper bound or, checked second, no greatest lower
    bound, as (x, y, kind); one vectorized step per row x."""
    up_size, down_size = leq.sum(axis=1), leq.sum(axis=0)
    order = np.argsort(down_size, kind="stable")
    up, down = leq[:, order], leq.T[:, order[::-1]]
    for x in range(len(leq)):
        lub = _least(up[x] & up[x:], order, up_size)[1]
        glb = _least(down[x] & down[x:], order[::-1], down_size)[1]
        bad = np.flatnonzero(~(lub & glb))
        if bad.size:
            y = int(bad[0])
            return x, x + y, ("greatest lower bound" if lub[y]
                              else "least upper bound")
    raise InvariantViolated("a poset whose folds fail is not a lattice")


def build_lattice(covers, n, labels=None):
    """Build a lattice from a cover relation on n elements.

    The order is the reflexive-transitive closure of the covers; fails when
    the covers are cyclic, the poset is unbounded, or some pair lacks a least
    upper or greatest lower bound. Fewer than n - 1 pairs leave two minimal
    elements (all others have a pair entering them): then only the listed
    elements are closed, for a cycle, before NotBounded, so no n x n table
    is allocated. Squared to a fixpoint, the closure is transitive; with no
    cycle and the diagonal added it is a partial order, which
    FiniteLattice._from_order takes without checking it again.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n <= 0:
        raise ValidationFailed("element count must be a positive integer")
    n = int(n)
    pairs = _index_array(covers, "cover list", None, n)
    if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
        raise ValidationFailed("covers must be pairs of element indices")
    pairs = pairs.reshape(-1, 2)
    unbounded = len(pairs) < n - 1
    nodes = np.unique(pairs) if unbounded else np.arange(n)
    closure = np.zeros((len(nodes), len(nodes)), dtype=bool)
    closure[tuple(np.searchsorted(nodes, pairs).T)] = True
    # square the relation until nothing changes: log2(n) matmuls at most
    prev = None
    while prev is None or not np.array_equal(prev, closure):
        prev, closure = closure, closure | _composed(closure)
    diag = np.flatnonzero(closure.diagonal())
    if diag.size:
        raise CycleDetected(int(nodes[diag[0]]))
    if unbounded:
        raise NotBounded("bottom")
    leq = closure | np.eye(n, dtype=bool)
    return FiniteLattice._from_order(leq, labels)


def _downset_fold(L, table, vals):
    """Fold a join or meet table over every downset, in place: vals[x], on
    the first axis, becomes the fold of the vals[u] for u <= x. One step
    vals[z] = table[vals[z], vals[w]] per cover (w, z), w final by then."""
    for w, z in L._fold_covers:
        vals[z] = table[vals[z], vals[w]]
    return vals


def join_of(L, S):
    """Join of a family of elements; the empty join is bottom.

    S may be any iterable of indices or an int bitmask below 2^n.
    """
    return _fold(L, L.join_table, L.bot, S)


def meet_of(L, S):
    """Meet of a family of elements; the empty meet is top."""
    return _fold(L, L.meet_table, L.top, S)


def _fold(L, table, start, S):
    """table folded over S from start. An int S (not a bool) is a bitmask;
    members other than plain ints in 0..n-1 go through _index_array."""
    if isinstance(S, (int, np.integer)) and not isinstance(S, bool):
        if not 0 <= S < 1 << L.n:
            raise ValidationFailed(f"bitmask outside 0..2^{L.n}-1")
        S = _bits(int(S))
    else:
        S = list(S) if np.iterable(S) else [S]
        if not all(type(v) is int and 0 <= v < L.n for v in S):
            S = _index_array(S, "element list", (len(S),), L.n).tolist()
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
        self.image = _frozen(
            _index_array(image, "image", (source.n,), target.n))

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
        return f"{type(self).__name__}({self.image.tolist()})"

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


def _endo_image(f, L, what):
    """The image array of f: an endomap of L, or an index array taken as
    the image of one and checked by _index_array."""
    if isinstance(f, LatticeMap):
        if f.source != L or f.target != L:
            raise ValidationFailed(f"{what} lives on a different lattice")
        return f.image
    return _index_array(f, what, (L.n,), L.n)


def identity_map(L):
    return EndoMap(L, np.arange(L.n))


def is_sup_preserving(f):
    """True iff f preserves all joins, the empty join included; decided by
    _adjunction_holds."""
    return _sup_witness(f.source, f.target, f.image[None, :]) is None


def is_meet_preserving(f):
    """True iff f preserves all meets: sup-preserving between the duals."""
    return _sup_witness(f.source.dual(), f.target.dual(),
                        f.image[None, :]) is None


def right_adjoint(f):
    """The right adjoint of a sup-preserving map.

    f(x) <= y iff x <= g(y), realized as g(y) = join of {x | f(x) <= y}.
    """
    return _adjoint(f, f.source, f.target, NotSupPreserving, "bot")


def left_adjoint(g):
    """The left adjoint of a meet-preserving map.

    f(x) <= y iff x <= g(y), realized as f(x) = meet of {y | x <= g(y)}:
    the right adjoint between the dual lattices.
    """
    return _adjoint(g, g.source.dual(), g.target.dual(), NotMeetPreserving,
                    "top")


def _adjoint(f, source, target, error, bot):
    """The right adjoint of f as a map source -> target, which are f's
    lattices or their duals; raises error with the witness of
    _sup_witness, its ("bot",) named bot, when f does not qualify."""
    witness, (image,) = _sup_adjoints(source, target, f.image[None, :])
    if witness is not None:
        raise error((bot,) if witness == ("bot",) else witness)
    if f.source == f.target:
        return EndoMap(f.source, image)
    return LatticeMap(f.target, f.source, image)


def _right_adjoints(source, target, imgs):
    """g(y) = join of {j in J(source) | f(j) <= y} for each row f of an
    (R, source.n) image array, one step per j, in row blocks: the right
    adjoint of every row that _adjunction_holds accepts. Pass the duals for
    left adjoints of meet-preserving maps."""
    leq, jt = target.leq, source.join_table
    steps = [(j, jt[:, j].copy()) for j in source.join_irreducibles]
    out = np.full((len(imgs), target.n), source.bot, dtype=np.int64)
    step = max(1, _BLOCK_ENTRIES // target.n)
    for b in range(0, len(imgs), step):
        rows = slice(b, b + step)
        block = out[rows]
        for j, col in steps:
            np.copyto(block, col[block], where=leq[imgs[rows, j]])
    return out


def _adjunction_holds(source, target, imgs, adj):
    """Which rows f of imgs preserve all joins, the empty one included,
    given adj = _right_adjoints(source, target, imgs): those monotone on
    the covers with f(g(y)) <= y for all y. Then f(x) <= y iff x <= g(y),
    as x is the join of the j below it: f is a left adjoint (Blyth and
    Janowitz, Residuation Theory). The gathers read a contiguous
    (source.n, R) copy, free for a transposed table."""
    cols, cov = np.ascontiguousarray(imgs.T), source.cover_array
    r, nt, leq_f = cols.shape[1], target.n, target.leq.ravel()
    ok = np.ones(r, dtype=bool)
    step = max(1, _BLOCK_ENTRIES // max(r, 1))
    for b in range(0, len(cov), step):
        c = cov[b:b + step]
        ok &= leq_f[cols[c[:, 0]] * nt + cols[c[:, 1]]].all(axis=0)
    cols_f, ar, ys = cols.ravel(), np.arange(r), np.arange(nt)
    step = max(1, _BLOCK_ENTRIES // nt)
    for b in range(0, r, step):
        rows = slice(b, b + step)
        ok[rows] &= leq_f[cols_f[adj[rows] * r + ar[rows, None]] * nt
                          + ys].all(axis=1)
    return ok


def _sup_witness(source, target, imgs):
    """For the first row of an (R, source.n) image array that is not
    sup-preserving, by _adjunction_holds, ("bot",) or the first (x, y)
    with f(x v y) != f(x) v f(y); None if there is none."""
    return _sup_adjoints(source, target, imgs)[0]


def _sup_adjoints(source, target, imgs):
    """(_sup_witness, _right_adjoints) of an (R, source.n) image array from
    one fold: the adjoints decide sup-preservation and, when the witness
    is None, are the right adjoint of every row."""
    adj = _right_adjoints(source, target, imgs)
    ok = _adjunction_holds(source, target, imgs, adj)
    if ok.all():
        return None, adj
    img = imgs[np.argmin(ok)]
    if img[source.bot] != target.bot:
        return ("bot",), adj
    jt = target.join_table
    pairs = np.argwhere(img[source.join_table] != jt[np.ix_(img, img)])
    return (int(pairs[0][0]), int(pairs[0][1])), adj


def is_order_isomorphism(f):
    """Bijective and order-reflecting in both directions."""
    if f.source.n != f.target.n or len(set(f.image.tolist())) != f.source.n:
        return False
    return bool(
        (f.source.leq == f.target.leq[np.ix_(f.image, f.image)]).all())


def is_distributive(L):
    """Whether every join-irreducible j is join-prime (j <= x v y only if
    j <= x or j <= y), in O(|J| n^2): for a finite lattice, distributivity,
    as x |-> {j in J | j <= x} is then an embedding into a powerset."""
    jt = L.join_table
    return not any(up[jt[np.ix_(~up, ~up)]].any()
                   for up in L.leq[L.join_irreducibles])


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
    leq = np.eye(n + 2, dtype=bool)
    leq[0, :] = leq[:, -1] = True
    labels = ["bot"] + [f"a{i}" for i in range(1, n + 1)] + ["top"]
    return FiniteLattice.from_leq(leq, labels)


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
    column of G = F.T, an (n, R) array, holds at every x the join of the
    images assigned so far to irreducibles below x. The next irreducible j
    branches a column on every v >= F(j), the join of the images below j,
    so the columns are exactly the monotone assignments and none repeats;
    the rows of G over the upset of j are then joined with v in place, one
    flat lookup each. A column is dropped once some incomparable pair x, y
    whose irreducibles are all assigned has F(x v y) not below
    F(x) v F(y): F(x) and F(y) are final and F(x v y) only grows, so this
    is sound early and binary-join preservation at the end. A pair is
    checked on every column at the step it becomes ready, and later only
    on the columns where F(x v y) grew at that step. No stage holds more
    than n^|J| columns. The rows are sorted by their _row_keys.
    """
    irr = L.join_irreducibles
    estimate = L.n ** len(irr)
    if estimate > max_candidates:
        raise BudgetExceeded(estimate, max_candidates)
    n, leq, jt = L.n, L.leq, L.join_table
    leq_f, jt_f = leq.ravel(), jt.ravel()
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
    G = np.full((n, 1), L.bot, dtype=np.int64)
    for step, j in enumerate(irr):
        cols, vals = np.nonzero(leq[G[j]])
        G = G[:, cols]
        del cols
        # the columns where F(x v y) grows (v not <= F(x v y)), for the
        # pairs ready before this step
        grew = {xy: np.flatnonzero(~leq_f[vals * n + G[xy]])
                for xy in {xy for _, _, xy, r in pairs
                           if r < step and leq[j, xy]}}
        for u in np.flatnonzero(leq[j]):
            np.take(jt_f, G[u] * n + vals, out=G[u])
        del vals
        keep = np.ones(G.shape[1], dtype=bool)
        for x, y, xy, r in pairs:
            if r == step:
                keep &= leq_f[G[xy] * n + jt_f[G[x] * n + G[y]]]
            elif r < step and xy in grew:
                c = grew[xy]
                keep[c] &= leq_f[G[xy, c] * n + jt_f[G[x, c] * n + G[y, c]]]
        if not keep.all():
            G = G[:, keep]
    keys = _row_keys(G.T)
    del G
    keys.sort(kind="stable")
    return keys.view(_row_key_dtype(n)).reshape(-1, n).astype(np.int64)


def _row_key_dtype(n):
    return np.dtype(">u1" if n <= 1 << 8 else ">u2" if n <= 1 << 16
                    else ">u4")


def _row_keys(rows):
    """One byte string per row of an (..., n) array of element indices
    below n: the entries as fixed-width big-endian unsigned integers, so
    that byte order is row order (lexicographic) for every n."""
    a = np.ascontiguousarray(rows, dtype=_row_key_dtype(rows.shape[-1]))
    return a.view(f"S{a.shape[-1] * a.itemsize}")[..., 0]
