"""Tight endomaps of the height-three modular lattices M_n.

M_n has bottom 0, atoms 1..n, top n+1. Everything here leans on two facts:
a sup-preserving endomap of M_n is tight exactly when its image contains at
most two atoms (equivalently, when its image is a distributive sublattice),
and the tight maps fall into four closed families

    c_bot, c_top;  c_j, a_j, c_j o a_m;  c_j v a_m;  two-atom generators

whose sizes sum to n^4/2 - n^3 + 5 n^2/2 + 2n + 2.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, InvariantViolated, NotDistinctAtoms, \
    NotSupPreserving, ValidationFailed
from .lattice import (
    EndoMap,
    FiniteLattice,
    _endo_image,
    _index_array,
    _row_keys,
    _sup_adjoints,
    _sup_endomap_images,
    _sup_witness,
    is_distributive,
    m_lattice,
    meet_of,
    n5,
)
from .quantale import is_positive_element
from .raney import (
    _RowIndex,
    _a_rows,
    _c_rows,
    _generator_rows,
    _raney_sup_batch,
    _tight_mask,
    tight_quantale,
)

_DEFAULT_MAX_ATOMS = 6

_CLASS_NAMES = ("constants", "c_compose_a", "c_join_a", "f_generators",
                "others")


def tight_count_formula(n):
    # n^4 + 5 n^2 is even for every n, so this stays exact
    return (n ** 4 + 5 * n ** 2) // 2 - n ** 3 + 2 * n + 2


def _budgeted_m_lattice(n, max_atoms):
    """m_lattice(n), refused with the (n+2)^n estimate if n > max_atoms."""
    if max_atoms < 0:
        raise ValidationFailed("max_atoms must be nonnegative")
    if n > max_atoms:
        raise BudgetExceeded((n + 2) ** n, (max_atoms + 2) ** max_atoms,
                             "atom assignments")
    return m_lattice(n)


def sup_endomap_images_mn(n, max_atoms=_DEFAULT_MAX_ATOMS):
    """Image rows of every sup-preserving endomap of M_n, sorted.

    The generic enumeration of lattice._sup_endomap_images on m_lattice(n),
    behind the max_atoms budget on the (n+2)^n atom assignments.
    """
    return _sup_endomap_images(_budgeted_m_lattice(n, max_atoms))


def tight_images_mn(n, max_atoms=_DEFAULT_MAX_ATOMS):
    imgs = sup_endomap_images_mn(n, max_atoms)
    return imgs[_tight_mask(m_lattice(n), imgs)]


def _generator_params(n):
    """Every atom tuple (x1, y1, x2, y2) of M_n with x1 != x2 and y1 != y2,
    as rows: (x1, x2) is the outer and (y1, y2) the inner loop."""
    pairs = list(itertools.permutations(range(1, n + 1), 2))
    return np.asarray([(x1, y1, x2, y2) for x1, x2 in pairs
                       for y1, y2 in pairs], dtype=np.int64).reshape(-1, 4)


def _tight_families(L):
    """The image rows of the named tight families of M_n, in the order of
    _CLASS_NAMES: the zero map and c_top; c_y o a_x for y != bot and
    x != top, except c_top o a_bot = c_top; c_j v a_m for atoms j, m; and
    f_{x1,y1,x2,y2} for x1 < x2 and y1 != y2 (swapping the two pairs
    gives the same map). They are disjoint, of sizes 2, n^2 + 2n, n^2 and
    n^2 (n-1)^2 / 2, which sum to the closed form."""
    atoms = np.arange(1, L.n - 1)
    y, x = np.asarray([(y, x) for y in range(1, L.n) for x in range(L.n - 1)
                       if (y, x) != (L.top, L.bot)],
                      dtype=np.int64).reshape(-1, 2).T
    joins = L.join_table[_c_rows(L, atoms)[:, None], _a_rows(L, atoms)]
    params = _generator_params(L.n - 2)
    return [_c_rows(L, [L.bot, L.top]), _generator_rows(L, y, x),
            joins.reshape(-1, L.n),
            _f_gen_rows(L, params[params[:, 0] < params[:, 2]])]


@dataclass(frozen=True)
class MnTightReport:
    """Tight-map census of M_n: enumerated count, closed form, and the
    per-family breakdown (None when enumeration was skipped)."""

    n: int
    counted: object
    formula_value: int
    by_class: object

    def to_dict(self):
        return {"n": self.n, "counted": self.counted,
                "formula_value": self.formula_value,
                "by_class": self.by_class}


def count_tight_mn(n, enumerate=True, max_atoms=_DEFAULT_MAX_ATOMS):
    if n < 0:
        raise ValidationFailed("atom count must be nonnegative")
    formula = tight_count_formula(n)
    if not enumerate:
        return MnTightReport(n, None, formula, None)
    rows = tight_images_mn(n, max_atoms)
    families = _tight_families(m_lattice(n))
    table = np.concatenate(families)
    label = np.repeat(np.arange(len(families)), [len(f) for f in families])
    order = np.argsort(_row_keys(table), kind="stable")
    pos, found = _RowIndex(table[order]).locate(rows)
    if not found.all():
        raise InvariantViolated("every tight map of M_n is in a named family",
                                rows[np.argmin(found)].tolist())
    counted = len(rows)
    if counted != formula:
        raise InvariantViolated("the tight maps of M_n match the closed form",
                                {"counted": counted, "formula": formula})
    sizes = np.bincount(label[order][pos], minlength=len(_CLASS_NAMES))
    by_class = dict(zip(_CLASS_NAMES, sizes.tolist()))
    return MnTightReport(n, counted, formula, by_class)


def tight_profile_mn(n, f):
    """Three independent characterizations of tightness on M_n.

    Returns tight / image_distributive / atoms_in_image and checks the
    equivalences: tight iff the image sublattice is distributive iff at
    most two atoms lie in the image.
    """
    L = m_lattice(n)
    img = _endo_image(f, L, "map")
    witness = _sup_witness(L, L, img[None, :])
    if witness is not None:
        raise NotSupPreserving(witness)
    tight = bool(_tight_mask(L, img[None, :])[0])
    members = sorted(set(img.tolist()))
    sub = FiniteLattice.from_leq(L.leq[np.ix_(members, members)])
    distributive = is_distributive(sub)
    atoms_in_image = sum(1 for v in members if 1 <= v <= n)
    if not tight == distributive == (atoms_in_image <= 2):
        raise InvariantViolated(
            "tight iff the image is distributive iff it has at most two atoms",
            img.tolist())
    return {"tight": tight, "image_distributive": distributive,
            "atoms_in_image": atoms_in_image}


def f_gen(n, x1, y1, x2, y2):
    """The tight map bot |-> bot, x1 |-> y1, x2 |-> y2, all else |-> top,
    for distinct source atoms x1, x2 and distinct value atoms y1, y2."""
    L = m_lattice(n)
    params = _index_array([[x1, y1, x2, y2]], "f_gen atoms", (1, 4), None)
    for v in params[0].tolist():
        if not 1 <= v <= n:
            raise NotDistinctAtoms(f"{v} is not an atom of M_{n}")
    if x1 == x2:
        raise NotDistinctAtoms("source atoms coincide")
    if y1 == y2:
        raise NotDistinctAtoms("value atoms coincide")
    return EndoMap(L, _f_gen_rows(L, params)[0])


def _f_gen_rows(L, params):
    """The images of f_gen on M_n for the (x1, y1, x2, y2) rows of params,
    checked against c_y2 o a_x1 v c_y1 o a_x2 on the whole table."""
    x1, y1, x2, y2 = params.T
    rows = _c_rows(L, np.full(len(params), L.top))
    at = np.arange(len(params))
    rows[at, x1], rows[at, x2] = y1, y2
    join = L.join_table[_generator_rows(L, y2, x1),
                        _generator_rows(L, y1, x2)]
    bad = np.argwhere(rows != join)
    if bad.size:
        r, t = bad[0]
        raise InvariantViolated("f_gen is c_y2 o a_x1 v c_y1 o a_x2",
                                (*params[r].tolist(), int(t)))
    return rows


@dataclass(frozen=True)
class _SweepReport:
    """Named flags of a sweep over M_n with the first witness of each
    failed one; truthy iff every flag holds."""

    n: int
    flags: dict
    witnesses: dict

    def __bool__(self):
        return all(self.flags.values())

    def to_dict(self):
        return {"n": self.n, "flags": dict(self.flags),
                "witnesses": dict(self.witnesses)}


class NegationReport(_SweepReport):
    """Outcome of the closed-form negation sweep; truthy iff both formulas
    held on every parameter tuple."""


def check_negation_formulas(n, max_atoms=_DEFAULT_MAX_ATOMS):
    """star(c_y o a_x) = c_x v a_y over all pairs, and
    star(f_{x1,y1,x2,y2}) = f_{y1,x2,y2,x1} over all valid atom tuples.

    Each formula is one table of image rows and one star call. A witness
    is the first failing (y, x), or the first failing (x1, y1, x2, y2)
    with (x1, x2) the outer and (y1, y2) the inner lexicographic order.
    """
    L = _budgeted_m_lattice(n, max_atoms)
    yx = np.asarray(list(itertools.product(range(L.n), repeat=2)))
    xyxy = _generator_params(n)
    flags, witnesses = {}, {}
    for name, params, rows, expected in (
            ("composite", yx, _generator_rows(L, yx[:, 0], yx[:, 1]),
             L.join_table[_c_rows(L, yx[:, 1]), _a_rows(L, yx[:, 0])]),
            ("generator", xyxy, _f_gen_rows(L, xyxy),
             _f_gen_rows(L, xyxy[:, [1, 2, 3, 0]]))):
        # star's precondition and star (rans of the adjoints): one fold
        witness, adj = _sup_adjoints(L, L, rows)
        if witness is not None:
            raise NotSupPreserving(witness)
        bad = (_raney_sup_batch(L, adj) != expected).any(axis=1)
        flags[name] = not bad.any()
        if bad.any():
            witnesses[name] = tuple(int(v) for v in params[np.argmax(bad)])
    return NegationReport(n, flags, witnesses)


def pentagon_diamond_check(L):
    """For the pentagon and the diamond, the tight maps are exactly the
    sup-preserving endomaps that are not order isomorphisms.

    Checks the set identity and the isomorphism counts: the pentagon has
    only the identity, the diamond all six atom permutations.
    """
    if L == m_lattice(3):
        expected_isos = 6
    elif L == n5():
        expected_isos = 1
    else:
        raise ValidationFailed(
            "the set identity is only claimed for the pentagon and diamond")
    imgs = _sup_endomap_images(L)
    ar = np.arange(L.n)
    # bijective and order-reflecting
    iso = (np.sort(imgs, axis=1) == ar).all(axis=1) & \
        (L.leq == L.leq[imgs[:, :, None], imgs[:, None, :]]).all(axis=(1, 2))
    if iso.sum() != expected_isos:
        raise InvariantViolated("order automorphism count", int(iso.sum()))
    if not (imgs[iso] == ar).all(axis=1).any():
        raise InvariantViolated("the identity is an order automorphism")
    # the rows that are tight exactly when they are isomorphisms, sorted
    odd = imgs[_tight_mask(L, imgs) == iso]
    if odd.size:
        raise InvariantViolated("tight maps are the non-isomorphisms",
                                odd[0].tolist())
    return True


class PositivityReport(_SweepReport):
    """Residual-square positivity sweep; truthy iff every x\\x and x/x is
    positive, sits above the identity pointwise, and the bottom map is
    not positive."""


def positivity_suite_mn(n, max_atoms=_DEFAULT_MAX_ATOMS):
    L = _budgeted_m_lattice(n, max_atoms)
    T = tight_quantale(L)
    Q = T.quantale
    diag = np.arange(T.n)
    lres = Q.left_residual_table[diag, diag]
    rres = Q.right_residual_table[diag, diag]
    flags = {"residual_squares_positive": True,
             "residuals_above_identity": True,
             "bottom_not_positive": True}
    witnesses = {}
    for p in sorted(set(lres.tolist()) | set(rres.tolist())):
        if not is_positive_element(Q, p):
            flags["residual_squares_positive"] = False
            witnesses.setdefault("residual_squares_positive", p)
    ar = np.arange(L.n)
    for i in range(T.n):
        for p in (int(lres[i]), int(rres[i])):
            if not L.leq[ar, T.elements[p].image].all():
                flags["residuals_above_identity"] = False
                witnesses.setdefault("residuals_above_identity", (i, p))
    if T.n > 1 and is_positive_element(Q, Q.lattice.bot):
        flags["bottom_not_positive"] = False
        witnesses["bottom_not_positive"] = Q.lattice.bot
    return PositivityReport(n, flags, witnesses)


@dataclass(frozen=True)
class ClosureReport:
    """The correspondence between sup-preserving closure operators on M_n
    and its bounded sublattices, with the tight/distributive refinement
    and the meet-collapse exhibit (for n >= 3)."""

    n: int
    closure_count: int
    sublattice_count: int
    family: tuple
    flags: dict
    witnesses: dict

    def __bool__(self):
        return all(self.flags.values())

    def to_dict(self):
        return {"n": self.n, "closure_count": self.closure_count,
                "sublattice_count": self.sublattice_count,
                "family": [list(s) for s in self.family],
                "flags": dict(self.flags),
                "witnesses": dict(self.witnesses)}


def _closure_of_sublattice(L, S):
    """The map sending x to the meet of the members of S above it; for a
    meet-closed S containing top this is the least such member."""
    return np.asarray(
        [meet_of(L, [s for s in S if L.leq[x, s]]) for x in range(L.n)],
        dtype=np.int64)


def _bounded_sublattices(L):
    out = []
    inner = [x for x in range(L.n) if x not in (L.bot, L.top)]
    for r in range(len(inner) + 1):
        for pick in itertools.combinations(inner, r):
            S = tuple(sorted((L.bot, L.top) + pick))
            if all(L.join_table[x, y] in S and L.meet_table[x, y] in S
                   for x, y in itertools.combinations(S, 2)):
                out.append(S)
    return out


def closures_vs_sublattices(n, max_atoms=_DEFAULT_MAX_ATOMS):
    """Sup-preserving closure operators on M_n biject with bounded
    sublattices via fixed points, tight ones with distributive sublattices.

    For n >= 3 also exhibits a family of tight closure operators whose
    pointwise meet is the identity while their meet inside the tight
    quantale collapses to the bottom map.
    """
    imgs = sup_endomap_images_mn(n, max_atoms)
    L = m_lattice(n)
    ar = np.arange(L.n)
    closed = L.leq[ar, imgs].all(axis=1)
    closed &= (np.take_along_axis(imgs, imgs, axis=1) == imgs).all(axis=1)
    closures = imgs[closed]
    fixed = [tuple(int(v) for v in np.flatnonzero(row == ar))
             for row in closures]
    subs = _bounded_sublattices(L)

    flags = {"bijection": True, "tight_iff_distributive": True}
    witnesses = {}
    if len(set(fixed)) != len(closures) or set(fixed) != set(subs):
        flags["bijection"] = False
        witnesses["bijection"] = sorted(set(fixed) ^ set(subs))
    for row, S, tight in zip(closures, fixed, _tight_mask(L, closures)):
        # inverse direction: each x goes to the least fixed point above it
        if list(row) != list(_closure_of_sublattice(L, S)):
            flags["bijection"] = False
            witnesses.setdefault("bijection", S)
        sub = FiniteLattice.from_leq(L.leq[np.ix_(S, S)])
        if tight != is_distributive(sub):
            flags["tight_iff_distributive"] = False
            witnesses.setdefault("tight_iff_distributive", S)

    family = ()
    if n >= 3:
        pairs = [(2 * k + 1, 2 * k + 2) for k in range(n // 2)]
        if n % 2:
            pairs.append((n, 1))
        family = tuple(tuple(sorted((L.bot, a, b, L.top))) for a, b in pairs)
        members = [_closure_of_sublattice(L, S) for S in family]
        pointwise = members[0]
        for m in members[1:]:
            pointwise = L.meet_table[pointwise, m]
        flags["pointwise_meet_is_identity"] = bool((pointwise == ar).all())
        T = tight_quantale(L)
        acc = T.index_of(members[0])
        for m in members[1:]:
            acc = int(T.quantale.lattice.meet_table[acc, T.index_of(m)])
        flags["tight_meet_is_bottom"] = acc == T.quantale.lattice.bot
        if not flags["pointwise_meet_is_identity"]:
            witnesses["pointwise_meet_is_identity"] = list(pointwise)
        if not flags["tight_meet_is_bottom"]:
            witnesses["tight_meet_is_bottom"] = acc

    return ClosureReport(n, len(closures), len(subs), family, flags,
                         witnesses)
