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
    _sup_endomap_images,
    _sup_witness,
    enumerate_sup_endomaps,
    identity_map,
    is_distributive,
    is_order_isomorphism,
    is_sup_preserving,
    m_lattice,
    meet_of,
    n5,
)
from .quantale import is_positive_element
from .raney import (
    _images,
    _raney_inf_batch,
    _raney_sup_batch,
    a_map,
    c_map,
    is_tight,
    star,
    tight_quantale,
)

_DEFAULT_MAX_ATOMS = 6

_CLASS_NAMES = ("constants", "c_compose_a", "c_join_a", "f_generators",
                "others")


def tight_count_formula(n):
    # n^4 + 5 n^2 is even for every n, so this stays exact
    return (n ** 4 + 5 * n ** 2) // 2 - n ** 3 + 2 * n + 2


def sup_endomap_images_mn(n, max_atoms=_DEFAULT_MAX_ATOMS):
    """Image rows of every sup-preserving endomap of M_n, sorted.

    The generic enumeration of lattice._sup_endomap_images on m_lattice(n),
    behind the max_atoms budget on the (n+2)^n atom assignments.
    """
    if n > max_atoms:
        raise BudgetExceeded((n + 2) ** n, (max_atoms + 2) ** max_atoms,
                             "atom assignments")
    return _sup_endomap_images(m_lattice(n))


def tight_images_mn(n, max_atoms=_DEFAULT_MAX_ATOMS):
    L = m_lattice(n)
    imgs = sup_endomap_images_mn(n, max_atoms)
    fixed = _raney_sup_batch(L, _raney_inf_batch(L, imgs))
    return imgs[(fixed == imgs).all(axis=1)]


def _classify_tight(L, img):
    n = L.n - 2
    bot, top = L.bot, L.top
    if (img == c_map(L, bot).image).all() or (img == a_map(L, bot).image).all():
        return "constants"
    values = set(int(v) for v in img)
    nonbot = values - {bot}
    if len(nonbot) == 1:
        # c_y o a_x: bot exactly on a principal downset, y elsewhere
        y = nonbot.pop()
        zeros = img == bot
        x = int(np.flatnonzero(zeros)[-1]) if zeros[1:].any() else bot
        candidate = c_map(L, y).image[a_map(L, x).image]
        if (img == candidate).all():
            return "c_compose_a"
        return "others"
    atom_positions = np.arange(1, n + 1)
    atom_imgs = img[atom_positions]
    if img[top] != top or img[bot] != bot:
        return "others"
    hit = atom_positions[(atom_imgs >= 1) & (atom_imgs <= n)]
    if len(hit) == 1 and (np.delete(atom_imgs, hit[0] - 1) == top).all():
        m, j = int(hit[0]), int(img[hit[0]])
        candidate = L.join_table[c_map(L, j).image, a_map(L, m).image]
        if (img == candidate).all():
            return "c_join_a"
        return "others"
    if len(hit) == 2 and (np.delete(atom_imgs, hit - 1) == top).all():
        x1, x2 = (int(v) for v in hit)
        y1, y2 = int(img[x1]), int(img[x2])
        if y1 != y2:
            if (img == f_gen(n, x1, y1, x2, y2).image).all():
                return "f_generators"
    return "others"


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
    L = m_lattice(n)
    rows = tight_images_mn(n, max_atoms)
    classes = [_classify_tight(L, row) for row in rows]
    if "others" in classes:
        raise InvariantViolated("every tight map of M_n is in a named family",
                                rows[classes.index("others")].tolist())
    counted = len(rows)
    if counted != formula:
        raise InvariantViolated("the tight maps of M_n match the closed form",
                                {"counted": counted, "formula": formula})
    by_class = {name: classes.count(name) for name in _CLASS_NAMES}
    return MnTightReport(n, counted, formula, by_class)


def tight_profile_mn(n, f):
    """Three independent characterizations of tightness on M_n.

    Returns tight / image_distributive / atoms_in_image and checks the
    equivalences: tight iff the image sublattice is distributive iff at
    most two atoms lie in the image.
    """
    L = m_lattice(n)
    img = _images(L, f)
    g = EndoMap(L, img)
    if not is_sup_preserving(g):
        raise NotSupPreserving(_sup_witness(g))
    tight = is_tight(g)
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
    for v in (x1, y1, x2, y2):
        if not 1 <= v <= n:
            raise NotDistinctAtoms(f"{v} is not an atom of M_{n}")
    if x1 == x2:
        raise NotDistinctAtoms("source atoms coincide")
    if y1 == y2:
        raise NotDistinctAtoms("value atoms coincide")
    img = np.full(L.n, L.top, dtype=np.int64)
    img[L.bot] = L.bot
    img[x1], img[x2] = y1, y2
    join = L.join_table[c_map(L, y2).image[a_map(L, x1).image],
                        c_map(L, y1).image[a_map(L, x2).image]]
    bad = np.flatnonzero(img != join)
    if bad.size:
        raise InvariantViolated("f_gen is c_y2 o a_x1 v c_y1 o a_x2",
                                int(bad[0]))
    return EndoMap(L, img)


@dataclass(frozen=True)
class NegationReport:
    """Outcome of the closed-form negation sweep; truthy iff both formulas
    held on every parameter tuple."""

    n: int
    flags: dict
    witnesses: dict

    def __bool__(self):
        return all(self.flags.values())

    def to_dict(self):
        return {"n": self.n, "flags": dict(self.flags),
                "witnesses": dict(self.witnesses)}


def check_negation_formulas(n, max_atoms=_DEFAULT_MAX_ATOMS):
    """star(c_y o a_x) = c_x v a_y over all pairs, and
    star(f_{x1,y1,x2,y2}) = f_{y1,x2,y2,x1} over all valid atom tuples."""
    if n > max_atoms:
        raise BudgetExceeded((n + 2) ** n, (max_atoms + 2) ** max_atoms,
                             "atom assignments")
    L = m_lattice(n)
    flags = {"composite": True, "generator": True}
    witnesses = {}
    for y, x in itertools.product(range(L.n), repeat=2):
        lhs = star(EndoMap(L, c_map(L, y).image[a_map(L, x).image]))
        rhs = L.join_table[c_map(L, x).image, a_map(L, y).image]
        if not (lhs.image == rhs).all():
            flags["composite"] = False
            witnesses.setdefault("composite", (y, x))
    atoms = range(1, n + 1)
    for x1, x2 in itertools.permutations(atoms, 2):
        for y1, y2 in itertools.permutations(atoms, 2):
            lhs = star(f_gen(n, x1, y1, x2, y2))
            rhs = f_gen(n, y1, x2, y2, x1)
            if lhs != rhs:
                flags["generator"] = False
                witnesses.setdefault("generator", (x1, y1, x2, y2))
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
    sup = enumerate_sup_endomaps(L)
    isos = {f for f in sup if is_order_isomorphism(f)}
    tight = {f for f in sup if is_tight(f)}
    if len(isos) != expected_isos:
        raise InvariantViolated("order automorphism count", len(isos))
    if identity_map(L) not in isos:
        raise InvariantViolated("the identity is an order automorphism")
    odd = sorted(f.image.tolist() for f in tight ^ (set(sup) - isos))
    if odd:
        raise InvariantViolated("tight maps are the non-isomorphisms", odd[0])
    return True


@dataclass(frozen=True)
class PositivityReport:
    """Residual-square positivity sweep; truthy iff every x\\x and x/x is
    positive, sits above the identity pointwise, and the bottom map is
    not positive."""

    n: int
    flags: dict
    witnesses: dict

    def __bool__(self):
        return all(self.flags.values())

    def to_dict(self):
        return {"n": self.n, "flags": dict(self.flags),
                "witnesses": dict(self.witnesses)}


def positivity_suite_mn(n, max_atoms=_DEFAULT_MAX_ATOMS):
    if n > max_atoms:
        raise BudgetExceeded((n + 2) ** n, (max_atoms + 2) ** max_atoms,
                             "atom assignments")
    L = m_lattice(n)
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
    if n > max_atoms:
        raise BudgetExceeded((n + 2) ** n, (max_atoms + 2) ** max_atoms,
                             "atom assignments")
    L = m_lattice(n)
    ar = np.arange(L.n)
    imgs = sup_endomap_images_mn(n, max_atoms)
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
    for row, S in zip(closures, fixed):
        # inverse direction: each x goes to the least fixed point above it
        if list(row) != list(_closure_of_sublattice(L, S)):
            flags["bijection"] = False
            witnesses.setdefault("bijection", S)
        sub = FiniteLattice.from_leq(L.leq[np.ix_(S, S)])
        if is_tight(EndoMap(L, row)) != is_distributive(sub):
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
