"""The four benchmark workloads: their inputs, jobs and exact result checks.

A workload is built by ``setup(name, seed, tmpdir)``, which returns the list
of jobs. ``Job.call`` is the timed work: one call into the library or into the
in-process command line. ``Job.summarize`` runs untimed and reduces the
result to a string that is compared exactly with the stored expected value
(``expected.json``), or with ``Job.expected`` when setup derived the expected
value itself.

The seed chooses only what the library sees as input: the relabelling of the
``laws`` carriers and the corrupted entries of the ``cli`` reject files. Every
summary undoes the relabelling first, so the expected values do not depend on
the seed.
"""

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import finq
import finq.cli
import finq.formats


@dataclass
class Job:
    name: str
    call: Callable[[], object]
    summarize: Callable[[object], str]
    expected: Optional[str] = None


def digest(*parts):
    """sha256 over integer tables, flags and plain values, in a fixed form."""
    h = hashlib.sha256()
    for part in parts:
        _feed(h, part)
    return h.hexdigest()


def _feed(h, v):
    if isinstance(v, np.ndarray):
        a = np.ascontiguousarray(v, dtype=np.int64)
        h.update(f"a{a.shape}".encode())
        h.update(a.tobytes())
    elif isinstance(v, dict):
        h.update(f"d{len(v)}".encode())
        for key in sorted(v):
            h.update(f"k{key}".encode())
            _feed(h, v[key])
    elif isinstance(v, (list, tuple)):
        h.update(f"l{len(v)}".encode())
        for item in v:
            _feed(h, item)
    elif isinstance(v, (bool, np.bool_)):
        h.update(b"b1" if v else b"b0")
    elif isinstance(v, (int, np.integer)):
        h.update(f"i{int(v)}".encode())
    elif v is None or isinstance(v, str):
        h.update(f"s{v!r}".encode())
    else:
        raise TypeError(f"cannot digest {type(v).__name__}")


def _lattice_tables(L):
    return L.leq, L.join_table, L.meet_table, L.bot, L.top


# --- build: carrier construction ------------------------------------------

TIGHT_SPECS = ("M(4)", "M(5)", "M(6)", "boolean(3)", "dual(M(5))",
               "product(chain(2),chain(3))")
BULLET_SPECS = ("M(3)", "N5", "chain(5)", "product(chain(2),chain(3))")


def _summarize_tight(T):
    return digest(np.asarray([f.image for f in T.elements]),
                  *_lattice_tables(T.quantale.lattice), T.quantale.mult,
                  T.frobenius.lneg.image, T.frobenius.rneg.image)


def _summarize_bullet(B):
    return digest(np.asarray([f.image for f in B.elements]),
                  *_lattice_tables(B.quantale.lattice), B.quantale.mult,
                  B.perp.image, B.serre_report.to_dict(), B.quotient.closed,
                  B.iso.mapping, dict(B.iso.flags))


def _build_jobs(seed, tmpdir):
    # The lattice is built inside the job, so that cached covers and
    # join-irreducibles never carry over from one pass to the next.
    jobs = [Job(f"tight {s}",
                lambda s=s: finq.tight_quantale(finq.standard_lattice(s)),
                _summarize_tight) for s in TIGHT_SPECS]
    jobs += [Job(f"bullet {s}",
                 lambda s=s: finq.bullet_quantale(finq.standard_lattice(s)),
                 _summarize_bullet) for s in BULLET_SPECS]
    return jobs


# --- laws: the accept path on relabelled carriers -------------------------

@dataclass
class Carrier:
    """A tight quantale as plain arrays, relabelled by perm: the element x of
    the canonical carrier is element perm[x] here, and inv undoes it."""

    n: int
    leq: np.ndarray
    join: np.ndarray
    meet: np.ndarray
    bot: int
    top: int
    mult: np.ndarray
    star: np.ndarray
    perm: np.ndarray
    inv: np.ndarray

    def lattice(self):
        return finq.FiniteLattice(self.n, self.leq, self.join, self.meet,
                                  self.bot, self.top)

    def quantale(self):
        return finq.Quantale(self.lattice(), self.mult)

    def undo(self, table):
        """A relabelled element table, returned on canonical indices."""
        return self.inv[table[np.ix_(self.perm, self.perm)]]


def relabelled_tight(spec, rng):
    T = finq.tight_quantale(finq.standard_lattice(spec))
    L, n = T.quantale.lattice, T.n
    perm = rng.permutation(n)
    inv = np.argsort(perm)

    def table(t):
        return perm[t[np.ix_(inv, inv)]]

    return Carrier(n, L.leq[np.ix_(inv, inv)], table(L.join_table),
                   table(L.meet_table), int(perm[L.bot]), int(perm[L.top]),
                   table(T.quantale.mult), perm[T.frobenius.lneg.image[inv]],
                   perm, inv)


def _laws_call(c):
    L = c.lattice()
    Q = finq.check_quantale(L, c.mult)
    lres = Q.left_residual_table
    rres = Q.right_residual_table
    frob = finq.check_frobenius(Q, c.star, c.star)
    unit = finq.find_unit(Q)
    positive = finq.is_positive_quantale(Q)
    flags = finq.element_flags(Q, L.bot)
    return lres, rres, frob, unit, positive, flags


def _laws_summary(c, out):
    lres, rres, frob, unit, positive, flags = out
    u = None if unit.unit is None else int(c.inv[unit.unit])
    return digest(c.undo(lres), c.undo(rres), frob.to_dict(),
                  [u, int(c.inv[unit.candidate]), unit.xu_below_x,
                   unit.ux_below_x], positive, flags)


def _represent_call(c):
    Q = c.quantale()
    star = finq.EndoMap(Q.lattice, c.star)
    return finq.represent_frobenius(Q, finq.FrobeniusStructure(Q, star, star))


def _chu_summary(c, out):
    CQ, F = out
    n = c.n
    # the pair (x1, x2) has index x1 * n + x2 in the Chu carrier
    pair = (c.perm[:, None] * n + c.perm[None, :]).ravel()
    pair_inv = np.argsort(pair)

    def undo(table):
        return pair_inv[table[np.ix_(pair, pair)]]

    return digest(CQ.lattice.leq[np.ix_(pair, pair)], undo(CQ.mult),
                  pair_inv[F.lneg.image[pair]], pair_inv[F.rneg.image[pair]])


def _phase_summary(out):
    quot, F = out
    return digest(quot.closed, *_lattice_tables(quot.quantale.lattice),
                  quot.quantale.mult, F.lneg.image, F.rneg.image)


def _laws_jobs(seed, tmpdir):
    rng = np.random.default_rng([seed, 1])
    c = {s: relabelled_tight(s, rng)
         for s in ("M(5)", "M(6)", "M(3)", "N5", "M(2)")}
    z8 = finq.cyclic_group(8)
    ar = np.arange(8)
    rel = finq.BinaryRelation(8, (ar[:, None] + ar[None, :]) % 8 != 0)
    jobs = [Job(f"laws {s}", lambda s=s: _laws_call(c[s]),
                lambda out, s=s: _laws_summary(c[s], out))
            for s in ("M(5)", "M(6)")]
    jobs += [Job(f"represent {s}", lambda s=s: _represent_call(c[s]),
                 lambda out: digest(out.to_dict())) for s in ("M(3)", "N5")]
    jobs.append(Job("chu M(2)",
                    lambda: finq.chu(c["M(2)"].quantale(), validate=True),
                    lambda out: _chu_summary(c["M(2)"], out)))
    jobs.append(Job("phase Z8", lambda: finq.phase_quantale(z8, rel),
                    _phase_summary))
    return jobs


# --- cli: the in-process command line, accept and reject paths ------------

def first_law_violation(jt, mult, bot, block=16):
    """The error type and first witness check_quantale must report.

    An independent full-table scan in check_quantale's order: associativity,
    left distributivity, right distributivity, then bottom absorption on the
    left and on the right; each in lexicographic (x, y, z) order.
    Returns None when every law holds.
    """
    n = len(mult)
    mt = mult.T
    for x0 in range(0, n, block):
        xs = np.arange(x0, min(x0 + block, n))
        bad = np.argwhere(mult[mult[xs, :], :] != mult[xs[:, None, None],
                                                        mult[None, :, :]])
        if bad.size:
            x, y, z = (int(v) for v in bad[0])
            return {"type": "NotAssociative", "x": x0 + x, "y": y, "z": z}
    for side, m in (("left", mult), ("right", mt)):
        for x0 in range(0, n, block):
            rows = m[x0:x0 + block]
            bad = np.argwhere(rows[:, jt]
                              != jt[rows[:, :, None], rows[:, None, :]])
            if bad.size:
                x, y, z = (int(v) for v in bad[0])
                return {"type": "NotDistributive", "side": side,
                        "x": x0 + x, "y": y, "z": z}
    for side, row in (("left", mult[bot, :]), ("right", mult[:, bot])):
        bad = np.flatnonzero(row != bot)
        if bad.size:
            return {"type": "BottomNotAbsorbed", "side": side,
                    "x": int(bad[0])}
    return None


def _write(path, payload):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(finq.formats.dumps_report(payload))


def _corrupted_copy(qdict, rng, path):
    """Change one seeded entry of the table until some law fails; returns
    the outcome check-quantale must report."""
    L = finq.formats.lattice_from_dict(qdict["lattice"])
    mult = np.asarray(qdict["mult"], dtype=np.int64)
    while True:
        bad = mult.copy()
        x, y = (int(v) for v in rng.integers(0, L.n, size=2))
        bad[x, y] = (bad[x, y] + rng.integers(1, L.n)) % L.n
        witness = first_law_violation(L.join_table, bad, L.bot)
        if witness is not None:
            break
    _write(path, dict(qdict, mult=bad.tolist()))
    return json.dumps([1, witness], sort_keys=True)


def _out_digest(path):
    def summarize(code):
        with open(path, "rb") as handle:
            return f"{code}:{hashlib.sha256(handle.read()).hexdigest()}"
    return summarize


def _reject_summary(path):
    def summarize(code):
        with open(path, encoding="utf-8") as handle:
            error = dict(json.load(handle).get("error") or {})
        error.pop("message", None)
        return json.dumps([code, error], sort_keys=True)
    return summarize


def _cli_jobs(seed, tmpdir):
    rng = np.random.default_rng([seed, 2])
    files = {}
    for spec in ("M(2)", "M(3)", "M(4)", "M(5)"):
        T = finq.tight_quantale(finq.standard_lattice(spec))
        files[spec] = finq.formats.quantale_to_dict(
            T.quantale, T.frobenius.lneg.image, T.frobenius.rneg.image)
        _write(os.path.join(tmpdir, f"{spec}.json"), files[spec])
    ar = np.arange(7)
    semigroup = os.path.join(tmpdir, "z7-semigroup.json")
    relation = os.path.join(tmpdir, "z7-relation.json")
    _write(semigroup, {"n": 7, "op": (ar[:, None] + ar[None, :]) % 7})
    _write(relation, {"rel": ((ar[:, None] + ar[None, :]) % 7 != 0).tolist()})

    def job(name, argv):
        out = os.path.join(tmpdir, f"out-{len(jobs)}.json")
        jobs.append(Job(name,
                        lambda: finq.cli.main([*argv, "--out", out]),
                        _out_digest(out)))

    jobs = []
    job("tight-quantale M(5)",
        ["tight-quantale", "--lattice", "M(5)", "--find-unit"])
    job("bullet N5", ["bullet", "--lattice", "N5"])
    job("chu M(2)", ["chu", "--quantale", os.path.join(tmpdir, "M(2).json")])
    for spec in ("M(3)", "M(4)"):
        path = os.path.join(tmpdir, f"{spec}.json")
        for verb in ("check-frobenius", "residuals", "report", "represent"):
            job(f"{verb} {spec}", [verb, "--quantale", path])
    job("phase Z7", ["phase", "--semigroup", semigroup,
                     "--relation", relation])
    for spec in ("M(4)", "M(5)"):
        bad = os.path.join(tmpdir, f"{spec}-corrupted.json")
        out = os.path.join(tmpdir, f"out-{len(jobs)}.json")
        expected = _corrupted_copy(files[spec], rng, bad)
        jobs.append(Job(f"reject {spec}",
                        lambda bad=bad, out=out: finq.cli.main(
                            ["check-quantale", "--quantale", bad,
                             "--out", out]),
                        _reject_summary(out), expected))
    return jobs


# --- mn: the M_n census ----------------------------------------------------

def _mn_jobs(seed, tmpdir):
    def report(fname, n, **kw):
        # looked up at call time, so that a traced pass sees its wrappers
        return Job(f"{fname} {n}", lambda: getattr(finq, fname)(n, **kw),
                   lambda out: digest(out.to_dict()))

    return ([report("count_tight_mn", n, max_atoms=7) for n in range(2, 8)]
            + [report("check_negation_formulas", n, max_atoms=7)
               for n in range(2, 8)]
            + [report("closures_vs_sublattices", n) for n in range(2, 6)])


def setup(name, seed, tmpdir):
    return {"build": _build_jobs, "laws": _laws_jobs, "cli": _cli_jobs,
            "mn": _mn_jobs}[name](seed, tmpdir)
