"""Batch front end: load objects from JSON files, run checks, emit reports.

Every verb is a thin shell around one library operation (or a fixed
pipeline of them). Reports are deterministic JSON on standard out (or
--out), human summaries go to standard error, and the exit code is 0 when
all checks pass, 1 when a mathematical check fails (witnesses in the
report), 2 on parse, validation, or budget errors and an unwritable
--out, and 3 when one of the library's own invariants fails
(InvariantViolated: a defect in finq, with the witness in the report).
A raised error's code is its class's FinqError.exit_code. A verb puts
the library's arrays and to_dict() results into its report as they are;
finq.formats alone turns them into JSON.
"""

import argparse
import os
import sys

from . import __version__
from .diamonds import (
    _DEFAULT_MAX_ATOMS,
    check_negation_formulas,
    closures_vs_sublattices,
    count_tight_mn,
    positivity_suite_mn,
)
from .errors import FinqError, NotANucleus, ValidationFailed
from .formats import (
    dumps_report,
    endomap_from_dict,
    lattice_from_dict,
    lattice_to_dict,
    load_json,
    quantale_from_dict,
    quantale_to_dict,
    relation_from_dict,
    semigroup_from_dict,
)
from .lattice import EndoMap, is_distributive, is_sup_preserving, \
    standard_lattice
from .nuclei import phase_quantale, quotient_quantale, represent_frobenius
from .quantale import (
    FrobeniusStructure,
    check_frobenius,
    check_quantale,
    chu,
    element_flags,
    find_unit,
    is_positive_quantale,
)
from .raney import (
    bullet_quantale,
    cotight_closure,
    is_cotight,
    is_tight,
    raney_inf,
    raney_sup,
    star,
    tight_interior,
    tight_quantale,
)

# envelope status and stderr word for each FinqError.exit_code
_OUTCOMES = {1: ("fail", "fail"), 2: ("error", "error"),
             3: ("error", "internal error")}


def _load_lattice(spec):
    """A path to a lattice file, or a constructor expression like M(3)."""
    if os.path.exists(spec) or spec.endswith(".json"):
        return lattice_from_dict(load_json(spec))
    return standard_lattice(spec)


def _load_quantale(path):
    return quantale_from_dict(load_json(path))


def _checked_quantale(path):
    L, mult, lneg, rneg = _load_quantale(path)
    return check_quantale(L, mult), lneg, rneg


def _negation_pair(L, lneg, rneg):
    if lneg is None and rneg is None:
        raise ValidationFailed(
            "the quantale file carries no lneg or rneg field")
    if lneg is None:
        lneg = rneg
    if rneg is None:
        rneg = lneg
    return EndoMap(L, lneg), EndoMap(L, rneg)


def _cmd_check_lattice(args):
    L = _load_lattice(args.lattice)
    return True, {"n": L.n, "bot": L.bot, "top": L.top,
                  "distributive": is_distributive(L),
                  "lattice": lattice_to_dict(L)}


def _cmd_check_quantale(args):
    Q, _, _ = _checked_quantale(args.quantale)
    return True, {"n": Q.n, "laws": "pass", "unit": find_unit(Q).unit}


def _cmd_check_frobenius(args):
    Q, lneg, rneg = _checked_quantale(args.quantale)
    l, r = _negation_pair(Q.lattice, lneg, rneg)
    rep = check_frobenius(Q, l, r)
    return rep.frobenius_valid, rep.to_dict()


def _cmd_residuals(args):
    Q, _, _ = _checked_quantale(args.quantale)
    return True, {
        "left_residuals": Q.left_residual_table,
        "right_residuals": Q.right_residual_table,
        "convention": {
            "left_residuals": "entry [x][z] is the largest y with x*y <= z",
            "right_residuals": "entry [z][y] is the largest x with x*y <= z",
        }}


def _cmd_chu(args):
    Q, _, _ = _checked_quantale(args.quantale)
    CQ, F = chu(Q)
    return True, {
        "n": CQ.n,
        "quantale": quantale_to_dict(CQ, F.lneg.image, F.rneg.image),
        "unit": find_unit(CQ).unit,
        "girard": F.girard}


def _cmd_nucleus(args):
    Q, _, _ = _checked_quantale(args.quantale)
    j = endomap_from_dict(load_json(args.endomap), Q.lattice)
    try:
        quot = quotient_quantale(Q, j)
    except NotANucleus as exc:
        return False, {"nucleus": False, "law": exc.law,
                       "witness": exc.witness}
    return True, {"nucleus": True,
                  "closed": quot.closed,
                  "quantale": quantale_to_dict(quot.quantale)}


def _cmd_phase(args):
    S = semigroup_from_dict(load_json(args.semigroup))
    R = relation_from_dict(load_json(args.relation))
    if R.n != S.n:
        raise ValidationFailed(
            "relation and semigroup have different carriers")
    quot, F = phase_quantale(S, R, max_elements=args.max_powerset)
    members = [[b for b in range(S.n) if mask >> b & 1]
               for mask in quot.closed]
    return True, {
        "closed": quot.closed,
        "closed_sets": members,
        "quantale": quantale_to_dict(quot.quantale, F.lneg.image,
                                     F.rneg.image),
        "unit": find_unit(quot.quantale).unit,
        "girard": F.girard}


def _cmd_represent(args):
    Q, lneg, rneg = _checked_quantale(args.quantale)
    l, r = _negation_pair(Q.lattice, lneg, rneg)
    F = FrobeniusStructure(Q, l, r)
    rep = represent_frobenius(Q, F)
    return rep.passed, rep.to_dict()


def _cmd_raney(args):
    L = _load_lattice(args.lattice)
    f = endomap_from_dict(load_json(args.endomap), L)
    return True, {
        "rans": raney_sup(f).image,
        "rani": raney_inf(f).image,
        "tight_interior": tight_interior(f).image,
        "cotight_closure": cotight_closure(f).image,
        "is_tight": is_tight(f),
        "is_cotight": is_cotight(f),
        "star": star(f).image if is_sup_preserving(f) else None}


def _cmd_tight_quantale(args):
    L = _load_lattice(args.lattice)
    T = tight_quantale(L, max_candidates=args.max_candidates)
    report = {"n": T.n, "elements": [f.image for f in T.elements],
              "quantale": quantale_to_dict(T.quantale, T.frobenius.lneg.image,
                                           T.frobenius.rneg.image)}
    if args.find_unit:
        report["unit"] = find_unit(T.quantale).unit
    return True, report


def _cmd_bullet(args):
    L = _load_lattice(args.lattice)
    B = bullet_quantale(L, max_candidates=args.max_candidates)
    return True, {
        "n": len(B.elements),
        "elements": [f.image for f in B.elements],
        "mult": B.quantale.mult,
        "perp": B.perp.image,
        "serre": B.serre_report.to_dict(),
        "cotight": B.quotient.closed,
        "iso": {"mapping": B.iso.mapping, "flags": B.iso.flags}}


def _cmd_mn_count(args):
    report = count_tight_mn(args.n, enumerate=args.enumerate,
                            max_atoms=args.max_atoms)
    return True, report.to_dict()


def _cmd_mn_check(args):
    """mn-negations, mn-positivity and mn-closures: one M_n sweep, passed
    iff every flag of its report holds."""
    report = args.sweep(args.n, max_atoms=args.max_atoms)
    return bool(report), report.to_dict()


def _cmd_report(args):
    Q, lneg, rneg = _checked_quantale(args.quantale)
    L = Q.lattice
    bundle = {
        "n": Q.n,
        "laws": "pass",
        "unit": find_unit(Q).unit,
        "positive": is_positive_quantale(Q),
        "bottom_flags": element_flags(Q, L.bot)}
    ok = True
    if lneg is not None or rneg is not None:
        l, r = _negation_pair(L, lneg, rneg)
        rep = check_frobenius(Q, l, r)
        bundle["frobenius"] = rep.to_dict()
        ok = rep.frobenius_valid
    return ok, bundle


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="finq",
        description="exact checks and constructions for finite quantales")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, handler, **needs):
        p = sub.add_parser(name)
        p.set_defaults(handler=handler, verb=name)
        p.add_argument("--out", help="write the JSON report to this path")
        if needs.get("lattice"):
            p.add_argument("--lattice", required=True,
                           help="lattice file or constructor expression")
        if needs.get("quantale"):
            p.add_argument("--quantale", required=True,
                           help="quantale file")
        if needs.get("endomap"):
            p.add_argument("--endomap", required=True,
                           help="endomap file")
        if needs.get("n"):
            p.add_argument("--n", type=int, required=True,
                           help="atom count")
            p.add_argument("--max-atoms", type=int,
                           default=_DEFAULT_MAX_ATOMS)
        if needs.get("candidates"):
            p.add_argument("--max-candidates", type=int, default=10 ** 9)
        return p

    verb("check-lattice", _cmd_check_lattice, lattice=True)
    verb("check-quantale", _cmd_check_quantale, quantale=True)
    verb("check-frobenius", _cmd_check_frobenius, quantale=True)
    verb("residuals", _cmd_residuals, quantale=True)
    verb("chu", _cmd_chu, quantale=True)
    verb("nucleus", _cmd_nucleus, quantale=True, endomap=True)
    phase = verb("phase", _cmd_phase)
    phase.add_argument("--semigroup", required=True, help="semigroup file")
    phase.add_argument("--relation", required=True, help="relation file")
    phase.add_argument("--max-powerset", type=int, default=20,
                       help="largest semigroup carrier to expand")
    verb("represent", _cmd_represent, quantale=True)
    verb("raney", _cmd_raney, lattice=True, endomap=True)
    tight = verb("tight-quantale", _cmd_tight_quantale, lattice=True,
                 candidates=True)
    tight.add_argument("--find-unit", action="store_true")
    verb("bullet", _cmd_bullet, lattice=True, candidates=True)
    count = verb("mn-count", _cmd_mn_count, n=True)
    count.add_argument("--enumerate", default=True,
                       action=argparse.BooleanOptionalAction)
    for name, sweep in (("mn-negations", check_negation_formulas),
                        ("mn-positivity", positivity_suite_mn),
                        ("mn-closures", closures_vs_sublattices)):
        verb(name, _cmd_mn_check, n=True).set_defaults(sweep=sweep)
    verb("report", _cmd_report, quantale=True)
    return parser


def _emit(args, payload):
    """Write the report to --out, or to standard out without it; False,
    after a one-line message on standard error, when --out cannot be
    written."""
    text = dumps_report(payload)
    out = getattr(args, "out", None)
    if not out:
        sys.stdout.write(text)
        return True
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"finq {args.verb}: error: cannot write {out}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _error_payload(exc):
    data = {"type": type(exc).__name__, "message": str(exc)}
    for key, value in vars(exc).items():
        data[key] = value
    return data


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    envelope = {"command": args.verb,
                "meta": {"tool": "finq", "version": __version__}}
    try:
        ok, report = args.handler(args)
    except FinqError as exc:
        status, word = _OUTCOMES[exc.exit_code]
        envelope.update(status=status, error=_error_payload(exc))
        code, summary = exc.exit_code, f"{word}: {exc}"
    else:
        envelope.update(status="pass" if ok else "fail", report=report)
        code, summary = (0, "pass") if ok else (1, "fail")
    if not _emit(args, envelope):
        return 2
    print(f"finq {args.verb}: {summary}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
