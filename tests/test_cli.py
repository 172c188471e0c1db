"""End-to-end checks of the command line front end.

Each test drives finq.cli.main(argv) in process and inspects the JSON
envelope, the exit code, and the one-line stderr summary. Reports must be
byte-identical across reruns.
"""

import dataclasses
import json

import numpy as np
import pytest

import finq
from finq.cli import main


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture()
def chain3_tight(tmp_path):
    """Quantale file for the 6-element tight quantale of the 3-chain."""
    T = finq.tight_quantale(finq.chain(3))
    star = [int(v) for v in T.frobenius.lneg.image]
    return write(tmp_path, "q3.json",
                 finq.quantale_to_dict(T.quantale, star, star))


def test_check_lattice_constructor_expression(capsys):
    code, doc = run_json(capsys, "check-lattice", "--lattice", "M(3)")
    assert code == 0
    assert doc["status"] == "pass"
    assert doc["command"] == "check-lattice"
    assert doc["meta"] == {"tool": "finq", "version": finq.__version__}
    rep = doc["report"]
    assert rep["n"] == 5 and rep["bot"] == 0 and rep["top"] == 4
    assert rep["distributive"] is False
    assert rep["lattice"]["covers"] == [[0, 1], [0, 2], [0, 3],
                                        [1, 4], [2, 4], [3, 4]]


def test_check_lattice_from_file_roundtrip(capsys, tmp_path):
    code, doc = run_json(capsys, "check-lattice", "--lattice", "N5")
    path = write(tmp_path, "n5.json", doc["report"]["lattice"])
    code2, doc2 = run_json(capsys, "check-lattice", "--lattice", path)
    assert code2 == 0
    assert doc2["report"] == doc["report"]


def test_missing_field_is_exit_2(capsys, tmp_path):
    path = write(tmp_path, "bad.json", {"n": 3})
    code, doc = run_json(capsys, "check-lattice", "--lattice", path)
    assert code == 2
    assert doc["status"] == "error"
    assert doc["error"]["type"] == "ParseError"
    assert "report" not in doc


@pytest.mark.parametrize("spec", ["M(x)", "chain(2.5)", "boolean()"])
def test_non_integer_lattice_argument_is_exit_2(capsys, spec):
    code, out, err = run(capsys, "tight-quantale", "--lattice", spec)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"]["type"] == "ValidationFailed"
    assert "Traceback" not in err


@pytest.mark.parametrize("quantale, error", [
    ({"lattice": {"n": 2, "covers": [[0, 1]]}, "mult": [[0, 0], [0, 1.7]]},
     "ParseError"),
    ({"lattice": {"n": 2, "covers": [[0, 1]]}, "mult": [[0, 0], [0]]},
     "ParseError"),
    ({"lattice": {"n": 2, "covers": [[0]]}, "mult": [[0, 0], [0, 1]]},
     "ValidationFailed"),
    ({"lattice": {"n": 2.5, "covers": [[0, 1]]}, "mult": [[0, 0], [0, 1]]},
     "ValidationFailed"),
    ({"lattice": {"n": 2, "covers": [[0, 1]]}, "mult": [[0, 0], [0, True]]},
     "ParseError"),
    ({"lattice": {"n": 2, "covers": [[0, 1]]}, "mult": [[0, 0], [0, 1]],
      "lneg": [1, False]}, "ParseError"),
], ids=["float-entry", "ragged-table", "short-cover", "float-size",
        "boolean-entry", "boolean-negation"])
def test_malformed_quantale_file_is_exit_2(capsys, tmp_path, quantale, error):
    path = write(tmp_path, "bad.json", quantale)
    code, out, err = run(capsys, "check-quantale", "--quantale", path)
    assert code == 2
    assert json.loads(out)["error"]["type"] == error
    assert "Traceback" not in err


@pytest.mark.parametrize("lattice, error", [
    ({"n": 2, "covers": [[0, 1]], "labels": 5}, "ParseError"),
    ({"n": 2, "covers": [[0, 1]], "labels": "ab"}, "ParseError"),
    ({"n": 2, "covers": [[0, 1]], "labels": [1, None]}, "ParseError"),
    ({"n": 2, "covers": [[0, 1]], "labels": ["a"]}, "ValidationFailed"),
    ({"n": 2, "covers": [[0, True]]}, "ValidationFailed"),
], ids=["labels-number", "labels-string", "labels-not-strings",
        "labels-short", "boolean-cover"])
def test_malformed_lattice_file_is_exit_2(capsys, tmp_path, lattice, error):
    path = write(tmp_path, "bad.json", lattice)
    code, out, err = run(capsys, "check-lattice", "--lattice", path)
    assert code == 2
    assert json.loads(out)["error"]["type"] == error
    assert "Traceback" not in err


Z2 = {"n": 2, "op": [[0, 1], [1, 0]]}
EQUALITY = {"rel": [[True, False], [False, True]]}


@pytest.mark.parametrize("semigroup, relation, error", [
    ({"n": 2.5, "op": [[0, 1], [1, 0]]}, EQUALITY, "ValidationFailed"),
    ({"n": 2, "op": [[0, 1], [1, False]]}, EQUALITY, "ParseError"),
    (dict(Z2, labels=5), EQUALITY, "ParseError"),
    (Z2, {"rel": [[True, False], [False]]}, "ParseError"),
    (Z2, {"rel": [[0.5, 0.5], [0.5, 0.5]]}, "ParseError"),
    (Z2, {"rel": [[True, "x"], [False, True]]}, "ParseError"),
    (Z2, {"rel": [[True, False], [False, 1]]}, "ParseError"),
], ids=["float-size", "boolean-entry", "labels-number", "relation-ragged",
        "relation-float", "relation-string", "relation-integer"])
def test_malformed_semigroup_file_is_exit_2(capsys, tmp_path, semigroup,
                                            relation, error):
    sgp = write(tmp_path, "sgp.json", semigroup)
    rel = write(tmp_path, "rel.json", relation)
    code, out, err = run(capsys, "phase", "--semigroup", sgp,
                         "--relation", rel)
    assert code == 2
    assert json.loads(out)["error"]["type"] == error
    assert "Traceback" not in err


def test_unbounded_huge_lattice_file_is_exit_1(capsys, tmp_path):
    path = write(tmp_path, "huge.json", {"n": 10 ** 30, "covers": []})
    code, out, err = run(capsys, "check-lattice", "--lattice", path)
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    assert doc["error"]["type"] == "NotBounded"
    assert "Traceback" not in err


def test_check_quantale_and_unit(capsys, chain3_tight):
    code, doc = run_json(capsys, "check-quantale", "--quantale",
                         chain3_tight)
    assert code == 0
    assert doc["report"]["n"] == 6
    assert doc["report"]["unit"] == 4


def test_broken_quantale_is_exit_1(capsys, tmp_path):
    path = write(tmp_path, "xor.json", {
        "lattice": {"n": 2, "covers": [[0, 1]]},
        "mult": [[0, 1], [1, 0]]})
    code, out, err = run(capsys, "check-quantale", "--quantale", path)
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    assert doc["error"]["type"] == "NotDistributive"
    assert "fail" in err


def test_check_frobenius_girard_pair(capsys, chain3_tight):
    code, doc = run_json(capsys, "check-frobenius", "--quantale",
                         chain3_tight)
    assert code == 0
    rep = doc["report"]
    assert rep["frobenius_valid"] and rep["shift_holds"] and rep["girard"]
    assert rep["witnesses"] == {}


def test_check_frobenius_accepts_single_negation(capsys, tmp_path,
                                                 chain3_tight):
    with open(chain3_tight) as handle:
        d = json.load(handle)
    del d["rneg"]
    path = write(tmp_path, "lonly.json", d)
    code, doc = run_json(capsys, "check-frobenius", "--quantale", path)
    assert code == 0
    assert doc["report"]["girard"]


def test_check_frobenius_without_negations_is_exit_2(capsys, tmp_path,
                                                     chain3_tight):
    with open(chain3_tight) as handle:
        d = json.load(handle)
    del d["lneg"], d["rneg"]
    path = write(tmp_path, "bare.json", d)
    code, doc = run_json(capsys, "check-frobenius", "--quantale", path)
    assert code == 2
    assert doc["error"]["type"] == "ValidationFailed"


def test_residuals_tables(capsys, chain3_tight):
    code, doc = run_json(capsys, "residuals", "--quantale", chain3_tight)
    assert code == 0
    T = finq.tight_quantale(finq.chain(3))
    assert doc["report"]["left_residuals"] == \
        T.quantale.left_residual_table.tolist()
    assert doc["report"]["right_residuals"] == \
        T.quantale.right_residual_table.tolist()
    assert "convention" in doc["report"]


def test_chu_verb(capsys, chain3_tight):
    code, doc = run_json(capsys, "chu", "--quantale", chain3_tight)
    assert code == 0
    rep = doc["report"]
    assert rep["n"] == 36
    assert rep["girard"] is True
    assert len(rep["quantale"]["mult"]) == 36


def test_nucleus_pass_and_fail(capsys, tmp_path, chain3_tight):
    ident = write(tmp_path, "id6.json", {"image": [0, 1, 2, 3, 4, 5]})
    code, doc = run_json(capsys, "nucleus", "--quantale", chain3_tight,
                         "--endomap", ident)
    assert code == 0
    assert doc["report"]["closed"] == [0, 1, 2, 3, 4, 5]

    swap = write(tmp_path, "swap.json", {"image": [5, 1, 2, 3, 4, 0]})
    code, doc = run_json(capsys, "nucleus", "--quantale", chain3_tight,
                         "--endomap", swap)
    assert code == 1
    assert doc["status"] == "fail"
    assert doc["report"]["law"] == "isotone"


def test_phase_verb(capsys, tmp_path):
    sgp = write(tmp_path, "z2.json", {"n": 2, "op": [[0, 1], [1, 0]]})
    rel = write(tmp_path, "eq.json",
                {"rel": [[True, False], [False, True]]})
    code, doc = run_json(capsys, "phase", "--semigroup", sgp,
                         "--relation", rel)
    assert code == 0
    rep = doc["report"]
    assert rep["closed_sets"] == [[], [0], [1], [0, 1]]
    assert rep["unit"] == 1
    assert rep["girard"] is True


def test_phase_budget_is_exit_2(capsys, tmp_path):
    sgp = write(tmp_path, "z3.json", {
        "n": 3, "op": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]})
    rel = write(tmp_path, "all.json", {"rel": [[True] * 3] * 3})
    code, doc = run_json(capsys, "phase", "--semigroup", sgp,
                         "--relation", rel, "--max-powerset", "2")
    assert code == 2
    assert doc["error"]["type"] == "BudgetExceeded"


def test_phase_negative_budget_is_validation_error(capsys, tmp_path):
    sgp = write(tmp_path, "z2.json", {"n": 2, "op": [[0, 1], [1, 0]]})
    rel = write(tmp_path, "eq.json",
                {"rel": [[True, False], [False, True]]})
    code, doc = run_json(capsys, "phase", "--semigroup", sgp,
                         "--relation", rel, "--max-powerset", "-1")
    assert code == 2
    assert doc["error"]["type"] == "ValidationFailed"


def test_represent_verb(capsys, chain3_tight):
    code, doc = run_json(capsys, "represent", "--quantale", chain3_tight)
    assert code == 0
    assert doc["status"] == "pass"
    assert all(doc["report"]["flags"].values())


def test_raney_verb(capsys, tmp_path):
    endo = write(tmp_path, "id5.json", {"image": [0, 1, 2, 3, 4]})
    code, doc = run_json(capsys, "raney", "--lattice", "M(3)",
                         "--endomap", endo)
    assert code == 0
    rep = doc["report"]
    assert rep["is_tight"] is False
    assert rep["tight_interior"] == [0, 0, 0, 0, 0]
    assert rep["rani"] == [0, 0, 0, 0, 4]
    assert rep["star"] == [0, 4, 4, 4, 4]


def test_raney_star_null_when_not_sup_preserving(capsys, tmp_path):
    endo = write(tmp_path, "c1.json", {"image": [1, 1, 1, 1, 1]})
    code, doc = run_json(capsys, "raney", "--lattice", "M(3)",
                         "--endomap", endo)
    assert code == 0
    assert doc["report"]["star"] is None


def test_tight_quantale_verb_and_units(capsys):
    code, doc = run_json(capsys, "tight-quantale", "--lattice", "M(3)",
                         "--find-unit")
    assert code == 0
    rep = doc["report"]
    assert rep["n"] == 44
    assert rep["unit"] is None
    assert rep["quantale"]["lneg"] == rep["quantale"]["rneg"]

    code, doc = run_json(capsys, "tight-quantale", "--lattice",
                         "boolean(2)", "--find-unit")
    assert doc["report"]["n"] == 16
    assert doc["report"]["unit"] is not None


def test_tight_quantale_budget(capsys):
    code, doc = run_json(capsys, "tight-quantale", "--lattice", "M(3)",
                         "--max-candidates", "10")
    assert code == 2
    assert doc["error"]["type"] == "BudgetExceeded"


@pytest.mark.parametrize("spec", ["N5", "M(5)"])
def test_tight_quantale_roundtrips_through_checkers(capsys, tmp_path, spec):
    code, doc = run_json(capsys, "tight-quantale", "--lattice", spec)
    written = finq.tight_quantale(finq.standard_lattice(spec)).quantale.lattice
    read = finq.formats.lattice_from_dict(doc["report"]["quantale"]["lattice"])
    assert np.array_equal(read.leq, written.leq)
    assert np.array_equal(read.join_table, written.join_table)
    assert np.array_equal(read.meet_table, written.meet_table)
    assert (read.bot, read.top) == (written.bot, written.top)
    path = write(tmp_path, "tight.json", doc["report"]["quantale"])
    code, doc = run_json(capsys, "check-quantale", "--quantale", path)
    assert code == 0
    code, doc = run_json(capsys, "check-frobenius", "--quantale", path)
    assert code == 0
    assert doc["report"]["girard"]


def test_bullet_verb(capsys):
    code, doc = run_json(capsys, "bullet", "--lattice", "M(3)")
    assert code == 0
    rep = doc["report"]
    assert rep["n"] == 50
    assert len(rep["cotight"]) == 44
    assert rep["serre"]["serre_gc_valid"]
    assert all(rep["iso"]["flags"].values())


def test_invariant_violation_is_exit_3(capsys, monkeypatch):
    real = finq.raney.check_frobenius

    def broken(Q, l, r):
        return dataclasses.replace(real(Q, l, r), commutes=False,
                                   witnesses={"commutes": (0,)})

    monkeypatch.setattr(finq.raney, "check_frobenius", broken)
    code, out, err = run(capsys, "bullet", "--lattice", "M(2)")
    assert code == 3
    doc = json.loads(out)
    assert doc["status"] == "error"
    assert doc["error"]["type"] == "InvariantViolated"
    assert doc["error"]["witness"] == {"commutes": [0]}
    assert "internal error" in err
    with pytest.raises(finq.InvariantViolated):
        finq.bullet_quantale(finq.m_lattice(2))


class Unlisted(finq.FinqError):
    """An error class the command line has never heard of."""


class UnlistedInput(finq.FinqError):
    exit_code = 2


@pytest.mark.parametrize("error, code, status, word", [
    (Unlisted("odd"), 1, "fail", "fail"),
    (UnlistedInput("odd"), 2, "error", "error"),
    (finq.NotTight(3), 1, "fail", "fail"),
    (finq.NotDistinctAtoms("odd"), 2, "error", "error"),
], ids=["unlisted", "unlisted-input", "math", "input"])
def test_exit_code_comes_from_the_error_class(capsys, monkeypatch, error,
                                              code, status, word):
    def handler(args):
        raise error

    monkeypatch.setattr(finq.cli, "_cmd_check_lattice", handler)
    rc, out, err = run(capsys, "check-lattice", "--lattice", "M(2)")
    assert rc == code
    doc = json.loads(out)
    assert doc["status"] == status
    assert doc["error"]["type"] == type(error).__name__
    assert err.startswith(f"finq check-lattice: {word}: ")


def test_mn_count_mismatch_is_exit_3(capsys, monkeypatch):
    real = finq.diamonds.tight_images_mn
    monkeypatch.setattr(finq.diamonds, "tight_images_mn",
                        lambda n, max_atoms: real(n, max_atoms)[1:])
    code, doc = run_json(capsys, "mn-count", "--n", "3")
    assert code == 3
    assert doc["error"]["type"] == "InvariantViolated"
    assert doc["error"]["witness"] == {"counted": 43, "formula": 44}
    with pytest.raises(finq.InvariantViolated):
        finq.count_tight_mn(3)


def test_mn_count_verb(capsys):
    code, doc = run_json(capsys, "mn-count", "--n", "3")
    assert code == 0
    rep = doc["report"]
    assert rep["counted"] == 44 and rep["formula_value"] == 44
    assert rep["by_class"]["f_generators"] == 18

    code, doc = run_json(capsys, "mn-count", "--n", "9", "--no-enumerate")
    assert code == 0
    assert doc["report"]["counted"] is None
    assert doc["report"]["formula_value"] == 2774


def test_mn_count_budget_is_exit_2(capsys):
    code, doc = run_json(capsys, "mn-count", "--n", "9")
    assert code == 2
    assert doc["error"]["type"] == "BudgetExceeded"


@pytest.mark.parametrize("verb", ["mn-count", "mn-negations",
                                  "mn-positivity", "mn-closures"])
def test_mn_negative_budget_is_validation_error(capsys, verb):
    # the budget (max_atoms + 2) ** max_atoms is 1.0, 0.0 ** -2 (a
    # ZeroDivisionError) and -1.0 at these values: each must be refused
    # before it is computed
    for atoms in ("-1", "-2", "-3"):
        code, doc = run_json(capsys, verb, "--n", "2", "--max-atoms", atoms)
        assert code == 2, atoms
        assert doc["error"]["type"] == "ValidationFailed", atoms


def test_mn_check_verbs(capsys):
    for verb in ("mn-negations", "mn-positivity", "mn-closures"):
        code, doc = run_json(capsys, verb, "--n", "3")
        assert code == 0, verb
        assert doc["status"] == "pass"
        assert all(doc["report"]["flags"].values()), verb


def test_report_verb(capsys, chain3_tight):
    code, doc = run_json(capsys, "report", "--quantale", chain3_tight)
    assert code == 0
    rep = doc["report"]
    assert rep["unit"] == 4
    assert rep["positive"] is True
    assert rep["frobenius"]["frobenius_valid"]
    assert set(rep["bottom_flags"]) == \
        {"dualizing", "cyclic", "weakly_cyclic"}


def test_out_flag_writes_file_and_keeps_stdout_empty(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, err = run(capsys, "mn-count", "--n", "2",
                         "--out", str(target))
    assert code == 0
    assert out == ""
    assert "pass" in err
    doc = json.loads(target.read_text())
    assert doc["report"]["counted"] == 16


@pytest.mark.parametrize("lattice", ["M(3)", "dual(X(3))"])
def test_unwritable_out_is_a_one_line_error(capsys, tmp_path, lattice):
    """An --out that cannot be opened exits 2 with one stderr line naming
    it, whether the verb passed or raised."""
    target = str(tmp_path / "no" / "such" / "x.json")
    code, out, err = run(capsys, "check-lattice", "--lattice", lattice,
                         "--out", target)
    assert code == 2
    assert out == ""
    assert err.startswith(f"finq check-lattice: error: cannot write "
                          f"{target}: ")
    assert err.count("\n") == 1


def test_reports_are_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        run(capsys, "tight-quantale", "--lattice", "M(3)",
            "--out", str(target))
    assert a.read_bytes() == b.read_bytes()
    assert b"\n" in a.read_bytes()


def test_no_timestamps_in_reports(capsys):
    code, out, _ = run(capsys, "mn-count", "--n", "2")
    lowered = out.lower()
    for word in ("time", "date", "seconds"):
        assert word not in lowered


def test_stderr_summary_lines(capsys, tmp_path):
    _, _, err = run(capsys, "check-lattice", "--lattice", "chain(4)")
    assert err == "finq check-lattice: pass\n"
    path = write(tmp_path, "empty.json", {})
    _, _, err = run(capsys, "check-lattice", "--lattice", path)
    assert err.startswith("finq check-lattice: error:")
