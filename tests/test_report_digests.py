"""Every verb's report, pinned byte for byte.

Each case runs finq.cli.main once on a small fixed input, writes the
report with --out and compares the sha256 of the file with a recorded
digest. Any change to a report's bytes (a key, its order, the indentation,
the form of a number) fails here, which two runs of the same code cannot
show. A deliberate format change records the new digests.
"""

import hashlib
import json

import pytest

import finq
from finq.cli import main

Z3 = [[(x + y) % 3 for y in range(3)] for x in range(3)]
Z5 = [[(x + y) % 5 for y in range(5)] for x in range(5)]

# name -> (argv, exit code, sha256 of the report); {name} is an input file
CASES = {
    "check-lattice N5": (
        ["check-lattice", "--lattice", "N5"], 0,
        "5cadf0206280b0bb8f59a4e101d2a39058de028ed70ea5298e4dc4a25b803474"),
    "check-lattice M(2)": (
        ["check-lattice", "--lattice", "M(2)"], 0,
        "b57fdc84ea66268fb444979ca5a619cd154b3d620370b3c58da719be40b5048f"),
    "tight-quantale N5": (
        ["tight-quantale", "--lattice", "N5", "--find-unit"], 0,
        "c530f9a82f509ec9170acb9848daf061757137e6c623f03c573fcb8d7b698534"),
    "tight-quantale M(2)": (
        ["tight-quantale", "--lattice", "M(2)"], 0,
        "9147d33d5ff9eda672c90adf17b8726a89b61e047f8cbe30c32b8ddf24e5de5e"),
    "bullet N5": (
        ["bullet", "--lattice", "N5"], 0,
        "de8605512e5b5929ff72f44a13168838126202aee3241a2aa795943bc0222b3e"),
    "bullet M(2)": (
        ["bullet", "--lattice", "M(2)"], 0,
        "f2b3ddc3814ee7d18dde612586f464d4787f14015aa823d6911bedb384b55f74"),
    "raney N5": (
        ["raney", "--lattice", "N5", "--endomap", "{id5}"], 0,
        "d4bfbd50838954364664e95053f7e3b0c5e0feb75a7f91b7910f0e4067450c7f"),
    "raney M(2) not sup-preserving": (
        ["raney", "--lattice", "M(2)", "--endomap", "{squash}"], 0,
        "df53a82f1188920bef9a5ded3b26ad8ec6ded4bd5eccb7009566d10bd6bfb181"),
    "check-quantale chain(3)": (
        ["check-quantale", "--quantale", "{chain3}"], 0,
        "dd3ab5bf68debaf6b03d226cbf9b03f6dfba0233c8cc92d3fa76164909e1eefb"),
    "check-quantale M(2)": (
        ["check-quantale", "--quantale", "{m2}"], 0,
        "caac35356e58ec74c546b23a3e32ebc084eafa7f59a72d7293cefb149431cb35"),
    "check-quantale rejected": (
        ["check-quantale", "--quantale", "{xor}"], 1,
        "b0858e7f9eab486f00c073b647fcf2bfdfff94667691af88b78cf49d5861d9f2"),
    "check-frobenius chain(3)": (
        ["check-frobenius", "--quantale", "{chain3}"], 0,
        "d8a87c786ffb72751ca86e45fc6a29860cb5681d722280652bedea8d00e2f17c"),
    "check-frobenius M(2)": (
        ["check-frobenius", "--quantale", "{m2}"], 0,
        "d8a87c786ffb72751ca86e45fc6a29860cb5681d722280652bedea8d00e2f17c"),
    "residuals chain(3)": (
        ["residuals", "--quantale", "{chain3}"], 0,
        "de29f8c3d588a57c896a52222ec85a51ede8a417b762fb746d5f43bc8de91a27"),
    "residuals M(2)": (
        ["residuals", "--quantale", "{m2}"], 0,
        "8e6d54d987b149e83dd4bdd47bcbb10216fc37b8c575733726cd758a02af82ae"),
    "chu chain(3)": (
        ["chu", "--quantale", "{chain3}"], 0,
        "eaf043a68eed904d543deac783d7d7f99135ec456cfbfd6adc5cf9dbc3d39202"),
    "nucleus chain(3)": (
        ["nucleus", "--quantale", "{chain3}", "--endomap", "{id6}"], 0,
        "d2088aa6cdc472f46194128df2924e393e402595eafffb3cf47e307f343079c6"),
    "nucleus chain(3) rejected": (
        ["nucleus", "--quantale", "{chain3}", "--endomap", "{swap6}"], 1,
        "eb308080bed51a99cb07cc7352bd31e675f6129c585dc59a766f3f3b3000825b"),
    "phase Z3": (
        ["phase", "--semigroup", "{z3}", "--relation", "{z3rel}"], 0,
        "a55eacab77d25d116e53ea97c92681cb03b7e6e93fe689bec6038759e6fe3fb1"),
    "phase Z5 sum in {0, 1}": (
        ["phase", "--semigroup", "{z5}", "--relation", "{z5rel}"], 0,
        "e233905370e4156df236663912a16153d124ed8654cf3c1325eb5e7c5ecc490f"),
    "phase Z2 not associative": (
        ["phase", "--semigroup", "{z2}", "--relation", "{rows}"], 1,
        "5e5a6ef022c710cc98dc9317afec304efaad7aa8de69bc73bc34d10c6c9a8a91"),
    "phase left-zero(2) not weakly symmetric": (
        ["phase", "--semigroup", "{lz2}", "--relation", "{rows}"], 1,
        "a84f29624a72bb0429e64bfb939ae67ed0b4500ab11a1e64761fb78370edb1e7"),
    "represent chain(3)": (
        ["represent", "--quantale", "{chain3}"], 0,
        "8eb50e85ab941b2edd6fefe20a8721a61c7e8bdcad6f28f1e804370f588e4d49"),
    "represent M(2)": (
        ["represent", "--quantale", "{m2}"], 0,
        "8eb50e85ab941b2edd6fefe20a8721a61c7e8bdcad6f28f1e804370f588e4d49"),
    "report chain(3)": (
        ["report", "--quantale", "{chain3}"], 0,
        "7bd2183a592cb3b7bad6757c7b1254b39f5b136a522d30d56da92d4137dcffbd"),
    "report M(2)": (
        ["report", "--quantale", "{m2}"], 0,
        "f72e091cef0ab41401545fb991e925243e655869fef9eb70f7c51095e1610bbd"),
    "mn-count 3": (
        ["mn-count", "--n", "3"], 0,
        "ee8265a0213e653c0817057aed60bf8150558bf10e2adf7e6fb46fc4f9f91618"),
    "mn-count 3 no-enumerate": (
        ["mn-count", "--n", "3", "--no-enumerate"], 0,
        "f78fabd135c25d4866096eeb6a51604e1922856efc1ea823d00402d51a34292a"),
    "mn-count 9 refused": (
        ["mn-count", "--n", "9"], 2,
        "72036214af518fd8e84a31141bf6e05ab2e2e996d22deef566987755ef3e0221"),
    "mn-negations 3": (
        ["mn-negations", "--n", "3"], 0,
        "31a798017ab1f3c25afa769c0dc4f4f39a861ae7fe7edfed6fc7a82969a6d4a7"),
    "mn-positivity 3": (
        ["mn-positivity", "--n", "3"], 0,
        "03278578b3e7ac9b23c1470cef957e71e4cb8eac9c1df7f42976616695ebed49"),
    "mn-closures 3": (
        ["mn-closures", "--n", "3"], 0,
        "cae0ed733063a0ac509834371b040ab645a84b4ee7a311a8f3ad4a69e764ad81"),
}


def _tight_file(spec):
    T = finq.tight_quantale(finq.standard_lattice(spec))
    star = T.frobenius.lneg.image.tolist()
    return finq.quantale_to_dict(T.quantale, star, star)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    files = {
        "chain3": _tight_file("chain(3)"),
        "m2": _tight_file("M(2)"),
        "xor": {"lattice": {"n": 2, "covers": [[0, 1]]},
                "mult": [[0, 1], [1, 0]]},
        "id5": {"image": [0, 1, 2, 3, 4]},
        "squash": {"image": [0, 1, 1, 3]},
        "id6": {"image": [0, 1, 2, 3, 4, 5]},
        "swap6": {"image": [5, 1, 2, 3, 4, 0]},
        "z3": {"n": 3, "op": Z3},
        "z3rel": {"rel": [[v != 0 for v in row] for row in Z3]},
        "z5": {"n": 5, "op": Z5},
        "z5rel": {"rel": [[v in (0, 1) for v in row] for row in Z5]},
        "z2": {"n": 2, "op": [[0, 1], [1, 0]]},
        "lz2": {"n": 2, "op": [[0, 0], [1, 1]]},
        "rows": {"rel": [[True, True], [False, False]]},
    }
    paths = {}
    for name, payload in files.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("name", CASES)
def test_report_digest(name, inputs, tmp_path, capsys):
    argv, code, digest = CASES[name]
    out = tmp_path / "report.json"
    argv = [arg.format(**inputs) for arg in argv]
    assert main([*argv, "--out", str(out)]) == code
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
