import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bs_ktheory.abelian import IntMatrix, smith_normal_form
from bs_ktheory.cli import _without_digit_limit, main
from bs_ktheory.pv import bs_input, kinput_to_json

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv):
    """One ``python -m bs_ktheory`` process, as a ``bsk`` user runs it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "bs_ktheory", *argv], env=env, capture_output=True, text=True, timeout=120
    )


def assert_one_line_error(err):
    assert err.startswith("error: ") and err.count("\n") == 1, err


class TestBs:
    def test_verdict_ok(self, capsys):
        code, out, _ = run(capsys, "bs", "5")
        assert code == 0
        assert "K1 = Z + Z/4" in out
        assert "verdict: ISOMORPHIC" in out

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "--json", "bs", "5")
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] is True
        assert data["rhs"]["k1"]["torsion"] == [4]

    def test_excluded_parameter(self, capsys):
        code, _, err = run(capsys, "bs", "1")
        assert code == 2
        assert "n not in {0, 1}" in err

    def test_klein_bottle(self, capsys):
        code, out, _ = run(capsys, "bs", "-1")
        assert code == 0
        assert "K1 = Z + Z/2" in out


class TestArgvIntegers:
    """``bs n`` and ``pair --n/--depth/--seed/--trials`` read ASCII -?[0-9]+
    and reject the rest as argparse rejects ``abc``: usage, then one line."""

    @staticmethod
    def rejected(capsys, *argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        return captured.err

    @pytest.mark.parametrize("value", ["1_0", " 7 ", "\u0663", "+5", "7\n", "-", ""])
    def test_bs(self, capsys, value):
        expected = self.rejected(capsys, "bs", "abc").replace("'abc'", repr(value))
        assert self.rejected(capsys, "bs", "--", value) == expected
        assert expected.endswith(f"argument n: invalid int value: {value!r}\n")

    @pytest.mark.parametrize("option", ["--n", "--depth", "--seed", "--trials"])
    @pytest.mark.parametrize("value", ["1_0", "\u0663"])
    def test_pair(self, capsys, option, value):
        def argv(bad):
            given = {"--n": "3", "--depth": "2", "--seed": "1", "--trials": "5", option: bad}
            return ["pair", *(f"{k}={v}" for k, v in given.items())]

        expected = self.rejected(capsys, *argv("abc")).replace("'abc'", repr(value))
        assert self.rejected(capsys, *argv(value)) == expected
        assert expected.endswith(f"argument {option}: invalid int value: {value!r}\n")

    def test_ascii_integers_still_read(self, capsys):
        code, out, _ = run(capsys, "bs", "--", "-3")
        assert code == 0 and "parameter n = -3" in out
        code, out, _ = run(capsys, "--json", "pair", "--n=-3", "--depth=2", "--seed=007", "--trials=5")
        assert code == 0 and json.loads(out)["seed"] == 7


# coinvariants Z + Z/4 under a free quotient Z/2 on the other side: exit 4
UNRESOLVED = {
    "k0": {"kind": "fg", "group": {"free_rank": 1, "torsion": [4], "gens": ["1", "t"]}},
    "k1": {"kind": "fg", "group": {"free_rank": 1, "torsion": [], "gens": ["w"]}},
    "alpha0": {"matrix": [[1, 0], [0, 1]]},
    "alpha1": {"matrix": [[3]]},
    "ledger": {"[1]": {"group": "k0", "coeffs": [1, 0], "order": "inf"}},
}


class TestPv:
    def test_bs_input_file(self, capsys, tmp_path):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(kinput_to_json(bs_input(3))), encoding="utf-8")
        code, out, _ = run(capsys, "pv", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["k1_crossed"]["torsion"] == [2]
        assert data["ledger"]["[a]"]["order"] == "inf"

    def test_trivial_action_file(self, capsys, tmp_path):
        payload = {
            "k0": {"kind": "fg", "group": {"free_rank": 1, "torsion": [], "gens": ["1"]}},
            "k1": {"kind": "fg", "group": {"free_rank": 0, "torsion": [], "gens": []}},
            "alpha0": {"matrix": [[1]]},
            "alpha1": {"matrix": []},
            "ledger": {"[1]": {"group": "k0", "coeffs": [1], "order": "inf"}},
        }
        path = tmp_path / "trivial.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, _ = run(capsys, "pv", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["k0_crossed"]["free_rank"] == 1
        assert data["k1_crossed"]["free_rank"] == 1

    def test_non_integer_fields_rejected(self, capsys, tmp_path):
        corruptions = (
            lambda d: d["k0"]["group"].update(torsion=5),
            lambda d: d["k0"]["group"].update(free_rank=True),
            lambda d: d["alpha1"].update(rung=1.5),
            lambda d: d["k1"].update(inverted="3"),
        )
        for i, corrupt in enumerate(corruptions):
            payload = kinput_to_json(bs_input(3))
            corrupt(payload)
            path = tmp_path / f"bad_{i}.json"
            path.write_text(json.dumps(payload), encoding="utf-8")
            code, out, err = run(capsys, "pv", str(path))
            assert code == 2 and out == "", i
            assert_one_line_error(err)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda d: d["alpha1"].update(rung=[]),
            lambda d: d["alpha1"].update(rung=[5]),
            lambda d: d["k0"]["group"].update(gens=5),
            lambda d: d.update(k0=[]),
            lambda d: d.update(alpha0=5),
            lambda d: d.update(ledger=[]),
            lambda d: d["ledger"].update({"[1]": 3}),
            lambda d: d["k1"].update(symbol=3),
            lambda d: d["k1"].update(symbol=None),
            lambda d: d["k1"].update(symbol=["v"]),
        ],
        ids=["rung-empty-list", "rung-flat-list", "gens-not-a-list", "k0-not-an-object",
             "alpha0-not-an-object", "ledger-not-an-object", "ledger-entry-not-an-object",
             "symbol-int", "symbol-null", "symbol-list"],
    )
    def test_malformed_shape_rejected(self, capsys, tmp_path, corrupt):
        payload = kinput_to_json(bs_input(3))
        corrupt(payload)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run(capsys, "pv", str(path))
        assert code == 2 and out == ""
        assert_one_line_error(err)

    @pytest.mark.parametrize("field, value", [("coeffs", "1"), ("order", 1.5), ("order", "7")])
    def test_ledger_values_not_coerced(self, capsys, tmp_path, field, value):
        payload = kinput_to_json(bs_input(3))
        payload["ledger"]["[1]"][field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run(capsys, "pv", str(path))
        assert code == 2 and out == ""
        assert_one_line_error(err)
        assert "integer" in err

    def test_rung_as_one_by_one_matrix(self, capsys, tmp_path):
        payload = kinput_to_json(bs_input(3))
        path = tmp_path / "plain.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        plain = run(capsys, "pv", str(path))
        payload["alpha1"]["rung"] = [[payload["alpha1"]["rung"]]]
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert run(capsys, "pv", str(path)) == plain

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "pv", str(path))
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "pv", "/no/such/file.json")
        assert code == 2

    def test_localized_degree_zero_fixed_by_alpha0_exits_4(self, capsys, tmp_path):
        payload = dict(
            UNRESOLVED,
            k0={"kind": "loc", "inverted": 2, "symbol": "e"},
            alpha0={"rung": 1},
            ledger={"[1]": {"group": "k0", "coeffs": [1], "order": "inf"}},
        )
        path = tmp_path / "loc0.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, _ = run(capsys, "pv", str(path))
        assert code == 4
        data = json.loads(out)
        assert data["error"] == "unresolved extension"
        assert data["partial"]["degree"] == 0

    def test_unresolved_extension_exit_code(self, capsys, tmp_path):
        path = tmp_path / "unresolved.json"
        path.write_text(json.dumps(UNRESOLVED), encoding="utf-8")
        code, out, _ = run(capsys, "pv", str(path))
        assert code == 4
        data = json.loads(out)
        assert data["error"] == "unresolved extension"
        assert data["partial"]


# what a mutation puts in place of a value: each JSON type, a 1x1 matrix
MUTANTS = (None, 0, 1.5, True, "x", [], [[1]], {})

TWO_FG_SIDES = {
    "k0": {"kind": "fg", "group": {"free_rank": 1, "torsion": [3], "gens": ["1", "t"]}},
    "k1": {"kind": "fg", "group": {"free_rank": 1, "torsion": [], "gens": ["w"]}},
    "alpha0": {"matrix": [[1, 0], [0, 2]]},
    "alpha1": {"matrix": [[-1]]},
    "ledger": {
        "[1]": {"group": "k0", "coeffs": [1, 0], "order": "inf"},
        "[t]": {"group": "k0", "coeffs": [0, 1], "order": 3},
        "[w]": {"group": "k1", "coeffs": [1], "order": "inf"},
    },
}


def _json_paths(node, path=()):
    """Every key path into a JSON tree, the root excluded."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


def mutate(data, rng: random.Random):
    """A copy of ``data`` with one value replaced by a mutant, or one key deleted."""
    data = json.loads(json.dumps(data))
    path = rng.choice(list(_json_paths(data)))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and rng.random() < 0.2:
        del parent[path[-1]]
    else:
        parent[path[-1]] = json.loads(json.dumps(rng.choice(MUTANTS)))
    return data


class TestPvFuzz:
    def test_mutated_inputs_exit_with_a_documented_code(self, capsys, tmp_path):
        rng = random.Random(4)
        seeds = [kinput_to_json(bs_input(n)) for n in (2, 3, -1, -4)] + [TWO_FG_SIDES]
        path = tmp_path / "mutant.json"
        failures = []
        for _ in range(2000):
            data = rng.choice(seeds)
            for _ in range(rng.choice((1, 1, 2))):
                data = mutate(data, rng)
            path.write_text(json.dumps(data), encoding="utf-8")
            try:
                code, _, err = run(capsys, "pv", str(path))
            except Exception as exc:
                failures.append((data, repr(exc)))
                continue
            if code not in (0, 2, 3, 4) or (code == 2 and not (err.startswith("error: ") and err.count("\n") == 1)):
                failures.append((data, code, err))
        assert not failures, failures[:3]


# presentation strings from these tests, valid and invalid, as fuzz seeds
PRESENTATION_SEEDS = (
    "<a,b | a b a^-1 = b^3>",
    "<a,b|a b a^-1 b^-1>",
    "<x,y,z | x y^2 z^-1 x^3>",
    "<a,b,c | a^2 b^-2 c^3 a>",
    "< a, b | b a b a b b^-1 >",
    "< a, b | b^-7 a b^10000000000000 a b^10000000000000 a b^10000000000000 b^7 >",
    "<a,b|a^1000000000000 b>",
    "<a|a^2>",
    "< a | a = a >",
    "<a,b | a b c>",
    "< a, b | a, b >",
)
FUZZ_ALPHABET = "<>|,=^-abcxyz_0123456789 \t"


def mutate_text(text: str, rng: random.Random) -> str:
    """``text`` with one character inserted, deleted or replaced."""
    i = rng.randrange(len(text) + 1)
    ch = rng.choice(FUZZ_ALPHABET)
    op = rng.randrange(3)
    if op == 0:
        return text[:i] + ch + text[i:]
    if op == 1:
        return text[:i] + text[i + 1 :]
    return text[:i] + ch + text[i + 1 :]


class TestPresentationFuzz:
    def test_mutated_text_exits_with_a_documented_code(self, capsys):
        rng = random.Random(5)
        failures = []
        for _ in range(1000):
            text = rng.choice(PRESENTATION_SEEDS)
            for _ in range(rng.randint(1, 3)):
                text = mutate_text(text, rng)
            for command in ("homology", "khom"):
                try:
                    code, _, err = run(capsys, "--json", command, "--", text)
                except (Exception, SystemExit) as exc:
                    failures.append((command, text, repr(exc)))
                    continue
                if code not in (0, 2, 3, 4) or (code == 2 and err.count("\n") != 1):
                    failures.append((command, text, code, err))
        assert not failures, failures[:3]


class TestHomology:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "homology", "<a,b|a b a^-1 = b^3>")
        assert code == 0
        assert "H1 = Z + Z/2" in out and "H2 = 0" in out

    def test_torus(self, capsys):
        code, out, _ = run(capsys, "homology", "<a,b|a b a^-1 b^-1>")
        assert code == 0
        assert "H1 = Z^2" in out and "H2 = Z" in out

    def test_proper_power(self, capsys):
        code, _, err = run(capsys, "homology", "<a|a^2>")
        assert code == 2

    def test_parse_error(self, capsys):
        code, _, _ = run(capsys, "homology", "<a| >")
        assert code == 2

    @pytest.mark.parametrize(
        "text, at", [("<a,b|a b^\u0663>", 9), ("<a|a^\u00b2>", 5)], ids=["arabic-indic-3", "superscript-2"]
    )
    def test_exponent_digits_are_ascii(self, capsys, text, at):
        code, out, err = run(capsys, "homology", "--", text)
        assert code == 2 and out == ""
        assert_one_line_error(err)
        assert err.endswith(f"(at position {at})\n"), err


class TestKhom:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "--json", "khom", "<a,b|a b a^-1 = b^6>")
        assert code == 0
        data = json.loads(out)
        assert data["k1"]["torsion"] == [5]
        assert data["ledger"]["[pt]"]["order"] == "inf"

    @pytest.mark.parametrize(
        "text, rank", [("<a,b,c|a^9 b^-8 b^-5 c^-11>", 2), ("<a,b,c,d|c^-7 c^-8 d^11 a^10 b^-8>", 3)]
    )
    def test_printed_generator_classes_span_k1(self, capsys, text, rank):
        # nearest-remainder Smith forms print another basis here than floor
        # quotients did; any basis must keep the groups, and the generators'
        # classes must still span K1 = Z^rank
        code, out, _ = run(capsys, "--json", "khom", text)
        assert code == 0
        data = json.loads(out)
        assert (data["k0"]["free_rank"], data["k0"]["torsion"]) == (1, [])
        assert (data["k1"]["free_rank"], data["k1"]["torsion"]) == (rank, [])
        classes = [entry["coeffs"] for symbol, entry in data["ledger"].items() if symbol != "[pt]"]
        assert len(classes) == rank + 1 and all(entry["order"] == "inf" for entry in data["ledger"].values())
        assert smith_normal_form(IntMatrix.from_rows(classes)).diag == (1,) * rank


class TestPair:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, "pair", "--n", "2", "--depth", "5", "--trials", "200")
        assert code == 0
        assert "passed: 200  failed: 0" in out

    def test_negative_base(self, capsys):
        code, out, _ = run(capsys, "--json", "pair", "--n", "-2", "--depth", "4", "--trials", "150")
        assert code == 0
        data = json.loads(out)
        assert data["failed"] == 0 and data["passed"] == 150

    def test_depth_zero_skips(self, capsys):
        code, out, _ = run(capsys, "--json", "pair", "--n", "2", "--depth", "0", "--trials", "60")
        assert code == 0
        data = json.loads(out)
        assert data["failed"] == 0
        assert data["skipped"] > 0
        assert data["passed"] + data["skipped"] == 60

    def test_zero_base_rejected(self, capsys):
        code, _, _ = run(capsys, "pair", "--n", "0", "--trials", "5")
        assert code == 2

    @pytest.mark.parametrize("depth", ["10001", "100000000"])
    def test_depth_past_bound_rejected(self, capsys, depth):
        # rejected before any point is built, so even 10^8 exits at once
        code, out, err = run(capsys, "pair", "--n", "2", "--depth", depth, "--trials", "1")
        assert (code, out) == (2, "")
        assert err == "error: depth must be at most 10000\n"

    def test_depth_at_bound_runs(self, capsys):
        code, out, _ = run(capsys, "--json", "pair", "--n", "3", "--depth", "10000", "--trials", "1")
        assert code == 0
        assert json.loads(out)["failed"] == 0


class TestSnf:
    def test_literal(self, capsys):
        code, out, _ = run(capsys, "--json", "snf", "[[2,4],[6,8]]")
        assert code == 0
        data = json.loads(out)
        assert data["diag"] == [2, 4]

    def test_file(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[[1,0],[0,1]]", encoding="utf-8")
        code, out, _ = run(capsys, "snf", str(path))
        assert code == 0
        assert "diag: [1, 1]" in out

    def test_bad_input(self, capsys):
        code, _, _ = run(capsys, "snf", "not a matrix")
        assert code == 2
        code, _, _ = run(capsys, "snf", "[[1,2],[3]]")
        assert code == 2

    def test_non_integer_entries_rejected(self, capsys):
        # JSON floats and booleans must not be coerced to the integer 1
        for literal in ("[[1.5]]", "[[true]]", '[["1"]]'):
            code, out, err = run(capsys, "snf", literal)
            assert code == 2 and out == "", literal
            assert_one_line_error(err)


class TestSnfHugeEntries:
    """Computed transforms may be longer than the 4,300 digits Python
    converts by default; input is still read under that limit."""

    def test_prints_transforms_past_the_digit_limit(self, capsys):
        rng = random.Random(11)
        a = [[rng.choice((-1, 1)) * rng.randrange(10**1999, 10**2000) for _ in range(3)] for _ in range(3)]
        literal = json.dumps(a)
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run(capsys, "--json", "snf", literal)
        assert code == 0, err
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        data = _without_digit_limit(lambda: json.loads(out))
        assert max(abs(x) for row in data["u"] + data["v"] for x in row) >= 10**4300
        u, s, v = (IntMatrix.from_rows(data[k]) for k in "usv")
        assert u @ IntMatrix.from_rows(a) @ v == s
        code, table, err = run(capsys, "snf", literal)
        assert code == 0, err
        for row in data["u"]:
            assert _without_digit_limit(lambda: f"  {row}\n") in table

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit before Python 3.11")
    def test_input_past_the_digit_limit_rejected(self, capsys):
        literal = "[[" + "7" * 4301 + "]]"
        code, out, err = run(capsys, "--json", "snf", literal)
        assert code == 2 and out == ""
        assert_one_line_error(err)


TEN_TO_4300 = "1" + "0" * 4300
needs_digit_limit = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit before Python 3.11")


def localized_input(tmp_path, n: int, rung: int) -> str:
    """A ``bsk pv`` file for Z on [1] and Z[1/n] acted on by ``rung``."""
    payload = kinput_to_json(bs_input(n))
    payload["alpha1"]["rung"] = rung
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestComputedPastTheDigitLimit:
    """Input is read under the interpreter's 4,300-digit limit; what is
    computed from it prints at any size."""

    def test_bs_table_and_json(self, capsys):
        n = "-" + "9" * 4300
        code, out, err = run(capsys, "bs", "--", n)
        assert code == 0, err
        assert f"K1 = Z + Z/{TEN_TO_4300}\n" in out and "verdict: ISOMORPHIC" in out
        code, out, err = run(capsys, "--json", "bs", "--", n)
        assert code == 0, err
        data = _without_digit_limit(lambda: json.loads(out))
        assert (data["rhs"]["k1"]["free_rank"], data["rhs"]["k1"]["torsion"]) == (1, [10**4300])
        assert data["verdict"] is True

    def test_pv_killed_class_note(self, capsys, tmp_path):
        code, out, err = run(capsys, "pv", localized_input(tmp_path, 10**2150, 1 - 10**4300))
        assert code == 0, err
        note = json.loads(out)["ledger"]["[b]"]["note"]
        assert note == f"order divides {TEN_TO_4300} (coinvariants of multiplication by {TEN_TO_4300})"

    @needs_digit_limit
    def test_pv_rung_past_the_digit_limit_rejected(self, capsys, tmp_path):
        path = _without_digit_limit(lambda: localized_input(tmp_path, 2, -int("7" * 4301)))
        code, out, err = run(capsys, "pv", path)
        assert code == 2 and out == ""
        assert_one_line_error(err)

    @needs_digit_limit
    def test_khom_exponent_past_the_digit_limit_rejected(self, capsys):
        code, out, err = run(capsys, "khom", "<a,b | a^" + "7" * 4301 + " b>")
        assert code == 2 and out == ""
        assert_one_line_error(err)

    @needs_digit_limit
    def test_limit_restored_on_every_exit(self, capsys, tmp_path, monkeypatch):
        unresolved = tmp_path / "unresolved.json"
        unresolved.write_text(json.dumps(UNRESOLVED), encoding="utf-8")
        cases = (
            (["bs", "5"], 0),
            (["bs", "0"], 2),
            (["snf", "[[" + "7" * 5000 + "]]"], 2),
            (["pv", str(unresolved)], 4),
            (["bs", "7"], 3),
        )
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4321)
        try:
            for argv, expected in cases:
                if expected == 3:
                    # a wrong closed form fails the staged colimit check
                    monkeypatch.setattr("bs_ktheory.pv.coprime_part", lambda c, n: abs(c) + 1)
                assert main(argv) == expected, argv
                assert sys.get_int_max_str_digits() == 4321, argv
        finally:
            sys.set_int_max_str_digits(saved)
        capsys.readouterr()


class TestStabilization:
    def test_long_chain(self, capsys, tmp_path):
        # coinvariants Z/2^70 with the bond doubling: 70 steps to stabilize
        code, out, err = run(capsys, "pv", localized_input(tmp_path, 2, 1 - 2**70))
        assert code == 0, err
        data = json.loads(out)
        assert data["k0_crossed"]["free_rank"] == data["k1_crossed"]["free_rank"] == 1
        assert data["k0_crossed"]["torsion"] == data["k1_crossed"]["torsion"] == []

    def test_thousand_steps_in_time(self, capsys, tmp_path):
        path = localized_input(tmp_path, 2, 1 - 2**1000)
        start = time.perf_counter()
        code, _, err = run(capsys, "pv", path)
        assert code == 0, err
        assert time.perf_counter() - start < 2

    def test_digits_not_magnitude(self, capsys, tmp_path):
        """A 14,000-step chain costs a few dozen kernels, not 14,000."""
        path = localized_input(tmp_path, 2, 1 - 2**14000)
        start = time.perf_counter()
        code, out, err = run(capsys, "--json", "pv", path)
        assert code == 0, err
        assert time.perf_counter() - start < 2
        data = json.loads(out)
        for group in (data["k0_crossed"], data["k1_crossed"]):
            assert (group["free_rank"], group["torsion"]) == (1, [])

    def test_bound_reached_exits_3_with_one_line(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr("bs_ktheory.colimit._stabilization_bound", lambda g: 0)
        code, out, err = run(capsys, "pv", localized_input(tmp_path, 2, 1 - 2**70))
        assert code == 3 and out == ""
        assert err.startswith("internal inconsistency: kernel chain") and err.count("\n") == 1


class TestOutputContract:
    def test_determinism(self, capsys):
        first = run(capsys, "--json", "bs", "7")
        second = run(capsys, "--json", "bs", "7")
        assert first == second
        third = run(capsys, "pair", "--n", "3", "--depth", "4", "--seed", "9", "--trials", "50")
        fourth = run(capsys, "pair", "--n", "3", "--depth", "4", "--seed", "9", "--trials", "50")
        assert third == fourth

    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "--json", "--out", str(target), "bs", "5")
        assert code == 0
        assert out == ""
        data = json.loads(target.read_text(encoding="utf-8"))
        assert data["verdict"] is True


class TestHugeExponentsInProcess:
    def test_bs_large_parameter(self):
        done = run_process("bs", "1000000000039")
        assert done.returncode == 0, done.stderr
        assert "K1 = Z + Z/1000000000038" in done.stdout

    def test_khom_large_exponent(self):
        done = run_process("khom", "<a,b|a^1000000000000 b>")
        assert done.returncode == 0, done.stderr

    def test_homology_large_proper_power(self):
        done = run_process("homology", "<a|a^1000000000000>")
        assert done.returncode == 2
        assert done.stdout == ""
        assert_one_line_error(done.stderr)
        assert "proper power" in done.stderr


def last_line_of_clean_interpreter(code: str) -> str:
    """The last line ``code`` prints in a fresh ``python -S``, which loads no
    site packages, so ``sys.modules`` shows what the package itself imports."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


PACKAGE_MODULES = "print(sorted(m for m in sys.modules if m.startswith('bs_ktheory.')))"


class TestStartup:
    def test_no_dataclass_machinery_imported(self):
        """A ``bsk`` call pays for no ``dataclasses`` import and what it pulls
        in, and for no ``pathlib``."""
        code = (
            "import sys, bs_ktheory, bs_ktheory.cli\n"
            "bs_ktheory.cli.main(['bs', '5'])\n"
            "print(sorted(m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'pathlib') if m in sys.modules))"
        )
        assert last_line_of_clean_interpreter(code) == "[]"

    def test_package_import_loads_no_module(self):
        assert last_line_of_clean_interpreter("import sys, bs_ktheory\n" + PACKAGE_MODULES) == "[]"

    def test_snf_loads_only_abelian(self):
        code = "import sys\nfrom bs_ktheory.cli import main\nmain(['snf', '[[2,4],[6,8]]'])\n" + PACKAGE_MODULES
        expected = ["bs_ktheory.abelian", "bs_ktheory.cli", "bs_ktheory.errors"]
        assert last_line_of_clean_interpreter(code) == str(expected)

    def test_bs_loads_nothing_of_the_solenoid(self):
        """``bsk bs`` imports neither ``typing`` nor what only ``bsk pair`` runs."""
        unused = ("typing", "fractions", "decimal", "random", "pathlib", "bs_ktheory.solenoid")
        code = (
            "import sys\nfrom bs_ktheory.cli import main\nmain(['bs', '5'])\n"
            f"print(sorted(m for m in {unused!r} if m in sys.modules))"
        )
        assert last_line_of_clean_interpreter(code) == "[]"
