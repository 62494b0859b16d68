import contextlib
import io
import json
import os
import random
import re
import reprlib
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bs_ktheory import cli, solenoid
from bs_ktheory.abelian import IntMatrix, smith_normal_form
from bs_ktheory.cli import _read_argv, _without_digit_limit, build_parser, main
from bs_ktheory.pv import bs_input, kinput_to_json
from helpers import reference_build_parser

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


# a ledger entry in a location that only a solution holds
CROSSED_ENTRY = {"group": "crossed0", "coeffs": [1, 2, 3], "order": 7, "note": "a"}


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

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit before Python 3.11")
    @pytest.mark.parametrize("digits", [4301, 100_000])
    @pytest.mark.parametrize("argv", [["bs"], ["pair", "--n"]], ids=["bs", "pair"])
    def test_past_the_digit_limit(self, capsys, argv, digits):
        """ASCII digits past the interpreter's 4,300-digit limit are rejected
        too, and the value is quoted shortened: one line under 1 KB."""
        value = "7" * digits
        err = self.rejected(capsys, *argv, value)
        assert err == self.rejected(capsys, *argv, "abc").replace("'abc'", reprlib.repr(value))
        assert len(err.splitlines()[-1].encode()) < 1024, len(err)

    def test_ascii_integers_still_read(self, capsys):
        code, out, _ = run(capsys, "bs", "--", "-3")
        assert code == 0 and "parameter n = -3" in out
        code, out, _ = run(capsys, "--json", "pair", "--n=-3", "--depth=2", "--seed=007", "--trials=5")
        assert code == 0 and json.loads(out)["seed"] == 7


@pytest.mark.parametrize("command, group", [("homology", "h1"), ("khom", "k1")])
def test_declared_name_like_a_derived_one(capsys, command, group):
    """Derived names skip a declared ``a2``: the presentation computes as it
    does with ``c`` in its place, where it once exited 2 on a repeated name."""
    code, out, err = run(capsys, "--json", command, "<a,b,a2 | a^-2 b^-2>")
    assert code == 0, err
    code, renamed, err = run(capsys, "--json", command, "<a,b,c | a^-2 b^-2>")
    assert code == 0, err
    got, want = json.loads(out), json.loads(renamed)
    assert got[group]["gens"] == ["a", "a2", "a3"]
    assert (got[group]["free_rank"], got[group]["torsion"]) == (want[group]["free_rank"], want[group]["torsion"]) == (2, [2])
    if command == "khom":
        assert {("c" if k == "a2" else k): v for k, v in got["ledger"].items()} == want["ledger"]


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
        "corrupt, named",
        [
            (lambda d: d["alpha1"].update(rung=[]), "alpha1.rung"),
            (lambda d: d["alpha1"].update(rung=[5]), "alpha1.rung[0]"),
            (lambda d: d["k0"]["group"].update(gens=5), "k0.group.gens"),
            (lambda d: d.update(k0=[]), "k0"),
            (lambda d: d.update(alpha0=5), "alpha0"),
            (lambda d: d.update(ledger=[]), "ledger"),
            (lambda d: d["ledger"].update({"[1]": 3}), "ledger['[1]']"),
            (lambda d: d["k1"].update(symbol=3), "k1.symbol"),
            (lambda d: d["k1"].update(symbol=None), "k1.symbol"),
            (lambda d: d["k1"].update(symbol=["v"]), "k1.symbol"),
            (lambda d: d["ledger"].update({"[x]": {**CROSSED_ENTRY, "note": ["a"]}}), "ledger['[x]'].note"),
            (lambda d: d["ledger"].update({"[x]": CROSSED_ENTRY}), "'[x]'"),
            (lambda d: d["ledger"]["[1]"].pop("group"), "ledger['[1]'].group is missing"),
            (lambda d: d["k1"].pop("inverted"), "k1.inverted is missing"),
            (lambda d: d["k0"].pop("group"), "k0.group is missing"),
        ],
        ids=["rung-empty-list", "rung-flat-list", "gens-not-a-list", "k0-not-an-object",
             "alpha0-not-an-object", "ledger-not-an-object", "ledger-entry-not-an-object",
             "symbol-int", "symbol-null", "symbol-list", "note-not-a-string", "output-only-location",
             "ledger-entry-group-missing", "inverted-missing", "k0-group-missing"],
    )
    def test_malformed_shape_rejected(self, capsys, tmp_path, corrupt, named):
        payload = kinput_to_json(bs_input(3))
        corrupt(payload)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run(capsys, "pv", str(path))
        assert code == 2 and out == ""
        assert_one_line_error(err)
        assert named in err, err

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
            elif code == 2 and re.fullmatch(r"error: '[^']*'\n", err):  # a bare KeyError names no path
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

    @pytest.mark.parametrize("broken", ["level-shift", "additivity", "duality"])
    def test_a_broken_identity_is_counted(self, capsys, monkeypatch, broken):
        # negative controls: _run_pair imports these names from solenoid at call time
        raw, add = solenoid.pairing_raw, solenoid.RationalAngle.__add__
        if broken == "level-shift":  # reads m/n^exp one level up; pairing keeps the true angle
            monkeypatch.setattr(solenoid, "pairing", lambda z, x: raw(z, x.m, x.exp))
            monkeypatch.setattr(solenoid, "pairing_raw", lambda z, m, exp: raw(z, m, exp - 1))
        elif broken == "additivity":  # angles subtract
            monkeypatch.setattr(solenoid.RationalAngle, "__add__", lambda a, b: add(a, type(a)(-b.p, b.q)))
        else:  # a shift that drops no level
            monkeypatch.setattr(solenoid, "dual_shift", lambda z: z)
        argv = ["pair", "--n", "3", "--depth", "5", "--trials", "100"]
        code, out, _ = run(capsys, *argv)
        assert code == 3
        assert int(re.search(r"failed: (\d+)", out).group(1)) > 0
        code, out, _ = run(capsys, "--json", *argv)
        assert code == 3
        assert json.loads(out)["failed"] > 0


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

    def test_file_named_like_a_literal(self, capsys, tmp_path, monkeypatch):
        # an existing path is read as a file, even where it starts with "["
        monkeypatch.chdir(tmp_path)
        Path("[m].json").write_text("[[2,4],[6,8]]", encoding="utf-8")
        assert run(capsys, "snf", "[m].json") == run(capsys, "snf", "[[2,4],[6,8]]")
        code, out, err = run(capsys, "snf", "[n].json")
        assert (code, out) == (2, "")
        assert_one_line_error(err)

    def test_non_integer_entries_rejected(self, capsys):
        # JSON floats and booleans must not be coerced to the integer 1
        for literal in ("[[1.5]]", "[[true]]", '[["1"]]'):
            code, out, err = run(capsys, "snf", literal)
            assert code == 2 and out == "", literal
            assert_one_line_error(err)


def nested(depth: int) -> str:
    return "[" * depth + "]" * depth


class TestDeeplyNestedJson:
    """The JSON decoder recurses once per level; past the interpreter's limit
    that is one error line and exit 2, not a traceback. Run as processes, so
    that the stack holds only the command's own frames."""

    TOO_DEEP = "error: JSON input is nested too deeply\n"

    def test_snf_literal(self):
        done = run_process("snf", nested(1100))
        # interpreters whose decoder allows this depth reject the entry instead
        assert done.returncode == 2 and done.stdout == ""
        assert_one_line_error(done.stderr)

    @pytest.mark.parametrize("command", ["snf", "pv"])
    def test_file(self, tmp_path, command):
        path = tmp_path / "deep.json"
        path.write_text(nested(100_000), encoding="utf-8")
        done = run_process(command, str(path))
        assert (done.returncode, done.stdout, done.stderr) == (2, "", self.TOO_DEEP)

    def test_below_the_limit(self):
        done = run_process("snf", nested(900))
        assert done.returncode == 2 and done.stdout == ""
        # the entry's path, then the entry shortened to six levels of nesting
        assert done.stderr == "error: matrix[0][0] must be an integer, found [[[[[[[...]]]]]]]\n"


class TestOversizedValues:
    """An error quotes a bad value shortened, and a path built from a long
    key shortened too, so the one error line stays under 1 KB."""

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda d: d["k0"]["group"].update(torsion=list(range(2, 200_002))),
            lambda d: d["k1"].update(kind="x" * 200_000),
            lambda d: d["ledger"]["[1]"].update(group="k" * 200_000),
            lambda d: d["ledger"].update({"[" + "x" * 200_000 + "]": CROSSED_ENTRY}),
        ],
        ids=["torsion", "kind", "group", "ledger-key"],
    )
    def test_pv(self, capsys, tmp_path, corrupt):
        payload = kinput_to_json(bs_input(3))
        corrupt(payload)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run(capsys, "pv", str(path))
        assert code == 2 and out == ""
        assert_one_line_error(err)
        assert len(err.encode()) < 1024, len(err)

    def test_snf_entry(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps([[list(range(200_000))]]), encoding="utf-8")
        code, out, err = run(capsys, "snf", str(path))
        assert (code, out) == (2, "")
        assert err == "error: matrix[0][0] must be an integer, found [0, 1, 2, 3, 4, 5, ...]\n"

    def test_snf_argument(self, capsys):
        # neither an existing path nor a JSON literal
        code, out, err = run(capsys, "snf", "m" * 200_000)
        assert (code, out) == (2, "")
        assert err == "error: no such file: 'mmmmmmmmmmmm...mmmmmmmmmmmmm'\n"

    @pytest.mark.parametrize(
        "command, text, line",
        [
            ("khom", "<a,b | a b " + "c" * 100_000 + ">", "undeclared generator 'cccccccccccc...ccccccccccccc'"),
            ("homology", "<a | a > " + "z" * 100_000, "trailing input 'zzzzzzzzzzzz...zzzzzzzzzzzzz'"),
        ],
        ids=["khom-identifier", "homology-trailing-input"],
    )
    def test_presentation_token(self, command, text, line):
        # the parser quotes a long token shortened, as a bsk process writes it
        done = run_process(command, text)
        assert (done.returncode, done.stdout) == (2, "")
        assert_one_line_error(done.stderr)
        assert len(done.stderr.encode()) < 1024, len(done.stderr)
        assert done.stderr.startswith(f"error: {line} (at position ")


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

    def test_large_bond_powers_stay_reduced(self, capsys, tmp_path):
        """n = 2 (2^4000 + 1) acting on the staged cokernel Z/2^4000: each probe
        squares a 4,000-bit bond, so powers are kept as residues mod 2^4000."""
        path = localized_input(tmp_path, 2 * (2**4000 + 1), 1 - 2**4000)
        start = time.perf_counter()
        code, out, err = run(capsys, "--json", "pv", path)
        assert code == 0, err
        assert time.perf_counter() - start < 1
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

    def test_out_flag_writes_the_table(self, capsys, tmp_path):
        target = tmp_path / "report.txt"
        code, out, _ = run(capsys, "--out", str(target), "bs", "5")
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8") == run(capsys, "bs", "5")[1]


GOLDEN_ARGVS = [
    [arg.replace("{dir}", "/data") for arg in case["argv"]]
    for case in json.loads((Path(__file__).resolve().parent / "golden" / "cli.json").read_text(encoding="utf-8"))
]
# the forms perfbench/workloads.py::_cli_argv passes to each cli-process run
WORKLOAD_ARGVS = [
    ["bs", "-7"],
    ["--json", "bs", "1999"],
    ["--json", "khom", "<a,b | a b a^-1 = b^3>"],
    ["--json", "homology", "<a,b,c | a^2 b^-2 c^3 a>"],
    ["--json", "snf", "[[1, -2], [3, 4]]"],
    ["pv", "/data/pv-3.json"],
    ["--json", "pair", "--n=3", "--depth=4", "--seed=123", "--trials=300"],
]
# tokens the mutations insert or substitute: every flag and command, their
# abbreviations, and values argparse reads differently from a plain integer
ARGV_TOKENS = (
    *("--json", "--out", "--n", "--depth", "--seed", "--trials", "--help", "-h", "--", "-", ""),
    *("bs", "pv", "homology", "khom", "pair", "snf", "frob", "b", "pai"),
    *("--js", "--j", "--ou", "--o", "--dep", "--se", "--tri", "--nn", "--out=o.txt", "--json=1", "--n=", "--dep=4"),
    *("5", "-3", "007", "-0", "+5", "1_0", "٣", " 7 ", "-1.5", "5e3", "7" * 4301, "-x", "-n", "-a b", "a b"),
    *("o.txt", "[[1,2],[3,4]]", "<a,b | a b a^-1 = b^3>", "=", "--n=3", "--trials=-1", "--seed=٣"),
)


def mutate_argv(argv: list[str], rng: random.Random) -> list[str]:
    """``argv`` after one to three random edits: a token inserted, deleted,
    replaced or swapped, a flag abbreviated, or ``--flag value`` and
    ``--flag=value`` turned into each other."""
    argv = list(argv)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(argv) + 1)
        edit = rng.randrange(6)
        if edit == 0 or not argv:
            argv.insert(i, rng.choice(ARGV_TOKENS))
            continue
        i = min(i, len(argv) - 1)
        if edit == 1:
            del argv[i]
        elif edit == 2:
            argv[i] = rng.choice(ARGV_TOKENS)
        elif edit == 3:
            j = rng.randrange(len(argv))
            argv[i], argv[j] = argv[j], argv[i]
        elif argv[i].startswith("--"):
            flag, sep, value = argv[i].partition("=")
            if edit == 4 and len(flag) > 3:
                argv[i] = flag[: rng.randrange(3, len(flag))] + sep + value
            elif edit == 5 and sep:
                argv[i : i + 1] = [flag, value]
            elif edit == 5 and i + 1 < len(argv):
                argv[i : i + 2] = [f"{flag}={argv[i + 1]}"]
    return argv


def argparse_fields(parser, argv: list[str]) -> dict | None:
    """``vars()`` of the namespace ``parser`` reads from ``argv``, or None
    where it exits instead (an error, or help)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


class TestArgvReader:
    """``cli._read_argv`` returns argparse's namespace or declines, so that
    a process whose argv it reads never imports argparse."""

    def test_success_forms_read(self):
        parser = build_parser()
        for argv in GOLDEN_ARGVS + WORKLOAD_ARGVS:
            fields = argparse_fields(parser, argv)
            assert fields is not None and _read_argv(argv) == fields, argv

    def test_mutations_read_as_argparse_reads_them_or_declined(self):
        parser = build_parser()
        rng = random.Random(20161)
        bases = GOLDEN_ARGVS + WORKLOAD_ARGVS
        argvs = bases + [mutate_argv(rng.choice(bases), rng) for _ in range(6000)]
        read = wrong = 0
        for argv in argvs:
            fields = _read_argv(argv)
            if fields is not None:
                read += 1
                assert fields == argparse_fields(parser, argv), argv
            wrong += fields is None and argv in bases
        assert wrong == 0
        # the mutations reach both sides of the reader
        assert len(bases) + 500 < read < len(argvs) - 1000, read


# argv that the reader declines: argparse prints help, usage or an error,
# or reads what the success grammar leaves out
ARGPARSE_ARGVS = [
    ["-h"],
    ["--help"],
    *([command, "-h"] for command in ("bs", "pv", "homology", "khom", "pair", "snf")),
    [],
    ["frob", "5"],
    ["bs"],
    ["--js", "bs", "5"],
    ["--out={out}", "bs", "5"],
    ["--json", "--json", "bs", "5"],
    ["bs", "--", "-3"],
    ["bs", "+5"],
]


@pytest.mark.parametrize("argv", ARGPARSE_ARGVS, ids=lambda argv: " ".join(argv) or "no arguments")
def test_argparse_path_unchanged(argv, capsys, tmp_path, monkeypatch):
    """Where the reader declines, ``main`` prints what it printed when
    argparse read every argv: same stdout, stderr, exit code and file."""
    monkeypatch.setenv("COLUMNS", "80")
    argv = [arg.replace("{out}", str(tmp_path / "out.txt")) for arg in argv]
    assert _read_argv(argv) is None

    def outcome():
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        written = (tmp_path / "out.txt").read_text(encoding="utf-8") if (tmp_path / "out.txt").exists() else None
        (tmp_path / "out.txt").unlink(missing_ok=True)
        return code, *capsys.readouterr(), written

    seen = outcome()
    monkeypatch.setattr(cli, "_read_argv", lambda argv: None)
    assert outcome() == seen


def parser_outcome(parser, argv: list[str]) -> tuple:
    """The fields ``parser`` reads from ``argv``, or None where it exits,
    with the exit code and what it writes to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            fields, code = vars(parser.parse_args(argv)), None
        except SystemExit as exc:
            fields, code = None, exc.code
    return fields, code, out.getvalue(), err.getvalue()


class TestTableParser:
    """``build_parser``, built from ``cli.COMMANDS`` and ``cli._PAIR_FLAGS``,
    reads and prints what the parser written out one subcommand at a time
    did. The reader and argparse read one table, so a wrong help line or
    default there moves both, and only this comparison sees it."""

    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    def assert_same(self, argvs):
        parser, reference = build_parser(), reference_build_parser()
        for argv in argvs:
            assert parser_outcome(parser, argv) == parser_outcome(reference, argv), argv

    def test_help_and_usage(self):
        commands = ("bs", "pv", "homology", "khom", "pair", "snf")
        self.assert_same([[], ["-h"], *([command, "-h"] for command in commands)])

    def test_fixed_argvs(self):
        # every golden and workload pair argv passes all four flags
        on_defaults = [["pair", "--n", "3"]]
        self.assert_same(GOLDEN_ARGVS + WORKLOAD_ARGVS + ARGPARSE_ARGVS + on_defaults)

    def test_mutations(self):
        rng = random.Random(20161)
        bases = GOLDEN_ARGVS + WORKLOAD_ARGVS
        self.assert_same(mutate_argv(rng.choice(bases), rng) for _ in range(6000))


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["bs", "5"],
            ["--json", "snf", "[[2,4],[6,8]]"],
            ["--json", "khom", "<a,b | a b a^-1 = b^3>"],
            ["pair", "--n=3", "--depth=4", "--seed=1", "--trials=20"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_success_path_loads_no_argparse(self, argv):
        """An argv the reader reads pays for neither ``argparse`` nor the
        ``gettext``, ``locale`` and ``shutil`` it imports."""
        unused = ("argparse", "gettext", "locale", "shutil")
        code = (
            f"import sys\nfrom bs_ktheory.cli import main\nmain({argv!r})\n"
            f"print(sorted(m for m in {unused!r} if m in sys.modules))"
        )
        assert last_line_of_clean_interpreter(code) == "[]"

    def test_table_loads_no_json(self):
        """``bsk bs`` prints a table, so it imports no ``json``."""
        code = "import sys\nfrom bs_ktheory.cli import main\nmain(['bs', '5'])\nprint('json' in sys.modules)"
        assert last_line_of_clean_interpreter(code) == "False"

    def test_pair_loads_no_fractions(self):
        """``bsk pair`` works on int pairs, so it loads neither ``fractions``
        nor the ``decimal`` that ``fractions`` imports."""
        code = (
            "import sys\nfrom bs_ktheory.cli import main\n"
            "main(['pair', '--n', '-3', '--depth', '6', '--trials', '50'])\n"
            "print(sorted(m for m in ('fractions', 'decimal') if m in sys.modules))"
        )
        assert last_line_of_clean_interpreter(code) == "[]"
