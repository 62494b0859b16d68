import json
import math
import random
import re
import sys
import time
from pathlib import Path

import pytest

from bs_ktheory import pv
from bs_ktheory.abelian import FgAbGroup, GroupHom, IntMatrix, element_order, is_isomorphic
from bs_ktheory.colimit import ColimModule, LadderMap, LocalizedInt, LocObject
from bs_ktheory.cli import main
from bs_ktheory.errors import DomainError, UnresolvedExtension
from bs_ktheory.ledger import KClass, KClassLedger
from bs_ktheory.pv import (
    KInput,
    bs_input,
    kinput_from_json,
    kinput_to_json,
    pv_solve,
    solution_to_json,
)
from helpers import (
    random_group,
    random_hom_matrix,
    random_selfmap,
    reference_kinput_check,
    reference_pv_solve,
    run_optimized,
)
TRIVIAL = FgAbGroup.trivial()


def trivial_action_input() -> KInput:
    """K-theory of the complex numbers with the only possible action."""
    k0 = FgAbGroup.free(1, ("1",))
    return KInput(
        k0,
        TRIVIAL,
        GroupHom.identity(k0),
        GroupHom.identity(TRIVIAL),
        KClassLedger({"[1]": KClass("k0", (1,), math.inf)}),
    )


class TestBsInput:
    def test_structure(self):
        inp = bs_input(2)
        assert isinstance(inp.k1, LocObject) and inp.k1.loc.n == 2
        assert inp.alpha1.rung.matrix.at(0, 0) == 2
        assert inp.ledger["[1]"].location == "k0"
        assert inp.ledger["[b]"].location == "k1"
        assert inp.ledger["[a]"].location == "unitary"

    def test_degenerate_base(self):
        inp = bs_input(-1)
        assert inp.k1.loc.n == -1
        assert inp.alpha1.rung.matrix.at(0, 0) == -1

    def test_domain(self):
        with pytest.raises(DomainError):
            bs_input(0)
        with pytest.raises(DomainError):
            bs_input(1)


class TestKInputValidation:
    def test_unit_required(self):
        k0 = FgAbGroup.free(1, ("1",))
        with pytest.raises(ValueError):
            KInput(k0, TRIVIAL, GroupHom.identity(k0), GroupHom.identity(TRIVIAL), KClassLedger())

    def test_unit_must_be_fixed(self):
        k0 = FgAbGroup.free(1, ("1",))
        doubling = GroupHom(k0, k0, IntMatrix(1, 1, (2,)))
        with pytest.raises(ValueError):
            KInput(
                k0,
                TRIVIAL,
                doubling,
                GroupHom.identity(TRIVIAL),
                KClassLedger({"[1]": KClass("k0", (1,), math.inf)}),
            )

    def test_kind_mismatch(self):
        inp = bs_input(2)
        with pytest.raises(ValueError):
            KInput(inp.k0, inp.k1, inp.alpha0, GroupHom.identity(TRIVIAL), inp.ledger)

    def test_order_annotation_consistency(self):
        k0 = FgAbGroup(1, (4,), ("1", "t"))
        ledger = KClassLedger(
            {
                "[1]": KClass("k0", (1, 0), math.inf),
                "[t]": KClass("k0", (0, 1), 2),  # true order is 4
            }
        )
        with pytest.raises(ValueError):
            KInput(k0, TRIVIAL, GroupHom.identity(k0), GroupHom.identity(TRIVIAL), ledger)
        good = KClassLedger(
            {
                "[1]": KClass("k0", (1, 0), math.inf),
                "[t]": KClass("k0", (0, 1), 4),
            }
        )
        KInput(k0, TRIVIAL, GroupHom.identity(k0), GroupHom.identity(TRIVIAL), good)


class TestTheorem:
    def test_n5_with_names(self):
        sol = pv_solve(bs_input(5))
        assert (sol.k0_crossed.free_rank, sol.k0_crossed.torsion) == (1, ())
        assert (sol.k1_crossed.free_rank, sol.k1_crossed.torsion) == (1, (4,))
        assert sol.ledger_out["[1]"].order == math.inf
        assert sol.ledger_out["[a]"].order == math.inf
        assert sol.ledger_out["[b]"].order == 4
        assert "u" in sol.k1_crossed.gen_names
        assert "v‾" in sol.k1_crossed.gen_names

    def test_full_grid(self):
        for n in list(range(2, 13)) + [-1] + list(range(-12, -1)):
            sol = pv_solve(bs_input(n))
            assert (sol.k0_crossed.free_rank, sol.k0_crossed.torsion) == (1, ())
            expected = () if abs(n - 1) == 1 else (abs(n - 1),)
            assert (sol.k1_crossed.free_rank, sol.k1_crossed.torsion) == (1, expected)
            assert sol.ledger_out["[a]"].order == math.inf
            assert sol.ledger_out["[b]"].order == (1 if abs(n - 1) == 1 else abs(n - 1))

    def test_unit_generates_degree_zero(self):
        for n in (2, 5, -3):
            sol = pv_solve(bs_input(n))
            unit = sol.ledger_out["[1]"]
            assert abs(unit.vector[0]) == 1

    def test_relation_consistency(self):
        # (n-1) . [b] = 0 in the crossed K1
        for n in list(range(2, 13)) + [-1]:
            sol = pv_solve(bs_input(n))
            b = sol.ledger_out["[b]"].vector
            scaled = sol.k1_crossed.reduce(tuple((n - 1) * c for c in b))
            assert not any(scaled)

    def test_exactness_bookkeeping(self):
        for n in (2, 3, 5, -1, -4):
            sol = pv_solve(bs_input(n))
            assert sol.seq0.split and sol.seq1.split
            assert sol.seq1.middle.free_rank == sol.seq1.sub.free_rank + sol.seq1.quotient.free_rank
            assert sol.seq0.quotient.is_trivial
            assert is_isomorphic(sol.seq1.quotient, FgAbGroup(1))


class TestTrivialAction:
    def test_recovers_circle_algebra_k_theory(self):
        sol = pv_solve(trivial_action_input())
        assert is_isomorphic(sol.k0_crossed, FgAbGroup(1))
        assert is_isomorphic(sol.k1_crossed, FgAbGroup(1))
        assert sol.ledger_out["[u]"].order == math.inf
        assert sol.k1_crossed.gen_names == ("u",)

    def test_boundary_rule_off_leaves_order_undetermined(self):
        sol = pv_solve(trivial_action_input(), apply_boundary_rule=False)
        # groups still resolve, but no certificate for the unitary class
        assert is_isomorphic(sol.k1_crossed, FgAbGroup(1))
        entry = sol.ledger_out.get("[u]")
        assert entry is None or entry.order is None

    def test_boundary_rule_adjoins_the_unitary(self):
        entry = pv_solve(trivial_action_input()).ledger_out["[u]"]
        assert (entry.location, entry.order) == ("crossed1", math.inf)
        assert "-[1]" in entry.note
        assert "[u]" not in pv_solve(trivial_action_input(), apply_boundary_rule=False).ledger_out


class TestGenericSolves:
    def test_coordinate_swap(self):
        k0 = FgAbGroup.free(2, ("e", "f"))
        swap = GroupHom(k0, k0, IntMatrix.from_rows([[0, 1], [1, 0]]))
        inp = KInput(
            k0,
            TRIVIAL,
            swap,
            GroupHom.identity(TRIVIAL),
            KClassLedger({"[1]": KClass("k0", (1, 1), math.inf)}),
        )
        sol = pv_solve(inp)
        # coker(Id - swap) = Z and ker(Id - swap) = Z, split over the free quotient
        assert is_isomorphic(sol.k0_crossed, FgAbGroup(1))
        assert is_isomorphic(sol.k1_crossed, FgAbGroup(1))
        # the unit of the two-by-two matrix algebra is twice a rank-one class
        assert sol.ledger_out["[1]"].vector in ((2,), (-2,))

    def test_identity_action_doubles(self):
        # alpha = Id on any finitely generated k0 with k1 = 0 gives (k0, k0)
        k0 = FgAbGroup(1, (6,), ("1", "t"))
        inp = KInput(
            k0,
            TRIVIAL,
            GroupHom.identity(k0),
            GroupHom.identity(TRIVIAL),
            KClassLedger({"[1]": KClass("k0", (1, 0), math.inf)}),
        )
        sol = pv_solve(inp)
        assert is_isomorphic(sol.k0_crossed, k0)
        assert is_isomorphic(sol.k1_crossed, k0)
        assert sol.ledger_out["[u]"].order == math.inf

    def test_identity_action_random_groups(self):
        rng = random.Random(44)
        for _ in range(25):
            torsion = ()
            d = 1
            for _ in range(rng.randint(0, 2)):
                d *= rng.randint(2, 4) if d == 1 else rng.randint(1, 3)
                if d >= 2:
                    torsion += (d,)
            k0 = FgAbGroup(1 + rng.randint(0, 1), torsion)
            unit = (1,) + (0,) * (k0.gen_count - 1)
            inp = KInput(
                k0,
                TRIVIAL,
                GroupHom.identity(k0),
                GroupHom.identity(TRIVIAL),
                KClassLedger({"[1]": KClass("k0", unit, math.inf)}),
            )
            sol = pv_solve(inp)
            assert is_isomorphic(sol.k0_crossed, k0)
            assert is_isomorphic(sol.k1_crossed, k0)

    def test_unresolved_extension_reported(self):
        # quotient with torsion and a nontrivial subobject: refused
        k0 = FgAbGroup(1, (4,), ("1", "t"))
        k1 = FgAbGroup.free(1, ("w",))
        alpha1 = GroupHom(k1, k1, IntMatrix(1, 1, (3,)))
        inp = KInput(
            k0,
            k1,
            GroupHom.identity(k0),
            alpha1,
            KClassLedger({"[1]": KClass("k0", (1, 0), math.inf)}),
        )
        with pytest.raises(UnresolvedExtension) as excinfo:
            pv_solve(inp)
        assert excinfo.value.partial

    def test_localized_identity_action_refused(self):
        inp = bs_input(2)
        rung_one = GroupHom(inp.alpha1.source.stage, inp.alpha1.source.stage, IntMatrix(1, 1, (1,)))
        alpha1 = LadderMap(inp.alpha1.source, inp.alpha1.target, rung_one)
        bad = KInput(inp.k0, inp.k1, inp.alpha0, alpha1, inp.ledger)
        with pytest.raises(UnresolvedExtension):
            pv_solve(bad)


def localized_map(loc: LocalizedInt, rung: int) -> LadderMap:
    colim = loc.as_colim()
    return LadderMap(colim, colim, GroupHom(colim.stage, colim.stage, IntMatrix(1, 1, (rung,))))


def stage_named_map(loc: LocalizedInt, rung: int) -> LadderMap:
    """A ladder built by hand on a stage whose generator the symbol does not name."""
    stage = FgAbGroup.free(1, ("s",))
    colim = ColimModule(stage, GroupHom(stage, stage, IntMatrix(1, 1, (loc.n,))))
    return LadderMap(colim, colim, GroupHom(stage, stage, IntMatrix(1, 1, (rung,))))


class TestLocalizedDegreeZero:
    @pytest.mark.parametrize("n", [1, -1])
    def test_degenerate_localization_is_z(self, n):
        """Z[1/(+-1)] in degree zero folds into the finitely generated branch."""
        loc = LocalizedInt(n, "e")
        ledger = KClassLedger({"[1]": KClass("k0", (1,), math.inf)})
        inp = KInput(LocObject(loc), TRIVIAL, localized_map(loc, 1), GroupHom.identity(TRIVIAL), ledger)
        sol = pv_solve(inp)
        assert is_isomorphic(sol.k0_crossed, FgAbGroup(1))
        assert is_isomorphic(sol.k1_crossed, FgAbGroup(1))
        assert sol.ledger_out["[u]"].order == math.inf


def random_localized_input(rng, n: int) -> KInput:
    """Z on [1] and Z[1/n] acted on by a rung r whose 1 - r shares primes
    with n, or is 0 now and then."""
    primes = [p for p in (2, 3, 5, 7) if n % p == 0] or [abs(n)]
    c = rng.choice((-1, 1)) * rng.choice(primes) ** rng.randint(0, 6) * rng.randint(1, 30)
    if rng.random() < 0.05:
        c = 0
    base = bs_input(2)  # degree zero and the ledger are the same for every n
    loc = LocalizedInt(n, "v")
    ledger = base.ledger.with_entry("[b]", KClass("k1", (rng.randint(-6, 6),), None))
    return KInput(base.k0, LocObject(loc), base.alpha0, localized_map(loc, 1 - c), ledger)


def degenerate_inputs() -> list[KInput]:
    """Z[1/1] and Z[1/-1] in degree one at rungs 1, -1, 0 and 2, beside Z or
    the same localization at rung 1 in degree zero, on ladders from
    ``as_colim`` and on hand-built ones."""
    base = bs_input(2)
    ledger = base.ledger.with_entry("[b]", KClass("k1", (1,), math.inf))
    inputs = []
    for n in (1, -1):
        loc = LocalizedInt(n, "w")
        for make in (localized_map, stage_named_map):
            for rung in (1, -1, 0, 2):
                alpha1 = make(loc, rung)
                inputs.append(KInput(base.k0, LocObject(loc), base.alpha0, alpha1, ledger))
                inputs.append(KInput(LocObject(loc), LocObject(loc), make(loc, 1), alpha1, ledger))
    return inputs


def random_fg_input(rng) -> KInput:
    """Random finitely generated sides, alpha0 fixing [1] = e_0."""
    k0 = FgAbGroup(rng.randint(1, 2), random_group(rng).torsion)
    rows = random_hom_matrix(rng, k0, k0, span=2).to_rows()
    for i, row in enumerate(rows):
        row[0] = int(i == 0)
    alpha0 = GroupHom(k0, k0, IntMatrix.from_rows(rows, cols=k0.gen_count))
    k1 = random_group(rng)
    alpha1 = GroupHom(k1, k1, random_hom_matrix(rng, k1, k1, span=2))
    entries = {"[1]": KClass("k0", (1,) + (0,) * (k0.gen_count - 1), math.inf)}
    for sym, group, loc in (("[x]", k0, "k0"), ("[y]", k1, "k1")):
        vec = tuple(rng.randint(-3, 3) for _ in range(group.gen_count))
        entries[sym] = KClass(loc, vec, element_order(group, vec) if rng.random() < 0.5 else None)
    if rng.random() < 0.5:
        entries["[a]"] = KClass("unitary", None, None)
    return KInput(k0, k1, alpha0, alpha1, KClassLedger(entries))


def outcome(solve, inp: KInput, rule: bool):
    try:
        return solution_to_json(solve(inp, apply_boundary_rule=rule))
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "partial", None)


class TestMatchesClosureSolver:
    def test_same_solution_or_error(self):
        """The solver on plain data agrees with the closure-based one kept in
        helpers, and the inputs reach every branch of the extension."""
        rng = random.Random(71)
        inputs = [bs_input(n) for n in range(-64, 65) if n not in (0, 1)]
        inputs += [random_localized_input(rng, rng.choice((-1, 1)) * rng.randint(1, 40)) for _ in range(200)]
        inputs += [random_fg_input(rng) for _ in range(250)]
        inputs += degenerate_inputs()
        reached = set()
        for inp in inputs:
            for rule in (True, False):
                got = outcome(pv_solve, inp, rule)
                assert got == outcome(reference_pv_solve, inp, rule), kinput_to_json(inp)
                if isinstance(got, dict):
                    reached.update((got["seq0"]["section"], got["seq1"]["section"]))
                    if "u" in got["k1_crossed"]["gens"]:
                        reached.add("u")
                else:
                    reached.add(got[0].__name__)
        assert len(inputs) >= 500
        assert reached >= {
            "trivial quotient: middle is the subobject",
            "trivial subobject: middle is the quotient",
            "free quotient: projective, so the sequence splits",
            "UnresolvedExtension",
            "u",
        }, reached


def check_verdict(check, fields) -> str | None:
    """None when ``check`` accepts the solver input, else its message."""
    try:
        check(*fields)
    except ValueError as exc:
        return str(exc)
    return None


def mutated(rng, inp: KInput) -> tuple:
    """The fields of ``inp`` with one seeded change to a ledger vector, an
    order annotation, the unit class or the degree-zero action."""
    k0, k1, alpha0, alpha1, ledger = inp
    entries = dict(ledger)
    sym = rng.choice(sorted(s for s, e in entries.items() if e.location in ("k0", "k1")))
    entry = entries[sym]
    kind = rng.choice(("length", "order", "missing", "zero unit", "moved unit", "alpha0"))
    if kind == "length":
        vec = entry.vector[:-1] if entry.vector and rng.random() < 0.5 else (*entry.vector, rng.randint(-2, 2))
        entries[sym] = entry._replace(vector=vec)
    elif kind == "order":
        entries[sym] = entry._replace(order=rng.choice((None, math.inf, 1, 2, 3, 4, 6)))
    elif kind == "missing":
        entries[sym] = entry._replace(vector=None)
    elif kind == "zero unit":
        entries["[1]"] = entries["[1]"]._replace(vector=(0,) * len(entries["[1]"].vector), order=None)
    elif kind == "moved unit":
        entries["[1]"] = entries["[1]"]._replace(location=rng.choice(("k1", "unitary")))
    elif isinstance(k0, FgAbGroup):
        alpha0 = random_selfmap(rng, k0)
    else:
        alpha0 = rng.choice((localized_map, stage_named_map))(k0.loc, rng.randint(-3, 3))
    return k0, k1, alpha0, alpha1, KClassLedger(entries)


class TestKInputMatchesReference:
    def test_same_verdict_and_message(self):
        """KInput accepts the inputs the check that branched on each side's
        kind accepted, and rejects the others with the same message, on
        finitely generated, localized and Z[1/(+-1)] sides."""
        rng = random.Random(28)
        bases = [random_fg_input(rng) for _ in range(100)]
        bases += [random_localized_input(rng, rng.choice((-1, 1)) * rng.randint(2, 40)) for _ in range(100)]
        bases += degenerate_inputs()
        verdicts = set()
        for base in bases:
            for fields in (tuple(base), *(mutated(rng, base) for _ in range(6))):
                got = check_verdict(KInput, fields)
                assert got == check_verdict(reference_kinput_check, fields), kinput_to_json(base)
                verdicts.add(got and re.sub(r"^ledger entry \S+ |, but the class has order .*$", "", got))
        assert {v for v in verdicts if v and v.startswith("annotates order")}, verdicts
        assert verdicts >= {
            None,
            "needs a coefficient vector",
            "has the wrong vector length",
            '"[1]" must be nonzero',
            '"[1]" must have infinite order (unital algebra)',
            "alpha0 must fix the unit class",
            'the ledger must locate "[1]" in k0',
        }, verdicts


class TestPastTheDigitLimit:
    def test_killed_class_note_in_process(self):
        """A solve called from Python, under the interpreter's default limit
        on int-to-str digits, still writes the note of a class it kills."""
        if hasattr(sys, "get_int_max_str_digits"):
            assert 0 < sys.get_int_max_str_digits() <= 4300
        # on Z[1/10^2150], 1 - rung = 10^4300 has 4,301 digits and kills [b]
        inp = bs_input(10**2150)
        stage = inp.alpha1.source.stage
        rung = GroupHom(stage, stage, IntMatrix(1, 1, (1 - 10**4300,)))
        alpha1 = LadderMap(inp.alpha1.source, inp.alpha1.target, rung)
        sol = pv_solve(KInput(inp.k0, inp.k1, inp.alpha0, alpha1, inp.ledger))
        ten_to_4300 = "1" + "0" * 4300
        assert sol.ledger_out["[b]"].vector == (0,)
        assert sol.ledger_out["[b]"].note == (
            f"order divides {ten_to_4300} (coinvariants of multiplication by {ten_to_4300})"
        )


class TestKilledNote:
    @pytest.mark.parametrize(
        "n, notes",
        [(5, []), (2, ["order divides 1 (coinvariants of multiplication by -1)"])],
    )
    def test_formatted_only_for_a_killed_class(self, n, notes, monkeypatch, capsys):
        """The note is formatted where a ledger entry is killed, and nowhere
        else: bs 5 kills no class, bs 2 kills [b] (on Z[1/2], 1 - 2 = -1 is a
        unit). The output is the recorded one."""
        formatted = []
        note = pv._killed_note
        monkeypatch.setattr(pv, "_killed_note", lambda side: formatted.append(note(side)) or formatted[-1])
        assert main(["bs", str(n)]) == 0
        golden = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())
        assert capsys.readouterr().out == next(c["stdout"] for c in golden if c["argv"] == ["bs", str(n)])
        assert formatted == notes
        assert pv_solve(bs_input(n)).ledger_out["[b]"].note == "".join(notes)


class TestLedgerScaling:
    def test_twenty_thousand_entries_in_time(self):
        """The solve handles each ledger entry once: linear, not quadratic."""
        data = kinput_to_json(bs_input(3))
        count = 20_000
        for i in range(count):
            data["ledger"][f"[e{i}]"] = {"group": "k0", "coeffs": [i], "order": "inf" if i else 1}
        start = time.perf_counter()
        sol = pv_solve(kinput_from_json(data))
        assert time.perf_counter() - start < 2
        assert len(sol.ledger_out) == count + 4  # [1], [a], [b], [u]
        # degree zero is Z with the identity action, so [i] goes to i times [1]
        unit = sol.ledger_out["[1]"].vector
        for i in range(count):
            entry = sol.ledger_out[f"[e{i}]"]
            assert entry.location == "crossed0"
            assert entry.vector == tuple(i * x for x in unit)
            assert entry.order == (math.inf if i else 1)


class TestJson:
    def test_kinput_roundtrip(self):
        for n in (3, -1):
            inp = bs_input(n)
            data = kinput_to_json(inp)
            again = kinput_from_json(data)
            assert pv_solve(again).k1_crossed == pv_solve(inp).k1_crossed

    def test_solution_shape(self):
        sol = pv_solve(bs_input(3))
        data = solution_to_json(sol)
        assert set(data) == {"k0_crossed", "k1_crossed", "seq0", "seq1", "ledger"}
        assert data["k1_crossed"]["torsion"] == [2]
        assert data["seq1"]["split"] is True
        assert data["ledger"]["[a]"]["order"] == "inf"

    def test_schema_errors(self):
        with pytest.raises(ValueError):
            kinput_from_json({"k0": {"kind": "fg", "group": {"free_rank": 1, "torsion": [], "gens": ["1"]}}})
        with pytest.raises(ValueError):
            kinput_from_json([1, 2, 3])


class TestOptimizedMode:
    def test_cross_check_survives_assert_stripping(self):
        # a wrong closed form for the coinvariants must still be caught
        out = run_optimized(
            "import bs_ktheory.pv as pv\n"
            "from bs_ktheory.errors import InvariantViolation\n"
            "pv.coprime_part = lambda c, n: abs(c) + 1\n"
            "try:\n"
            "    pv.pv_solve(pv.bs_input(3))\n"
            "except InvariantViolation as exc:\n"
            "    print(__debug__, 'raised:', exc)\n"
        )
        assert out == "False raised: staged cokernel disagrees with the coprime-part closed form\n"
