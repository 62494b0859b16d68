import math
import random
import sys

import pytest

from bs_ktheory.abelian import FgAbGroup, GroupHom, IntMatrix, is_isomorphic
from bs_ktheory.colimit import LadderMap, LocObject
from bs_ktheory.errors import DomainError, UnresolvedExtension
from bs_ktheory.ledger import KClass, KClassLedger
from bs_ktheory.pv import (
    KInput,
    boundary_rule,
    bs_input,
    kinput_from_json,
    kinput_to_json,
    pv_solve,
    solution_to_json,
)
from helpers import run_optimized
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

    def test_boundary_rule_records_the_convention(self):
        ledger = boundary_rule(trivial_action_input().ledger)
        assert ledger["[u]"].location == "unitary"
        assert "-[1]" in ledger["[u]"].note


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
