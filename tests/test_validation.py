"""Each validation branch of the records and the solver input raises its
own message; every case here is reached by no other test."""

import math
import re
from fractions import Fraction

import pytest

from bs_ktheory.abelian import FgAbGroup, GroupHom, IntMatrix, solve
from bs_ktheory.cli import main
from bs_ktheory.colimit import ColimModule, LadderMap, LocalizedInt, LocObject, coprime_part, normalize
from bs_ktheory.ledger import KClass, KClassLedger
from bs_ktheory.presentation import ComplexHomology, Presentation, Word, bs_presentation, presentation_homology
from bs_ktheory.pv import KInput, bs_input, kinput_from_json, kinput_to_json
from bs_ktheory.solenoid import NadicRational, RationalAngle, SolenoidPoint, pairing, random_point

Z = FgAbGroup.free(1, ("x",))
Z2 = FgAbGroup.free(2, ("x", "y"))
TRIVIAL = FgAbGroup.trivial()


def raises(message: str):
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


def ladder(n: int, rung: int) -> LadderMap:
    colim = LocalizedInt(n).as_colim()
    return LadderMap(colim, colim, GroupHom(colim.stage, colim.stage, IntMatrix(1, 1, (rung,))))


class TestCheckSide:
    """The self-map of each degree must have the shape of its group."""

    def kinput(self, k1, alpha1):
        unit = KClassLedger({"[1]": KClass("k0", (1,), math.inf)})
        return KInput(Z, k1, GroupHom.identity(Z), alpha1, unit)

    def test_fg_side_needs_a_group_hom(self):
        with raises("alpha1 must be a GroupHom for a finitely generated side"):
            self.kinput(TRIVIAL, ladder(2, 2))

    def test_fg_side_needs_a_self_map(self):
        with raises("alpha1 must be a self-map of its group"):
            self.kinput(TRIVIAL, GroupHom.identity(Z))

    def test_localized_side_needs_a_ladder(self):
        with raises("alpha1 must be a LadderMap for a localized side"):
            self.kinput(LocObject(LocalizedInt(2)), GroupHom.identity(Z))

    def test_localized_side_needs_a_self_map(self):
        # 2r = 3r only for r = 0, so the zero rung is the one ladder from c2 to c3
        c2, c3 = LocalizedInt(2).as_colim(), LocalizedInt(3).as_colim()
        zero = LadderMap(c2, c3, GroupHom(c2.stage, c3.stage, IntMatrix(1, 1, (0,))))
        with raises("alpha1 must be a self-map"):
            self.kinput(LocObject(LocalizedInt(2)), zero)

    def test_localized_side_needs_a_rank_one_stage(self):
        c = ColimModule(Z2, GroupHom.identity(Z2))
        with raises("alpha1 must act on the rank-one stage of the localization"):
            self.kinput(LocObject(LocalizedInt(2)), LadderMap(c, c, GroupHom.identity(Z2)))

    def test_localized_bond_is_the_inverted_element(self):
        with raises("alpha1 bond must be multiplication by the inverted element"):
            self.kinput(LocObject(LocalizedInt(2)), ladder(3, 1))

    def test_localized_side_without_torsion(self):
        with raises("localized sides with torsion are not supported as solver input"):
            self.kinput(LocObject(LocalizedInt(2), FgAbGroup(0, (3,))), ladder(2, 1))

    def test_unsupported_representation(self):
        with raises("unsupported representation for alpha1"):
            self.kinput(LocalizedInt(2), ladder(2, 1))


class TestKInputUnit:
    def test_unit_of_finite_order(self):
        k0 = FgAbGroup(0, (2,), ("1",))
        ledger = KClassLedger({"[1]": KClass("k0", (1,), None)})
        with raises('"[1]" must have infinite order (unital algebra)'):
            KInput(k0, TRIVIAL, GroupHom.identity(k0), GroupHom.identity(TRIVIAL), ledger)

    def test_localized_unit_is_nonzero(self):
        ledger = KClassLedger({"[1]": KClass("k0", (0,), None)})
        with raises('"[1]" must be nonzero'):
            KInput(LocObject(LocalizedInt(2)), TRIVIAL, ladder(2, 1), GroupHom.identity(TRIVIAL), ledger)

    def test_localized_unit_is_fixed(self):
        ledger = KClassLedger({"[1]": KClass("k0", (1,), None)})
        with raises("alpha0 must fix the unit class"):
            KInput(LocObject(LocalizedInt(2)), TRIVIAL, ladder(2, 3), GroupHom.identity(TRIVIAL), ledger)

    @pytest.mark.parametrize("location", ["crossed0", "crossed1"])
    def test_solution_locations_are_not_input(self, location):
        ledger = KClassLedger({"[1]": KClass("k0", (1,), math.inf), "[x]": KClass(location, (1,), None)})
        with raises(f"ledger entry '[x]' is in {location!r}, which only a solution holds"):
            KInput(Z, TRIVIAL, GroupHom.identity(Z), GroupHom.identity(TRIVIAL), ledger)


class TestLedgerRecords:
    def test_float_class_is_not_solved(self):
        # a float coordinate came out of pv_solve as crossed1 (0,), order 1
        data = kinput_to_json(bs_input(3))
        data["alpha1"] = {"rung": 2}
        ledger = kinput_from_json(data).ledger
        with raises("class coordinates must be Python ints"):
            ledger.with_entry("[x]", KClass("k1", (1.5,), math.inf))

    @pytest.mark.parametrize("x", [1.5, True, Fraction(1), "1"])
    def test_coordinates_are_ints(self, x):
        with raises("class coordinates must be Python ints"):
            KClass("k0", (x, 2), math.inf)

    def test_note_is_a_str(self):
        with raises("a class note must be a str"):
            KClass("k0", (1, 2), math.inf, note=None)

    @pytest.mark.parametrize("order", [1.5, True, "inf", 0, -2, Fraction(2)], ids=repr)
    def test_order_is_none_inf_or_a_positive_int(self, order):
        # 1.5 was written to JSON as 1, and True passed KInput's check as order 1
        with raises("a class order is None, math.inf or a Python int >= 1"):
            KClass("k0", (1,), order)

    @pytest.mark.parametrize("order", [None, math.inf, 3])
    def test_order_accepted(self, order):
        assert KClass("k0", (1,), order).order == order

    def test_ledger_values_are_classes(self):
        # KInput read the int's .location
        with raises("a ledger maps str symbols to KClass entries"):
            KClassLedger({**bs_input(2).ledger, "[x]": 5})

    def test_ledger_keys_are_strs(self):
        with raises("a ledger maps str symbols to KClass entries"):
            KClassLedger({1: KClass("k0", (1,), math.inf)})

    def test_solver_ledger_is_a_ledger(self):
        # a dict was accepted, and pv_solve then called its missing with_entry
        inp = bs_input(2)
        with raises("the solver input's ledger must be a KClassLedger"):
            KInput(inp.k0, inp.k1, inp.alpha0, inp.alpha1, dict(inp.ledger))


class TestAbelianRecords:
    def test_from_rows_checks_cols(self):
        with raises("row length does not match the column count"):
            IntMatrix.from_rows([[1, 2]], cols=3)

    @pytest.mark.parametrize("rows, cols", [(-1, 0), (0, -1)])
    def test_negative_dimensions(self, rows, cols):
        with raises("matrix dimensions must be nonnegative"):
            IntMatrix(rows, cols, ())

    def test_entry_count(self):
        with raises("entry count does not match dimensions"):
            IntMatrix(2, 2, (1, 2, 3))

    def test_negative_free_rank(self):
        with raises("free rank must be nonnegative"):
            FgAbGroup(-1)

    def test_duplicate_names(self):
        with raises("generator names must be unique"):
            FgAbGroup(1, (2,), ("a", "a"))

    def test_reduce_length(self):
        with raises("vector length does not match generator count"):
            Z2.reduce((1,))

    def test_apply_length(self):
        with raises("vector length does not match column count"):
            IntMatrix(1, 2, (1, 2)).apply((1, 2, 3))

    def test_solve_length(self):
        with raises("vector length does not match target generator count"):
            solve(GroupHom.identity(Z), (1, 0))


class TestColimitRecords:
    @pytest.mark.parametrize("n, symbol", [(2.0, "v"), (True, "v"), (Fraction(2), "v"), ("2", "v"), (2, 5)])
    def test_localization_takes_an_int_and_a_str(self, n, symbol):
        # 2.0 == 2 would otherwise pass the solver's bond check, then fail in math.gcd
        with raises("a localization takes a Python int n and a str symbol"):
            LocalizedInt(n, symbol)

    def test_localized_colimit_needs_a_str_generator_name(self):
        # the free generator's name becomes the localization's symbol
        stage = FgAbGroup.free(1, (0,))
        with raises("a localization takes a Python int n and a str symbol"):
            normalize(ColimModule(stage, GroupHom(stage, stage, IntMatrix(1, 1, (2,)))))

    def test_coprime_part_of_zero(self):
        with raises("coprime_part of 0 is undefined"):
            coprime_part(0, 6)

    def test_coprime_part_on_z_localized_at_zero(self):
        with raises("cannot invert 0"):
            coprime_part(6, 0)

    def test_loc_object_takes_a_localization(self):
        # KInput read the int's .n
        with raises("a localized object takes a LocalizedInt and an FgAbGroup torsion part"):
            LocObject(3)

    def test_loc_object_torsion_is_a_group(self):
        with raises("a localized object takes a LocalizedInt and an FgAbGroup torsion part"):
            LocObject(LocalizedInt(3), "x")

    def test_loc_object_torsion_is_finite(self):
        with raises("the torsion part must be a finite group"):
            LocObject(LocalizedInt(2), FgAbGroup(1))

    def test_colim_bond_is_a_self_map(self):
        with raises("the bond must be a self-map of the stage"):
            ColimModule(Z, GroupHom(Z, Z2, IntMatrix(2, 1, (1, 0))))

    def test_ladder_endpoints(self):
        c = LocalizedInt(2).as_colim()
        with raises("rung endpoints must match the stage groups"):
            LadderMap(c, c, GroupHom.identity(Z2))


class TestPresentationRecords:
    def test_duplicate_generators(self):
        with raises("generator names must be distinct"):
            Presentation(("a", "a"), Word())

    def test_out_of_range_index(self):
        with raises("relator uses an out-of-range generator index"):
            Presentation(("a",), Word(((1, 1),)))

    def test_h0_is_z(self):
        with raises("h0 of a connected complex must be Z"):
            ComplexHomology(Z2, Z, TRIVIAL, "pt", GroupHom.identity(Z))

    def test_h2_is_z_or_zero(self):
        with raises("h2 of a one-relator complex is Z or 0"):
            ComplexHomology(Z, Z, Z2, "pt", GroupHom.identity(Z))


class TestSolenoidRecords:
    def test_base_zero(self):
        with raises("the inverted base must be nonzero"):
            NadicRational(0, 1, 0)

    def test_negative_exponent(self):
        with raises("the exponent must be nonnegative"):
            NadicRational(2, 1, -1)

    def test_addition_over_different_bases(self):
        with raises("cannot add over different bases"):
            NadicRational(2, 1, 1) + NadicRational(3, 1, 1)

    def test_pairing_over_different_bases(self):
        with raises("point and element live over different bases"):
            pairing(random_point(2, 3, seed=1), NadicRational(3, 1, 1))

    @pytest.mark.parametrize("bad", [2.0, True, Fraction(2), "2"], ids=repr)
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda v: RationalAngle(v, 3), "an angle takes Python ints p and q"),
            (lambda v: RationalAngle(1, v), "an angle takes Python ints p and q"),
            (lambda v: SolenoidPoint(v, 1, (1, 2)), "a solenoid point takes Python ints n and depth"),
            (lambda v: SolenoidPoint(2, v, (1, 2)), "a solenoid point takes Python ints n and depth"),
            (lambda v: SolenoidPoint(2, 1, (1, v)), "an angle takes Python ints p and q"),
            (lambda v: random_point(2, v, seed=1), "a solenoid point takes Python ints n and depth"),
            (lambda v: NadicRational(v, 4, 1), "an n-adic rational takes Python ints n, m and exp"),
            (lambda v: NadicRational(2, v, 1), "an n-adic rational takes Python ints n, m and exp"),
            (lambda v: NadicRational(2, 4, v), "an n-adic rational takes Python ints n, m and exp"),
        ],
        ids=["angle.p", "angle.q", "point.n", "point.depth", "point.deepest", "random_point.depth", "nadic.n", "nadic.m", "nadic.exp"],
    )
    def test_fields_are_python_ints(self, build, message, bad):
        with raises(message):
            build(bad)


# one validated record of each kind, a field, and a value its constructor rejects
REPLACEMENTS = [
    (IntMatrix(1, 1, (1,)), "entries", (1.5,)),
    (FgAbGroup(0, (2,), ("x",)), "torsion", (3, 2)),
    (GroupHom.identity(Z), "matrix", IntMatrix(1, 2, (1, 0))),
    (LocalizedInt(2), "n", 0),
    (LocObject(LocalizedInt(2)), "torsion", Z),
    (LocalizedInt(2).as_colim(), "bond", GroupHom.identity(Z2)),
    (ladder(2, 3), "rung", GroupHom.identity(Z2)),
    (KClass("k0", (1,), math.inf), "location", "k2"),
    (Word(((0, 1),)), "letters", ((0, 1.5),)),
    (Presentation(("a",), Word(((0, 1),))), "relator", Word(((1, 1),))),
    (presentation_homology(bs_presentation(2)), "h0", Z2),
    (bs_input(2), "ledger", KClassLedger({})),
    (RationalAngle(1, 2), "q", 0),
    (SolenoidPoint(2, 3, (1, 2)), "depth", -1),
    (NadicRational(2, 1, 0), "exp", -1),
]


@pytest.mark.parametrize("record, field, bad", REPLACEMENTS, ids=[type(r).__name__ for r, _, _ in REPLACEMENTS])
def test_replace_revalidates(record, field, bad):
    # _replace goes through the constructor, so it raises the constructor's error
    with pytest.raises(ValueError) as built:
        type(record)(**{**record._asdict(), field: bad})
    with raises(str(built.value)):
        record._replace(**{field: bad})


def test_pair_negative_depth_exits_2(capsys):
    code = main(["pair", "--n", "2", "--depth", "-1", "--trials", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: depth and trials must be nonnegative\n"
