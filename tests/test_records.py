"""The package's records are immutable named tuples.

Each keeps the class name, fields, defaults, normalization and repr of the
frozen dataclass it replaced. The expected reprs were recorded from those
dataclasses; a nested record's expected repr is assembled from the reprs
of its parts, which are themselves checked. A ledger has no repr of its
own, so its object address is masked. ``RationalAngle`` and
``SolenoidPoint`` are the exceptions: an angle became a reduced int pair
and a point its deepest angle, so their fields and reprs changed.
"""

import math
import re

import pytest

from bs_ktheory.abelian import FgAbGroup, GroupHom, IntMatrix
from bs_ktheory.bc import BcReport, MatchLine
from bs_ktheory.colimit import ColimModule, LadderMap, LocalizedInt, LocObject
from bs_ktheory.ledger import KClass, KClassLedger
from bs_ktheory.presentation import ComplexHomology, Presentation, Word
from bs_ktheory.pv import KInput, PvSolution, SeqRecord
from bs_ktheory.solenoid import NadicRational, RationalAngle, SolenoidPoint

Z_X = "FgAbGroup(free_rank=1, torsion=(), gen_names=('x',))"
TRIVIAL = "FgAbGroup(free_rank=0, torsion=(), gen_names=())"
LEDGER = "<bs_ktheory.ledger.KClassLedger object>"


def _hom(source: str, target: str, matrix: str) -> str:
    return f"GroupHom(source={source}, target={target}, matrix={matrix})"


def _one_by_one(e: int) -> str:
    return f"IntMatrix(rows=1, cols=1, entries=({e},))"


COLIM = f"ColimModule(stage={Z_X}, bond={_hom(Z_X, Z_X, _one_by_one(2))})"
WORD = "Word(letters=((0, 3), (1, -1)))"
SEQ = f"SeqRecord(sub={TRIVIAL}, middle={Z_X}, quotient={Z_X}, split=True, section='trivial subobject')"
LINE = "MatchLine(lhs_symbol='[pt]', rhs_symbol='[1]', order_lhs=inf, order_rhs=inf, matched=True)"
ASSUMPTIONS = (
    "the basepoint class maps to the unit class in degree zero",
    "in degree one the assembly map restricts to g -> [unitary of g] on the abelianization",
)

EXPECTED_REPR = {
    "IntMatrix": "IntMatrix(rows=1, cols=2, entries=(3, 4))",
    "FgAbGroup": "FgAbGroup(free_rank=1, torsion=(2,), gen_names=('g0', 'g1'))",
    "GroupHom": _hom(Z_X, "FgAbGroup(free_rank=0, torsion=(4,), gen_names=('t',))", _one_by_one(2)),
    "LocalizedInt": "LocalizedInt(n=6, symbol='v')",
    "LocObject": f"LocObject(loc=LocalizedInt(n=6, symbol='v'), torsion={TRIVIAL})",
    "ColimModule": COLIM,
    "LadderMap": f"LadderMap(source={COLIM}, target={COLIM}, rung={_hom(Z_X, Z_X, _one_by_one(5))})",
    "KClass": "KClass(location='k1', vector=(1, 2), order=inf, note='')",
    "Word": WORD,
    "Presentation": f"Presentation(generators=('a', 'b'), relator={WORD})",
    "ComplexHomology": (
        f"ComplexHomology(h0=FgAbGroup(free_rank=1, torsion=(), gen_names=('pt',)), h1={Z_X}, "
        f"h2={TRIVIAL}, basepoint_gen='pt', h1_projection={_hom(Z_X, Z_X, _one_by_one(1))})"
    ),
    "KInput": (
        f"KInput(k0={Z_X}, k1={TRIVIAL}, alpha0={_hom(Z_X, Z_X, _one_by_one(1))}, "
        f"alpha1={_hom(TRIVIAL, TRIVIAL, 'IntMatrix(rows=0, cols=0, entries=())')}, ledger={LEDGER})"
    ),
    "SeqRecord": SEQ,
    "PvSolution": f"PvSolution(k0_crossed={Z_X}, k1_crossed={Z_X}, ledger_out={LEDGER}, seq0={SEQ}, seq1={SEQ})",
    "MatchLine": LINE,
    "BcReport": (
        f"BcReport(n=2, lhs_k0={Z_X}, lhs_k1={Z_X}, rhs_k0={Z_X}, rhs_k1={Z_X}, generator_matches=({LINE},), "
        f"verdict=True, trace_image='Z', assumptions={ASSUMPTIONS!r})"
    ),
    "RationalAngle": "RationalAngle(p=1, q=4)",
    "SolenoidPoint": "SolenoidPoint(n=2, depth=1, deepest=RationalAngle(p=1, q=4))",
    "NadicRational": "NadicRational(n=2, m=3, exp=1)",
}

# records that hold a ledger are unhashable, as the ledger itself is
UNHASHABLE = ("KInput", "PvSolution")


def _records() -> dict:
    """One fresh instance of each record, built from unnormalized input where it has any."""
    z = FgAbGroup.free(1, ("x",))
    trivial = FgAbGroup.trivial()
    colim = LocalizedInt(2, "x").as_colim()
    word = Word(((0, 1), (0, 2), (1, -1)))
    seq = SeqRecord(trivial, z, z, True, "trivial subobject")
    line = MatchLine("[pt]", "[1]", math.inf, math.inf, True)
    unit = KClassLedger({"[1]": KClass("k0", (1,), math.inf)})
    return {
        "IntMatrix": IntMatrix(1, 2, (3, 4)),
        "FgAbGroup": FgAbGroup(1, [2]),
        "GroupHom": GroupHom(z, FgAbGroup(0, (4,), ("t",)), IntMatrix(1, 1, (2,))),
        "LocalizedInt": LocalizedInt(6),
        "LocObject": LocObject(LocalizedInt(6)),
        "ColimModule": colim,
        "LadderMap": LadderMap(colim, colim, GroupHom(z, z, IntMatrix(1, 1, (5,)))),
        "KClass": KClass("k1", [1, 2], math.inf),
        "Word": word,
        "Presentation": Presentation(["a", "b"], word),
        "ComplexHomology": ComplexHomology(FgAbGroup.free(1, ("pt",)), z, trivial, "pt", GroupHom.identity(z)),
        "KInput": KInput(z, trivial, GroupHom.identity(z), GroupHom.identity(trivial), unit),
        "SeqRecord": seq,
        "PvSolution": PvSolution(z, z, KClassLedger(), seq, seq),
        "MatchLine": line,
        "BcReport": BcReport(2, z, z, z, z, (line,), True, "Z"),
        "RationalAngle": RationalAngle(5, 4),
        "SolenoidPoint": SolenoidPoint(2, 1, [6, 24]),
        "NadicRational": NadicRational(2, 12, 3),
    }


@pytest.mark.parametrize("name", sorted(EXPECTED_REPR))
class TestEachRecord:
    def test_class_name_and_repr(self, name):
        record = _records()[name]
        assert type(record).__name__ == name
        assert re.sub(r" at 0x[0-9a-f]+", "", repr(record)) == EXPECTED_REPR[name]

    def test_fields_cannot_be_set(self, name):
        record = _records()[name]
        first_field = EXPECTED_REPR[name].split("(", 1)[1].split("=", 1)[0]
        with pytest.raises(AttributeError):
            setattr(record, first_field, getattr(record, first_field))
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_equal_instances_hash_equal(self, name):
        a, b = _records()[name], _records()[name]
        assert a == b and a is not b
        if name in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)


def test_defaults():
    assert LocalizedInt(3).symbol == "v"
    assert LocObject(LocalizedInt(3)).torsion == FgAbGroup.trivial()
    assert KClass("k0", None, None).note == ""
    assert Word().letters == ()
    z = FgAbGroup.free(1)
    assert BcReport(2, z, z, z, z, (), True, "Z").assumptions == ASSUMPTIONS


def test_normalization():
    assert FgAbGroup(1, [2, 4]) == FgAbGroup(1, (2, 4), ("g0", "g1", "g2"))
    assert FgAbGroup(1, [2, 4]).torsion == (2, 4)
    assert type(KClass("k1", [1, 2], math.inf).vector) is tuple
    assert Word(((0, 2), (1, 1), (1, -1), (0, -1))).letters == ((0, 1),)
    assert Presentation(["a"], Word()).generators == ("a",)
    assert RationalAngle(-7, 3) == (2, 3)
    assert NadicRational(3, 18, 4) == NadicRational(3, 2, 2)
    assert NadicRational(-1, 5, 3) == NadicRational(-1, -5, 0)
    assert type(SolenoidPoint(3, 0, [2, 6]).deepest) is RationalAngle


def test_records_are_tuples():
    m = IntMatrix(1, 2, (3, 4))
    rows, cols, entries = m
    assert (len(m), rows, cols, entries) == (3, 1, 2, (3, 4))
    assert m == (1, 2, (3, 4))
    assert MatchLine("a", "[a]", 2, 2, True) == ("a", "[a]", 2, 2, True)
