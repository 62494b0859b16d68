"""Six-term exact sequence solver for crossed products by Z.

Given K0(A) and K1(A) with tracked generators and the induced automorphism,
the solver forms coinvariants C_i = coker(Id - alpha_*) and invariants
N_i = ker(Id - alpha_*) in each degree and assembles the two short exact
sequences

    0 -> C_0 -> K_0(A x Z) -> N_1 -> 0
    0 -> C_1 -> K_1(A x Z) -> N_0 -> 0

oriented with the coinvariants as the subobject. An extension is resolved
only when that is sound: a free (or trivial) quotient splits because free
modules are projective, and a trivial subobject identifies the middle with
the quotient. Anything else raises UnresolvedExtension rather than guessing.

Boundary convention (an axiom of this solver, not re-derived here): the
index map in degree one sends the class [u] of the implementing unitary to
-[1]. Installing it makes [u] a section generator over the invariants of
degree zero, which is what pins [u]'s infinite order; with the rule
disabled the solver still resolves the groups but leaves [u] undetermined.
"""

from __future__ import annotations

import math
import reprlib
from collections import namedtuple

from .abelian import (
    QUOTIENT_TAG,
    FgAbGroup,
    GroupHom,
    IntMatrix,
    _KernelData,
    _cokernel_ext,
    _kernel_ext,
    _relations_snf,
    _unique_names,
    element_order,
    group_to_json,
    identity_minus,
    is_isomorphic,
    json_fail,
    json_field,
    json_value,
    matrix_from_json,
    solve,
)
from .colimit import (
    AbObject,
    LadderMap,
    LocObject,
    LocalizedInt,
    ab_from_json,
    ab_to_json,
    coprime_part,
    ladder_cokernel,
    ladder_kernel,
)
from .errors import DomainError, InvariantViolation, UnresolvedExtension, _checked_namedtuple
from .ledger import KClass, KClassLedger, ledger_from_json, ledger_to_json

SelfMap = GroupHom | LadderMap


class KInput(_checked_namedtuple("KInput", "k0 k1 alpha0 alpha1 ledger")):
    """K-theory of the coefficient algebra, ready for the solver.

    Ledger entries live in k0, k1 or "unitary"; the ledger must locate the
    unit class "[1]" in k0, and the degree-zero self-map must fix it (the
    automorphism is unital).
    """

    __slots__ = ()

    def __new__(cls, k0: AbObject, k1: AbObject, alpha0: SelfMap, alpha1: SelfMap, ledger: KClassLedger):
        if not isinstance(ledger, KClassLedger):
            raise ValueError("the solver input's ledger must be a KClassLedger")
        acts = {"k0": _check_side(k0, alpha0, "alpha0"), "k1": _check_side(k1, alpha1, "alpha1")}
        for sym, entry in ledger.items():
            if entry.location not in ("k0", "k1", "unitary"):
                raise ValueError(
                    f"ledger entry {reprlib.repr(sym)} is in {entry.location!r}, which only a solution holds"
                )
            if entry.location in acts:
                group = acts[entry.location].source
                if entry.vector is None:
                    raise ValueError(f"ledger entry {reprlib.repr(sym)} needs a coefficient vector")
                if len(entry.vector) != group.gen_count:
                    raise ValueError(f"ledger entry {reprlib.repr(sym)} has the wrong vector length")
                if entry.order is not None and entry.order != (true_order := element_order(group, entry.vector)):
                    raise ValueError(
                        f"ledger entry {reprlib.repr(sym)} annotates order {reprlib.repr(entry.order)}, "
                        f"but the class has order {reprlib.repr(true_order)}"
                    )
        unit = ledger.get("[1]")
        if unit is None or unit.location != "k0":
            raise ValueError('the ledger must locate "[1]" in k0')
        act0 = acts["k0"]
        if element_order(act0.source, unit.vector) != math.inf:
            if isinstance(k0, LocObject):  # on its stage Z, infinite order means nonzero
                raise ValueError('"[1]" must be nonzero')
            raise ValueError('"[1]" must have infinite order (unital algebra)')
        if act0.apply(unit.vector) != act0.source.reduce(unit.vector):
            raise ValueError("alpha0 must fix the unit class")
        return tuple.__new__(cls, (k0, k1, alpha0, alpha1, ledger))


def _check_side(k: AbObject, alpha: SelfMap, label: str) -> GroupHom:
    """Check that ``alpha`` acts on ``k``; return alpha_* on the group that
    ``k``'s ledger vectors are written in: ``alpha``, or on Z[1/n] the rung on its stage Z."""
    if isinstance(k, FgAbGroup):
        if not isinstance(alpha, GroupHom):
            raise ValueError(f"{label} must be a GroupHom for a finitely generated side")
        if alpha.source != k or alpha.target != k:
            raise ValueError(f"{label} must be a self-map of its group")
        return alpha
    if isinstance(k, LocObject):
        if not isinstance(alpha, LadderMap):
            raise ValueError(f"{label} must be a LadderMap for a localized side")
        if alpha.source != alpha.target:
            raise ValueError(f"{label} must be a self-map")
        if alpha.source.stage.gen_count != 1 or alpha.source.stage.free_rank != 1:
            raise ValueError(f"{label} must act on the rank-one stage of the localization")
        if alpha.source.bond.matrix.at(0, 0) != k.loc.n:
            raise ValueError(f"{label} bond must be multiplication by the inverted element")
        if not k.torsion.is_trivial:
            raise ValueError("localized sides with torsion are not supported as solver input")
        return alpha.rung
    raise ValueError(f"unsupported representation for {label}")


class SeqRecord(namedtuple("SeqRecord", "sub middle quotient split section")):
    """One of the two short exact sequences, with how it was resolved."""

    __slots__ = ()

    sub: FgAbGroup
    middle: FgAbGroup
    quotient: FgAbGroup
    split: bool
    section: str


class PvSolution(namedtuple("PvSolution", "k0_crossed k1_crossed ledger_out seq0 seq1")):
    __slots__ = ()

    k0_crossed: FgAbGroup
    k1_crossed: FgAbGroup
    ledger_out: KClassLedger
    seq0: SeqRecord
    seq1: SeqRecord


class _Side(namedtuple("_Side", "coinv proj inv d ker c")):
    """Coinvariants and invariants of Id - alpha_* in one degree, as data.

    ``proj`` holds the rows of the projection onto the coinvariants ``coinv``;
    ``inv`` is the invariants. A finitely generated side keeps ``d`` =
    Id - alpha_* and its kernel data ``ker`` for the unit guard, and has
    ``c`` None. A localized side keeps the multiplier ``c`` = 1 - rung for
    the note on a class it kills, and has ``d`` and ``ker`` None: the unit
    guard never reads them there, since a unital ``alpha0`` on a
    localization has rung 1, which ``_loc_side`` rejects first.
    """

    __slots__ = ()

    coinv: FgAbGroup
    proj: list[list[int]]
    inv: FgAbGroup
    d: GroupHom | None
    ker: _KernelData | None
    c: int | None


def _fg_side(alpha: GroupHom) -> _Side:
    d = GroupHom(alpha.source, alpha.source, identity_minus(alpha.matrix))
    ext = _relations_snf(d, False)  # one Smith form for both; no lifts are read
    coker, ker = _cokernel_ext(d, ext), _kernel_ext(d, ext)
    return _Side(coker.group, coker.proj, ker.group, d, ker, None)


def _push(side: _Side, vec: tuple[int, ...]) -> tuple[int, ...]:
    """The image of ``vec`` in the coinvariants."""
    return side.coinv.reduce([sum(x * y for x, y in zip(row, vec)) for row in side.proj])


def _killed_note(side: _Side) -> str:
    """The note on a class the side's projection kills. A multiplier is
    written once, also past the interpreter's limit on int-to-str
    conversion, which a solve must not fail on."""
    if side.c is None:
        return "killed by the coinvariants projection"
    try:
        digits = str(side.c)
    except ValueError:
        from decimal import Decimal  # converts without that limit
        digits = str(Decimal(side.c))
    return f"order divides {digits.lstrip('-')} (coinvariants of multiplication by {digits})"


def _loc_side(obj: LocObject, alpha: LadderMap, degree: int) -> _Side:
    loc = obj.loc
    r = alpha.rung.matrix.at(0, 0)
    c = 1 - r
    if c == 0:
        raise UnresolvedExtension(
            f"Id - alpha vanishes on {loc.describe()}: coinvariants and "
            "invariants are the whole localization, which is not finitely generated",
            partial={"degree": degree, "group": ab_to_json(obj)},
        )
    cp = coprime_part(c, loc.n)
    if cp > 1:
        coinv, proj = FgAbGroup(0, (cp,), (loc.symbol + QUOTIENT_TAG,)), [[1]]
    else:
        coinv, proj = FgAbGroup.trivial(), []

    # cross-check the closed form against the staged colimit computation
    d_ladder = LadderMap(
        alpha.source,
        alpha.target,
        GroupHom(alpha.source.stage, alpha.target.stage, IntMatrix(1, 1, (c,))),
    )
    ext = _relations_snf(d_ladder.rung)  # one Smith form for both
    staged = ladder_cokernel(d_ladder, ext)
    if not (isinstance(staged, FgAbGroup) and is_isomorphic(staged, coinv)):
        raise InvariantViolation("staged cokernel disagrees with the coprime-part closed form")
    staged_kernel = ladder_kernel(d_ladder, ext)
    if not (isinstance(staged_kernel, FgAbGroup) and staged_kernel.is_trivial):
        raise InvariantViolation("staged kernel of Id - alpha on a localization is not trivial")

    return _Side(coinv, proj, FgAbGroup.trivial(), None, None, c)


def _make_side(k: AbObject, alpha: SelfMap, degree: int) -> _Side:
    if isinstance(k, FgAbGroup):
        return _fg_side(alpha)
    if abs(k.loc.n) == 1:  # Z[1/(+-1)] is Z itself, generated by the symbol
        z = FgAbGroup.free(1, (k.loc.symbol,))
        return _fg_side(GroupHom(z, z, alpha.rung.matrix))
    return _loc_side(k, alpha, degree)


def _assemble(sub: FgAbGroup, quot: FgAbGroup, label: str) -> SeqRecord:
    """The middle of 0 -> sub -> middle -> quot -> 0 where it is sound.

    Its generators are the subobject's free ones, then the quotient's, then
    the subobject's torsion ones, which ``_in_middle`` relies on.
    """
    if quot.is_trivial:
        return SeqRecord(sub, sub, quot, True, "trivial quotient: middle is the subobject")
    if sub.is_trivial:
        return SeqRecord(sub, quot, quot, True, "trivial subobject: middle is the quotient")
    if not quot.torsion:
        rs = sub.free_rank
        names = _unique_names([*sub.gen_names[:rs], *quot.gen_names, *sub.gen_names[rs:]])
        middle = FgAbGroup(rs + quot.free_rank, sub.torsion, names)
        return SeqRecord(sub, middle, quot, True, "free quotient: projective, so the sequence splits")
    raise UnresolvedExtension(
        f"{label}: quotient {quot.describe()} is neither trivial nor free; "
        "refusing to guess the extension",
        partial={"sequence": label, "sub": group_to_json(sub), "quotient": group_to_json(quot)},
    )


def _in_middle(seq: SeqRecord, sub_vec: tuple[int, ...], quot_vec: tuple[int, ...]) -> tuple[int, ...]:
    """The middle vector of a subobject vector plus a lift of a quotient vector."""
    rs = seq.sub.free_rank
    return (*sub_vec[:rs], *quot_vec, *sub_vec[rs:])


def _audit(record: SeqRecord) -> None:
    if record.split and record.middle.free_rank != record.sub.free_rank + record.quotient.free_rank:
        raise InvariantViolation("free rank is not additive over a split sequence")
    if record.sub.free_rank == 0 and record.quotient.free_rank == 0:
        if record.middle.order() != record.sub.order() * record.quotient.order():
            raise InvariantViolation("order is not multiplicative over a finite sequence")


def pv_solve(kinput: KInput, apply_boundary_rule: bool = True) -> PvSolution:
    """Solve the six-term sequence for the crossed product by Z.

    Resolves both short exact sequences, pushes every tracked class of the
    coefficient algebra forward into the crossed-product groups through the
    coinvariants projection, and (with the boundary rule installed) adjoins
    the implementing unitary's class as a section generator in degree one.
    """
    ledger = kinput.ledger
    side0 = _make_side(kinput.k0, kinput.alpha0, 0)
    side1 = _make_side(kinput.k1, kinput.alpha1, 1)

    seq0 = _assemble(side0.coinv, side1.inv, "degree-0 sequence")
    seq1 = _assemble(side1.coinv, side0.inv, "degree-1 sequence")
    _audit(seq0)
    _audit(seq1)

    if apply_boundary_rule:
        # alpha is unital, so [1] is invariant; guarded rather than assumed
        unit = ledger["[1]"].vector
        if any(side0.d.apply(unit)):
            raise InvariantViolation("unital automorphism must fix [1]")
        expressed = solve(side0.ker.inclusion, unit)
        if expressed is None:
            raise InvariantViolation("[1] is invariant but not in the image of the invariants")
        u_vector = _in_middle(seq1, seq1.sub.zero(), tuple(-x for x in expressed))
        quot, names = seq1.quotient, list(seq1.middle.gen_names)
        if quot.free_rank == 1 and not quot.torsion and abs(expressed[0]) == 1 and "u" not in names:
            names[seq1.sub.free_rank] = "u"
            seq1 = seq1._replace(middle=seq1.middle.renamed(names))
        order = element_order(seq1.middle, u_vector)
        unitary = KClass("crossed1", u_vector, order, "section generator over [1]; boundary image is -[1]")
        ledger = ledger.with_entry("[u]", KClass("unitary", None, None))
    else:
        unitary = KClass("crossed1", None, None, "boundary rule disabled: order undetermined")

    out = {}
    crossed = {"k0": (side0, seq0, "crossed0"), "k1": (side1, seq1, "crossed1")}
    for symbol, entry in sorted(ledger.items()):
        if entry.location == "unitary":
            entry = unitary
        else:
            side, seq, location = crossed[entry.location]
            vec = _in_middle(seq, _push(side, entry.vector), seq.quotient.zero())
            note = _killed_note(side) if (not any(vec) and any(entry.vector)) else ""
            entry = KClass(location, vec, element_order(seq.middle, vec), note)
        out[symbol] = entry

    return PvSolution(seq0.middle, seq1.middle, KClassLedger(out), seq0, seq1)


def bs_input(n: int) -> KInput:
    """Solver input for the group algebra of the solvable two-generator
    group with relator a b a^-1 b^-n, seen as a crossed product over the
    compact dual of Z[1/n].

    Degree zero is Z on the unit class with the identity action; degree one
    is Z[1/n] on the distinguished class "v" with the action multiplying
    by n. The ledger tracks [1], [b] (the class v) and [a] (the
    implementing unitary).
    """
    if n in (0, 1):
        raise DomainError("the construction requires n not in {0, 1}")
    k0 = FgAbGroup.free(1, ("1",))
    alpha0 = GroupHom.identity(k0)
    loc = LocalizedInt(n, "v")
    colim = loc.as_colim()
    alpha1 = LadderMap(colim, colim, colim.bond)  # the rung is the bond: multiplication by n
    k1 = LocObject(loc)
    ledger = KClassLedger(
        {
            "[1]": KClass("k0", (1,), math.inf, "unit class"),
            "[b]": KClass("k1", (1,), math.inf, "distinguished class v of the localization"),
            "[a]": KClass("unitary", None, None, "implementing unitary"),
        }
    )
    return KInput(k0, k1, alpha0, alpha1, ledger)


# ---------------------------------------------------------------------------
# JSON forms


def _selfmap_to_json(alpha: SelfMap) -> dict:
    if isinstance(alpha, GroupHom):
        return {"matrix": alpha.matrix.to_rows()}
    return {"rung": alpha.rung.matrix.at(0, 0)}


def _selfmap_from_json(k: AbObject, data, path: str) -> SelfMap:
    json_value(data, dict, path)
    if isinstance(k, FgAbGroup):
        return GroupHom(k, k, matrix_from_json(json_field(data, "matrix", list, path), f"{path}.matrix"))
    rung = data.get("rung")
    if type(rung) is list:  # a 1x1 matrix
        m = matrix_from_json(rung, f"{path}.rung")
        if (m.rows, m.cols) != (1, 1):
            json_fail(f"{path}.rung", "an integer or a 1x1 matrix", rung)
        rung = m.entries[0]
    rung = rung if type(rung) is int else json_field(data, "rung", int, path)
    colim = k.loc.as_colim()
    return LadderMap(colim, colim, GroupHom(colim.stage, colim.stage, IntMatrix(1, 1, (rung,))))


def kinput_to_json(kinput: KInput) -> dict:
    return {
        "k0": ab_to_json(kinput.k0),
        "k1": ab_to_json(kinput.k1),
        "alpha0": _selfmap_to_json(kinput.alpha0),
        "alpha1": _selfmap_to_json(kinput.alpha1),
        "ledger": ledger_to_json(kinput.ledger),
    }


def kinput_from_json(data) -> KInput:
    json_value(data, dict, "the solver input")
    k0, k1, alpha0, alpha1, ledger = (json_field(data, key, dict, "") for key in KInput._fields)
    k0, k1 = ab_from_json(k0, "k0"), ab_from_json(k1, "k1")
    alpha0, alpha1 = _selfmap_from_json(k0, alpha0, "alpha0"), _selfmap_from_json(k1, alpha1, "alpha1")
    return KInput(k0, k1, alpha0, alpha1, ledger_from_json(ledger, "ledger"))


def _seq_to_json(record: SeqRecord) -> dict:
    return {
        "sub": group_to_json(record.sub),
        "middle": group_to_json(record.middle),
        "quotient": group_to_json(record.quotient),
        "split": record.split,
        "section": record.section,
    }


def solution_to_json(sol: PvSolution) -> dict:
    return {
        "k0_crossed": group_to_json(sol.k0_crossed),
        "k1_crossed": group_to_json(sol.k1_crossed),
        "seq0": _seq_to_json(sol.seq0),
        "seq1": _seq_to_json(sol.seq1),
        "ledger": ledger_to_json(sol.ledger_out),
    }
