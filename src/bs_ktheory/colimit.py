"""Directed colimits of a finitely generated abelian group along a self-map.

A ``ColimModule`` presents the colimit of G -> G -> G -> ... with one fixed
bonding self-map. This is the mechanism that houses Z[1/n], the colimit of
Z along multiplication by n, and the module computes kernels and cokernels
of ladder maps between such colimits (maps given stage-wise by one strictly
commuting rung).

Normalization classifies a colimit as either a plain finitely generated
group or as Z[1/n] plus finite torsion. Shapes outside that union (for
instance a colimit whose free part localizes at two different elements)
are rejected with ``UnsupportedColimitShape`` rather than approximated.
"""

from __future__ import annotations

import math

from .abelian import (
    FgAbGroup,
    GroupHom,
    IntMatrix,
    SnfDecomposition,
    _CokernelData,
    _KernelData,
    _cokernel_ext,
    _from_cols,
    _kernel_ext,
    _product,
    _snf_ext,
    group_from_json,
    group_to_json,
    json_fail,
    json_field,
    json_value,
    solve,
)
from .errors import InvariantViolation, StabilizationOverflow, UnsupportedColimitShape, _checked_namedtuple


class LocalizedInt(_checked_namedtuple("LocalizedInt", "n symbol")):
    """Z[1/n]: the colimit of Z along multiplication by n.

    ``symbol`` names the distinguished element, the image of 1 from stage
    zero. For |n| = 1 the localization degenerates to Z itself.
    """

    __slots__ = ()

    def __new__(cls, n: int, symbol: str = "v"):
        if type(n) is not int or type(symbol) is not str:
            raise ValueError("a localization takes a Python int n and a str symbol")
        if n == 0:
            raise ValueError("cannot invert 0")
        return tuple.__new__(cls, (n, symbol))

    def as_colim(self) -> "ColimModule":
        stage = FgAbGroup.free(1, (self.symbol,))
        bond = GroupHom(stage, stage, IntMatrix(1, 1, (self.n,)))
        return ColimModule(stage, bond)

    def describe(self) -> str:
        return f"Z[1/{self.n}]"

    def __str__(self) -> str:
        return self.describe()


def coprime_part(c: int, n: int) -> int:
    """Largest divisor of |c| coprime to n.

    This is the order of the cokernel of multiplication by c on Z[1/n]:
    every factor of c supported on the primes of n is invertible there.
    """
    if c == 0:
        raise ValueError("coprime_part of 0 is undefined")
    if n == 0:
        raise ValueError("cannot invert 0")
    m = abs(c)
    g = math.gcd(m, n)
    while g > 1:
        m //= g
        # every prime of n that still divides m divides g, so g * g keeps it
        # and the passes grow with log2 of c's valuation, not with it
        g = math.gcd(m, g * g)
    return m


class LocObject(_checked_namedtuple("LocObject", "loc torsion")):
    """A normalized colimit of the shape Z[1/n] + finite torsion; the
    torsion defaults to the trivial group."""

    __slots__ = ()

    def __new__(cls, loc: LocalizedInt, torsion: FgAbGroup | None = None):
        if torsion is None:
            torsion = FgAbGroup.trivial()
        if type(loc) is not LocalizedInt or not isinstance(torsion, FgAbGroup):
            raise ValueError("a localized object takes a LocalizedInt and an FgAbGroup torsion part")
        if torsion.free_rank != 0:
            raise ValueError("the torsion part must be a finite group")
        return tuple.__new__(cls, (loc, torsion))


AbObject = FgAbGroup | LocObject


class ColimModule(_checked_namedtuple("ColimModule", "stage bond")):
    """The colimit of stage -> stage -> ... along the bonding self-map."""

    __slots__ = ()

    def __new__(cls, stage: FgAbGroup, bond: GroupHom):
        if bond.source != stage or bond.target != stage:
            raise ValueError("the bond must be a self-map of the stage")
        return tuple.__new__(cls, (stage, bond))


class LadderMap(_checked_namedtuple("LadderMap", "source target rung")):
    """A map of colimits given stage-wise by one rung.

    Strict commutation rung o source.bond = target.bond o rung is required
    as an exact matrix identity; eventual commutation is out of scope.
    """

    __slots__ = ()

    def __new__(cls, source: ColimModule, target: ColimModule, rung: GroupHom):
        if rung.source != source.stage or rung.target != target.stage:
            raise ValueError("rung endpoints must match the stage groups")
        r, s, t = rung.matrix, source.bond.matrix, target.bond.matrix
        if r.rows == r.cols == 1:  # r s = t r exactly when r (s - t) = 0: no product needed
            commutes = r.entries[0] == 0 or s == t
        else:
            commutes = _product(r, s) == _product(t, r)
        if not commutes:
            raise ValueError("rung does not commute with the bonds")
        return tuple.__new__(cls, (source, target, rung))


def _stabilization_bound(g: FgAbGroup) -> int:
    """Steps after which ker(f^k) stops growing, for any self-map f of g.

    f injects each quotient ker(f^(k+1))/ker(f^k) into the one before, so at
    most free_rank of them are infinite; past those, f^k embeds the rest of
    the chain in the torsion, so the finite steps multiply to at most its order.
    """
    return g.free_rank + math.prod(g.torsion).bit_length() + 2


def _stable_kernel(c: ColimModule) -> _KernelData:
    """ker(bond^(s+1)) for the first s in 1, 2, 4, ... with ker(bond^(s+1)) = ker(bond^s).

    Once the chain has stopped every later kernel is the same subgroup, the
    stable kernel, so the least such s is not needed: it is reached within
    log2(bound) + 1 probes, each squaring the last power.
    """
    if c.stage.gen_count == 1 and c.stage.torsion and math.gcd(c.bond.matrix.entries[0], c.stage.torsion[0]) == 1:
        return _KernelData(FgAbGroup.trivial(), c.stage, [])  # b is injective on Z/d when gcd(b, d) = 1
    bound = _stabilization_bound(c.stage)
    prev, s = c.bond.matrix, 1
    while True:
        k = _kernel_ext(GroupHom(c.stage, c.stage, c.bond.matrix @ prev))
        if not any(any(c.stage.reduce(prev.apply(g))) for g in k.gens):
            return k
        if s >= bound:
            raise StabilizationOverflow(f"kernel chain of the bond did not stabilize within {bound} steps")
        prev, s = prev @ prev, 2 * s
        if c.stage.gen_count == 1 and c.stage.torsion:  # on Z/d the kernel of p depends on p mod d only
            prev = IntMatrix(1, 1, (prev.entries[0] % c.stage.torsion[0],))


def _induced_on_quotient(b: GroupHom, data: _CokernelData) -> list[list[int]]:
    """Rows of the map b induces on the quotient: projection . b . lifts."""
    images = [b.matrix.apply(lift) for lift in data.lifts]
    return [[sum(x * y for x, y in zip(row, image)) for image in images] for row in data.proj]


def _induced_on_subgroup(b: GroupHom, sub: _KernelData) -> GroupHom:
    inc = sub.inclusion
    cols = []
    for g in sub.gens:
        x = solve(inc, b.apply(g))
        if x is None:
            raise InvariantViolation("subgroup is not invariant under the map")
        cols.append(x)
    return GroupHom(sub.group, sub.group, _from_cols(cols, sub.group.gen_count))


def normalize(c: ColimModule) -> AbObject:
    """Classify the colimit as a finitely generated group or Z[1/n] + torsion.

    The eventually-killed part ker(bond^N) is quotiented away first; the
    induced bond is then injective, hence an automorphism of the torsion
    subgroup, and the free quotient decides the answer: an invertible bond
    leaves the group itself, a rank-one bond gives a localization, anything
    of higher rank that is not invertible is rejected.
    """
    k_inf = _stable_kernel(c)
    if k_inf.group.is_trivial:
        quotient, bond = c.stage, c.bond.matrix.to_rows()
    else:
        data = _cokernel_ext(k_inf.inclusion)
        quotient, bond = data.group, _induced_on_quotient(c.bond, data)

    r = quotient.free_rank
    if r == 0:
        return quotient

    # the bond is invertible over Z exactly when its Smith form is all units
    free_block = [row[:r] for row in bond[:r]]
    if _snf_ext(IntMatrix.from_rows(free_block), False).diag.count(1) == r:
        return quotient

    torsion_part = FgAbGroup(0, quotient.torsion, quotient.gen_names[r:])
    if r == 1:
        return LocObject(LocalizedInt(free_block[0][0], quotient.gen_names[0]), torsion_part)

    raise UnsupportedColimitShape(
        "free rank >= 2 with a non-invertible bond: the colimit is a sum of "
        "localizations, which this representation does not express"
    )


def ladder_kernel(m: LadderMap, ext: SnfDecomposition | None = None) -> AbObject:
    """Kernel of the colimit map, computed stage-wise and normalized.

    Filtered colimits are exact, so the kernel colimit is the colimit of the
    stage kernels with the restricted bond; ``ext`` is the rung's ``_relations_snf``.
    """
    k = _kernel_ext(m.rung, ext)
    if k.group.is_trivial:
        return k.group
    return normalize(ColimModule(k.group, _induced_on_subgroup(m.source.bond, k)))


def ladder_cokernel(m: LadderMap, ext: SnfDecomposition | None = None) -> AbObject:
    """Cokernel of the colimit map, computed stage-wise and normalized.

    For a rung of multiplication by c on Z[1/n] this realizes the closed
    form Z/c' with c' = coprime_part(c, n): the staged quotient Z/|c| with
    the bond acting as multiplication by n collapses the n-primary part. ``ext`` is as in ``ladder_kernel``.
    """
    data = _cokernel_ext(m.rung, ext)
    q = data.group
    if q.is_trivial:
        return q
    induced = IntMatrix.from_rows(_induced_on_quotient(m.target.bond, data), cols=q.gen_count)
    return normalize(ColimModule(q, GroupHom(q, q, induced)))


# ---------------------------------------------------------------------------
# JSON forms


def ab_to_json(obj: AbObject) -> dict:
    if isinstance(obj, FgAbGroup):
        return {"kind": "fg", "group": group_to_json(obj)}
    return {
        "kind": "loc",
        "inverted": obj.loc.n,
        "symbol": obj.loc.symbol,
        "torsion": group_to_json(obj.torsion),
    }


def ab_from_json(data, path: str) -> AbObject:
    kind = json_field(json_value(data, dict, path), "kind", str, path)
    if kind == "fg":
        return group_from_json(json_field(data, "group", dict, path), f"{path}.group")
    if kind != "loc":
        json_fail(f"{path}.kind", "'fg' or 'loc'", kind)
    torsion = group_from_json(json_field(data, "torsion", dict, path, {"free_rank": 0}), f"{path}.torsion")
    loc = LocalizedInt(json_field(data, "inverted", int, path), json_field(data, "symbol", str, path, "v"))
    return LocObject(loc, torsion)
