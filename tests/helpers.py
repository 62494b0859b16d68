"""Shared oracles and random generators for the test suite.

The oracles here are deliberately independent of the library's own
algorithms: minors-gcd invariant factors for Smith form, brute-force
element chasing on finite stages for colimits, and a letter-by-letter
proper-power detector for relators. The exceptions are references kept
to check the library against: ``reference_snf_ext``, the earlier
index-loop Smith form with floor quotients and global re-pivoting, whose
diagonal the library must match; and, entry for entry, the earlier
record-based kernel, cokernel, ``solve`` and stable kernel, which built an
``IntMatrix`` for every intermediate step, and the earlier six-term
solver, which kept each side and each extension as closures.
"""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
from collections import Counter, namedtuple
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple, Sequence

from bs_ktheory.abelian import (
    QUOTIENT_TAG,
    FgAbGroup,
    GroupHom,
    IntMatrix,
    _cokernel_ext,
    _dominant_names,
    _kernel_ext,
    _snf_ext,
    _split_diag,
    _unique_names,
    element_order,
    group_to_json,
    identity_minus,
    is_isomorphic,
    solve,
)
from bs_ktheory.colimit import (
    AbObject,
    ColimModule,
    LadderMap,
    LocObject,
    _stabilization_bound,
    ab_to_json,
    coprime_part,
    ladder_cokernel,
    ladder_kernel,
)
from bs_ktheory.errors import InvariantViolation, StabilizationOverflow, UnresolvedExtension
from bs_ktheory.ledger import KClass, KClassLedger
from bs_ktheory.pv import KInput, PvSolution, SelfMap, SeqRecord, _audit, _digits, boundary_rule
from bs_ktheory.presentation import Word

SRC = Path(__file__).resolve().parents[1] / "src"


def run_optimized(script: str) -> str:
    """Run ``script`` in a ``python -O`` process, which strips ``assert``; return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


# ---------------------------------------------------------------------------
# finite-group element arithmetic (free rank 0 throughout)


def finite_elements(g: FgAbGroup) -> list[tuple[int, ...]]:
    assert g.free_rank == 0
    return [tuple(x) for x in itertools.product(*[range(d) for d in g.torsion])]


def add(g: FgAbGroup, x, y):
    return tuple((a + b) % d for a, b, d in zip(x, y, g.torsion))


def order_in(g: FgAbGroup, x) -> int:
    k = 1
    for d, c in zip(g.torsion, x):
        c %= d
        if c:
            k = math.lcm(k, d // math.gcd(d, c))
    return k


def group_order_multiset(g: FgAbGroup) -> Counter:
    """Element-order multiset of a finite group, straight from the torsion."""
    return Counter(order_in(g, x) for x in finite_elements(g))


def subgroup_span(g: FgAbGroup, gens) -> set:
    span = {tuple(0 for _ in g.torsion)}
    frontier = list(span)
    while frontier:
        x = frontier.pop()
        for v in gens:
            y = add(g, x, tuple(v))
            if y not in span:
                span.add(y)
                frontier.append(y)
    return span


# ---------------------------------------------------------------------------
# brute-force colimit oracle: unroll stages and chase elements


UNROLL = 12


def colim_oracle_on_subset(g: FgAbGroup, elems, apply_bond) -> Counter:
    """Order multiset of colim(S, bond) for a bond-invariant subset S.

    After UNROLL applications every eventually-equal pair has merged, so
    the image set with the ambient arithmetic is the colimit group.
    """
    cur = set(elems)
    for _ in range(UNROLL):
        cur = {apply_bond(x) for x in cur}
    return Counter(order_in(g, x) for x in cur)


def colim_oracle(stage: FgAbGroup, bond: GroupHom) -> Counter:
    return colim_oracle_on_subset(stage, finite_elements(stage), bond.apply)


class QuotientOracle:
    """stage / span(images) as concrete cosets, for the cokernel oracle."""

    def __init__(self, stage: FgAbGroup, image_gens):
        self.stage = stage
        image = subgroup_span(stage, image_gens)
        self.rep = {}
        for x in sorted(finite_elements(stage)):
            if x in self.rep:
                continue
            coset = sorted(add(stage, x, s) for s in image)
            canon = coset[0]
            for y in coset:
                self.rep[y] = canon

    def elements(self):
        return sorted(set(self.rep.values()))

    def reduce(self, x):
        return self.rep[tuple(c % d for c, d in zip(x, self.stage.torsion))]

    def add(self, x, y):
        return self.reduce(add(self.stage, x, y))

    def order(self, x) -> int:
        zero = self.reduce(tuple(0 for _ in self.stage.torsion))
        k = 1
        acc = self.reduce(x)
        while acc != zero:
            acc = self.add(acc, x)
            k += 1
        return k


def ladder_kernel_oracle(stage: FgAbGroup, bond: GroupHom, rung: GroupHom) -> Counter:
    kernel_set = [x for x in finite_elements(stage) if not any(rung.apply(x))]
    for x in kernel_set:
        assert not any(rung.apply(bond.apply(x))), "kernel must be bond-invariant"
    return colim_oracle_on_subset(stage, kernel_set, bond.apply)


def ladder_cokernel_oracle(stage: FgAbGroup, bond: GroupHom, rung: GroupHom) -> Counter:
    image_gens = [rung.apply(x) for x in finite_elements(stage)]
    quo = QuotientOracle(stage, image_gens)
    cur = set(quo.elements())
    for _ in range(UNROLL):
        cur = {quo.reduce(bond.apply(x)) for x in cur}
    return Counter(quo.order(x) for x in cur)


# ---------------------------------------------------------------------------
# the gcd-of-minors oracle for Smith normal form


def minors_invariant_factors(m: IntMatrix) -> list[int]:
    r = min(m.rows, m.cols)
    out = []
    prev = 1
    for k in range(1, r + 1):
        g = 0
        for rows_sel in itertools.combinations(range(m.rows), k):
            for cols_sel in itertools.combinations(range(m.cols), k):
                sub = IntMatrix.from_rows(
                    [[m.at(i, j) for j in cols_sel] for i in rows_sel], cols=k
                )
                g = math.gcd(g, sub.det())
        if g == 0:
            out.extend([0] * (r - len(out)))
            break
        out.append(g // prev)
        prev = g
    return out


# ---------------------------------------------------------------------------
# the index-loop Smith normal form: the library's row-update version must
# produce the same diagonal and the same four transforms


class _SnfExt(NamedTuple):
    s: IntMatrix
    u: IntMatrix
    v: IntMatrix
    u_inv: IntMatrix
    v_inv: IntMatrix


def reference_snf_ext(a: IntMatrix) -> _SnfExt:
    """Smith normal form with the inverse transforms tracked alongside.

    Pivot rule: the nonzero entry of least absolute value, ties broken by
    lowest (row, col). This makes the output deterministic.
    """
    r, c = a.rows, a.cols
    m = a.to_rows()
    u = IntMatrix.identity(r).to_rows()
    ui = IntMatrix.identity(r).to_rows()
    v = IntMatrix.identity(c).to_rows()
    vi = IntMatrix.identity(c).to_rows()

    def row_add(i: int, j: int, q: int) -> None:
        # row_i += q * row_j; inverse transform adjusts column j of u_inv
        m[i] = [x + q * y for x, y in zip(m[i], m[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]
        for k in range(r):
            ui[k][j] -= q * ui[k][i]

    def swap_rows(i: int, j: int) -> None:
        if i == j:
            return
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]
        for k in range(r):
            ui[k][i], ui[k][j] = ui[k][j], ui[k][i]

    def negate_row(i: int) -> None:
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]
        for k in range(r):
            ui[k][i] = -ui[k][i]

    def col_add(j: int, i: int, q: int) -> None:
        # col_j += q * col_i; inverse transform adjusts row i of v_inv
        for k in range(r):
            m[k][j] += q * m[k][i]
        for k in range(c):
            v[k][j] += q * v[k][i]
        vi[i] = [x - q * y for x, y in zip(vi[i], vi[j])]

    def swap_cols(i: int, j: int) -> None:
        if i == j:
            return
        for k in range(r):
            m[k][i], m[k][j] = m[k][j], m[k][i]
        for k in range(c):
            v[k][i], v[k][j] = v[k][j], v[k][i]
        vi[i], vi[j] = vi[j], vi[i]

    def find_pivot(t: int) -> tuple[int, int] | None:
        best: tuple[int, int] | None = None
        best_abs = 0
        for i in range(t, r):
            for j in range(t, c):
                e = m[i][j]
                if e != 0 and (best is None or abs(e) < best_abs):
                    best = (i, j)
                    best_abs = abs(e)
        return best

    t = 0
    limit = min(r, c)
    while t < limit:
        pivot = find_pivot(t)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])

        # clear column t; leftover remainders force a re-pivot
        col_clean = True
        for i in range(t + 1, r):
            if m[i][t] != 0:
                q = m[i][t] // m[t][t]
                if q:
                    row_add(i, t, -q)
                if m[i][t] != 0:
                    col_clean = False
        if not col_clean:
            continue

        row_clean = True
        for j in range(t + 1, c):
            if m[t][j] != 0:
                q = m[t][j] // m[t][t]
                if q:
                    col_add(j, t, -q)
                if m[t][j] != 0:
                    row_clean = False
        if not row_clean:
            continue

        # enforce the divisibility chain: the pivot must divide the rest
        p = m[t][t]
        offender = None
        for i in range(t + 1, r):
            for j in range(t + 1, c):
                if m[i][j] % p != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_add(t, offender, 1)
            continue

        if m[t][t] < 0:
            negate_row(t)
        t += 1

    s = IntMatrix.from_rows(m, cols=c)
    return _SnfExt(
        s,
        IntMatrix.from_rows(u, cols=r),
        IntMatrix.from_rows(v, cols=c),
        IntMatrix.from_rows(ui, cols=r),
        IntMatrix.from_rows(vi, cols=c),
    )


# ---------------------------------------------------------------------------
# the record-based kernel, cokernel, solve and stable kernel: the library's
# row-list versions must give the same groups, names, matrices and solutions.
# Copied from the library as it was, with FgAbGroup.relation_matrix as a
# function and the reference kernel in place of the library's.


def hstack(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.rows != b.rows:
        raise ValueError("row count mismatch in hstack")
    rows = [list(a.row(i)) + list(b.row(i)) for i in range(a.rows)]
    return IntMatrix.from_rows(rows, cols=a.cols + b.cols)


def relation_matrix(self: FgAbGroup) -> IntMatrix:
    """Columns spanning the relation lattice: d_j e_j per torsion gen."""
    n = self.gen_count
    cols = len(self.torsion)
    entries = [0] * (n * cols)
    for j, d in enumerate(self.torsion):
        entries[(self.free_rank + j) * cols + j] = d
    return IntMatrix(n, cols, tuple(entries))


class _CokernelData(NamedTuple):
    group: FgAbGroup
    projection: GroupHom
    section: IntMatrix  # target gens x quotient gens; lifts quotient generators


def _normal_form_of_quotient(
    ambient_count: int,
    relation_cols: IntMatrix,
    base_names: Sequence[str],
    tag: str,
) -> tuple[FgAbGroup, IntMatrix, IntMatrix]:
    """Normal form of Z^ambient_count / column span of ``relation_cols``.

    Returns (group, projection matrix, section matrix). The projection has
    one row per surviving generator; the section is its right inverse up to
    the dropped unit summands.
    """
    ext = _snf_ext(relation_cols, ("u_rows", "vt", "uit"))
    free_idx, tors_idx = _split_diag(ext.diag, ambient_count)
    kept = [*free_idx, *tors_idx]

    torsion = tuple(ext.diag[i] for i in tors_idx)
    proj_rows = [list(ext.u.row(i)) for i in kept]
    proj = IntMatrix.from_rows(proj_rows, cols=ambient_count)
    section_cols = [[ext.u_inv.at(i, j) for j in kept] for i in range(ambient_count)]
    section = IntMatrix.from_rows(section_cols, cols=len(kept))

    names = _dominant_names(proj_rows, base_names, tag)
    group = FgAbGroup(len(free_idx), torsion, names)
    return group, proj, section


def reference_cokernel_ext(h: GroupHom) -> _CokernelData:
    relations = hstack(h.matrix, relation_matrix(h.target))
    group, proj, section = _normal_form_of_quotient(
        h.target.gen_count, relations, h.target.gen_names, QUOTIENT_TAG
    )
    projection = GroupHom(h.target, group, proj)
    return _CokernelData(group, projection, section)


def reference_integer_kernel_basis(a: IntMatrix) -> list[tuple[int, ...]]:
    """A lattice basis of {x : a x = 0} over the integers."""
    ext = _snf_ext(a, ("u_rows", "vt", "uit"))
    free_idx, _ = _split_diag(ext.diag, a.cols)
    return [ext.v.col(j) for j in free_idx]


class _KernelData(NamedTuple):
    group: FgAbGroup
    inclusion: GroupHom


def reference_kernel_ext(h: GroupHom) -> _KernelData:
    n = h.source.gen_count
    # preimage lattice of the target relation lattice
    a = hstack(h.matrix, relation_matrix(h.target))
    generators = [vec[:n] for vec in reference_integer_kernel_basis(a)]
    b = IntMatrix.from_rows([[g[i] for g in generators] for i in range(n)], cols=len(generators))

    # relations among those generators, modulo the source relation lattice
    rel = hstack(b, relation_matrix(h.source))
    rel_gens = [vec[: b.cols] for vec in reference_integer_kernel_basis(rel)]
    rel_mat = IntMatrix.from_rows([[g[i] for g in rel_gens] for i in range(b.cols)], cols=len(rel_gens))

    ext = _snf_ext(rel_mat, ("u_rows", "vt", "uit"))
    free_idx, tors_idx = _split_diag(ext.diag, b.cols)
    kept = [*free_idx, *tors_idx]

    inc_full = b @ ext.u_inv
    inc_cols = [[inc_full.at(i, j) for j in kept] for i in range(n)]
    inclusion_matrix = IntMatrix.from_rows(inc_cols, cols=len(kept))

    torsion = tuple(ext.diag[i] for i in tors_idx)
    col_vectors = [inclusion_matrix.col(j) for j in range(len(kept))]
    names = _dominant_names(col_vectors, h.source.gen_names, "")
    group = FgAbGroup(len(free_idx), torsion, names)
    inclusion = GroupHom(group, h.source, inclusion_matrix)
    return _KernelData(group, inclusion)


def reference_solve(h: GroupHom, target_vec: Sequence[int]) -> tuple[int, ...] | None:
    """Some x with h(x) = target_vec in the target group, or None.

    Solutions are sought over the source generators as an integer vector;
    equality in the target is modulo its relation lattice.
    """
    if len(target_vec) != h.target.gen_count:
        raise ValueError("vector length does not match target generator count")
    a = hstack(h.matrix, relation_matrix(h.target))
    ext = _snf_ext(a, ("u_rows", "vt", "uit"))
    free_idx, _ = _split_diag(ext.diag, a.rows)
    y = ext.u.apply(target_vec)
    if any(y[i] for i in free_idx):
        return None
    w = [0] * a.cols
    for i, d in enumerate(ext.diag):
        if d:
            w[i], rem = divmod(y[i], d)
            if rem:
                return None
    x_full = ext.v.apply(w)
    return tuple(x_full[: h.source.gen_count])


def reference_stable_kernel(c: ColimModule) -> tuple[FgAbGroup, GroupHom]:
    """ker(bond^N) for N large enough that the ascending chain has stopped."""
    bound = _stabilization_bound(c.stage)
    prev_power = GroupHom.identity(c.stage)
    for _ in range(bound + 1):
        power = c.bond.compose(prev_power)
        k, inc = reference_kernel_ext(power)
        if prev_power.compose(inc).is_zero():
            # ker(bond^n) is contained in ker(bond^(n-1)): chain stopped
            return k, inc
        prev_power = power
    raise StabilizationOverflow(
        f"kernel chain of the bond did not stabilize within {bound} steps"
    )


# ---------------------------------------------------------------------------
# the closure-based six-term solver: the library's solver on plain data must
# give the same solution, or raise the same error, on every input. Copied
# from the library as it was, with pv_solve renamed reference_pv_solve.


class _Side(namedtuple("_Side", "coinv push inv in_invariants express killed_note")):
    """Coinvariants and invariants of Id - alpha_* in one degree."""

    __slots__ = ()

    coinv: FgAbGroup
    push: Callable[[tuple[int, ...]], tuple[int, ...]]
    inv: FgAbGroup
    in_invariants: Callable[[tuple[int, ...]], bool]
    express: Callable[[tuple[int, ...]], tuple[int, ...] | None]
    killed_note: Callable[[], str]  # called only when a class is killed


def _fg_side(group: FgAbGroup, alpha: GroupHom) -> _Side:
    d = GroupHom(group, group, identity_minus(alpha.matrix))
    coker = _cokernel_ext(d)
    ker = _kernel_ext(d)
    return _Side(
        coinv=coker.group,
        push=coker.projection.apply,
        inv=ker.group,
        in_invariants=lambda vec: not any(d.apply(vec)),
        express=lambda vec: solve(ker.inclusion, vec),
        killed_note=lambda: "killed by the coinvariants projection",
    )


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
        coinv = FgAbGroup(0, (cp,), (loc.symbol + QUOTIENT_TAG,))
        push = lambda vec: (vec[0] % cp,)
    else:
        coinv = FgAbGroup.trivial()
        push = lambda vec: ()

    # cross-check the closed form against the staged colimit computation
    d_ladder = LadderMap(
        alpha.source,
        alpha.target,
        GroupHom(alpha.source.stage, alpha.target.stage, IntMatrix(1, 1, (c,))),
    )
    staged = ladder_cokernel(d_ladder)
    if not (isinstance(staged, FgAbGroup) and is_isomorphic(staged, coinv)):
        raise InvariantViolation("staged cokernel disagrees with the coprime-part closed form")
    staged_kernel = ladder_kernel(d_ladder)
    if not (isinstance(staged_kernel, FgAbGroup) and staged_kernel.is_trivial):
        raise InvariantViolation("staged kernel of Id - alpha on a localization is not trivial")

    inv = FgAbGroup.trivial()
    return _Side(
        coinv=coinv,
        push=push,
        inv=inv,
        in_invariants=lambda vec: vec[0] * c == 0,
        express=lambda vec: () if vec[0] == 0 else None,
        killed_note=lambda: f"order divides {_digits(abs(c))} (coinvariants of multiplication by {_digits(c)})",
    )


def _make_side(k: AbObject, alpha: SelfMap, degree: int) -> _Side:
    if isinstance(k, LocObject) and k.loc.is_degenerate:
        # Z[1/(+-1)] is Z itself: fold into the finitely generated branch
        group = k.loc.as_group()
        r = alpha.rung.matrix.at(0, 0)
        return _fg_side(group, GroupHom(group, group, IntMatrix(1, 1, (r,))))
    if isinstance(k, FgAbGroup):
        return _fg_side(k, alpha)
    return _loc_side(k, alpha, degree)


class _Assembled(namedtuple("_Assembled", "record embed_sub embed_quot quot_free_at")):
    __slots__ = ()

    record: SeqRecord
    embed_sub: Callable[[tuple[int, ...]], tuple[int, ...]]
    embed_quot: Callable[[tuple[int, ...]], tuple[int, ...]]
    quot_free_at: int  # index of the first quotient coordinate


def _assemble(sub: FgAbGroup, quot: FgAbGroup, label: str) -> _Assembled:
    if quot.is_trivial:
        record = SeqRecord(sub, sub, quot, True, "trivial quotient: middle is the subobject")
        return _Assembled(record, lambda v: tuple(v), lambda v: sub.zero(), sub.free_rank)
    if sub.is_trivial:
        record = SeqRecord(sub, quot, quot, True, "trivial subobject: middle is the quotient")
        return _Assembled(record, lambda v: quot.zero(), lambda v: tuple(v), 0)
    if not quot.torsion:
        rs, rq, ts = sub.free_rank, quot.free_rank, len(sub.torsion)
        names = _unique_names(
            list(sub.gen_names[:rs]) + list(quot.gen_names) + list(sub.gen_names[rs:])
        )
        middle = FgAbGroup(rs + rq, sub.torsion, names)

        def embed_sub(v: tuple[int, ...]) -> tuple[int, ...]:
            return tuple(v[:rs]) + (0,) * rq + tuple(v[rs:])

        def embed_quot(v: tuple[int, ...]) -> tuple[int, ...]:
            return (0,) * rs + tuple(v) + (0,) * ts

        record = SeqRecord(sub, middle, quot, True, "free quotient: projective, so the sequence splits")
        return _Assembled(record, embed_sub, embed_quot, rs)
    raise UnresolvedExtension(
        f"{label}: quotient {quot.describe()} is neither trivial nor free; "
        "refusing to guess the extension",
        partial={"sequence": label, "sub": group_to_json(sub), "quotient": group_to_json(quot)},
    )


def reference_pv_solve(kinput: KInput, apply_boundary_rule: bool = True) -> PvSolution:
    """Solve the six-term sequence for the crossed product by Z.

    Resolves both short exact sequences, pushes every tracked class of the
    coefficient algebra forward into the crossed-product groups through the
    coinvariants projection, and (with the boundary rule installed) adjoins
    the implementing unitary's class as a section generator in degree one.
    """
    ledger = kinput.ledger
    if apply_boundary_rule:
        ledger = boundary_rule(ledger)

    side0 = _make_side(kinput.k0, kinput.alpha0, 0)
    side1 = _make_side(kinput.k1, kinput.alpha1, 1)

    seq0 = _assemble(side0.coinv, side1.inv, "degree-0 sequence")
    seq1 = _assemble(side1.coinv, side0.inv, "degree-1 sequence")
    _audit(seq0.record)
    _audit(seq1.record)

    k0_crossed = seq0.record.middle
    k1_crossed = seq1.record.middle
    seq1_record = seq1.record

    unit = ledger["[1]"]
    unitary_symbols = sorted(sym for sym, e in ledger.items() if e.location == "unitary")

    out = KClassLedger()
    u_vector: tuple[int, ...] | None = None
    if apply_boundary_rule and unitary_symbols:
        # alpha is unital, so [1] is invariant; guarded rather than assumed
        if not side0.in_invariants(unit.vector):
            raise InvariantViolation("unital automorphism must fix [1]")
        expressed = side0.express(unit.vector)
        if expressed is None:
            raise InvariantViolation("[1] is invariant but not in the image of the invariants")
        u_vector = seq1.embed_quot(tuple(-x for x in expressed))
        quot = seq1.record.quotient
        if (
            quot.free_rank == 1
            and not quot.torsion
            and len(expressed) == 1
            and abs(expressed[0]) == 1
            and "u" not in k1_crossed.gen_names
        ):
            names = list(k1_crossed.gen_names)
            names[seq1.quot_free_at] = "u"
            k1_crossed = k1_crossed.renamed(names)
            seq1_record = SeqRecord(
                seq1.record.sub, k1_crossed, seq1.record.quotient, seq1.record.split, seq1.record.section
            )

    pushforward = {"k0": (side0, seq0, k0_crossed, "crossed0"), "k1": (side1, seq1, k1_crossed, "crossed1")}
    for symbol, entry in sorted(ledger.items()):
        if entry.location in pushforward:
            side, seq, group, location = pushforward[entry.location]
            vec = seq.embed_sub(side.push(entry.vector))
            note = side.killed_note() if (not any(vec) and any(entry.vector)) else ""
            out = out.with_entry(symbol, KClass(location, vec, element_order(group, vec), note))
        elif entry.location == "unitary":
            if u_vector is not None:
                out = out.with_entry(
                    symbol,
                    KClass(
                        "crossed1",
                        u_vector,
                        element_order(k1_crossed, u_vector),
                        "section generator over [1]; boundary image is -[1]",
                    ),
                )
            else:
                out = out.with_entry(
                    symbol,
                    KClass("crossed1", None, None, "boundary rule disabled: order undetermined"),
                )
        else:
            out = out.with_entry(symbol, entry)

    return PvSolution(k0_crossed, k1_crossed, out, seq0.record, seq1_record)


# ---------------------------------------------------------------------------
# the unit-letter proper-power oracle for relators


def flatten(w: Word) -> list[int]:
    """Unit letters as signed generator indices (index+1, negated for inverses)."""
    out = []
    for g, e in w.letters:
        step = 1 if e > 0 else -1
        out.extend([(g + 1) * step] * abs(e))
    return out


def cycled(w: Word, k: int) -> Word:
    """The cyclic conjugate of w that starts at its k-th unit letter."""
    flat = flatten(w)
    flat = flat[k:] + flat[:k]
    return Word(tuple((abs(s) - 1, 1 if s > 0 else -1) for s in flat))


def cyclic_reduction(flat: list[int]) -> list[int]:
    out = list(flat)
    while len(out) >= 2 and out[0] == -out[-1]:
        out = out[1:-1]
    return out


def is_proper_power(flat: list[int]) -> bool:
    n = len(flat)
    if n == 0:
        return True
    for period in range(1, n):
        if n % period:
            continue
        if all(flat[i] == flat[i - period] for i in range(period, n)):
            return True
    return False


def relator_is_proper_power(w: Word) -> bool:
    """Whether w is conjugate to a proper power, tested on its unit letters."""
    return is_proper_power(cyclic_reduction(flatten(w)))


# ---------------------------------------------------------------------------
# random generators


def random_torsion_chain(rng, max_order=60, max_len=2) -> tuple[int, ...]:
    length = rng.randint(0, max_len)
    chain = []
    total = 1
    d = 1
    for _ in range(length):
        factor = rng.randint(2 if d == 1 else 1, 5)
        d = d * factor if d > 1 else factor
        if d < 2 or total * d > max_order:
            break
        chain.append(d)
        total *= d
    return tuple(chain)


def random_group(rng, max_free=2, max_order=60) -> FgAbGroup:
    free = rng.randint(0, max_free)
    return FgAbGroup(free, random_torsion_chain(rng, max_order=max_order))


def random_finite_group(rng, max_order=60) -> FgAbGroup:
    chain = random_torsion_chain(rng, max_order=max_order)
    if not chain:
        chain = (rng.randint(2, 8),)
    return FgAbGroup(0, chain)


def random_hom_matrix(rng, source: FgAbGroup, target: FgAbGroup, span=4) -> IntMatrix:
    """A uniformly messy matrix that is well-defined on torsion."""
    rows = []
    for i in range(target.gen_count):
        di = 0 if i < target.free_rank else target.torsion[i - target.free_rank]
        row = []
        for j in range(source.gen_count):
            dj = 0 if j < source.free_rank else source.torsion[j - source.free_rank]
            if dj == 0:
                row.append(rng.randint(-span, span))
            elif di == 0:
                row.append(0)
            else:
                step = di // math.gcd(di, dj)
                row.append(step * rng.randint(-span, span))
        rows.append(row)
    return IntMatrix.from_rows(rows, cols=source.gen_count)


def random_hom(rng, source=None, target=None, span=4) -> GroupHom:
    source = source or random_group(rng)
    target = target or random_group(rng)
    return GroupHom(source, target, random_hom_matrix(rng, source, target, span))


def random_selfmap(rng, g: FgAbGroup, span=3) -> GroupHom:
    return GroupHom(g, g, random_hom_matrix(rng, g, g, span))


def polynomial_in(b: GroupHom, coeffs) -> GroupHom:
    """c0 + c1 b + c2 b^2 + ...; commutes with b by construction."""
    g = b.source
    n = g.gen_count
    acc = IntMatrix.zeros(n, n)
    power = IntMatrix.identity(n)
    for c in coeffs:
        acc = IntMatrix(
            n, n, tuple(a + c * p for a, p in zip(acc.entries, power.entries))
        )
        power = b.matrix @ power
    return GroupHom(g, g, acc)
