"""Shared oracles and random generators for the test suite.

The oracles here are deliberately independent of the library's own
algorithms: minors-gcd invariant factors for Smith form, with a Bareiss
determinant of their own, brute-force element chasing on finite stages for
colimits, and a letter-by-letter proper-power detector for relators. The
exceptions are references kept to check the library against:
``reference_snf_ext``, the earlier index-loop Smith form with floor
quotients and global re-pivoting, whose diagonal the library must match;
``reference_pair_snf_ext``, the library's Smith form with its 2x2 row and
column steps taken one quotient at a time, which it must match field for
field;
and, entry for entry, the earlier record-based kernel, cokernel, ``solve``
and stable kernel, which built an ``IntMatrix`` for every intermediate
step; the earlier ``generates``, which took a Smith form of the vector and
the relations; the earlier six-term solver, which kept each side and each
extension as closures; the earlier solenoid, which kept one ``Fraction`` angle per
level of a point; the earlier canonical form of ``NadicRational``,
which removed one factor of n at a time; the earlier ``coprime_part``,
which divided out gcd(c, n) once per unit of valuation; the earlier
check of the solver input, which branched on each side's kind; and the
earlier ``bsk`` parser, written out one subcommand at a time, whose help,
defaults and errors the one ``cli.build_parser`` builds from its command
table must match.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import reprlib
import subprocess
import sys
from collections import Counter, namedtuple
from collections.abc import Callable
from fractions import Fraction
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
    _with_relations,
    element_order,
    group_to_json,
    identity_minus,
    is_isomorphic,
    solve,
)
from bs_ktheory.cli import _argv_int
from bs_ktheory.colimit import (
    AbObject,
    ColimModule,
    LadderMap,
    LocalizedInt,
    LocObject,
    _stabilization_bound,
    ab_to_json,
    coprime_part,
    ladder_cokernel,
    ladder_kernel,
)
from bs_ktheory.errors import DepthExceeded, InvariantViolation, StabilizationOverflow, UnresolvedExtension
from bs_ktheory.ledger import KClass, KClassLedger
from bs_ktheory.pv import KInput, PvSolution, SelfMap, SeqRecord, _audit
from bs_ktheory.presentation import Presentation, Word, _abelianization_ext
from bs_ktheory.solenoid import NadicRational

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


def det(a: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination, kept apart
    from the library's one elimination core so that it can check it."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = a.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


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
                g = math.gcd(g, det(sub))
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
# the pair Euclid one quotient at a time: the library settles a column pass's
# remainder of least gcd with the pivot, and a row pass's least remainder,
# against the pivot with one 2x2 transform each, and must produce the same
# diagonal and transforms as this, which takes one row or column update per
# quotient


def reference_pair_snf_ext(a: IntMatrix, track: Sequence[str]) -> tuple:
    """``_snf_ext(a, track)`` as (diag, u_rows, vt, uit), with the row step
    written as ``row_t -= q * row_i``, then a swap, until ``m[i][t] == 0``,
    and the column step as ``col_t -= q * col_j``, then a swap, until
    ``m[t][j] == 0``."""
    r, c = a.rows, a.cols
    m = a.to_rows()

    def start(name: str, n: int) -> list[list[int]]:
        return IntMatrix.identity(n).to_rows() if name in track else [[] for _ in range(n)]

    u, uit, vt = start("u_rows", r), start("uit", r), start("vt", c)

    def nearest(x: int, p: int) -> tuple[int, int]:
        q, e = divmod(x, p)
        return (q + 1, e - p) if 2 * abs(e) > abs(p) else (q, e)

    def swap_rows(i: int, k: int) -> None:
        for rows in (m, u, uit):
            rows[i], rows[k] = rows[k], rows[i]

    def swap_cols(i: int, k: int) -> None:
        for row in m:
            row[i], row[k] = row[k], row[i]
        vt[i], vt[k] = vt[k], vt[i]

    def partner_key(p: int, e: int) -> tuple[int, int]:
        return math.gcd(p, e), abs(e)

    t = 0
    limit = min(r, c)
    while t < limit:
        entries = [(abs(m[i][j]), i, j) for i in range(t, r) for j in range(t, c) if m[i][j]]
        if not entries:
            break
        _, i, j = min(entries)
        swap_rows(t, i)
        swap_cols(t, j)
        while True:
            p = m[t][t]
            i = None
            for k in range(t + 1, r):
                if m[k][t]:
                    q, e = nearest(m[k][t], p)
                    m[k] = [x - q * y for x, y in zip(m[k], m[t])]
                    u[k] = [x - q * y for x, y in zip(u[k], u[t])]
                    uit[t] = [x + q * y for x, y in zip(uit[t], uit[k])]
                    if e and (i is None or partner_key(p, e) < partner_key(p, m[i][t])):
                        i = k
            if i is not None:
                while m[i][t]:
                    q, _ = nearest(m[t][t], m[i][t])
                    m[t] = [x - q * y for x, y in zip(m[t], m[i])]
                    u[t] = [x - q * y for x, y in zip(u[t], u[i])]
                    uit[i] = [x + q * y for x, y in zip(uit[i], uit[t])]
                    swap_rows(t, i)
                continue

            j = None
            for k in range(t + 1, c):
                if m[t][k]:
                    q, e = nearest(m[t][k], p)
                    m[t][k] = e
                    vt[k] = [x - q * y for x, y in zip(vt[k], vt[t])]
                    if e and (j is None or abs(e) < abs(m[t][j])):
                        j = k
            if j is not None:
                while m[t][j]:
                    q, _ = nearest(m[t][t], m[t][j])
                    for row in m:
                        row[t] -= q * row[j]
                    vt[t] = [x - q * y for x, y in zip(vt[t], vt[j])]
                    swap_cols(t, j)
                continue

            if abs(p) != 1:
                k = next((h for h in range(t + 1, r) if any(x % p for x in m[h][t + 1 :])), None)
                if k is not None:
                    m[t] = [x + y for x, y in zip(m[t], m[k])]
                    u[t] = [x + y for x, y in zip(u[t], u[k])]
                    uit[k] = [x - y for x, y in zip(uit[k], uit[t])]
                    continue
            break

        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
            uit[t] = [-x for x in uit[t]]
        t += 1

    return tuple(m[i][i] for i in range(limit)), u, vt, uit


# ---------------------------------------------------------------------------
# homomorphism algebra only the tests use


def compose(f: GroupHom, g: GroupHom) -> GroupHom:
    """f o g (apply ``g`` first)."""
    if g.target != f.source:
        raise ValueError("composition mismatch")
    return GroupHom(g.source, f.target, f.matrix @ g.matrix)


def is_zero(h: GroupHom) -> bool:
    return not any(any(h.apply(basis_vec)) for basis_vec in IntMatrix.identity(h.source.gen_count).to_rows())


def projection(data, target: FgAbGroup) -> GroupHom:
    """The projection of ``target`` onto the quotient of the library's cokernel data."""
    return GroupHom(target, data.group, IntMatrix.from_rows(data.proj, cols=target.gen_count))


def cokernel(h: GroupHom) -> tuple[FgAbGroup, GroupHom]:
    """The cokernel target/im(h) in normal form, with the projection map."""
    data = _cokernel_ext(h)
    return data.group, projection(data, h.target)


def kernel(h: GroupHom) -> tuple[FgAbGroup, GroupHom]:
    """The kernel of ``h`` in normal form, with its inclusion into the source."""
    data = _kernel_ext(h)
    return data.group, data.inclusion


# ---------------------------------------------------------------------------
# presentation and localization helpers only the tests use


def abelianization(p: Presentation) -> FgAbGroup:
    """The cokernel of the exponent map, with names from the presentation."""
    return _abelianization_ext(p)[0]


def render(p: Presentation) -> str:
    """Parseable text form; inverse of ``parse`` on constructible input."""
    if not p.relator.letters:
        raise ValueError("the empty relator has no textual form")
    gens = ", ".join(p.generators)
    body = " ".join(p.generators[g] if e == 1 else f"{p.generators[g]}^{e}" for g, e in p.relator.letters)
    return f"< {gens} | {body} >"


def localized_eq(a: LocalizedInt, b: LocalizedInt) -> bool:
    """Z[1/n] depends only on the primes of n: equal when each n divides a power of the other."""
    return coprime_part(a.n, b.n) == 1 == coprime_part(b.n, a.n)


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
    ext = _snf_ext(relation_cols, True)
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
    ext = _snf_ext(a, True)
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

    ext = _snf_ext(rel_mat, True)
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
    ext = _snf_ext(a, True)
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


def reference_generates(g: FgAbGroup, vec: Sequence[int]) -> bool:
    """Does ``vec`` generate g? Read off the Smith form of [vec | relations]:
    it does exactly when no coordinate is left free or torsion."""
    ext = _snf_ext(_with_relations([[x] for x in g.reduce(vec)], 1, g), False)
    return not any(_split_diag(ext.diag, g.gen_count))


def reference_stable_kernel(c: ColimModule) -> tuple[FgAbGroup, GroupHom]:
    """ker(bond^N) for N large enough that the ascending chain has stopped."""
    bound = _stabilization_bound(c.stage)
    prev_power = GroupHom.identity(c.stage)
    for _ in range(bound + 1):
        power = compose(c.bond, prev_power)
        k, inc = reference_kernel_ext(power)
        if is_zero(compose(prev_power, inc)):
            # ker(bond^n) is contained in ker(bond^(n-1)): chain stopped
            return k, inc
        prev_power = power
    raise StabilizationOverflow(
        f"kernel chain of the bond did not stabilize within {bound} steps"
    )


def reference_coprime_part(c: int, n: int) -> int:
    """Largest divisor of |c| coprime to n, one division by gcd(m, |n|) a pass."""
    if c == 0:
        raise ValueError("coprime_part of 0 is undefined")
    if n == 0:
        raise ValueError("cannot invert 0")
    m = abs(c)
    k = abs(n)
    g = math.gcd(m, k)
    while g > 1:
        m //= g
        g = math.gcd(m, k)
    return m


# ---------------------------------------------------------------------------
# the solver-input check that branched on each side's kind: KInput must
# accept the same inputs and raise the same message. Copied from the library
# as it was, with KInput.__new__'s body as reference_kinput_check.


def _reference_check_side(k: AbObject, alpha: SelfMap, label: str) -> None:
    if isinstance(k, FgAbGroup):
        if not isinstance(alpha, GroupHom):
            raise ValueError(f"{label} must be a GroupHom for a finitely generated side")
        if alpha.source != k or alpha.target != k:
            raise ValueError(f"{label} must be a self-map of its group")
    elif isinstance(k, LocObject):
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
    else:
        raise ValueError(f"unsupported representation for {label}")


def reference_kinput_check(k0: AbObject, k1: AbObject, alpha0: SelfMap, alpha1: SelfMap, ledger: KClassLedger) -> None:
    _reference_check_side(k0, alpha0, "alpha0")
    _reference_check_side(k1, alpha1, "alpha1")
    for sym, entry in ledger.items():
        if entry.location not in ("k0", "k1", "unitary"):
            raise ValueError(
                f"ledger entry {reprlib.repr(sym)} is in {entry.location!r}, which only a solution holds"
            )
        if entry.location in ("k0", "k1"):
            side = k0 if entry.location == "k0" else k1
            if entry.vector is None:
                raise ValueError(f"ledger entry {reprlib.repr(sym)} needs a coefficient vector")
            expected = side.gen_count if isinstance(side, FgAbGroup) else 1
            if len(entry.vector) != expected:
                raise ValueError(f"ledger entry {reprlib.repr(sym)} has the wrong vector length")
            if entry.order is not None:
                if isinstance(side, FgAbGroup):
                    true_order = element_order(side, entry.vector)
                else:
                    # nonzero elements of a localization are free
                    true_order = math.inf if entry.vector[0] else 1
                if entry.order != true_order:
                    raise ValueError(
                        f"ledger entry {reprlib.repr(sym)} annotates order {reprlib.repr(entry.order)}, "
                        f"but the class has order {reprlib.repr(true_order)}"
                    )
    unit = ledger.get("[1]")
    if unit is None or unit.location != "k0":
        raise ValueError('the ledger must locate "[1]" in k0')
    if isinstance(k0, FgAbGroup):
        if element_order(k0, unit.vector) != math.inf:
            raise ValueError('"[1]" must have infinite order (unital algebra)')
        if alpha0.apply(unit.vector) != k0.reduce(unit.vector):
            raise ValueError("alpha0 must fix the unit class")
    else:
        if unit.vector[0] == 0:
            raise ValueError('"[1]" must be nonzero')
        r = alpha0.rung.matrix.at(0, 0)
        if r != 1:
            raise ValueError("alpha0 must fix the unit class")


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
        push=projection(coker, group).apply,
        inv=ker.group,
        in_invariants=lambda vec: not any(d.apply(vec)),
        express=lambda vec: solve(ker.inclusion, vec),
        killed_note=lambda: "killed by the coinvariants projection",
    )


def _digits(c: int) -> str:
    """The decimal digits of ``c``, also past the interpreter's limit on
    int-to-str conversion, which a solve must not fail on."""
    try:
        return str(c)
    except ValueError:
        from decimal import Decimal  # converts without that limit

        return str(Decimal(c))


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
    if isinstance(k, LocObject) and abs(k.loc.n) == 1:
        # Z[1/(+-1)] is Z itself: fold into the finitely generated branch
        group = FgAbGroup.free(1, (k.loc.symbol,))
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
        ledger = ledger.with_entry(
            "[u]", KClass("unitary", None, None, "boundary image is -[1]; section over [1]")
        )

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
# the coords-based solenoid: a point kept one Fraction angle per level, its
# constructor checked each adjacent pair, and the shift dropped the head
# coordinate. The library keeps only the deepest angle and must give the same
# angles, the same verdicts and the same errors. Copied from the library as it
# was, with each name given a reference prefix; it shares the library's
# NadicRational, whose canonical form reference_nadic_canonical pins.


class ReferenceAngle(namedtuple("ReferenceAngle", "value")):
    """e^(2 pi i p/q) as the reduced fraction p/q with 0 <= p/q < 1."""

    __slots__ = ()

    def __new__(cls, value: Fraction):
        return tuple.__new__(cls, (Fraction(value) % 1,))

    @classmethod
    def of(cls, p: int, q: int) -> "ReferenceAngle":
        return cls(Fraction(p, q))

    def scale(self, k: int) -> "ReferenceAngle":
        return ReferenceAngle(self.value * k)

    def __add__(self, other: "ReferenceAngle") -> "ReferenceAngle":
        return ReferenceAngle(self.value + other.value)


class ReferencePoint(namedtuple("ReferencePoint", "n coords")):
    """A depth-L truncation (theta_0, ..., theta_L) with n*theta_{k+1} = theta_k mod 1."""

    __slots__ = ()

    def __new__(cls, n: int, coords: tuple[ReferenceAngle, ...]):
        coords = tuple(coords)
        if n == 0:
            raise ValueError("the solenoid parameter must be nonzero")
        if not coords:
            raise ValueError("a point needs at least the depth-0 coordinate")
        for k in range(len(coords) - 1):
            if coords[k + 1].scale(n) != coords[k]:
                raise ValueError(f"compatibility fails between depths {k} and {k + 1}")
        return tuple.__new__(cls, (n, coords))

    @property
    def depth(self) -> int:
        return len(self.coords) - 1


def reference_pairing_raw(z: ReferencePoint, m: int, exp: int) -> ReferenceAngle:
    """The angle m * theta_exp; a negative ``exp`` indexed from the end."""
    if exp > z.depth:
        raise DepthExceeded(f"pairing at level {exp} needs depth >= {exp}, have {z.depth}")
    return z.coords[exp].scale(m)


def reference_pairing(z: ReferencePoint, x: NadicRational) -> ReferenceAngle:
    if x.n != z.n:
        raise ValueError("point and element live over different bases")
    return reference_pairing_raw(z, x.m, x.exp)


def reference_dual_shift(z: ReferencePoint) -> ReferencePoint:
    if z.depth < 1:
        raise DepthExceeded("shifting needs depth >= 1")
    return ReferencePoint(z.n, z.coords[1:])


def reference_duality_check(z: ReferencePoint, x: NadicRational, direct=None) -> bool:
    """Takes the library's ``direct`` argument and ignores it: pairing(z, x)
    is recomputed here, so a wrong value passed in shows as a mismatch."""
    if z.depth < 1 or z.depth < x.exp:
        raise DepthExceeded(f"duality at level {x.exp} needs depth >= {max(1, x.exp)}")
    return reference_pairing(reference_dual_shift(z), x.times_base()) == reference_pairing(z, x)


def reference_random_point(n: int, depth: int, seed: int) -> ReferencePoint:
    if n == 0:
        raise ValueError("the solenoid parameter must be nonzero")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    rng = random.Random(seed)
    q = rng.randint(1, 60)
    deepest = ReferenceAngle.of(rng.randrange(q), q)
    coords = [deepest]
    for _ in range(depth):
        coords.append(coords[-1].scale(n))
    coords.reverse()
    return ReferencePoint(n, tuple(coords))


def reference_nadic_canonical(n: int, m: int, exp: int) -> tuple[int, int, int]:
    """(n, m, exp) of the canonical m / n^exp, removing one factor of n at a time."""
    if abs(n) == 1:
        m, exp = m * n**exp, 0
    if m == 0:
        exp = 0
    while exp > 0 and m % n == 0:
        m //= n
        exp -= 1
    return n, m, exp


# the library names cli._run_pair imports, mapped to their references
REFERENCE_SOLENOID = {
    "pairing": reference_pairing,
    "pairing_raw": reference_pairing_raw,
    "duality_check": reference_duality_check,
    "random_point": reference_random_point,
}


# ---------------------------------------------------------------------------
# the earlier bsk parser, one subcommand at a time


def reference_build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="bsk",
        description=(
            "Exact K-theory bookkeeping for crossed products by Z and for "
            "one-relator classifying spaces, with a two-sided comparison driver."
        ),
    )
    parser.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    parser.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bs = sub.add_parser("bs", help="full two-sided computation for the parameter n")
    p_bs.add_argument("n", type=_argv_int)

    p_pv = sub.add_parser("pv", help="solve a six-term input read from a JSON file")
    p_pv.add_argument("input_path")

    p_hom = sub.add_parser("homology", help="presentation-complex homology")
    p_hom.add_argument("presentation")

    p_khom = sub.add_parser("khom", help="K-homology of the classifying space")
    p_khom.add_argument("presentation")

    p_pair = sub.add_parser("pair", help="randomized exact duality checks on the solenoid")
    p_pair.add_argument("--n", type=_argv_int, required=True)
    p_pair.add_argument("--depth", type=_argv_int, default=4)
    p_pair.add_argument("--seed", type=_argv_int, default=0)
    p_pair.add_argument("--trials", type=_argv_int, default=100)

    p_snf = sub.add_parser("snf", help="Smith normal form of an integer matrix")
    p_snf.add_argument("matrix", help="JSON rows, or a path to a JSON file")

    return parser


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
    acc = IntMatrix(n, n, (0,) * (n * n))
    power = IntMatrix.identity(n)
    for c in coeffs:
        acc = IntMatrix(
            n, n, tuple(a + c * p for a, p in zip(acc.entries, power.entries))
        )
        power = b.matrix @ power
    return GroupHom(g, g, acc)


BIG = 10**30


def one_generator_stage(rng, small_only=False) -> tuple[FgAbGroup, int, int]:
    """Z/d with d small or, unless small_only, Z (d = 0) or Z/d with d
    10^30-sized; with d and a divisor g > 1 of d."""
    g = rng.randint(2, 6)
    d = g * rng.randint(1, 10)
    if not small_only:
        d = rng.choice((0, d, g * BIG))
    return (FgAbGroup.free(1) if d == 0 else FgAbGroup(0, (d,))), d, g


def one_generator_entry(rng, d: int, g: int) -> int:
    """0, +-1, a multiple of d, a multiple of g (gcd with d above 1), or any
    entry, small or 10^30-sized."""
    k = rng.choice((rng.randint(-6, 6), rng.randint(-BIG, BIG)))
    return rng.choice((0, 1, -1, d * k, g * k, k, BIG * k + rng.choice((1, -1))))


def one_by_one(source: FgAbGroup, target: FgAbGroup, e: int) -> GroupHom:
    return GroupHom(source, target, IntMatrix(1, 1, (e,)))


def one_generator_colimit(rng) -> ColimModule:
    stage, d, g = one_generator_stage(rng)
    return ColimModule(stage, one_by_one(stage, stage, one_generator_entry(rng, d, g)))
