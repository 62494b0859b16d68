"""Exact calculus of finitely generated abelian groups.

Groups are kept in invariant-factor normal form (a free rank plus a
divisibility chain d1 | d2 | ...), homomorphisms are integer matrices in
the chosen generating sets, and kernels, cokernels, element orders and
isomorphism all reduce to Smith normal form over the integers. Every step
uses Python ints, so the arithmetic is exact at any magnitude.

There is one Smith-form core, ``_snf_ext``: it reduces by nearest
remainders, clearing the pivot's column and then its row by passes local to
each, with one 2x2 step on two rows or two columns where a pass leaves
remainders, and with the rows of u riding in the working rows. It returns
one result type, ``SnfDecomposition``: the diagonal with u and v, and u's
inverse where the caller reads a cokernel's lifts, all tracked during
elimination rather than inverted after and kept as the row lists the
elimination produces. ``_split_diag`` reads the free and torsion
coordinates off the diagonal for every caller.

Records (``IntMatrix``, ``FgAbGroup``, ``GroupHom``) are validated on
construction, so they are built only at the API boundary: for the input of
each Smith form and for values that leave the module. Kernels, cokernels
and ``solve`` work on plain rows in between.

Conventions used throughout:

* a group with free rank r and torsion (d1, ..., dk) has r + k generators,
  free generators first, torsion generators after, in chain order;
* elements are integer coefficient vectors over those generators;
* a homomorphism matrix has one column per source generator and one row
  per target generator.
"""

from __future__ import annotations

import math
import reprlib
from collections import namedtuple
from collections.abc import Sequence

from .errors import _checked_namedtuple

# ---------------------------------------------------------------------------
# integer matrices


class IntMatrix(_checked_namedtuple("IntMatrix", "rows cols entries")):
    """An immutable rows x cols integer matrix, stored row-major."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, entries: tuple[int, ...]):
        # here and in FgAbGroup and GroupHom, validation is its own method,
        # run once per construction: perfbench/spans.py counts it
        self = tuple.__new__(cls, (rows, cols, entries))
        self.__post_init__()
        return self

    def __post_init__(self):
        rows, cols, entries = self
        if type(rows) is not int or type(cols) is not int:
            raise ValueError("matrix dimensions must be Python ints")
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        if not {*map(type, entries)} <= {int}:
            raise ValueError("matrix entries must be Python ints")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        if cols is None:
            cols = len(rows[0]) if rows else 0
        flat: list[int] = []
        for row in rows:
            if len(row) != cols:
                raise ValueError("row length does not match the column count")
            flat.extend(row)
        return cls(len(rows), cols, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[int, ...]:
        return self.entries[j :: self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix(self.rows, other.cols, _product(self, other))

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(x * y for x, y in zip(self.row(i), vec)) for i in range(self.rows))


def _product(a: IntMatrix, b: IntMatrix) -> tuple[int, ...]:
    """The entries of a @ b, row-major, without building the matrix."""
    if a.cols != b.rows:
        raise ValueError("dimension mismatch in matrix product")
    cols = [b.col(j) for j in range(b.cols)]
    return tuple(sum(x * y for x, y in zip(a.row(i), col)) for i in range(a.rows) for col in cols)


def _from_cols(cols: Sequence[Sequence[int]], rows: int) -> IntMatrix:
    """The rows x len(cols) matrix with the given columns."""
    return IntMatrix(rows, len(cols), tuple(col[i] for i in range(rows) for col in cols))


def identity_minus(a: IntMatrix) -> IntMatrix:
    if a.rows != a.cols:
        raise ValueError("identity_minus needs a square matrix")
    n = a.rows
    return IntMatrix(n, n, tuple((1 if i == j else 0) - a.at(i, j) for i in range(n) for j in range(n)))


# ---------------------------------------------------------------------------
# Smith normal form


class SnfDecomposition(namedtuple("SnfDecomposition", "diag u_rows vt uit")):
    """A Smith normal form u @ a @ v = s, with u's inverse if its caller tracked it.

    ``u`` and ``v`` are unimodular, and ``u @ u_inv`` is the identity.
    ``diag`` is the diagonal of s: nonzero entries are positive, each
    divides the next, and zeros come last, so it runs units, then torsion
    entries, then zeros.

    The transforms are stored as the row lists elimination leaves: the rows
    of u (``u_rows``) and the columns of v (``vt``) and of u_inv (``uit``),
    one empty row each where u_inv is untracked. The matrices ``u``, ``v``,
    ``u_inv`` and ``s`` are built from them on each access.
    """

    __slots__ = ()

    diag: tuple[int, ...]
    u_rows: list[list[int]]
    vt: list[list[int]]
    uit: list[list[int]]

    u = property(lambda self: IntMatrix.from_rows(self.u_rows))
    v = property(lambda self: IntMatrix.from_rows([*zip(*self.vt)]))
    u_inv = property(lambda self: IntMatrix.from_rows([*zip(*self.uit)]))
    # v's inverse is not tracked; perfbench/spans.py still reads this view
    v_inv = property(lambda self: IntMatrix(0, 0, ()))

    @property
    def s(self) -> IntMatrix:
        rows, cols = len(self.u_rows), len(self.vt)
        entries = [0] * (rows * cols)
        for i, d in enumerate(self.diag):
            entries[i * cols + i] = d
        return IntMatrix(rows, cols, tuple(entries))


def _snf_ext(a: IntMatrix, inverse: bool) -> SnfDecomposition:
    """Smith normal form with u and v alongside, and u's inverse if ``inverse``.

    u rides in the working rows, row i of u after column c of row i, so one
    list update moves both; every read of the matrix stops at column c. An
    untracked inverse is a list of empty rows.

    Position t starts from the nonzero entry of least absolute value in the
    trailing submatrix, first in row-major order, so the output is
    deterministic. An entry e is reduced by the nearest multiple q * p of
    the pivot p: |e - q * p| <= |p| / 2, and at equality q = e // p. Column
    t is cleared by passes within it. A pass that leaves remainders pairs
    the pivot with one: the least gcd with p, then the least |e|, then the
    first row. Euclid, by the same rule, on the two scalars alone gives a
    2x2 transform; applied once to the two rows, it leaves their gcd as the
    pivot and 0 below it (Bradley, Math. Comp. 25, 1971). Row t is cleared
    by passes too, and the least remainder one leaves (the first in column
    order) is settled by the same 2x2 step on the two columns. Unless the
    pivot is a unit, the first row with an entry it does not divide is then
    added to row t, and both are cleared again.

    Rows t and below are zero left of column t, so a row operation rewrites
    only the suffix from column t. ``u_inv`` and ``v`` are kept transposed
    (``uit``, ``vt``) so that every update of them replaces whole rows, and
    ``uit`` updates are skipped where it is untracked.
    """
    r, c, entries = a
    m = [[*entries[i * c : (i + 1) * c], *[0] * r] for i in range(r)]
    vt = [[0] * c for _ in range(c)]
    uit = [[0] * r if inverse else [] for _ in range(r)]
    # u, v and a tracked u_inv start as the identity
    for rows, at in ((m, c), (vt, 0), (uit if inverse else (), 0)):
        for i, row in enumerate(rows):
            row[at + i] = 1

    t = 0
    limit = min(r, c)
    while t < limit:
        # no entry beats a unit, so the scan stops after the row holding one
        pivot, least = None, 0
        for i in range(t, r):
            for j, e in enumerate(m[i][t:c], t):
                if e and (pivot is None or abs(e) < least):
                    pivot, least = (i, j), abs(e)
            if least == 1:
                break
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            m[t], m[i] = m[i], m[t]
            uit[t], uit[i] = uit[i], uit[t]
        if j != t:
            for row in m[t:]:
                row[t], row[j] = row[j], row[t]
            vt[t], vt[j] = vt[j], vt[t]
        top = m[t]
        while True:
            p, tail = top[t], top[t + 1 :]
            rems = []
            for k in range(t + 1, r):
                row = m[k]
                if row[t]:
                    q, e = divmod(row[t], p)
                    if 2 * abs(e) > abs(p):
                        q, e = q + 1, e - p
                    if q:
                        row[t + 1 :] = [x - q * y for x, y in zip(row[t + 1 :], tail)]
                        row[t] = e
                        if inverse:
                            uit[t] = [x + q * y for x, y in zip(uit[t], uit[k])]
                    if e:
                        rems.append((math.gcd(p, e), abs(e), k))
            i = j = t  # to become the row, or else the column, of the partner
            if rems:
                i = min(rems)[2]
            else:
                low = 0
                for k in range(t + 1, c):
                    if top[k]:
                        q, e = divmod(top[k], p)
                        if 2 * abs(e) > abs(p):
                            q, e = q + 1, e - p
                        if q:
                            top[k] = e
                            vt[k] = [x - q * y for x, y in zip(vt[k], vt[t])]
                        if e and (j == t or abs(e) < low):
                            j, low = k, abs(e)
                if j == t:
                    # the divisibility chain: the pivot must divide the rest
                    rest = (h for h in range(t + 1, r) if any(x % p for x in m[h][t + 1 : c]))
                    k = t if abs(p) == 1 else next(rest, t)
                    if k == t:
                        break
                    top[t + 1 :] = [x + y for x, y in zip(top[t + 1 :], m[k][t + 1 :])]
                    if inverse:
                        uit[k] = [x - y for x, y in zip(uit[k], uit[t])]
                    continue

            # Euclid on p and the partner alone, applied as one 2x2 E
            g, h, e00, e01, e10, e11 = p, m[i][t] if i != t else top[j], 1, 0, 0, 1
            while h:
                q, e = divmod(g, h)
                if 2 * abs(e) > abs(h):
                    q, e = q + 1, e - h
                g, h, e00, e01, e10, e11 = h, e, e10, e11, e00 - q * e10, e01 - q * e11
            if i != t:
                rt, ri = top[t:], m[i][t:]
                top[t:] = [e00 * x + e01 * y for x, y in zip(rt, ri)]
                m[i][t:] = [e10 * x + e11 * y for x, y in zip(rt, ri)]
                if inverse:  # E's inverse, det * [[e11, -e01], [-e10, e00]], transposed
                    d = e00 * e11 - e01 * e10
                    rt, ri = uit[t], uit[i]
                    uit[t] = [d * (e11 * x - e10 * y) for x, y in zip(rt, ri)]
                    uit[i] = [d * (e00 * y - e01 * x) for x, y in zip(rt, ri)]
            else:
                for row in m[t:]:
                    x, y = row[t], row[j]
                    row[t], row[j] = e00 * x + e01 * y, e10 * x + e11 * y
                ct, cj = vt[t], vt[j]
                vt[t] = [e00 * x + e01 * y for x, y in zip(ct, cj)]
                vt[j] = [e10 * x + e11 * y for x, y in zip(ct, cj)]

        if top[t] < 0:
            top[t:] = [-x for x in top[t:]]
            if inverse:
                uit[t] = [-x for x in uit[t]]
        t += 1

    return SnfDecomposition(tuple(m[i][i] for i in range(limit)), [row[c:] for row in m], vt, uit)


def smith_normal_form(a: IntMatrix) -> SnfDecomposition:
    """Diagonalize ``a`` by unimodular row and column operations.

    Works on any rectangular matrix, including empty ones. The result is
    deterministic, and carries ``u`` and ``v`` but not their inverses.
    """
    return _snf_ext(a, False)


def _split_diag(diag: tuple[int, ...], count: int) -> tuple[range, range]:
    """(free, torsion) coordinates of a Smith form with ``count`` coordinates.

    A coordinate is free where the diagonal is 0 or has ended, and torsion
    where it is >= 2; unit coordinates are in neither. The diagonal's order
    (units, torsion, zeros) makes both sets ranges.
    """
    rank = len(diag) - diag.count(0)
    return range(rank, count), range(diag.count(1), rank)


# ---------------------------------------------------------------------------
# groups and homomorphisms


class FgAbGroup(_checked_namedtuple("FgAbGroup", "free_rank torsion gen_names")):
    """A finitely generated abelian group in invariant-factor normal form.

    ``torsion`` is the chain (d1, ..., dk) with each di >= 2 and d1 | d2 |
    ...; the group is Z^free_rank + Z/d1 + ... + Z/dk. Generator names are
    unique within the group, free generators named first; without names
    they are g0, g1, ...
    """

    __slots__ = ()

    def __new__(cls, free_rank: int, torsion: Sequence[int] = (), gen_names: Sequence[str] | None = None):
        torsion = tuple(torsion)
        if gen_names is None:
            gen_names = [f"g{i}" for i in range(free_rank + len(torsion))]
        self = tuple.__new__(cls, (free_rank, torsion, tuple(gen_names)))
        self.__post_init__()
        return self

    def __post_init__(self):
        free_rank, tors, names = self
        if type(free_rank) is not int:
            raise ValueError("free rank must be a Python int")
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        if not {*map(type, tors)} <= {int}:
            raise ValueError("torsion coefficients must be Python ints")
        for d in tors:
            if d < 2:
                raise ValueError("torsion coefficients must be >= 2")
        for a, b in zip(tors, tors[1:]):
            if b % a != 0:
                raise ValueError(f"torsion {reprlib.repr(tors)} is not a divisibility chain")
        if len(names) != free_rank + len(tors):
            raise ValueError("generator name count must match summand count")
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")

    @classmethod
    def trivial(cls) -> "FgAbGroup":
        return cls(0, (), ())

    @classmethod
    def free(cls, rank: int, names: Sequence[str] | None = None) -> "FgAbGroup":
        return cls(rank, (), names)

    @property
    def gen_count(self) -> int:
        return self.free_rank + len(self.torsion)

    @property
    def is_trivial(self) -> bool:
        return self.gen_count == 0

    def order(self) -> int | float:
        if self.free_rank > 0:
            return math.inf
        return math.prod(self.torsion)

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Canonical representative: torsion coordinates mod their order."""
        if len(vec) != self.gen_count:
            raise ValueError("vector length does not match generator count")
        if not {*map(type, vec)} <= {int}:
            raise ValueError("vector coordinates must be Python ints")
        out = list(vec)
        for j, d in enumerate(self.torsion):
            out[self.free_rank + j] %= d
        return tuple(out)

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.gen_count

    def renamed(self, names: Sequence[str]) -> "FgAbGroup":
        return FgAbGroup(self.free_rank, self.torsion, tuple(names))

    def describe(self) -> str:
        """Normal-form notation such as ``Z^2 + Z/4 + Z/12`` (``0`` if trivial)."""
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def __str__(self) -> str:
        return self.describe()


class GroupHom(_checked_namedtuple("GroupHom", "source target matrix")):
    """A homomorphism between FgAbGroups as an integer matrix.

    Columns are indexed by source generators, rows by target generators.
    Well-definedness on torsion is checked at construction: for a source
    generator of order d, d times its image column must vanish in the
    target. Ill-defined data is rejected, never silently normalized.
    """

    __slots__ = ()

    def __new__(cls, source: FgAbGroup, target: FgAbGroup, matrix: IntMatrix):
        self = tuple.__new__(cls, (source, target, matrix))
        self.__post_init__()
        return self

    def __post_init__(self):
        if self.matrix.rows != self.target.gen_count or self.matrix.cols != self.source.gen_count:
            raise ValueError("matrix dimensions do not match generator counts")
        r = self.target.free_rank
        for j, d in enumerate(self.source.torsion):
            col = self.matrix.col(self.source.free_rank + j)  # d x = 0 mod t: x = 0 mod t / gcd(d, t)
            if any(col[:r]) or any(x % (t // math.gcd(d, t)) for x, t in zip(col[r:], self.target.torsion)):
                raise ValueError(
                    f"not well-defined on torsion: generator of order {d} "
                    f"maps to an element not killed by {d}"
                )

    @classmethod
    def identity(cls, g: FgAbGroup) -> "GroupHom":
        return cls(g, g, IntMatrix.identity(g.gen_count))

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        return self.target.reduce(self.matrix.apply(vec))


# ---------------------------------------------------------------------------
# naming helpers

QUOTIENT_TAG = "‾"  # overline, marks images under a quotient map


def _dominant_names(
    coeff_vectors: Sequence[Sequence[int]],
    base_names: Sequence[str],
    tag: str,
) -> tuple[str, ...]:
    """Name derived generators after the dominant base generator.

    Each derived generator is a combination of base generators; it borrows
    the name of the coefficient of largest absolute value (first on ties),
    suffixed with ``tag``. Duplicates get a numeric suffix so names stay
    unique within the group.
    """
    bases = []
    for idx, coeffs in enumerate(coeff_vectors):
        best = None
        best_abs = 0
        for j, c in enumerate(coeffs):
            if c != 0 and abs(c) > best_abs:
                best = j
                best_abs = abs(c)
        bases.append(base_names[best] + tag if best is not None else f"q{idx}{tag}")
    return _unique_names(bases)


def _unique_names(candidates: Sequence[str]) -> tuple[str, ...]:
    """The names in order; a repeat takes the least suffix, from its occurrence
    number on, that no candidate and no earlier name uses."""
    taken = set(candidates)
    if len(taken) == len(candidates):
        return tuple(candidates)
    seen: dict[str, int] = {}
    out = []
    for name in candidates:
        count = seen.get(name, 0)
        seen[name] = count + 1
        if count:
            while f"{name}{count + 1}" in taken:
                count += 1
            name = f"{name}{count + 1}"
            taken.add(name)
        out.append(name)
    return tuple(out)


# ---------------------------------------------------------------------------
# kernels, cokernels, orders


def _with_relations(rows: Sequence[Sequence[int]], cols: int, g: FgAbGroup) -> IntMatrix:
    """[rows | d_j e_j per torsion generator of g], for ``rows`` with one row
    per generator of g and ``cols`` columns: it spans them plus g's relations."""
    r, t = g.free_rank, len(g.torsion)
    entries: list[int] = []
    for i, row in enumerate(rows):
        entries += row
        entries += [g.torsion[i - r] if j == i - r else 0 for j in range(t)]
    return IntMatrix(len(rows), cols + t, tuple(entries))


class _CokernelData(namedtuple("_CokernelData", "group proj lifts")):
    __slots__ = ()

    group: FgAbGroup
    proj: list[list[int]]  # rows of the projection: one per quotient generator
    # lifts[j] is a target vector over quotient generator j; empty rows where
    # the ext has no inverse, as for pv._fg_side and H1, which read none
    lifts: list[list[int]]


def _relations_snf(h: GroupHom, inverse: bool = True) -> SnfDecomposition:
    """Smith form of [h | target relations], the ``ext`` of h's kernel and
    cokernel: with u's inverse unless ``inverse`` is false, when its lifts are empty."""
    return _snf_ext(_with_relations(h.matrix.to_rows(), h.matrix.cols, h.target), inverse)


def _cokernel_ext(h: GroupHom, ext: SnfDecomposition | None = None) -> _CokernelData:
    """Normal form of target / im(h): the projection has one row per kept
    generator, and the lifts are its right inverse up to dropped unit summands."""
    target = h.target
    ext = ext or _relations_snf(h)
    free_idx, tors_idx = _split_diag(ext.diag, target.gen_count)
    kept = [*free_idx, *tors_idx]
    proj = [ext.u_rows[i] for i in kept]
    names = _dominant_names(proj, target.gen_names, QUOTIENT_TAG)
    group = FgAbGroup(len(free_idx), tuple(ext.diag[i] for i in tors_idx), names)
    return _CokernelData(group, proj, [ext.uit[i] for i in kept])


class _KernelData(namedtuple("_KernelData", "group source gens")):
    __slots__ = ()

    group: FgAbGroup
    source: FgAbGroup
    gens: list[tuple[int, ...]]  # gens[j] is generator j as a source vector

    inclusion = property(lambda self: GroupHom(self.group, self.source, _from_cols(self.gens, self.source.gen_count)))


def _kernel_ext(h: GroupHom, ext: SnfDecomposition | None = None) -> _KernelData:
    n = h.source.gen_count
    # preimage lattice of the target relation lattice, cut to the source: its
    # vectors are independent, as the relation columns are
    ext = ext or _relations_snf(h, False)
    gens = [tuple(ext.vt[j][:n]) for j in _split_diag(ext.diag, len(ext.vt))[0]]
    torsion = ()
    # with source torsion the kernel is the image of b: Z^k -> source, generator
    # j to cut vector j; it is 0 when every cut vector is, else Z^k / ker(b)
    if h.source.torsion and not any(any(h.source.reduce(g)) for g in gens):
        gens = []
    elif h.source.torsion:
        b = GroupHom(FgAbGroup.free(len(gens)), h.source, _from_cols(gens, n))
        image = _cokernel_ext(_kernel_ext(b).inclusion)
        gens, torsion = [b.matrix.apply(lift) for lift in image.lifts], image.group.torsion
    group = FgAbGroup(len(gens) - len(torsion), torsion, _dominant_names(gens, h.source.gen_names, ""))
    return _KernelData(group, h.source, gens)


def element_order(g: FgAbGroup, elem: Sequence[int]) -> int | float:
    """Least k >= 1 with k * elem = 0 in g, or math.inf if none."""
    if len(elem) != g.gen_count:
        raise ValueError("element length does not match generator count")
    if any(elem[: g.free_rank]):
        return math.inf
    k = 1
    for j, d in enumerate(g.torsion):
        c = elem[g.free_rank + j] % d
        if c:
            k = math.lcm(k, d // math.gcd(d, c))
    return k


def is_isomorphic(g1: FgAbGroup, g2: FgAbGroup) -> bool:
    """Normal forms are unique, so this is a direct comparison."""
    return g1.free_rank == g2.free_rank and g1.torsion == g2.torsion


def solve(h: GroupHom, target_vec: Sequence[int]) -> tuple[int, ...] | None:
    """Some x with h(x) = target_vec in the target group, or None.

    Solutions are sought over the source generators as an integer vector;
    equality in the target is modulo its relation lattice.
    """
    if len(target_vec) != h.target.gen_count:
        raise ValueError("vector length does not match target generator count")
    ext = _relations_snf(h, False)
    free_idx, _ = _split_diag(ext.diag, h.target.gen_count)
    y = [sum(x * t for x, t in zip(row, target_vec)) for row in ext.u_rows]
    if any(y[i] for i in free_idx):
        return None
    w = [0] * len(ext.vt)
    for i, d in enumerate(ext.diag):
        if d:
            w[i], rem = divmod(y[i], d)
            if rem:
                return None
    return tuple(sum(wk * col[i] for wk, col in zip(w, ext.vt)) for i in range(h.source.gen_count))


def generates(g: FgAbGroup, vec: Sequence[int]) -> bool:
    """Does the cyclic subgroup generated by ``vec`` equal all of g? A normal
    form is cyclic exactly when it has at most one generator."""
    v = g.reduce(vec)
    if g.gen_count != 1:
        return g.gen_count == 0
    return abs(v[0]) == 1 if g.free_rank else math.gcd(v[0], g.torsion[0]) == 1


# ---------------------------------------------------------------------------
# JSON forms

# Every reader checks its input by three rules: a value of one exact type, a
# field that is required or has a default, and a list of values of one type.
# A failed rule names the path to the value, such as ``k0.group.torsion[2]``,
# and quotes the value shortened by reprlib, so its error stays one short line.

_JSON_KINDS = {int: "an integer", str: "a string", list: "a list", dict: "an object"}
_REQUIRED = object()


def json_fail(path: str, want: str, value):
    raise ValueError(f"{path} must be {want}, found {reprlib.repr(value)}")


def _fits(value, kind) -> bool:
    if type(kind) is list:
        return type(value) is list and {*map(type, value)} <= {*kind}
    return type(value) is kind


def json_value(value, kind, path: str):
    """``value``, checked against ``kind``: a type, which must be the value's
    exact type (JSON ``true`` is no integer), or ``[t]``, a list of values of
    type t. The path of a list entry is built only when the entry fails."""
    if not _fits(value, kind):
        if type(kind) is not list:
            json_fail(path, _JSON_KINDS[kind], value)
        if type(value) is not list:
            json_fail(path, f"a list of {_JSON_KINDS[kind[0]].split()[1]}s", value)
        i = next(i for i, x in enumerate(value) if type(x) is not kind[0])
        json_value(value[i], kind[0], f"{path}[{i}]")
    return value


def json_field(data: dict, key: str, kind, path: str, default=_REQUIRED):
    """Field ``key`` of the object ``data`` at ``path`` ("" for the root),
    checked against ``kind`` as by ``json_value``. A field with a default may
    be absent, one whose default is None may also be null, and one without a
    default is required."""
    value = data.get(key, default)
    if _fits(value, kind) or value is default is not _REQUIRED:
        return value
    at = f"{path}.{key}" if path else key
    if value is _REQUIRED:
        raise ValueError(f"{at} is missing")
    return json_value(value, kind, at)


def matrix_from_json(data, path: str) -> IntMatrix:
    rows = json_value(data, [list], path)
    try:
        return IntMatrix.from_rows(rows)
    except ValueError:  # name the first entry that is no integer, else the shape
        for i, row in enumerate(rows):
            json_value(row, [int], f"{path}[{i}]")
        json_fail(path, "a list of rows of one length", rows)


def group_to_json(g: FgAbGroup) -> dict:
    return {"free_rank": g.free_rank, "torsion": list(g.torsion), "gens": list(g.gen_names)}


def group_from_json(data, path: str) -> FgAbGroup:
    names = json_field(json_value(data, dict, path), "gens", [str], path, None)
    torsion = json_field(data, "torsion", [int], path, [])
    return FgAbGroup(json_field(data, "free_rank", int, path), torsion, names)
