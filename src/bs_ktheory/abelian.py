"""Exact calculus of finitely generated abelian groups.

Groups are kept in invariant-factor normal form (a free rank plus a
divisibility chain d1 | d2 | ...), homomorphisms are integer matrices in
the chosen generating sets, and kernels, cokernels, element orders and
isomorphism all reduce to Smith normal form over the integers. Every step
uses Python ints, so the arithmetic is exact at any magnitude.

There is one Smith-form core, ``_snf_ext``: it reduces by nearest
remainders, clearing the pivot's column and then its row by passes local to
each. It returns one result type, ``SnfDecomposition``: the diagonal and
the transforms its caller asks for, among u, v and u's inverse, tracked
during elimination rather than inverted after and kept as the row lists the
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
from collections import namedtuple
from collections.abc import Sequence
from functools import lru_cache

# ---------------------------------------------------------------------------
# integer matrices


class IntMatrix(namedtuple("IntMatrix", "rows cols entries")):
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
        r = len(rows)
        if r == 0:
            return cls(0, cols or 0, ())
        c = len(rows[0])
        flat: list[int] = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(r, c, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def column(cls, vec: Sequence[int]) -> "IntMatrix":
        return cls(len(vec), 1, tuple(vec))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix(self.rows, other.cols, _product(self, other))

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(x * y for x, y in zip(self.row(i), vec)) for i in range(self.rows))

    def det(self) -> int:
        """Exact determinant via fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = self.to_rows()
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
    """A Smith normal form u @ a @ v = s, with the transforms its caller tracked.

    ``u`` and ``v`` are unimodular, and ``u @ u_inv`` is the identity.
    ``diag`` is the diagonal of s: nonzero entries are positive, each
    divides the next, and zeros come last, so it runs units, then torsion
    entries, then zeros.

    The transforms are stored as the row lists elimination leaves: the rows
    of u (``u_rows``) and the columns of v (``vt``) and of u_inv (``uit``),
    one empty row each where untracked. The matrices ``u``, ``v``,
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


@lru_cache(maxsize=64)
def _identity_tuple(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _snf_ext(a: IntMatrix, track: Sequence[str]) -> SnfDecomposition:
    """Smith normal form with the transforms named in ``track`` alongside.

    ``track`` names the transforms to keep, among ``("u_rows", "vt",
    "uit")``; each other one is a list of empty rows, which every update
    below leaves empty at next to no cost.

    Position t starts from the nonzero entry of least absolute value in the
    trailing submatrix, first in row-major order, so the output is
    deterministic. An entry e is reduced by the nearest multiple q * p of
    the pivot p: |e - q * p| <= |p| / 2, and at equality q = e // p. Column
    t is cleared by passes within it, each ending with the row of least
    remainder as the new pivot row; row t is cleared the same way, the
    column of its least remainder becoming column t. Unless the pivot is a
    unit, the first row with an entry it does not divide is then added to
    row t, and both are cleared again.

    Rows t and below are zero left of column t, so a row operation rewrites
    only the suffix from column t, and a column operation only row t. The
    tracked transforms are updated whole; ``u_inv`` and ``v`` are kept
    transposed (``uit``, ``vt``) so that every update replaces whole rows.
    """
    r, c = a.rows, a.cols
    m = [list(a.entries[i * c : (i + 1) * c]) for i in range(r)]
    u, uit, vt = (
        [list(row) for row in (_identity_tuple(n) if name in track else ((),) * n)]
        for name, n in (("u_rows", r), ("uit", r), ("vt", c))
    )

    t = 0
    limit = min(r, c)
    while t < limit:
        # no entry beats a unit, so the scan stops after the row holding one
        pivot, least = None, 0
        for i in range(t, r):
            for j, e in enumerate(m[i][t:], t):
                if e and (pivot is None or abs(e) < least):
                    pivot, least = (i, j), abs(e)
            if least == 1:
                break
        if pivot is None:
            break
        i, j = pivot
        while True:
            if i != t:
                m[t], m[i] = m[i], m[t]
                u[t], u[i] = u[i], u[t]
                uit[t], uit[i] = uit[i], uit[t]
            if j != t:
                for row in m[t:]:
                    row[t], row[j] = row[j], row[t]
                vt[t], vt[j] = vt[j], vt[t]
            top = m[t]
            p, tail = top[t], top[t:]
            i = j = t  # to become the row, then the column, of the least remainder
            low = 0
            for k in range(t + 1, r):
                row = m[k]
                if row[t]:
                    q, e = divmod(row[t], p)
                    if 2 * abs(e) > abs(p):
                        q, e = q + 1, e - p
                    if q:
                        row[t:] = [x - q * y for x, y in zip(row[t:], tail)]
                        u[k] = [x - q * y for x, y in zip(u[k], u[t])]
                        uit[t] = [x + q * y for x, y in zip(uit[t], uit[k])]
                    if e and (i == t or abs(e) < low):
                        i, low = k, abs(e)
            if i != t:
                continue

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
            if j != t:
                continue

            # the divisibility chain: the pivot must divide the rest
            if abs(p) != 1:
                k = next((h for h in range(t + 1, r) if any(x % p for x in m[h][t + 1 :])), t)
                if k != t:
                    top[t + 1 :] = m[k][t + 1 :]
                    u[t] = [x + y for x, y in zip(u[t], u[k])]
                    uit[k] = [x - y for x, y in zip(uit[k], uit[t])]
                    continue
            break

        if top[t] < 0:
            top[t] = -top[t]
            u[t] = [-x for x in u[t]]
            uit[t] = [-x for x in uit[t]]
        t += 1

    return SnfDecomposition(tuple(m[i][i] for i in range(limit)), u, vt, uit)


def smith_normal_form(a: IntMatrix) -> SnfDecomposition:
    """Diagonalize ``a`` by unimodular row and column operations.

    Works on any rectangular matrix, including empty ones. The result is
    deterministic, and carries ``u`` and ``v`` but not their inverses.
    """
    return _snf_ext(a, ("u_rows", "vt"))


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


def _default_names(count: int) -> tuple[str, ...]:
    return tuple(f"g{i}" for i in range(count))


class FgAbGroup(namedtuple("FgAbGroup", "free_rank torsion gen_names")):
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
            gen_names = _default_names(free_rank + len(torsion))
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
                raise ValueError(f"torsion {tors} is not a divisibility chain")
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

    @classmethod
    def cyclic(cls, d: int, name: str = "t") -> "FgAbGroup":
        if d == 0:
            return cls(1, (), (name,))
        if abs(d) == 1:
            return cls.trivial()
        return cls(0, (abs(d),), (name,))

    @property
    def gen_count(self) -> int:
        return self.free_rank + len(self.torsion)

    @property
    def is_trivial(self) -> bool:
        return self.gen_count == 0

    def order(self) -> int | float:
        if self.free_rank > 0:
            return math.inf
        n = 1
        for d in self.torsion:
            n *= d
        return n

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


class GroupHom(namedtuple("GroupHom", "source target matrix")):
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
        for j, d in enumerate(self.source.torsion):
            col = self.matrix.col(self.source.free_rank + j)
            image = self.target.reduce(tuple(d * x for x in col))
            if any(image):
                raise ValueError(
                    f"not well-defined on torsion: generator of order {d} "
                    f"maps to an element not killed by {d}"
                )

    @classmethod
    def identity(cls, g: FgAbGroup) -> "GroupHom":
        return cls(g, g, IntMatrix.identity(g.gen_count))

    @classmethod
    def zero(cls, source: FgAbGroup, target: FgAbGroup) -> "GroupHom":
        return cls(source, target, IntMatrix.zeros(target.gen_count, source.gen_count))

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        return self.target.reduce(self.matrix.apply(vec))

    def compose(self, other: "GroupHom") -> "GroupHom":
        """self o other (apply ``other`` first)."""
        if other.target != self.source:
            raise ValueError("composition mismatch")
        return GroupHom(other.source, self.target, self.matrix @ other.matrix)

    def is_zero(self) -> bool:
        return all(not any(self.apply(_basis_vec(self.source.gen_count, j))) for j in range(self.source.gen_count))


def _basis_vec(n: int, j: int) -> tuple[int, ...]:
    return tuple(1 if i == j else 0 for i in range(n))


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
    """The names in order; a repeat gets its occurrence number as a suffix."""
    seen: dict[str, int] = {}
    out = []
    for name in candidates:
        count = seen.get(name, 0)
        seen[name] = count + 1
        out.append(name if count == 0 else f"{name}{count + 1}")
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


class _CokernelData(namedtuple("_CokernelData", "group target proj lifts")):
    __slots__ = ()

    group: FgAbGroup
    target: FgAbGroup
    proj: list[list[int]]  # rows of the projection: one per quotient generator
    lifts: list[list[int]]  # lifts[j] is a target vector over quotient generator j

    projection = property(
        lambda self: GroupHom(self.target, self.group, IntMatrix.from_rows(self.proj, cols=self.target.gen_count))
    )


def _cokernel_ext(h: GroupHom) -> _CokernelData:
    """Normal form of target / im(h): the projection has one row per kept
    generator, and the lifts are its right inverse up to dropped unit summands."""
    target = h.target
    ext = _snf_ext(_with_relations(h.matrix.to_rows(), h.matrix.cols, target), ("u_rows", "uit"))
    free_idx, tors_idx = _split_diag(ext.diag, target.gen_count)
    kept = [*free_idx, *tors_idx]
    proj = [ext.u_rows[i] for i in kept]
    names = _dominant_names(proj, target.gen_names, QUOTIENT_TAG)
    group = FgAbGroup(len(free_idx), tuple(ext.diag[i] for i in tors_idx), names)
    return _CokernelData(group, target, proj, [ext.uit[i] for i in kept])


def cokernel(h: GroupHom) -> tuple[FgAbGroup, GroupHom]:
    """The cokernel target/im(h) in normal form, with the projection map.

    Generator names derive from target names with a quotient tag, so
    tracked generator symbols survive quotienting.
    """
    data = _cokernel_ext(h)
    return data.group, data.projection


def integer_kernel_basis(a: IntMatrix) -> list[tuple[int, ...]]:
    """A lattice basis of {x : a x = 0} over the integers."""
    ext = _snf_ext(a, ("vt",))
    free_idx, _ = _split_diag(ext.diag, a.cols)
    return [tuple(ext.vt[j]) for j in free_idx]


class _KernelData(namedtuple("_KernelData", "group source gens")):
    __slots__ = ()

    group: FgAbGroup
    source: FgAbGroup
    gens: list[tuple[int, ...]]  # gens[j] is generator j as a source vector

    inclusion = property(lambda self: GroupHom(self.group, self.source, _from_cols(self.gens, self.source.gen_count)))


def _kernel_ext(h: GroupHom) -> _KernelData:
    n = h.source.gen_count
    # preimage lattice of the target relation lattice
    a = _with_relations(h.matrix.to_rows(), h.matrix.cols, h.target)
    generators = [vec[:n] for vec in integer_kernel_basis(a)]
    k = len(generators)

    # relations among those generators, modulo the source relation lattice
    b_rows = [[g[i] for g in generators] for i in range(n)]
    rel_gens = [vec[:k] for vec in integer_kernel_basis(_with_relations(b_rows, k, h.source))]

    ext = _snf_ext(_from_cols(rel_gens, k), ("uit",))
    free_idx, tors_idx = _split_diag(ext.diag, k)
    gens = [
        tuple(sum(c * g[i] for c, g in zip(ext.uit[j], generators)) for i in range(n))
        for j in (*free_idx, *tors_idx)
    ]
    torsion = tuple(ext.diag[i] for i in tors_idx)
    group = FgAbGroup(len(free_idx), torsion, _dominant_names(gens, h.source.gen_names, ""))
    return _KernelData(group, h.source, gens)


def kernel(h: GroupHom) -> tuple[FgAbGroup, GroupHom]:
    """The kernel of ``h`` in normal form, with its inclusion into the source."""
    data = _kernel_ext(h)
    return data.group, data.inclusion


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
    ext = _snf_ext(_with_relations(h.matrix.to_rows(), h.matrix.cols, h.target), ("u_rows", "vt"))
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
    """Does the cyclic subgroup generated by ``vec`` equal all of g?"""
    ext = _snf_ext(_with_relations([[x] for x in g.reduce(vec)], 1, g), ())
    return not any(_split_diag(ext.diag, g.gen_count))


# ---------------------------------------------------------------------------
# JSON forms


def matrix_to_json(m: IntMatrix) -> list[list[int]]:
    return m.to_rows()


def json_int(value, what: str) -> int:
    """An integer read from JSON; bool, float and str are rejected, not coerced."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, found {value!r}")
    return value


def matrix_from_json(data) -> IntMatrix:
    if not isinstance(data, list) or any(not isinstance(r, list) for r in data):
        raise ValueError("matrix JSON must be a list of rows")
    return IntMatrix.from_rows([[json_int(x, "a matrix entry") for x in row] for row in data])


def group_to_json(g: FgAbGroup) -> dict:
    return {"free_rank": g.free_rank, "torsion": list(g.torsion), "gens": list(g.gen_names)}


def group_from_json(data: dict) -> FgAbGroup:
    if not isinstance(data, dict) or "free_rank" not in data:
        raise ValueError("group JSON must carry free_rank, torsion, gens")
    names = data.get("gens")
    torsion = data.get("torsion", [])
    if not isinstance(torsion, list):
        raise ValueError("group torsion must be a list of integers")
    if names is not None and (not isinstance(names, list) or not all(isinstance(x, str) for x in names)):
        raise ValueError("group gens must be a list of names")
    tors = tuple(json_int(d, "a torsion coefficient") for d in torsion)
    return FgAbGroup(json_int(data["free_rank"], "free_rank"), tors, tuple(names) if names is not None else None)

