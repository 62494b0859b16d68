"""Kernel, cokernel, solve and the staged colimit check on plain rows.

The row-list interiors are checked entry for entry against the record-based
versions kept in ``helpers``, and a budget test pins how many validated
records and Smith forms one two-sided comparison costs.
"""

import random
import sys

from bs_ktheory import abelian, bc, colimit, pv
from bs_ktheory.abelian import FgAbGroup, GroupHom, IntMatrix
from bs_ktheory.colimit import ColimModule, LadderMap, ladder_cokernel, ladder_kernel
from helpers import (
    compose,
    group_order_multiset,
    is_zero,
    ladder_cokernel_oracle,
    ladder_kernel_oracle,
    one_by_one,
    one_generator_colimit,
    one_generator_entry,
    one_generator_stage,
    polynomial_in,
    projection,
    random_finite_group,
    random_group,
    random_hom,
    random_selfmap,
    reference_cokernel_ext,
    reference_integer_kernel_basis,
    reference_kernel_ext,
    reference_solve,
    reference_stable_kernel,
)

GRID = [n for n in range(-64, 65) if n not in (0, 1)]


def columns(m: IntMatrix) -> list[list[int]]:
    return [list(m.col(j)) for j in range(m.cols)]


class TestMatchesRecordBased:
    def test_cokernel(self):
        rng = random.Random(61)
        for _ in range(200):
            h = random_hom(rng)
            data, ref = abelian._cokernel_ext(h), reference_cokernel_ext(h)
            assert data.group == ref.group, h
            assert projection(data, h.target) == ref.projection, h
            assert ref.section.rows == h.target.gen_count
            assert [list(lift) for lift in data.lifts] == columns(ref.section), h

    def test_kernel(self):
        rng = random.Random(62)
        for _ in range(200):
            h = random_hom(rng)
            data, ref = abelian._kernel_ext(h), reference_kernel_ext(h)
            assert data.group == ref.group, h
            assert data.inclusion == ref.inclusion, h

    def test_solve(self):
        rng = random.Random(63)
        for _ in range(200):
            h = random_hom(rng)
            targets = [h.apply(tuple(rng.randint(-5, 5) for _ in range(h.source.gen_count)))]
            targets.append(tuple(rng.randint(-5, 5) for _ in range(h.target.gen_count)))
            for y in targets:
                assert abelian.solve(h, y) == reference_solve(h, y), (h, y)

    def test_integer_kernel_basis(self):
        """A kernel between free groups is the lattice basis of {x : a x = 0}."""
        rng = random.Random(64)
        for _ in range(200):
            r, c = rng.randint(0, 4), rng.randint(0, 5)
            a = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)], cols=c)
            k = abelian._kernel_ext(GroupHom(FgAbGroup.free(c), FgAbGroup.free(r), a))
            assert k.group == FgAbGroup.free(len(k.gens), k.group.gen_names), a
            assert k.gens == reference_integer_kernel_basis(a), a

    def test_stable_kernel(self):
        rng = random.Random(65)
        for _ in range(150):
            g = random_group(rng)
            c = ColimModule(g, random_selfmap(rng, g))
            k = colimit._stable_kernel(c)
            assert (k.group, k.inclusion) == reference_stable_kernel(c), c
        # a stage with no generators is settled by the loop's first probe,
        # ker(bond^2) = 0, as it was by the kernel of the bond
        empty = ColimModule(FgAbGroup.trivial(), GroupHom.identity(FgAbGroup.trivial()))
        assert colimit._stable_kernel(empty) == abelian._kernel_ext(empty.bond)
        # Z and Z/d, d small or 10^30-sized, with bonds 0, +-1, multiples of d
        # or of a divisor of d, and 10^30-sized entries: an injective bond on
        # Z/d is settled by a gcd, with the kernel one Smith form gave
        injective = 0
        for _ in range(1500):
            c = one_generator_colimit(rng)
            k = colimit._stable_kernel(c)
            assert (k.group, k.inclusion) == reference_stable_kernel(c), c
            if k.group.is_trivial:
                assert k == abelian._kernel_ext(c.bond), c
                injective += bool(c.stage.torsion)
        assert injective >= 300, injective

    def test_ladders_match_oracles(self):
        rng = random.Random(66)
        cases = []
        for _ in range(60):
            g = random_finite_group(rng)
            bond = random_selfmap(rng, g)
            cases.append((g, bond, polynomial_in(bond, [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])))
        # 1x1 bonds and rungs on Z/d: 0, +-1, multiples of d or of a divisor
        # of d, and 10^30-sized entries; many stage kernels and cokernels are trivial
        for _ in range(300):
            g, d, p = one_generator_stage(rng, small_only=True)
            cases.append((g, *(one_by_one(g, g, one_generator_entry(rng, d, p)) for _ in range(2))))
        for g, bond, rung in cases:
            c = ColimModule(g, bond)
            m = LadderMap(c, c, rung)
            kernel, cokernel = ladder_kernel(m), ladder_cokernel(m)
            assert isinstance(kernel, FgAbGroup) and isinstance(cokernel, FgAbGroup)
            assert group_order_multiset(kernel) == ladder_kernel_oracle(g, bond, rung)
            assert group_order_multiset(cokernel) == ladder_cokernel_oracle(g, bond, rung)


def shared_path_maps():
    """Seeded maps for the solver's shared path: free sources of rank 0 to 8,
    finite sources, and sources with free and torsion parts."""
    rng = random.Random(67)
    for rank in range(9):
        for _ in range(15):
            yield random_hom(rng, source=FgAbGroup.free(rank), target=random_group(rng, max_free=3))
    for _ in range(60):
        yield random_hom(rng, source=random_finite_group(rng))
    for _ in range(60):
        source = random_group(rng)
        if source.torsion:
            yield random_hom(rng, source=source)


class TestSharedSmithForm:
    """``pv._fg_side`` reads the kernel and the cokernel of one map off one
    ``_relations_snf`` call; both must equal the record-based references
    field for field, and the calls that take their own Smith forms."""

    def test_matches_references(self):
        for h in shared_path_maps():
            ext = abelian._relations_snf(h)
            coker, ker = abelian._cokernel_ext(h, ext), abelian._kernel_ext(h, ext)
            ref_coker, ref_ker = reference_cokernel_ext(h), reference_kernel_ext(h)
            assert coker.group == ref_coker.group, h  # a group's equality takes in its names
            assert projection(coker, h.target) == ref_coker.projection, h
            assert [list(lift) for lift in coker.lifts] == columns(ref_coker.section), h
            assert ker.group == ref_ker.group, h
            assert ker.gens == [tuple(col) for col in columns(ref_ker.inclusion.matrix)], h
            assert ker.inclusion == ref_ker.inclusion, h
            assert abelian._cokernel_ext(h) == coker, h
            assert abelian._kernel_ext(h) == ker, h

    def test_smith_forms_taken(self, monkeypatch):
        """A kernel takes one Smith form when its source is free or it is
        trivial, and three otherwise (the kernel of its lift, then that
        kernel's cokernel); the shared pair of kernel and cokernel takes the
        same. The inputs hold both kinds of kernel on a source with torsion."""
        calls = []
        snf = abelian._snf_ext
        monkeypatch.setattr(abelian, "_snf_ext", lambda a, track: calls.append(track) or snf(a, track))
        kinds = {1: 0, 3: 0}
        for h in shared_path_maps():
            expected = 3 if h.source.torsion and not reference_kernel_ext(h).group.is_trivial else 1
            kinds[expected] += bool(h.source.torsion)
            calls.clear()
            abelian._kernel_ext(h)
            assert len(calls) == expected, h
            calls.clear()
            ext = abelian._relations_snf(h)
            abelian._cokernel_ext(h, ext)
            abelian._kernel_ext(h, ext)
            assert len(calls) == expected, h
        assert kinds == {1: 11, 3: 91}


def patch_snf(monkeypatch, wrapped) -> None:
    """Put ``wrapped`` in place of ``_snf_ext`` in every package namespace."""
    snf = abelian._snf_ext
    for name, module in list(sys.modules.items()):
        if name == "bs_ktheory" or name.startswith("bs_ktheory."):
            for key, value in list(vars(module).items()):
                if value is snf:
                    monkeypatch.setattr(module, key, wrapped)


class TestRecordBudget:
    def test_grid_records_and_smith_forms(self, monkeypatch):
        """Over n in [-64, 64] minus {0, 1}, bc_compare runs 508 Smith forms (one
        traced span each), 4 at every n, and builds at most 110 records a
        call, counted as perfbench/spans.py counts them. A kernel on a free
        source reads its group off the first Smith form, and the solver's
        kernel and cokernel of Id - alpha share one: 2,280 before either. A
        trivial kernel on a source with torsion is settled at the first Smith
        form too, as the injective bond of every normalized Z/|1 - n| is:
        1,390 before that. ``generates`` reads the normal form, the staged
        kernel and cokernel of Id - alpha on Z[1/n] share one, and an empty
        stage's kernel takes none: 1,140 before those. An injective bond on
        Z/d is found by a gcd, and a trivial stage kernel or cokernel is
        returned as it is: 633, at most 5 a call, before those."""
        counts = {"records": 0, "snf": 0}

        def counted(fn, key):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)

            return wrapper

        for cls in (IntMatrix, FgAbGroup, GroupHom):
            monkeypatch.setattr(cls, "__post_init__", counted(cls.__dict__["__post_init__"], "records"))
        patch_snf(monkeypatch, counted(abelian._snf_ext, "snf"))

        per_call = {}
        for n in GRID:
            before = counts["snf"]
            assert bc.bc_compare(n).verdict
            per_call[n] = counts["snf"] - before
        assert counts["snf"] == 508
        assert set(per_call.values()) == {4}
        assert counts["records"] / len(GRID) <= 110

    def test_staged_pair_shares_one_smith_form(self, monkeypatch):
        """_loc_side runs one Smith form in all, normalize included, shared by
        its staged kernel and cokernel. The bond n on the staged cokernel
        Z/|1 - n| is injective by gcd, and the trivial staged kernel (and a
        trivial staged cokernel) is returned without normalize."""
        calls, normalized = [], []
        snf, normalize = abelian._snf_ext, colimit.normalize
        patch_snf(monkeypatch, lambda a, track: calls.append(a) or snf(a, track))
        monkeypatch.setattr(colimit, "normalize", lambda c: normalized.append(c.stage) or normalize(c))
        for n in GRID:
            if abs(n) < 2:
                continue
            kinput = pv.bs_input(n)
            calls.clear()
            normalized.clear()
            pv._loc_side(kinput.k1, kinput.alpha1, 1)
            assert len(calls) == 1, n
            assert [g.torsion for g in normalized] == ([(abs(1 - n),)] if n != 2 else []), n

    def test_golden_staged_inputs(self, monkeypatch):
        """pv_solve on the recorded inputs whose rung r is not n: the stable
        kernel of a non-injective bond starts at ker(bond^2), with no probe of
        ker(bond) before it (10/10/16/10/3 Smith forms with one), and stops at
        the first power of two past the chain's length (7/7/13/7/3 when it
        bisected back to the least one)."""
        calls = []
        snf = abelian._snf_ext
        patch_snf(monkeypatch, lambda a, track: calls.append(a) or snf(a, track))
        taken = []
        for n, r in ((6, 3), (4, -1), (10, 5), (12, -3), (3, -1)):
            data = pv.kinput_to_json(pv.bs_input(n))
            data["alpha1"] = {"rung": r}
            kinput = pv.kinput_from_json(data)
            calls.clear()
            pv.pv_solve(kinput)
            taken.append(len(calls))
        assert taken == [7, 7, 10, 7, 3]


class TestInverseTracked:
    """u's inverse is tracked only by a Smith form whose cokernel lifts are read."""

    def record_flags(self, monkeypatch) -> list:
        flags = []
        snf = abelian._snf_ext
        patch_snf(monkeypatch, lambda a, inverse: flags.append(inverse) or snf(a, inverse))
        return flags

    def test_bc_compare(self, monkeypatch):
        flags = self.record_flags(monkeypatch)
        assert bc.bc_compare(5).verdict
        # the abelianization, the finitely generated side, the staged pair
        # (its cokernel's lifts induce the bond), then solve
        assert flags == [False, False, True, False]

    def test_cokernel_without_ext(self, monkeypatch):
        flags = self.record_flags(monkeypatch)
        z = FgAbGroup.free(1)
        assert abelian._cokernel_ext(GroupHom(z, z, IntMatrix(1, 1, (4,)))).lifts == [[1]]
        assert flags == [True]


def chain_length(c: ColimModule) -> int:
    """The least s with ker(bond^(s+1)) = ker(bond^s), by record-based kernels."""
    prev, s = GroupHom.identity(c.stage), 0
    while True:
        power = compose(c.bond, prev)
        if is_zero(compose(prev, reference_kernel_ext(power).inclusion)):
            return s
        prev, s = power, s + 1


def long_chain_colimit(rng, length: int, multi: bool) -> ColimModule:
    """A colimit whose kernel chain has between ``length`` - f and ``length``
    steps, f <= min(6, length - 3). One generator: Z/p^length with bond p u, u
    prime to p. Several: Z^(f+1) with ones above the diagonal and zeros on it
    but m != 0 last, mixed by a unimodular change of basis; Z/p^j + Z/p^(length - f) with bond
    p M, M invertible mod p, so its chain has length - f steps; and a random
    block from the free part into the torsion."""
    p = rng.choice((2, 3, 5))
    units = [x for x in range(-7, 8) if x % p]
    if not multi:
        g = FgAbGroup(0, (p**length,))
        return ColimModule(g, GroupHom(g, g, IntMatrix(1, 1, (p * rng.choice(units),))))
    f = rng.randint(0, min(6, length - 3))
    top = length - f
    j = rng.randint(1, top)
    g = FgAbGroup(f + 1, (p**j, p**top))
    free = [[int(c == r + 1) for c in range(f + 1)] for r in range(f + 1)]
    free[f][f] = rng.choice((-3, -2, -1, 1, 2, 3))
    u_rows = [[int(r == c) for c in range(f + 1)] for r in range(f + 1)]
    u_inv = [row[:] for row in u_rows]
    for _ in range(2 * f):  # row i += k row h on U, column h -= k column i on U^-1
        i, h = rng.sample(range(f + 1), 2)
        k = rng.randint(-2, 2)
        u_rows[i] = [a + k * b for a, b in zip(u_rows[i], u_rows[h])]
        for row in u_inv:
            row[h] -= k * row[i]
    free = (IntMatrix.from_rows(u_rows) @ IntMatrix.from_rows(free) @ IntMatrix.from_rows(u_inv)).to_rows()
    # M is triangular mod p with unit diagonal; its lower entry keeps Z/p^j's image of order p^j
    t = [[rng.choice(units), rng.randint(-5, 5)], [p ** max(top - j, 1) * rng.randint(-3, 3), rng.choice(units)]]
    rows = [free[r] + [0, 0] for r in range(f + 1)]
    rows += [[rng.randint(-5, 5) for _ in range(f + 1)] + [p * x for x in t[r]] for r in range(2)]
    return ColimModule(g, GroupHom(g, g, IntMatrix.from_rows(rows, cols=g.gen_count)))


def long_chain_colimits():
    rng = random.Random(68)
    for length in range(3, 41):
        for multi in (False, True, True):
            yield long_chain_colimit(rng, length, multi)


def shape(obj) -> tuple:
    if isinstance(obj, colimit.LocObject):
        return "loc", obj.loc.n, obj.torsion.torsion
    return "fg", obj.free_rank, obj.torsion


class TestLongChains:
    """Kernel chains of 3 to 40 steps: the stable kernel is read at the first
    power of two past the chain's length, not at its least stopping point."""

    def test_chain_lengths(self):
        lengths = [chain_length(c) for c in long_chain_colimits()]
        assert set(lengths) == set(range(3, 41))

    def test_spans_the_reference_subgroup(self):
        for c in long_chain_colimits():
            k = colimit._stable_kernel(c)
            _, ref = reference_stable_kernel(c)
            assert all(abelian.solve(ref, x) is not None for x in k.gens), c
            assert all(abelian.solve(k.inclusion, tuple(x)) is not None for x in columns(ref.matrix)), c

    def test_normalize_matches_the_reference(self, monkeypatch):
        cases = list(long_chain_colimits())
        found = [shape(colimit.normalize(c)) for c in cases]

        def from_reference(c):
            group, inc = reference_stable_kernel(c)
            return abelian._KernelData(group, c.stage, [tuple(x) for x in columns(inc.matrix)])

        monkeypatch.setattr(colimit, "_stable_kernel", from_reference)
        assert found == [shape(colimit.normalize(c)) for c in cases]
        assert {kind for kind, *_ in found} == {"fg", "loc"}

    def test_smith_forms_on_two_power_chains(self, monkeypatch):
        """normalize on Z/2^k with bond 2: 22/37/58/70 Smith forms when the
        least stopping point was bisected for, with powers by squaring."""
        calls = []
        snf = abelian._snf_ext
        patch_snf(monkeypatch, lambda a, track: calls.append(a) or snf(a, track))
        taken = []
        for k in (10, 100, 1000, 4000):
            g = FgAbGroup(0, (2**k,))
            calls.clear()
            assert colimit.normalize(ColimModule(g, GroupHom(g, g, IntMatrix(1, 1, (2,))))).is_trivial
            taken.append(len(calls))
        assert taken == [16, 25, 34, 40]
