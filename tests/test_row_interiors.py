"""Kernel, cokernel, solve and the staged colimit check on plain rows.

The row-list interiors are checked entry for entry against the record-based
versions kept in ``helpers``, and a budget test pins how many validated
records and Smith forms one two-sided comparison costs.
"""

import random
import sys

from bs_ktheory import abelian, bc, colimit
from bs_ktheory.abelian import FgAbGroup, GroupHom, IntMatrix
from bs_ktheory.colimit import ColimModule, LadderMap, ladder_cokernel, ladder_kernel
from helpers import (
    group_order_multiset,
    ladder_cokernel_oracle,
    ladder_kernel_oracle,
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
        rng = random.Random(64)
        for _ in range(200):
            r, c = rng.randint(0, 4), rng.randint(0, 5)
            a = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)], cols=c)
            assert abelian.integer_kernel_basis(a) == reference_integer_kernel_basis(a), a

    def test_stable_kernel(self):
        rng = random.Random(65)
        for _ in range(150):
            g = random_group(rng)
            c = ColimModule(g, random_selfmap(rng, g))
            k = colimit._stable_kernel(c)
            assert (k.group, k.inclusion) == reference_stable_kernel(c), c

    def test_ladders_match_oracles(self):
        rng = random.Random(66)
        for _ in range(60):
            g = random_finite_group(rng)
            bond = random_selfmap(rng, g)
            c = ColimModule(g, bond)
            rung = polynomial_in(bond, [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
            m = LadderMap(c, c, rung)
            kernel, cokernel = ladder_kernel(m), ladder_cokernel(m)
            assert isinstance(kernel, FgAbGroup) and isinstance(cokernel, FgAbGroup)
            assert group_order_multiset(kernel) == ladder_kernel_oracle(g, bond, rung)
            assert group_order_multiset(cokernel) == ladder_cokernel_oracle(g, bond, rung)


class TestRecordBudget:
    def test_grid_records_and_smith_forms(self, monkeypatch):
        """Over n in [-64, 64] minus {0, 1}, bc_compare keeps every Smith form
        (2,280, one traced span each) and builds at most 110 records a call,
        counted as perfbench/spans.py counts them."""
        counts = {"records": 0, "snf": 0}

        def counted(fn, key):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)

            return wrapper

        for cls in (IntMatrix, FgAbGroup, GroupHom):
            monkeypatch.setattr(cls, "__post_init__", counted(cls.__dict__["__post_init__"], "records"))
        snf = abelian._snf_ext
        wrapped = counted(snf, "snf")
        for name, module in list(sys.modules.items()):
            if name == "bs_ktheory" or name.startswith("bs_ktheory."):
                for key, value in list(vars(module).items()):
                    if value is snf:
                        monkeypatch.setattr(module, key, wrapped)

        for n in GRID:
            assert bc.bc_compare(n).verdict
        assert counts["snf"] == 2280
        assert counts["records"] / len(GRID) <= 110
