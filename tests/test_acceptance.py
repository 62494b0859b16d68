"""Acceptance suite: one test per stated exit criterion.

Every check is exact (integer or rational arithmetic, zero tolerance) and
each test prints a single PASS/FAIL line. Timing limits are asserted where
the criterion states one.
"""

import contextlib
import json
import math
import random
import time

from bs_ktheory.abelian import (
    FgAbGroup,
    GroupHom,
    IntMatrix,
    element_order,
    generates,
    is_isomorphic,
    smith_normal_form,
)
from bs_ktheory.bc import bc_compare, trace_image
from bs_ktheory.cli import main
from bs_ktheory.colimit import (
    ColimModule,
    LadderMap,
    LocObject,
    ladder_cokernel,
    ladder_kernel,
    normalize,
)
from bs_ktheory.pv import bs_input, pv_solve
from helpers import (
    cokernel,
    compose,
    det,
    group_order_multiset,
    is_zero,
    kernel,
    ladder_cokernel_oracle,
    ladder_kernel_oracle,
    minors_invariant_factors,
    polynomial_in,
    random_finite_group,
    random_hom,
    random_selfmap,
)

GRID = list(range(-12, 0)) + list(range(2, 13))


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def test_theorem_reproduction(capsys):
    with criterion("theorem-K-groups"):
        for n in GRID:
            start = time.perf_counter()
            code = main(["--json", "bs", str(n)])
            elapsed = time.perf_counter() - start
            out = capsys.readouterr().out
            assert code == 0
            data = json.loads(out)
            for side in ("lhs", "rhs"):
                assert data[side]["k0"]["free_rank"] == 1
                assert data[side]["k0"]["torsion"] == []
                assert data[side]["k1"]["free_rank"] == 1
                expected = [] if abs(n - 1) == 1 else [abs(n - 1)]
                assert data[side]["k1"]["torsion"] == expected
            sol = pv_solve(bs_input(n))
            unit = sol.ledger_out["[1]"]
            assert element_order(sol.k0_crossed, unit.vector) == math.inf
            assert generates(sol.k0_crossed, unit.vector)
            assert sol.ledger_out["[a]"].order == math.inf
            assert sol.ledger_out["[b]"].order == (1 if abs(n - 1) == 1 else abs(n - 1))
            assert elapsed < 1.0, f"n={n} took {elapsed:.3f}s"


def test_comparison_reproduction():
    with criterion("two-sided-comparison"):
        for n in GRID:
            start = time.perf_counter()
            report = bc_compare(n)
            elapsed = time.perf_counter() - start
            assert report.verdict
            by_symbol = {m.lhs_symbol: m for m in report.generator_matches}
            assert set(by_symbol) == {"[pt]", "a", "b"}
            assert by_symbol["[pt]"].rhs_symbol == "[1]"
            assert by_symbol["a"].rhs_symbol == "[a]"
            assert by_symbol["b"].rhs_symbol == "[b]"
            assert all(m.matched for m in report.generator_matches)
            assert elapsed < 1.0, f"n={n} took {elapsed:.3f}s"


def test_colimit_identification():
    with criterion("colimit-identification"):
        # the degree-one system normalizes to the localization, the
        # degree-zero system to the integers
        z = FgAbGroup.free(1, ("v",))
        for n in [m for m in range(-12, 13) if abs(m) >= 2]:
            c = ColimModule(z, GroupHom(z, z, IntMatrix(1, 1, (n,))))
            result = normalize(c)
            assert isinstance(result, LocObject)
            assert result.loc.n == n and result.torsion.is_trivial
        k0_system = ColimModule(z, GroupHom.identity(z))
        assert normalize(k0_system) == z

        # randomized grid: staged element-chasing oracle against the
        # ladder kernel/cokernel computations
        rng = random.Random(20240814)
        cases = 0
        while cases < 200:
            g = random_finite_group(rng)
            bond = random_selfmap(rng, g)
            rung = polynomial_in(bond, [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))])
            colim = ColimModule(g, bond)
            m = LadderMap(colim, colim, rung)
            ker = ladder_kernel(m)
            cok = ladder_cokernel(m)
            assert isinstance(ker, FgAbGroup) and isinstance(cok, FgAbGroup)
            assert group_order_multiset(ker) == ladder_kernel_oracle(g, bond, rung)
            assert group_order_multiset(cok) == ladder_cokernel_oracle(g, bond, rung)
            cases += 1


def test_boundary_convention():
    with criterion("boundary-convention"):
        from bs_ktheory.ledger import KClass, KClassLedger

        k0 = FgAbGroup.free(1, ("1",))
        trivial = FgAbGroup.trivial()
        inp_ledger = KClassLedger({"[1]": KClass("k0", (1,), math.inf)})
        from bs_ktheory.pv import KInput

        inp = KInput(k0, trivial, GroupHom.identity(k0), GroupHom.identity(trivial), inp_ledger)

        with_rule = pv_solve(inp, apply_boundary_rule=True)
        assert is_isomorphic(with_rule.k0_crossed, FgAbGroup(1))
        assert is_isomorphic(with_rule.k1_crossed, FgAbGroup(1))
        assert with_rule.ledger_out["[1]"].order == math.inf
        assert with_rule.ledger_out["[u]"].order == math.inf
        assert generates(with_rule.k1_crossed, with_rule.ledger_out["[u]"].vector)

        without_rule = pv_solve(inp, apply_boundary_rule=False)
        entry = without_rule.ledger_out.get("[u]")
        assert entry is None or entry.order is None, "order must be undetermined without the rule"


def test_duality_checks(capsys):
    with criterion("solenoid-duality"):
        start = time.perf_counter()
        for n in (2, 3, 5, -2, -1):
            code = main(["--json", "pair", "--n", str(n), "--depth", "5", "--trials", "500"])
            out = capsys.readouterr().out
            assert code == 0
            data = json.loads(out)
            assert data["passed"] == 500 and data["failed"] == 0 and data["skipped"] == 0
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"duality grid took {elapsed:.3f}s"


def test_trace_image():
    with criterion("trace-image"):
        for n in GRID:
            assert trace_image(pv_solve(bs_input(n))) == "Z"


def test_substrate_properties():
    with criterion("substrate-properties"):
        start = time.perf_counter()
        rng = random.Random(90125)

        for _ in range(1000):
            r = rng.randint(0, 6)
            c = rng.randint(0, 6)
            a = IntMatrix(r, c, tuple(rng.randint(-20, 20) for _ in range(r * c)))
            dec = smith_normal_form(a)
            assert dec.u @ a @ dec.v == dec.s
            assert abs(det(dec.u)) == 1 and abs(det(dec.v)) == 1
            nonzero = [d for d in dec.diag if d]
            assert dec.diag[: len(nonzero)] == tuple(nonzero)
            assert all(y % x == 0 for x, y in zip(nonzero, nonzero[1:]))

        for _ in range(120):
            h = random_hom(rng)
            _, inc = kernel(h)
            _, proj = cokernel(h)
            assert is_zero(compose(h, inc))
            assert is_zero(compose(proj, h))

        for _ in range(200):
            r = rng.randint(1, 4)
            c = rng.randint(1, 4)
            a = IntMatrix(r, c, tuple(rng.randint(-20, 20) for _ in range(r * c)))
            assert list(smith_normal_form(a).diag) == minors_invariant_factors(a)

        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"substrate suite took {elapsed:.3f}s"
