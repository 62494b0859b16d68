import math
import random
import time

import pytest

from bs_ktheory import colimit
from bs_ktheory.abelian import (
    FgAbGroup,
    GroupHom,
    IntMatrix,
    _cokernel_ext,
    _kernel_ext,
    _product,
    _relations_snf,
    is_isomorphic,
)
from bs_ktheory.bc import bc_compare
from bs_ktheory.colimit import (
    ColimModule,
    LadderMap,
    LocObject,
    LocalizedInt,
    _induced_on_quotient,
    _induced_on_subgroup,
    ab_from_json,
    ab_to_json,
    coprime_part,
    ladder_cokernel,
    ladder_kernel,
    normalize,
)
from bs_ktheory.errors import UnsupportedColimitShape
from helpers import (
    colim_oracle,
    det,
    group_order_multiset,
    ladder_cokernel_oracle,
    ladder_kernel_oracle,
    localized_eq,
    one_by_one,
    one_generator_colimit,
    one_generator_entry,
    one_generator_stage,
    polynomial_in,
    random_finite_group,
    random_selfmap,
    reference_coprime_part,
)

Z = FgAbGroup.free(1, ("v",))


def scalar_colim(n: int) -> ColimModule:
    return ColimModule(Z, GroupHom(Z, Z, IntMatrix(1, 1, (n,))))


def scalar_ladder(c: ColimModule, k: int) -> LadderMap:
    return LadderMap(c, c, GroupHom(c.stage, c.stage, IntMatrix(1, 1, (k,))))


def finite_colim(chain, entries) -> ColimModule:
    g = FgAbGroup(0, chain)
    return ColimModule(g, GroupHom(g, g, IntMatrix.from_rows(entries, cols=g.gen_count)))


class TestNormalize:
    def test_constant_system(self):
        assert normalize(scalar_colim(1)) == Z

    def test_localization(self):
        result = normalize(scalar_colim(2))
        assert isinstance(result, LocObject)
        assert result.loc.n == 2 and result.torsion.is_trivial

    def test_finite_stage(self):
        # x2 on Z/6: the 3-torsion dies, x2 is an automorphism of what is left
        result = normalize(finite_colim((6,), [[2]]))
        assert isinstance(result, FgAbGroup)
        assert (result.free_rank, result.torsion) == (0, (3,))

    def test_iso_bond_is_identity_on_groups(self):
        import math

        rng = random.Random(11)
        for _ in range(40):
            g = random_finite_group(rng)
            # random automorphism: a unit scalar (coprime to the exponent)
            exponent = g.torsion[-1]
            units = [u for u in range(1, exponent + 1) if math.gcd(u, exponent) == 1]
            unit = rng.choice(units)
            bond = GroupHom(
                g,
                g,
                IntMatrix.from_rows(
                    [[unit if i == j else 0 for j in range(g.gen_count)] for i in range(g.gen_count)],
                    cols=g.gen_count,
                ),
            )
            result = normalize(ColimModule(g, bond))
            assert isinstance(result, FgAbGroup) and is_isomorphic(result, g)

    def test_unimodular_bond_at_higher_rank(self):
        g = FgAbGroup.free(2, ("x", "y"))
        shear = GroupHom(g, g, IntMatrix.from_rows([[1, 1], [0, 1]]))
        assert normalize(ColimModule(g, shear)) == g
        flip = GroupHom(g, g, IntMatrix.from_rows([[0, 1], [1, 0]]))
        assert normalize(ColimModule(g, flip)) == g

    def test_mixed_free_torsion(self):
        g = FgAbGroup(1, (4,), ("v", "t"))
        bond = GroupHom(g, g, IntMatrix.from_rows([[2, 0], [1, 3]]))
        result = normalize(ColimModule(g, bond))
        assert isinstance(result, LocObject)
        assert result.loc.n == 2
        assert result.torsion.torsion == (4,)

    def test_unsupported_shape(self):
        g = FgAbGroup.free(2)
        bond = GroupHom(g, g, IntMatrix.from_rows([[2, 1], [0, 3]]))
        with pytest.raises(UnsupportedColimitShape):
            normalize(ColimModule(g, bond))
        diagonal = GroupHom(g, g, IntMatrix.from_rows([[2, 0], [0, 3]]))
        with pytest.raises(UnsupportedColimitShape):
            normalize(ColimModule(g, diagonal))

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_free_stage_kept_exactly_when_unimodular(self, rank):
        """A free stage of rank >= 2 under an injective bond is the colimit
        when the bond has |det| = 1 and no supported shape otherwise."""
        rng = random.Random(1400 + rank)
        g = FgAbGroup.free(rank)
        outcomes = set()
        for trial in range(80):
            if trial % 2:
                rows = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rank)]
            else:
                # row operations on the identity, then one row scaled
                rows = [[int(i == j) for j in range(rank)] for i in range(rank)]
                for _ in range(3 * rank):
                    i, j = rng.sample(range(rank), 2)
                    q = rng.randint(-2, 2)
                    rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
                k = rng.choice((1, 1, -1, 2, -3))
                rows[0] = [k * x for x in rows[0]]
            d = det(IntMatrix.from_rows(rows))
            if d == 0:
                continue  # not injective: normalize quotients by the kernel first
            c = ColimModule(g, GroupHom(g, g, IntMatrix.from_rows(rows)))
            if abs(d) == 1:
                assert normalize(c) == g, rows
            else:
                with pytest.raises(UnsupportedColimitShape):
                    normalize(c)
            outcomes.add(abs(d) == 1)
        assert outcomes == {True, False}

    def test_zero_bond_kills_everything(self):
        assert normalize(scalar_colim(0)).is_trivial

    def test_matches_oracle_on_finite_stages(self):
        rng = random.Random(22)
        for _ in range(60):
            g = random_finite_group(rng)
            bond = random_selfmap(rng, g)
            result = normalize(ColimModule(g, bond))
            assert isinstance(result, FgAbGroup)
            assert group_order_multiset(result) == colim_oracle(g, bond)


class TestLadderValidation:
    def test_strict_commutation_enforced(self):
        c2 = scalar_colim(2)
        c3 = scalar_colim(3)
        with pytest.raises(ValueError):
            LadderMap(c2, c3, GroupHom(Z, Z, IntMatrix(1, 1, (1,))))

    def test_one_by_one_check_matches_the_products(self):
        """A 1x1 rung r is accepted without a product, exactly when r = 0 or
        the bonds s and t are equal: that is r s = t r, checked here by the
        products, on stages Z and Z/d and on 64,000-digit entries."""
        rng = random.Random(808)
        huge = 10**64000
        seen = set()
        for trial in range(600):
            stages = [Z if rng.random() < 0.5 else FgAbGroup(0, (rng.randint(2, 9),), ("v",)) for _ in range(2)]
            big = huge if trial % 100 == 0 else 1
            s = big * rng.randint(-3, 3) + rng.randint(-3, 3)
            t = s if rng.random() < 0.3 else big * rng.randint(-3, 3) + rng.randint(-3, 3)
            source, target = (ColimModule(g, GroupHom(g, g, IntMatrix(1, 1, (b,)))) for g, b in zip(stages, (s, t)))
            # a rung well-defined on torsion: Z/d -> Z is 0, Z/d -> Z/e a multiple of e / gcd(d, e)
            step = 1
            if source.stage.torsion:
                e = target.stage.torsion[0] if target.stage.torsion else 0
                step = e // math.gcd(source.stage.torsion[0], e)
            r = 0 if rng.random() < 0.2 else step * (big * rng.randint(-3, 3) + rng.randint(1, 3))
            rung = GroupHom(source.stage, target.stage, IntMatrix(1, 1, (r,)))
            commutes = _product(rung.matrix, source.bond.matrix) == _product(target.bond.matrix, rung.matrix)
            try:
                LadderMap(source, target, rung)
                accepted = True
            except ValueError as err:
                assert str(err) == "rung does not commute with the bonds"
                accepted = False
            assert accepted == commutes, (s, t, r)
            seen.add((r == 0, s == t, accepted, big > 1))
        assert {(r0, same, r0 or same) for r0 in (False, True) for same in (False, True)} <= {x[:3] for x in seen}
        assert {(False, False, False, True), (False, True, True, True)} <= seen

    def test_bc_compare_forms_no_product(self, monkeypatch):
        """Every rung ``bc_compare`` checks is 1x1, so no product is formed;
        a 2x2 rung still takes both, through the same counter."""
        calls = []
        product = colimit._product
        monkeypatch.setattr(colimit, "_product", lambda a, b: calls.append(1) or product(a, b))
        for n in [n for n in range(-64, 65) if n not in (0, 1)] + [10**64000 + 7]:
            assert bc_compare(n).verdict
        assert calls == []
        g = FgAbGroup.free(2)
        c = ColimModule(g, GroupHom(g, g, IntMatrix.from_rows([[2, 1], [0, 3]])))
        LadderMap(c, c, GroupHom.identity(g))
        assert len(calls) == 2

    def test_unsupported_shape_propagates(self):
        g = FgAbGroup.free(2)
        bond = GroupHom(g, g, IntMatrix.from_rows([[2, 1], [0, 3]]))
        c = ColimModule(g, bond)
        zero_rung = GroupHom(g, g, IntMatrix(2, 2, (0,) * 4))
        with pytest.raises(UnsupportedColimitShape):
            ladder_cokernel(LadderMap(c, c, zero_rung))
        with pytest.raises(UnsupportedColimitShape):
            ladder_kernel(LadderMap(c, c, zero_rung))


class TestLadderKernel:
    def test_injective_rung(self):
        m = scalar_ladder(scalar_colim(2), 1 - 2)
        assert ladder_kernel(m).is_trivial

    def test_zero_rung_gives_whole_module(self):
        result = ladder_kernel(scalar_ladder(scalar_colim(2), 0))
        assert isinstance(result, LocObject) and result.loc.n == 2

    def test_kernel_on_finite_stage(self):
        # rung x6 on colim(Z/12, x5): the stage kernel {0,2,...,10} is Z/6
        # and x5 acts invertibly on it (brute-forced on the 12 elements)
        c = finite_colim((12,), [[5]])
        m = LadderMap(c, c, GroupHom(c.stage, c.stage, IntMatrix(1, 1, (6,))))
        result = ladder_kernel(m)
        assert isinstance(result, FgAbGroup)
        assert group_order_multiset(result) == ladder_kernel_oracle(c.stage, c.bond, m.rung)
        assert (result.free_rank, result.torsion) == (0, (6,))


class TestLadderCokernel:
    def test_theorem_torsion(self):
        for n, expected in ((5, (4,)), (2, ()), (3, (2,))):
            result = ladder_cokernel(scalar_ladder(scalar_colim(n), 1 - n))
            assert isinstance(result, FgAbGroup)
            assert (result.free_rank, result.torsion) == (0, expected)

    def test_primes_of_base_divided_out(self):
        result = ladder_cokernel(scalar_ladder(scalar_colim(2), 6))
        assert isinstance(result, FgAbGroup)
        assert (result.free_rank, result.torsion) == (0, (3,))

    def test_zero_rung_gives_whole_module(self):
        result = ladder_cokernel(scalar_ladder(scalar_colim(2), 0))
        assert isinstance(result, LocObject) and result.loc.n == 2


class TestClosedForm:
    def test_coprime_part_examples(self):
        assert coprime_part(6, 2) == 3
        assert coprime_part(4, 5) == 4
        assert coprime_part(-4, 5) == 4
        assert coprime_part(12, 6) == 1
        assert coprime_part(2, -1) == 2

    def test_coprime_part_matches_one_division_a_pass(self):
        rng = random.Random(2016)
        bases = [1, -1, 2, -2, 3, 6, -6, 10, 12, -30, 49, 360, 1001, 2**61 - 1]
        for _ in range(3000):
            n = rng.choice(bases) if rng.random() < 0.5 else rng.choice((-1, 1)) * rng.randint(1, 10**6)
            p = rng.choice([abs(n), rng.randint(2, 50)] + [q for q in (2, 3, 5, 7) if n % q == 0])
            c = rng.choice((-1, 1)) * rng.randint(1, 10**6) * p ** rng.choice((0, 1, 5, 60, 700))
            assert coprime_part(c, n) == reference_coprime_part(c, n), (c, n)

    def test_coprime_part_cost_follows_digits(self):
        # one division a pass took a pass per unit of the 2-adic valuation
        start = time.perf_counter()
        assert coprime_part(3 * 2**200_000, 2) == 3
        assert coprime_part(-(6**50_000) * 35, -12) == 35
        assert time.perf_counter() - start < 1

    def test_grid_against_staged_oracle(self):
        # coker(xc on Z[1/n]) has order coprime_part(c, n); the staged side
        # is colim(Z/|c|, xn), brute-forced by element chasing
        for n in list(range(2, 11)) + list(range(-10, -1)):
            for c in range(1, 31):
                expected = coprime_part(c, n)
                result = ladder_cokernel(scalar_ladder(scalar_colim(n), c))
                assert isinstance(result, FgAbGroup)
                assert result.order() == expected
                if c > 1:
                    stage = FgAbGroup(0, (c,))
                    bond = GroupHom(stage, stage, IntMatrix(1, 1, (n,)))
                    oracle = colim_oracle(stage, bond)
                    assert group_order_multiset(result) == oracle

    def test_key_torsion_computation(self):
        # gcd(n, n-1) = 1, so nothing of n-1 is lost in Z[1/n]
        for n in list(range(2, 13)) + [-1] + list(range(-12, -1)):
            result = ladder_cokernel(scalar_ladder(scalar_colim(n), n - 1))
            assert isinstance(result, FgAbGroup)
            assert result.order() == abs(n - 1)


class TestRandomLadderGrid:
    def test_kernels_and_cokernels_match_oracle(self):
        rng = random.Random(33)
        cases = 0
        while cases < 80:
            g = random_finite_group(rng)
            bond = random_selfmap(rng, g)
            rung = polynomial_in(bond, [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))])
            c = ColimModule(g, bond)
            m = LadderMap(c, c, rung)
            ker = ladder_kernel(m)
            cok = ladder_cokernel(m)
            assert isinstance(ker, FgAbGroup) and isinstance(cok, FgAbGroup)
            assert group_order_multiset(ker) == ladder_kernel_oracle(g, bond, rung)
            assert group_order_multiset(cok) == ladder_cokernel_oracle(g, bond, rung)
            cases += 1


def one_by_one_ladder(rng) -> LadderMap:
    """A 1x1 rung r from a one-generator colimit to itself or to another:
    with the source's bond on both sides, or any target bond when r = 0."""
    source = one_generator_colimit(rng)
    if rng.random() < 0.5:
        target_stage, d, g = one_generator_stage(rng)
    else:
        target_stage, d, g = source.stage, source.stage.torsion[0] if source.stage.torsion else 0, 2
    r = one_generator_entry(rng, d, g)
    if source.stage.torsion:  # well defined on Z/d1 when r d1 = 0 in the target
        d1 = source.stage.torsion[0]
        r = r * (d // math.gcd(d, d1)) if d else 0
    t = source.bond.matrix.entries[0] if r else one_generator_entry(rng, d, g)
    target = ColimModule(target_stage, one_by_one(target_stage, target_stage, t))
    return LadderMap(source, target, one_by_one(source.stage, target_stage, r))


class TestTrivialStageReturns:
    def test_one_by_one_ladders(self):
        """On 1x1 ladders between Z and Z/d stages, d small or 10^30-sized, the
        ladder kernel and cokernel are the stage kernel and cokernel normalized,
        with or without a shared Smith form of the rung; a trivial one is
        returned without normalizing it, which would give it back unchanged."""
        rng = random.Random(2402)
        trivial = {"kernel": 0, "cokernel": 0}
        for _ in range(1500):
            m = one_by_one_ladder(rng)
            ext = _relations_snf(m.rung)
            k, q = _kernel_ext(m.rung, ext), _cokernel_ext(m.rung, ext)
            bond_on_q = IntMatrix.from_rows(_induced_on_quotient(m.target.bond, q), cols=q.group.gen_count)
            kernel = normalize(ColimModule(k.group, _induced_on_subgroup(m.source.bond, k)))
            cokernel = normalize(ColimModule(q.group, GroupHom(q.group, q.group, bond_on_q)))
            assert ladder_kernel(m) == ladder_kernel(m, ext) == kernel, m
            assert ladder_cokernel(m) == ladder_cokernel(m, ext) == cokernel, m
            trivial["kernel"] += k.group.is_trivial
            trivial["cokernel"] += q.group.is_trivial
        assert min(trivial.values()) >= 150, trivial


class TestLocalizedInt:
    def test_eq_by_prime_support(self):
        assert localized_eq(LocalizedInt(2), LocalizedInt(4))
        assert not localized_eq(LocalizedInt(2), LocalizedInt(3))
        assert localized_eq(LocalizedInt(6), LocalizedInt(12))
        assert localized_eq(LocalizedInt(-1), LocalizedInt(1))

    def test_str(self):
        assert (str(LocalizedInt(6)), str(LocalizedInt(-1, "w"))) == ("Z[1/6]", "Z[1/-1]")


class TestJson:
    def test_ab_roundtrip(self):
        fg = FgAbGroup(1, (4,), ("a", "b"))
        assert ab_from_json(ab_to_json(fg), "k0") == fg
        loc = LocObject(LocalizedInt(6, "w"), FgAbGroup(0, (2,), ("t",)))
        assert ab_from_json(ab_to_json(loc), "k1") == loc
