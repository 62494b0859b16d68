import random
from fractions import Fraction

import pytest

from bs_ktheory.errors import DepthExceeded
from bs_ktheory.solenoid import (
    NadicRational,
    RationalAngle,
    SolenoidPoint,
    dual_shift,
    duality_check,
    pairing,
    pairing_raw,
    random_point,
)


def tower(n: int, q0: int, depth: int) -> SolenoidPoint:
    """The point with theta_k = 1/(q0 * n^k)."""
    return SolenoidPoint(n, tuple(RationalAngle.of(1, q0 * n**k) for k in range(depth + 1)))


class TestTypes:
    def test_angle_normalization(self):
        assert RationalAngle(Fraction(7, 3)).value == Fraction(1, 3)
        assert RationalAngle(Fraction(-1, 4)).value == Fraction(3, 4)

    def test_compatibility_enforced(self):
        with pytest.raises(ValueError):
            SolenoidPoint(2, (RationalAngle.of(1, 3), RationalAngle.of(1, 5)))

    def test_canonical_form(self):
        x = NadicRational(2, 2, 1)
        assert (x.m, x.exp) == (1, 0)
        x = NadicRational(2, 0, 5)
        assert (x.m, x.exp) == (0, 0)
        x = NadicRational(-1, 3, 2)  # degenerate base folds into the numerator
        assert (x.m, x.exp) == (3, 0)
        x = NadicRational(3, 6, 2)
        assert (x.m, x.exp) == (2, 1)

    def test_arithmetic_matches_fractions(self):
        rng = random.Random(9)
        for _ in range(200):
            n = rng.choice((2, 3, 5, -2, -1))
            x = NadicRational(n, rng.randint(-40, 40), rng.randint(0, 4))
            y = NadicRational(n, rng.randint(-40, 40), rng.randint(0, 4))
            assert (x + y).value() == x.value() + y.value()
            assert (-x).value() == -x.value()
            assert x.times_base().value() == x.value() * n


class TestPairing:
    def test_zero_element(self):
        z = random_point(3, 4, seed=5)
        assert pairing(z, NadicRational(3, 0, 0)).value == 0

    def test_tower_example(self):
        z = tower(2, 3, 2)  # theta_k = 1/(3 * 2^k)
        assert pairing(z, NadicRational(2, 1, 1)).value == Fraction(1, 6)

    def test_well_definedness_example(self):
        z = tower(2, 3, 2)
        two_halves = NadicRational(2, 2, 1)
        one = NadicRational(2, 1, 0)
        assert pairing(z, two_halves).value == Fraction(1, 3)
        assert pairing(z, one).value == Fraction(1, 3)

    def test_depth_exceeded(self):
        z = tower(2, 3, 1)
        with pytest.raises(DepthExceeded):
            pairing(z, NadicRational(2, 1, 2))

    def test_well_definedness_raw(self):
        rng = random.Random(10)
        for _ in range(300):
            n = rng.choice((2, 3, 5, -2))
            depth = rng.randint(1, 6)
            z = random_point(n, depth, rng.randrange(10**9))
            m = rng.randint(-50, 50)
            exp = rng.randint(0, depth - 1)
            assert pairing_raw(z, m, exp) == pairing_raw(z, n * m, exp + 1)

    def test_bilinearity(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.choice((2, 3, 5, -2, -1))
            depth = rng.randint(0, 6)
            z = random_point(n, depth, rng.randrange(10**9))
            x = NadicRational(n, rng.randint(-50, 50), rng.randint(0, depth))
            y = NadicRational(n, rng.randint(-50, 50), rng.randint(0, depth))
            assert pairing(z, x + y) == pairing(z, x) + pairing(z, y)


class TestDualShift:
    def test_constant_zero_point(self):
        z = SolenoidPoint(2, (RationalAngle.of(0, 1),) * 3)
        shifted = dual_shift(z)
        assert shifted.depth == 1
        assert all(a.value == 0 for a in shifted.coords)

    def test_drop_head(self):
        z = SolenoidPoint(
            2, (RationalAngle.of(1, 3), RationalAngle.of(1, 6), RationalAngle.of(7, 12))
        )
        assert dual_shift(z).coords == (RationalAngle.of(1, 6), RationalAngle.of(7, 12))

    def test_small_example(self):
        z = SolenoidPoint(3, (RationalAngle.of(0, 1), RationalAngle.of(1, 3)))
        assert dual_shift(z).coords == (RationalAngle.of(1, 3),)

    def test_depth_zero_rejected(self):
        with pytest.raises(DepthExceeded):
            dual_shift(random_point(2, 0, seed=1))

    def test_double_shift(self):
        z = random_point(5, 4, seed=2)
        assert dual_shift(dual_shift(z)).coords == z.coords[2:]


class TestDuality:
    def test_intertwining_grid(self):
        rng = random.Random(12)
        for n in (2, 3, 5, -2, -1):
            for _ in range(250):
                depth = rng.randint(1, 6)
                z = random_point(n, depth, rng.randrange(10**9))
                x = NadicRational(n, rng.randint(-50, 50), rng.randint(0, depth))
                assert duality_check(z, x)

    def test_zero_element(self):
        z = random_point(2, 3, seed=3)
        assert duality_check(z, NadicRational(2, 0, 0))

    def test_depth_guard(self):
        z = random_point(2, 0, seed=4)
        with pytest.raises(DepthExceeded):
            duality_check(z, NadicRational(2, 1, 0))


class TestRandomPoint:
    def test_deterministic(self):
        a = random_point(2, 5, seed=77)
        b = random_point(2, 5, seed=77)
        assert a == b

    def test_compatibility_by_construction(self):
        for seed in range(20):
            z = random_point(5, 4, seed=seed)
            for k in range(4):
                assert z.coords[k + 1].scale(5) == z.coords[k]
