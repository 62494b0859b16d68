import random
import time
from argparse import Namespace

import pytest

from bs_ktheory import cli, solenoid
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
from helpers import (
    REFERENCE_SOLENOID,
    ReferenceAngle,
    reference_dual_shift,
    reference_duality_check,
    reference_nadic_canonical,
    reference_pairing_raw,
    reference_random_point,
)


def tower(n: int, q0: int, depth: int) -> SolenoidPoint:
    """The point with theta_k = 1/(q0 * n^k), for n > 0."""
    return SolenoidPoint(n, depth, (1, q0 * n**depth))


def levels(z: SolenoidPoint) -> tuple[RationalAngle, ...]:
    """(theta_0, ..., theta_depth): theta_k is the pairing with 1/n^k."""
    return tuple(pairing_raw(z, 1, k) for k in range(z.depth + 1))


class TestTypes:
    def test_angle_normalization(self):
        assert RationalAngle(7, 3) == (1, 3)
        assert RationalAngle(-1, 4) == (3, 4)
        assert RationalAngle(6, 8) == (3, 4)
        assert RationalAngle(-10, 5) == (0, 1)
        assert (str(RationalAngle(2, 6)), str(RationalAngle(4, 4))) == ("1/3", "0")
        for q in (0, -3):
            with pytest.raises(ValueError):
                RationalAngle(1, q)

    def test_compatibility_enforced(self):
        """A point is kept as its deepest angle, so n * theta_{k+1} = theta_k
        holds at every level by construction; the constructor rejects what
        can still be wrong."""
        z = SolenoidPoint(-3, 5, (7, 20))
        coords = levels(z)
        assert coords[-1] == (7, 20)
        assert all(RationalAngle(-3 * coords[k + 1].p, coords[k + 1].q) == coords[k] for k in range(5))
        for n, depth, deepest in ((0, 1, (1, 3)), (2, -1, (1, 3)), (2, 1, (1, 0))):
            with pytest.raises(ValueError):
                SolenoidPoint(n, depth, deepest)

    def test_canonical_form(self):
        x = NadicRational(2, 2, 1)
        assert (x.m, x.exp) == (1, 0)
        x = NadicRational(2, 0, 5)
        assert (x.m, x.exp) == (0, 0)
        x = NadicRational(-1, 3, 2)  # degenerate base folds into the numerator
        assert (x.m, x.exp) == (3, 0)
        x = NadicRational(3, 6, 2)
        assert (x.m, x.exp) == (2, 1)

    def test_canonical_form_matches_division_loop(self):
        rng = random.Random(20000)
        for _ in range(20000):
            n = rng.choice((-1, 1)) * rng.randint(2, 9)
            m = rng.randint(-60, 60) * n ** rng.randint(0, 40) * rng.choice((1, 1, 7, 10))
            exp = rng.randint(0, 50)
            assert tuple(NadicRational(n, m, exp)) == reference_nadic_canonical(n, m, exp), (n, m, exp)

    def test_canonical_form_cost_grows_with_digits(self):
        """Factors of n leave by powers n^k with k doubling; one at a time,
        this input took about 0.9 s."""
        start = time.perf_counter()
        x = NadicRational(3, 3**40000, 40000)
        assert time.perf_counter() - start < 0.25
        assert (x.m, x.exp) == (1, 0)
        assert NadicRational(-2, 5 * 2**30002, 30001) == (-2, -10, 0)

    def test_arithmetic_matches_fractions(self):
        rng = random.Random(9)
        for _ in range(200):
            n = rng.choice((2, 3, 5, -2, -1))
            x = NadicRational(n, rng.randint(-40, 40), rng.randint(0, 4))
            y = NadicRational(n, rng.randint(-40, 40), rng.randint(0, 4))
            assert (x + y).value() == x.value() + y.value()
            assert x.times_base().value() == x.value() * n
            assert str(x) == str(x.value())


class TestPairing:
    def test_zero_element(self):
        z = random_point(3, 4, seed=5)
        assert pairing(z, NadicRational(3, 0, 0)) == RationalAngle(0, 1)

    def test_tower_example(self):
        z = tower(2, 3, 2)  # theta_k = 1/(3 * 2^k)
        assert pairing(z, NadicRational(2, 1, 1)) == RationalAngle(1, 6)

    def test_well_definedness_example(self):
        z = tower(2, 3, 2)
        two_halves = NadicRational(2, 2, 1)
        one = NadicRational(2, 1, 0)
        assert pairing(z, two_halves) == RationalAngle(1, 3)
        assert pairing(z, one) == RationalAngle(1, 3)

    def test_depth_exceeded(self):
        z = tower(2, 3, 1)
        with pytest.raises(DepthExceeded):
            pairing(z, NadicRational(2, 1, 2))

    def test_negative_exponent_rejected(self):
        """m/n^exp with exp < 0 is not an element's form; it must not be read
        as a level counted from the deep end."""
        z = random_point(3, 4, seed=5)
        for exp in (-1, -5, -6):
            with pytest.raises(ValueError, match="the exponent must be nonnegative"):
                pairing_raw(z, 1, exp)

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
        z = SolenoidPoint(2, 2, (0, 1))
        shifted = dual_shift(z)
        assert shifted.depth == 1
        assert levels(shifted) == (RationalAngle(0, 1),) * 2

    def test_drop_head(self):
        z = SolenoidPoint(2, 2, (7, 12))
        assert levels(z) == ((1, 3), (1, 6), (7, 12))
        assert levels(dual_shift(z)) == ((1, 6), (7, 12))

    def test_small_example(self):
        z = SolenoidPoint(3, 1, (1, 3))
        assert levels(z) == ((0, 1), (1, 3))
        assert levels(dual_shift(z)) == ((1, 3),)

    def test_depth_zero_rejected(self):
        with pytest.raises(DepthExceeded):
            dual_shift(random_point(2, 0, seed=1))

    def test_double_shift(self):
        z = random_point(5, 4, seed=2)
        assert levels(dual_shift(dual_shift(z))) == levels(z)[2:]


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

    def test_given_direct_value(self):
        """A caller's pairing(z, x) stands in for the check's own: the right
        value gives the same verdict, and a wrong one fails the check."""
        z, x = random_point(3, 4, seed=7), NadicRational(3, 5, 2)
        direct = pairing(z, x)
        assert duality_check(z, x, direct) and duality_check(z, x)
        assert not duality_check(z, x, direct + RationalAngle(1, 2))

    def test_run_pair_pairs_each_value_once(self, monkeypatch):
        """``bsk pair --n 3 --depth 20 --trials 20`` calls pairing 80 times:
        the duality check reuses the pairing(z, x) the first check computed."""
        calls = []
        original = solenoid.pairing
        monkeypatch.setattr(solenoid, "pairing", lambda z, x: calls.append(x) or original(z, x))
        counts = cli._run_pair(Namespace(n=3, depth=20, seed=0, trials=20))[1]
        assert (counts["passed"], counts["failed"], counts["skipped"]) == (20, 0, 0)
        assert len(calls) == 80

    def test_cost_does_not_grow_with_depth(self):
        """A point of depth 10^9 is three numbers, and each level is one
        modular power, so building it and checking duality at its deepest
        level return at once."""
        depth = 10**9
        z = random_point(3, depth, seed=6)
        assert z.depth == depth
        assert duality_check(z, NadicRational(3, 5, depth))
        assert pairing_raw(dual_shift(z), 3, 0) == pairing_raw(z, 1, 0)


class TestRandomPoint:
    def test_deterministic(self):
        a = random_point(2, 5, seed=77)
        b = random_point(2, 5, seed=77)
        assert a == b

    def test_compatibility_by_construction(self):
        for seed in range(20):
            coords = levels(random_point(5, 4, seed=seed))
            for k in range(4):
                assert RationalAngle(5 * coords[k + 1].p, coords[k + 1].q) == coords[k]


BASES = [n for n in range(-9, 10) if n]


def as_pair(angle: ReferenceAngle) -> tuple[int, int]:
    return angle.value.numerator, angle.value.denominator


def outcome(f, *args):
    """What ``f(*args)`` gives, with angles as (p, q) pairs, or the error it raises."""
    try:
        value = f(*args)
    except (ValueError, DepthExceeded) as error:
        return type(error), str(error)
    return as_pair(value) if isinstance(value, ReferenceAngle) else value


def reference_levels(z) -> tuple[tuple[int, int], ...]:
    return tuple(map(as_pair, z.coords))


class TestAgainstCoordsSolenoid:
    """The deepest-angle point against the coords-based one it replaced:
    the same levels, pairings, verdicts, errors and ``bsk pair`` counts."""

    @pytest.mark.parametrize("n", BASES)
    def test_pairing_shift_and_duality(self, n):
        rng = random.Random(1000 + n)
        for depth in [0, 1, 64] + [rng.randint(0, 64) for _ in range(12)]:
            seed = rng.randrange(2**30)
            z, ref = random_point(n, depth, seed), reference_random_point(n, depth, seed)
            assert levels(z) == reference_levels(ref)
            for _ in range(10):
                m, exp = rng.randint(-50, 50), rng.randint(0, depth + 2)
                assert outcome(pairing_raw, z, m, exp) == outcome(reference_pairing_raw, ref, m, exp)
                x = NadicRational(n, m, exp)
                assert outcome(duality_check, z, x) == outcome(reference_duality_check, ref, x)
            shifted = outcome(lambda p: levels(dual_shift(p)), z)
            assert shifted == outcome(lambda p: reference_levels(reference_dual_shift(p)), ref)

    @pytest.mark.parametrize("n", BASES)
    def test_run_pair_counts(self, n, monkeypatch):
        for depth, seed in ((0, 1), (1, 2), (5, 3), (64, 4)):
            args = Namespace(n=n, depth=depth, seed=seed, trials=30)
            counts = cli._run_pair(args)[1]
            with monkeypatch.context() as patch:
                for name, reference in REFERENCE_SOLENOID.items():
                    patch.setattr(solenoid, name, reference)
                assert cli._run_pair(args)[1] == counts
            assert counts["passed"] > 0 and counts["failed"] == 0
