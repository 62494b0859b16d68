"""Exact duality checks between truncated solenoid points and Z[1/n].

Points on the solenoid are finite-depth truncations (z_0, ..., z_L) of
compatible circle sequences with z_{k+1}^n = z_k, kept exact by using only
rational angles. The deepest angle theta_L determines the point, since
theta_k = n^(L-k) * theta_L mod 1, so a point stores (n, L, theta_L) and any
level costs one modular power. An element m/n^l of Z[1/n] pairs with such a
point as the angle m * theta_l, and the backward shift drops the head
coordinate, which lowers L. Every operation declares the depth it needs and
raises DepthExceeded past it.
"""

from __future__ import annotations

from math import gcd
from random import Random

from .errors import DepthExceeded, _checked_namedtuple


class RationalAngle(_checked_namedtuple("RationalAngle", "p q")):
    """e^(2 pi i p/q) as the reduced pair p/q with 0 <= p < q."""

    __slots__ = ()

    def __new__(cls, p: int, q: int):
        if type(p) is not int or type(q) is not int:
            raise ValueError("an angle takes Python ints p and q")
        if q <= 0:
            raise ValueError("the denominator must be positive")
        p %= q
        g = gcd(p, q)
        return tuple.__new__(cls, (p // g, q // g))

    def __add__(self, other: "RationalAngle") -> "RationalAngle":
        return RationalAngle(self.p * other.q + other.p * self.q, self.q * other.q)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}" if self.q != 1 else str(self.p)


class SolenoidPoint(_checked_namedtuple("SolenoidPoint", "n depth deepest")):
    """A depth-L truncation (theta_0, ..., theta_L) with n*theta_{k+1} = theta_k
    mod 1, kept as its deepest angle theta_L, so compatibility holds by
    construction. ``deepest`` is a (p, q) pair; it is reduced."""

    __slots__ = ()

    def __new__(cls, n: int, depth: int, deepest: tuple[int, int]):
        if type(n) is not int or type(depth) is not int:
            raise ValueError("a solenoid point takes Python ints n and depth")
        if n == 0:
            raise ValueError("the solenoid parameter must be nonzero")
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        return tuple.__new__(cls, (n, depth, RationalAngle(*deepest)))


class NadicRational(_checked_namedtuple("NadicRational", "n m exp")):
    """m / n^exp in Z[1/n], canonical: n does not divide m, or exp = 0."""

    __slots__ = ()

    def __new__(cls, n: int, m: int, exp: int):
        if type(n) is not int or type(m) is not int or type(exp) is not int:
            raise ValueError("an n-adic rational takes Python ints n, m and exp")
        if n == 0:
            raise ValueError("the inverted base must be nonzero")
        if exp < 0:
            raise ValueError("the exponent must be nonnegative")
        if abs(n) == 1:
            m, exp = m * n**exp, 0
        if m == 0:
            exp = 0
        # strip n^k with k doubling, so the cost grows with the digits of exp
        while exp and m % n == 0:
            power, k = n, 1
            while k <= exp and m % power == 0:
                m, exp = m // power, exp - k
                power, k = power * power, 2 * k
        return tuple.__new__(cls, (n, m, exp))

    def value(self) -> Fraction:
        from fractions import Fraction  # imported here, so that bsk pair never loads it

        return Fraction(self.m, self.n**self.exp)

    def times_base(self) -> "NadicRational":
        """Multiplication by n, the automorphism dual to the backward shift."""
        return NadicRational(self.n, self.m * self.n, self.exp)

    def __add__(self, other: "NadicRational") -> "NadicRational":
        if self.n != other.n:
            raise ValueError("cannot add over different bases")
        e = max(self.exp, other.exp)
        m = self.m * self.n ** (e - self.exp) + other.m * self.n ** (e - other.exp)
        return NadicRational(self.n, m, e)

    def __str__(self) -> str:
        return str(self.value())


def pairing_raw(z: SolenoidPoint, m: int, exp: int) -> RationalAngle:
    """The angle m * theta_exp, for any (not necessarily canonical) m/n^exp.

    theta_exp = n^(depth-exp) * theta_depth, and the power is taken modulo
    the deepest angle's denominator, so the cost grows with log(depth)."""
    if exp < 0:
        raise ValueError("the exponent must be nonnegative")
    if exp > z.depth:
        raise DepthExceeded(f"pairing at level {exp} needs depth >= {exp}, have {z.depth}")
    p, q = z.deepest
    return RationalAngle(m * p * pow(z.n, z.depth - exp, q), q)


def pairing(z: SolenoidPoint, x: NadicRational) -> RationalAngle:
    """The duality pairing: x = m/n^exp evaluates to the angle m * theta_exp."""
    if x.n != z.n:
        raise ValueError("point and element live over different bases")
    return pairing_raw(z, x.m, x.exp)


def dual_shift(z: SolenoidPoint) -> SolenoidPoint:
    """Backward shift (drop the head coordinate); loses one level of depth."""
    if z.depth < 1:
        raise DepthExceeded("shifting needs depth >= 1")
    return z._replace(depth=z.depth - 1)


def duality_check(z: SolenoidPoint, x: NadicRational, direct: RationalAngle | None = None) -> bool:
    """Exact check that the shift intertwines the pairing with
    multiplication by n: pairing(shift(z), n*x) == pairing(z, x).

    Equivalently pairing(shift(z), y) == pairing(z, y/n); the shift is dual
    to the automorphism the crossed product is built from. ``direct``, if
    given, is pairing(z, x), already computed by the caller.
    """
    if z.depth < 1 or z.depth < x.exp:
        raise DepthExceeded(f"duality at level {x.exp} needs depth >= {max(1, x.exp)}")
    return pairing(dual_shift(z), x.times_base()) == (pairing(z, x) if direct is None else direct)


def random_point(n: int, depth: int, seed: int) -> SolenoidPoint:
    """A deterministic-from-seed point: the deepest angle is chosen freely
    and the rest follow by theta_k = n * theta_{k+1} mod 1."""
    rng = Random(seed)
    q = rng.randint(1, 60)
    return SolenoidPoint(n, depth, (rng.randrange(q), q))
