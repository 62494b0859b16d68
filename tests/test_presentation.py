import gc
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from bs_ktheory.abelian import FgAbGroup, is_isomorphic
from bs_ktheory.bc import bc_compare
from bs_ktheory.errors import DomainError, ParseError, ProperPowerRelator, UndeclaredGenerator
from bs_ktheory.presentation import (
    Presentation,
    Word,
    bs_presentation,
    classifying_space_k,
    exponent_vector,
    parse,
    presentation_homology,
)
from helpers import abelianization, cycled, flatten, relator_is_proper_power, render


class TestWord:
    def test_free_reduction(self):
        w = Word(((0, 2), (0, -2), (1, 3)))
        assert w.letters == ((1, 3),)
        w = Word(((0, 1), (1, 1), (1, -1), (0, -1)))
        assert not w.letters

    def test_zero_exponent_dropped(self):
        assert Word(((0, 0), (1, 2))).letters == ((1, 2),)

    def test_inverse(self):
        w = Word(((0, 1), (1, -3)))
        assert not (w * w.inverse()).letters
        assert w.inverse().letters == ((1, 3), (0, -1))

    def test_reduction_idempotent(self):
        rng = random.Random(1)
        for _ in range(100):
            letters = tuple((rng.randrange(3), rng.choice((-2, -1, 1, 2))) for _ in range(rng.randint(0, 8)))
            w = Word(letters)
            assert Word(w.letters) == w

    @pytest.mark.parametrize("letter", [(0, 1.9), (0.0, 1), (0, Fraction(2)), (0, "1"), (0, True), (False, 1)])
    def test_non_int_letters_rejected(self, letter):
        with pytest.raises(ValueError):
            Word((letter,))


class TestParse:
    def test_bs_shape(self):
        p = parse("< a, b | a b a^-1 = b^3 >")
        assert p.generators == ("a", "b")
        assert p.relator.letters == ((0, 1), (1, 1), (0, -1), (1, -3))

    def test_commutator(self):
        p = parse("< a, b | a b a^-1 b^-1 >")
        assert p.relator.letters == ((0, 1), (1, 1), (0, -1), (1, -1))

    def test_zero_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse("< a | a^0 >")

    def test_undeclared_generator(self):
        with pytest.raises(UndeclaredGenerator):
            parse("< a | a b >")

    def test_multiple_relators_rejected(self):
        with pytest.raises(ParseError):
            parse("< a, b | a, b >")

    def test_duplicate_generators_rejected(self):
        with pytest.raises(ParseError):
            parse("< a, a | a >")

    def test_garbage(self):
        for text in ("", "< a | >", "< a | a", "< | a >", "<a|a> trailing", "< a | a ^ >"):
            with pytest.raises(ParseError):
                parse(text)

    def test_identifier_rule(self):
        """A name starts with a str.isalpha character and goes on with
        str.isalnum characters or underscores, in any script."""
        p = parse("<α,β|α β α^-1 β^-2>")
        assert p.generators == ("α", "β")
        assert p.relator.letters == ((0, 1), (1, 1), (0, -1), (1, -2))
        p = parse("<a²,b_1|a² b_1>")
        assert p.generators == ("a²", "b_1")
        assert p.relator.letters == ((0, 1), (1, 1))
        for text in ("<_a|_a>", "<1a|a>"):
            with pytest.raises(ParseError):
                parse(text)

    def test_whitespace_insensitive(self):
        assert parse("<a,b|a b a^-1=b^3>") == parse("  < a , b |  a b a^-1 = b^3 >  ")

    def test_roundtrip(self):
        rng = random.Random(2)
        for _ in range(120):
            gens = tuple(f"g{i}" for i in range(rng.randint(1, 3)))
            letters = tuple(
                (rng.randrange(len(gens)), rng.choice((-3, -2, -1, 1, 2, 3)))
                for _ in range(rng.randint(1, 6))
            )
            relator = Word(letters)
            if not relator.letters:
                continue
            p = Presentation(gens, relator)
            assert parse(render(p)) == p


class TestExponentVector:
    def test_bs_relator(self):
        for n in (2, 3, -1, 7):
            assert exponent_vector(bs_presentation(n)) == (0, 1 - n)

    def test_commutator_vanishes(self):
        assert exponent_vector(parse("< a, b | a b a^-1 b^-1 >")) == (0, 0)

    def test_direct_count(self):
        assert exponent_vector(parse("< a, b | a^2 b^3 >")) == (2, 3)

    def test_inversion_flips_sign(self):
        rng = random.Random(3)
        for _ in range(60):
            gens = ("a", "b")
            letters = tuple((rng.randrange(2), rng.choice((-2, -1, 1, 2))) for _ in range(rng.randint(1, 6)))
            w = Word(letters)
            if not w.letters:
                continue
            p = Presentation(gens, w)
            q = Presentation(gens, w.inverse())
            assert exponent_vector(q) == tuple(-x for x in exponent_vector(p))

    def test_one_pass_over_syllables(self):
        rng = random.Random(18)
        gens = tuple(f"g{i}" for i in range(1000))
        rounds = [[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in gens] for _ in range(60)]
        # consecutive syllables use distinct generators, so nothing reduces
        p = Presentation(gens, Word(tuple((g, row[g]) for row in rounds for g in range(len(gens)))))
        assert len(p.relator.letters) == 60_000
        start = time.perf_counter()
        sums = exponent_vector(p)
        assert time.perf_counter() - start < 0.5
        assert sums == tuple(sum(row[g] for row in rounds) for g in range(len(gens)))


class TestAbelianization:
    def test_bs(self):
        g = abelianization(bs_presentation(4))
        assert (g.free_rank, g.torsion) == (1, (3,))
        assert g.gen_names == ("a", "b")

    def test_free_abelian(self):
        g = abelianization(parse("< a, b | a b a^-1 b^-1 >"))
        assert (g.free_rank, g.torsion) == (2, ())

    def test_cyclic(self):
        g = abelianization(parse("< a | a^5 >"))
        assert (g.free_rank, g.torsion) == (0, (5,))
        assert g.gen_names == ("a",)

    def test_invariant_under_inversion_and_cycling(self):
        rng = random.Random(4)
        for _ in range(60):
            gens = ("a", "b")
            letters = tuple((rng.randrange(2), rng.choice((-2, -1, 1, 2))) for _ in range(rng.randint(1, 6)))
            w = Word(letters)
            if not w.letters:
                continue
            p = Presentation(gens, w)
            base = abelianization(p)
            assert is_isomorphic(abelianization(Presentation(gens, w.inverse())), base)
            k = rng.randrange(len(flatten(w)))
            assert is_isomorphic(abelianization(Presentation(gens, cycled(w, k))), base)


class TestHomology:
    def test_bs3(self):
        hom = presentation_homology(bs_presentation(3))
        assert hom.h0 == FgAbGroup.free(1, ("pt",))
        assert (hom.h1.free_rank, hom.h1.torsion) == (1, (2,))
        assert hom.h2.is_trivial

    def test_torus(self):
        hom = presentation_homology(parse("< a, b | a b a^-1 b^-1 >"))
        assert (hom.h1.free_rank, hom.h1.torsion) == (2, ())
        assert hom.h2 == FgAbGroup.free(1, ("cell",))

    def test_proper_power_rejected(self):
        with pytest.raises(ProperPowerRelator):
            presentation_homology(parse("< a | a^3 >"))
        with pytest.raises(ProperPowerRelator):
            presentation_homology(parse("< a, b | a b a b >"))
        # trivial relator: the complex is not aspherical either
        with pytest.raises(ProperPowerRelator):
            presentation_homology(parse("< a | a = a >"))

    def test_proper_power_detected_cyclically(self):
        # b (ab)^2 b^-1 is conjugate to a square
        with pytest.raises(ProperPowerRelator):
            presentation_homology(parse("< a, b | b a b a b b^-1 >"))

    def test_proper_power_matches_unit_letter_oracle(self):
        rng = random.Random(6)
        exps = (-3, -2, -1, 1, 2, 3)

        def random_word(gens, max_len):
            return Word(tuple((rng.randrange(gens), rng.choice(exps)) for _ in range(rng.randint(0, max_len))))

        # a third each: random words, powers w^k, conjugated powers c w^k c^-1
        for trial in range(12000):
            gens = rng.choice((2, 3))
            if trial % 3 == 0:
                w = random_word(gens, 7)
            else:
                w = Word(random_word(gens, 3).letters * rng.randint(1, 4))
                if trial % 3 == 2:
                    c = random_word(gens, 3)
                    w = c * w * c.inverse()
            p = Presentation(("a", "b", "c")[:gens], w)
            try:
                presentation_homology(p)
                detected = False
            except ProperPowerRelator:
                detected = True
            assert detected == relator_is_proper_power(w), w.letters

    def test_huge_exponents(self):
        # |n| from tiny to far past what a unit-letter expansion could hold
        for n in (2, 10**6, 10**12 + 39, 2**61 - 1, -(10**30)):
            hom = presentation_homology(bs_presentation(n))
            expected_torsion = () if abs(n - 1) == 1 else (abs(n - 1),)
            assert (hom.h1.free_rank, hom.h1.torsion) == (1, expected_torsion)
            report = bc_compare(n)
            assert report.verdict
            for k1 in (report.lhs_k1, report.rhs_k1):
                assert (k1.free_rank, k1.torsion) == (1, expected_torsion)
        with pytest.raises(ProperPowerRelator):
            presentation_homology(parse("< a, b | b^-7 a b^10000000000000 a b^10000000000000 a b^10000000000000 b^7 >"))

    def test_memory_does_not_grow_with_exponent(self):
        p = bs_presentation(10**12)
        tracemalloc.start()
        try:
            presentation_homology(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_h2_dichotomy(self):
        rng = random.Random(5)
        checked = 0
        while checked < 80:
            gens = ("a", "b")
            letters = tuple((rng.randrange(2), rng.choice((-2, -1, 1, 2))) for _ in range(rng.randint(1, 6)))
            w = Word(letters)
            if not w.letters:
                continue
            p = Presentation(gens, w)
            try:
                hom = presentation_homology(p)
            except ProperPowerRelator:
                continue
            vanishing = not any(exponent_vector(p))
            assert (hom.h2.free_rank == 1) == vanishing
            checked += 1

    def test_grid_of_parameters(self):
        for n in list(range(2, 13)) + [-1] + list(range(-12, -1)):
            hom = presentation_homology(bs_presentation(n))
            expected_torsion = () if abs(n - 1) == 1 else (abs(n - 1),)
            assert (hom.h1.free_rank, hom.h1.torsion) == (1, expected_torsion)
            assert hom.h2.is_trivial


class TestClassifyingSpaceK:
    def test_bs5(self):
        k0, k1, ledger = classifying_space_k(bs_presentation(5))
        assert k0 == FgAbGroup.free(1, ("pt",))
        assert (k1.free_rank, k1.torsion) == (1, (4,))
        assert ledger["[pt]"].order == float("inf")
        assert ledger["a"].order == float("inf")
        assert ledger["b"].order == 4

    def test_torus(self):
        k0, k1, _ = classifying_space_k(parse("< a, b | a b a^-1 b^-1 >"))
        assert (k0.free_rank, k1.free_rank) == (2, 2)

    def test_bs2_b_class_dies(self):
        k0, k1, ledger = classifying_space_k(bs_presentation(2))
        assert (k1.free_rank, k1.torsion) == (1, ())
        assert ledger["b"].order == 1

    def test_six_hundred_generators_in_time(self):
        """Each generator's class is read off as a projection column."""
        m = 600
        p = parse(f"<{','.join(f'a{i}' for i in range(m))} | a0 a1 a0^-1 a1^-3>")
        start = time.perf_counter()
        k0, k1, ledger = classifying_space_k(p)
        assert time.perf_counter() - start < 2
        assert (k0.free_rank, k1.free_rank, k1.torsion) == (1, m - 1, (2,))
        rows = presentation_homology(p).h1_projection.matrix.to_rows()
        assert ledger["[pt]"].vector == (1,)
        for i in range(m):
            entry = ledger[f"a{i}"]
            assert entry.vector == k1.reduce([row[i] for row in rows])
            assert entry.order == (2 if i == 1 else float("inf"))

    def test_six_hundred_generators_leave_little_behind(self):
        """The identities a wide Smith form starts from are not kept after it."""
        m = 600
        p = parse(f"<{','.join(f'a{i}' for i in range(m))} | a0 a1 a0^-1 a1^-3>")
        gc.collect()
        tracemalloc.start()
        try:
            result = classifying_space_k(p)
            del result
            gc.collect()
            left, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert left < 500_000


class TestBsPresentation:
    def test_standard_form(self):
        p = bs_presentation(3)
        assert render(p) == "< a, b | a b a^-1 b^-3 >"

    def test_klein_bottle(self):
        p = bs_presentation(-1)
        assert p.relator.letters == ((0, 1), (1, 1), (0, -1), (1, 1))

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            bs_presentation(0)

    def test_non_integer_parameter_rejected(self):
        with pytest.raises(ValueError):
            bs_presentation(2.5)
