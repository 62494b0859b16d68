import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from bs_ktheory.abelian import (
    FgAbGroup,
    GroupHom,
    IntMatrix,
    _snf_ext,
    _unique_names,
    element_order,
    generates,
    group_from_json,
    group_to_json,
    identity_minus,
    is_isomorphic,
    smith_normal_form,
    solve,
)
from helpers import (
    cokernel,
    compose,
    det,
    finite_elements,
    group_order_multiset,
    is_zero,
    kernel,
    minors_invariant_factors,
    random_finite_group,
    random_group,
    random_hom,
    random_torsion_chain,
    reference_generates,
    reference_pair_snf_ext,
    reference_snf_ext,
    subgroup_span,
)

Z = FgAbGroup.free(1, ("x",))
ALL_TRANSFORMS = ("u_rows", "vt", "uit")


def snf_invariants_hold(a: IntMatrix) -> None:
    dec = smith_normal_form(a)
    assert dec.u @ a @ dec.v == dec.s
    assert abs(det(dec.u)) == 1
    assert abs(det(dec.v)) == 1
    diag = dec.diag
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d]
    assert diag[: len(nonzero)] == tuple(nonzero), "zeros must come last"
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0
    for i in range(dec.s.rows):
        for j in range(dec.s.cols):
            if i != j:
                assert dec.s.at(i, j) == 0


def assert_reference_diagonal(a: IntMatrix) -> None:
    """The diagonal is the reference's, and u, v and u's tracked inverse
    are unimodular transforms to it; they may differ from the reference's."""
    r, c = a.rows, a.cols
    dec = _snf_ext(a, True)
    ref = reference_snf_ext(a)
    assert dec.diag == tuple(ref.s.at(i, i) for i in range(min(r, c))), a
    assert dec.u @ a @ dec.v == dec.s == ref.s, a
    assert dec.u @ dec.u_inv == IntMatrix.identity(r), a
    assert abs(det(dec.u)) == abs(det(dec.v)) == 1, a


class TestSmithNormalForm:
    def test_identity(self):
        dec = smith_normal_form(IntMatrix.identity(2))
        assert dec.diag == (1, 1)
        assert dec.u == IntMatrix.identity(2)
        assert dec.v == IntMatrix.identity(2)

    def test_scalar_one_minus_n(self):
        dec = smith_normal_form(IntMatrix.from_rows([[1 - 5]]))
        assert dec.diag == (4,)

    def test_two_by_two(self):
        # d1 = gcd of entries = 2, d1 * d2 = |det| = 8
        a = IntMatrix.from_rows([[2, 4], [6, 8]])
        dec = smith_normal_form(a)
        assert dec.diag == (2, 4)
        snf_invariants_hold(a)

    def test_empty_and_zero(self):
        snf_invariants_hold(IntMatrix(0, 0, ()))
        snf_invariants_hold(IntMatrix(2, 3, (0,) * 6))
        assert smith_normal_form(IntMatrix(2, 3, (0,) * 6)).diag == (0, 0)
        for r, c in ((0, 3), (3, 0)):
            dec = smith_normal_form(IntMatrix(r, c, ()))
            assert dec.diag == () and (dec.u, dec.v) == (IntMatrix.identity(r), IntMatrix.identity(c))
            assert_reference_diagonal(IntMatrix(r, c, ()))
        a = IntMatrix.from_rows([[0, 0], [0, 0], [3, -7]])
        assert smith_normal_form(a).diag == (1, 0)
        assert_reference_diagonal(a)

    def test_deterministic(self):
        a = IntMatrix.from_rows([[6, -4, 2], [3, 9, 0]])
        assert smith_normal_form(a) == smith_normal_form(a)

    def test_random_invariants(self):
        rng = random.Random(101)
        for _ in range(300):
            r = rng.randint(0, 6)
            c = rng.randint(0, 6)
            a = IntMatrix(r, c, tuple(rng.randint(-20, 20) for _ in range(r * c)))
            snf_invariants_hold(a)

    def test_matches_minors_oracle(self):
        rng = random.Random(202)
        for _ in range(250):
            r = rng.randint(1, 4)
            c = rng.randint(1, 4)
            a = IntMatrix(r, c, tuple(rng.randint(-20, 20) for _ in range(r * c)))
            assert list(smith_normal_form(a).diag) == minors_invariant_factors(a)

    def test_matches_index_loop_reference(self):
        # the reference reduces by floor quotients, so only its diagonal must match
        rng = random.Random(303)
        for trial in range(10_000):
            r = rng.randint(0, 7)
            c = rng.randint(0, 7)
            bound = (1, 3, 20, 10**6)[trial % 4]
            zeros = rng.choice((0.0, 0.3, 0.6, 0.9))
            a = IntMatrix(
                r, c, tuple(0 if rng.random() < zeros else rng.randint(-bound, bound) for _ in range(r * c))
            )
            assert_reference_diagonal(a)

    @pytest.mark.parametrize("shape", [(24, 28), (28, 24), (26, 26), (28, 28)])
    def test_dense_sizes_match_reference(self, shape):
        # the sizes and entries of the snf-dense benchmark's largest inputs
        rng = random.Random(505 + sum(shape))
        r, c = shape
        a = IntMatrix(r, c, tuple(rng.randint(-20, 20) for _ in range(r * c)))
        assert_reference_diagonal(a)
        snf_invariants_hold(a)

    @pytest.mark.parametrize(
        "rows",
        [[[2, 3]], [[2], [3]], [[-2, 3]], [[-6]], [[0, 0, 0], [0, 4, 6], [0, 0, 0]]],
        ids=["tie-row", "tie-column", "tie-negative-pivot", "negative-scalar", "zero-rows-and-columns"],
    )
    def test_ties_and_exact_quotients_match_reference_transforms(self, rows):
        # a remainder of exactly |p| / 2 keeps the floor quotient, as before
        a = IntMatrix.from_rows(rows)
        dec = _snf_ext(a, True)
        assert (dec.s, dec.u, dec.v, dec.u_inv) == tuple(reference_snf_ext(a))[:4]
        assert_reference_diagonal(a)

    def test_nearest_remainder_under_a_negative_pivot(self):
        # 4 = -1 * -3 + 1, not -2 * -3 - 2: one column step reaches the unit
        a = IntMatrix.from_rows([[-3, 4]])
        dec = smith_normal_form(a)
        assert dec.diag == (1,)
        assert dec.u == IntMatrix.identity(1)
        assert dec.v == IntMatrix.from_rows([[1, 4], [1, 3]])
        assert_reference_diagonal(a)

    def test_tracked_inverses(self):
        rng = random.Random(404)
        shapes = [(rng.randint(0, 7), rng.randint(0, 7), 20) for _ in range(300)] + [(20, 20, 20)] * 3
        for r, c, bound in shapes:
            a = IntMatrix(r, c, tuple(rng.randint(-bound, bound) for _ in range(r * c)))
            dec = _snf_ext(a, True)
            assert dec.u @ dec.u_inv == IntMatrix.identity(r)
            assert dec.u @ a @ dec.v == dec.s

    @pytest.mark.parametrize("inverse", [False, True], ids=["smith_normal_form-and-solve", "cokernel"])
    def test_partial_tracking_matches_full(self, inverse):
        # u and v as if all were tracked, and u's inverse too or empty rows
        rng = random.Random(608 + inverse)
        shapes = [(0, k) for k in range(4)] + [(k, 0) for k in range(1, 4)]
        shapes += [(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(200)]
        shapes += [(rng.randint(24, 28), rng.randint(20, 28)) for _ in range(2)]
        for r, c in shapes:
            a = IntMatrix(r, c, tuple(rng.randint(-20, 20) for _ in range(r * c)))
            full, part = _snf_ext(a, True), _snf_ext(a, inverse)
            assert part.diag == full.diag, a
            for name in ALL_TRANSFORMS:
                rows = getattr(part, name)
                assert rows == (getattr(full, name) if name != "uit" or inverse else [[]] * len(rows)), (a, name)
                assert len(rows) == (c if name == "vt" else r)

    def test_views_build_on_a_partial_result(self):
        # perfbench/spans.py reads all four views of every traced Smith form
        a = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12]])
        full = _snf_ext(a, True)
        assert full.s == IntMatrix.from_rows([[2, 0, 0], [0, 6, 0]])
        assert smith_normal_form(a) == _snf_ext(a, False)
        for inverse in (False, True):
            dec = _snf_ext(a, inverse)
            assert dec.s == full.s
            same = (dec.u == full.u, dec.v == full.v, dec.u_inv == full.u_inv)
            assert same == (True, True, inverse)
            assert dec.v_inv.entries == ()

    @pytest.mark.parametrize("inverse", [False, True], ids=["u_rows+vt", "u_rows+vt+uit"])
    def test_pair_step_matches_quotient_by_quotient(self, inverse):
        # one 2x2 transform per pair leaves what one row update per quotient would
        rng = random.Random(707)
        shapes = [(r, c, bound) for r in range(9) for c in range(9) for bound in (1, 3, 20, 10**6)]
        shapes += [(24, 28, 20), (28, 26, 20)]
        track = ALL_TRANSFORMS if inverse else ("u_rows", "vt")
        for r, c, bound in shapes:
            a = IntMatrix(r, c, tuple(rng.randint(-bound, bound) for _ in range(r * c)))
            assert tuple(_snf_ext(a, inverse)) == reference_pair_snf_ext(a, track), a

    def test_pair_step_pinned(self):
        # the first pass leaves -2 and 3 under the pivot 6, and the pair step
        # on (6, -2) leaves -2; the next pass leaves -1 under it, and the pair
        # step on (-2, -1) leaves -1
        a = IntMatrix.from_rows([[6], [10], [15]])
        dec = _snf_ext(a, True)
        assert dec.diag == (1,)
        assert dec.u_rows == [[6, -2, -1], [-5, 3, 0], [10, -3, -2]]
        assert dec.uit == [[6, 10, 15], [1, 2, 2], [-3, -5, -8]]
        assert dec.u @ dec.u_inv == IntMatrix.identity(3)
        assert tuple(dec) == reference_pair_snf_ext(a, ALL_TRANSFORMS)

    def test_column_step_pinned(self):
        # the transpose: the first row pass leaves -2 and 3 right of the
        # pivot 6, and the column step on (6, -2) leaves -2; the next row pass
        # leaves -1 right of it, and the column step on (-2, -1) leaves -1
        a = IntMatrix.from_rows([[6, 10, 15]])
        dec = _snf_ext(a, True)
        assert dec.diag == (1,)
        assert dec.u_rows == dec.uit == [[-1]]
        assert dec.vt == [[-6, 2, 1], [-5, 3, 0], [10, -3, -2]]
        assert dec.u @ a @ dec.v == dec.s
        assert tuple(dec) == reference_pair_snf_ext(a, ALL_TRANSFORMS)

    @pytest.mark.parametrize("seed, u_bits, v_bits", [(808, 141, 1855), (809, 392, 2001)])
    def test_transform_growth_pinned(self, seed, u_bits, v_bits):
        # the largest u and v entries of a dense 28 x 28 matrix may shrink, never grow
        rng = random.Random(seed)
        dec = smith_normal_form(IntMatrix(28, 28, tuple(rng.randint(-20, 20) for _ in range(28 * 28))))
        assert max(abs(x).bit_length() for row in dec.u_rows for x in row) <= u_bits
        assert max(abs(x).bit_length() for row in dec.vt for x in row) <= v_bits


class TestNoCoercion:
    def test_float_matrix_entry_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1.5]])
        with pytest.raises(ValueError):
            IntMatrix(2, 1, (2, 1.0))

    def test_fraction_matrix_entry_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, Fraction(2)]])
        with pytest.raises(ValueError):
            IntMatrix(1, 1, (Fraction(3, 1),))

    def test_bool_matrix_entry_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[True, False]])
        with pytest.raises(ValueError):
            IntMatrix(2, 1, (2, True))

    def test_float_torsion_rejected(self):
        with pytest.raises(ValueError):
            FgAbGroup(0, (4.0,))
        with pytest.raises(ValueError):
            FgAbGroup(1, (2, Fraction(4)))

    def test_bool_dimensions_rejected(self):
        # the same type(x) is int rule as entries: True is not the integer 1
        with pytest.raises(ValueError, match="Python ints"):
            IntMatrix(True, True, (5,))
        with pytest.raises(ValueError, match="Python ints"):
            IntMatrix(1, 1.0, (5,))
        with pytest.raises(ValueError, match="Python int"):
            FgAbGroup(True)
        with pytest.raises(ValueError, match="Python int"):
            FgAbGroup(False, (), ())

    def test_bool_torsion_rejected(self):
        # a bool is below 2 as well; the message shows the type check caught it
        with pytest.raises(ValueError, match="Python ints"):
            FgAbGroup(0, (True,))

    def test_shapes_checked(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            IntMatrix.identity(2) @ IntMatrix.identity(3)
        with pytest.raises(ValueError, match="square"):
            identity_minus(IntMatrix.from_rows([[1, 2]]))

    @pytest.mark.parametrize("vec", [(1.5, 3.7), (1, 3.0), (Fraction(1), 3), (1, True)])
    def test_reduce_rejects_non_int_coordinates(self, vec):
        with pytest.raises(ValueError):
            FgAbGroup(1, (4,)).reduce(vec)


class TestGroups:
    def test_chain_validation(self):
        with pytest.raises(ValueError):
            FgAbGroup(0, (4, 6))
        with pytest.raises(ValueError):
            FgAbGroup(0, (1,))
        with pytest.raises(ValueError):
            FgAbGroup(1, (), ("a", "b"))

    def test_describe(self):
        assert str(FgAbGroup.trivial()) == "0"
        assert str(FgAbGroup(1)) == "Z"
        assert str(FgAbGroup(2, (4, 12))) == "Z^2 + Z/4 + Z/12"

    def test_hom_torsion_rejection(self):
        z2 = FgAbGroup(0, (2,), ("t",))
        with pytest.raises(ValueError):
            GroupHom(z2, Z, IntMatrix.from_rows([[1]]))
        # but 2 * (anything) = 0 in Z/4 fails too unless the entry is even
        z4 = FgAbGroup(0, (4,), ("s",))
        with pytest.raises(ValueError):
            GroupHom(z2, z4, IntMatrix.from_rows([[1]]))
        GroupHom(z2, z4, IntMatrix.from_rows([[2]]))  # fine

    def test_hom_torsion_check_matches_the_product(self):
        """d x = 0 mod t is tested as x = 0 mod t / gcd(d, t), and x = 0 on a
        free row: it accepts exactly the maps whose products vanish."""
        rng = random.Random(68)
        outcomes = set()
        for _ in range(400):
            source, target = random_group(rng, max_order=24), random_group(rng, max_order=24)
            entry = lambda: rng.choice((0, rng.randint(-30, 30)))
            rows = [[entry() for _ in range(source.gen_count)] for _ in range(target.gen_count)]
            m = IntMatrix.from_rows(rows, cols=source.gen_count)
            defined = not any(
                any(target.reduce([d * x for x in m.col(source.free_rank + j)])) for j, d in enumerate(source.torsion)
            )
            try:
                GroupHom(source, target, m)
            except ValueError as err:
                assert not defined and str(err).startswith("not well-defined on torsion"), (source, target, m)
            else:
                assert defined, (source, target, m)
            outcomes.add(defined)
        assert outcomes == {True, False}

    def test_hom_torsion_check_past_64000_digits(self):
        """On 64,000-digit torsion an ill-defined map is still rejected with
        the same error, and well-defined ones are accepted."""
        t = 10**64000
        z2, big = FgAbGroup(0, (2,), ("s",)), FgAbGroup(0, (2 * t,), ("t",))
        message = "^not well-defined on torsion: generator of order 2 maps to an element not killed by 2$"
        with pytest.raises(ValueError, match=message):
            GroupHom(z2, big, IntMatrix(1, 1, (t + 1,)))
        with pytest.raises(ValueError):
            GroupHom(big, FgAbGroup(0, (4 * t,), ("u",)), IntMatrix(1, 1, (1,)))
        GroupHom(z2, big, IntMatrix(1, 1, (t,)))
        GroupHom(big, big, IntMatrix(1, 1, (3 * t - 7,)))
        GroupHom(big, FgAbGroup(0, (4 * t,), ("u",)), IntMatrix(1, 1, (2,)))

    def test_json_roundtrip(self):
        g = FgAbGroup(1, (2, 6), ("a", "b", "c"))
        assert group_from_json(group_to_json(g), "group") == g


class TestCokernel:
    def test_zero_map(self):
        group, proj = cokernel(GroupHom(Z, Z, IntMatrix.from_rows([[0]])))
        assert is_isomorphic(group, Z)
        assert proj.apply((1,)) in ((1,), (-1,))

    def test_multiplication_by_one_minus_n(self):
        group, _ = cokernel(GroupHom(Z, Z, IntMatrix.from_rows([[1 - 3]])))
        assert group == FgAbGroup(0, (2,), group.gen_names)

    def test_exponent_map(self):
        target = FgAbGroup.free(2, ("a", "b"))
        h = GroupHom(Z, target, IntMatrix.from_rows([[0], [1 - 4]]))
        group, proj = cokernel(h)
        assert (group.free_rank, group.torsion) == (1, (3,))
        # generator names survive quotienting via the overline tag
        assert set(group.gen_names) == {"a‾", "b‾"}
        # the projection kills the image
        assert is_zero(compose(proj, h))


class TestKernel:
    def test_zero_map_full_kernel(self):
        group, inc = kernel(GroupHom(Z, Z, IntMatrix.from_rows([[0]])))
        assert is_isomorphic(group, Z)
        assert abs(inc.matrix.at(0, 0)) == 1

    def test_injective_multiplication(self):
        group, _ = kernel(GroupHom(Z, Z, IntMatrix.from_rows([[1 - 3]])))
        assert group.is_trivial

    def test_torsion_kernel(self):
        z4 = FgAbGroup(0, (4,), ("t",))
        group, inc = kernel(GroupHom(z4, z4, IntMatrix.from_rows([[2]])))
        assert (group.free_rank, group.torsion) == (0, (2,))
        # brute force: elements of Z/4 killed by doubling are {0, 2}
        assert sorted(x for x in range(4) if (2 * x) % 4 == 0) == [0, 2]
        assert inc.apply((1,)) == (2,)


class TestExactness:
    def test_random_composites_vanish(self):
        rng = random.Random(303)
        for _ in range(150):
            h = random_hom(rng)
            k, inc = kernel(h)
            q, proj = cokernel(h)
            assert is_zero(compose(h, inc))
            assert is_zero(compose(proj, h))

    def test_rank_nullity_over_q(self):
        rng = random.Random(404)
        for _ in range(150):
            source = FgAbGroup.free(rng.randint(0, 3))
            target = random_group(rng)
            h = random_hom(rng, source=source, target=target)
            k, _ = kernel(h)
            # tensoring with Q kills torsion, so the rational rank is that
            # of the free-to-free block
            free_block = IntMatrix.from_rows(
                [list(h.matrix.row(i)) for i in range(target.free_rank)],
                cols=source.gen_count,
            )
            rank_q = sum(1 for d in smith_normal_form(free_block).diag if d)
            assert k.free_rank + rank_q == source.free_rank


class TestFiniteGroupOracle:
    """Group-level brute force: the computed kernel and cokernel must have
    the right element-order multiset, not just satisfy exactness."""

    def test_kernel_and_cokernel_structure(self):
        from collections import Counter

        from helpers import add, order_in, random_finite_group, random_hom_matrix, subgroup_span

        rng = random.Random(12345)
        for _ in range(120):
            src = random_finite_group(rng, max_order=36)
            tgt = random_finite_group(rng, max_order=36)
            h = GroupHom(src, tgt, random_hom_matrix(rng, src, tgt))
            k, _ = kernel(h)
            q, _ = cokernel(h)

            ker_set = [x for x in finite_elements(src) if not any(h.apply(x))]
            assert group_order_multiset(k) == Counter(order_in(src, x) for x in ker_set)

            image = subgroup_span(tgt, [h.apply(x) for x in finite_elements(src)])
            assert q.order() * len(image) == tgt.order()
            reps = []
            seen = set()
            for x in finite_elements(tgt):
                coset = frozenset(add(tgt, x, s) for s in image)
                if coset not in seen:
                    seen.add(coset)
                    reps.append(x)

            def coset_order(x):
                acc, n = x, 1
                while acc not in image:
                    acc = add(tgt, acc, x)
                    n += 1
                return n

            assert group_order_multiset(q) == Counter(coset_order(x) for x in reps)

    def test_kernel_lattice_membership(self):
        import itertools

        from helpers import random_finite_group, random_hom_matrix

        rng = random.Random(777)
        for _ in range(60):
            src = FgAbGroup(rng.randint(0, 2), (4,) if rng.random() < 0.5 else ())
            tgt = (
                random_finite_group(rng, max_order=24)
                if rng.random() < 0.5
                else FgAbGroup(rng.randint(0, 2), (6,))
            )
            h = GroupHom(src, tgt, random_hom_matrix(rng, src, tgt))
            _, inc = kernel(h)
            ranges = [range(-2, 3)] * src.free_rank + [range(d) for d in src.torsion]
            for vec in itertools.product(*ranges):
                in_kernel = not any(h.apply(vec))
                has_preimage = solve(inc, tuple(vec)) is not None
                assert in_kernel == has_preimage


class TestElementOrder:
    def test_examples(self):
        g = FgAbGroup(1, (4,), ("a", "b"))
        assert element_order(g, (0, 1)) == 4
        assert element_order(g, (1, 0)) == math.inf
        assert element_order(g, (0, 0)) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            element_order(Z, (1, 2))

    def test_matches_repeated_addition(self):
        """The least k >= 1 whose k-fold sum is 0, found by adding the element
        to itself; a class of finite order lies in the torsion, so it has
        order at most the torsion's, and past that the order is infinite."""

        def brute_order(g, elem):
            bound = math.prod(g.torsion)
            total = g.zero()
            for k in range(1, bound + 1):
                total = g.reduce([x + y for x, y in zip(total, elem)])
                if not any(total):
                    return k
            return math.inf

        rng = random.Random(581)
        checked = 0
        while checked < 60:
            chain = random_torsion_chain(rng, max_order=96, max_len=3)
            if not chain:
                continue
            g = FgAbGroup(rng.randint(0, 2), chain)
            checked += 1
            for torsion in itertools.product(*(range(d) for d in chain)):
                # representatives off the canonical range, too
                torsion = [x + d * rng.randint(-2, 2) for x, d in zip(torsion, chain)]
                elem = (0,) * g.free_rank + tuple(torsion)
                assert element_order(g, elem) == brute_order(g, elem), (g, elem)
                if g.free_rank and rng.random() < 0.1:
                    free = [rng.randint(-3, 3) for _ in range(g.free_rank)]
                    free[rng.randrange(g.free_rank)] = rng.choice((-2, -1, 1, 2))
                    elem = (*free, *torsion)
                    assert element_order(g, elem) == brute_order(g, elem) == math.inf, (g, elem)


class TestIsomorphism:
    def test_examples(self):
        assert is_isomorphic(FgAbGroup(1), FgAbGroup(1))
        assert is_isomorphic(FgAbGroup(1, (2,)), FgAbGroup(1, (2,), ("p", "q")))
        assert not is_isomorphic(FgAbGroup(0, (4,)), FgAbGroup(0, (2, 2)))

    def test_matches_order_multiset_oracle(self):
        # on finite groups, same invariant factors iff same element orders
        rng = random.Random(505)
        chains = [(2,), (4,), (2, 2), (8,), (2, 4), (2, 2), (3,), (9,), (3, 3), (6,), (2, 6), (12,), (60,), (2, 60)]
        groups = [FgAbGroup(0, c) for c in chains if math.prod(c) <= 200]
        for _ in range(200):
            g1, g2 = rng.choice(groups), rng.choice(groups)
            assert is_isomorphic(g1, g2) == (group_order_multiset(g1) == group_order_multiset(g2))


class TestSolveAndGenerates:
    def test_solve_finds_preimages(self):
        rng = random.Random(606)
        for _ in range(100):
            h = random_hom(rng)
            vec = tuple(rng.randint(-3, 3) for _ in range(h.source.gen_count))
            y = h.apply(vec)
            x = solve(h, y)
            assert x is not None
            assert h.apply(x) == y

    def test_solve_detects_unsolvable(self):
        h = GroupHom(Z, Z, IntMatrix.from_rows([[2]]))
        assert solve(h, (1,)) is None

    def test_generates(self):
        assert generates(Z, (1,))
        assert not generates(Z, (2,))
        g = FgAbGroup(0, (2, 6))
        assert not generates(g, (1, 1))  # Z/2 + Z/6 is not cyclic
        assert generates(FgAbGroup(0, (6,)), (5,))

    def test_generates_matches_the_smith_form(self):
        """``generates`` reads the normal form, the reference the Smith form
        of [vec | relations]; on a finite group both must also agree with
        the span of vec. The fixed groups are the trivial group, Z, Z^2,
        Z + Z/d, cyclic groups and two-step chains."""
        rng = random.Random(707)
        fixed = [FgAbGroup.trivial(), Z, FgAbGroup.free(2), FgAbGroup(1, (6,)), FgAbGroup(0, (7,))]
        fixed += [FgAbGroup(0, (12,)), FgAbGroup(0, (2, 4)), FgAbGroup(0, (3, 6)), FgAbGroup(1, (2, 10))]
        groups = fixed * 20 + [random_group(rng) for _ in range(400)] + [random_finite_group(rng) for _ in range(400)]
        outcomes = Counter()
        for g in groups:
            n = g.gen_count
            vecs = [g.zero(), *(tuple(s * (j == i) for j in range(n)) for i in range(n) for s in (1, -1))]
            vecs += [tuple(rng.randint(-12, 12) for _ in range(n)) for _ in range(2)]
            if n == 1 and g.torsion:  # a unit and a non-unit mod d, off [0, d)
                d = g.torsion[0]
                for want in (True, False):
                    x = rng.choice([x for x in range(d) if (math.gcd(x, d) == 1) == want])
                    vecs.append((x + d * rng.choice([-2, -1, 1, 2]),))
            for vec in vecs:
                got = generates(g, vec)
                assert got == reference_generates(g, vec), (g, vec)
                if not g.free_rank:
                    assert got == (len(subgroup_span(g, [g.reduce(vec)])) == g.order()), (g, vec)
                outcomes[min(n, 2), bool(g.torsion), got] += 1
        assert sum(outcomes.values()) >= 2000
        # both answers on one generator, only "yes" on none, only "no" on two or more
        assert {key for key in outcomes if key[0] == 1} == {(1, t, a) for t in (False, True) for a in (False, True)}
        assert {key[2] for key in outcomes if key[0] == 0} == {True}
        assert {key[2] for key in outcomes if key[0] == 2} == {False}
        for fn in (generates, reference_generates):
            with pytest.raises(ValueError, match="vector length does not match generator count"):
                fn(Z, (1, 0))
            with pytest.raises(ValueError, match="vector coordinates must be Python ints"):
                fn(Z, (1.0,))


def occurrence_suffixes(candidates):
    """The earlier naming rule: the k-th repeat of a name gets suffix k, taken or not."""
    seen = Counter()
    out = []
    for name in candidates:
        seen[name] += 1
        out.append(name if seen[name] == 1 else f"{name}{seen[name]}")
    return tuple(out)


class TestUniqueNames:
    def test_declared_name_like_a_suffixed_one(self):
        assert occurrence_suffixes(["a", "a", "a2"]) == ("a", "a2", "a2")
        assert _unique_names(["a", "a", "a2"]) == ("a", "a3", "a2")
        assert _unique_names(["a", "a2", "a", "a", "a3"]) == ("a", "a2", "a4", "a5", "a3")

    def test_unique_and_unchanged_where_the_earlier_rule_was_unique(self):
        rng = random.Random(489)
        pool = ["a", "a2", "a3", "a22", "b", "b2", "q0", "q02"]
        clashes = 0
        for _ in range(3000):
            candidates = [rng.choice(pool) for _ in range(rng.randint(0, 9))]
            got, earlier = _unique_names(candidates), occurrence_suffixes(candidates)
            assert len(set(got)) == len(got) == len(candidates), candidates
            # a repeat takes the least suffix, from its occurrence number on, not yet taken
            seen, taken = Counter(), set(candidates)
            for name, out in zip(candidates, got):
                seen[name] += 1
                if seen[name] > 1:
                    suffix = int(out[len(name) :])
                    assert out.startswith(name) and suffix >= seen[name], candidates
                    assert all(f"{name}{i}" in taken for i in range(seen[name], suffix)), candidates
                    taken.add(out)
            if len(set(earlier)) == len(earlier):
                assert got == earlier, candidates
            else:
                clashes += 1
            if len(set(candidates)) == len(candidates):
                assert got == tuple(candidates), candidates
        assert clashes >= 300, clashes
