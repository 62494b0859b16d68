import math
import random
from fractions import Fraction

import pytest

from bs_ktheory.abelian import (
    FgAbGroup,
    GroupHom,
    IntMatrix,
    _snf_ext,
    cokernel,
    element_order,
    generates,
    group_from_json,
    group_to_json,
    is_isomorphic,
    kernel,
    smith_normal_form,
    solve,
)
from helpers import (
    finite_elements,
    group_order_multiset,
    minors_invariant_factors,
    random_group,
    random_hom,
    reference_snf_ext,
)

Z = FgAbGroup.free(1, ("x",))
ALL_TRANSFORMS = ("u_rows", "vt", "uit")


def snf_invariants_hold(a: IntMatrix) -> None:
    dec = smith_normal_form(a)
    assert dec.u @ a @ dec.v == dec.s
    assert abs(dec.u.det()) == 1
    assert abs(dec.v.det()) == 1
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
    dec = _snf_ext(a, ALL_TRANSFORMS)
    ref = reference_snf_ext(a)
    assert dec.diag == tuple(ref.s.at(i, i) for i in range(min(r, c))), a
    assert dec.u @ a @ dec.v == dec.s == ref.s, a
    assert dec.u @ dec.u_inv == IntMatrix.identity(r), a
    assert abs(dec.u.det()) == abs(dec.v.det()) == 1, a


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
        snf_invariants_hold(IntMatrix.zeros(2, 3))
        assert smith_normal_form(IntMatrix.zeros(2, 3)).diag == (0, 0)
        for r, c in ((0, 3), (3, 0)):
            dec = smith_normal_form(IntMatrix.zeros(r, c))
            assert dec.diag == () and (dec.u, dec.v) == (IntMatrix.identity(r), IntMatrix.identity(c))
            assert_reference_diagonal(IntMatrix.zeros(r, c))
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
        assert_reference_diagonal(IntMatrix(r, c, tuple(rng.randint(-20, 20) for _ in range(r * c))))

    @pytest.mark.parametrize(
        "rows",
        [[[2, 3]], [[2], [3]], [[-2, 3]], [[-6]], [[0, 0, 0], [0, 4, 6], [0, 0, 0]]],
        ids=["tie-row", "tie-column", "tie-negative-pivot", "negative-scalar", "zero-rows-and-columns"],
    )
    def test_ties_and_exact_quotients_match_reference_transforms(self, rows):
        # a remainder of exactly |p| / 2 keeps the floor quotient, as before
        a = IntMatrix.from_rows(rows)
        dec = _snf_ext(a, ALL_TRANSFORMS)
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
            dec = _snf_ext(a, ALL_TRANSFORMS)
            assert dec.u @ dec.u_inv == IntMatrix.identity(r)
            assert dec.u @ a @ dec.v == dec.s

    @pytest.mark.parametrize(
        "track",
        [("u_rows", "vt"), ("u_rows", "uit"), ("vt",), ("uit",), ()],
        ids=["smith_normal_form-and-solve", "cokernel", "kernel-basis", "kernel-relations", "generates"],
    )
    def test_partial_tracking_matches_full(self, track):
        # each caller's subset: tracked fields as if all were, the rest empty rows
        rng = random.Random(606 + len(track))
        shapes = [(0, k) for k in range(4)] + [(k, 0) for k in range(1, 4)]
        shapes += [(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(200)]
        shapes += [(rng.randint(24, 28), rng.randint(20, 28)) for _ in range(2)]
        for r, c in shapes:
            a = IntMatrix(r, c, tuple(rng.randint(-20, 20) for _ in range(r * c)))
            full, part = _snf_ext(a, ALL_TRANSFORMS), _snf_ext(a, track)
            assert part.diag == full.diag, a
            for name in ALL_TRANSFORMS:
                rows = getattr(part, name)
                assert rows == (getattr(full, name) if name in track else [[]] * len(rows)), (a, name)
                assert len(rows) == (c if name == "vt" else r)

    def test_views_build_on_a_partial_result(self):
        # perfbench/spans.py reads all four views of every traced Smith form
        a = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12]])
        full = _snf_ext(a, ALL_TRANSFORMS)
        assert full.s == IntMatrix.from_rows([[2, 0, 0], [0, 6, 0]])
        assert smith_normal_form(a) == _snf_ext(a, ("u_rows", "vt"))
        for track in ((), ("u_rows", "vt"), ("u_rows", "uit"), ("vt",), ("uit",)):
            dec = _snf_ext(a, track)
            assert dec.s == full.s
            same = (dec.u == full.u, dec.v == full.v, dec.u_inv == full.u_inv)
            assert same == tuple(name in track for name in ALL_TRANSFORMS)
            assert dec.v_inv.entries == ()


class TestNoCoercion:
    def test_float_matrix_entry_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1.5]])
        with pytest.raises(ValueError):
            IntMatrix.column([2, 1.0])

    def test_fraction_matrix_entry_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, Fraction(2)]])
        with pytest.raises(ValueError):
            IntMatrix.column([Fraction(3, 1)])

    def test_bool_matrix_entry_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[True, False]])
        with pytest.raises(ValueError):
            IntMatrix.column([2, True])

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

    def test_json_roundtrip(self):
        g = FgAbGroup(1, (2, 6), ("a", "b", "c"))
        assert group_from_json(group_to_json(g)) == g


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
        assert proj.compose(h).is_zero()


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
            assert h.compose(inc).is_zero()
            assert proj.compose(h).is_zero()

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
