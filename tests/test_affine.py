"""Tests for ``AffineMap`` as one map and as a stack of maps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from translab.affine import AffineMap


def random_map(rng, rows, cols, scale, order):
    linear = np.array(scale * rng.standard_normal((rows, cols)), order=order)
    return AffineMap(linear, scale * rng.standard_normal(rows))


def layout_stack(maps, order):
    """The maps as one stack whose linear parts keep ``order``'s memory layout."""
    if order == "C":
        return AffineMap.stack(maps)
    transposed = np.array([m.linear.T for m in maps])
    return AffineMap(transposed.transpose(0, 2, 1), np.array([m.offset for m in maps]))


def assert_same_map(got, want):
    assert np.array_equal(got.linear, want.linear)
    assert np.array_equal(got.offset, want.offset)


class TestStackedMaps:
    """Each map of a stack gets the single map's results bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 11),
        shape=st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8)),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        order=st.sampled_from(["C", "F"]),
    )
    def test_stack_matches_one_map_at_a_time(self, seed, count, shape, scale, order):
        # maps R^n -> R^m, composed after maps R^p -> R^n and around square ones
        m, n, p = shape
        rng = np.random.default_rng(seed)
        maps = [random_map(rng, m, n, scale, order) for _ in range(count)]
        inners = [random_map(rng, n, p, scale, order) for _ in range(count)]
        right, left = random_map(rng, n, n, scale, order), random_map(rng, m, m, scale, order)
        stack, inner_stack = layout_stack(maps, order), layout_stack(inners, order)
        outer_composites = stack.compose(right)
        inner_composites = left.compose(stack)
        pairwise = stack.compose(inner_stack)
        for i, single in enumerate(maps):
            assert stack[i].linear.flags.f_contiguous == (order == "F" or 1 in (m, n))
            assert_same_map(stack[i], single)
            assert single.dim == n and single.singular_values.shape == (min(m, n),)
            assert np.array_equal(stack.singular_values[i], single.singular_values)
            assert np.array_equal(stack[i].singular_values, single.singular_values)
            assert_same_map(outer_composites[i], single.compose(right))
            assert_same_map(inner_composites[i], left.compose(single))
            assert_same_map(pairwise[i], single.compose(inners[i]))

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("rows", [5, 3])
    def test_stack_of_one_keeps_the_layout(self, order, rows):
        single = random_map(np.random.default_rng(4), rows, 5, 1.0, order)
        one = single[None]
        assert one.linear.shape == (1, rows, 5) and one.offset.shape == (1, rows)
        back = one[0]
        for m in (single, back):
            assert m.linear.flags.f_contiguous == (order == "F")
            assert m.linear.flags.c_contiguous == (order == "C")
        assert np.shares_memory(back.linear, single.linear)
        assert_same_map(back, single)

    def test_indexing_reuses_the_singular_values(self, monkeypatch):
        rng = np.random.default_rng(2)
        linear = rng.standard_normal((6, 3, 3))
        linear[2] = 0.0
        stack = AffineMap(linear, rng.standard_normal((6, 3)))
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        regular = np.flatnonzero(stack.nonsingular)
        assert regular.tolist() == [0, 1, 3, 4, 5]
        assert stack[regular][1].singular_values[-1] == stack.singular_values[1, -1]
        assert stack[regular].nonsingular.all()
        assert len(calls) == 1

    def test_stack_keeps_the_singular_values_only_when_every_map_has_them(self, monkeypatch):
        rng = np.random.default_rng(5)
        checked = AffineMap(rng.standard_normal((4, 3, 3)), rng.standard_normal((4, 3)))
        want = np.linalg.svd(checked.linear, compute_uv=False)
        assert not checked.singular_values.flags.writeable
        maps = [checked[i] for i in range(4)]
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        restacked = AffineMap.stack(maps[::-1])
        assert "singular_values" in restacked.__dict__
        assert np.array_equal(restacked.singular_values, want[::-1])
        assert not restacked.singular_values.flags.writeable
        assert restacked.nonsingular.all()
        assert calls == []
        fresh = AffineMap(checked.linear[0], checked.offset[0])
        mixed = AffineMap.stack([maps[1], fresh])
        assert "singular_values" not in mixed.__dict__
        assert np.array_equal(mixed.singular_values, want[[1, 0]])
        assert len(calls) == 1

    def test_maps_are_read_only(self):
        stack = AffineMap.stack([AffineMap(np.eye(2), np.zeros(2)), AffineMap(2 * np.eye(2), np.ones(2))])
        wide = AffineMap(np.ones((2, 3)), np.zeros(2))
        for m in (stack, stack[0], stack[None], stack.compose(stack), stack.compose(wide), wide):
            assert not m.linear.flags.writeable and not m.offset.flags.writeable
            assert not m.singular_values.flags.writeable

    @pytest.mark.parametrize(
        "linear, offset",
        [
            (np.ones((2, 3)), np.zeros(3)),
            (np.ones(3), np.zeros(3)),
            (np.eye(2), np.zeros(3)),
            (np.ones((4, 2, 2)), np.zeros((4, 3))),
            (np.ones((4, 2, 2)), np.zeros(2)),
        ],
    )
    def test_rejects_mismatched_shapes(self, linear, offset):
        with pytest.raises(ValueError):
            AffineMap(linear, offset)
