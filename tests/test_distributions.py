"""Tests for finite distributions, pushforwards, and the two base inequalities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    constant_translator,
    dispatch_by_source_tag,
    identity_translator,
    pushforward,
    random_distribution,
    random_translator,
    tv_distance,
    weight,
    zero_one_error,
)
from translab.distributions import WEIGHT_TOL, DeterministicTranslator, FiniteDistribution, Sentence
from translab.errors import DomainError

TOL = 1e-12


def dist(pairs) -> FiniteDistribution:
    atoms = tuple(a for a, _ in pairs)
    return FiniteDistribution(atoms, np.array([w for _, w in pairs]))


@st.composite
def weight_vector(draw, size):
    raw = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=100, allow_nan=False, allow_infinity=False),
            min_size=size,
            max_size=size,
        )
    )
    total = sum(raw)
    return [w / total for w in raw]


@st.composite
def small_distribution(draw, atoms=("a", "b", "c", "d")):
    size = draw(st.integers(min_value=1, max_value=len(atoms)))
    weights = draw(weight_vector(size))
    return FiniteDistribution(tuple(atoms[:size]), np.array(weights))


class TestFiniteDistribution:
    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="negative"):
            FiniteDistribution(("a", "b"), np.array([1.5, -0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weight(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            FiniteDistribution(("a", "b"), np.array([bad, 0.5]))

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError, match="sum"):
            FiniteDistribution(("a", "b"), np.array([0.5, 0.4]))

    def test_rejects_duplicate_atoms(self):
        with pytest.raises(ValueError, match="duplicate"):
            FiniteDistribution(("a", "a"), np.array([0.5, 0.5]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            FiniteDistribution(("a", "b"), np.array([1.0]))

    def test_weight_lookup_defaults_to_zero(self):
        d = dist([("a", 0.25), ("b", 0.75)])
        assert weight(d, "a") == 0.25
        assert weight(d, "zzz") == 0.0


class TestSentence:
    def test_equality_is_fieldwise(self):
        assert Sentence("L0", "x") == Sentence("L0", "x")
        assert Sentence("L0", "x") != Sentence("L1", "x")
        assert Sentence("L0", "x", "L2") != Sentence("L0", "x")

    def test_prefix_shows_target_then_source(self):
        assert repr(Sentence("En", "hi", target_tag="Fr")) == "<Fr><En>hi"


class TestTvDistance:
    def test_identical_distributions(self):
        d = dist([("a", 0.3), ("b", 0.7)])
        assert tv_distance(d, d) == 0.0

    def test_disjoint_supports(self):
        p = dist([("a", 0.4), ("b", 0.6)])
        q = dist([("c", 1.0)])
        assert tv_distance(p, q) == pytest.approx(1.0, abs=TOL)

    def test_matched_two_atom_support(self):
        # half-L1 by hand: 0.5 * (|0.9-0.1| + |0.1-0.9|) = 0.8
        p = dist([("a", 0.9), ("b", 0.1)])
        q = dist([("a", 0.1), ("b", 0.9)])
        assert tv_distance(p, q) == pytest.approx(0.8, abs=TOL)

    @given(small_distribution(), small_distribution())
    def test_symmetry_and_range(self, p, q):
        tv = tv_distance(p, q)
        assert tv == pytest.approx(tv_distance(q, p), abs=TOL)
        assert -TOL <= tv <= 1 + TOL

    @given(small_distribution())
    def test_identity_of_indiscernibles(self, p):
        assert tv_distance(p, p) <= TOL

    @given(small_distribution(), small_distribution(), small_distribution())
    def test_triangle_inequality(self, p, q, r):
        assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r) + TOL


class TestPushforward:
    def test_identity_map(self):
        d = dist([("a", 0.3), ("b", 0.7)])
        out = pushforward(d, identity_translator(d.support))
        assert out.support == d.support
        assert np.allclose(out.weights, d.weights, atol=TOL)

    def test_constant_map_collapses(self):
        d = dist([("a", 0.3), ("b", 0.7)])
        out = pushforward(d, constant_translator(d.support, "y"))
        assert out.support == ("y",)
        assert weight(out, "y") == pytest.approx(1.0, abs=TOL)

    def test_mass_merging(self):
        d = dist([("a", 0.3), ("b", 0.7)])
        out = pushforward(d, DeterministicTranslator({"a": "x", "b": "x"}))
        assert out.support == ("x",)
        assert weight(out, "x") == pytest.approx(1.0, abs=TOL)

    def test_partial_map_is_a_domain_error(self):
        d = dist([("a", 0.3), ("b", 0.7)])
        with pytest.raises(DomainError):
            pushforward(d, DeterministicTranslator({"a": "x"}))

    @given(small_distribution(), st.integers(min_value=0, max_value=10**6))
    def test_mass_preserved(self, d, seed):
        rng = np.random.default_rng(seed)
        f = random_translator(rng, d.support, ("x", "y"))
        out = pushforward(d, f)
        assert float(out.weights.sum()) == pytest.approx(1.0, abs=TOL)


class TestZeroOneError:
    def test_agreement_gives_zero(self):
        d = dist([("a", 0.5), ("b", 0.5)])
        f = DeterministicTranslator({"a": "x", "b": "y"})
        assert zero_one_error(d, f, f) == 0.0

    def test_total_disagreement_gives_one(self):
        d = dist([("a", 0.5), ("b", 0.5)])
        f = DeterministicTranslator({"a": "x", "b": "y"})
        g = DeterministicTranslator({"a": "y", "b": "x"})
        assert zero_one_error(d, f, g) == pytest.approx(1.0, abs=TOL)

    def test_weighted_single_disagreement(self):
        d = dist([("a", 0.9), ("b", 0.1)])
        f_star = DeterministicTranslator({"a": "x", "b": "y"})
        f = constant_translator(("a", "b"), "x")
        assert zero_one_error(d, f, f_star) == pytest.approx(0.1, abs=TOL)

    def test_domain_mismatch(self):
        d = dist([("a", 1.0)])
        f = DeterministicTranslator({"b": "x"})
        with pytest.raises(DomainError):
            zero_one_error(d, f, f)


def pushforward_tv(d, f, g) -> float:
    return tv_distance(pushforward(d, f), pushforward(d, g))


class TestDisagreementBound:
    def test_equal_maps(self):
        d = dist([("a", 0.5), ("b", 0.5)])
        f = DeterministicTranslator({"a": "x", "b": "y"})
        assert pushforward_tv(d, f, f) == 0.0
        assert zero_one_error(d, f, f) == 0.0

    def test_swapped_equal_mass_images(self):
        # pushforwards coincide while the maps disagree everywhere
        d = dist([("a", 0.5), ("b", 0.5)])
        f = DeterministicTranslator({"a": "x", "b": "y"})
        g = DeterministicTranslator({"a": "y", "b": "x"})
        tv, disagreement = pushforward_tv(d, f, g), zero_one_error(d, f, g)
        assert tv == pytest.approx(0.0, abs=TOL)
        assert disagreement == pytest.approx(1.0, abs=TOL)
        assert tv <= disagreement + WEIGHT_TOL

    @given(small_distribution(), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=200)
    def test_holds_on_random_instances(self, d, seed):
        rng = np.random.default_rng(seed)
        images = ("x", "y", "z")
        f = random_translator(rng, d.support, images)
        g = random_translator(rng, d.support, images)
        assert pushforward_tv(d, f, g) <= zero_one_error(d, f, g) + WEIGHT_TOL


class TestDataProcessing:
    def test_identity_preserves_tv(self):
        p = dist([("a", 0.9), ("b", 0.1)])
        q = dist([("a", 0.2), ("b", 0.8)])
        h = identity_translator(("a", "b"))
        after = tv_distance(pushforward(p, h), pushforward(q, h))
        assert after == pytest.approx(tv_distance(p, q), abs=TOL)

    def test_constant_collapses_tv(self):
        p = dist([("a", 0.9), ("b", 0.1)])
        q = dist([("a", 0.2), ("b", 0.8)])
        h = constant_translator(("a", "b"), "y")
        after = tv_distance(pushforward(p, h), pushforward(q, h))
        assert after == pytest.approx(0.0, abs=TOL)
        assert after <= tv_distance(p, q) + WEIGHT_TOL

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=200)
    def test_holds_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        atoms = ("a", "b", "c", "d")
        p = random_distribution(rng, atoms)
        q = random_distribution(rng, atoms)
        h = random_translator(rng, atoms, ("x", "y"))
        assert tv_distance(pushforward(p, h), pushforward(q, h)) <= tv_distance(p, q) + WEIGHT_TOL


class TestDispatch:
    def test_routes_by_source_tag(self):
        a0, b0 = Sentence("L0", "a0"), Sentence("L1", "b0")
        y0, y1 = Sentence("L", "y0"), Sentence("L", "y1")
        combined = dispatch_by_source_tag(
            {
                "L0": DeterministicTranslator({a0: y0}),
                "L1": DeterministicTranslator({b0: y1}),
            }
        )
        assert combined(a0) == y0
        assert combined(b0) == y1

    def test_rejects_mistagged_translator(self):
        wrong = Sentence("L9", "w")
        with pytest.raises(DomainError):
            dispatch_by_source_tag({"L0": DeterministicTranslator({wrong: wrong})})
