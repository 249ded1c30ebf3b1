"""Tests for codecs, latent sampling, corpora, and the moment tests."""

import numpy as np
import pytest

from helpers import encoder_map
from translab.affine import AffineMap
from translab.errors import DomainError, GraphError
from translab.generative import (
    AlignedCorpus,
    FunctionClassSpec,
    LatentSampler,
    RandomizedCodec,
    TranslationGraph,
    invariance_test,
    moment_tv_lower_bound,
    proposition_zero_check,
    randomized_generate,
    sample_randomized_codecs,
    six_language_demo_graph,
    two_sample_moment_gaps,
)
from translab.seeding import derive_seed


class TestFunctionClassSpec:
    def test_sup_bound_is_derived(self):
        spec = FunctionClassSpec(dim=3, radius=1.5, rho=2.0, offset_bound=0.5)
        assert spec.M == pytest.approx(2.0 * 1.5 + 0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dim": 0},
            {"dim": 2, "radius": 0.0},
            {"dim": 2, "rho": 0.5},
            {"dim": 2, "offset_bound": -1.0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            FunctionClassSpec(**kwargs)


class TestLatentSampler:
    def test_draws_stay_in_ball(self):
        sampler = LatentSampler(3, 2.0, seed=1)
        z = sampler.sample(5000)
        assert np.linalg.norm(z, axis=1).max() <= 2.0 + 1e-12

    def test_zero_radius_gives_zero_vectors(self):
        sampler = LatentSampler(3, 0.0, seed=1)
        assert np.abs(sampler.sample(10)).max() == 0.0

    def test_same_seed_same_stream(self):
        a = LatentSampler(4, 1.0, seed=9).sample(100)
        b = LatentSampler(4, 1.0, seed=9).sample(100)
        assert np.array_equal(a, b)

    def test_fork_is_deterministic_and_distinct(self):
        base = LatentSampler(4, 1.0, seed=9)
        a = base.fork("x").sample(10)
        b = LatentSampler(4, 1.0, seed=9).fork("x").sample(10)
        c = base.fork("y").sample(10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_empirical_mean_matches_ball_symmetry(self):
        # per-coordinate variance of the uniform ball is B^2 / (d + 2)
        d, radius, m = 3, 1.0, 100_000
        z = LatentSampler(d, radius, seed=5).sample(m)
        assert np.linalg.norm(z.mean(axis=0)) <= 4 * radius / np.sqrt(m * (d + 2))


class TestGroundTruthCodecs:
    def test_singular_values_inside_band(self):
        spec = FunctionClassSpec(dim=4, rho=2.0)
        for codec in sample_randomized_codecs(spec, 5, 0, 0.0, seed=0):
            s = np.linalg.svd(codec.W, compute_uv=False)
            assert s.max() <= 2.0 + 1e-9
            assert s.min() >= 0.5 - 1e-9

    def test_unit_band_collapses_to_isometries(self):
        spec = FunctionClassSpec(dim=4, rho=1.0, offset_bound=0.0)
        for codec in sample_randomized_codecs(spec, 3, 0, 0.0, seed=0):
            assert np.allclose(codec.W.T @ codec.W, np.eye(4), atol=1e-9)
            assert np.allclose(codec.b, 0.0)

    def test_composite_operator_norm_within_rho_squared(self):
        spec = FunctionClassSpec(dim=4, rho=2.0)
        c0, c1 = sample_randomized_codecs(spec, 2, 0, 0.0, seed=3)
        composite = encoder_map(c1).compose(AffineMap(c0.W, c0.b))
        assert composite.operator_norm() <= spec.rho**2 + 1e-9

    def test_roundtrip_inversion(self):
        spec = FunctionClassSpec(dim=5)
        codec = sample_randomized_codecs(spec, 1, 0, 0.0, seed=2)[0]
        z = LatentSampler(5, 1.0, seed=0).sample(1000)
        assert np.abs(codec.encode(codec.decode(z)) - z).max() <= 1e-9

    def test_decoded_points_respect_sup_bound(self):
        spec = FunctionClassSpec(dim=4)
        codec = sample_randomized_codecs(spec, 1, 0, 0.0, seed=7)[0]
        z = LatentSampler(4, spec.radius, seed=0).sample(2000)
        assert np.linalg.norm(codec.decode(z), axis=1).max() <= spec.M + 1e-9

    def test_sampling_is_bit_deterministic(self):
        spec = FunctionClassSpec(dim=3)
        a = sample_randomized_codecs(spec, 4, 0, 0.0, seed=11)
        b = sample_randomized_codecs(spec, 4, 0, 0.0, seed=11)
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.W, cb.W) and np.array_equal(ca.b, cb.b)

    def test_rejects_singular_matrix(self):
        with pytest.raises(ValueError):
            RandomizedCodec(np.zeros((2, 2)), np.zeros(2))

    def test_noiseless_codecs_reproduce_ground_truth_stream(self):
        # inline reference for the deterministic model's codec stream
        spec = FunctionClassSpec(dim=3, rho=2.0, offset_bound=1.0)
        rng = np.random.default_rng(derive_seed(5, "ground-truth-codecs"))
        codecs = sample_randomized_codecs(spec, 4, 0, 0.0, seed=5)
        for codec in codecs:
            u, s, vt = np.linalg.svd(rng.standard_normal((3, 3)))
            W = u @ np.diag(np.clip(s, 0.5, 2.0)) @ vt
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            b = direction * (1.0 * rng.random() ** (1.0 / 3))
            assert np.array_equal(codec.W, W) and np.array_equal(codec.b, b)
            assert codec.nuisance_dim == 0 and codec.sigma == 0.0
        noisy = sample_randomized_codecs(spec, 4, 0, 0.1, seed=5)
        assert not np.array_equal(noisy[0].W, codecs[0].W)


class TestGenerateCorpus:
    def _codecs(self, d=3, seed=0, count=2):
        spec = FunctionClassSpec(dim=d)
        return dict(zip("AB", sample_randomized_codecs(spec, count, 0, 0.0, seed=seed)))

    def test_same_language_gives_identical_sides(self):
        codecs = self._codecs()
        codecs["B"] = codecs["A"]
        corpus = randomized_generate(("A", "B"), codecs, 50, LatentSampler(3, 1.0, 0), seed=0)
        assert np.array_equal(corpus.source_points, corpus.target_points)

    def test_shared_latent_alignment(self):
        codecs = self._codecs()
        corpus = randomized_generate(("A", "B"), codecs, 200, LatentSampler(3, 1.0, 0), seed=1)
        za = codecs["A"].encode(corpus.source_points)
        zb = codecs["B"].encode(corpus.target_points)
        assert np.abs(za - zb).max() <= 1e-9

    def test_sample_mean_near_decoded_origin(self):
        codecs = self._codecs(seed=4)
        m = 50_000
        corpus = randomized_generate(("A", "B"), codecs, m, LatentSampler(3, 1.0, 2), seed=2)
        gap = np.linalg.norm(corpus.source_points.mean(axis=0) - codecs["A"].b)
        rho = 2.0
        assert gap <= rho * 4 / np.sqrt(m * (3 + 2))

    def test_unknown_language(self):
        codecs = self._codecs()
        with pytest.raises(DomainError):
            randomized_generate(("A", "C"), codecs, 10, LatentSampler(3, 1.0, 0), seed=0)

    def test_reproducible_from_seed(self):
        codecs = self._codecs()
        a = randomized_generate(("A", "B"), codecs, 64, LatentSampler(3, 1.0, 5), seed=9)
        b = randomized_generate(("A", "B"), codecs, 64, LatentSampler(3, 1.0, 5), seed=9)
        assert np.array_equal(a.pairs, b.pairs)


class TestAlignedCorpus:
    def test_float64_pairs_are_taken_over_and_frozen(self):
        pairs = np.zeros((3, 2, 2))
        corpus = AlignedCorpus(("A", "B"), pairs, {})
        assert corpus.pairs is pairs
        assert not pairs.flags.writeable

    def test_int_pairs_are_converted(self):
        pairs = np.arange(12).reshape(3, 2, 2)
        corpus = AlignedCorpus(("A", "B"), pairs, {})
        assert corpus.pairs.dtype == np.float64
        assert np.array_equal(corpus.pairs, pairs)
        assert not corpus.pairs.flags.writeable
        assert pairs.flags.writeable


class TestRandomizedGenerate:
    def test_degenerate_noise_reduces_bitwise(self):
        spec = FunctionClassSpec(dim=3)
        codecs = dict(zip("AB", sample_randomized_codecs(spec, 2, 0, 0.0, seed=0)))
        sampler = LatentSampler(3, 1.0, seed=7)
        corpus = randomized_generate(("A", "B"), codecs, 100, sampler, seed=3)
        z = sampler.fork(3, "latent", "A", "B").sample(100)
        expected = np.stack([z @ codecs[lang].W.T + codecs[lang].b for lang in "AB"], axis=1)
        assert np.array_equal(corpus.pairs, expected)
        assert corpus.meta["sigma"] == 0.0 and corpus.meta["nuisance_dim"] == 0

    def test_encoder_recovers_latents_exactly(self):
        spec = FunctionClassSpec(dim=3)
        codecs = dict(zip("AB", sample_randomized_codecs(spec, 2, 2, 0.1, seed=1)))
        sampler = LatentSampler(3, 1.0, seed=4)
        corpus = randomized_generate(("A", "B"), codecs, 500, sampler, seed=5)
        za = codecs["A"].encode(corpus.source_points)
        zb = codecs["B"].encode(corpus.target_points)
        assert np.abs(za - zb).max() <= 1e-9

    def test_nuisance_coordinate_scale(self):
        # recovering the stacked vector exposes the noise coordinates, whose
        # standard deviation is sigma times the truncated-normal deviation
        from scipy.stats import truncnorm

        sigma = 0.2
        spec = FunctionClassSpec(dim=2)
        codecs = dict(zip("AB", sample_randomized_codecs(spec, 2, 2, sigma, seed=2)))
        corpus = randomized_generate(
            ("A", "B"), codecs, 40_000, LatentSampler(2, 1.0, seed=1), seed=1
        )
        codec = codecs["B"]
        stacked = (corpus.target_points - codec.b) @ np.linalg.inv(codec.W).T
        noise = stacked[:, 2:]
        expected = sigma * truncnorm.std(-3, 3)
        observed = noise.std(axis=0)
        assert np.allclose(observed, expected, rtol=0.05)


class TestInvariance:
    def test_exact_construction_holds(self):
        spec = FunctionClassSpec(dim=3)
        codec = sample_randomized_codecs(spec, 1, 2, 0.3, seed=0)[0]
        result = invariance_test(codec, LatentSampler(3, 1.0, seed=1), 5000)
        assert result.mean_gap <= 1e-9
        assert result.cov_gap <= 1e-9
        assert result.holds

    def test_corrupted_encoder_fails(self):
        spec = FunctionClassSpec(dim=3)
        good, other = sample_randomized_codecs(spec, 2, 2, 0.3, seed=0)

        class Corrupted:
            nuisance_dim = good.nuisance_dim

            def draw_decoder_seeds(self, rng, m):
                return good.draw_decoder_seeds(rng, m)

            def decode(self, z, r=None):
                return good.decode(z, r)

            def encode(self, x):
                return other.encode(x)  # wrong inverse

        result = invariance_test(Corrupted(), LatentSampler(3, 1.0, seed=1), 5000)
        assert not result.holds

    def test_requires_enough_samples(self):
        spec = FunctionClassSpec(dim=2)
        codec = sample_randomized_codecs(spec, 1, 1, 0.1, seed=0)[0]
        with pytest.raises(ValueError):
            invariance_test(codec, LatentSampler(2, 1.0, seed=0), 100)

    def test_two_sample_gap_shrinks_like_root_m(self):
        # the moment statistic between independent equal-distribution batches
        # scales as 1/sqrt(m); regression over a 16x range of m
        sampler = LatentSampler(3, 1.0, seed=6)
        sizes = [1000, 4000, 16000]
        medians = []
        for m in sizes:
            gaps = []
            for trial in range(10):
                a = sampler.fork("a", m, trial).sample(m)
                b = sampler.fork("b", m, trial).sample(m)
                gaps.append(two_sample_moment_gaps(a, b).mean_gap)
            medians.append(np.median(gaps))
        slope = np.polyfit(np.log(sizes), np.log(medians), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.25)


class TestPropositionZero:
    def _setup(self, seed=0, d=4):
        spec = FunctionClassSpec(dim=d)
        langs = ["S0", "S1", "T"]
        codecs = dict(zip(langs, sample_randomized_codecs(spec, 3, 0, 0.0, seed=seed)))
        return codecs, LatentSampler(d, 1.0, seed=seed)

    def test_shared_latents_give_zero_stat(self):
        codecs, sampler = self._setup()
        result = proposition_zero_check(
            codecs, ["S0", "S1"], "T", sampler, 2000, share_latents=True
        )
        assert result.max_stat == 0.0
        assert result.holds

    def test_independent_streams_pass(self):
        codecs, sampler = self._setup(seed=1)
        result = proposition_zero_check(codecs, ["S0", "S1"], "T", sampler, 10_000)
        assert result.holds

    def test_mismatched_decoder_fails(self):
        codecs, sampler = self._setup(seed=2)
        spec = FunctionClassSpec(dim=4)
        rogue = sample_randomized_codecs(spec, 1, 0, 0.0, seed=99)[0]
        result = proposition_zero_check(
            codecs,
            ["S0", "S1"],
            "T",
            sampler,
            10_000,
            decoder_override={"S1": rogue},
        )
        assert not result.holds

    def test_needs_two_sources(self):
        codecs, sampler = self._setup()
        with pytest.raises(ValueError):
            proposition_zero_check(codecs, ["S0"], "T", sampler, 2000)


class TestMomentTvLowerBound:
    def test_underestimates_tv_for_shifted_samples(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((20000, 3)) * 0.1
        shift = np.array([0.5, 0.0, 0.0])
        b = rng.standard_normal((20000, 3)) * 0.1 + shift
        sup_norm = 2.0
        lb, se = moment_tv_lower_bound(a, b, sup_norm)
        assert lb == pytest.approx(np.linalg.norm(shift) / (2 * sup_norm), rel=0.05)
        assert se < lb / 10

    def test_equal_samples_give_tiny_bound(self):
        sampler = LatentSampler(3, 1.0, seed=3)
        a = sampler.fork("a").sample(20000)
        b = sampler.fork("b").sample(20000)
        lb, se = moment_tv_lower_bound(a, b, 2.0)
        assert lb <= 3 * se


class TestTranslationGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            TranslationGraph(("A", "B"), (("A", "A", 10),))

    def test_rejects_duplicate_edges(self):
        with pytest.raises(GraphError):
            TranslationGraph(("A", "B"), (("A", "B", 10), ("B", "A", 5)))

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(GraphError):
            TranslationGraph(("A", "B"), (("A", "C", 10),))

    def test_connectivity(self):
        connected = TranslationGraph(("A", "B", "C"), (("A", "B", 1), ("B", "C", 1)))
        assert connected.is_connected()
        split = TranslationGraph(("A", "B", "C"), (("A", "B", 1),))
        assert not split.is_connected()
        with pytest.raises(GraphError):
            split.require_connected()

    def test_round_trip_dict(self):
        graph = TranslationGraph(("A", "B", "C"), (("A", "B", 7), ("B", "C", 9)))
        again = TranslationGraph.from_dict(graph.to_dict())
        assert again.languages == graph.languages
        assert again.edges == graph.edges

    def test_demo_graph_shape(self):
        graph = six_language_demo_graph()
        assert len(graph.languages) == 6
        assert graph.is_connected()
        assert graph.sample_count("L1", "L3") == 200
