"""Tests for codecs, latent sampling, corpora, and the exact moment checks."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from helpers import (
    affine_moments,
    assert_same_bits,
    corpus_of_pairs,
    encode,
    encoder_map,
    invariance_gap,
    moment_gap,
    moment_tv_lower_bound,
    out_of_place_latent_sample,
    target_moments,
    whole_array_pairs,
)
from translab.affine import AffineMap
from translab.errors import DomainError, GraphError
from translab.generative import (
    AlignedCorpus,
    FunctionClassSpec,
    LatentSampler,
    NOISE_VARIANCE,
    PARALLEL_ROWS,
    ROW_BLOCK,
    RandomizedCodec,
    TranslationGraph,
    _halves,
    _on_two_threads,
    _row_blocks,
    corpus_rows,
    generate_rows,
    latent_second_moment,
    randomized_generate,
    sample_randomized_codecs,
    six_language_demo_graph,
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

    @pytest.mark.parametrize("dim", range(1, 13))  # in order below 8, 8 partial sums from 8
    @pytest.mark.parametrize("radius", [1.0, 2.5])
    def test_in_place_draws_match_the_out_of_place_formula_bitwise(self, dim, radius):
        z = LatentSampler(dim, radius, seed=11).sample(1000)
        reference = out_of_place_latent_sample(dim, radius, 11, 1000)
        assert np.array_equal(z, reference)
        assert [v.hex() for v in z.ravel()] == [v.hex() for v in reference.ravel()]

    @pytest.mark.parametrize(
        "m", [ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1]
    )
    def test_row_blocks_match_the_out_of_place_formula_bitwise(self, m):
        z = LatentSampler(6, 1.5, seed=11).sample(m)
        assert_same_bits(z, out_of_place_latent_sample(6, 1.5, 11, m))

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejects_a_negative_or_non_finite_radius(self, radius):
        with pytest.raises(ValueError, match="radius"):
            LatentSampler(3, radius)

    def test_empirical_mean_matches_ball_symmetry(self):
        # per-coordinate variance of the uniform ball is B^2 / (d + 2)
        d, radius, m = 3, 1.0, 100_000
        z = LatentSampler(d, radius, seed=5).sample(m)
        assert np.linalg.norm(z.mean(axis=0)) <= 4 * radius / np.sqrt(m * (d + 2))


class TestGroundTruthCodecs:
    def test_singular_values_inside_band(self):
        spec = FunctionClassSpec(dim=4, rho=2.0)
        for codec in sample_randomized_codecs(spec, 5, 0, 0.0, seed=0):
            s = np.linalg.svd(codec.decoder.linear, compute_uv=False)
            assert s.max() <= 2.0 + 1e-9
            assert s.min() >= 0.5 - 1e-9

    def test_unit_band_collapses_to_isometries(self):
        spec = FunctionClassSpec(dim=4, rho=1.0, offset_bound=0.0)
        for codec in sample_randomized_codecs(spec, 3, 0, 0.0, seed=0):
            assert np.allclose(codec.decoder.linear.T @ codec.decoder.linear, np.eye(4), atol=1e-9)
            assert np.allclose(codec.decoder.offset, 0.0)

    def test_composite_operator_norm_within_rho_squared(self):
        spec = FunctionClassSpec(dim=4, rho=2.0)
        c0, c1 = sample_randomized_codecs(spec, 2, 0, 0.0, seed=3)
        composite = encoder_map(c1).compose(c0.decoder)
        assert composite.singular_values[0] <= spec.rho**2 + 1e-9

    def test_roundtrip_inversion(self):
        spec = FunctionClassSpec(dim=5)
        codec = sample_randomized_codecs(spec, 1, 0, 0.0, seed=2)[0]
        z = LatentSampler(5, 1.0, seed=0).sample(1000)
        assert np.abs(encode(codec, codec.decode(z)) - z).max() <= 1e-9

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
            assert np.array_equal(ca.decoder.linear, cb.decoder.linear)
            assert np.array_equal(ca.decoder.offset, cb.decoder.offset)

    def test_rejects_singular_matrix(self):
        with pytest.raises(ValueError):
            RandomizedCodec(AffineMap(np.zeros((2, 2)), np.zeros(2)))

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            RandomizedCodec(AffineMap(np.eye(2), np.zeros(2)), 1, sigma)
        with pytest.raises(ValueError, match="sigma"):
            sample_randomized_codecs(FunctionClassSpec(dim=1), 2, 1, sigma, seed=0)

    def test_noiseless_codecs_reproduce_ground_truth_stream(self, monkeypatch):
        # inline reference for the deterministic model's codec stream
        spec = FunctionClassSpec(dim=3, rho=2.0, offset_bound=1.0)
        rng = np.random.default_rng(derive_seed(5, "ground-truth-codecs"))
        checks, svd = [], np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            if kwargs.get("compute_uv") is False:
                checks.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        codecs = sample_randomized_codecs(spec, 4, 0, 0.0, seed=5)
        assert checks == [(4, 3, 3)]  # one singularity check for the four codecs
        for codec in codecs:
            u, s, vt = svd(rng.standard_normal((3, 3)))
            W = u @ np.diag(np.clip(s, 0.5, 2.0)) @ vt
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            b = direction * (1.0 * rng.random() ** (1.0 / 3))
            assert np.array_equal(codec.decoder.linear, W)
            assert np.array_equal(codec.decoder.offset, b)
            assert codec.nuisance_dim == 0 and codec.sigma == 0.0
            assert codec.decoder.linear.flags.c_contiguous
            assert np.array_equal(codec.decoder.singular_values, svd(W, compute_uv=False))
        # Stacking and indexing keep the bits, the C layout and the singular values.
        restacked = RandomizedCodec.stack(codecs[::-1])
        for i, codec in enumerate(codecs):
            pairs = ((restacked[3 - i], codec.decoder), (codec[None], codec.decoder[None]))
            for view, want in pairs:
                assert (view.sigma, view.nuisance_dim) == (codec.sigma, codec.nuisance_dim)
                assert np.array_equal(view.decoder.linear, want.linear)
                assert np.array_equal(view.decoder.offset, want.offset)
                assert view.decoder.linear.flags.c_contiguous
                cached = view.decoder.__dict__["singular_values"]
                assert np.array_equal(cached, want.singular_values)
        assert checks == [(4, 3, 3)]  # and they check no decoder again
        noisy = sample_randomized_codecs(spec, 4, 0, 0.1, seed=5)
        assert not np.array_equal(noisy[0].decoder.linear, codecs[0].decoder.linear)


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
        za = encode(codecs["A"], corpus.source_points)
        zb = encode(codecs["B"], corpus.target_points)
        assert np.abs(za - zb).max() <= 1e-9

    def test_sample_mean_near_decoded_origin(self):
        codecs = self._codecs(seed=4)
        m = 50_000
        corpus = randomized_generate(("A", "B"), codecs, m, LatentSampler(3, 1.0, 2), seed=2)
        gap = np.linalg.norm(corpus.source_points.mean(axis=0) - codecs["A"].decoder.offset)
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
        assert np.array_equal(a.rows, b.rows)


class TestAlignedCorpus:
    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_pairs_are_copied_into_read_only_rows(self, dtype):
        pairs = np.arange(12, dtype=dtype).reshape(3, 2, 2)
        corpus = corpus_of_pairs(pairs)
        x, y = pairs[:, 0, :], pairs[:, 1, :]
        assert np.array_equal(corpus.rows, np.hstack([x, np.ones((3, 1)), y]))
        assert corpus.rows.dtype == np.float64 and not corpus.rows.flags.writeable
        assert pairs.flags.writeable
        views = [(corpus.source_points, x), (corpus.target_points, y)]
        for view, want in views:
            assert np.shares_memory(view, corpus.rows)
            assert np.array_equal(view, want) and not view.flags.writeable
        assert (corpus.n, corpus.dim) == (3, 2)

    def test_takes_the_rows_without_a_copy(self):
        pairs = np.arange(24.0).reshape(4, 2, 3)
        rows = corpus_rows((4,), 3)
        rows[:, :3], rows[:, 4:] = pairs[:, 0], pairs[:, 1]
        corpus = AlignedCorpus(("A", "B"), rows, {"n": 4})
        assert corpus.rows is rows and not rows.flags.writeable
        assert np.array_equal(corpus.source_points, pairs[:, 0])
        assert np.array_equal(corpus.target_points, pairs[:, 1])
        assert np.array_equal(rows[:, 3], np.ones(4))
        assert corpus.edge == ("A", "B") and corpus.meta == {"n": 4}

    @pytest.mark.parametrize(
        "rows",
        [
            np.zeros((4, 2, 3)),  # pairs, not rows
            np.zeros((4, 12)),  # even width: no dim fits it
            np.zeros((4, 1)),  # dim 0
            np.zeros((4, 7), dtype=np.float32),
            np.zeros((4, 7), dtype=np.int64),
            np.zeros(7),
        ],
        ids=["pairs", "even width", "width 1", "float32", "int64", "1-D"],
    )
    def test_anything_but_float64_rows_of_odd_width_is_a_value_error(self, rows):
        with pytest.raises(ValueError, match=re.escape(f"got shape {rows.shape}")):
            AlignedCorpus(("A", "B"), rows, {})
        assert rows.flags.writeable

    def test_a_list_is_a_value_error(self):
        with pytest.raises(ValueError, match=re.escape("got shape (1, 3)")):
            AlignedCorpus(("A", "B"), [[1.0, 1.0, 2.0]], {})


class TestRandomizedGenerate:
    def test_degenerate_noise_reduces_bitwise(self):
        spec = FunctionClassSpec(dim=3)
        codecs = dict(zip("AB", sample_randomized_codecs(spec, 2, 0, 0.0, seed=0)))
        sampler = LatentSampler(3, 1.0, seed=7)
        corpus = randomized_generate(("A", "B"), codecs, 100, sampler, seed=3)
        z = sampler.fork(3, "latent", "A", "B").sample(100)
        decoders = [codecs[lang].decoder for lang in "AB"]
        x, y = (z @ m.linear.T + m.offset for m in decoders)
        assert np.array_equal(corpus.source_points, x)
        assert np.array_equal(corpus.target_points, y)
        assert corpus.meta["sigma"] == 0.0 and corpus.meta["nuisance_dim"] == 0

    def test_noisy_pairs_match_the_stacked_formula_bitwise(self):
        spec = FunctionClassSpec(dim=3)
        codecs = dict(zip("AB", sample_randomized_codecs(spec, 2, 2, 0.1, seed=1)))
        sampler = LatentSampler(3, 1.0, seed=4)
        corpus = randomized_generate(("A", "B"), codecs, 300, sampler, seed=5)
        z = sampler.fork(5, "latent", "A", "B").sample(300)
        noise_rng = np.random.default_rng(derive_seed(5, "noise", sampler.seed, "A", "B"))
        sides = []
        for lang in "AB":
            codec = codecs[lang]
            r = codec.draw_decoder_seeds(noise_rng, 300)
            stacked = np.concatenate([z, codec.sigma * r], axis=1)
            sides.append(stacked @ codec.decoder.linear.T + codec.decoder.offset)
        assert np.array_equal(corpus.source_points, sides[0])
        assert np.array_equal(corpus.target_points, sides[1])

    def test_codecs_of_different_dimensions_are_a_domain_error(self):
        a = sample_randomized_codecs(FunctionClassSpec(dim=3), 1, 0, 0.0, seed=0)[0]
        b = sample_randomized_codecs(FunctionClassSpec(dim=3), 1, 1, 0.1, seed=0)[0]
        with pytest.raises(DomainError, match="different dimensions"):
            randomized_generate(("A", "B"), {"A": a, "B": b}, 10, LatentSampler(3, 1.0, 0), 0)

    def test_codecs_with_different_noise_settings_are_a_domain_error(self):
        # The corpus records one sigma and nuisance_dim: the edge's shared setting.
        spec = FunctionClassSpec(dim=3)
        a, b = (sample_randomized_codecs(spec, 1, 1, sigma, seed=0)[0] for sigma in (0.1, 0.2))
        with pytest.raises(DomainError, match="different noise settings"):
            randomized_generate(("A", "B"), {"A": a, "B": b}, 10, LatentSampler(3, 1.0, 0), 0)

    def test_encoder_recovers_latents_exactly(self):
        spec = FunctionClassSpec(dim=3)
        codecs = dict(zip("AB", sample_randomized_codecs(spec, 2, 2, 0.1, seed=1)))
        sampler = LatentSampler(3, 1.0, seed=4)
        corpus = randomized_generate(("A", "B"), codecs, 500, sampler, seed=5)
        za = encode(codecs["A"], corpus.source_points)
        zb = encode(codecs["B"], corpus.target_points)
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
        decoder = codecs["B"].decoder
        stacked = (corpus.target_points - decoder.offset) @ np.linalg.inv(decoder.linear).T
        noise = stacked[:, 2:]
        expected = sigma * truncnorm.std(-3, 3)
        observed = noise.std(axis=0)
        assert np.allclose(observed, expected, rtol=0.05)


class TestRowBlocks:
    """Latents are normalized and decoded ``ROW_BLOCK`` rows at a time."""

    #: (latent dim, nuisance dim, sigma) of each codec setting.
    SETTINGS = {"noiseless dim 6": (6, 0, 0.0), "dim 2 + 1 nuisance": (2, 1, 0.05)}

    @staticmethod
    def _codecs(dim, nuisance_dim, sigma):
        spec = FunctionClassSpec(dim=dim)
        return dict(zip("AB", sample_randomized_codecs(spec, 2, nuisance_dim, sigma, seed=3)))

    @pytest.mark.parametrize(
        "n", [1, 2, ROW_BLOCK, ROW_BLOCK + 1, ROW_BLOCK + 2, 2 * ROW_BLOCK + 1, 5 * ROW_BLOCK + 3]
    )
    @pytest.mark.parametrize("size", [ROW_BLOCK, 2, 3, 512])
    def test_blocks_cover_the_rows_and_hold_one_row_only_when_n_is_1(self, n, size):
        blocks = [range(n)[rows] for rows in _row_blocks(n, size)]
        assert [i for block in blocks for i in block] == list(range(n))
        assert all(len(block) <= size + 1 for block in blocks)
        assert n == 1 or all(len(block) > 1 for block in blocks)

    @pytest.mark.parametrize(
        "n, start",
        [(ROW_BLOCK + 2, ROW_BLOCK), (2 * ROW_BLOCK, ROW_BLOCK), (2 * ROW_BLOCK + 1, ROW_BLOCK),
         (7 * ROW_BLOCK + 1, 2 * ROW_BLOCK), (7 * ROW_BLOCK + 3, 2 * ROW_BLOCK)],
    )
    def test_blocks_from_a_block_boundary_are_the_tail_of_the_blocks(self, n, start):
        tail = [rows for rows in _row_blocks(n) if rows.start >= start]
        assert tail[0].start == start
        assert _row_blocks(n, start=start) == tail

    @pytest.mark.parametrize(
        "n", [1, 2, ROW_BLOCK + 1, PARALLEL_ROWS - 1, PARALLEL_ROWS, PARALLEL_ROWS + 1,
              PARALLEL_ROWS + ROW_BLOCK + 1, 500_000]
    )
    def test_halves_split_large_ranges_at_a_row_block(self, n):
        parts = _halves(n)
        assert parts[0].start == 0 and parts[-1].stop == n
        if n < PARALLEL_ROWS:
            assert parts == [slice(0, n)]
        else:
            (first, second) = parts
            assert first.stop == second.start and first.stop % ROW_BLOCK == 0
            assert abs((n - first.stop) - first.stop) <= ROW_BLOCK + 1
            # Each half's blocks are the whole range's blocks inside it.
            assert _row_blocks(first.stop) + _row_blocks(n, start=second.start) == _row_blocks(n)

    @pytest.mark.parametrize("setting", SETTINGS.values(), ids=SETTINGS.keys())
    @pytest.mark.parametrize(
        "n", [1, 2, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1]
    )
    def test_rows_match_the_whole_array_decode_bitwise(self, setting, n):
        dim, nuisance_dim, sigma = setting
        codecs = self._codecs(dim, nuisance_dim, sigma)
        sampler = LatentSampler(dim, 1.0, seed=5)
        rows = generate_rows(("A", "B"), codecs, n, sampler, [7])
        width = dim + nuisance_dim
        assert rows.shape == (1, n, 2 * width + 1)
        assert np.all(rows[0, :, width] == 1.0)
        pairs = whole_array_pairs(("A", "B"), codecs, n, sampler, 7)
        assert_same_bits(rows[0, :, :width], pairs[:, 0])
        assert_same_bits(rows[0, :, width + 1 :], pairs[:, 1])

    @pytest.mark.parametrize("nuisance_dim, sigma, limit", [(0, 0.0, 1.5), (1, 0.05, 2.0)])
    def test_traced_peak_is_the_rows_and_the_latents(self, nuisance_dim, sigma, limit):
        # numpy reports its data buffers to tracemalloc, so the traced peak
        # past the returned rows counts the latents, the noise seeds and
        # whatever temporaries the draws and the decode make.
        n, dim = 8 * ROW_BLOCK + 1, 6
        codecs = self._codecs(dim, nuisance_dim, sigma)
        sampler = LatentSampler(dim, 1.0, seed=5)
        generate_rows(("A", "B"), codecs, 2, sampler, [0])  # imports outside the trace
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            rows = generate_rows(("A", "B"), codecs, n, sampler, [7])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        latent_bytes = n * dim * np.dtype(np.float64).itemsize
        ratio = (peak - rows.nbytes) / latent_bytes
        assert ratio <= limit, f"traced peak past the rows is {ratio:.2f}x the latents"


class TestOnTwoThreads:
    def test_one_part_runs_on_this_thread(self):
        import threading

        assert _on_two_threads(lambda part: (part, threading.get_ident()), ["a"]) == [
            ("a", threading.get_ident())
        ]

    def test_two_parts_run_on_two_threads_in_order(self):
        import threading

        barrier = threading.Barrier(2, timeout=10)

        def work(part):
            barrier.wait()  # returns only when both parts run at once
            return part, threading.get_ident()

        (first, main), (second, worker) = _on_two_threads(work, ["a", "b"])
        assert (first, second) == ("a", "b")
        assert main == threading.get_ident() != worker

    @pytest.mark.parametrize("failing", ["a", "b"])
    def test_an_exception_in_either_part_is_raised_after_both_ran(self, failing):
        ran = []

        def work(part):
            ran.append(part)
            if part == failing:
                raise ValueError(part)
            return part

        with pytest.raises(ValueError, match=failing):
            _on_two_threads(work, ["a", "b"])
        assert sorted(ran) == ["a", "b"]


class TestInvariance:
    def test_exact_construction_holds(self):
        spec = FunctionClassSpec(dim=3)
        codec = sample_randomized_codecs(spec, 1, 2, 0.3, seed=0)[0]
        mean_gap, cov_gap, holds = invariance_gap(codec)
        assert mean_gap <= 1e-12
        assert cov_gap <= 1e-12
        assert holds

    def test_many_noisy_codecs_hold_to_rounding(self):
        spec = FunctionClassSpec(dim=4)
        codecs = sample_randomized_codecs(spec, 200, 3, 0.2, seed=0)
        results = [invariance_gap(codec) for codec in codecs]
        assert all(holds for *_, holds in results)
        assert max(max(mean_gap, cov_gap) for mean_gap, cov_gap, _ in results) <= 1e-14

    def test_corrupted_encoder_fails(self):
        spec = FunctionClassSpec(dim=3)
        good, other = sample_randomized_codecs(spec, 2, 2, 0.3, seed=0)
        *_, holds = invariance_gap(good, inverse=lambda x: encode(other, x))
        assert not holds

    def test_inverse_off_by_one_millionth_fails(self):
        spec = FunctionClassSpec(dim=4)
        codec = sample_randomized_codecs(spec, 1, 3, 0.2, seed=1)[0]
        inverse = np.linalg.inv(codec.decoder.linear)
        inverse[0, 0] += 1e-6

        def perturbed(x):
            return ((x - codec.decoder.offset) @ inverse.T)[:, : codec.latent_dim]

        _, cov_gap, holds = invariance_gap(codec, inverse=perturbed)
        assert cov_gap > 1e-8
        assert not holds

    def test_radius_scales_the_latent_covariance(self):
        codec = sample_randomized_codecs(FunctionClassSpec(dim=2), 1, 1, 0.1, seed=3)[0]
        *_, holds = invariance_gap(codec, radius=2.5)
        assert holds


class TestAffineMoments:
    def test_matches_the_codec_algebra(self):
        spec = FunctionClassSpec(dim=3)
        codec = sample_randomized_codecs(spec, 1, 2, 0.3, seed=4)[0]
        mean, cov = affine_moments(codec.decode, 3, 2, 1.5)
        scale = np.r_[np.full(3, latent_second_moment(3, 1.5)), np.full(2, 0.09 * NOISE_VARIANCE)]
        assert np.allclose(mean, codec.decoder.offset, atol=1e-15)
        linear = codec.decoder.linear
        assert np.allclose(cov, linear @ np.diag(scale) @ linear.T, atol=1e-14)

    @pytest.mark.parametrize("k,sigma", [(0, 0.0), (2, 0.2)])
    def test_monte_carlo_corpus_moments_match(self, k, sigma):
        # sampled corpora from the real generator against the closed form:
        # each side's mean and covariance entries within 4 standard errors
        spec = FunctionClassSpec(dim=3)
        codecs = dict(zip("AB", sample_randomized_codecs(spec, 2, k, sigma, seed=5)))
        m = 100_000
        corpus = randomized_generate(
            ("A", "B"), codecs, m, LatentSampler(3, spec.radius, seed=5), seed=5
        )
        for codec, points in (
            (codecs["A"], corpus.source_points),
            (codecs["B"], corpus.target_points),
        ):
            mean, cov = affine_moments(codec.decode, 3, k, spec.radius)
            mean_se = points.std(axis=0, ddof=1) / np.sqrt(m)
            assert np.all(np.abs(points.mean(axis=0) - mean) <= 4.0 * mean_se)
            centred = points - mean
            products = centred[:, :, None] * centred[:, None, :]
            cov_se = products.std(axis=0, ddof=1) / np.sqrt(m)
            assert np.all(np.abs(products.mean(axis=0) - cov) <= 4.0 * cov_se)

    def test_moment_gap_tolerance_scales_with_covariance(self):
        cov = np.diag([1e6, 1.0])
        *_, holds = moment_gap((np.zeros(2), cov), (np.full(2, 1e-4), cov))
        assert holds
        *_, holds = moment_gap((np.zeros(2), cov), (np.full(2, 1e-2), cov))
        assert not holds
        small = np.eye(2) * 1e-3
        *_, holds = moment_gap((np.zeros(2), small), (np.zeros(2), small * 1.00001))
        assert not holds


class TestPropositionZero:
    def _setup(self, seed=0, d=4, k=0, sigma=0.0):
        spec = FunctionClassSpec(dim=d)
        langs = ["S0", "S1", "T"]
        return dict(zip(langs, sample_randomized_codecs(spec, 3, k, sigma, seed=seed)))

    def _gap(self, codecs_by_source):
        moments = target_moments(codecs_by_source, "T")
        return moment_gap(moments["S0"], moments["S1"])

    def test_distinct_sources_give_zero_gaps(self):
        codecs = self._setup(seed=1, k=3, sigma=0.2)
        mean_gap, cov_gap, holds = self._gap({"S0": codecs, "S1": codecs})
        assert holds
        assert mean_gap == 0.0 and cov_gap == 0.0

    def test_mismatched_decoder_fails(self):
        codecs = self._setup(seed=2)
        spec = FunctionClassSpec(dim=4)
        rogue = sample_randomized_codecs(spec, 1, 0, 0.0, seed=99)[0]
        *_, holds = self._gap({"S0": codecs, "S1": {**codecs, "T": rogue}})
        assert not holds

    def test_target_noise_enters_the_moments(self):
        # same target map, but one corpus decodes its target without noise
        codecs = self._setup(seed=3, k=2, sigma=0.3)
        target = codecs["T"]
        quiet = RandomizedCodec(target.decoder, target.nuisance_dim, 0.0)
        mean_gap, cov_gap, holds = self._gap({"S0": codecs, "S1": {**codecs, "T": quiet}})
        assert mean_gap == 0.0 and cov_gap > 1e-3
        assert not holds

    def test_needs_two_sources(self):
        codecs = self._setup()
        with pytest.raises(ValueError):
            target_moments({"S0": codecs}, "T")

    def test_unknown_language_is_rejected(self):
        codecs = self._setup()
        with pytest.raises(DomainError):
            target_moments({"S0": codecs, "X": codecs}, "T")


class TestMomentTvLowerBound:
    def test_underestimates_tv_for_shifted_samples(self):
        # uniform laws on [0, 1] and [s, 1 + s]: TV is s, the means differ by s
        shift = 0.3
        sup_norm = 1.0 + shift
        lb = moment_tv_lower_bound(np.array([0.5]), np.array([0.5 + shift]), sup_norm)
        assert lb == pytest.approx(shift / (2 * sup_norm))
        assert lb <= shift

    def test_equal_samples_give_tiny_bound(self):
        codec = sample_randomized_codecs(FunctionClassSpec(dim=3), 1, 1, 0.1, seed=3)[0]
        mean_a, _ = affine_moments(codec.decode, 3, 1, 1.0)
        mean_b, _ = affine_moments(codec.decode, 3, 1, 1.0)
        assert moment_tv_lower_bound(mean_a, mean_b, 2.0) == 0.0

    def test_rejects_nonpositive_sup_norm(self):
        with pytest.raises(ValueError):
            moment_tv_lower_bound(np.zeros(2), np.ones(2), 0.0)


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

    def test_bfs_tree_parents_in_visit_order(self):
        graph = TranslationGraph(
            ("D", "C", "B", "A", "E"),
            (("D", "C", 1), ("A", "C", 1), ("B", "A", 1), ("D", "B", 1)),
        )
        tree = graph.bfs_tree("A")
        assert list(tree.items()) == [("A", None), ("B", "A"), ("C", "A"), ("D", "B")]
        assert graph.bfs_tree("E") == {"E": None}
        assert not graph.is_connected()

    def test_demo_graph_shape(self):
        graph = six_language_demo_graph()
        assert len(graph.languages) == 6
        assert graph.is_connected()
        assert ("L1", "L3", 200) in graph.edges
