"""Tests for population losses, path bounds, and the sample-size formulas."""

import hashlib
import math

import numpy as np
import pytest

from helpers import (
    assert_same_bits,
    composite,
    encoder_map,
    inverse,
    joint_estimate,
    lexicographic_shortest_path,
    max_entry_difference,
    monte_carlo_pair_loss,
    per_trial_sweep_rows,
    population_loss,
    random_connected_graph,
    scalar_affine_loss,
    truth_estimate,
    with_gauge,
)
from translab import evaluation
from translab.affine import AffineMap
from translab.errors import DomainError, GraphError
from translab.evaluation import (
    PairEvalRecord,
    _affine_losses,
    concentration_bound,
    required_sample_size,
    sample_complexity_sweep,
    shortest_path_and_diameter,
    verify_chain_bound,
)
from translab.generative import (
    NOISE_VARIANCE,
    ROW_BLOCK,
    FunctionClassSpec,
    LatentSampler,
    RandomizedCodec,
    TranslationGraph,
    _truncated_normal,
    latent_second_moment,
    randomized_generate,
    sample_randomized_codecs,
    six_language_demo_graph,
)
from translab.seeding import derive_seed
from translab.trainer import EncoderEstimate, fit_edge
from test_trainer import chain_setup


def spec_of(sampler: LatentSampler) -> FunctionClassSpec:
    return FunctionClassSpec(dim=sampler.dim, radius=sampler.radius)


def scalar(a: float) -> AffineMap:
    return AffineMap(np.array([[a]]), np.zeros(1))


def square_estimate(encoders: dict) -> EncoderEstimate:
    """The estimate of invertible square encoders, each decoder its encoder's inverse."""
    return EncoderEstimate(encoders, {lang: inverse(enc) for lang, enc in encoders.items()})


class TestPopulationLoss:
    def test_truth_estimate_scores_zero(self):
        _graph, codecs, _corpora, sampler = chain_setup()
        estimate = truth_estimate(codecs)
        loss = population_loss(estimate, ("L0", "L2"), codecs, spec_of(sampler))
        assert loss <= 1e-12

    def test_one_dimensional_closed_form(self):
        # truth composite scales by 2; the estimate scales by 2 + delta; inputs
        # uniform on [-1, 1], so the loss is delta^2 * E[x^2] = delta^2 / 3
        delta = 0.3
        codecs = {
            "A": RandomizedCodec(AffineMap(np.eye(1), np.zeros(1))),
            "B": RandomizedCodec(AffineMap(np.array([[2.0]]), np.zeros(1))),
        }
        estimate = square_estimate({"A": scalar(1.0), "B": scalar(1.0 / (2.0 + delta))})
        loss = population_loss(estimate, ("A", "B"), codecs, FunctionClassSpec(dim=1))
        assert loss == pytest.approx(delta**2 / 3.0, rel=0.02)

    def test_gauge_invariance(self):
        graph, codecs, corpora, sampler = chain_setup(n_langs=3)
        estimate = joint_estimate(corpora)
        f = AffineMap(np.diag([1.2, 0.8, 1.0]), np.array([0.5, 0, -0.5]))
        transformed = with_gauge(estimate, f)
        a = population_loss(estimate, ("L0", "L2"), codecs, spec_of(sampler))
        b = population_loss(transformed, ("L0", "L2"), codecs, spec_of(sampler))
        assert abs(a - b) <= 1e-9

    def test_unknown_language(self):
        _graph, codecs, _corpora, sampler = chain_setup()
        estimate = truth_estimate(codecs)
        with pytest.raises(DomainError):
            population_loss(estimate, ("L0", "Lx"), codecs, spec_of(sampler))

    def test_spec_must_match_codec_latent_dimension(self):
        _graph, codecs, _corpora, _sampler = chain_setup(d=3, nuisance=1, sigma=0.1)
        estimate = square_estimate({lang: AffineMap(np.eye(4), np.zeros(4)) for lang in codecs})
        with pytest.raises(ValueError, match="latent dimension 3"):
            population_loss(estimate, ("L0", "L1"), codecs, FunctionClassSpec(dim=4))


class TestMonteCarloCrossCheck:
    """The closed forms against sampling, an independent route to the same numbers."""

    @pytest.mark.parametrize("d", [1, 3])
    def test_latent_second_moment(self, d):
        radius, m = 1.5, 200_000
        z = LatentSampler(d, radius, seed=d).sample(m)
        products = z[:, :, None] * z[:, None, :]
        expected = latent_second_moment(d, radius) * np.eye(d)
        gap = np.abs(products.mean(axis=0) - expected)
        stderr = products.std(axis=0, ddof=1) / math.sqrt(m)
        assert np.all(gap <= 4.0 * stderr)

    def test_noise_variance(self):
        from scipy.stats import truncnorm

        m = 200_000
        squared = _truncated_normal(np.random.default_rng(0), m) ** 2
        stderr = squared.std(ddof=1) / math.sqrt(m)
        assert abs(squared.mean() - NOISE_VARIANCE) <= 4.0 * stderr
        assert NOISE_VARIANCE == pytest.approx(truncnorm.var(-3, 3), rel=1e-12)

    def test_noise_bits_are_pinned(self):
        # Seeded corpora depend on these bits: a rewrite of ndtr(-c) or of the
        # variance formula that moves a last bit must fail here.
        assert NOISE_VARIANCE.hex() == "0x1.f25937a6d464dp-1"
        draw = _truncated_normal(np.random.default_rng(0), (1000, 3))
        assert draw.dtype == np.float64 and draw.shape == (1000, 3)
        assert (
            hashlib.sha256(draw.tobytes()).hexdigest()
            == "9b6f75724e5c48760d0f6d0182744b0f53cd3dedefd2048c4c8ac21d5f4c966b"
        )

    def test_empty_noise_draw_keeps_generator_calls(self):
        rng = np.random.default_rng(0)
        reference = np.random.default_rng(0)
        empty = _truncated_normal(rng, (5, 0))
        reference.random((5, 0))
        assert empty.dtype == np.float64 and empty.shape == (5, 0)
        assert rng.bit_generator.state == reference.bit_generator.state
        assert np.array_equal(_truncated_normal(rng, 4), _truncated_normal(reference, 4))

    @pytest.mark.parametrize("target_noise", [False, True], ids=["eval", "sweep"])
    @pytest.mark.parametrize("sigma", [0.0, 0.05, 0.3])
    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("d", [1, 3])
    def test_closed_form_matches_monte_carlo(self, d, k, sigma, target_noise):
        spec = FunctionClassSpec(dim=d)
        seed = 100 * d + 10 * k + int(100 * sigma)
        codecs = dict(zip("AB", sample_randomized_codecs(spec, 2, k, sigma, seed)))
        # a deliberately imperfect map: the noise-passing composite, perturbed
        rng = np.random.default_rng(seed)
        a, b = codecs["A"], codecs["B"]
        da, db = a.decoder, b.decoder
        linear = db.linear @ np.linalg.inv(da.linear) + 0.1 * rng.standard_normal((d + k, d + k))
        offset = db.offset - linear @ da.offset + 0.1 * rng.standard_normal(d + k)
        transform = AffineMap(linear, offset)
        if target_noise:
            exact = _affine_losses(transform[None], a[None], b[None], spec.radius, True)[0]
        else:
            estimate = square_estimate(
                {"A": AffineMap(np.eye(d + k), np.zeros(d + k)), "B": inverse(transform)}
            )
            exact = population_loss(estimate, ("A", "B"), codecs, spec)
        sampler = LatentSampler(d, spec.radius, seed)
        mc, stderr = monte_carlo_pair_loss(
            transform, codecs, "A", "B", sampler, 200_000, seed, target_noise
        )
        assert abs(exact - mc) <= 4.0 * stderr


class TestComposeZeroShot:
    def test_same_language_is_identity_for_square_encoders(self):
        _graph, _codecs, corpora, _ = chain_setup(n_langs=3)
        same = composite(joint_estimate(corpora), "L1", "L1")
        assert max_entry_difference(same, AffineMap(np.eye(3), np.zeros(3))) <= 1e-12

    def test_noiseless_adjacent_pair_equals_fitted_map(self):
        _graph, _codecs, corpora, _ = chain_setup(n_langs=3)
        result = fit_edge(corpora[0])
        adjacent = composite(joint_estimate(corpora), *result.edge)
        assert max_entry_difference(adjacent, result.transform) <= 1e-9

    def test_composites_telescope(self):
        # E_L ∘ D_L = id, so C_{1->3} ∘ C_{0->1} = C_{0->3} for any fit, noisy or not
        _graph, _codecs, corpora, _ = chain_setup(n_langs=4, sigma=0.1, nuisance=2, n=50)
        estimate = joint_estimate(corpora)
        direct = composite(estimate, "L0", "L3")
        stepped = composite(estimate, "L1", "L3").compose(composite(estimate, "L0", "L1"))
        assert max_entry_difference(direct, stepped) <= 1e-12


class TestShortestPaths:
    def test_complete_graph_diameter_one(self):
        langs = ("A", "B", "C", "D")
        edges = tuple(
            (a, b, 1) for i, a in enumerate(langs) for b in langs[i + 1 :]
        )
        _paths, diam = shortest_path_and_diameter(TranslationGraph(langs, edges))
        assert diam == 1

    def test_chain_diameter(self):
        langs = tuple(f"L{i}" for i in range(5))
        edges = tuple((langs[i], langs[i + 1], 1) for i in range(4))
        paths, diam = shortest_path_and_diameter(TranslationGraph(langs, edges))
        assert diam == 4
        assert paths[("L0", "L4")] == ("L0", "L1", "L2", "L3", "L4")

    def test_demo_graph_diameter_and_witness(self):
        paths, diam = shortest_path_and_diameter(six_language_demo_graph())
        assert diam == 4
        assert paths[("L3", "L6")] == ("L3", "L1", "L4", "L5", "L6")

    def test_lexicographic_tie_break(self):
        graph = TranslationGraph(
            ("A", "B", "C", "D"),
            (("A", "B", 1), ("A", "C", 1), ("B", "D", 1), ("C", "D", 1)),
        )
        paths, _ = shortest_path_and_diameter(graph)
        assert paths[("A", "D")] == ("A", "B", "D")

    def test_disconnected_graph(self):
        graph = TranslationGraph(("A", "B", "C"), (("A", "B", 1),))
        with pytest.raises(GraphError):
            shortest_path_and_diameter(graph)

    def test_paths_are_lexicographic_minima_of_all_shortest_paths(self):
        for seed in range(60):
            rng = np.random.default_rng(seed)
            graph = random_connected_graph(
                rng, int(rng.integers(2, 11)), int(rng.integers(0, 9))
            )
            langs = sorted(graph.languages)
            expected = {
                (a, b): lexicographic_shortest_path(graph, a, b)
                for a in langs
                for b in langs
                if a < b
            }
            paths, diameter = shortest_path_and_diameter(graph)
            assert paths == expected, f"seed {seed}"
            assert diameter == max(len(p) - 1 for p in expected.values()), f"seed {seed}"


class TestPathBound:
    """The telescoping bound (sum_i c_i sqrt(l_i))^2 of a pair record."""

    @staticmethod
    def bound(path, edge_losses, coefficients):
        return PairEvalRecord(tuple(path), 0.0, tuple(edge_losses), tuple(coefficients)).bound

    def test_single_edge_is_its_loss(self):
        assert self.bound("AB", [0.02], [1.0]) == pytest.approx(0.02, rel=1e-15)

    def test_zero_losses(self):
        assert self.bound("ABC", [0.0, 0.0], [3.0, 1.0]) == 0.0

    def test_chain_adds_carried_root_losses(self):
        expected = (2.0 * 0.2 + 3.0 * 0.3 + 1.0 * 0.4) ** 2  # 2.89
        assert self.bound("ABCD", [0.04, 0.09, 0.16], [2.0, 3.0, 1.0]) == pytest.approx(expected)


class TestVerifyChainBound:
    def test_randomized_fit_suppresses_target_noise(self):
        # the reference is the conditional-mean composite, so a fitted edge
        # lands far below the target-noise floor, while the naive full
        # inverse-codec composite passes source noise through and pays it
        from scipy.stats import truncnorm

        graph, codecs, corpora, sampler = chain_setup(
            n_langs=2, sigma=0.1, nuisance=2, n=200, seed=4
        )
        estimate = joint_estimate(corpora)
        fitted_loss = population_loss(estimate, ("L0", "L1"), codecs, spec_of(sampler))
        dst = codecs["L1"]
        floor = (
            0.1**2
            * truncnorm.var(-3, 3)
            * float(np.sum(dst.decoder.linear[:, dst.latent_dim :] ** 2))
        )
        assert fitted_loss <= 0.2 * floor
        passthrough = square_estimate({lang: encoder_map(codecs[lang]) for lang in codecs})
        naive_loss = population_loss(passthrough, ("L0", "L1"), codecs, spec_of(sampler))
        assert naive_loss == pytest.approx(floor, rel=0.15)

    def test_randomized_chain_records_hold(self):
        graph, codecs, corpora, sampler = chain_setup(
            n_langs=4, sigma=0.05, nuisance=1, n=120, seed=2
        )
        records = verify_chain_bound(joint_estimate(corpora), graph, codecs, spec_of(sampler))
        assert len(records) == 6
        assert all(r.holds for r in records)
        assert all(r.measured_loss <= r.bound * (1 + 1e-12) for r in records)
        assert all(r.rho_hat >= 1.0 for r in records)

    def test_noiseless_run_all_hold(self):
        graph, codecs, corpora, sampler = chain_setup(n_langs=4, d=3, n=40)
        records = verify_chain_bound(joint_estimate(corpora), graph, codecs, spec_of(sampler))
        assert len(records) == 6
        assert all(r.holds for r in records)
        assert all(r.measured_loss <= 1e-10 for r in records)
        adjacent = [r for r in records if (r.src, r.dst) == ("L0", "L1")]
        assert adjacent[0].path_len == 1

    def test_noiseless_losses_are_nonnegative(self):
        graph, codecs, corpora, sampler = chain_setup(n_langs=5, d=3, n=40, seed=7)
        records = verify_chain_bound(joint_estimate(corpora), graph, codecs, spec_of(sampler))
        assert len(records) == 10
        assert all(r.measured_loss >= 0.0 for r in records)
        assert all(loss >= 0.0 for r in records for loss in r.edge_losses)

    def test_record_derives_endpoints_bound_and_verdict(self):
        path = ("A", "C", "B")
        bound = (2.0 * math.sqrt(0.1) + math.sqrt(0.2)) ** 2  # 1.1657
        below = PairEvalRecord(path, measured_loss=1.1, edge_losses=(0.1, 0.2), coefficients=(2.0, 1.0))
        assert (below.src, below.dst, below.path_len) == ("A", "B", 2)
        assert below.bound == pytest.approx(bound, rel=1e-15)
        assert below.rho_hat == 2.0
        assert below.holds is True
        above = PairEvalRecord(path, measured_loss=1.2, edge_losses=(0.1, 0.2), coefficients=(2.0, 1.0))
        assert above.holds is False
        assert PairEvalRecord(("A", "B"), 0.1, (0.1,), (1.0,)).rho_hat == 1.0

    @pytest.mark.parametrize("n_langs", [3, 6])
    def test_one_stacked_svd_and_no_inverse(self, monkeypatch, n_langs):
        graph, codecs, corpora, sampler = chain_setup(n_langs=n_langs, seed=n_langs)
        estimate = joint_estimate(corpora)
        calls = {"svd": 0, "inv": 0}
        with monkeypatch.context() as patch:
            for name in calls:
                def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
                    calls[_name] += 1
                    return _original(*args, **kwargs)

                patch.setattr(np.linalg, name, counted)
            records = verify_chain_bound(estimate, graph, codecs, spec_of(sampler))
        assert len(records) == n_langs * (n_langs - 1) // 2
        assert calls == {"svd": 1, "inv": 0}

    def test_coefficients_are_the_carrying_norms_bit_for_bit(self):
        graph, codecs, corpora, sampler = chain_setup(
            n_langs=7, sigma=0.05, nuisance=2, n=80, seed=6,
            extra_edges=(("L0", "L3"), ("L2", "L6")),
        )
        estimate = joint_estimate(corpora)
        for record in verify_chain_bound(estimate, graph, codecs, spec_of(sampler)):
            want = [
                float(np.linalg.svd(
                    estimate.decoder(record.dst).linear @ estimate.encoder(node).linear,
                    compute_uv=False,
                )[0])
                for node in record.path[1:-1]
            ] + [1.0]
            assert [c.hex() for c in record.coefficients] == [c.hex() for c in want]
            assert record.rho_hat == max(want)
            assert type(record.rho_hat) is float
            assert type(record.holds) is bool

    def test_three_language_witness(self):
        # ROADMAP item 1's witness: 1-D noiseless codecs with decoders 1, 0.6
        # and 1.9 on the path L0-L1-L2. E_0 = D_0 = 1, D_1 = 0.6 * 1.05 and D_2
        # = 1.9 * 1.05, each E_L = 1 / D_L, so edge L1->L2 is exact, edge
        # L0->L1 is off by 0.03 z and the composite L0->L2 by 0.095 z, with E
        # z^2 = 1/3. ||C_{1->2}|| = 1.9 / 0.6 carries edge L0->L1's error to
        # L2 exactly, so the telescoping bound is tight. The former bound
        # 2 rho^2 sum(l), rho the largest norm of the path encoders and of the
        # destination decoder (the inverted destination encoder), lies below.
        langs = ("L0", "L1", "L2")
        codecs = {lang: RandomizedCodec(scalar(d)) for lang, d in zip(langs, (1.0, 0.6, 1.9))}
        estimate = square_estimate(
            {"L0": scalar(1.0), "L1": scalar(1.0 / (0.6 * 1.05)), "L2": scalar(1.0 / (1.9 * 1.05))}
        )
        graph = TranslationGraph(langs, (("L0", "L1", 10), ("L1", "L2", 10)))
        spec = FunctionClassSpec(dim=1)
        records = verify_chain_bound(estimate, graph, codecs, spec)
        (record,) = [r for r in records if (r.src, r.dst) == ("L0", "L2")]
        assert record.path == langs
        assert record.measured_loss == pytest.approx(0.095**2 / 3, rel=1e-12)  # 0.0030083
        assert record.edge_losses[0] == pytest.approx(0.0003, rel=1e-12)
        assert record.edge_losses[1] <= 1e-30
        assert record.coefficients == pytest.approx((1.9 / 0.6, 1.0), rel=1e-12)
        assert abs(record.bound - record.measured_loss) <= 1e-12
        assert record.measured_loss <= record.bound + 1e-12
        rho = max(
            max(float(estimate.encoder(lang).linear[0, 0]) for lang in langs),
            float(estimate.decoder("L2").linear[0, 0]),
        )
        assert rho == pytest.approx(1.995, rel=1e-12)
        former = 2 * rho**2 * sum(record.edge_losses)
        assert former == pytest.approx(2 * 1.995**2 * 0.0003, rel=1e-9)  # 0.0023880
        assert record.measured_loss > former


class TestGaugeInvariance:
    """E_L -> G ∘ E_L, D_L -> D_L ∘ G^-1 for one invertible affine G on the latent space."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_composites_losses_and_bounds_do_not_move(self, seed):
        graph, codecs, corpora, sampler = chain_setup(
            n_langs=6, sigma=0.05, nuisance=2, n=100, seed=seed,
            extra_edges=(("L0", "L3"), ("L1", "L5")),
        )
        spec = spec_of(sampler)
        estimate = joint_estimate(corpora)
        rng = np.random.default_rng(seed)
        u, _s, vt = np.linalg.svd(rng.standard_normal((3, 3)))
        gauge = AffineMap(u @ np.diag(rng.uniform(0.5, 2.0, 3)) @ vt, rng.standard_normal(3))
        moved = with_gauge(estimate, gauge)
        for src in graph.languages:
            for dst in graph.languages:
                assert max_entry_difference(
                    composite(estimate, src, dst), composite(moved, src, dst)
                ) <= 1e-9
        before = verify_chain_bound(estimate, graph, codecs, spec)
        after = verify_chain_bound(moved, graph, codecs, spec)
        assert [r.path for r in before] == [r.path for r in after]
        for a, b in zip(before, after):
            assert abs(a.measured_loss - b.measured_loss) <= 1e-9
            assert np.abs(np.subtract(a.edge_losses, b.edge_losses)).max() <= 1e-9
            assert np.abs(np.subtract(a.coefficients, b.coefficients)).max() <= 1e-9
            assert abs(a.bound - b.bound) <= 1e-9


class TestRandomGraphTranslates:
    """The joint fit on a 14-language random graph with noisy nuisance codecs."""

    def test_every_pair_beats_the_mean_and_stays_within_its_bound(self):
        rng = np.random.default_rng(2026)
        shape = random_connected_graph(rng, 14, 6)
        graph = TranslationGraph(shape.languages, tuple((a, b, 300) for a, b, _n in shape.edges))
        spec = FunctionClassSpec(dim=4)
        codecs = dict(zip(graph.languages, sample_randomized_codecs(spec, 14, 2, 0.05, 11)))
        sampler = LatentSampler(4, 1.0, 11)
        corpora = [randomized_generate(e, codecs, 300, sampler, 11) for e in graph.edge_pairs()]
        records = verify_chain_bound(joint_estimate(corpora), graph, codecs, spec)
        assert len(records) == 14 * 13 // 2
        assert max(r.path_len for r in records) >= 3
        for r in records:
            # predicting the destination's mean costs tr Cov(y) = E z^2 ||W[:, :d]||_F^2
            latent = codecs[r.dst].decoder.linear[:, :4]
            mean_predictor = latent_second_moment(4, 1.0) * float(np.sum(latent**2))
            assert r.measured_loss < mean_predictor, r.path
            assert r.measured_loss <= r.bound * (1 + 1e-12), r.path
            if r.path_len == 1:
                assert r.bound == pytest.approx(r.measured_loss, rel=1e-12)


class TestStackedLosses:
    """Stacked population losses against one pair at a time, bit for bit."""

    @pytest.mark.parametrize("target_noise", [False, True], ids=["eval", "sweep"])
    @pytest.mark.parametrize("sigma", [0.05, 0.3])
    @pytest.mark.parametrize("d, k", [(1, 1), (3, 2), (8, 2)])
    def test_stack_matches_one_pair_at_a_time(self, d, k, sigma, target_noise):
        spec = FunctionClassSpec(dim=d)
        langs = [f"L{i}" for i in range(5)]
        codecs = dict(zip(langs, sample_randomized_codecs(spec, len(langs), k, sigma, d)))
        rng = np.random.default_rng(10 * d + k)
        pairs = [tuple(rng.choice(langs, 2, replace=False)) for _ in range(23)]
        linear = rng.standard_normal((len(pairs), d + k, d + k))
        offset = rng.standard_normal((len(pairs), d + k))
        got = _affine_losses(
            AffineMap(linear, offset),
            RandomizedCodec.stack([codecs[a] for a, _b in pairs]),
            RandomizedCodec.stack([codecs[b] for _a, b in pairs]),
            spec.radius,
            target_noise,
        )
        want = [
            scalar_affine_loss(AffineMap(A, c), codecs[a], codecs[b], spec.radius, target_noise)
            for A, c, (a, b) in zip(linear, offset, pairs)
        ]
        assert [loss.hex() for loss in got] == [loss.hex() for loss in want]

    def test_block_size_leaves_records_identical(self, monkeypatch):
        graph, codecs, corpora, sampler = chain_setup(
            n_langs=7, sigma=0.05, nuisance=2, n=80, seed=6,
            extra_edges=(("L0", "L3"), ("L2", "L6")),
        )
        estimate = joint_estimate(corpora)
        spec = spec_of(sampler)
        records = verify_chain_bound(estimate, graph, codecs, spec)
        assert len(records) == 21
        for record in records:
            # each loss is the one-pair formula on the estimate's own composite
            want = scalar_affine_loss(
                composite(estimate, record.src, record.dst),
                codecs[record.src], codecs[record.dst], spec.radius, False,
            )
            assert record.measured_loss.hex() == want.hex()
            for (a, b), loss in zip(zip(record.path, record.path[1:]), record.edge_losses):
                want = scalar_affine_loss(
                    composite(estimate, a, b), codecs[a], codecs[b], spec.radius, False
                )
                assert loss.hex() == want.hex()
        for block in (1, 3, 7):
            monkeypatch.setattr(evaluation, "PAIR_BLOCK", block)
            assert verify_chain_bound(estimate, graph, codecs, spec) == records


class TestSampleSizeFormulas:
    def test_halving_eps_at_least_quadruples_n(self):
        n1 = required_sample_size(0.1, 0.05, 4, 6, 3.0)
        n2 = required_sample_size(0.05, 0.05, 4, 6, 3.0)
        assert n2 >= 4 * n1

    def test_doubling_languages_adds_fixed_term(self):
        eps, delta, p, M = 0.1, 0.05, 6, 3.0
        n1 = required_sample_size(eps, delta, 4, p, M)
        n2 = required_sample_size(eps, delta, 8, p, M)
        additive = 16 * M**4 / eps**2 * 2 * math.log(2)
        assert abs((n2 - n1) - additive) <= 1.0

    def test_weaker_delta_needs_fewer_samples(self):
        sizes = [
            required_sample_size(0.1, delta, 4, 6, 3.0)
            for delta in (0.01, 0.1, 0.5, 0.9)
        ]
        assert sizes == sorted(sizes, reverse=True)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eps": 0.0},
            {"delta": 0.0},
            {"delta": 1.0},
            {"n_languages": 1},
            {"n_params": 0},
            {"sup_bound": 0.0},
        ],
    )
    def test_argument_validation(self, kwargs):
        base = {"eps": 0.1, "delta": 0.05, "n_languages": 4, "n_params": 6, "sup_bound": 3.0}
        base.update(kwargs)
        with pytest.raises(ValueError):
            required_sample_size(**base)

    def test_concentration_vanishes_for_large_n(self):
        assert concentration_bound(10**7, 0.1, 2.0, 5.0) < 1e-6

    def test_concentration_caps_at_one(self):
        assert concentration_bound(0, 0.1, 2.0, 0.0) == 1.0

    def test_doubling_n_squares_the_exponential_factor(self):
        # n large enough that neither bound saturates the min(1, .) cap
        eps, M, logN = 0.2, 2.0, 1.5
        n = 20_000
        factor_n = concentration_bound(n, eps, M, logN) / (2 * math.exp(logN))
        factor_2n = concentration_bound(2 * n, eps, M, logN) / (2 * math.exp(logN))
        assert factor_2n == pytest.approx(factor_n**2, rel=1e-9)

    def test_formulas_are_mutually_consistent(self):
        for eps in (0.05, 0.1, 0.2):
            for delta in (0.01, 0.05, 0.2):
                K, p, M = 4, 6, 3.0
                n = required_sample_size(eps, delta, K, p, M)
                log_cover = p * math.log(16 * M / eps)
                bound = concentration_bound(n, eps, M, log_cover)
                ratio = bound / (delta / K**2)
                assert 0.5 <= ratio <= 2.0 + 1e-9


class TestSweep:
    def test_noiseless_sweep_is_degenerate(self):
        spec = FunctionClassSpec(dim=2)
        codecs = dict(zip("AB", sample_randomized_codecs(spec, 2, 0, 0.0, seed=0)))
        sampler = LatentSampler(2, 1.0, seed=0)
        result = sample_complexity_sweep(
            ("A", "B"), codecs, [8, 16], 5, sampler, seed=0
        )
        assert result.degenerate
        assert result.slope is None
        assert all(row.gap <= 1e-10 for row in result.rows)

    def test_gaps_are_nonnegative_and_rows_keyed(self):
        spec = FunctionClassSpec(dim=2)
        codecs = dict(zip("AB", sample_randomized_codecs(spec, 2, 1, 0.1, seed=0)))
        sampler = LatentSampler(2, 1.0, seed=0)
        result = sample_complexity_sweep(
            ("A", "B"), codecs, [16, 32], 5, sampler, seed=0
        )
        assert all(row.gap >= 0 for row in result.rows)
        keys = {(row.n, row.trial) for row in result.rows}
        assert len(keys) == len(result.rows) == 2 * 5

    @pytest.mark.parametrize(
        "dim, nuisance, sigma, n_list, trials, seed",
        [
            # The benchmark's criterion-9 settings.
            (1, 1, 0.05, [32, 64, 128, 256, 512, 1024, 2048, 4096], 20, 3),
            (3, 1, 0.1, [8, 16, 64, 256], 7, 35),
            # Noiseless and realizable: every gap is rounding, the run degenerate.
            (2, 0, 0.0, [8, 16, 32], 5, 67),
        ],
    )
    def test_stacked_rows_match_one_trial_at_a_time_bit_for_bit(
        self, dim, nuisance, sigma, n_list, trials, seed
    ):
        spec = FunctionClassSpec(dim=dim)
        codecs = dict(zip("AB", sample_randomized_codecs(spec, 2, nuisance, sigma, seed)))
        sampler = LatentSampler(dim, 1.0, seed)
        result = sample_complexity_sweep(("A", "B"), codecs, n_list, trials, sampler, seed)
        want = per_trial_sweep_rows(("A", "B"), codecs, n_list, trials, sampler, seed)
        assert len(result.rows) == len(want) == len(n_list) * trials
        for got_row, want_row in zip(result.rows, want):
            assert (got_row.n, got_row.trial) == (want_row.n, want_row.trial)
            for got_value, want_value in zip(got_row[2:], want_row[2:]):
                assert got_value.hex() == want_value.hex()
        assert result.degenerate == (sigma == 0.0)

    def test_each_trial_fits_exactly_its_randomized_generate_gram(self, monkeypatch):
        spec = FunctionClassSpec(dim=2)
        codecs = dict(zip("AB", sample_randomized_codecs(spec, 2, 1, 0.1, seed=4)))
        sampler = LatentSampler(2, 1.0, seed=4)
        fitted, fit_gram = [], evaluation.fit_gram

        def recording_fit_gram(gram, n, largest):
            fitted.append((gram.copy(), n))
            return fit_gram(gram, n, largest)

        monkeypatch.setattr(evaluation, "fit_gram", recording_fit_gram)
        n_list = [8, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1]
        sample_complexity_sweep(("A", "B"), codecs, n_list, 5, sampler, seed=9)
        assert [(grams.shape, n) for grams, n in fitted] == [((5, 7, 7), n) for n in n_list]
        for n, (grams, _n) in zip(n_list, fitted):
            for trial in range(5):
                seed = derive_seed(9, "sweep-train", n, trial)
                corpus = randomized_generate(("A", "B"), codecs, n, sampler, seed)
                assert_same_bits(grams[trial], corpus.gram)

    def test_one_solve_and_one_loss_stack_per_size(self, monkeypatch):
        spec = FunctionClassSpec(dim=1)
        codecs = dict(zip("AB", sample_randomized_codecs(spec, 2, 1, 0.05, seed=3)))
        n_list = [32, 64, 128, 256, 512, 1024, 2048, 4096]
        calls = {"solve": 0, "losses": 0}
        solve, losses = np.linalg.solve, evaluation._affine_losses

        def counting_solve(*args, **kwargs):
            calls["solve"] += 1
            return solve(*args, **kwargs)

        def counting_losses(*args, **kwargs):
            calls["losses"] += 1
            return losses(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        monkeypatch.setattr(evaluation, "_affine_losses", counting_losses)
        result = sample_complexity_sweep(
            ("A", "B"), codecs, n_list, 20, LatentSampler(1, 1.0, 3), seed=3
        )
        assert len(result.rows) == 160
        assert calls == {"solve": 8, "losses": 8}

    def test_validation(self):
        spec = FunctionClassSpec(dim=2)
        codecs = dict(zip("AB", sample_randomized_codecs(spec, 2, 1, 0.1, seed=0)))
        sampler = LatentSampler(2, 1.0, seed=0)
        with pytest.raises(ValueError):
            sample_complexity_sweep(("A", "B"), codecs, [32], 5, sampler, 0)
        with pytest.raises(ValueError):
            sample_complexity_sweep(("A", "B"), codecs, [64, 32], 5, sampler, 0)
        with pytest.raises(ValueError):
            sample_complexity_sweep(("A", "B"), codecs, [32, 64], 3, sampler, 0)
        with pytest.raises(ValueError):
            sample_complexity_sweep(("A", "B"), codecs, [0, 64], 5, sampler, 0)
