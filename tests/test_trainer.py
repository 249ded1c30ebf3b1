"""Tests for edge regression, the joint encoder-decoder fit, and the estimate's checks."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from helpers import (
    apply,
    assert_same_bits,
    composite,
    corpus_of_pairs,
    empirical_edge_loss,
    joint_estimate,
    max_entry_difference,
    out_of_place_fit_edge,
    population_loss,
    rows_of_pairs,
    truth_estimate,
    with_gauge,
)
from translab import trainer
from translab.affine import AffineMap
from translab.errors import ConditioningError, InsufficientDataError
from translab.generative import (
    PARALLEL_ROWS,
    ROW_BLOCK,
    AlignedCorpus,
    FunctionClassSpec,
    LatentSampler,
    TranslationGraph,
    _row_sums,
    generate_rows,
    randomized_generate,
    sample_randomized_codecs,
)
from translab.trainer import EncoderEstimate, fit_edge, fit_joint, fit_rows


def chain_setup(n_langs=3, d=3, n=40, seed=0, sigma=0.0, nuisance=0, extra_edges=()):
    spec = FunctionClassSpec(dim=d)
    langs = [f"L{i}" for i in range(n_langs)]
    edges = [(langs[i], langs[i + 1], n) for i in range(n_langs - 1)]
    edges += [(a, b, n) for a, b in extra_edges]
    graph = TranslationGraph(tuple(langs), tuple(edges))
    sampler = LatentSampler(d, 1.0, seed=seed)
    codecs = dict(zip(langs, sample_randomized_codecs(spec, n_langs, nuisance, sigma, seed)))
    corpora = [randomized_generate(e, codecs, n, sampler, seed) for e in graph.edge_pairs()]
    return graph, codecs, corpora, sampler


def truth_composite(codecs, src, dst) -> AffineMap:
    """The conditional-mean translator src -> dst: decode src's latent at the mean noise seed."""
    return composite(truth_estimate(codecs), src, dst)


def centred_moments(corpus):
    """An edge's mean-centred covariances (S_aa, S_bb, S_ab) over its rows, from the points."""
    x = corpus.source_points - corpus.source_points.mean(axis=0)
    y = corpus.target_points - corpus.target_points.mean(axis=0)
    return x.T @ x / corpus.n, y.T @ y / corpus.n, x.T @ y / corpus.n


def pencil(corpora, langs):
    """The joint fit's (Q, B), assembled edge by edge from the points."""
    dim = corpora[0].dim
    where = {lang: slice(i * dim, (i + 1) * dim) for i, lang in enumerate(langs)}
    q = np.zeros((len(langs) * dim,) * 2)
    for corpus in corpora:
        a, b = (where[lang] for lang in corpus.edge)
        s_aa, s_bb, s_ab = centred_moments(corpus)
        q[a, a] += s_aa
        q[b, b] += s_bb
        q[a, b] -= s_ab
        q[b, a] -= s_ab.T
    b_matrix = np.zeros_like(q)
    for block in where.values():
        b_matrix[block, block] = q[block, block]
    return q, b_matrix


class TestFitEdge:
    def test_noiseless_fit_recovers_truth(self):
        _graph, codecs, corpora, _ = chain_setup()
        result = fit_edge(corpora[0])
        expected = truth_composite(codecs, "L0", "L1")
        assert max_entry_difference(result.transform, expected) <= 1e-8
        assert result.empirical_loss <= 1e-12

    def test_one_dimensional_closed_form(self):
        # pairs (1, 2), (2, 4), (0, 0): exact fit is scale 2, offset 0
        pairs = np.array([[[1.0], [2.0]], [[2.0], [4.0]], [[0.0], [0.0]]])
        corpus = corpus_of_pairs(pairs)
        result = fit_edge(corpus)
        assert result.transform.linear[0, 0] == pytest.approx(2.0, abs=1e-10)
        assert result.transform.offset[0] == pytest.approx(0.0, abs=1e-10)
        assert result.empirical_loss <= 1e-12

    def test_insufficient_data(self):
        pairs = np.zeros((2, 2, 2))
        corpus = corpus_of_pairs(pairs)
        with pytest.raises(InsufficientDataError):
            fit_edge(corpus)

    def test_loss_recomputable_from_transform(self):
        _g, _c, corpora, _ = chain_setup(sigma=0.1, nuisance=1, n=60)
        result = fit_edge(corpora[0])
        residual = apply(result.transform, corpora[0].source_points) - corpora[0].target_points
        recomputed = float(np.mean(np.sum(residual**2, axis=1)))
        assert abs(recomputed - result.empirical_loss) <= 1e-10

    @pytest.mark.parametrize(
        "kwargs", [{}, {"sigma": 0.1, "nuisance": 1, "n": 500, "seed": 4}]
    )
    def test_in_place_fit_matches_the_out_of_place_formula_bitwise(self, kwargs):
        _g, _c, corpora, _ = chain_setup(**kwargs)
        for corpus in corpora:
            result = fit_edge(corpus)
            transform, loss = out_of_place_fit_edge(corpus)
            assert np.array_equal(result.transform.linear, transform.linear)
            assert np.array_equal(result.transform.offset, transform.offset)
            assert result.empirical_loss.hex() == loss.hex()

    @pytest.mark.parametrize(
        "stack, n, d",
        [
            ((), 500_000, 6),
            ((), 500, 10),
            ((), 100_003, 4),
            ((), 70_001, 3),
            ((), PARALLEL_ROWS - 1, 3),  # one thread
            ((), PARALLEL_ROWS + 1, 3),  # two halves, the second with a 1-row remainder
            ((2,), 70_001, 3),
            ((8,), 2 * ROW_BLOCK + 1, 6),  # a 1-row remainder joins the last block
            ((2, 3), 2 * ROW_BLOCK + 1, 2),  # blocks of ROW_BLOCK // 6 rows per corpus
            ((3000,), 7, 6),  # blocks of 2 rows per corpus, and a 3-row last one
        ],
    )
    def test_row_block_residual_matches_the_whole_array_formula_bitwise(self, stack, n, d):
        rng = np.random.default_rng([n, d, len(stack)])
        pairs = rng.standard_normal(stack + (n, 2, d))
        # The last row dominates each mean, so its rounding shows in the bits
        # of most of them: scored alone, a 1-row block takes BLAS's
        # matrix-vector path, whose products differ in the last bit.
        pairs[..., -1, :, :] *= 1e3
        x, y = pairs[..., 0, :], pairs[..., 1, :]
        linear, offset = rng.standard_normal(stack + (d, d)), rng.standard_normal(stack + (d,))
        transform = AffineMap(linear, offset)
        fitted = x @ transform.linear.swapaxes(-1, -2) + transform.offset[..., None, :]
        expected = np.mean(np.sum((fitted - y) ** 2, axis=-1), axis=-1)
        assert_same_bits(np.array(trainer._mean_squared_residual(transform, x, y)), expected)

    @pytest.mark.parametrize("width", [*range(1, 25), 129, 300])
    def test_row_sums_match_np_sum_bitwise(self, width):
        # Magnitudes over 16 decades: any other order of the adds shows in
        # the bits, as adding the first column to the sum of the rest does
        # from width 3.
        rng = np.random.default_rng(width)
        shape = (2, 300, width)
        a = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8, 8, shape)
        a[0, 0] = -0.0
        out = np.empty(shape[:-1])
        assert _row_sums(a, out) is out
        assert_same_bits(out, np.sum(a, axis=-1))

    def test_first_order_optimality(self):
        _g, _c, corpora, _ = chain_setup(sigma=0.1, nuisance=1, n=60, seed=3)
        corpus = corpora[0]
        result = fit_edge(corpus)
        rng = np.random.default_rng(0)
        d = corpus.dim
        for _ in range(20):
            perturbed = AffineMap(
                result.transform.linear + 1e-4 * rng.standard_normal((d, d)),
                result.transform.offset + 1e-4 * rng.standard_normal(d),
            )
            residual = apply(perturbed, corpus.source_points) - corpus.target_points
            loss = float(np.mean(np.sum(residual**2, axis=1)))
            assert loss >= result.empirical_loss - 1e-15

    @pytest.mark.parametrize("fill", [0.0, 2.5], ids=["zero", "constant"])
    def test_ridge_fits_a_degenerate_source_coordinate(self, monkeypatch, fill):
        rng = np.random.default_rng(0)
        n, d = 50, 3
        x = rng.standard_normal((n, d))
        x[:, 1] = fill
        y = rng.standard_normal((n, d))
        conds, cond = [], np.linalg.cond

        def recorded_cond(a):
            conds.append(cond(a))
            return conds[-1]

        monkeypatch.setattr(np.linalg, "cond", recorded_cond)
        result = fit_edge(corpus_of_pairs(np.stack([x, y], axis=1)))
        assert conds[-1] > trainer.COND_LIMIT  # the ridge branch was taken
        assert np.all(np.isfinite(result.transform.linear))
        assert np.all(np.isfinite(result.transform.offset))
        # the same fit without that coordinate
        kept = np.column_stack([x[:, [0, 2]], np.ones(n)])
        theta = np.linalg.lstsq(kept, y, rcond=None)[0]
        reference = float(np.mean(np.sum((kept @ theta - y) ** 2, axis=1)))
        assert abs(result.empirical_loss - reference) <= 1e-9

    def test_duplicated_coordinate_swamping_the_ridge_is_a_conditioning_error(self):
        # Integer sentences at scale 1e3: the Gram rows of the two copies are
        # exactly equal, and the ridge is below the rounding of their entries.
        rng = np.random.default_rng(0)
        x = rng.integers(-5, 6, (50, 3)) * 1e3
        x[:, 1] = x[:, 0]
        pairs = np.stack([x, rng.standard_normal((50, 3))], axis=1)
        with pytest.raises(ConditioningError, match="singular even with ridge"):
            fit_edge(corpus_of_pairs(pairs))


class TestStackedFit:
    """T corpora's rows fitted as one stack against T ``fit_edge`` calls."""

    @pytest.mark.parametrize(
        "d, nuisance, sigma, n", [(1, 1, 0.05, 32), (3, 1, 0.1, 200), (2, 0, 0.0, 9)]
    )
    def test_stack_matches_one_corpus_at_a_time_bit_for_bit(self, d, nuisance, sigma, n):
        spec = FunctionClassSpec(d)
        codecs = dict(zip("AB", sample_randomized_codecs(spec, 2, nuisance, sigma, 5)))
        sampler = LatentSampler(d, 1.0, 5)
        rows = generate_rows(("A", "B"), codecs, n, sampler, range(6))
        maps, losses, grams = fit_rows(rows)
        assert maps.linear.shape == (6, d + nuisance, d + nuisance) and len(losses) == 6
        for t in range(6):
            want = fit_edge(AlignedCorpus(("A", "B"), rows[t], {}))
            assert_same_bits(grams[t], want.gram)
            assert_same_bits(want.gram, rows[t].T @ rows[t])
            got = maps[t]
            assert got.linear.tobytes() == want.transform.linear.tobytes()
            assert got.offset.tobytes() == want.transform.offset.tobytes()
            assert got.linear.flags.f_contiguous == want.transform.linear.flags.f_contiguous
            assert got.linear.flags.f_contiguous or d + nuisance == 1
            assert losses[t].hex() == want.empirical_loss.hex()

    def test_ridge_reaches_only_the_degenerate_corpus(self):
        rng = np.random.default_rng(11)
        pairs = rng.standard_normal((3, 40, 2, 2))
        pairs[1, :, 0, 1] = 0.0  # corpus 1's second source coordinate never varies
        maps, _losses, _grams = fit_rows(rows_of_pairs(pairs))
        for t in range(3):
            corpus = corpus_of_pairs(pairs[t])
            alone = fit_edge(corpus).transform
            assert maps[t].linear.tobytes() == alone.linear.tobytes()
            assert maps[t].offset.tobytes() == alone.offset.tobytes()
            ridged, _ = out_of_place_fit_edge(corpus, ridge=trainer.RIDGE)
            assert np.array_equal(maps[t].linear, ridged.linear)
            if t != 1:
                plain, _ = out_of_place_fit_edge(corpus, ridge=0.0)
                assert np.array_equal(maps[t].linear, plain.linear)
                assert np.array_equal(maps[t].offset, plain.offset)
        # Without the ridge corpus 1's normal equations are singular.
        with pytest.raises(np.linalg.LinAlgError):
            out_of_place_fit_edge(corpus_of_pairs(pairs[1]), ridge=0.0)
        assert np.all(maps.linear[1][:, 1] == 0.0)


class TestJointFit:
    @staticmethod
    def fit(corpora, latent_dim=None):
        if latent_dim is None:
            latent_dim = corpora[0].dim - corpora[0].meta["nuisance_dim"]
        return fit_joint([fit_edge(c) for c in corpora], latent_dim)

    @pytest.mark.parametrize("nuisance", [0, 1], ids=["square", "rank_deficient"])
    def test_noiseless_chain_recovers_every_composite(self, nuisance):
        # sigma = 0 with a nuisance coordinate: each language's own covariance
        # has rank d < D, and whitening drops its null direction.
        graph, codecs, corpora, sampler = chain_setup(n_langs=4, d=3, nuisance=nuisance, n=30)
        fit = self.fit(corpora)
        spec = FunctionClassSpec(dim=3)
        for src in graph.languages:
            for dst in graph.languages:
                if src == dst:
                    continue
                learned = composite(fit.estimate, src, dst)
                # on the latent image: C W_src[:, :d] z + C b_src = W_dst[:, :d] z + b_dst
                on_latent = learned.compose(AffineMap(
                    codecs[src].decoder.linear[:, :3], codecs[src].decoder.offset
                ))
                truth = AffineMap(codecs[dst].decoder.linear[:, :3], codecs[dst].decoder.offset)
                assert max_entry_difference(on_latent, truth) <= 1e-8
                assert population_loss(fit.estimate, (src, dst), codecs, spec) <= 1e-8
        assert max(abs(v) for v in fit.edge_losses.values()) <= 1e-12
        if nuisance:
            for lang in graph.languages:
                # E_L is zero off the span of the sentences, where the data never vary
                null = np.linalg.svd(codecs[lang].decoder.linear[:, :3])[0][:, 3:]
                assert np.abs(fit.estimate.encoder(lang).linear @ null).max() <= 1e-8

    def test_encoders_undo_their_decoders(self):
        _graph, _codecs, corpora, _ = chain_setup(n_langs=5, sigma=0.05, nuisance=2, n=80, seed=3)
        estimate = self.fit(corpora).estimate
        for lang in estimate.encoders:
            loop = estimate.encoder(lang).compose(estimate.decoder(lang))
            assert max_entry_difference(loop, AffineMap(np.eye(3), np.zeros(3))) <= 1e-12
            assert estimate.encoder(lang).linear.shape == (3, 5)
            assert estimate.decoder(lang).linear.shape == (5, 3)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_the_bottom_generalized_eigenvectors_of_the_pencil(self, seed):
        graph, _codecs, corpora, _ = chain_setup(
            n_langs=5, d=2, sigma=0.05, nuisance=1, n=60, seed=seed,
            extra_edges=(("L0", "L3"),),
        )
        fit = self.fit(corpora)
        langs = sorted(graph.languages)
        q, b = pencil(corpora, langs)
        e = np.hstack([fit.estimate.encoder(lang).linear for lang in langs])
        # normalisation, objective and the eigenvalues of an independent solver
        assert np.abs(e @ b @ e.T - np.eye(2)).max() <= 1e-9
        reference = scipy.linalg.eigh(q, b, eigvals_only=True)[:3]
        assert np.allclose(fit.eigenvalues, reference, rtol=1e-8, atol=1e-12)
        assert np.trace(e @ q @ e.T) == pytest.approx(sum(fit.eigenvalues[:2]), abs=1e-12)
        assert fit.gap == pytest.approx(reference[2] / max(reference[1], trainer.EIG_FLOOR))

    def test_decoder_is_the_pooled_regression(self):
        graph, _codecs, corpora, _ = chain_setup(
            n_langs=4, d=2, sigma=0.1, nuisance=1, n=50, seed=5, extra_edges=(("L0", "L2"),)
        )
        estimate = self.fit(corpora).estimate
        for lang in graph.languages:
            x = np.vstack([
                c.source_points if c.edge[0] == lang else c.target_points
                for c in corpora if lang in c.edge
            ])
            z = apply(estimate.encoder(lang), x)
            design = np.column_stack([z, np.ones(len(z))])
            theta = np.linalg.lstsq(design, x, rcond=None)[0]
            dec = estimate.decoder(lang)
            assert np.abs(dec.linear - theta[:2].T).max() <= 1e-9
            assert np.abs(dec.offset - theta[2]).max() <= 1e-9

    def test_edge_losses_are_the_row_form_losses(self):
        _graph, _codecs, corpora, _ = chain_setup(
            n_langs=4, sigma=0.05, nuisance=1, n=70, seed=8, extra_edges=(("L1", "L3"),)
        )
        fit = self.fit(corpora)
        assert list(fit.edge_losses) == [c.edge for c in corpora]
        for corpus in corpora:
            row_form = empirical_edge_loss(fit.estimate, corpus)
            assert fit.edge_losses[corpus.edge] == pytest.approx(row_form, rel=1e-9)
            assert row_form >= fit_edge(corpus).empirical_loss - 1e-12  # the edge's own floor
        assert fit.objective == sum(fit.edge_losses.values())

    def test_offsets_close_the_edges_mean_gaps_by_least_squares(self):
        # on a tree the latent means of each edge's two sides agree exactly; on
        # a cycle the gaps left over are orthogonal to the incidence matrix
        for extra in ((), (("L0", "L3"),)):
            graph, _codecs, corpora, _ = chain_setup(
                n_langs=4, sigma=0.05, nuisance=1, n=50, seed=9, extra_edges=extra
            )
            estimate = self.fit(corpora).estimate
            residual = {lang: np.zeros(3) for lang in graph.languages}
            for corpus in corpora:
                a, b = corpus.edge
                gap = (apply(estimate.encoder(a), corpus.source_points).mean(axis=0)
                       - apply(estimate.encoder(b), corpus.target_points).mean(axis=0))
                if not extra:
                    assert np.abs(gap).max() <= 1e-12
                residual[a] += gap
                residual[b] -= gap
            assert max(np.abs(r).max() for r in residual.values()) <= 1e-12

    def test_no_gap_is_a_conditioning_error(self):
        # Two nuisance coordinates carry noise: a third latent direction has none to stand on.
        _graph, _codecs, corpora, _ = chain_setup(n_langs=3, d=2, sigma=0.1, nuisance=2, n=200)
        assert len(self.fit(corpora).eigenvalues) == 3
        with pytest.raises(ConditioningError, match="no eigenvalue gap after 3 latent"):
            self.fit(corpora, latent_dim=3)

    def test_disconnected_corpora_have_no_gap(self):
        _graph, _codecs, corpora, _ = chain_setup(n_langs=4, n=30)
        with pytest.raises(ConditioningError, match="no eigenvalue gap"):
            self.fit([corpora[0], corpora[2]])

    def test_too_few_directions_is_a_conditioning_error(self):
        _graph, _codecs, corpora, _ = chain_setup(n_langs=2, d=1, nuisance=1, n=20)
        with pytest.raises(ConditioningError, match="along 2 directions in all"):
            self.fit(corpora, latent_dim=2)

    @pytest.mark.parametrize("latent_dim", [0, 4])
    def test_latent_dimension_out_of_range(self, latent_dim):
        _graph, _codecs, corpora, _ = chain_setup(n_langs=2)
        with pytest.raises(ValueError, match=r"must lie in \[1, 3\]"):
            self.fit(corpora, latent_dim)

    def test_gap_floors_a_rounding_level_eigenvalue(self):
        _graph, _codecs, corpora, _ = chain_setup(n_langs=3, n=30)
        fit = self.fit(corpora)
        assert abs(fit.eigenvalues[-2]) <= 1e-13
        assert fit.gap == fit.eigenvalues[-1] / trainer.EIG_FLOOR


class TestBottomEigenvectors:
    """``trainer._bottom_eigenvectors`` against ``np.linalg.eigh``'s eigenvectors."""

    @pytest.mark.parametrize(
        "bottom",
        [
            [0.0, 0.0, 0.0],  # a zero cluster, as the joint fit's noiseless latent
            [1e-16, -2e-16, 3e-17],
            [0.01, 0.05, 0.1],  # lambda_{d+1} = 1 is exactly GAP_RATIO times lambda_d
            [0.3, 0.2, 0.1],
        ],
    )
    def test_spans_the_bottom_eigenspace(self, bottom):
        rng = np.random.default_rng(len(bottom) + int(1e3 * sum(bottom)))
        n = 40
        values = np.concatenate([bottom, np.linspace(1.0, 2.0, n - len(bottom))])
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        pencil = (q * values) @ q.T
        kept = pencil.copy()
        basis = trainer._bottom_eigenvectors(pencil, np.sort(values), len(bottom))
        assert np.abs(pencil - kept).max() <= 1e-15  # shifted and back
        assert basis.shape == (n, 3)
        assert np.abs(basis.T @ basis - np.eye(3)).max() <= 1e-14
        want = np.linalg.eigh(kept)[1][:, :3]
        # the same subspace: its projector, which no basis rotation moves
        assert np.abs(basis @ basis.T - want @ want.T).max() <= 1e-12
        ritz = np.diag(basis.T @ kept @ basis)
        assert np.allclose(ritz, np.sort(bottom), atol=1e-14)


class TestEncoderEstimate:
    @staticmethod
    def pair(encoder_linear, decoder_linear, encoder_offset=None, decoder_offset=None):
        enc = AffineMap(encoder_linear, np.zeros(len(encoder_linear)) if encoder_offset is None else encoder_offset)
        dec = AffineMap(decoder_linear, np.zeros(len(decoder_linear)) if decoder_offset is None else decoder_offset)
        return enc, dec

    def test_rejects_an_encoder_that_does_not_undo_its_decoder(self):
        good = self.pair(np.eye(2, 3), np.eye(3, 2))
        bad = self.pair(np.eye(2, 3), 1.01 * np.eye(3, 2))
        with pytest.raises(ConditioningError, match="encoder of 'B' undoes its decoder only"):
            EncoderEstimate({"A": good[0], "B": bad[0]}, {"A": good[1], "B": bad[1]})
        shifted = self.pair(np.eye(2, 3), np.eye(3, 2), decoder_offset=[0.0, 1e-6, 0.0])
        with pytest.raises(ConditioningError, match="within 1e-06"):
            EncoderEstimate({"A": shifted[0]}, {"A": shifted[1]})

    def test_accepts_a_left_inverse_with_offsets(self):
        enc, dec = self.pair(
            np.array([[2.0, 0.0, 1.0], [0.0, 0.5, 0.0]]), np.array([[0.5, 0.0], [0.0, 2.0], [0.0, 0.0]]),
            encoder_offset=[1.0, 1.0], decoder_offset=[-0.5, -2.0, 0.0],
        )
        estimate = EncoderEstimate({"A": enc}, {"A": dec})
        assert estimate.decoder("A") is dec and estimate.encoder("A") is enc

    @pytest.mark.parametrize(
        "encoders, decoders",
        [
            ({"A": (2, 3)}, {"A": (2, 3)}),  # the decoder must be D x d
            ({"A": (2, 3), "B": (2, 4)}, {"A": (3, 2), "B": (4, 2)}),  # one D for all
            ({"A": (2, 3), "B": (1, 3)}, {"A": (3, 2), "B": (3, 1)}),  # one d for all
        ],
    )
    def test_rejects_mismatched_shapes(self, encoders, decoders):
        def maps(shapes):
            return {lang: AffineMap(np.eye(*shape), np.zeros(shape[0])) for lang, shape in shapes.items()}

        with pytest.raises(ValueError, match="every encoder must be d x D"):
            EncoderEstimate(maps(encoders), maps(decoders))

    def test_rejects_different_languages_and_no_language(self):
        enc, dec = self.pair(np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="encoders cover \\['A'\\], but decoders cover \\['B'\\]"):
            EncoderEstimate({"A": enc}, {"B": dec})
        with pytest.raises(ValueError, match="at least one encoder"):
            EncoderEstimate({}, {})

    def test_gl_d_gauge_preserves_composites(self):
        _graph, _codecs, corpora, _ = chain_setup(n_langs=3, sigma=0.05, nuisance=1, n=60)
        estimate = joint_estimate(corpora)
        f = AffineMap(np.array([[1.0, 0.3, 0], [0, 1.2, 0], [0.1, 0, 0.9]]), np.array([0.2, -0.1, 0.05]))
        transformed = with_gauge(estimate, f)
        for src, dst in (("L0", "L2"), ("L1", "L0"), ("L2", "L1")):
            diff = max_entry_difference(
                composite(estimate, src, dst), composite(transformed, src, dst)
            )
            assert diff <= 1e-12


class TestEmpiricalEdgeLoss:
    def test_truth_estimate_fits_noiseless_corpora(self):
        _graph, codecs, corpora, _ = chain_setup()
        estimate = truth_estimate(codecs)
        for corpus in corpora:
            assert empirical_edge_loss(estimate, corpus) <= 1e-12

    def test_identity_encoders_measure_pair_gap(self):
        _graph, _codecs, corpora, _ = chain_setup()
        corpus = corpora[0]
        identity = AffineMap(np.eye(3), np.zeros(3))
        estimate = EncoderEstimate(dict.fromkeys(("L0", "L1"), identity), dict.fromkeys(("L0", "L1"), identity))
        expected = float(
            np.mean(np.sum((corpus.source_points - corpus.target_points) ** 2, axis=1))
        )
        assert empirical_edge_loss(estimate, corpus) == pytest.approx(expected, abs=1e-12)

    def test_gauge_invariance(self):
        _graph, _codecs, corpora, _ = chain_setup(n_langs=3, sigma=0.05, nuisance=1)
        estimate = joint_estimate(corpora)
        f = AffineMap(np.diag([1.1, 0.9, 1.05]), np.array([0.1, 0, -0.1]))
        transformed = with_gauge(estimate, f)
        for corpus in corpora:
            a = empirical_edge_loss(estimate, corpus)
            b = empirical_edge_loss(transformed, corpus)
            assert abs(a - b) <= 1e-9


def test_trace_targets_of_trainer_and_affine_resolve():
    """Every function the per-layer trace wraps still exists, in every layer.

    ``bench/tracing.py`` skips a target it cannot find, so a rename or a
    deletion would drop its span silently; its table is read here, not edited.
    A class member is looked up in the ``__dict__`` of each class on the
    owner's ``__mro__``, so a deleted ``__call__`` does not resolve to the
    metaclass's ``type.__call__``. The only unresolved targets are names the
    trace table still lists but the package no longer defines: three stale
    ``generative`` names; the TV and pushforward of ``distributions``, the
    point map of ``AffineMap`` and the row-form edge losses of ``trainer``,
    which ``tests/helpers.py`` holds now; ``AffineMap.smallest_gain``,
    which is ``singular_values[..., -1]``; and the spanning-tree anchoring
    and refinement of ``trainer`` and the inverse of ``AffineMap``, which the
    joint fit replaced.
    """
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unresolved = set()
    for module_name, attribute, _name in tracing.TARGETS:
        module = importlib.import_module(f"translab.{module_name}")
        owner_name, _, member = attribute.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            classes = owner.__mro__ if isinstance(owner, type) else ()
            target = next((c.__dict__[member] for c in classes if member in c.__dict__), None)
        else:
            target = getattr(module, member, None)
        if not callable(target):
            unresolved.add(f"translab.{module_name}.{attribute}")
    assert unresolved == {
        "translab.affine.AffineMap.__call__",
        "translab.affine.AffineMap.inverse",
        "translab.affine.AffineMap.smallest_gain",
        "translab.distributions.pushforward",
        "translab.distributions.tv_distance",
        "translab.generative.AffineCodec.decode",
        "translab.generative.generate_corpus",
        "translab.generative.sample_ground_truth_codecs",
        "translab.trainer.anchor_spanning_tree",
        "translab.trainer.empirical_edge_loss",
        "translab.trainer.joint_refine",
        "translab.trainer.total_edge_loss",
    }
