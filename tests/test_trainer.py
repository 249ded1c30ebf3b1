"""Tests for edge regression, spanning-tree anchoring, and joint refinement."""

import importlib
import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    apply,
    assert_same_bits,
    composite,
    corpus_of_pairs,
    empirical_edge_loss,
    encoder_map,
    lexicographic_shortest_path,
    max_entry_difference,
    out_of_place_fit_edge,
    random_connected_graph,
    rows_of_pairs,
    scalar_factor_loss,
    total_edge_loss,
    with_gauge,
)
from translab import trainer
from translab.affine import SINGULAR_TOL, AffineMap
from translab.errors import (
    ConditioningError,
    GraphError,
    InsufficientDataError,
)
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
from translab.trainer import (
    EdgeRegressionResult,
    EncoderEstimate,
    anchor_spanning_tree,
    factor_corpus,
    fit_edge,
    fit_rows,
    joint_refine,
)


def reference_joint_refine(estimate, factors, sweeps):
    """Full-rescore refinement in the R arithmetic.

    Every trial re-validates the estimate and re-scores every edge from its
    factor, and the consensus is rebuilt from the factors of the language's
    edges in ``factors`` order.
    """

    def objective(est):
        return float(sum(
            scalar_factor_loss(composite(est, *f.edge), f) for f in factors
        ))

    current = estimate
    total = objective(current)
    for _ in range(sweeps):
        for lang in sorted(current.encoders):
            if lang == current.anchor:
                continue
            designs, targets = [], []
            for f in factors:
                a, b = f.edge
                d = f.dim
                if lang == a:
                    own, other, neighbour = f.r[:, :d], f.r[:, d : 2 * d], b
                elif lang == b:
                    own, other, neighbour = f.r[:, d : 2 * d], f.r[:, :d], a
                else:
                    continue
                enc = current.encoder(neighbour)
                ones = f.r[:, 2 * d :]
                designs.append(np.hstack((own, ones)))
                targets.append(other @ enc.linear.T + ones * enc.offset)
            if not designs:
                continue
            candidate = trainer._least_squares(np.vstack(designs), np.vstack(targets))
            old = current.encoder(lang)
            step = 1.0
            for _attempt in range(60):
                blended = AffineMap(
                    old.linear + step * (candidate.linear - old.linear),
                    old.offset + step * (candidate.offset - old.offset),
                )
                if blended.singular_values[-1] < SINGULAR_TOL:
                    step /= 2.0
                    continue
                trial = EncoderEstimate({**current.encoders, lang: blended}, current.anchor)
                trial_total = objective(trial)
                if trial_total <= total + 1e-12:
                    current, total = trial, trial_total
                    break
                step /= 2.0
    return current


def reference_rung(rung, lang, old, candidate, encoders, losses, factors, incident):
    """Rung ``rung`` of the step ladder on its own: blend, invert, re-score ``lang``'s edges.

    Returns None for a numerically singular blend, else the blend, the per-edge
    losses and their sum, all from one map at a time.
    """
    step = 1.0
    for _ in range(rung):
        step /= 2.0
    blended = AffineMap(
        old.linear + step * (candidate.linear - old.linear),
        old.offset + step * (candidate.offset - old.offset),
    )
    if blended.singular_values[-1] < SINGULAR_TOL:
        return None
    trial_encoders = {**encoders, lang: blended}
    trial = list(losses)
    for i in incident:
        a, b = factors[i].edge
        composite = trial_encoders[b].inverse().compose(trial_encoders[a])
        trial[i] = scalar_factor_loss(composite, factors[i])
    return blended, trial, float(sum(trial))


def reference_line_search(lang, old, candidate, encoders, losses, total, factors, incident):
    """The first of 60 rungs, tried one at a time, whose objective is at most ``total`` + 1e-12."""
    for rung in range(60):
        scored = reference_rung(rung, lang, old, candidate, encoders, losses, factors, incident)
        if scored is not None and scored[2] <= total + 1e-12:
            return (rung, *scored)
    return None


def stacked_loss(transform, factor):
    """``trainer._factor_losses`` of a stack of one map."""
    return trainer._factor_losses(transform[None], factor)[0]


def factors_of(corpora):
    return [factor_corpus(c) for c in corpora]


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
    return encoder_map(codecs[dst]).inverse().compose(encoder_map(codecs[src]))


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
        maps, losses = fit_rows(rows)
        assert maps.linear.shape == (6, d + nuisance, d + nuisance) and len(losses) == 6
        for t in range(6):
            want = fit_edge(AlignedCorpus(("A", "B"), rows[t], {}))
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
        maps, _losses = fit_rows(rows_of_pairs(pairs))
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


class TestAnchorSpanningTree:
    def test_two_languages_anchor_is_identity(self):
        graph, _codecs, corpora, _ = chain_setup(n_langs=2)
        result = fit_edge(corpora[0])
        estimate = anchor_spanning_tree(graph, [result], "L1")
        assert np.array_equal(estimate.encoder("L1").linear, np.eye(3))
        # the non-anchor encoder IS the fitted map toward the anchor
        assert max_entry_difference(estimate.encoder("L0"), result.transform) <= 1e-12

    def test_tree_edge_composites_reproduce_fits(self):
        graph, _codecs, corpora, _ = chain_setup(n_langs=4)
        results = [fit_edge(c) for c in corpora]
        estimate = anchor_spanning_tree(graph, results, "L0")
        for result in results:
            a, b = result.edge
            assert max_entry_difference(composite(estimate, a, b), result.transform) <= 1e-10

    def test_anchor_choice_is_a_gauge_choice(self):
        graph, _codecs, corpora, _ = chain_setup(n_langs=4)
        results = [fit_edge(c) for c in corpora]
        est0 = anchor_spanning_tree(graph, results, "L0")
        est1 = anchor_spanning_tree(graph, results, "L1")
        for src in graph.languages:
            for dst in graph.languages:
                if src == dst:
                    continue
                diff = max_entry_difference(
                    composite(est0, src, dst), composite(est1, src, dst)
                )
                assert diff <= 1e-9

    def test_disconnected_graph_fails(self):
        graph = TranslationGraph(("A", "B", "C"), (("A", "B", 10),))
        with pytest.raises(GraphError):
            anchor_spanning_tree(graph, [], "A")

    def test_tree_parents_follow_lexicographic_shortest_paths(self):
        for seed in range(60):
            rng = np.random.default_rng(seed)
            graph = random_connected_graph(
                rng, int(rng.integers(2, 11)), int(rng.integers(0, 9))
            )
            maps = {}
            for edge in graph.edge_pairs():
                q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
                maps[edge] = AffineMap(q * rng.uniform(0.8, 1.25, 2), rng.standard_normal(2))
            results = [EdgeRegressionResult(edge, t, 0.0, 1) for edge, t in maps.items()]
            anchor = graph.languages[rng.integers(len(graph.languages))]
            estimate = anchor_spanning_tree(graph, results, anchor)
            assert sorted(estimate.encoders) == sorted(graph.languages)
            for lang in graph.languages:
                if lang == anchor:
                    continue
                # E_L = E_P ∘ T(L -> P), bit for bit, only for L's tree parent P.
                parent = lexicographic_shortest_path(graph, anchor, lang)[-2]
                key = (min(lang, parent), max(lang, parent))
                to_parent = maps[key] if key[0] == lang else maps[key].inverse()
                expected = estimate.encoder(parent).compose(to_parent)
                got = estimate.encoder(lang)
                assert np.array_equal(got.linear, expected.linear), f"seed {seed}, {lang}"
                assert np.array_equal(got.offset, expected.offset), f"seed {seed}, {lang}"

    def test_no_edge_maps_is_a_clear_error(self):
        graph = TranslationGraph(("A",), ())
        with pytest.raises(GraphError, match="no fitted edge maps were given"):
            anchor_spanning_tree(graph, [], "A")

    def test_missing_tree_edge_fails(self):
        graph, _codecs, corpora, _ = chain_setup(n_langs=3)
        results = [fit_edge(corpora[0])]  # second edge missing
        with pytest.raises(GraphError):
            anchor_spanning_tree(graph, results, "L0")


class TestEncoderEstimate:
    def test_anchor_must_be_identity(self):
        with pytest.raises(ValueError):
            EncoderEstimate({"A": AffineMap(2 * np.eye(2), np.zeros(2))}, "A")

    def test_rejects_singular_encoder(self):
        with pytest.raises(ConditioningError):
            EncoderEstimate(
                {"A": AffineMap(np.eye(2), np.zeros(2)),
                 "B": AffineMap(np.zeros((2, 2)), np.zeros(2))},
                "A",
            )

    def test_gauge_transform_preserves_composites(self):
        graph, _codecs, corpora, _ = chain_setup(n_langs=3)
        results = [fit_edge(c) for c in corpora]
        estimate = anchor_spanning_tree(graph, results, "L0")
        f = AffineMap(np.array([[1.0, 0.3, 0], [0, 1.2, 0], [0.1, 0, 0.9]]), np.array([0.2, -0.1, 0.05]))
        transformed = with_gauge(estimate, f)
        assert transformed.anchor is None
        for src, dst in (("L0", "L2"), ("L1", "L0")):
            diff = max_entry_difference(
                composite(estimate, src, dst), composite(transformed, src, dst)
            )
            assert diff <= 1e-9


class TestEmpiricalEdgeLoss:
    def test_truth_encoders_fit_noiseless_corpora(self):
        _graph, codecs, corpora, _ = chain_setup()
        estimate = EncoderEstimate(
            {lang: encoder_map(codecs[lang]) for lang in codecs}, anchor=None
        )
        for corpus in corpora:
            assert empirical_edge_loss(estimate, corpus) <= 1e-12

    def test_identity_encoders_measure_pair_gap(self):
        _graph, _codecs, corpora, _ = chain_setup()
        corpus = corpora[0]
        estimate = EncoderEstimate(
            {"L0": AffineMap.identity(3), "L1": AffineMap.identity(3)}, anchor=None
        )
        expected = float(
            np.mean(np.sum((corpus.source_points - corpus.target_points) ** 2, axis=1))
        )
        assert empirical_edge_loss(estimate, corpus) == pytest.approx(expected, abs=1e-12)

    def test_gauge_invariance(self):
        graph, _codecs, corpora, _ = chain_setup(n_langs=3, sigma=0.05, nuisance=1)
        results = [fit_edge(c) for c in corpora]
        estimate = anchor_spanning_tree(graph, results, "L0")
        f = AffineMap(np.diag([1.1, 0.9, 1.05, 0.95]), np.array([0.1, 0, -0.1, 0.2]))
        transformed = with_gauge(estimate, f)
        for corpus in corpora:
            a = empirical_edge_loss(estimate, corpus)
            b = empirical_edge_loss(transformed, corpus)
            assert abs(a - b) <= 1e-9


class TestJointRefine:
    def test_zero_sweeps_is_identity(self):
        graph, _codecs, corpora, _ = chain_setup(n_langs=3)
        results = [fit_edge(c) for c in corpora]
        estimate = anchor_spanning_tree(graph, results, "L0")
        refined = joint_refine(estimate, factors_of(corpora), 0)
        assert refined is estimate

    def test_noiseless_tree_is_already_optimal(self):
        graph, _codecs, corpora, _ = chain_setup(n_langs=4)
        results = [fit_edge(c) for c in corpora]
        estimate = anchor_spanning_tree(graph, results, "L0")
        before = total_edge_loss(estimate, corpora)
        refined = joint_refine(estimate, factors_of(corpora), 2)
        after = total_edge_loss(refined, corpora)
        assert before <= 1e-12
        assert after <= before + 1e-12

    def test_noisy_cycle_objective_never_increases(self):
        graph, _codecs, corpora, _ = chain_setup(
            n_langs=4, n=80, sigma=0.08, nuisance=1, seed=5,
            extra_edges=(("L0", "L3"),),
        )
        results = [fit_edge(c) for c in corpora]
        estimate = anchor_spanning_tree(graph, results, "L0")
        objective = total_edge_loss(estimate, corpora)
        current = estimate
        for _ in range(3):
            current = joint_refine(current, factors_of(corpora), 1)
            new_objective = total_edge_loss(current, corpora)
            assert new_objective <= objective + 1e-9
            objective = new_objective

    @pytest.mark.parametrize(
        "setup, anchor, refine",
        [
            (  # noisy cycle with a chord
                dict(n_langs=4, n=80, sigma=0.08, nuisance=1, seed=5,
                     extra_edges=(("L0", "L3"),)),
                "L0", dict(sweeps=3),
            ),
            (  # a cycle L1-L2-L3 with degree-1 leaves L0 and L4
                dict(n_langs=5, n=60, sigma=0.08, nuisance=1, seed=9,
                     extra_edges=(("L1", "L3"),)),
                "L2", dict(sweeps=2),
            ),
        ],
        ids=["noisy-cycle-chord", "leaves"],
    )
    def test_matches_full_rescore_reference(self, setup, anchor, refine):
        graph, _codecs, corpora, _ = chain_setup(**setup)
        estimate = anchor_spanning_tree(graph, [fit_edge(c) for c in corpora], anchor)
        factors = factors_of(corpora)
        refined = joint_refine(estimate, factors, **refine)
        expected = reference_joint_refine(estimate, factors, **refine)
        assert refined.anchor == expected.anchor
        assert sorted(refined.encoders) == sorted(expected.encoders)
        changed = False
        for lang in sorted(expected.encoders):
            got, want = refined.encoder(lang), expected.encoder(lang)
            assert np.array_equal(got.linear, want.linear)
            assert np.array_equal(got.offset, want.offset)
            changed |= not np.array_equal(want.linear, estimate.encoder(lang).linear)
        assert changed  # refinement moved something, so the comparison has teeth
        assert total_edge_loss(refined, corpora) == total_edge_loss(expected, corpora)

    def test_trial_scores_only_incident_edges(self, monkeypatch):
        graph, _codecs, corpora, _ = chain_setup(
            n_langs=5, n=60, sigma=0.08, nuisance=1, seed=9, extra_edges=(("L1", "L3"),)
        )
        estimate = anchor_spanning_tree(graph, [fit_edge(c) for c in corpora], "L2")
        events = []
        factor_losses, line_search, svd = (
            trainer._factor_losses, trainer._line_search, np.linalg.svd
        )

        searching = []

        def counting_factor_losses(maps, factor):
            events.append(("edge", factor.edge, len(maps.linear)))
            return factor_losses(maps, factor)

        def counting_svd(a, *args, **kwargs):
            if searching:  # one stacked singular check per chunk of rungs
                events.append(("chunk", None, len(a)))
            return svd(a, *args, **kwargs)

        def recording_line_search(lang, *args):
            events.append(("search", lang, None))
            searching.append(lang)
            try:
                accepted = line_search(lang, *args)
            finally:
                searching.pop()
            events.append(("rung", lang, None if accepted is None else accepted[0]))
            return accepted

        monkeypatch.setattr(trainer, "_factor_losses", counting_factor_losses)
        monkeypatch.setattr(trainer, "_line_search", recording_line_search)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        joint_refine(estimate, factors_of(corpora), 2)

        # One scoring of every corpus for the incumbent, a stack of one each.
        assert events[: len(corpora)] == [("edge", c.edge, 1) for c in corpora]
        searches = []
        for kind, key, value in events[len(corpora) :]:
            if kind == "search":
                searches.append({"lang": key, "chunks": [], "rung": None})
            elif kind == "chunk":
                searches[-1]["chunks"].append((value, []))
            elif kind == "edge":
                searches[-1]["chunks"][-1][1].append((key, value))
            else:
                searches[-1]["rung"] = value
        assert searches
        edge_rungs = 0
        for search in searches:
            incident = [c.edge for c in corpora if search["lang"] in c.edge]
            for size, edges in search["chunks"]:
                # each incident edge once per chunk, on the chunk's regular rungs
                assert [edge for edge, _m in edges] == incident
                assert len({m for _edge, m in edges}) == 1 and edges[0][1] <= size
                edge_rungs += sum(m for _edge, m in edges)
            scored = sum(size for size, _edges in search["chunks"])
            visited = 60 if search["rung"] is None else search["rung"] + 1
            assert scored <= 2 * visited - 1
        assert any(len(search["chunks"]) > 2 for search in searches)
        assert edge_rungs < len(corpora) * sum(
            size for search in searches for size, _edges in search["chunks"]
        )

    def test_objective_matches_total_edge_loss_to_rounding(self):
        graph, _codecs, corpora, _ = chain_setup(
            n_langs=4, n=80, sigma=0.08, nuisance=1, seed=5, extra_edges=(("L0", "L3"),)
        )
        estimate = anchor_spanning_tree(graph, [fit_edge(c) for c in corpora], "L0")
        refined = joint_refine(estimate, factors_of(corpora), 2)
        row_form = total_edge_loss(refined, corpora)
        r_form = sum(
            scalar_factor_loss(composite(refined, *f.edge), f) for f in factors_of(corpora)
        )
        assert r_form == pytest.approx(row_form, rel=1e-12)


class TestLineSearch:
    """The chunked, stacked step ladder against trying one rung at a time."""

    LANG = "L1"

    def state(self, lang_encoder=None):
        graph, _codecs, corpora, _ = chain_setup(
            n_langs=3, n=60, sigma=0.08, nuisance=1, seed=9, extra_edges=(("L0", "L2"),)
        )
        estimate = anchor_spanning_tree(graph, [fit_edge(c) for c in corpora], "L0")
        factors = factors_of(corpora)
        encoders = dict(estimate.encoders)
        if lang_encoder is not None:
            encoders[self.LANG] = lang_encoder
        inverses = {lang: enc.inverse() for lang, enc in encoders.items()}
        losses = [
            scalar_factor_loss(inverses[f.edge[1]].compose(encoders[f.edge[0]]), f)
            for f in factors
        ]
        incident = [i for i, f in enumerate(factors) if self.LANG in f.edge]
        return encoders, inverses, losses, factors, incident

    def search_both(self, candidate, encoders, inverses, losses, total, factors, incident):
        old = encoders[self.LANG]
        got = trainer._line_search(
            self.LANG, candidate, encoders, inverses, losses, total, factors, incident
        )
        want = reference_line_search(
            self.LANG, old, candidate, encoders, losses, total, factors, incident
        )
        if want is None:
            assert got is None
            return None
        rung, encoder, inverse, trial, trial_total = got
        assert rung == want[0]
        assert np.array_equal(encoder.linear, want[1].linear)
        assert np.array_equal(encoder.offset, want[1].offset)
        expected_inverse = want[1].inverse()
        assert np.array_equal(inverse.linear, expected_inverse.linear)
        assert np.array_equal(inverse.offset, expected_inverse.offset)
        assert [loss.hex() for loss in trial] == [loss.hex() for loss in want[2]]
        assert trial_total.hex() == want[3].hex()
        return rung

    def test_chunks_cover_the_sixty_rung_ladder(self):
        assert sum(trainer.RUNG_CHUNKS) == 60
        assert trainer.RUNG_CHUNKS[:5] == (1, 2, 4, 8, 16)

    def test_exactly_singular_rung_is_skipped(self):
        dim = 4
        encoders, inverses, losses, factors, incident = self.state(AffineMap.identity(dim))
        minus_identity = AffineMap(-np.eye(dim), np.zeros(dim))
        # rung 0 is -I, rung 1 is exactly the zero matrix
        assert reference_rung(
            1, self.LANG, encoders[self.LANG], minus_identity, encoders, losses, factors, incident
        ) is None
        total = float(sum(losses))
        rung = self.search_both(minus_identity, encoders, inverses, losses, total, factors, incident)
        assert rung == 2

    def test_hit_in_every_chunk(self):
        encoders, inverses, losses, factors, incident = self.state()
        old = encoders[self.LANG]
        consensus = trainer._consensus(self.LANG, encoders, factors, incident)
        # Far along the ascent direction, the objective falls with every halving
        # by more than the 1e-12 slack, down to rung 35, so any of those rungs can
        # be made the first acceptable one by the incumbent total.
        candidate = AffineMap(
            old.linear - 1000 * (consensus.linear - old.linear),
            old.offset - 1000 * (consensus.offset - old.offset),
        )
        chunk_ends = list(itertools.accumulate(trainer.RUNG_CHUNKS))
        hit_chunks = set()
        for target in (0, 2, 5, 10, 20, 35):
            total = reference_rung(
                target, self.LANG, old, candidate, encoders, losses, factors, incident
            )[2]
            rung = self.search_both(candidate, encoders, inverses, losses, total, factors, incident)
            assert rung == target
            hit_chunks.add(next(c for c, end in enumerate(chunk_ends) if end > rung))
        assert hit_chunks == set(range(len(trainer.RUNG_CHUNKS)))

    def test_exhausted_ladder_scores_sixty_rungs_and_returns_none(self, monkeypatch):
        encoders, inverses, losses, factors, incident = self.state()
        consensus = trainer._consensus(self.LANG, encoders, factors, incident)
        rungs = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            if np.ndim(a) == 3:
                rungs.append(len(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        unreachable = float(sum(losses)) - 1.0
        assert self.search_both(
            consensus, encoders, inverses, losses, unreachable, factors, incident
        ) is None
        assert rungs == list(trainer.RUNG_CHUNKS)

    def test_chunks_take_their_blends_without_the_copying_constructor(self, monkeypatch):
        encoders, inverses, losses, factors, incident = self.state()
        consensus = trainer._consensus(self.LANG, encoders, factors, incident)
        copied = []
        post_init = AffineMap.__post_init__

        def counting_post_init(m):
            copied.append(m.linear.shape)
            post_init(m)

        monkeypatch.setattr(AffineMap, "__post_init__", counting_post_init)
        unreachable = float(sum(losses)) - 1.0
        assert trainer._line_search(
            self.LANG, consensus, encoders, inverses, losses, unreachable, factors, incident
        ) is None
        assert copied == []
        accepted = trainer._line_search(
            self.LANG, consensus, encoders, inverses, losses, float(sum(losses)), factors,
            incident,
        )
        # Only the accepted encoder and its inverse are copied out of the chunk.
        shape = encoders[self.LANG].linear.shape
        assert accepted is not None and copied == [shape, shape]
        assert not accepted[1].linear.flags.writeable and not accepted[2].offset.flags.writeable

    def test_failed_search_leaves_the_encoder_unchanged(self, monkeypatch):
        graph, _codecs, corpora, _ = chain_setup(
            n_langs=3, n=60, sigma=0.08, nuisance=1, seed=9, extra_edges=(("L0", "L2"),)
        )
        estimate = anchor_spanning_tree(graph, [fit_edge(c) for c in corpora], "L0")
        consensus, line_search = trainer._consensus, trainer._line_search
        outcomes = []

        def receding_consensus(lang, encoders, *args):
            # So far along the ascent direction that even rung 59 raises the
            # objective by more than the 1e-12 slack.
            toward = consensus(lang, encoders, *args)
            if lang != self.LANG:
                return toward
            old = encoders[lang]
            return AffineMap(
                old.linear - 1e8 * (toward.linear - old.linear),
                old.offset - 1e8 * (toward.offset - old.offset),
            )

        def recording_line_search(lang, *args):
            accepted = line_search(lang, *args)
            outcomes.append((lang, accepted is None))
            return accepted

        monkeypatch.setattr(trainer, "_consensus", receding_consensus)
        monkeypatch.setattr(trainer, "_line_search", recording_line_search)
        refined = joint_refine(estimate, factors_of(corpora), 1)
        assert outcomes == [("L1", True), ("L2", False)]
        assert np.array_equal(refined.encoder("L1").linear, estimate.encoder("L1").linear)
        assert np.array_equal(refined.encoder("L1").offset, estimate.encoder("L1").offset)
        assert not np.array_equal(refined.encoder("L2").linear, estimate.encoder("L2").linear)


class TestFactorLoss:
    """The R-form kernel of refinement against the row form of ``fit_edge``."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 9),
        stack=st.integers(1, 29),
        extra_rows=st.integers(0, 60),
    )
    def test_stack_matches_one_map_at_a_time_bitwise(self, seed, dim, stack, extra_rows):
        rng = np.random.default_rng(seed)
        pairs = rng.standard_normal((2 * dim + 1 + extra_rows, 2, dim))
        factor = factor_corpus(corpus_of_pairs(pairs))
        linear = rng.standard_normal((stack, dim, dim))
        offset = rng.standard_normal((stack, dim))
        got = trainer._factor_losses(AffineMap(linear, offset), factor)
        want = [
            scalar_factor_loss(AffineMap(a, c), factor) for a, c in zip(linear, offset)
        ]
        assert [loss.hex() for loss in got] == [loss.hex() for loss in want]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 5),
        extra_rows=st.integers(0, 200),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    def test_matches_the_row_form(self, seed, dim, extra_rows, scale):
        rng = np.random.default_rng(seed)
        n = 3 * (2 * dim + 1) + extra_rows
        pairs = scale * rng.standard_normal((n, 2, dim)) + rng.standard_normal((1, 2, dim))
        corpus = corpus_of_pairs(pairs)
        transform = AffineMap(
            rng.standard_normal((dim, dim)), scale * rng.standard_normal(dim)
        )
        row_form = trainer._mean_squared_residual(
            transform, corpus.source_points, corpus.target_points
        )
        r_form = stacked_loss(transform, factor_corpus(corpus))
        assert r_form == pytest.approx(row_form, rel=1e-12, abs=0.0)

    def test_noiseless_corpus_is_nonnegative_and_tiny(self):
        rng = np.random.default_rng(7)
        dim, n = 4, 500
        transform = AffineMap(rng.standard_normal((dim, dim)), rng.standard_normal(dim))
        x = rng.standard_normal((n, dim))
        corpus = corpus_of_pairs(np.stack([x, apply(transform, x)], axis=1))
        loss = stacked_loss(transform, factor_corpus(corpus))
        assert 0.0 <= loss < 1e-20

    @pytest.mark.parametrize("n, dim", [(3, 2), (500, 4), (2 * ROW_BLOCK + 1, 6)])
    def test_factor_is_the_qr_of_the_x_y_1_rows_bitwise(self, n, dim):
        pairs = np.random.default_rng([n, dim]).standard_normal((n, 2, dim))
        factor = factor_corpus(corpus_of_pairs(pairs))
        z = np.hstack([pairs[:, 0], pairs[:, 1], np.ones((n, 1))])
        assert_same_bits(factor.r, np.linalg.qr(z, mode="r"))
        assert not factor.r.flags.writeable

    def test_factor_of_a_short_corpus_has_one_row_per_pair(self):
        pairs = np.random.default_rng(3).standard_normal((3, 2, 2))
        factor = factor_corpus(corpus_of_pairs(pairs))
        assert factor.r.shape == (3, 5) and factor.n == 3 and factor.dim == 2
        transform = AffineMap(np.eye(2), np.ones(2))
        assert stacked_loss(transform, factor) == pytest.approx(
            trainer._mean_squared_residual(transform, pairs[:, 0], pairs[:, 1]), rel=1e-12
        )


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
    which ``tests/helpers.py`` holds now; and ``AffineMap.smallest_gain``,
    which is ``singular_values[..., -1]``.
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
        "translab.affine.AffineMap.smallest_gain",
        "translab.distributions.pushforward",
        "translab.distributions.tv_distance",
        "translab.generative.AffineCodec.decode",
        "translab.generative.generate_corpus",
        "translab.generative.sample_ground_truth_codecs",
        "translab.trainer.empirical_edge_loss",
        "translab.trainer.total_edge_loss",
    }
