"""Tests for edge regression, spanning-tree anchoring, and joint refinement."""

import numpy as np
import pytest

from helpers import encoder_map, out_of_place_fit_edge
from translab import trainer
from translab.affine import SINGULAR_TOL, AffineMap
from translab.errors import (
    ConditioningError,
    GraphError,
    InsufficientDataError,
)
from translab.generative import (
    AlignedCorpus,
    FunctionClassSpec,
    LatentSampler,
    TranslationGraph,
    randomized_generate,
    sample_randomized_codecs,
)
from translab.trainer import (
    EncoderEstimate,
    anchor_spanning_tree,
    empirical_edge_loss,
    fit_edge,
    joint_refine,
    project_to_class,
    total_edge_loss,
)


def reference_joint_refine(estimate, corpora, sweeps, ridge=1e-10, spec=None):
    """Full-rescore refinement: every trial re-validates and re-scores all edges."""
    current = estimate
    total = total_edge_loss(current, corpora)
    for _ in range(sweeps):
        for lang in current.languages:
            if lang == current.anchor:
                continue
            points, targets = [], []
            for corpus in corpora:
                a, b = corpus.edge
                if lang == a:
                    points.append(corpus.source_points)
                    targets.append(current.encoder(b)(corpus.target_points))
                elif lang == b:
                    points.append(corpus.target_points)
                    targets.append(current.encoder(a)(corpus.source_points))
            if not points:
                continue
            candidate = trainer._affine_least_squares(
                np.vstack(points), np.vstack(targets), ridge
            )
            old = current.encoder(lang)
            step = 1.0
            for _attempt in range(60):
                blended = AffineMap(
                    old.linear + step * (candidate.linear - old.linear),
                    old.offset + step * (candidate.offset - old.offset),
                )
                if spec is not None:
                    blended = project_to_class(blended, spec)
                if blended.smallest_gain() < SINGULAR_TOL:
                    step /= 2.0
                    continue
                trial = current.with_encoder(lang, blended)
                trial_total = total_edge_loss(trial, corpora)
                if trial_total <= total + 1e-12:
                    current, total = trial, trial_total
                    break
                step /= 2.0
    return current


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
        assert result.transform.max_entry_difference(expected) <= 1e-8
        assert result.empirical_loss <= 1e-12

    def test_one_dimensional_closed_form(self):
        # pairs (1, 2), (2, 4), (0, 0): exact fit is scale 2, offset 0
        pairs = np.array([[[1.0], [2.0]], [[2.0], [4.0]], [[0.0], [0.0]]])
        corpus = AlignedCorpus(("A", "B"), pairs, {})
        result = fit_edge(corpus)
        assert result.transform.linear[0, 0] == pytest.approx(2.0, abs=1e-10)
        assert result.transform.offset[0] == pytest.approx(0.0, abs=1e-10)
        assert result.empirical_loss <= 1e-12

    def test_insufficient_data(self):
        pairs = np.zeros((2, 2, 2))
        corpus = AlignedCorpus(("A", "B"), pairs, {})
        with pytest.raises(InsufficientDataError):
            fit_edge(corpus)

    def test_loss_recomputable_from_transform(self):
        _g, _c, corpora, _ = chain_setup(sigma=0.1, nuisance=1, n=60)
        result = fit_edge(corpora[0])
        residual = result.transform(corpora[0].source_points) - corpora[0].target_points
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
            residual = perturbed(corpus.source_points) - corpus.target_points
            loss = float(np.mean(np.sum(residual**2, axis=1)))
            assert loss >= result.empirical_loss - 1e-15


class TestAnchorSpanningTree:
    def test_two_languages_anchor_is_identity(self):
        graph, _codecs, corpora, _ = chain_setup(n_langs=2)
        result = fit_edge(corpora[0])
        estimate = anchor_spanning_tree(graph, [result], "L1")
        assert np.array_equal(estimate.encoder("L1").linear, np.eye(3))
        # the non-anchor encoder IS the fitted map toward the anchor
        assert estimate.encoder("L0").max_entry_difference(result.transform) <= 1e-12

    def test_tree_edge_composites_reproduce_fits(self):
        graph, _codecs, corpora, _ = chain_setup(n_langs=4)
        results = [fit_edge(c) for c in corpora]
        estimate = anchor_spanning_tree(graph, results, "L0")
        for result in results:
            a, b = result.edge
            assert estimate.composite(a, b).max_entry_difference(result.transform) <= 1e-10

    def test_anchor_choice_is_a_gauge_choice(self):
        graph, _codecs, corpora, _ = chain_setup(n_langs=4)
        results = [fit_edge(c) for c in corpora]
        est0 = anchor_spanning_tree(graph, results, "L0")
        est1 = anchor_spanning_tree(graph, results, "L1")
        for src in graph.languages:
            for dst in graph.languages:
                if src == dst:
                    continue
                diff = est0.composite(src, dst).max_entry_difference(
                    est1.composite(src, dst)
                )
                assert diff <= 1e-9

    def test_disconnected_graph_fails(self):
        graph = TranslationGraph(("A", "B", "C"), (("A", "B", 10),))
        with pytest.raises(GraphError):
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
        transformed = estimate.with_gauge(f)
        assert transformed.anchor is None
        for src, dst in (("L0", "L2"), ("L1", "L0")):
            diff = estimate.composite(src, dst).max_entry_difference(
                transformed.composite(src, dst)
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
        transformed = estimate.with_gauge(f)
        for corpus in corpora:
            a = empirical_edge_loss(estimate, corpus)
            b = empirical_edge_loss(transformed, corpus)
            assert abs(a - b) <= 1e-9


class TestJointRefine:
    def test_zero_sweeps_is_identity(self):
        graph, _codecs, corpora, _ = chain_setup(n_langs=3)
        results = [fit_edge(c) for c in corpora]
        estimate = anchor_spanning_tree(graph, results, "L0")
        refined = joint_refine(estimate, corpora, 0)
        assert refined is estimate

    def test_noiseless_tree_is_already_optimal(self):
        graph, _codecs, corpora, _ = chain_setup(n_langs=4)
        results = [fit_edge(c) for c in corpora]
        estimate = anchor_spanning_tree(graph, results, "L0")
        before = total_edge_loss(estimate, corpora)
        refined = joint_refine(estimate, corpora, 2)
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
            current = joint_refine(current, corpora, 1)
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
            (  # projection onto the function class after every blend
                dict(n_langs=4, n=60, sigma=0.1, nuisance=1, seed=5,
                     extra_edges=(("L1", "L3"),)),
                "L0",
                dict(sweeps=2, spec=FunctionClassSpec(dim=4, rho=3.0, offset_bound=2.0)),
            ),
            (  # a cycle L1-L2-L3 with degree-1 leaves L0 and L4
                dict(n_langs=5, n=60, sigma=0.08, nuisance=1, seed=9,
                     extra_edges=(("L1", "L3"),)),
                "L2", dict(sweeps=2),
            ),
        ],
        ids=["noisy-cycle-chord", "projected", "leaves"],
    )
    def test_matches_full_rescore_reference(self, setup, anchor, refine):
        graph, _codecs, corpora, _ = chain_setup(**setup)
        estimate = anchor_spanning_tree(graph, [fit_edge(c) for c in corpora], anchor)
        refined = joint_refine(estimate, corpora, **refine)
        expected = reference_joint_refine(estimate, corpora, **refine)
        assert refined.anchor == expected.anchor
        assert refined.languages == expected.languages
        changed = False
        for lang in expected.languages:
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
        scored = []
        trials = []
        edge_loss, rescore = trainer._edge_loss, trainer._rescore

        def counting_edge_loss(inv_b, enc_a, corpus):
            scored.append(corpus.edge)
            return edge_loss(inv_b, enc_a, corpus)

        def counting_rescore(lang, *args):
            before = len(scored)
            result = rescore(lang, *args)
            trials.append((lang, scored[before:]))
            return result

        monkeypatch.setattr(trainer, "_edge_loss", counting_edge_loss)
        monkeypatch.setattr(trainer, "_rescore", counting_rescore)
        joint_refine(estimate, corpora, 2)
        assert trials
        for lang, edges in trials:
            assert len(edges) <= len(graph.neighbors(lang))
            assert all(lang in edge for edge in edges)
        # one scoring of every corpus for the incumbent, then incident edges only
        assert len(scored) == len(corpora) + sum(len(edges) for _lang, edges in trials)
        assert len(scored) < len(corpora) * (1 + len(trials))


class TestProjectToClass:
    def test_in_class_map_is_unchanged(self):
        spec = FunctionClassSpec(dim=3, rho=2.0, offset_bound=1.0)
        affine = AffineMap(np.diag([1.5, 0.8, 1.0]), np.array([0.3, 0, 0]))
        projected = project_to_class(affine, spec)
        assert projected.max_entry_difference(affine) <= 1e-12

    def test_oversized_scale_is_clipped(self):
        spec = FunctionClassSpec(dim=2, rho=2.0)
        affine = AffineMap(10 * np.eye(2), np.zeros(2))
        projected = project_to_class(affine, spec)
        assert projected.operator_norm() == pytest.approx(2.0, abs=1e-10)

    def test_oversized_offset_is_rescaled(self):
        spec = FunctionClassSpec(dim=2, rho=2.0, offset_bound=1.0)
        affine = AffineMap(np.eye(2), np.array([3.0, 4.0]))
        projected = project_to_class(affine, spec)
        assert np.linalg.norm(projected.offset) == pytest.approx(1.0, abs=1e-12)

    def test_idempotent(self):
        spec = FunctionClassSpec(dim=3, rho=2.0)
        rng = np.random.default_rng(1)
        affine = AffineMap(3 * rng.standard_normal((3, 3)), rng.standard_normal(3) * 4)
        once = project_to_class(affine, spec)
        twice = project_to_class(once, spec)
        assert twice.max_entry_difference(once) <= 1e-12
