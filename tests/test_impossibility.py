"""Tests for the lower bounds, universality checks, and the exhaustive search."""

import itertools
import math

import numpy as np
import pytest

from translab.distributions import (
    WEIGHT_TOL,
    DeterministicTranslator,
    FiniteDistribution,
    Sentence,
    pushforward,
    tv_distance,
    zero_one_error,
)
from translab.errors import BudgetError, DomainError
from translab.impossibility import (
    ManyToManyInstance,
    PartitionedRepresentation,
    TwoToOneInstance,
    bound_report,
    brute_force_min_error,
    check_epsilon_universal,
    check_epsilon_universal_partitioned,
    make_worst_case,
    many_to_many_bounds,
    perfect_universal_translator,
    random_many_to_many_instance,
    random_two_to_one_instance,
    two_to_one_bound,
)

TOL = 1e-12


def two_source_marginals():
    a = (Sentence("L0", "a0"), Sentence("L0", "a1"))
    b = (Sentence("L1", "b0"), Sentence("L1", "b1"))
    d0 = FiniteDistribution(a, np.array([0.9, 0.1]))
    d1 = FiniteDistribution(b, np.array([0.1, 0.9]))
    return a, b, d0, d1


class TestEpsilonUniversal:
    def test_constant_encoder_is_universal_at_zero(self):
        _a, _b, d0, d1 = two_source_marginals()
        g = DeterministicTranslator.constant(d0.support + d1.support, "z0")
        assert check_epsilon_universal(g, [d0, d1], 0.0)

    def test_merged_pairwise_images(self):
        a, b, d0, d1 = two_source_marginals()
        g = DeterministicTranslator({a[0]: "z0", a[1]: "z1", b[0]: "z0", b[1]: "z1"})
        assert not check_epsilon_universal(g, [d0, d1], 0.5)
        assert check_epsilon_universal(g, [d0, d1], 0.8)

    def test_boundary_is_inclusive(self):
        a, b, d0, d1 = two_source_marginals()
        g = DeterministicTranslator({a[0]: "z0", a[1]: "z1", b[0]: "z0", b[1]: "z1"})
        tv = tv_distance(pushforward(d0, g), pushforward(d1, g))
        assert check_epsilon_universal(g, [d0, d1], tv)

    def test_requires_two_marginals(self):
        _a, _b, d0, _d1 = two_source_marginals()
        g = DeterministicTranslator.constant(d0.support, "z0")
        with pytest.raises(ValueError):
            check_epsilon_universal(g, [d0], 0.0)

    def test_rejects_negative_epsilon(self):
        _a, _b, d0, d1 = two_source_marginals()
        g = DeterministicTranslator.constant(d0.support + d1.support, "z0")
        with pytest.raises(ValueError):
            check_epsilon_universal(g, [d0, d1], -0.1)


class TestPartitionedUniversal:
    def _instance(self):
        rng = np.random.default_rng(5)
        return random_many_to_many_instance(rng, n_languages=2, atom_budget=4)

    def test_block_respecting_encoder(self):
        inst = self._instance()
        # one representation atom per target block; every sentence goes to its
        # target's atom, so within-block pushforwards are point masses
        langs = sorted(inst.languages)
        atoms = tuple(f"z{i}" for i in range(len(langs)))
        blocks = {lang: frozenset({atoms[i]}) for i, lang in enumerate(langs)}
        mapping = {}
        for (src, dst) in inst.pairs():
            for x in inst.source_marginal(src, dst).support:
                mapping[x] = atoms[langs.index(dst)]
        rep = PartitionedRepresentation(atoms, blocks, DeterministicTranslator(mapping))
        assert check_epsilon_universal_partitioned(rep, inst, 0.0)

    def test_leaked_support_fails(self):
        inst = self._instance()
        langs = sorted(inst.languages)
        atoms = tuple(f"z{i}" for i in range(len(langs)))
        blocks = {lang: frozenset({atoms[i]}) for i, lang in enumerate(langs)}
        mapping = {}
        first = True
        for (src, dst) in inst.pairs():
            for x in inst.source_marginal(src, dst).support:
                block = langs.index(dst)
                if first:  # misplace exactly one sentence
                    block = (block + 1) % len(langs)
                    first = False
                mapping[x] = atoms[block]
        rep = PartitionedRepresentation(atoms, blocks, DeterministicTranslator(mapping))
        assert not check_epsilon_universal_partitioned(rep, inst, 1.0)

    def test_agrees_with_literal_definition(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            inst = random_many_to_many_instance(rng, n_languages=3)
            langs = sorted(inst.languages)
            atoms = ("z0", "z1", "z2")
            assignment = [langs[rng.integers(3)] for _ in atoms]
            blocks = {
                lang: frozenset(z for z, owner in zip(atoms, assignment) if owner == lang)
                for lang in langs
            }
            all_sentences = [
                x for (s, d) in inst.pairs() for x in inst.source_marginal(s, d).support
            ]
            mapping = {x: atoms[rng.integers(3)] for x in all_sentences}
            rep = PartitionedRepresentation(atoms, blocks, DeterministicTranslator(mapping))
            epsilon = float(rng.choice([0.0, 0.3, 1.0]))

            # literal re-evaluation of the partitioned definition
            expected = True
            pushed_by_target = {}
            for (src, dst) in inst.pairs():
                pushed = pushforward(inst.source_marginal(src, dst), rep.encoder)
                if sum(w for z, w in pushed.items() if z not in blocks[dst]) > WEIGHT_TOL:
                    expected = False
                pushed_by_target.setdefault(dst, []).append(pushed)
            for group in pushed_by_target.values():
                for p, q in itertools.combinations(group, 2):
                    if tv_distance(p, q) > epsilon + WEIGHT_TOL:
                        expected = False

            assert check_epsilon_universal_partitioned(rep, inst, epsilon) == expected

    def test_blocks_must_partition(self):
        with pytest.raises(ValueError):
            PartitionedRepresentation(
                ("z0", "z1"),
                {"A": frozenset({"z0"}), "B": frozenset({"z0", "z1"})},
                DeterministicTranslator({}),
            )


class TestTwoToOneBound:
    def test_identical_target_marginals(self):
        a, b, d0, _ = two_source_marginals()
        y = Sentence("L", "y0")
        inst = TwoToOneInstance(
            ("L0", "L1"),
            "L",
            (d0, FiniteDistribution(b, np.array([0.9, 0.1]))),
            (
                DeterministicTranslator({a[0]: y, a[1]: y}),
                DeterministicTranslator({b[0]: y, b[1]: y}),
            ),
        )
        assert two_to_one_bound(inst, 0.0) == pytest.approx(0.0, abs=TOL)

    def test_worst_case_marginals(self):
        inst = make_worst_case(0.8)
        assert two_to_one_bound(inst, 0.0) == pytest.approx(0.8, abs=TOL)

    def test_clipped_when_epsilon_dominates(self):
        inst = make_worst_case(0.3)
        assert two_to_one_bound(inst, 0.5) == 0.0


class TestManyToManyBounds:
    def _two_source_instance(self, tv_target: float):
        # one shared target with two sources whose target marginals differ by tv_target
        langs = ("A", "B", "T")
        hi, lo = (1 + tv_target) / 2, (1 - tv_target) / 2
        xa = (Sentence("A", "x0", "T"), Sentence("A", "x1", "T"))
        xb = (Sentence("B", "x0", "T"), Sentence("B", "x1", "T"))
        y = (Sentence("T", "y0"), Sentence("T", "y1"))
        marginals = {
            ("A", "T"): FiniteDistribution(xa, np.array([hi, lo])),
            ("B", "T"): FiniteDistribution(xb, np.array([lo, hi])),
        }
        translators = {
            ("A", "T"): DeterministicTranslator({xa[0]: y[0], xa[1]: y[1]}),
            ("B", "T"): DeterministicTranslator({xb[0]: y[0], xb[1]: y[1]}),
        }
        return ManyToManyInstance.from_marginals(
            langs, marginals, translators, {"T": y, "A": (), "B": ()}
        )

    def test_equal_marginals_give_zero(self):
        inst = self._two_source_instance(0.0)
        assert many_to_many_bounds(inst, 0.0) == (0.0, 0.0)

    def test_max_bound_is_half_the_tv(self):
        inst = self._two_source_instance(0.8)
        max_bound, avg_bound = many_to_many_bounds(inst, 0.0)
        assert max_bound == pytest.approx(0.4, abs=TOL)
        # one TV term, K = 3: 0.8 / (9 * 2)
        assert avg_bound == pytest.approx(0.8 / 18, abs=TOL)

    def test_large_epsilon_clips_to_zero(self):
        inst = self._two_source_instance(0.8)
        assert many_to_many_bounds(inst, 2.0) == (0.0, 0.0)

    def test_rejects_single_language(self):
        inst = self._two_source_instance(0.5)
        object.__setattr__(inst, "languages", ("A",))
        with pytest.raises(ValueError):
            many_to_many_bounds(inst, 0.0)


class TestMakeWorstCase:
    @pytest.mark.parametrize("delta", [0.0, 0.25, 0.8, 1.0])
    def test_target_marginal_gap_is_delta(self, delta):
        inst = make_worst_case(delta)
        tv = tv_distance(inst.target_marginal(0), inst.target_marginal(1))
        assert tv == pytest.approx(delta, abs=TOL)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            make_worst_case(1.5)
        with pytest.raises(ValueError):
            make_worst_case(-0.1)


class TestPerfectTranslator:
    def test_zero_error_on_every_marginal(self):
        rng = np.random.default_rng(3)
        inst = random_many_to_many_instance(rng)
        for (src, dst) in inst.pairs():
            f = perfect_universal_translator(inst, dst)
            marginal = inst.source_marginal(src, dst)
            assert zero_one_error(marginal, f, inst.translators[(src, dst)]) == 0.0

    def test_two_to_one_dispatch(self):
        inst = make_worst_case(0.5)
        f = perfect_universal_translator(inst, "L")
        for i in range(2):
            assert zero_one_error(inst.marginals[i], f, inst.translators[i]) == 0.0

    def test_unknown_sentence_is_a_domain_error(self):
        inst = make_worst_case(0.5)
        f = perfect_universal_translator(inst, "L")
        with pytest.raises(DomainError):
            f(Sentence("L9", "nope"))

    def test_unknown_target_is_a_domain_error(self):
        inst = make_worst_case(0.5)
        with pytest.raises(DomainError):
            perfect_universal_translator(inst, "L9")


def literal_two_to_one_minimum(inst, z_size, epsilon):
    """Fully nested-loop reference search, no shortcuts.

    Returns the minimum and the number of epsilon-universal encoder tables.
    """
    atoms = inst.marginals[0].support + inst.marginals[1].support
    zs = [f"z{i}" for i in range(z_size)]
    best = None
    n_feasible = 0
    for g_table in itertools.product(zs, repeat=len(atoms)):
        g = DeterministicTranslator(dict(zip(atoms, g_table)))
        tv = tv_distance(pushforward(inst.marginals[0], g), pushforward(inst.marginals[1], g))
        if tv > epsilon + WEIGHT_TOL:
            continue
        n_feasible += 1
        for h_table in itertools.product(inst.target_sentences, repeat=z_size):
            h = DeterministicTranslator(dict(zip(zs, h_table)))
            composed = h.after(g)
            value = zero_one_error(
                inst.marginals[0], composed, inst.translators[0]
            ) + zero_one_error(inst.marginals[1], composed, inst.translators[1])
            if best is None or value < best:
                best = value
    return best, n_feasible


def literal_many_to_many_minimum(inst, z_size, epsilon, objective):
    """Nested-loop reference search over block partitions, encoders and decoders.

    Returns the minimum (None if infeasible) and the number of feasible
    (partition, encoder) pairs.
    """
    zs = [f"z{i}" for i in range(z_size)]
    langs = sorted(inst.languages)
    atoms = [x for (s, d) in inst.pairs() for x in inst.source_marginal(s, d).support]
    codomain = [y for lang in langs for y in inst.sentence_pool.get(lang, ())]
    best = None
    n_feasible = 0
    for assignment in itertools.product(langs, repeat=z_size):
        blocks = {
            lang: frozenset(z for z, owner in zip(zs, assignment) if owner == lang)
            for lang in langs
        }
        for g_table in itertools.product(zs, repeat=len(atoms)):
            g = DeterministicTranslator(dict(zip(atoms, g_table)))
            rep = PartitionedRepresentation(tuple(zs), blocks, g)
            if not check_epsilon_universal_partitioned(rep, inst, epsilon):
                continue
            n_feasible += 1
            for h_table in itertools.product(codomain, repeat=z_size):
                h = DeterministicTranslator(dict(zip(zs, h_table)))
                composed = h.after(g)
                errors = [
                    zero_one_error(
                        inst.source_marginal(s, d), composed, inst.translators[(s, d)]
                    )
                    for (s, d) in inst.pairs()
                ]
                if objective == "sum":
                    value = sum(errors)
                elif objective == "max":
                    value = max(errors)
                else:
                    value = sum(errors) / inst.K**2
                if best is None or value < best:
                    best = value
    return best, n_feasible


class TestBruteForce:
    def test_aligned_instance_achieves_zero(self):
        # identical marginals with atom-by-atom matched images: a z per atom
        # index and the right decoder reaches zero error
        a = (Sentence("L0", "a0"), Sentence("L0", "a1"))
        b = (Sentence("L1", "b0"), Sentence("L1", "b1"))
        y = (Sentence("L", "y0"), Sentence("L", "y1"))
        inst = TwoToOneInstance(
            ("L0", "L1"),
            "L",
            (
                FiniteDistribution(a, np.array([0.6, 0.4])),
                FiniteDistribution(b, np.array([0.6, 0.4])),
            ),
            (
                DeterministicTranslator({a[0]: y[0], a[1]: y[1]}),
                DeterministicTranslator({b[0]: y[0], b[1]: y[1]}),
            ),
        )
        result = brute_force_min_error(inst, 2, 0.0, "sum")
        assert result.feasible
        assert result.value == pytest.approx(0.0, abs=TOL)

    def test_worst_case_value_dominates_bound(self):
        inst = make_worst_case(0.8)
        result = brute_force_min_error(inst, 2, 0.0, "sum")
        assert result.value >= 0.8 - 1e-9

    def test_matches_literal_search(self):
        rng = np.random.default_rng(42)
        for _ in range(8):
            inst = random_two_to_one_instance(rng, max_sentences=2, max_targets=2)
            for epsilon in (0.0, 0.25):
                expected, n_feasible = literal_two_to_one_minimum(inst, 2, epsilon)
                result = brute_force_min_error(inst, 2, epsilon, "sum")
                assert result.feasible
                assert result.value == pytest.approx(expected, abs=TOL)
                assert result.n_feasible == n_feasible

    def test_many_to_many_matches_literal_search(self):
        rng = np.random.default_rng(99)
        for _ in range(3):
            inst = random_many_to_many_instance(rng, n_languages=2, atom_budget=4)
            for epsilon in (0.0, 0.5):
                for objective in ("max", "avg", "sum"):
                    expected, n_feasible = literal_many_to_many_minimum(
                        inst, 2, epsilon, objective
                    )
                    result = brute_force_min_error(inst, 2, epsilon, objective)
                    assert result.feasible == (expected is not None)
                    if expected is not None:
                        assert result.value == pytest.approx(expected, abs=TOL)
                    assert result.n_feasible == n_feasible

    def test_value_non_increasing_in_epsilon(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            inst = random_two_to_one_instance(rng)
            values = [
                brute_force_min_error(inst, 2, eps, "sum").value
                for eps in (0.0, 0.1, 0.3)
            ]
            assert values[0] >= values[1] - TOL >= values[2] - 2 * TOL

    def test_reported_minimizer_attains_value(self):
        inst = make_worst_case(0.6)
        result = brute_force_min_error(inst, 2, 0.0, "sum")
        composed = result.decoder.after(result.encoder)
        attained = zero_one_error(
            inst.marginals[0], composed, inst.translators[0]
        ) + zero_one_error(inst.marginals[1], composed, inst.translators[1])
        assert attained == pytest.approx(result.value, abs=TOL)

    def test_two_to_one_result_has_the_single_target_block(self):
        result = brute_force_min_error(make_worst_case(0.6), 3, 0.0, "sum")
        assert result.feasible
        assert result.blocks == (("L", ("z0", "z1", "z2")),)

    def test_too_small_representation_is_infeasible(self):
        # three targets cannot share two representation atoms
        rng = np.random.default_rng(1)
        inst = random_many_to_many_instance(rng, n_languages=3)
        result = brute_force_min_error(inst, 2, 0.0, "max")
        assert not result.feasible
        assert math.isinf(result.value)

    def test_budget_errors(self):
        inst = make_worst_case(0.5)
        with pytest.raises(BudgetError):
            brute_force_min_error(inst, 5, 0.0, "sum")
        # nine sentences exceed the eight-sentence enumeration budget
        a = tuple(Sentence("L0", f"a{i}") for i in range(5))
        b = tuple(Sentence("L1", f"b{i}") for i in range(4))
        y = (Sentence("L", "y0"),)
        inst9 = TwoToOneInstance(
            ("L0", "L1"),
            "L",
            (
                FiniteDistribution(a, np.full(5, 0.2)),
                FiniteDistribution(b, np.full(4, 0.25)),
            ),
            (
                DeterministicTranslator({s: y[0] for s in a}),
                DeterministicTranslator({s: y[0] for s in b}),
            ),
        )
        with pytest.raises(BudgetError):
            brute_force_min_error(inst9, 2, 0.0, "sum")

    def test_two_to_one_rejects_other_objectives(self):
        inst = make_worst_case(0.5)
        with pytest.raises(ValueError):
            brute_force_min_error(inst, 2, 0.0, "max")


class TestDecodedTvStaysWithinEpsilon:
    def test_decoded_tv_stays_within_epsilon(self):
        # every epsilon-universal encoder, composed with any decoder, keeps
        # the decoded marginals within epsilon in TV
        rng = np.random.default_rng(8)
        inst = random_two_to_one_instance(rng, max_sentences=2, max_targets=2)
        atoms = inst.marginals[0].support + inst.marginals[1].support
        epsilon = 0.3
        zs = ("z0", "z1")
        for g_table in itertools.product(zs, repeat=len(atoms)):
            g = DeterministicTranslator(dict(zip(atoms, g_table)))
            if not check_epsilon_universal(g, list(inst.marginals), epsilon):
                continue
            for h_table in itertools.product(inst.target_sentences, repeat=2):
                h = DeterministicTranslator(dict(zip(zs, h_table)))
                composed = h.after(g)
                tv = tv_distance(
                    pushforward(inst.marginals[0], composed),
                    pushforward(inst.marginals[1], composed),
                )
                assert tv <= epsilon + WEIGHT_TOL


class TestBoundReport:
    def test_two_to_one_report_fields(self):
        inst = make_worst_case(0.8)
        brute = brute_force_min_error(inst, 2, 0.0, "sum")
        report = bound_report(inst, 0.0, "worst08", brute)
        assert report.kind == "two_to_one"
        assert report.tv_max == pytest.approx(0.8, abs=TOL)
        assert report.bound_sum == pytest.approx(0.8, abs=TOL)
        assert report.bound_max is None
        assert report.holds is True

    def test_many_to_many_report(self):
        rng = np.random.default_rng(4)
        inst = random_many_to_many_instance(rng)
        report = bound_report(inst, 0.1, "mm")
        assert report.kind == "many_to_many"
        assert report.bound_sum is None
        assert report.bound_max is not None and report.bound_avg is not None
