"""Tests for the lower bounds, universality checks, and the exhaustive search."""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from helpers import (
    PartitionedRepresentation,
    after,
    check_epsilon_universal,
    check_epsilon_universal_partitioned,
    constant_translator,
    perfect_universal_translator,
    pushforward,
    random_distribution,
    random_translator,
    target_marginal,
    tv_distance,
    zero_one_error,
)

from translab import cli, impossibility, io
from translab.distributions import (
    WEIGHT_TOL,
    DeterministicTranslator,
    FiniteDistribution,
    Sentence,
)
from translab.errors import BudgetError, DomainError
from translab.impossibility import (
    BruteForceResult,
    ManyToManyInstance,
    bound_report,
    brute_force_min_error,
    make_worst_case,
    random_many_to_many_instance,
    random_two_to_one_instance,
    target_marginal_tvs,
    _orbit_members,
    _orbit_sizes,
    _restricted_growth_tables,
    _two_sources_into_l,
)

TOL = 1e-12


def _encoder_tables(z_size: int, n_atoms: int) -> np.ndarray:
    """All encoder tables as an array in lexicographic row order."""
    grids = np.meshgrid(*([np.arange(z_size)] * n_atoms), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


def two_source_marginals():
    a = (Sentence("L0", "a0"), Sentence("L0", "a1"))
    b = (Sentence("L1", "b0"), Sentence("L1", "b1"))
    d0 = FiniteDistribution(a, np.array([0.9, 0.1]))
    d1 = FiniteDistribution(b, np.array([0.1, 0.9]))
    return a, b, d0, d1


class TestEpsilonUniversal:
    def test_constant_encoder_is_universal_at_zero(self):
        _a, _b, d0, d1 = two_source_marginals()
        g = constant_translator(d0.support + d1.support, "z0")
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
        g = constant_translator(d0.support, "z0")
        with pytest.raises(ValueError):
            check_epsilon_universal(g, [d0], 0.0)

    def test_rejects_negative_epsilon(self):
        _a, _b, d0, d1 = two_source_marginals()
        g = constant_translator(d0.support + d1.support, "z0")
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
        for (src, dst) in inst.tasks.pairs:
            for x in inst.marginals[(src, dst)].support:
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
        for (src, dst) in inst.tasks.pairs:
            for x in inst.marginals[(src, dst)].support:
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
                x for (s, d) in inst.tasks.pairs for x in inst.marginals[(s, d)].support
            ]
            mapping = {x: atoms[rng.integers(3)] for x in all_sentences}
            rep = PartitionedRepresentation(atoms, blocks, DeterministicTranslator(mapping))
            epsilon = float(rng.choice([0.0, 0.3, 1.0]))

            # literal re-evaluation of the partitioned definition
            expected = True
            pushed_by_target = {}
            for (src, dst) in inst.tasks.pairs:
                pushed = pushforward(inst.marginals[(src, dst)], rep.encoder)
                weights = zip(pushed.support, pushed.weights)
                leak = sum(w for z, w in weights if z not in blocks[dst])
                if leak > WEIGHT_TOL:
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


def two_source_parts(inst):
    """Source marginals and translators of the pairs L0->L and L1->L."""
    marginals = [inst.marginals[(src, "L")] for src in ("L0", "L1")]
    translators = [inst.translators[(src, "L")] for src in ("L0", "L1")]
    return marginals, translators


class TestTwoToOneBound:
    def test_identical_target_marginals(self):
        inst = _two_sources_into_l((0.9, 0.1), (0.9, 0.1), (0, 0), (0, 0), 1)
        assert bound_report(inst, 0.0).bound_sum == pytest.approx(0.0, abs=TOL)

    def test_worst_case_marginals(self):
        inst = make_worst_case(0.8)
        assert bound_report(inst, 0.0).bound_sum == pytest.approx(0.8, abs=TOL)

    def test_clipped_when_epsilon_dominates(self):
        inst = make_worst_case(0.3)
        assert bound_report(inst, 0.5).bound_sum == 0.0


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
        return ManyToManyInstance(
            langs, marginals, translators, {"T": y, "A": (), "B": ()}
        )

    @staticmethod
    def bounds(inst, epsilon):
        report = bound_report(inst, epsilon)
        return report.bound_sum, report.bound_max, report.bound_avg

    def test_equal_marginals_give_zero(self):
        inst = self._two_source_instance(0.0)
        assert self.bounds(inst, 0.0) == (0.0, 0.0, 0.0)

    def test_max_bound_is_half_the_tv(self):
        inst = self._two_source_instance(0.8)
        sum_bound, max_bound, avg_bound = self.bounds(inst, 0.0)
        assert sum_bound == pytest.approx(0.8, abs=TOL)
        assert max_bound == pytest.approx(0.4, abs=TOL)
        # one TV term, K = 3: 0.8 / (9 * 2)
        assert avg_bound == pytest.approx(0.8 / 18, abs=TOL)

    def test_large_epsilon_clips_to_zero(self):
        inst = self._two_source_instance(0.8)
        assert self.bounds(inst, 2.0) == (0.0, 0.0, 0.0)

    def test_rejects_single_language(self):
        inst = self._two_source_instance(0.5)
        object.__setattr__(inst, "languages", ("A",))
        with pytest.raises(ValueError):
            bound_report(inst, 0.0)

    def test_sum_bound_is_attained_on_a_random_instance(self):
        # Checked where it could fail: brute force attains the sum bound, so a
        # bound larger by a factor of 1 + 1e-6 would be violated.
        rng = np.random.default_rng(0)
        for _ in range(20):
            inst = random_many_to_many_instance(rng, n_languages=3, atom_budget=7)
            result = brute_force_min_error(inst, 3, 0.0, "sum")
            bound = bound_report(inst, 0.0, brute=result).bound_sum
            if result.feasible and 0 < bound < 1 and abs(result.value - bound) <= 1e-9:
                break
        else:
            pytest.fail("no random instance attains the sum bound")
        assert result.value < bound * (1 + 1e-6)


class TestMakeWorstCase:
    @pytest.mark.parametrize("delta", [0.0, 0.25, 0.8, 1.0])
    def test_target_marginal_gap_is_delta(self, delta):
        inst = make_worst_case(delta)
        tv = tv_distance(target_marginal(inst, "L0", "L"), target_marginal(inst, "L1", "L"))
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
        for (src, dst) in inst.tasks.pairs:
            f = perfect_universal_translator(inst, dst)
            marginal = inst.marginals[(src, dst)]
            assert zero_one_error(marginal, f, inst.translators[(src, dst)]) == 0.0

    def test_two_to_one_dispatch(self):
        inst = make_worst_case(0.5)
        f = perfect_universal_translator(inst, "L")
        for marginal, truth in zip(*two_source_parts(inst)):
            assert zero_one_error(marginal, f, truth) == 0.0

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
    """Fully nested-loop reference search, no shortcuts and no block partitions.

    Returns the minimum of Err0 + Err1 over encoders whose two pushforwards
    are within epsilon in TV.
    """
    (m0, m1), (f0, f1) = two_source_parts(inst)
    atoms = m0.support + m1.support
    zs = [f"z{i}" for i in range(z_size)]
    best = None
    for g_table in itertools.product(zs, repeat=len(atoms)):
        g = DeterministicTranslator(dict(zip(atoms, g_table)))
        if tv_distance(pushforward(m0, g), pushforward(m1, g)) > epsilon + WEIGHT_TOL:
            continue
        for h_table in itertools.product(inst.sentence_pool["L"], repeat=z_size):
            h = DeterministicTranslator(dict(zip(zs, h_table)))
            composed = after(h, g)
            value = zero_one_error(m0, composed, f0) + zero_one_error(m1, composed, f1)
            if best is None or value < best:
                best = value
    return best


def literal_many_to_many_minimum(inst, z_size, epsilon, objective):
    """Nested-loop reference search over block partitions, encoders and decoders.

    Returns the minimum (None if infeasible) and the number of feasible
    (partition, encoder) pairs.
    """
    zs = [f"z{i}" for i in range(z_size)]
    langs = sorted(inst.languages)
    atoms = [x for (s, d) in inst.tasks.pairs for x in inst.marginals[(s, d)].support]
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
                composed = after(h, g)
                errors = [
                    zero_one_error(
                        inst.marginals[(s, d)], composed, inst.translators[(s, d)]
                    )
                    for (s, d) in inst.tasks.pairs
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


def reference_partition_search(tasks, block_names, codomain, coeff, z_size, epsilon, objective):
    """The per-partition search that ``_search`` replaced, kept as a test oracle.

    It visits every block partition in product order and, for each, every
    encoder table, keeping the first minimizer; ``n_feasible`` counts
    feasible (partition, encoder) pairs.
    """
    atoms, atom_task, atom_weight, truth_atoms = [], [], [], []
    task_target = np.array([block for (_m, _f, block) in tasks])
    for t, (marginal, f, _block) in enumerate(tasks):
        for x, wx in zip(marginal.support, marginal.weights):
            atoms.append(x)
            atom_task.append(t)
            atom_weight.append(float(wx))
            truth_atoms.append(f(x))
    n_atoms = len(atoms)

    y_index = {y: i for i, y in enumerate(codomain)}
    n_y = len(codomain)
    truth = np.array([y_index[y] for y in truth_atoms])
    w = np.array(atom_weight)
    atom_task_arr = np.array(atom_task)
    n_tasks = len(tasks)

    tables = _encoder_tables(z_size, n_atoms)
    onehot = (tables[:, :, None] == np.arange(z_size)).astype(np.float64)
    push = np.stack(
        [
            np.einsum("gsz,s->gz", onehot, w * (atom_task_arr == t))
            for t in range(n_tasks)
        ]
    )  # (task, n_g, z)

    # TV feasibility does not depend on the block partition.
    tv_ok = np.ones(len(tables), dtype=bool)
    for k in set(task_target.tolist()):
        task_ids = [t for t in range(n_tasks) if task_target[t] == k]
        for ta, tb in itertools.combinations(task_ids, 2):
            tv = 0.5 * np.abs(push[ta] - push[tb]).sum(axis=1)
            tv_ok &= tv <= epsilon + WEIGHT_TOL

    if objective in ("sum", "avg"):
        match_weights = np.zeros((n_atoms, n_y))
        match_weights[np.arange(n_atoms), truth] = coeff * w
        matched = np.einsum("gsz,sy->gzy", onehot, match_weights)
        sep_values = coeff * w.sum() - matched.max(axis=2).sum(axis=1)

    decoder_tables = None
    if objective == "max":
        if n_y**z_size > 65536:
            raise BudgetError(
                f"{n_y}^{z_size} decoder tables exceed the enumeration budget"
            )
        decoder_tables = _encoder_tables(n_y, z_size)  # all h: Z -> codomain

    z_names = tuple(f"z{i}" for i in range(z_size))
    best = None
    n_feasible_total = 0
    for partition in itertools.product(range(len(block_names)), repeat=z_size):
        part = np.array(partition)
        in_block = part[None, :] == task_target[:, None]  # (task, z)
        leak = np.zeros(len(tables))
        for t in range(n_tasks):
            outside = ~in_block[t]
            if outside.any():
                leak = np.maximum(leak, push[t][:, outside].sum(axis=1))
        feasible = tv_ok & (leak <= WEIGHT_TOL)
        n_here = int(feasible.sum())
        if n_here == 0:
            continue
        n_feasible_total += n_here
        feasible_idx = np.flatnonzero(feasible)

        if objective in ("sum", "avg"):
            pos = int(np.argmin(sep_values[feasible_idx]))
            g = int(feasible_idx[pos])
            value = float(sep_values[g])
            if best is None or value < best[0]:
                h_table = matched[g].argmax(axis=1)
                best = (value, g, h_table, partition)
        else:
            for g in feasible_idx:
                cost = np.zeros((n_tasks, z_size, n_y))
                g_row = tables[g]
                for s in range(n_atoms):
                    t = atom_task[s]
                    cost[t, g_row[s], :] += w[s]
                    cost[t, g_row[s], truth[s]] -= w[s]
                errs = cost[:, np.arange(z_size)[None, :], decoder_tables].sum(axis=2)
                obj = errs.max(axis=0)  # (n_h,)
                h_pos = int(np.argmin(obj))
                value = float(obj[h_pos])
                if best is None or value < best[0]:
                    best = (value, int(g), decoder_tables[h_pos], partition)

    if best is None:
        return BruteForceResult(
            objective, epsilon, z_size, False, math.inf, None, None, None,
            len(tables), 0,
        )
    value, g, h_table, partition = best
    encoder = DeterministicTranslator(
        {atoms[i]: z_names[tables[g, i]] for i in range(n_atoms)}
    )
    decoder = DeterministicTranslator(
        {z_names[z]: codomain[int(h_table[z])] for z in range(z_size)}
    )
    blocks = tuple(
        (lang, tuple(z_names[z] for z in range(z_size) if partition[z] == i))
        for i, lang in enumerate(block_names)
    )
    return BruteForceResult(
        objective, epsilon, z_size, True, value, encoder, decoder, blocks,
        len(tables), n_feasible_total,
    )


def reference_table_search(tasks, block_names, codomain, coeff, z_size, epsilon, objective):
    """The full-table partition-free search that the orbit search replaced, kept as a test oracle.

    It scores every one of the z_size**n_atoms encoder tables rather than one
    table per orbit under relabelling of z. Tasks whose light atoms weigh more
    than ``WEIGHT_TOL`` together are not rejected here.
    """
    atoms, atom_task, atom_weight, truth_atoms = [], [], [], []
    task_target = np.array([block for (_m, _f, block) in tasks])
    for t, (marginal, f, _block) in enumerate(tasks):
        for x, wx in zip(marginal.support, marginal.weights):
            atoms.append(x)
            atom_task.append(t)
            atom_weight.append(float(wx))
            truth_atoms.append(f(x))
    n_atoms = len(atoms)

    y_index = {y: i for i, y in enumerate(codomain)}
    n_y = len(codomain)
    truth = np.array([y_index[y] for y in truth_atoms])
    w = np.array(atom_weight)
    atom_task_arr = np.array(atom_task)
    n_tasks = len(tasks)
    n_blocks = len(block_names)

    tables = _encoder_tables(z_size, n_atoms)
    hits = tables[:, :, None] == np.arange(z_size)  # (n_g, atom, z)
    onehot = hits.astype(np.float64)
    push = np.stack(
        [
            np.einsum("gsz,s->gz", onehot, w * (atom_task_arr == t))
            for t in range(n_tasks)
        ]
    )  # (task, n_g, z)

    tv_ok = np.ones(len(tables), dtype=bool)
    for k in set(task_target.tolist()):
        task_ids = [t for t in range(n_tasks) if task_target[t] == k]
        for ta, tb in itertools.combinations(task_ids, 2):
            tv = 0.5 * np.abs(push[ta] - push[tb]).sum(axis=1)
            tv_ok &= tv <= epsilon + WEIGHT_TOL

    if objective == "max" and n_y**z_size > 65536:
        raise BudgetError(f"{n_y}^{z_size} decoder tables exceed the enumeration budget")

    heavy = w > WEIGHT_TOL
    atom_block = task_target[atom_task_arr]
    pinned = np.stack(
        [hits[:, heavy & (atom_block == k), :].any(axis=1) for k in range(n_blocks)]
    )  # (block, n_g, z)
    n_pins = pinned.sum(axis=0)
    feasible_idx = np.flatnonzero(tv_ok & (n_pins <= 1).all(axis=1))
    if len(feasible_idx) == 0:
        return BruteForceResult(
            objective, epsilon, z_size, False, math.inf, None, None, None,
            len(tables), 0,
        )
    n_free = (n_pins[feasible_idx] == 0).sum(axis=1)
    n_feasible = int((n_blocks**n_free).sum())
    first_partition = pinned[:, feasible_idx, :].argmax(axis=0)  # (n_feasible, z)

    if objective in ("sum", "avg"):
        match_weights = np.zeros((n_atoms, n_y))
        match_weights[np.arange(n_atoms), truth] = coeff * w
        matched = np.einsum("gsz,sy->gzy", onehot[feasible_idx], match_weights)
        values = coeff * w.sum() - matched.max(axis=2).sum(axis=1)
        h_tables = matched.argmax(axis=2)
    else:
        decoder_tables = _encoder_tables(n_y, z_size)  # all h: Z -> codomain
        values = np.empty(len(feasible_idx))
        h_tables = np.empty((len(feasible_idx), z_size), dtype=int)
        for i, g in enumerate(feasible_idx):
            cost = np.zeros((n_tasks, z_size, n_y))
            g_row = tables[g]
            for s in range(n_atoms):
                t = atom_task[s]
                cost[t, g_row[s], :] += w[s]
                cost[t, g_row[s], truth[s]] -= w[s]
            errs = cost[:, np.arange(z_size)[None, :], decoder_tables].sum(axis=2)
            obj = errs.max(axis=0)  # (n_h,)
            h_pos = int(np.argmin(obj))
            values[i] = obj[h_pos]
            h_tables[i] = decoder_tables[h_pos]

    minimizers = np.flatnonzero(values == values.min())
    candidates = first_partition[minimizers]
    partition = candidates[np.argmin(candidates @ n_blocks ** np.arange(z_size - 1, -1, -1))]
    free = n_pins[feasible_idx[minimizers]] == 0
    i = int(minimizers[np.argmax(((candidates == partition) | free).all(axis=1))])
    g = int(feasible_idx[i])

    z_names = tuple(f"z{z}" for z in range(z_size))
    encoder = DeterministicTranslator(
        {atoms[s]: z_names[tables[g, s]] for s in range(n_atoms)}
    )
    decoder = DeterministicTranslator(
        {z_names[z]: codomain[int(h_tables[i, z])] for z in range(z_size)}
    )
    blocks = tuple(
        (lang, tuple(z_names[z] for z in range(z_size) if partition[z] == k))
        for k, lang in enumerate(block_names)
    )
    return BruteForceResult(
        objective, epsilon, z_size, True, float(values[i]), encoder, decoder,
        blocks, len(tables), n_feasible,
    )


def on_task_tuples(reference):
    """A ``_search`` stand-in that calls ``reference`` on task tuples rebuilt from the arrays.

    Each task is the (source marginal, ground-truth translator, target block)
    triple the reference searches take, with the block names and codomain.
    """

    def search(tasks, coeff, z_size, epsilon, objective):
        triples = []
        for t in range(len(tasks.pairs)):
            mine = np.flatnonzero(tasks.atom_task == t)
            atoms = [tasks.atoms[s] for s in mine]
            truth = {tasks.atoms[s]: tasks.codomain[tasks.truth[s]] for s in mine}
            triples.append((
                FiniteDistribution(atoms, tasks.weight[mine]),
                DeterministicTranslator(truth),
                int(tasks.task_block[t]),
            ))
        return reference(
            triples, tasks.block_names, tasks.codomain, coeff, z_size, epsilon, objective
        )

    return search


def reference_brute_force(inst, z_size, epsilon, objective):
    """``brute_force_min_error`` with the per-partition search as its core."""
    with mock.patch.object(impossibility, "_search", on_task_tuples(reference_partition_search)):
        return brute_force_min_error(inst, z_size, epsilon, objective)


def reference_table_brute_force(inst, z_size, epsilon, objective):
    """``brute_force_min_error`` with the full-table search as its core."""
    with mock.patch.object(impossibility, "_search", on_task_tuples(reference_table_search)):
        return brute_force_min_error(inst, z_size, epsilon, objective)


def result_fields(result):
    return (
        result.objective,
        result.epsilon,
        result.z_size,
        result.feasible,
        result.value.hex(),
        None if result.encoder is None else result.encoder.mapping,
        None if result.decoder is None else result.decoder.mapping,
        result.blocks,
        result.n_encoders,
        result.n_feasible,
    )


def reweighted(inst, weights_for):
    """The same many-to-many instance with each pair's weights set by ``weights_for(n)``."""
    marginals = {
        pair: FiniteDistribution(
            inst.marginals[pair].support, weights_for(len(inst.joints[pair]))
        )
        for pair in inst.tasks.pairs
    }
    return ManyToManyInstance(
        inst.languages, marginals, inst.translators, inst.sentence_pool
    )


def uniform(n):
    return np.full(n, 1.0 / n)


def first_atom_only(n):
    return np.eye(n)[0]


SEARCH_GRID = [
    (2, 1, 8), (2, 2, 8), (2, 3, 8), (2, 4, 6), (3, 1, 6), (3, 2, 7), (3, 3, 7), (3, 4, 6)
]


class TestPartitionFreeSearch:
    """Every result field agrees with the per-partition reference search."""

    @pytest.mark.parametrize("n_languages, z_size, atom_budget", SEARCH_GRID)
    def test_many_to_many_matches_reference(self, n_languages, z_size, atom_budget):
        rng = np.random.default_rng(100 + 10 * n_languages + z_size)
        n_feasible = 0
        for _ in range(3):
            inst = random_many_to_many_instance(
                rng, n_languages=n_languages, atom_budget=atom_budget
            )
            for epsilon in (0.0, 0.2):
                for objective in ("sum", "avg", "max"):
                    expected = reference_brute_force(inst, z_size, epsilon, objective)
                    result = brute_force_min_error(inst, z_size, epsilon, objective)
                    assert result_fields(result) == result_fields(expected)
                    n_feasible += result.feasible
        if z_size >= n_languages:
            assert n_feasible > 0

    def test_two_to_one_matches_reference(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            inst = random_two_to_one_instance(rng, max_sentences=3)
            for z_size in (1, 2, 3):
                for epsilon in (0.0, 0.1, 0.3):
                    expected = reference_brute_force(inst, z_size, epsilon, "sum")
                    result = brute_force_min_error(inst, z_size, epsilon, "sum")
                    assert result_fields(result) == result_fields(expected)

    @pytest.mark.parametrize("z_size", [1, 2, 3, 4])
    def test_zero_weight_atoms_match_reference(self, z_size):
        inst = make_worst_case(1.0)
        for epsilon in (0.0, 0.5):
            expected = reference_brute_force(inst, z_size, epsilon, "sum")
            result = brute_force_min_error(inst, z_size, epsilon, "sum")
            assert result_fields(result) == result_fields(expected)

    def test_many_to_many_zero_weight_atoms_match_reference(self):
        rng = np.random.default_rng(9)
        for n_languages, budget in ((2, 8), (3, 8)):
            inst = reweighted(
                random_many_to_many_instance(rng, n_languages=n_languages, atom_budget=budget),
                first_atom_only,
            )
            for z_size in (2, 3):
                for objective in ("sum", "max"):
                    expected = reference_brute_force(inst, z_size, 0.0, objective)
                    result = brute_force_min_error(inst, z_size, 0.0, objective)
                    assert result_fields(result) == result_fields(expected)

    def test_uniform_weights_with_ties_match_reference(self):
        rng = np.random.default_rng(5)
        for n_languages, budget in ((2, 4), (3, 6)):
            inst = reweighted(
                random_many_to_many_instance(rng, n_languages=n_languages, atom_budget=budget),
                uniform,
            )
            for objective in ("sum", "avg", "max"):
                for epsilon in (0.0, 0.2):
                    expected = reference_brute_force(inst, 3, epsilon, objective)
                    result = brute_force_min_error(inst, 3, epsilon, objective)
                    assert result_fields(result) == result_fields(expected)

    def light_atom_instance(self):
        # L0's two light sentences weigh 1.6e-12 together, above WEIGHT_TOL
        return _two_sources_into_l(
            (1.0 - 1.6e-12, 0.8e-12, 0.8e-12), (1.0,), (0, 0, 0), (0,), 1
        )

    def test_light_atoms_above_tolerance_are_a_domain_error(self):
        with pytest.raises(DomainError, match="L0->L"):
            brute_force_min_error(self.light_atom_instance(), 2, 0.0, "sum")

    def test_brute_exits_2_on_light_atoms_above_tolerance(self, tmp_path, capsys):
        path = tmp_path / "light.json"
        io.save_instance(self.light_atom_instance(), path)
        code = cli.main(["brute", "--instance", str(path), "--z-size", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "L0->L" in err


def stirling2(n, k):
    """Ways to split n labelled items into k nonempty unlabelled blocks."""
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


class TestRestrictedGrowthTables:
    @pytest.mark.parametrize("z_size", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_atoms", [1, 2, 5, 8])
    def test_row_count_is_a_sum_of_stirling_numbers(self, n_atoms, z_size):
        rows = _restricted_growth_tables(z_size, n_atoms)
        assert rows.shape == (
            sum(stirling2(n_atoms, k) for k in range(1, z_size + 1)),
            n_atoms,
        )

    def test_eight_atoms_into_four_points_give_2795_rows(self):
        assert len(_restricted_growth_tables(4, 8)) == 2795

    def test_rows_are_built_once_per_argument_pair_and_read_only(self):
        rows = _restricted_growth_tables(3, 6)
        assert _restricted_growth_tables(3, 6) is rows
        assert not rows.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 1

    @pytest.mark.parametrize("z_size", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_atoms", [1, 3, 6, 8])
    def test_orbit_sizes_sum_to_all_tables(self, n_atoms, z_size):
        rows = _restricted_growth_tables(z_size, n_atoms)
        assert int(_orbit_sizes(rows, z_size).sum()) == z_size**n_atoms

    @pytest.mark.parametrize("z_size", [2, 3, 4])
    def test_rows_are_in_lexicographic_order(self, z_size):
        rows = [tuple(r) for r in _restricted_growth_tables(z_size, 7).tolist()]
        assert rows == sorted(set(rows))

    @pytest.mark.parametrize("z_size, n_atoms", [(2, 5), (3, 5), (4, 5), (4, 6)])
    def test_each_row_is_the_smallest_table_of_its_orbit(self, z_size, n_atoms):
        rows = _restricted_growth_tables(z_size, n_atoms)
        seen = set()
        for row in rows:
            orbit = {
                tuple(perm[z] for z in row)
                for perm in itertools.permutations(range(z_size))
            }
            assert min(orbit) == tuple(row)
            assert not orbit & seen
            seen |= orbit
        assert len(seen) == z_size**n_atoms

    @pytest.mark.parametrize("z_size, n_atoms", [(1, 4), (3, 4), (4, 5)])
    def test_orbit_members_of_every_row_are_all_tables_in_order(self, z_size, n_atoms):
        members = _orbit_members(_restricted_growth_tables(z_size, n_atoms), z_size)
        assert np.array_equal(members, _encoder_tables(z_size, n_atoms))


def bench_shaped_instances(rng, count):
    """K=3 instances with exactly the full eight-sentence budget."""
    instances = []
    while len(instances) < count:
        inst = random_many_to_many_instance(rng, n_languages=3, atom_budget=8)
        if sum(len(j) for j in inst.joints.values()) == 8:
            instances.append(inst)
    return instances


class TestOrbitSearch:
    """Every result field agrees with the full-table reference search."""

    @pytest.mark.parametrize("n_languages, z_size, atom_budget", SEARCH_GRID)
    def test_many_to_many_matches_full_table_search(self, n_languages, z_size, atom_budget):
        rng = np.random.default_rng(100 + 10 * n_languages + z_size)
        for _ in range(3):
            inst = random_many_to_many_instance(
                rng, n_languages=n_languages, atom_budget=atom_budget
            )
            for epsilon in (0.0, 0.2):
                for objective in ("sum", "avg", "max"):
                    expected = reference_table_brute_force(inst, z_size, epsilon, objective)
                    result = brute_force_min_error(inst, z_size, epsilon, objective)
                    assert result_fields(result) == result_fields(expected)

    def test_two_to_one_matches_full_table_search(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            inst = random_two_to_one_instance(rng, max_sentences=3)
            for z_size in (1, 2, 3, 4):
                for epsilon in (0.0, 0.1, 0.3):
                    expected = reference_table_brute_force(inst, z_size, epsilon, "sum")
                    result = brute_force_min_error(inst, z_size, epsilon, "sum")
                    assert result_fields(result) == result_fields(expected)

    @pytest.mark.parametrize("z_size", [1, 2, 3, 4])
    def test_worst_case_matches_full_table_search(self, z_size):
        for delta in (0.0, 0.5, 1.0):
            for epsilon in (0.0, 0.3):
                inst = make_worst_case(delta)
                expected = reference_table_brute_force(inst, z_size, epsilon, "sum")
                result = brute_force_min_error(inst, z_size, epsilon, "sum")
                assert result_fields(result) == result_fields(expected)

    def test_uniform_weights_with_ties_match_full_table_search(self):
        rng = np.random.default_rng(5)
        for n_languages, budget in ((2, 6), (3, 6)):
            inst = reweighted(
                random_many_to_many_instance(rng, n_languages=n_languages, atom_budget=budget),
                uniform,
            )
            for z_size in (3, 4):
                for objective in ("sum", "avg", "max"):
                    expected = reference_table_brute_force(inst, z_size, 0.2, objective)
                    result = brute_force_min_error(inst, z_size, 0.2, objective)
                    assert result_fields(result) == result_fields(expected)

    @pytest.mark.parametrize("objective", ["sum", "avg", "max"])
    def test_bench_shape_matches_full_table_search(self, objective):
        # K=3, exactly 8 sentences, |Z|=4: 2,795 orbits instead of 65,536 tables
        for inst in bench_shaped_instances(np.random.default_rng([3, 2008]), 3):
            expected = reference_table_brute_force(inst, 4, 0.1, objective)
            result = brute_force_min_error(inst, 4, 0.1, objective)
            assert result.n_encoders == 4**8
            assert result_fields(result) == result_fields(expected)

    @pytest.mark.parametrize("tables_per_block", [1, 3, 7])
    def test_max_result_does_not_depend_on_the_block_size(self, tables_per_block):
        # Small blocks leave a partial last block, which the default size hides
        # on the bench shape (its 24 or 48 expanded tables fill whole blocks).
        cases = [
            (inst, 4, 0.1)
            for inst in bench_shaped_instances(np.random.default_rng([3, 2008]), 3)
        ]
        for n_languages, z_size, atom_budget in SEARCH_GRID:
            rng = np.random.default_rng(100 + 10 * n_languages + z_size)
            for _ in range(3):
                inst = random_many_to_many_instance(
                    rng, n_languages=n_languages, atom_budget=atom_budget
                )
                cases += [(inst, z_size, epsilon) for epsilon in (0.0, 0.2)]
        for inst, z_size, epsilon in cases:
            expected = brute_force_min_error(inst, z_size, epsilon, "max")
            n_y = sum(len(pool) for pool in inst.sentence_pool.values())
            elements = tables_per_block * len(inst.tasks.pairs) * n_y**z_size
            with mock.patch.object(impossibility, "MAX_BLOCK_ELEMENTS", elements):
                result = brute_force_min_error(inst, z_size, epsilon, "max")
            assert result_fields(result) == result_fields(expected)

    def test_max_at_the_decoder_budget_matches_and_stays_small(self):
        # Two sources into L2 and 5 + 5 + 6 pool sentences: 16^4 = 65,536
        # decoder tables, the most the budget allows. One block then holds one
        # encoder table, whose (task, decoder) errors take 1 MiB; the traced
        # peak of a whole search reads about 2 MiB (the per-table loop it
        # replaced read about 8.5 MiB).
        rng = np.random.default_rng(15)
        languages = ("L0", "L1", "L2")
        pool = {
            lang: tuple(Sentence(lang, f"y{j}") for j in range(n))
            for lang, n in zip(languages, (5, 5, 6))
        }
        marginals, translators = {}, {}
        for src in ("L0", "L1"):
            xs = tuple(Sentence(src, f"s{i}", target_tag="L2") for i in range(2))
            marginals[(src, "L2")] = random_distribution(rng, xs)
            translators[(src, "L2")] = random_translator(rng, xs, pool["L2"][:3])
        inst = ManyToManyInstance(languages, marginals, translators, pool)
        assert sum(len(p) for p in pool.values()) ** 4 == impossibility.MAX_DECODER_TABLES
        for epsilon in (0.0, 0.5):
            tracemalloc.start()
            try:
                result = brute_force_min_error(inst, 4, epsilon, "max")
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20
            expected = reference_table_brute_force(inst, 4, epsilon, "max")
            assert result.feasible
            assert result_fields(result) == result_fields(expected)

    def test_max_decoder_budget_is_checked_before_any_table_work(self):
        rng = np.random.default_rng(2)
        inst = random_many_to_many_instance(rng, n_languages=3, pool_size=8, atom_budget=6)
        with mock.patch.object(impossibility, "_restricted_growth_tables") as enumerate_:
            with pytest.raises(BudgetError, match="decoder tables"):
                brute_force_min_error(inst, 4, 0.0, "max")
        enumerate_.assert_not_called()


class TestBruteForce:
    def test_aligned_instance_achieves_zero(self):
        # identical marginals with atom-by-atom matched images: a z per atom
        # index and the right decoder reaches zero error
        inst = _two_sources_into_l((0.6, 0.4), (0.6, 0.4), (0, 1), (0, 1), 2)
        result = brute_force_min_error(inst, 2, 0.0, "sum")
        assert result.feasible
        assert result.value == pytest.approx(0.0, abs=TOL)

    def test_worst_case_value_dominates_bound(self):
        inst = make_worst_case(0.8)
        result = brute_force_min_error(inst, 2, 0.0, "sum")
        assert result.value >= 0.8 - 1e-9

    @pytest.mark.parametrize("epsilon", [-0.1, math.nan])
    def test_rejects_a_negative_or_nan_epsilon(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be nonnegative"):
            brute_force_min_error(make_worst_case(0.5), 2, epsilon)

    def test_matches_literal_search(self):
        rng = np.random.default_rng(42)
        for _ in range(8):
            inst = random_two_to_one_instance(rng, max_sentences=2, max_targets=2)
            for epsilon in (0.0, 0.25):
                expected = literal_two_to_one_minimum(inst, 2, epsilon)
                blocked, n_feasible = literal_many_to_many_minimum(inst, 2, epsilon, "sum")
                result = brute_force_min_error(inst, 2, epsilon, "sum")
                assert result.feasible
                assert result.value == pytest.approx(expected, abs=TOL)
                assert blocked == pytest.approx(expected, abs=TOL)
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
        composed = after(result.decoder, result.encoder)
        attained = sum(
            zero_one_error(marginal, composed, truth)
            for marginal, truth in zip(*two_source_parts(inst))
        )
        assert attained == pytest.approx(result.value, abs=TOL)

    def test_two_to_one_result_has_the_single_target_block(self):
        # every z goes to the target's block; the sources' blocks stay empty
        result = brute_force_min_error(make_worst_case(0.6), 3, 0.0, "sum")
        assert result.feasible
        assert result.blocks == (("L", ("z0", "z1", "z2")), ("L0", ()), ("L1", ()))

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
        inst9 = _two_sources_into_l(np.full(5, 0.2), np.full(4, 0.25), [0] * 5, [0] * 4, 1)
        with pytest.raises(BudgetError):
            brute_force_min_error(inst9, 2, 0.0, "sum")

    def test_two_to_one_accepts_every_objective(self):
        inst = make_worst_case(0.5)
        for objective in ("max", "avg"):
            result = brute_force_min_error(inst, 2, 0.0, objective)
            expected, n_feasible = literal_many_to_many_minimum(inst, 2, 0.0, objective)
            assert result.value == pytest.approx(expected, abs=TOL)
            assert result.n_feasible == n_feasible
            assert bound_report(inst, 0.0, brute=result).holds is True


class TestDecodedTvStaysWithinEpsilon:
    def test_decoded_tv_stays_within_epsilon(self):
        # every epsilon-universal encoder, composed with any decoder, keeps
        # the decoded marginals within epsilon in TV
        rng = np.random.default_rng(8)
        inst = random_two_to_one_instance(rng, max_sentences=2, max_targets=2)
        (m0, m1), _translators = two_source_parts(inst)
        atoms = m0.support + m1.support
        epsilon = 0.3
        zs = ("z0", "z1")
        for g_table in itertools.product(zs, repeat=len(atoms)):
            g = DeterministicTranslator(dict(zip(atoms, g_table)))
            if not check_epsilon_universal(g, [m0, m1], epsilon):
                continue
            for h_table in itertools.product(inst.sentence_pool["L"], repeat=2):
                h = DeterministicTranslator(dict(zip(zs, h_table)))
                composed = after(h, g)
                tv = tv_distance(pushforward(m0, composed), pushforward(m1, composed))
                assert tv <= epsilon + WEIGHT_TOL


class TestBoundReport:
    def test_two_to_one_report_fields(self):
        inst = make_worst_case(0.8)
        brute = brute_force_min_error(inst, 2, 0.0, "sum")
        report = bound_report(inst, 0.0, "worst08", brute)
        assert report.tv_max == pytest.approx(0.8, abs=TOL)
        assert report.bound_sum == pytest.approx(0.8, abs=TOL)
        assert report.bound_max == pytest.approx(0.4, abs=TOL)
        assert report.bound_avg == pytest.approx(0.8 / 18, abs=TOL)
        assert report.holds is True

    def test_many_to_many_report(self):
        rng = np.random.default_rng(4)
        inst = random_many_to_many_instance(rng)
        report = bound_report(inst, 0.1, "mm")
        assert report.bound_sum == max(0.0, report.tv_max - 0.1)
        assert report.bound_max == max(0.0, report.tv_max / 2 - 0.05)
        assert report.bound_avg is not None

    @pytest.mark.parametrize("epsilon", [-0.1, math.nan])
    def test_rejects_a_negative_or_nan_epsilon(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be nonnegative"):
            bound_report(make_worst_case(0.5), epsilon)


def reference_pair_tvs(inst):
    """(target, source a, source b, TV of the pushforwards), in the report's row order."""
    rows = []
    for dst in sorted(inst.languages):
        sources = sorted(src for (src, d) in inst.tasks.pairs if d == dst)
        for a, b in itertools.combinations(sources, 2):
            tv = tv_distance(target_marginal(inst, a, dst), target_marginal(inst, b, dst))
            rows.append((dst, a, b, tv))
    return rows


class TestArrayForm:
    @pytest.mark.parametrize(
        "draw",
        [
            random_two_to_one_instance,
            lambda rng: random_many_to_many_instance(rng, 3),
            lambda rng: random_many_to_many_instance(rng, 3, pool_size=4),
        ],
        ids=["two_to_one", "k3", "k3_pool4"],
    )
    def test_tvs_equal_the_pushforward_tvs_bit_for_bit(self, draw):
        for seed in range(3000):
            inst = draw(np.random.default_rng(seed))
            rows = [(t, a, b, tv.hex()) for t, a, b, tv in target_marginal_tvs(inst)]
            expected = [(t, a, b, tv.hex()) for t, a, b, tv in reference_pair_tvs(inst)]
            assert rows == expected, f"seed {seed}"

    def test_tasks_follow_the_sorted_pairs_and_languages(self):
        inst = random_many_to_many_instance(np.random.default_rng(3), 3, pool_size=3)
        tasks = inst.tasks
        assert tasks.pairs == tuple(sorted(inst.marginals))
        assert tasks.block_names == ("L0", "L1", "L2")
        assert tasks.codomain == sum((inst.sentence_pool[lang] for lang in tasks.block_names), ())
        for t, (src, dst) in enumerate(tasks.pairs):
            mine = tasks.atom_task == t
            marginal = inst.marginals[(src, dst)]
            assert tuple(x for x, m in zip(tasks.atoms, mine) if m) == marginal.support
            assert np.array_equal(tasks.weight[mine], marginal.weights)
            images = [tasks.codomain[y] for y in tasks.truth[mine]]
            assert images == [inst.translators[(src, dst)](x) for x in marginal.support]
            assert tasks.block_names[tasks.task_block[t]] == dst
