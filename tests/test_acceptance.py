"""Acceptance suite: every criterion at its stated tolerance, one test each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
PASS/FAIL report per criterion.
"""

import itertools
import math
import time

import numpy as np
from scipy.stats import spearmanr

from helpers import (
    composite,
    corpus_pairs,
    empirical_edge_loss,
    joint_estimate,
    max_entry_difference,
    moment_gap,
    moment_tv_lower_bound,
    population_loss,
    pushforward,
    random_distribution,
    random_translator,
    target_moments,
    tv_distance,
    with_gauge,
    zero_one_error,
)
from translab import cli, io
from translab.distributions import WEIGHT_TOL
from translab.evaluation import (
    concentration_bound,
    required_sample_size,
    sample_complexity_sweep,
    shortest_path_and_diameter,
    verify_chain_bound,
)
from translab.generative import (
    FunctionClassSpec,
    LatentSampler,
    TranslationGraph,
    randomized_generate,
    sample_randomized_codecs,
    six_language_demo_graph,
)
from translab.impossibility import (
    bound_report,
    brute_force_min_error,
    make_worst_case,
    random_many_to_many_instance,
    random_two_to_one_instance,
)

MASTER_SEED = 20260810


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status}  {detail}".rstrip())
    assert ok, f"{criterion}: {detail}"


def chain_graph(langs, n):
    return TranslationGraph(
        tuple(langs), tuple((langs[i], langs[i + 1], n) for i in range(len(langs) - 1))
    )


def test_criterion_01_two_to_one_soundness():
    rng = np.random.default_rng(MASTER_SEED)
    start = time.time()
    violations = 0
    for _ in range(200):
        instance = random_two_to_one_instance(rng, max_sentences=3, max_targets=3)
        for epsilon in (0.0, 0.1, 0.3):
            bound = bound_report(instance, epsilon).bound_sum
            result = brute_force_min_error(instance, 3, epsilon, "sum")
            assert result.feasible
            if result.value < bound - 1e-9:
                violations += 1
    elapsed = time.time() - start
    report(
        "criterion 1 (two-to-one soundness, 200 instances x 3 epsilons)",
        violations == 0 and elapsed < 60.0,
        f"violations={violations} elapsed={elapsed:.1f}s",
    )


def test_criterion_02_worst_case_demo():
    instance = make_worst_case(0.8)
    bound = bound_report(instance, 0.0).bound_sum
    result = brute_force_min_error(instance, 2, 0.0, "sum")
    ok = abs(bound - 0.8) <= 1e-12 and result.value >= 0.8 - 1e-9
    report(
        "criterion 2 (worst-case demo delta=0.8)",
        ok,
        f"bound={bound!r} brute_min={result.value!r}",
    )


def test_criterion_03_many_to_many_soundness():
    rng = np.random.default_rng(MASTER_SEED + 1)
    violations = 0
    checked = 0
    # bf/bound over the feasible checks with a positive bound: how tight each bound is
    ratios = {"sum": [], "max": [], "avg": []}
    for _ in range(50):
        instance = random_many_to_many_instance(rng, n_languages=3)
        for epsilon in (0.0, 0.1):
            bounds = bound_report(instance, epsilon)
            for objective, values in ratios.items():
                bound = bounds.bound_for(objective)
                result = brute_force_min_error(instance, 3, epsilon, objective)
                if result.feasible:
                    checked += 1
                    if result.value < bound - 1e-9:
                        violations += 1
                    if bound > 0:
                        values.append(result.value / bound)
    tightness = " ".join(
        f"{objective}_ratio_min={min(values, default=math.nan):.3f}"
        f" {objective}_ratio_median={np.median(values) if values else math.nan:.3f}"
        f" (n={len(values)})"
        for objective, values in ratios.items()
    )
    report(
        "criterion 3 (many-to-many soundness, 50 K=3 instances)",
        violations == 0 and checked >= 150,
        f"violations={violations} checks={checked} {tightness}",
    )


def test_criterion_04_base_inequalities():
    rng = np.random.default_rng(MASTER_SEED + 2)
    atoms = ("a", "b", "c", "d", "e")
    images = ("x", "y", "z")
    disagreement_failures = 0
    for _ in range(1000):
        size = int(rng.integers(1, len(atoms) + 1))
        dist = random_distribution(rng, atoms[:size])
        f = random_translator(rng, dist.support, images)
        g = random_translator(rng, dist.support, images)
        tv = tv_distance(pushforward(dist, f), pushforward(dist, g))
        if not tv <= zero_one_error(dist, f, g) + WEIGHT_TOL:
            disagreement_failures += 1
    processing_failures = 0
    for _ in range(1000):
        size = int(rng.integers(1, len(atoms) + 1))
        p = random_distribution(rng, atoms[:size])
        q = random_distribution(rng, atoms[:size])
        h = random_translator(rng, atoms[:size], images)
        after = tv_distance(pushforward(p, h), pushforward(q, h))
        if not after <= tv_distance(p, q) + WEIGHT_TOL:
            processing_failures += 1
    report(
        "criterion 4 (disagreement bound and data-processing, 1000 each)",
        disagreement_failures == 0 and processing_failures == 0,
        f"disagreement_failures={disagreement_failures} processing_failures={processing_failures}",
    )


def test_criterion_05_generated_marginals_coincide():
    spec = FunctionClassSpec(dim=4)
    sources = ["S0", "S1", "S2"]
    moment_passes = 0
    surrogate_passes = 0
    runs = 20
    for i in range(runs):
        seed = MASTER_SEED + 100 + i
        codecs = dict(
            zip(sources + ["T"], sample_randomized_codecs(spec, 4, 0, 0.0, seed=seed))
        )
        moments = target_moments(dict.fromkeys(sources, codecs), "T", spec.radius)
        pairs = list(itertools.combinations(sources, 2))
        moment_passes += all(moment_gap(moments[a], moments[b])[2] for a, b in pairs)
        # plug-in analog of the two-to-one bound at epsilon = 0: the exact
        # mean-based TV lower bound between any two sources is zero
        surrogate_passes += all(
            moment_tv_lower_bound(moments[a][0], moments[b][0], spec.M) <= 1e-12
            for a, b in pairs
        )
    ok = moment_passes >= 0.95 * runs and surrogate_passes >= 0.95 * runs
    report(
        "criterion 5 (generated target marginals coincide, 20 runs)",
        ok,
        f"moment_passes={moment_passes}/{runs} tv_surrogate_passes={surrogate_passes}/{runs}",
    )


def test_criterion_06_realizable_exact_recovery():
    spec = FunctionClassSpec(dim=4)
    langs = [f"L{i}" for i in range(5)]
    graph = chain_graph(langs, 50)
    seed = MASTER_SEED + 6
    codecs = dict(zip(langs, sample_randomized_codecs(spec, 5, 0, 0.0, seed=seed)))
    sampler = LatentSampler(4, 1.0, seed=seed)
    corpora = [randomized_generate(e, codecs, 50, sampler, seed=seed) for e in graph.edge_pairs()]
    estimate = joint_estimate(corpora)
    worst = 0.0
    n_pairs = 0
    for i in range(5):
        for j in range(i + 1, 5):
            loss = population_loss(estimate, (langs[i], langs[j]), codecs, spec)
            worst = max(worst, loss)
            n_pairs += 1
    report(
        "criterion 6 (noiseless chain K=5: exact zero-shot recovery)",
        n_pairs == 10 and worst <= 1e-8,
        f"pairs={n_pairs} worst_loss={worst:.2e}",
    )


def _randomized_chain_records(seed):
    spec = FunctionClassSpec(dim=4)
    langs = [f"L{i}" for i in range(5)]
    graph = chain_graph(langs, 200)
    codecs = dict(zip(langs, sample_randomized_codecs(spec, 5, 2, 0.05, seed=seed)))
    sampler = LatentSampler(4, 1.0, seed=seed)
    corpora = [
        randomized_generate(e, codecs, 200, sampler, seed=seed)
        for e in graph.edge_pairs()
    ]
    estimate = joint_estimate(corpora)
    return verify_chain_bound(estimate, graph, codecs, spec)


def test_criterion_07a_chained_bound_holds():
    records = []
    for i in range(10):
        records.extend(_randomized_chain_records(MASTER_SEED + 200 + i))
    n_hold = sum(1 for r in records if r.holds)
    report(
        "criterion 7a (chained path bound, 10 seeds x 10 pairs)",
        n_hold >= 0.95 * len(records),
        f"holds={n_hold}/{len(records)}",
    )


def test_criterion_07b_loss_grows_with_path_length():
    # Known-failing check, kept assertive rather than weakened. Under
    # nuisance codecs a d-row encoder can annihilate each language's noise
    # image, so the joint fit reads the latent off every sentence exactly and
    # its objective is zero. A pair's loss is then its destination decoder's
    # regression error alone: every pair ending at one language scores the
    # same, whatever its path length (see the failure detail's medians), so
    # the ranks among those ties, and the correlation, are rounding.
    by_pair: dict[tuple[str, str], list[float]] = {}
    path_lens: dict[tuple[str, str], int] = {}
    for i in range(10):
        for record in _randomized_chain_records(MASTER_SEED + 200 + i):
            by_pair.setdefault((record.src, record.dst), []).append(record.measured_loss)
            path_lens[(record.src, record.dst)] = record.path_len
    pairs = sorted(by_pair)
    lens = [path_lens[p] for p in pairs]
    medians = [float(np.median(by_pair[p])) for p in pairs]
    rho, _ = spearmanr(lens, medians)
    report(
        "criterion 7b (median loss grows with path length)",
        rho >= 0.8,
        f"spearman={rho:.3f} medians_by_len={sorted(zip(lens, medians))}",
    )


def test_criterion_08_gauge_invariance():
    spec = FunctionClassSpec(dim=4)
    langs = [f"L{i}" for i in range(5)]
    graph = chain_graph(langs, 50)
    seed = MASTER_SEED + 8
    codecs = dict(zip(langs, sample_randomized_codecs(spec, 5, 0, 0.0, seed=seed)))
    sampler = LatentSampler(4, 1.0, seed=seed)
    corpora = [randomized_generate(e, codecs, 50, sampler, seed=seed) for e in graph.edge_pairs()]
    estimate = joint_estimate(corpora)

    # GL(d) on the latent space: E_L -> G E_L and D_L -> D_L G^-1 for every L
    gauge = sample_randomized_codecs(spec, 1, 0, 0.0, seed=seed + 1)[0].decoder
    transformed = with_gauge(estimate, gauge)

    worst = 0.0
    for i in range(5):
        for j in range(5):
            if i == j:
                continue
            pair = (langs[i], langs[j])
            worst = max(
                worst,
                max_entry_difference(
                    composite(estimate, *pair), composite(transformed, *pair)
                ),
            )
    for corpus in corpora:
        pairs = corpus_pairs(corpus, codecs, sampler)
        worst = max(
            worst,
            abs(
                empirical_edge_loss(estimate, corpus.edge, pairs)
                - empirical_edge_loss(transformed, corpus.edge, pairs)
            ),
        )
    for pair in (("L0", "L4"), ("L1", "L3"), ("L4", "L0")):
        a = population_loss(estimate, pair, codecs, spec)
        b = population_loss(transformed, pair, codecs, spec)
        worst = max(worst, abs(a - b))
    report(
        "criterion 8 (gauge invariance of composites and losses)",
        worst <= 1e-9,
        f"worst_change={worst:.2e}",
    )


def test_criterion_09_generalization_gap_slope():
    start = time.time()
    spec = FunctionClassSpec(dim=1)
    seed = MASTER_SEED + 9
    codecs = dict(zip(("A", "B"), sample_randomized_codecs(spec, 2, 1, 0.05, seed=seed)))
    sampler = LatentSampler(1, 1.0, seed=seed)
    result = sample_complexity_sweep(
        ("A", "B"),
        codecs,
        [32, 64, 128, 256, 512, 1024, 2048, 4096],
        20,
        sampler,
        seed,
    )
    elapsed = time.time() - start
    ok = (
        not result.degenerate
        and result.slope is not None
        and abs(result.slope - (-0.5)) <= 0.15
        and elapsed < 300.0
    )
    report(
        "criterion 9 (generalization-gap slope -0.5 +/- 0.15)",
        ok,
        f"slope={result.slope:.3f} elapsed={elapsed:.1f}s",
    )


def test_criterion_10_demo_graph_diameter():
    paths, diameter = shortest_path_and_diameter(six_language_demo_graph())
    witness = paths[("L3", "L6")]
    ok = diameter == 4 and witness == ("L3", "L1", "L4", "L5", "L6")
    report(
        "criterion 10 (six-language demo graph)",
        ok,
        f"diameter={diameter} witness={'->'.join(witness)}",
    )


def test_criterion_11_sample_size_consistency():
    worst_low, worst_high = math.inf, 0.0
    K, p, M = 4, 6, 3.0
    for eps in (0.02, 0.05, 0.1, 0.2, 0.4):
        for delta in (0.01, 0.05, 0.1, 0.2, 0.5):
            n = required_sample_size(eps, delta, K, p, M)
            log_cover = p * math.log(16 * M / eps)
            ratio = concentration_bound(n, eps, M, log_cover) / (delta / K**2)
            worst_low = min(worst_low, ratio)
            worst_high = max(worst_high, ratio)
    ok = worst_low >= 0.5 and worst_high <= 2.0 + 1e-9
    report(
        "criterion 11 (sample-size and concentration formulas agree within 2x)",
        ok,
        f"ratio_range=[{worst_low:.3f}, {worst_high:.3f}]",
    )


def test_criterion_12_reproducibility(tmp_path, capsys):
    graph = TranslationGraph(
        ("L0", "L1", "L2"), (("L0", "L1", 40), ("L1", "L2", 40))
    )
    graph_path = tmp_path / "graph.json"
    io.save_graph(graph, graph_path)
    csv_names = ("worst_case_report.csv", "edge_losses.csv", "pair_eval.csv", "sweep.csv")
    outputs = []
    for run in ("first", "second"):
        out = tmp_path / run
        assert cli.main(
            ["demo-worst-case", "--delta", "0.8", "--seed", "17", "--out", str(out)]
        ) == 0
        assert cli.main(
            ["generate", "--graph", str(graph_path), "--out", str(out),
             "--dim", "2", "--sigma", "0.05", "--nuisance-dim", "1", "--seed", "17"]
        ) == 0
        assert cli.main(
            ["train", "--graph", str(graph_path), "--corpus-dir", str(out),
             "--out", str(out), "--seed", "17"]
        ) == 0
        assert cli.main(
            ["eval", "--graph", str(graph_path), "--codecs", str(out / "codecs.json"),
             "--encoders", str(out / "encoders.json"), "--out", str(out),
             "--samples", "2000", "--seed", "17"]
        ) == 0
        assert cli.main(
            ["sweep", "--n-list", "16,32", "--trials", "5", "--dim", "1",
             "--nuisance-dim", "1", "--sigma", "0.1", "--seed", "17",
             "--out", str(out)]
        ) == 0
        outputs.append(out)
    capsys.readouterr()  # swallow the CLI chatter
    mismatched = [
        name
        for name in csv_names
        if (outputs[0] / name).read_bytes() != (outputs[1] / name).read_bytes()
    ]
    report(
        "criterion 12 (byte-identical CSVs under a repeated master seed)",
        not mismatched,
        f"mismatched={mismatched or 'none'}",
    )
