"""Lower bounds for translation through shared representations, with brute-force verification.

The bounds (`bound_report`) are closed-form expressions in pushforward
total-variation gaps; the exhaustive search (`brute_force_min_error`)
minimizes the same objectives over every deterministic encoder/decoder pair
on small instances. Both read an instance's one array form, `Tasks`, and
share no other code, so the bounds are checked without trusting either route.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .distributions import WEIGHT_TOL, Atom, DeterministicTranslator, FiniteDistribution, Sentence
from .errors import BudgetError, DomainError

#: Hard enumeration budget: |Z|^(#sentences) encoder tables, |Sigma*_L|^|Z| decoder tables.
MAX_ENCODER_DOMAIN = 8
MAX_Z_SIZE = 4
MAX_DECODER_TABLES = 65536
#: Float64 entries (0.25 MB) in one block of ``max`` errors, indexed by encoder
#: table, task and decoder table. A block holds as many encoder tables as fit,
#: and at least one, so near the decoder budget one table's errors can exceed it.
MAX_BLOCK_ELEMENTS = 32768


# ---------------------------------------------------------------------------
# Instances


class Tasks(NamedTuple):
    """An instance as arrays, one task per ordered pair: what the bounds and the search read.

    Tasks are the sorted pairs and blocks the sorted languages; the codomain
    lists the blocks' pools in block order. Atoms run task by task, each in its
    source marginal's order, with their task, weight and the codomain index of
    their ground-truth translation; ``task_block`` is each task's target block,
    and ``rivals`` lists the pairs of tasks that share one, block by block.
    """

    pairs: tuple[tuple[str, str], ...]
    block_names: tuple[str, ...]
    codomain: tuple[Atom, ...]
    atoms: tuple[Atom, ...]
    atom_task: np.ndarray
    weight: np.ndarray
    truth: np.ndarray
    task_block: np.ndarray
    rivals: tuple[tuple[int, int], ...]


@dataclass(frozen=True, eq=False)
class ManyToManyInstance:
    """K languages with a source marginal and a ground-truth translator per ordered pair.

    Source sentences carry their target language as a prefix tag, so sentence
    sets of distinct ordered pairs never overlap. A two-source instance is the
    K = 3 case with two pairs into one target. ``sentence_pool`` lists each
    language's sentences (a language it omits gets none); it must hold every
    translator image, so it is the codomain the exhaustive search draws from.
    ``tasks`` is the array form, built once by the constructor.
    """

    languages: tuple[str, ...]
    marginals: Mapping[tuple[str, str], FiniteDistribution]
    translators: Mapping[tuple[str, str], DeterministicTranslator]
    sentence_pool: Mapping[str, Sequence[Atom]]
    tasks: Tasks = field(init=False, repr=False)

    def __post_init__(self):
        languages = tuple(self.languages)
        if len(set(languages)) != len(languages):
            raise ValueError("duplicate language ids")
        marginals = dict(self.marginals)
        translators = dict(self.translators)
        pool = dict(self.sentence_pool)
        unknown = set(pool) - set(languages)
        if unknown:
            raise ValueError(f"pool for unknown language {sorted(unknown)[0]!r}")
        pool = {lang: tuple(pool.get(lang, ())) for lang in languages}
        for lang, members in pool.items():
            for atom in members:
                if getattr(atom, "source_tag", None) != lang:
                    raise ValueError(f"pool sentence {atom!r} not in {lang!r}")
        for (src, dst), marginal in marginals.items():
            if src == dst:
                raise ValueError(f"self-pair {src!r}->{dst!r} not allowed")
            if src not in languages or dst not in languages:
                raise ValueError(f"unknown language in pair {src!r}->{dst!r}")
            f = translators.get((src, dst))
            if f is None:
                raise ValueError(f"missing translator for pair {src!r}->{dst!r}")
            for x in marginal.support:
                if getattr(x, "source_tag", None) != src:
                    raise ValueError(f"{x!r} is not a {src!r} sentence")
                if getattr(x, "target_tag", None) != dst:
                    raise ValueError(f"{x!r} lacks the {dst!r} target prefix")
                if getattr(f(x), "source_tag", None) != dst:
                    raise ValueError(f"{f(x)!r} is not a {dst!r} sentence")
            for atom in f.mapping:
                if f(atom) not in pool[dst]:
                    raise ValueError(f"translator image {f(atom)!r} missing from {dst!r} pool")
        object.__setattr__(self, "languages", languages)
        object.__setattr__(self, "marginals", marginals)
        object.__setattr__(self, "translators", translators)
        object.__setattr__(self, "sentence_pool", pool)

        pairs = tuple(sorted(marginals))
        block_names = tuple(sorted(languages))
        codomain = tuple(y for lang in block_names for y in pool[lang])
        y_index = {y: i for i, y in enumerate(codomain)}
        atoms = [(t, x) for t, pair in enumerate(pairs) for x in marginals[pair].support]
        task_block = [block_names.index(dst) for _src, dst in pairs]
        members = [[t for t, kt in enumerate(task_block) if kt == k] for k in range(self.K)]
        rivals = [rival for ts in members for rival in itertools.combinations(ts, 2)]
        tasks = Tasks(
            pairs, block_names, codomain, tuple(x for _t, x in atoms),
            atom_task=np.array([t for t, _x in atoms], dtype=np.int64),
            weight=np.array([w for pair in pairs for w in marginals[pair].weights]),
            truth=np.array([y_index[translators[pairs[t]](x)] for t, x in atoms], dtype=np.int64),
            task_block=np.array(task_block, dtype=np.int64),
            rivals=tuple(rivals),
        )
        object.__setattr__(self, "tasks", tasks)

    @property
    def K(self) -> int:
        return len(self.languages)

    @property
    def joints(self) -> dict[tuple[str, str], FiniteDistribution]:
        """Each pair's parallel distribution over (x, f*(x)) pairs."""
        return {
            key: FiniteDistribution(
                tuple(zip(m.support, map(self.translators[key], m.support))), m.weights
            )
            for key, m in self.marginals.items()
        }


# ---------------------------------------------------------------------------
# Closed-form bounds


class PairTV(NamedTuple):
    target: str
    source_a: str
    source_b: str
    tv: float


def target_marginal_tvs(instance: ManyToManyInstance) -> tuple[PairTV, ...]:
    """TV gaps between target-language marginals, per target and source pair.

    Each task's weights are scatter-added onto the codomain, which gives its
    target marginal. A gap sums |p - q| over the two tasks' images in order of
    first appearance, the first task's atoms before the second's. That is the
    order in which TV over two pushforward distributions meets their atoms,
    and summing in another (say, pool) order can move the last bit.
    """
    tasks = instance.tasks
    n_tasks, n_y = len(tasks.pairs), len(tasks.codomain)
    pushed = np.bincount(
        tasks.atom_task * n_y + tasks.truth, tasks.weight, n_tasks * n_y
    ).reshape(n_tasks, n_y)
    rows = []
    for a, b in tasks.rivals:
        images = tasks.truth[(tasks.atom_task == a) | (tasks.atom_task == b)]
        order = list(dict.fromkeys(images.tolist()))
        tv = 0.5 * float(sum(np.abs(pushed[a, order] - pushed[b, order])))
        rows.append(PairTV(tasks.pairs[a][1], tasks.pairs[a][0], tasks.pairs[b][0], tv))
    return tuple(rows)


@dataclass(frozen=True)
class BoundReport:
    """Every bound and (optionally) the brute-force minimum for one instance."""

    instance_id: str
    epsilon: float
    pair_tvs: tuple[PairTV, ...]
    tv_max: float
    bound_sum: float
    bound_max: float
    bound_avg: float
    bf_value: float | None = None
    bf_objective: str | None = None
    holds: bool | None = None

    def bound_for(self, objective: str) -> float:
        """The bound a brute-force minimum of ``objective`` is checked against."""
        bounds = {"sum": self.bound_sum, "max": self.bound_max, "avg": self.bound_avg}
        return bounds[objective]


def bound_report(
    instance: ManyToManyInstance,
    epsilon: float,
    instance_id: str = "",
    brute: "BruteForceResult | None" = None,
) -> BoundReport:
    """Evaluate the three bounds on the array form's TVs; attach a brute-force result if given.

    Two sources a, b of one target give Err_a + Err_b >= TV_ab - epsilon. The
    sum over all pairs contains both errors of any two sources that share a
    target, so it is at least max TV - epsilon on every instance. The maximum
    pair error is at least max TV / 2 - epsilon / 2, and the average over the
    K^2 ordered pairs at least sum TV / (K^2 (K - 1)) - epsilon / 2. Each bound
    is clipped below at zero; with no two sources sharing a target, all are 0.
    """
    if not epsilon >= 0:
        raise ValueError("epsilon must be nonnegative")
    k = instance.K
    if k < 2:
        raise ValueError("need at least two languages")
    pair_tvs = target_marginal_tvs(instance)
    tv = max((row.tv for row in pair_tvs), default=0.0)
    tv_sum = sum(row.tv for row in pair_tvs)
    report = BoundReport(
        instance_id=instance_id,
        epsilon=epsilon,
        pair_tvs=pair_tvs,
        tv_max=tv,
        bound_sum=max(0.0, tv - epsilon),
        bound_max=max(0.0, 0.5 * tv - epsilon / 2.0),
        bound_avg=max(0.0, tv_sum / (k * k * (k - 1)) - epsilon / 2.0),
        bf_value=None if brute is None else brute.value,
        bf_objective=None if brute is None else brute.objective,
    )
    if brute is not None and brute.feasible:
        report = replace(report, holds=brute.value >= report.bound_for(brute.objective) - 1e-9)
    return report


# ---------------------------------------------------------------------------
# Worst-case construction


def make_worst_case(delta: float) -> ManyToManyInstance:
    """Two-source instance whose target marginals sit exactly delta apart in TV.

    L0 = (a0, a1) and L1 = (b0, b1) translate a0, b0 to y0 and a1, b1 to y1
    in L, with weights ((1 + delta)/2, (1 - delta)/2) for L0 and the reverse
    for L1, so ``bound_sum`` is max(0, delta - epsilon). That bound is not
    tight here: each z that two sentences share serves opposite targets, so
    brute force gives a ``sum`` of 1.0 at delta 0.8 and 0.5 (epsilon 0,
    |Z| = 2).
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    hi, lo = (1.0 + delta) / 2.0, (1.0 - delta) / 2.0
    return _two_sources_into_l((hi, lo), (lo, hi), (0, 1), (0, 1), 2)


def _two_sources_into_l(weights0, weights1, images0, images1, n_targets) -> ManyToManyInstance:
    """Pairs L0->L and L1->L over sentences a0.. of L0, b0.. of L1 and y0.. of L.

    ``images0`` and ``images1`` give the index of each source sentence's
    translation among the ``n_targets`` sentences of L.
    """
    y = tuple(Sentence("L", f"y{i}") for i in range(n_targets))
    marginals, translators = {}, {}
    for src, prefix, weights, images in (
        ("L0", "a", weights0, images0), ("L1", "b", weights1, images1)
    ):
        xs = tuple(Sentence(src, f"{prefix}{i}", target_tag="L") for i in range(len(weights)))
        marginals[(src, "L")] = FiniteDistribution(xs, np.array(weights))
        translators[(src, "L")] = DeterministicTranslator(
            {x: y[int(j)] for x, j in zip(xs, images)}
        )
    return ManyToManyInstance(("L0", "L1", "L"), marginals, translators, {"L": y})


# ---------------------------------------------------------------------------
# Brute force


@dataclass(frozen=True)
class BruteForceResult:
    """Outcome of the exhaustive search over (encoder, decoder) tables.

    ``value`` is +inf and the tables are None when no epsilon-universal encoder
    exists for the requested representation size (``feasible`` False); ``blocks``
    is None exactly then, and otherwise lists one block per language.
    ``n_encoders`` counts encoder tables and ``n_feasible`` counts feasible
    (block partition, encoder) pairs, both over the full space of tables
    although the search visits one table per relabelling orbit.
    """

    objective: str
    epsilon: float
    z_size: int
    feasible: bool
    value: float
    encoder: DeterministicTranslator | None
    decoder: DeterministicTranslator | None
    blocks: tuple[tuple[str, tuple[Atom, ...]], ...] | None
    n_encoders: int
    n_feasible: int


@functools.cache
def _restricted_growth_tables(z_size: int, n_atoms: int) -> np.ndarray:
    """One encoder table per orbit under relabelling of z, in lexicographic row order.

    Each row is a restricted-growth string: every entry is at most one more
    than the largest entry before it, so z labels appear in first-use order
    and each row is the smallest table of its orbit. There are
    sum_{k <= z_size} S(n_atoms, k) rows (Stirling numbers of the second kind).
    Built once per argument pair; the shared array is read-only.
    """
    rows = np.zeros((1, 0), dtype=np.int64)
    top = np.full(1, -1)
    for _ in range(n_atoms):
        n_next = np.minimum(top + 1, z_size - 1) + 1
        parent = np.repeat(np.arange(len(rows)), n_next)
        value = np.arange(len(parent)) - np.repeat(np.cumsum(n_next) - n_next, n_next)
        rows = np.column_stack([rows[parent], value])
        top = np.maximum(top[parent], value)
    rows.setflags(write=False)
    return rows


def _orbit_sizes(rows: np.ndarray, z_size: int) -> np.ndarray:
    """Tables per orbit: a row using k labels has z_size!/(z_size-k)! relabellings."""
    per_labels = np.array([math.perm(z_size, k) for k in range(z_size + 1)])
    return per_labels[rows.max(axis=1) + 1]


def _orbit_members(rows: np.ndarray, z_size: int) -> np.ndarray:
    """Every table in the orbits of restricted-growth ``rows``, in lexicographic order."""
    members = []
    for row in rows:
        relabel = np.array(list(itertools.permutations(range(z_size), int(row.max()) + 1)))
        members.append(relabel[:, row])
    tables = np.concatenate(members)
    return tables[np.lexsort(tables.T[::-1])]


def _check_budget(n_atoms: int, z_size: int) -> None:
    if not 1 <= z_size <= MAX_Z_SIZE:
        raise BudgetError(f"z_size {z_size} outside [1, {MAX_Z_SIZE}]")
    if n_atoms > MAX_ENCODER_DOMAIN:
        raise BudgetError(
            f"{n_atoms} sentences exceed the enumeration budget of {MAX_ENCODER_DOMAIN}"
        )


def brute_force_min_error(
    instance: ManyToManyInstance,
    z_size: int,
    epsilon: float,
    objective: str = "sum",
) -> BruteForceResult:
    """Exhaustively minimize the translation-error objective over valid (g, h).

    The search reads the instance's array form, ``instance.tasks``: one task
    per ordered pair and one block per language, for the ``sum``, ``max`` or
    ``avg`` (sum over K^2) objective.

    Every deterministic encoder into a ``z_size``-point representation set is
    covered, but only one table per orbit under relabelling of z is scored;
    the block partitions an encoder is epsilon-universal with are counted in
    closed form rather than visited (see ``_search``). ``n_encoders`` and
    ``n_feasible`` still count the full space. The minimizer reported is the
    first in (partition, table) lexicographic order, found by rescoring every
    table of the orbits that can hold it, so results are reproducible bit for
    bit.
    """
    if not epsilon >= 0:
        raise ValueError("epsilon must be nonnegative")
    if objective not in ("sum", "max", "avg"):
        raise ValueError(f"unknown objective {objective!r}")
    if not instance.tasks.pairs:
        raise DomainError("instance has no translation pairs to evaluate")
    coeff = 1.0 if objective in ("sum", "max") else 1.0 / (instance.K**2)
    return _search(instance.tasks, coeff, z_size, epsilon, objective)


def _search(
    tasks: Tasks,
    coeff: float,
    z_size: int,
    epsilon: float,
    objective: str,
) -> BruteForceResult:
    """The one exhaustive search core, over an instance's array form; ``coeff`` scales sum/avg.

    A (partition, encoder) pair is feasible when each task leaks at most
    ``WEIGHT_TOL`` of its mass outside its target block, and tasks sharing a
    block push forward within epsilon of each other in TV.

    Partitions are never enumerated. An atom is heavy if its weight exceeds
    ``WEIGHT_TOL``. A table pins z to block k when it maps a heavy atom of a
    task with target block k onto z; z is free when no heavy atom reaches it.
    If each task's light atoms weigh at most ``WEIGHT_TOL`` together
    (``DomainError`` otherwise), a partition passes the leak test exactly when
    it puts every pinned z in its pin's block: a pinned z outside that block
    leaks the heavy atom's weight, which exceeds the tolerance, while the
    light atoms, wherever they land, can never leak more than it. So a table
    is feasible with some partition iff it passes the TV test and pins no z to
    two blocks, and then with exactly K^(number of free z) partitions;
    ``n_feasible`` sums those counts.

    Tables are enumerated up to relabelling of z. Renaming the points of Z
    permutes each task's pushforward, the pins and the decoder's choices
    without changing them, so the TV test, the pin test, the count of free z
    and the objective are the same for every table of an orbit. Only one
    table per orbit is visited: its restricted-growth string, the smallest
    table of the orbit (2,795 rows instead of 65,536 for 8 sentences and
    |Z| = 4). Each task's pushforward and the pins are scatter-added from the
    integer table, one atom at a time. A representative using k labels stands
    for z_size!/(z_size-k)! tables, so ``n_feasible`` sums that orbit size
    times K^(number of free z), and ``n_encoders`` is z_size^(#sentences).

    Orbit members agree exactly, not only up to rounding, in everything but
    two sums taken in z order: the TV sum over z and the objective's sum over
    z. Reordering those sums moves the result by a few ulps (about 1e-16),
    which is far inside the ``WEIGHT_TOL`` (1e-12) slack of the TV test, so
    a member's test decides as its representative's except for a TV within
    rounding of epsilon + ``WEIGHT_TOL``, where the test is arbitrary
    anyway. Objective values differ by the same few ulps, which decide ties.
    So every feasible representative is scored, the orbits whose value is
    within 1e-9 of the smallest are expanded into all their tables in table
    order, and those tables are rescored one by one with the same
    arithmetic; every minimizing table lies among them.

    The objective does not depend on the partition, so each table is scored
    once. The first minimizer in (partition, table) product order is
    reproduced on the expanded tables: it is the first minimizing table whose
    first compatible partition (pinned z in their blocks, free z in block 0)
    is smallest read as a base-K number with z0 most significant. A table
    compatible with a smaller partition P has P as its first one: the two
    could first differ only at a z that is neither pinned nor free.
    """
    atom_task, w, truth = tasks.atom_task, tasks.weight, tasks.truth
    n_tasks = len(tasks.pairs)
    light = w <= WEIGHT_TOL
    light_mass = np.bincount(atom_task[light], w[light], n_tasks)
    if (light_mass > WEIGHT_TOL).any():
        t = int(np.argmax(light_mass > WEIGHT_TOL))
        src, dst = tasks.pairs[t]
        raise DomainError(
            f"task {src}->{dst}: sentences of weight at most {WEIGHT_TOL} weigh"
            f" {float(light_mass[t])!r} together, above {WEIGHT_TOL}; the exact search"
            f" needs them to stay within it"
        )
    n_atoms = len(w)
    _check_budget(n_atoms, z_size)

    n_y = len(tasks.codomain)
    n_h = n_y**z_size
    if objective == "max" and n_h > MAX_DECODER_TABLES:
        raise BudgetError(f"{n_y}^{z_size} decoder tables exceed the enumeration budget")
    n_blocks = len(tasks.block_names)
    heavy = np.flatnonzero(w > WEIGHT_TOL)

    def pins(tables: np.ndarray) -> np.ndarray:
        """(block, table, z): whether a heavy atom aimed at the block reaches z."""
        pinned = np.zeros((n_blocks, len(tables), z_size), dtype=bool)
        rows = np.arange(len(tables))[:, None]
        pinned[tasks.task_block[atom_task[heavy]], rows, tables[:, heavy]] = True
        return pinned

    if objective in ("sum", "avg"):
        match_weights = np.zeros((n_atoms, n_y))
        match_weights[np.arange(n_atoms), truth] = coeff * w

    def score(tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Objective value and best decoder table of each encoder table.

        ``max`` scores every decoder table h: Z -> codomain, in blocks of
        encoder tables: cost[g, t, z, y] is task t's error mass on z when h
        decodes z to y, and h's error on task t is its costs summed in z
        order. Decoders are numbered in lexicographic table order (z0 most
        significant), so argmin picks the first minimizing table.
        """
        if objective in ("sum", "avg"):
            onehot = (tables[:, :, None] == np.arange(z_size)).astype(np.float64)
            matched = np.einsum("gsz,sy->gzy", onehot, match_weights)
            return coeff * w.sum() - matched.max(axis=2).sum(axis=1), matched.argmax(axis=2)
        block = max(1, MAX_BLOCK_ELEMENTS // (n_tasks * n_h))
        h_pos = np.empty(len(tables), dtype=np.int64)
        values = np.empty(len(tables))
        for start in range(0, len(tables), block):
            g = tables[start : start + block]
            rows = np.arange(len(g))
            cost = np.zeros((len(g), n_tasks, z_size, n_y))
            for s in range(n_atoms):
                cost[rows, atom_task[s], g[:, s], :] += w[s]
                cost[rows, atom_task[s], g[:, s], truth[s]] -= w[s]
            errs = cost[:, :, 0]
            for z in range(1, z_size):
                errs = (errs[..., None] + cost[:, :, z, None, :]).reshape(len(g), n_tasks, -1)
            obj = errs.max(axis=1)  # (block, n_h)
            best = obj.argmin(axis=1)
            h_pos[start : start + block] = best
            values[start : start + block] = obj[rows, best]
        return values, np.stack(np.unravel_index(h_pos, (n_y,) * z_size), axis=1)

    reps = _restricted_growth_tables(z_size, n_atoms)
    rows = np.arange(len(reps))
    push = np.zeros((n_tasks, len(reps), z_size))
    for s in range(n_atoms):
        push[atom_task[s], rows, reps[:, s]] += w[s]

    tv_ok = np.ones(len(reps), dtype=bool)
    for ta, tb in tasks.rivals:
        tv_ok &= 0.5 * np.abs(push[ta] - push[tb]).sum(axis=1) <= epsilon + WEIGHT_TOL

    n_pins = pins(reps).sum(axis=0)
    feasible = tv_ok & (n_pins <= 1).all(axis=1)
    n_encoders = z_size**n_atoms
    if not feasible.any():
        return BruteForceResult(
            objective, epsilon, z_size, False, math.inf, None, None, None, n_encoders, 0
        )
    n_free = (n_pins[feasible] == 0).sum(axis=1)
    n_feasible = int((_orbit_sizes(reps[feasible], z_size) * n_blocks**n_free).sum())

    # Orbit members differ in value only by rounding, so every minimizing
    # table lies in an orbit whose representative is within 1e-9 of the best.
    rep_values, _ = score(reps[feasible])
    near = reps[feasible][rep_values <= rep_values.min() + 1e-9]
    tables = _orbit_members(near, z_size)
    values, h_tables = score(tables)
    # First compatible partition of each table: argmax picks the pinned
    # block, or block 0 for a free z.
    first_partition = pins(tables).argmax(axis=0)  # (table, z)

    # Product-order tie-break: the minimizer whose first compatible partition
    # is smallest in base K, the first such table on a tie.
    minimizers = np.flatnonzero(values == values.min())
    keys = first_partition[minimizers] @ n_blocks ** np.arange(z_size - 1, -1, -1)
    i = int(minimizers[np.argmin(keys)])
    partition = first_partition[i]

    z_names = tuple(f"z{z}" for z in range(z_size))
    encoder = DeterministicTranslator({x: z_names[z] for x, z in zip(tasks.atoms, tables[i])})
    decoder = DeterministicTranslator(
        {z_names[z]: tasks.codomain[int(h_tables[i, z])] for z in range(z_size)}
    )
    blocks = tuple(
        (lang, tuple(z_names[z] for z in range(z_size) if partition[z] == k))
        for k, lang in enumerate(tasks.block_names)
    )
    return BruteForceResult(
        objective, epsilon, z_size, True, float(values[i]), encoder, decoder,
        blocks, n_encoders, n_feasible,
    )


# ---------------------------------------------------------------------------
# Random instances for soundness experiments


def random_two_to_one_instance(
    rng: np.random.Generator,
    max_sentences: int = 3,
    max_targets: int = 3,
) -> ManyToManyInstance:
    """Random two-source instance: marginal weights and translator tables drawn uniformly."""
    n0 = int(rng.integers(1, max_sentences + 1))
    n1 = int(rng.integers(1, max_sentences + 1))
    nt = int(rng.integers(1, max_targets + 1))

    def _weights(n: int) -> np.ndarray:
        raw = rng.random(n) + 0.05
        return raw / raw.sum()

    weights0, weights1 = _weights(n0), _weights(n1)
    images0 = [rng.integers(nt) for _ in range(n0)]
    images1 = [rng.integers(nt) for _ in range(n1)]
    return _two_sources_into_l(weights0, weights1, images0, images1, nt)


def random_many_to_many_instance(
    rng: np.random.Generator,
    n_languages: int = 3,
    pool_size: int = 2,
    atom_budget: int = MAX_ENCODER_DOMAIN,
) -> ManyToManyInstance:
    """Random K-language instance with every ordered pair present, sized to the budget.

    Each ordered pair gets one or two weighted source sentences (total capped
    at ``atom_budget``) and a translator into the target's sentence pool.
    """
    languages = tuple(f"L{i}" for i in range(n_languages))
    pool = {
        lang: tuple(Sentence(lang, f"y{j}") for j in range(pool_size))
        for lang in languages
    }
    ordered = [
        (src, dst) for src in languages for dst in languages if src != dst
    ]
    sizes = {pair: 1 for pair in ordered}
    budget_left = atom_budget - len(ordered)
    if budget_left < 0:
        raise ValueError("atom budget too small for one sentence per pair")
    extras = rng.permutation(len(ordered))
    for idx in extras:
        if budget_left == 0:
            break
        if rng.random() < 0.5:
            sizes[ordered[idx]] += 1
            budget_left -= 1

    marginals = {}
    translators = {}
    for (src, dst) in ordered:
        n = sizes[(src, dst)]
        xs = tuple(Sentence(src, f"s{i}", target_tag=dst) for i in range(n))
        raw = rng.random(n) + 0.05
        marginals[(src, dst)] = FiniteDistribution(xs, raw / raw.sum())
        translators[(src, dst)] = DeterministicTranslator(
            {x: pool[dst][rng.integers(pool_size)] for x in xs}
        )
    return ManyToManyInstance(languages, marginals, translators, pool)
