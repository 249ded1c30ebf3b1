"""Lower bounds for translation through shared representations, with brute-force verification.

The two bound computations (`two_to_one_bound`, `many_to_many_bounds`) evaluate
closed-form expressions from pushforward total-variation gaps. The exhaustive
search (`brute_force_min_error`) independently minimizes the same objectives
over every deterministic encoder/decoder pair on small instances, so the
bounds can be checked without trusting either route.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .distributions import (
    WEIGHT_TOL,
    Atom,
    DeterministicTranslator,
    FiniteDistribution,
    Sentence,
    dispatch_by_source_tag,
    pushforward,
    tv_distance,
)
from .errors import BudgetError, DomainError

#: Hard enumeration budget: |Z|^(#sentences) encoder tables, |Sigma*_L|^|Z| decoder tables.
MAX_ENCODER_DOMAIN = 8
MAX_Z_SIZE = 4


# ---------------------------------------------------------------------------
# Instances


@dataclass(frozen=True, eq=False)
class TwoToOneInstance:
    """Two source languages with marginals and ground-truth translators into one target."""

    source_languages: tuple[str, str]
    target_language: str
    marginals: tuple[FiniteDistribution, FiniteDistribution]
    translators: tuple[DeterministicTranslator, DeterministicTranslator]
    target_sentences: tuple[Atom, ...] = ()

    def __post_init__(self):
        l0, l1 = self.source_languages
        if l0 == l1:
            raise ValueError("source languages must be distinct")
        if self.target_language in (l0, l1):
            raise ValueError("target language must differ from both sources")
        for lang, marginal, f in zip(
            self.source_languages, self.marginals, self.translators
        ):
            for atom in marginal.support:
                if getattr(atom, "source_tag", None) != lang:
                    raise ValueError(f"atom {atom!r} does not belong to {lang!r}")
                f(atom)  # raises DomainError if not total on the support
        targets = tuple(self.target_sentences)
        if not targets:
            seen: dict[Atom, None] = {}
            for f in self.translators:
                for atom in f.domain:
                    seen.setdefault(f(atom))
            targets = tuple(seen)
        for y in targets:
            if getattr(y, "source_tag", None) != self.target_language:
                raise ValueError(f"target sentence {y!r} not in {self.target_language!r}")
        object.__setattr__(self, "target_sentences", targets)

    def target_marginal(self, i: int) -> FiniteDistribution:
        """Distribution of ground-truth translations of source i."""
        return pushforward(self.marginals[i], self.translators[i])


@dataclass(frozen=True, eq=False)
class ManyToManyInstance:
    """K languages with joint parallel distributions for a set of ordered pairs.

    Each joint is a weighted list of (source sentence, target sentence) pairs
    generated by the deterministic ground-truth translator of that pair.
    Source sentences carry their target language as a prefix tag, so sentence
    sets of distinct ordered pairs never overlap.
    """

    languages: tuple[str, ...]
    joints: Mapping[tuple[str, str], FiniteDistribution]
    translators: Mapping[tuple[str, str], DeterministicTranslator]
    sentence_pool: Mapping[str, tuple[Atom, ...]] | None = None

    def __post_init__(self):
        languages = tuple(self.languages)
        if len(set(languages)) != len(languages):
            raise ValueError("duplicate language ids")
        joints = dict(self.joints)
        translators = dict(self.translators)
        for (src, dst), joint in joints.items():
            if src == dst:
                raise ValueError(f"self-pair {src!r}->{dst!r} not allowed")
            if src not in languages or dst not in languages:
                raise ValueError(f"unknown language in pair {src!r}->{dst!r}")
            f = translators.get((src, dst))
            if f is None:
                raise ValueError(f"missing translator for pair {src!r}->{dst!r}")
            seen_sources: set[Atom] = set()
            for (x, y), _w in joint.items():
                if getattr(x, "source_tag", None) != src:
                    raise ValueError(f"{x!r} is not a {src!r} sentence")
                if getattr(x, "target_tag", None) != dst:
                    raise ValueError(f"{x!r} lacks the {dst!r} target prefix")
                if getattr(y, "source_tag", None) != dst:
                    raise ValueError(f"{y!r} is not a {dst!r} sentence")
                if y != f(x):
                    raise ValueError(
                        f"joint pair ({x!r}, {y!r}) contradicts the ground-truth translator"
                    )
                if x in seen_sources:
                    raise ValueError(f"source sentence {x!r} repeated in joint")
                seen_sources.add(x)
        pool = self.sentence_pool
        if pool is None:
            collected: dict[str, dict[Atom, None]] = {lang: {} for lang in languages}
            for key in sorted(joints):
                f = translators[key]
                for atom in f.domain:
                    collected[key[1]].setdefault(f(atom))
            pool = {lang: tuple(atoms) for lang, atoms in collected.items()}
        else:
            pool = {lang: tuple(atoms) for lang, atoms in dict(pool).items()}
            for lang, members in pool.items():
                for atom in members:
                    if getattr(atom, "source_tag", None) != lang:
                        raise ValueError(f"pool sentence {atom!r} not in {lang!r}")
            for (src, dst), f in translators.items():
                if (src, dst) not in joints:
                    continue
                allowed = set(pool.get(dst, ()))
                for atom in f.domain:
                    if f(atom) not in allowed:
                        raise ValueError(
                            f"translator image {f(atom)!r} missing from {dst!r} pool"
                        )
        object.__setattr__(self, "languages", languages)
        object.__setattr__(self, "joints", joints)
        object.__setattr__(self, "translators", translators)
        object.__setattr__(self, "sentence_pool", pool)

    @classmethod
    def from_marginals(
        cls,
        languages: Sequence[str],
        pair_marginals: Mapping[tuple[str, str], FiniteDistribution],
        translators: Mapping[tuple[str, str], DeterministicTranslator],
        sentence_pool: Mapping[str, Sequence[Atom]] | None = None,
    ) -> "ManyToManyInstance":
        """Build joints as (x, f*(x)) weighted by the given source marginals."""
        joints = {}
        for key in pair_marginals:
            marginal = pair_marginals[key]
            f = translators[key]
            joints[key] = FiniteDistribution(
                tuple((x, f(x)) for x in marginal.support),
                marginal.weights,
            )
        if sentence_pool is not None:
            sentence_pool = {l: tuple(a) for l, a in sentence_pool.items()}
        return cls(tuple(languages), joints, translators, sentence_pool)

    @property
    def K(self) -> int:
        return len(self.languages)

    def pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self.joints))

    def source_marginal(self, src: str, dst: str) -> FiniteDistribution:
        joint = self.joints[(src, dst)]
        return FiniteDistribution(
            tuple(x for (x, _y) in joint.support), joint.weights
        )

    def target_marginal(self, src: str, dst: str) -> FiniteDistribution:
        return pushforward(
            self.source_marginal(src, dst), self.translators[(src, dst)]
        )


@dataclass(frozen=True, eq=False)
class PartitionedRepresentation:
    """A representation set split into per-target blocks, plus the encoder into it."""

    atoms: tuple[Atom, ...]
    blocks: Mapping[str, frozenset]
    encoder: DeterministicTranslator

    def __post_init__(self):
        blocks = {lang: frozenset(block) for lang, block in dict(self.blocks).items()}
        union: set[Atom] = set()
        for lang, block in blocks.items():
            if union & block:
                raise ValueError(f"block for {lang!r} overlaps another block")
            union |= block
        if union != set(self.atoms):
            raise ValueError("blocks must partition the representation set")
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "blocks", blocks)


# ---------------------------------------------------------------------------
# Universality checks


def check_epsilon_universal(
    encoder: DeterministicTranslator,
    marginals: Sequence[FiniteDistribution],
    epsilon: float,
) -> bool:
    """True iff every pair of pushforward marginals is within epsilon in TV."""
    if len(marginals) < 2:
        raise ValueError("need at least two marginals to compare")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    pushed = [pushforward(m, encoder) for m in marginals]
    for p, q in itertools.combinations(pushed, 2):
        if tv_distance(p, q) > epsilon + WEIGHT_TOL:
            return False
    return True


def check_epsilon_universal_partitioned(
    rep: PartitionedRepresentation,
    instance: ManyToManyInstance,
    epsilon: float,
) -> bool:
    """Per-target-block universality: support containment plus pairwise TV within blocks.

    A pushforward that leaks mass outside its target's block makes the check
    fail (returns False); it is not an error.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    by_target: dict[str, list[FiniteDistribution]] = {}
    for (src, dst) in instance.pairs():
        pushed = pushforward(instance.source_marginal(src, dst), rep.encoder)
        block = rep.blocks.get(dst, frozenset())
        leak = sum(w for atom, w in pushed.items() if atom not in block)
        if leak > WEIGHT_TOL:
            return False
        by_target.setdefault(dst, []).append(pushed)
    for pushed_list in by_target.values():
        for p, q in itertools.combinations(pushed_list, 2):
            if tv_distance(p, q) > epsilon + WEIGHT_TOL:
                return False
    return True


# ---------------------------------------------------------------------------
# Closed-form bounds


def two_to_one_bound(instance: TwoToOneInstance, epsilon: float) -> float:
    """Lower bound on Err0 + Err1 for any epsilon-universal encoder/decoder pair."""
    return bound_report(instance, epsilon).bound_sum


class PairTV(NamedTuple):
    target: str
    source_a: str
    source_b: str
    tv: float


def target_marginal_tvs(instance: ManyToManyInstance) -> tuple[PairTV, ...]:
    """TV gaps between target-language marginals, per target and source pair."""
    rows = []
    by_target: dict[str, list[str]] = {}
    for (src, dst) in instance.pairs():
        by_target.setdefault(dst, []).append(src)
    for dst in sorted(by_target):
        sources = sorted(by_target[dst])
        for a, b in itertools.combinations(sources, 2):
            tv = tv_distance(
                instance.target_marginal(a, dst), instance.target_marginal(b, dst)
            )
            rows.append(PairTV(dst, a, b, tv))
    return tuple(rows)


def many_to_many_bounds(
    instance: ManyToManyInstance, epsilon: float
) -> tuple[float, float]:
    """Lower bounds on the maximum and the average per-pair translation error.

    Returns ``(max_bound, avg_bound)``, both clipped below at zero. The average
    is normalized by K^2 over ordered pairs, matching the error objective.
    """
    report = bound_report(instance, epsilon)
    return report.bound_max, report.bound_avg


@dataclass(frozen=True)
class BoundReport:
    """Bounds and (optionally) the brute-force minimum for one instance."""

    instance_id: str
    epsilon: float
    kind: str
    pair_tvs: tuple[PairTV, ...]
    tv_max: float
    bound_sum: float | None
    bound_max: float | None
    bound_avg: float | None
    bf_value: float | None = None
    bf_objective: str | None = None
    holds: bool | None = None


def bound_report(
    instance,
    epsilon: float,
    instance_id: str = "",
    brute: "BruteForceResult | None" = None,
) -> BoundReport:
    """Evaluate every applicable bound; attach a brute-force result if given.

    Two-to-one: Err0 + Err1 >= TV - epsilon. Many-to-many: the maximum pair
    error is at least max TV / 2 - epsilon / 2, and the average over the K^2
    ordered pairs at least sum TV / (K^2 (K - 1)) - epsilon / 2. Each bound is
    clipped below at zero.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if isinstance(instance, TwoToOneInstance):
        tv = tv_distance(instance.target_marginal(0), instance.target_marginal(1))
        pair_tvs = (
            PairTV(instance.target_language, *instance.source_languages, tv),
        )
        bound_sum = max(0.0, tv - epsilon)
        bound_max, bound_avg = None, None
        kind = "two_to_one"
    else:
        k = instance.K
        if k < 2:
            raise ValueError("need at least two languages")
        pair_tvs = target_marginal_tvs(instance)
        tv = max((row.tv for row in pair_tvs), default=0.0)
        tv_sum = sum(row.tv for row in pair_tvs)
        bound_sum = None
        bound_max = max(0.0, 0.5 * tv - epsilon / 2.0)
        bound_avg = max(0.0, tv_sum / (k * k * (k - 1)) - epsilon / 2.0)
        kind = "many_to_many"
    holds = None
    if brute is not None and brute.feasible:
        reference = {
            "sum": bound_sum,
            "max": bound_max,
            "avg": bound_avg,
        }[brute.objective]
        if reference is not None:
            holds = brute.value >= reference - 1e-9
    return BoundReport(
        instance_id=instance_id,
        epsilon=epsilon,
        kind=kind,
        pair_tvs=pair_tvs,
        tv_max=tv,
        bound_sum=bound_sum,
        bound_max=bound_max,
        bound_avg=bound_avg,
        bf_value=None if brute is None else brute.value,
        bf_objective=None if brute is None else brute.objective,
        holds=holds,
    )


# ---------------------------------------------------------------------------
# Worst-case construction


def make_worst_case(delta: float) -> TwoToOneInstance:
    """Two-sentence instance whose target marginals sit exactly delta apart in TV.

    The sources share a target domain but weight it oppositely, which realizes
    the domain-mismatch regime where the bound is tight by construction.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    hi, lo = (1.0 + delta) / 2.0, (1.0 - delta) / 2.0
    a = (Sentence("L0", "a0"), Sentence("L0", "a1"))
    b = (Sentence("L1", "b0"), Sentence("L1", "b1"))
    y = (Sentence("L", "y0"), Sentence("L", "y1"))
    return TwoToOneInstance(
        source_languages=("L0", "L1"),
        target_language="L",
        marginals=(
            FiniteDistribution(a, np.array([hi, lo])),
            FiniteDistribution(b, np.array([lo, hi])),
        ),
        translators=(
            DeterministicTranslator({a[0]: y[0], a[1]: y[1]}),
            DeterministicTranslator({b[0]: y[0], b[1]: y[1]}),
        ),
        target_sentences=y,
    )


def perfect_universal_translator(instance, target: str) -> DeterministicTranslator:
    """The piecewise translator that dispatches each sentence to its pair's ground truth."""
    if isinstance(instance, TwoToOneInstance):
        if target != instance.target_language:
            raise DomainError(f"instance has no translators into {target!r}")
        per_source = dict(zip(instance.source_languages, instance.translators))
    else:
        per_source = {
            src: instance.translators[(src, dst)]
            for (src, dst) in instance.pairs()
            if dst == target
        }
        if not per_source:
            raise DomainError(f"instance has no translators into {target!r}")
    return dispatch_by_source_tag(per_source)


# ---------------------------------------------------------------------------
# Brute force


@dataclass(frozen=True)
class BruteForceResult:
    """Outcome of the exhaustive search over (encoder, decoder) tables.

    ``value`` is +inf and the tables are None when no epsilon-universal encoder
    exists for the requested representation size (``feasible`` False); ``blocks``
    is None exactly then. Two-to-one results have one block, the target's.
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


def _encoder_tables(z_size: int, n_atoms: int) -> np.ndarray:
    """All encoder tables as an array in lexicographic row order."""
    grids = np.meshgrid(*([np.arange(z_size)] * n_atoms), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


def _restricted_growth_tables(z_size: int, n_atoms: int) -> np.ndarray:
    """One encoder table per orbit under relabelling of z, in lexicographic row order.

    Each row is a restricted-growth string: every entry is at most one more
    than the largest entry before it, so z labels appear in first-use order
    and each row is the smallest table of its orbit. There are
    sum_{k <= z_size} S(n_atoms, k) rows (Stirling numbers of the second kind).
    """
    rows = np.zeros((1, 0), dtype=np.int64)
    top = np.full(1, -1)
    for _ in range(n_atoms):
        n_next = np.minimum(top + 1, z_size - 1) + 1
        parent = np.repeat(np.arange(len(rows)), n_next)
        value = np.arange(len(parent)) - np.repeat(np.cumsum(n_next) - n_next, n_next)
        rows = np.column_stack([rows[parent], value])
        top = np.maximum(top[parent], value)
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
    instance,
    z_size: int,
    epsilon: float,
    objective: str = "sum",
) -> BruteForceResult:
    """Exhaustively minimize the translation-error objective over valid (g, h).

    Each instance becomes a list of tasks, (source marginal, ground-truth
    translator, target block) triples. Many-to-many gives one task per ordered
    pair and one block per language, for the ``sum``, ``max`` or ``avg``
    (sum over K^2) objective. Two-to-one is the ``sum`` objective over two
    tasks and one target block; other objectives raise ``DomainError``.

    Every deterministic encoder into a ``z_size``-point representation set is
    covered, but only one table per orbit under relabelling of z is scored;
    the block partitions an encoder is epsilon-universal with are counted in
    closed form rather than visited (see ``_search``). ``n_encoders`` and
    ``n_feasible`` still count the full space. The minimizer reported is the
    first in (partition, table) lexicographic order, found by rescoring every
    table of the orbits that can hold it, so results are reproducible bit for
    bit.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if objective not in ("sum", "max", "avg"):
        raise ValueError(f"unknown objective {objective!r}")
    if isinstance(instance, TwoToOneInstance):
        if objective != "sum":
            raise DomainError(
                f"two-to-one search supports only the 'sum' objective, got {objective!r}"
            )
        tasks = [(m, f, 0) for m, f in zip(instance.marginals, instance.translators)]
        blocks, codomain = (instance.target_language,), instance.target_sentences
        return _search(tasks, blocks, codomain, 1.0, z_size, epsilon, objective)
    pairs = instance.pairs()
    if not pairs:
        raise DomainError("instance has no translation pairs to evaluate")
    languages = tuple(sorted(instance.languages))
    block = {lang: i for i, lang in enumerate(languages)}
    tasks = [
        (instance.source_marginal(s, d), instance.translators[(s, d)], block[d])
        for (s, d) in pairs
    ]
    codomain = [y for lang in languages for y in instance.sentence_pool.get(lang, ())]
    coeff = 1.0 if objective in ("sum", "max") else 1.0 / (instance.K**2)
    return _search(tasks, languages, codomain, coeff, z_size, epsilon, objective)


def _search(
    tasks: Sequence[tuple[FiniteDistribution, DeterministicTranslator, int]],
    block_names: Sequence[str],
    codomain: Sequence[Atom],
    coeff: float,
    z_size: int,
    epsilon: float,
    objective: str,
) -> BruteForceResult:
    """The one exhaustive search core; ``coeff`` scales the sum/avg objective.

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
    reproduced on the expanded tables: of the minimizing tables' first
    compatible partitions (pinned z in their blocks, free z in block 0), take
    the smallest read as a base-K number with z0 most significant, and report
    the first minimizing table compatible with it.
    """
    atoms: list[Atom] = []
    atom_task: list[int] = []
    atom_weight: list[float] = []
    truth_atoms: list[Atom] = []
    task_target = np.array([block for (_m, _f, block) in tasks])
    for t, (marginal, f, block) in enumerate(tasks):
        light = sum(float(wx) for wx in marginal.weights if wx <= WEIGHT_TOL)
        if light > WEIGHT_TOL:
            source = getattr(marginal.support[0], "source_tag", None)
            raise DomainError(
                f"task {source}->{block_names[block]}: sentences of weight at most"
                f" {WEIGHT_TOL} weigh {light!r} together, above {WEIGHT_TOL}; the"
                f" exact search needs them to stay within it"
            )
        for x, wx in marginal.items():
            atoms.append(x)
            atom_task.append(t)
            atom_weight.append(float(wx))
            truth_atoms.append(f(x))
    n_atoms = len(atoms)
    _check_budget(n_atoms, z_size)

    y_index = {y: i for i, y in enumerate(codomain)}
    n_y = len(codomain)
    if objective == "max" and n_y**z_size > 65536:
        raise BudgetError(f"{n_y}^{z_size} decoder tables exceed the enumeration budget")
    truth = np.array([y_index[y] for y in truth_atoms])
    w = np.array(atom_weight)
    n_tasks = len(tasks)
    n_blocks = len(block_names)
    heavy_block = {s: int(task_target[atom_task[s]]) for s in np.flatnonzero(w > WEIGHT_TOL)}

    def pins(tables: np.ndarray) -> np.ndarray:
        """(block, table, z): whether a heavy atom aimed at the block reaches z."""
        pinned = np.zeros((n_blocks, len(tables), z_size), dtype=bool)
        rows = np.arange(len(tables))
        for s, k in heavy_block.items():
            pinned[k, rows, tables[:, s]] = True
        return pinned

    if objective in ("sum", "avg"):
        match_weights = np.zeros((n_atoms, n_y))
        match_weights[np.arange(n_atoms), truth] = coeff * w
    else:
        decoder_tables = _encoder_tables(n_y, z_size)  # all h: Z -> codomain

    def score(tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Objective value and best decoder table of each encoder table."""
        if objective in ("sum", "avg"):
            onehot = (tables[:, :, None] == np.arange(z_size)).astype(np.float64)
            matched = np.einsum("gsz,sy->gzy", onehot, match_weights)
            return coeff * w.sum() - matched.max(axis=2).sum(axis=1), matched.argmax(axis=2)
        values = np.empty(len(tables))
        h_tables = np.empty((len(tables), z_size), dtype=int)
        for i, g_row in enumerate(tables):
            cost = np.zeros((n_tasks, z_size, n_y))
            for s in range(n_atoms):
                t = atom_task[s]
                cost[t, g_row[s], :] += w[s]
                cost[t, g_row[s], truth[s]] -= w[s]
            errs = cost[:, np.arange(z_size)[None, :], decoder_tables].sum(axis=2)
            obj = errs.max(axis=0)  # (n_h,)
            h_pos = int(np.argmin(obj))
            values[i] = obj[h_pos]
            h_tables[i] = decoder_tables[h_pos]
        return values, h_tables

    reps = _restricted_growth_tables(z_size, n_atoms)
    rows = np.arange(len(reps))
    push = np.zeros((n_tasks, len(reps), z_size))
    for s in range(n_atoms):
        push[atom_task[s], rows, reps[:, s]] += w[s]

    tv_ok = np.ones(len(reps), dtype=bool)
    for k in set(task_target.tolist()):
        task_ids = [t for t in range(n_tasks) if task_target[t] == k]
        for ta, tb in itertools.combinations(task_ids, 2):
            tv = 0.5 * np.abs(push[ta] - push[tb]).sum(axis=1)
            tv_ok &= tv <= epsilon + WEIGHT_TOL

    n_pins = pins(reps).sum(axis=0)
    feasible = tv_ok & (n_pins <= 1).all(axis=1)
    n_encoders = z_size**n_atoms
    if not feasible.any():
        return BruteForceResult(
            objective, epsilon, z_size, False, math.inf, None, None, None,
            n_encoders, 0,
        )
    n_free = (n_pins[feasible] == 0).sum(axis=1)
    n_feasible = int((_orbit_sizes(reps[feasible], z_size) * n_blocks**n_free).sum())

    # Orbit members differ in value only by rounding, so every minimizing
    # table lies in an orbit whose representative is within 1e-9 of the best.
    rep_values, _ = score(reps[feasible])
    near = reps[feasible][rep_values <= rep_values.min() + 1e-9]
    tables = _orbit_members(near, z_size)
    values, h_tables = score(tables)
    pinned = pins(tables)
    n_pins = pinned.sum(axis=0)
    # First compatible partition of each table: argmax picks the pinned
    # block, or block 0 for a free z.
    first_partition = pinned.argmax(axis=0)  # (table, z)

    # Product-order tie-break: the smallest first compatible partition over
    # the minimizers, then the first minimizer compatible with it.
    minimizers = np.flatnonzero(values == values.min())
    candidates = first_partition[minimizers]
    partition = candidates[np.argmin(candidates @ n_blocks ** np.arange(z_size - 1, -1, -1))]
    free = n_pins[minimizers] == 0
    i = int(minimizers[np.argmax(((candidates == partition) | free).all(axis=1))])

    z_names = tuple(f"z{z}" for z in range(z_size))
    encoder = DeterministicTranslator(
        {atoms[s]: z_names[tables[i, s]] for s in range(n_atoms)}
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
        blocks, n_encoders, n_feasible,
    )


# ---------------------------------------------------------------------------
# Random instances for soundness experiments


def random_two_to_one_instance(
    rng: np.random.Generator,
    max_sentences: int = 3,
    max_targets: int = 3,
) -> TwoToOneInstance:
    """Random small instance: marginal weights and translator tables drawn uniformly."""
    n0 = int(rng.integers(1, max_sentences + 1))
    n1 = int(rng.integers(1, max_sentences + 1))
    nt = int(rng.integers(1, max_targets + 1))
    a = tuple(Sentence("L0", f"a{i}") for i in range(n0))
    b = tuple(Sentence("L1", f"b{i}") for i in range(n1))
    y = tuple(Sentence("L", f"y{i}") for i in range(nt))

    def _weights(n: int) -> np.ndarray:
        raw = rng.random(n) + 0.05
        return raw / raw.sum()

    return TwoToOneInstance(
        source_languages=("L0", "L1"),
        target_language="L",
        marginals=(
            FiniteDistribution(a, _weights(n0)),
            FiniteDistribution(b, _weights(n1)),
        ),
        translators=(
            DeterministicTranslator({s: y[rng.integers(nt)] for s in a}),
            DeterministicTranslator({s: y[rng.integers(nt)] for s in b}),
        ),
        target_sentences=y,
    )


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
    return ManyToManyInstance.from_marginals(
        languages, marginals, translators, pool
    )
