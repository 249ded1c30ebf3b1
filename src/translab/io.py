"""File schemas: instance/graph/codec/corpus/encoder documents plus CSV emission.

JSON carries structured inputs and summaries, CSV carries tabular results.
All text output is UTF-8 with LF line endings and full-precision floats
(``repr``), so identical runs emit byte-identical files. Every writer fills a
temporary file beside its target and then renames it over the target, so an
interrupted write leaves the earlier file intact.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import zipfile
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .affine import AffineMap
from .distributions import DeterministicTranslator, FiniteDistribution, Sentence
from .errors import ConditioningError, GraphError, SchemaError
from .evaluation import PairEvalRecord, SweepRow
from .generative import (
    AlignedCorpus,
    FunctionClassSpec,
    RandomizedCodec,
    TranslationGraph,
)
from .impossibility import BoundReport, ManyToManyInstance, TwoToOneInstance
from .trainer import EdgeRegressionResult, EncoderEstimate


def _read_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise
    except IsADirectoryError as exc:
        raise SchemaError(f"{path}: is a directory, not a JSON file") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc


@contextlib.contextmanager
def _atomic_open(path, mode: str, **kwargs):
    """Open a temporary file beside ``path`` that replaces ``path`` once closed cleanly."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_json(payload: dict, path) -> None:
    with _atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Instances


def _sentence_entry(sentence: Sentence):
    if sentence.target_tag is None:
        return sentence.body
    return [sentence.target_tag, sentence.body]


def _parse_sentence(lang: str, entry, languages) -> Sentence:
    if isinstance(entry, str):
        return Sentence(lang, entry)
    if (
        isinstance(entry, (list, tuple))
        and len(entry) == 2
        and all(isinstance(part, str) for part in entry)
    ):
        if entry[0] not in languages:
            raise SchemaError(
                f"sentence {entry!r} of {lang!r} is tagged for unknown language {entry[0]!r}"
            )
        return Sentence(lang, entry[1], target_tag=entry[0])
    raise SchemaError(f"sentence entry for {lang!r} must be an id or [target, id]: {entry!r}")


def _parse_pair_key(key: str) -> tuple[str, str]:
    if "->" not in key:
        raise SchemaError(f"translator key {key!r} must look like 'src->dst'")
    src, dst = key.split("->", 1)
    return src, dst


def instance_to_dict(instance) -> dict:
    if isinstance(instance, TwoToOneInstance):
        l0, l1 = instance.source_languages
        target = instance.target_language
        sentences = {
            l0: [s.body for s in instance.marginals[0].support],
            l1: [s.body for s in instance.marginals[1].support],
            target: [s.body for s in instance.target_sentences],
        }
        translators = {}
        for lang, f in zip(instance.source_languages, instance.translators):
            translators[f"{lang}->{target}"] = {
                s.body: f(s).body for s in f.domain
            }
        return {
            "languages": [l0, l1, target],
            "sentences": sentences,
            "marginals": {
                l0: [float(w) for w in instance.marginals[0].weights],
                l1: [float(w) for w in instance.marginals[1].weights],
            },
            "translators": translators,
        }
    if isinstance(instance, ManyToManyInstance):
        targets_of: dict[str, list[str]] = {}
        for (src, dst) in instance.pairs():
            targets_of.setdefault(src, []).append(dst)
        sentences: dict[str, list] = {lang: [] for lang in instance.languages}
        marginals: dict[str, list[float]] = {}
        for lang in instance.languages:
            weights = []
            share = 1.0 / len(targets_of[lang]) if lang in targets_of else 0.0
            for dst in sorted(targets_of.get(lang, [])):
                marginal = instance.source_marginal(lang, dst)
                for atom, w in marginal.items():
                    sentences[lang].append(_sentence_entry(atom))
                    weights.append(float(w) * share)
            for atom in instance.sentence_pool.get(lang, ()):
                sentences[lang].append(_sentence_entry(atom))
                weights.append(0.0)
            if lang in targets_of:
                marginals[lang] = weights
        translators = {
            f"{src}->{dst}": {
                x.body: instance.translators[(src, dst)](x).body
                for x in instance.source_marginal(src, dst).support
            }
            for (src, dst) in instance.pairs()
        }
        return {
            "languages": list(instance.languages),
            "sentences": sentences,
            "marginals": marginals,
            "translators": translators,
        }
    raise TypeError(f"unsupported instance type: {type(instance)!r}")


def _instance_weights(lang: str, raw) -> list[float]:
    """One language's raw marginal weights, each a finite nonnegative number."""
    if not isinstance(raw, list):
        raise SchemaError(f"marginal for {lang!r} must be a list of weights")
    weights = []
    for i, w in enumerate(raw):
        if isinstance(w, bool) or not isinstance(w, (int, float)):
            raise SchemaError(f"marginal for {lang!r} weight {i} is not a number: {w!r}")
        try:
            value = float(w)
        except OverflowError:
            value = float("inf")
        if not np.isfinite(value) or value < 0:
            raise SchemaError(
                f"marginal for {lang!r} weight {i} must be finite and nonnegative, got {w!r}"
            )
        weights.append(value)
    return weights


def instance_from_dict(payload):
    """Build an instance from its document; any defect raises ``SchemaError``."""
    try:
        return _build_instance(payload)
    except SchemaError:
        raise
    except ValueError as exc:  # from the instance and distribution constructors
        raise SchemaError(f"invalid instance: {exc}") from exc


def _build_instance(payload):
    if not isinstance(payload, dict):
        raise SchemaError("instance document must be a JSON object")
    try:
        languages = payload["languages"]
        raw_sentences = payload["sentences"]
        raw_marginals = payload.get("marginals", payload.get("distributions"))
        raw_translators = payload["translators"]
    except KeyError as exc:
        raise SchemaError(f"instance document missing key {exc}") from exc
    if raw_marginals is None:
        raise SchemaError("instance document missing key 'marginals'")
    if not isinstance(languages, list) or not all(isinstance(l, str) for l in languages):
        raise SchemaError("'languages' must be a list of language ids")
    if not isinstance(raw_sentences, dict) or not all(
        isinstance(entries, list) for entries in raw_sentences.values()
    ):
        raise SchemaError("'sentences' must map each language to a list of sentences")
    if not isinstance(raw_marginals, dict):
        raise SchemaError("'marginals' must map each language to a list of weights")
    raw_marginals = {lang: _instance_weights(lang, raw) for lang, raw in raw_marginals.items()}
    if not isinstance(raw_translators, dict):
        raise SchemaError("'translators' must map 'src->dst' keys to tables")
    for key, table in raw_translators.items():
        if not isinstance(table, dict) or not all(isinstance(v, str) for v in table.values()):
            raise SchemaError(f"translator {key!r} must map sentence ids to sentence ids")

    sentences: dict[str, list[Sentence]] = {}
    for lang in languages:
        sentences[lang] = [
            _parse_sentence(lang, entry, languages) for entry in raw_sentences.get(lang, [])
        ]
        if len(set(sentences[lang])) != len(sentences[lang]):
            raise SchemaError(f"sentences for {lang!r} list a sentence twice")
    pair_keys = sorted(_parse_pair_key(k) for k in raw_translators)
    for src, dst in pair_keys:
        if src not in languages or dst not in languages:
            raise SchemaError(f"translator pair {src}->{dst} references unknown language")

    targets = {dst for _src, dst in pair_keys}
    sources = {src for src, _dst in pair_keys}
    tagged = any(s.target_tag is not None for lang in languages for s in sentences[lang])
    two_to_one = (
        not tagged
        and len(targets) == 1
        and len(sources) == 2
        and set(raw_marginals) == sources
    )

    if two_to_one:
        target = targets.pop()
        l0, l1 = sorted(sources)
        marginals = []
        translators = []
        for lang in (l0, l1):
            atoms = sentences[lang]
            weights = raw_marginals[lang]
            if len(weights) != len(atoms):
                raise SchemaError(
                    f"marginal for {lang!r} has {len(weights)} weights for {len(atoms)} sentences"
                )
            marginals.append(FiniteDistribution(tuple(atoms), np.array(weights)))
            table = raw_translators[f"{lang}->{target}"]
            target_by_body = {s.body: s for s in sentences[target]}
            mapping = {}
            for atom in atoms:
                if atom.body not in table:
                    raise SchemaError(f"translator {lang}->{target} misses {atom.body!r}")
                image_body = table[atom.body]
                if image_body not in target_by_body:
                    raise SchemaError(
                        f"translator {lang}->{target} maps to unknown sentence {image_body!r}"
                    )
                mapping[atom] = target_by_body[image_body]
            translators.append(DeterministicTranslator(mapping))
        return TwoToOneInstance(
            source_languages=(l0, l1),
            target_language=target,
            marginals=tuple(marginals),
            translators=tuple(translators),
            target_sentences=tuple(sentences[target]),
        )

    # Many-to-many: per-language marginals over tagged sentences; conditioning
    # on the target tag recovers each ordered pair's source marginal.
    pool = {
        lang: tuple(s for s in sentences[lang] if s.target_tag is None)
        for lang in languages
    }
    pair_marginals = {}
    translators = {}
    for src, dst in pair_keys:
        weights = raw_marginals.get(src)
        if weights is None:
            raise SchemaError(f"no marginal for source language {src!r}")
        if len(weights) != len(sentences[src]):
            raise SchemaError(
                f"marginal for {src!r} has {len(weights)} weights for {len(sentences[src])} sentences"
            )
        atoms = [s for s in sentences[src] if s.target_tag == dst]
        if not atoms:
            raise SchemaError(f"no sentences of {src!r} tagged for target {dst!r}")
        index = {s: w for s, w in zip(sentences[src], weights)}
        mass = sum(index[a] for a in atoms)
        if mass <= 0:
            raise SchemaError(f"pair {src}->{dst} has zero marginal mass")
        pair_marginals[(src, dst)] = FiniteDistribution(
            tuple(atoms), np.array([index[a] / mass for a in atoms])
        )
        table = raw_translators[f"{src}->{dst}"]
        dst_by_body = {s.body: s for s in pool[dst]}
        mapping = {}
        for atom in atoms:
            if atom.body not in table:
                raise SchemaError(f"translator {src}->{dst} misses {atom.body!r}")
            image_body = table[atom.body]
            if image_body not in dst_by_body:
                raise SchemaError(
                    f"translator {src}->{dst} maps to unknown sentence {image_body!r}"
                )
            mapping[atom] = dst_by_body[image_body]
        translators[(src, dst)] = DeterministicTranslator(mapping)
    return ManyToManyInstance.from_marginals(
        languages, pair_marginals, translators, pool
    )


def load_instance(path):
    """Read an instance document; every defect is a ``SchemaError`` naming the file."""
    payload = _read_json(path)
    try:
        return instance_from_dict(payload)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def save_instance(instance, path) -> None:
    _write_json(instance_to_dict(instance), path)


# ---------------------------------------------------------------------------
# Graphs, codecs, corpora, encoders


def load_graph(path) -> TranslationGraph:
    """Read a graph document, naming the file and the edge of any defect."""
    payload = _read_json(path)
    try:
        return TranslationGraph.from_dict(payload)
    except (SchemaError, GraphError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def save_graph(graph: TranslationGraph, path) -> None:
    _write_json(graph.to_dict(), path)


def save_codecs(
    codecs: Mapping[str, RandomizedCodec], spec: FunctionClassSpec, path
) -> None:
    """Write codecs that share one noise setting, which the document records once."""
    settings = {(codec.sigma, codec.nuisance_dim) for codec in codecs.values()}
    if len(settings) != 1:
        raise ValueError("codecs must share one sigma and nuisance_dim")
    ((sigma, nuisance_dim),) = settings
    payload = {
        "spec": spec.to_dict(),
        "sigma": sigma,
        "nuisance_dim": nuisance_dim,
        "codecs": {
            lang: {"W": codec.W.tolist(), "b": codec.b.tolist()}
            for lang, codec in sorted(codecs.items())
        },
    }
    _write_json(payload, path)


def _spec(path, raw) -> FunctionClassSpec:
    try:
        return FunctionClassSpec.from_dict(raw)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: malformed 'spec': {exc}") from exc


def _array_field(path, owner: str, entry, name: str, ndim: int) -> np.ndarray:
    """``entry[name]`` as a finite float array; ``owner`` names the entry in messages."""
    try:
        value = np.array(entry[name], dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(
            f"{path}: {owner} field {name!r} is missing or not numeric: {exc}"
        ) from exc
    if value.ndim != ndim:
        raise SchemaError(
            f"{path}: {owner} field {name!r} must have {ndim} dimension(s),"
            f" got shape {value.shape}"
        )
    if not np.all(np.isfinite(value)):
        raise SchemaError(f"{path}: {owner} field {name!r} has a non-finite entry")
    return value


def load_codecs(path) -> tuple[FunctionClassSpec, dict[str, RandomizedCodec]]:
    """Read a codec document, naming the file, codec and field of any defect."""
    payload = _read_json(path)
    try:
        raw_spec = payload["spec"]
        sigma = float(payload.get("sigma", 0.0))
        nuisance = int(payload.get("nuisance_dim", 0))
        entries = dict(payload["codecs"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: malformed codec document: {exc}") from exc
    spec = _spec(path, raw_spec)
    if not np.isfinite(sigma):
        raise SchemaError(f"{path}: codec field 'sigma' is not finite: {sigma}")
    codecs = {}
    for lang, entry in entries.items():
        W = _array_field(path, f"codec {lang!r}", entry, "W", 2)
        b = _array_field(path, f"codec {lang!r}", entry, "b", 1)
        try:
            codec = RandomizedCodec(W, b, nuisance, sigma)
        except ValueError as exc:
            raise SchemaError(f"{path}: malformed codec {lang!r}: {exc}") from exc
        if codec.latent_dim != spec.dim:
            raise SchemaError(
                f"{path}: codec {lang!r} has latent dimension {codec.latent_dim}"
                f" ('W' rows minus nuisance_dim), but the spec's 'd' is {spec.dim}"
            )
        codecs[lang] = codec
    return spec, codecs


def save_corpus(corpus: AlignedCorpus, path) -> None:
    # Through a file handle, np.savez keeps the name as given (no ".npz" added).
    with _atomic_open(path, "wb") as fh:
        np.savez(
            fh,
            pairs=corpus.pairs,
            edge=np.array(list(corpus.edge)),
            meta=np.array(json.dumps(dict(corpus.meta), sort_keys=True)),
        )


def load_corpus(path) -> AlignedCorpus:
    """Read a corpus NPZ, naming the file and the field of any defect."""
    try:
        npz = np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise SchemaError(f"{path}: not an NPZ corpus file: {exc}") from exc
    if not isinstance(npz, np.lib.npyio.NpzFile):
        raise SchemaError(f"{path}: not an NPZ corpus file")
    fields = {}
    with npz:
        for name in ("pairs", "edge", "meta"):
            try:
                fields[name] = npz[name]
            except (KeyError, ValueError, zipfile.BadZipFile) as exc:
                raise SchemaError(f"{path}: corpus field {name!r} is unreadable: {exc}") from exc
    pairs = fields["pairs"]
    if (
        pairs.dtype.kind not in "iuf"
        or pairs.ndim != 3
        or pairs.shape[1] != 2
        or pairs.size == 0
    ):
        raise SchemaError(
            f"{path}: corpus field 'pairs' must be a numeric (n, 2, dim) array"
            f" with n, dim >= 1, got {pairs.dtype} of shape {pairs.shape}"
        )
    if not np.all(np.isfinite(pairs)):
        raise SchemaError(f"{path}: corpus field 'pairs' has a non-finite entry")
    raw_edge = fields["edge"]
    edge = tuple(str(x) for x in np.ravel(raw_edge))
    if raw_edge.dtype.kind != "U" or len(edge) != 2:
        raise SchemaError(
            f"{path}: corpus field 'edge' must name two languages, got {raw_edge!r}"
        )
    try:
        meta = json.loads(str(fields["meta"][()]))
    except ValueError as exc:
        raise SchemaError(f"{path}: corpus field 'meta' is not JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise SchemaError(f"{path}: corpus field 'meta' must be a JSON object")
    return AlignedCorpus(edge, pairs, meta)


def corpus_filename(edge: tuple[str, str]) -> str:
    return f"corpus_{edge[0]}__{edge[1]}.npz"


def save_encoders(
    estimate: EncoderEstimate, path, spec: FunctionClassSpec | None = None
) -> None:
    payload = estimate.to_dict()
    payload["spec"] = None if spec is None else spec.to_dict()
    _write_json(payload, path)


def load_encoders(path) -> tuple[EncoderEstimate, FunctionClassSpec | None]:
    """Read an encoder document, naming the file, language and field of any defect."""
    payload = _read_json(path)
    try:
        entries = dict(payload["encoders"])
        anchor = payload.get("anchor")
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed encoder document: {exc}") from exc
    if anchor is not None and not isinstance(anchor, str):
        raise SchemaError(f"{path}: 'anchor' must be a language id or null, got {anchor!r}")
    encoders = {}
    for lang, entry in entries.items():
        W = _array_field(path, f"encoder {lang!r}", entry, "W", 2)
        b = _array_field(path, f"encoder {lang!r}", entry, "b", 1)
        if W.shape[0] != W.shape[1] or b.shape[0] != W.shape[0]:
            raise SchemaError(
                f"{path}: encoder {lang!r} needs a square 'W' and a matching 'b',"
                f" got shapes {W.shape} and {b.shape}"
            )
        encoders[lang] = AffineMap(W, b)
    if len({enc.dim for enc in encoders.values()}) > 1:
        raise SchemaError(f"{path}: encoders disagree on dimension")
    try:
        estimate = EncoderEstimate(encoders, anchor)
    except (ConditioningError, ValueError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    spec = payload.get("spec")
    return estimate, None if spec is None else _spec(path, spec)


# ---------------------------------------------------------------------------
# CSV / JSON result emission


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path, header: Sequence[str], rows) -> None:
    with _atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_bound_report_csv(reports: Sequence[BoundReport], path) -> None:
    header = [
        "instance_id",
        "epsilon",
        "tv_max",
        "bound_sum",
        "bound_max",
        "bound_avg",
        "bf_value",
        "holds",
    ]
    rows = [
        (
            r.instance_id,
            r.epsilon,
            r.tv_max,
            r.bound_sum,
            r.bound_max,
            r.bound_avg,
            r.bf_value,
            r.holds,
        )
        for r in reports
    ]
    _write_csv(path, header, rows)


def bound_report_to_dict(report: BoundReport) -> dict:
    return {
        "instance_id": report.instance_id,
        "epsilon": report.epsilon,
        "kind": report.kind,
        "pair_tvs": [
            {"target": t, "source_a": a, "source_b": b, "tv": tv}
            for t, a, b, tv in report.pair_tvs
        ],
        "tv_max": report.tv_max,
        "bound_sum": report.bound_sum,
        "bound_max": report.bound_max,
        "bound_avg": report.bound_avg,
        "bf_value": report.bf_value,
        "bf_objective": report.bf_objective,
        "holds": report.holds,
    }


def write_pair_eval_csv(records: Sequence[PairEvalRecord], path) -> None:
    header = [
        "src",
        "dst",
        "path_len",
        "path",
        "measured_loss",
        "rho_hat",
        "bound",
        "holds",
    ]
    rows = [
        (
            r.src,
            r.dst,
            r.path_len,
            "->".join(r.path),
            r.measured_loss,
            r.rho_hat,
            r.bound,
            r.holds,
        )
        for r in records
    ]
    _write_csv(path, header, rows)


def write_sweep_csv(rows: Sequence[SweepRow], path) -> None:
    header = ["n", "trial", "empirical_loss", "population_loss", "gap"]
    _write_csv(
        path,
        header,
        [(r.n, r.trial, r.empirical_loss, r.population_loss, r.gap) for r in rows],
    )


def write_edge_loss_csv(results: Sequence[EdgeRegressionResult], path) -> None:
    header = ["edge_a", "edge_b", "n", "empirical_loss"]
    _write_csv(
        path,
        header,
        [(r.edge[0], r.edge[1], r.n, r.empirical_loss) for r in results],
    )


def write_summary_json(payload: dict, path) -> None:
    _write_json(payload, path)
