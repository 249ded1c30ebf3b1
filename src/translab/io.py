"""Every file layout: instance/graph/codec/corpus/encoder documents plus CSV emission.

No other module reads or writes files. JSON carries structured inputs and
summaries, CSV tabular results. All text output is UTF-8 with LF line endings
and full-precision floats (``repr``), so identical runs emit byte-identical
files. Every writer fills a temporary file beside its target and then renames
it over the target, so an interrupted write leaves the earlier file intact.
Every loader's ``SchemaError`` starts with the file's path.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import math
import os
import struct
import zipfile
import zlib
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .affine import AffineMap
from .distributions import WEIGHT_TOL, DeterministicTranslator, FiniteDistribution, Sentence
from .errors import ConditioningError, GraphError, SchemaError
from .evaluation import PairEvalRecord, SweepRow
from .generative import (
    ROW_BLOCK,
    AlignedCorpus,
    FunctionClassSpec,
    RandomizedCodec,
    TranslationGraph,
    _halves,
    _on_two_threads,
    _row_blocks,
    corpus_rows,
)
from .impossibility import BoundReport, ManyToManyInstance
from .trainer import EdgeRegressionResult, EncoderEstimate


@contextlib.contextmanager
def _naming(where):
    """Re-raise a ``SchemaError`` or ``GraphError`` from inside as one naming ``where``."""
    try:
        yield
    except (SchemaError, GraphError) as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; a repeated key, which ``dict`` would merge, raises."""
    payload = dict(pairs)
    if len(payload) != len(pairs):
        keys = [key for key, _ in pairs]
        repeat = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise SchemaError(f"JSON object repeats key {repeat!r}")
    return payload


def _read_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except IsADirectoryError as exc:
        raise SchemaError("is a directory, not a JSON file") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc


def _document(payload, kind: str, keys: Sequence[str]) -> list:
    """The values under ``keys`` of a ``kind`` document, a JSON object holding these keys alone."""
    if not isinstance(payload, dict):
        raise SchemaError(f"{kind} document must be a JSON object")
    for key in keys:
        if key not in payload:
            raise SchemaError(f"{kind} document missing key {key!r}")
    for key in payload:
        if key not in keys:
            raise SchemaError(f"{kind} document has unknown key {key!r}")
    return [payload[key] for key in keys]


def _integer(value, name: str) -> int:
    """``value`` if it is a JSON integer (a bool is not); else ``SchemaError`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"field {name!r} must be a JSON integer, got {value!r}")
    return value


def _number(value, name: str) -> float:
    """``value`` as a float if it is a JSON number (a bool or string is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"field {name!r} must be a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(f"field {name!r} is too large for a float") from None


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


def _check_language_id(lang: str) -> None:
    """Reject an id holding ``->``, which separates the two ids of a ``src->dst`` key or path."""
    if "->" in lang:
        raise SchemaError(f"language id {lang!r} holds '->', which 'src->dst' keys reserve")


def _parse_pair_key(key: str) -> tuple[str, str]:
    if "->" not in key:
        raise SchemaError(f"pair key {key!r} must look like 'src->dst'")
    src, dst = key.split("->", 1)
    return src, dst


def instance_to_dict(instance: ManyToManyInstance) -> dict:
    """The instance's document: each language's pool, and each pair's rows.

    A ``src->dst`` pair lists one ``[sentence, weight, translation]`` row per
    atom of its marginal, in support order and with the weight as it is.
    What the reader could not read back, a language id holding ``->`` or a
    pool sentence that has a target tag or is listed twice, raises
    ``SchemaError`` (a ``ValueError``) before anything is written.
    """
    for lang in instance.languages:
        _check_language_id(lang)
    pools = {lang: [y.body for y in pool] for lang, pool in instance.sentence_pool.items()}
    for lang, pool in instance.sentence_pool.items():
        for y in pool:
            if y.target_tag is not None:
                raise SchemaError(f"pool sentence {y!r} of {lang!r} carries a target tag")
        if len(set(pools[lang])) != len(pool):
            raise SchemaError(f"pool of {lang!r} lists a sentence twice")
    pairs = {}
    for (src, dst) in instance.tasks.pairs:
        marginal, f = instance.marginals[(src, dst)], instance.translators[(src, dst)]
        pairs[f"{src}->{dst}"] = [
            [x.body, w, f(x).body] for x, w in zip(marginal.support, marginal.weights.tolist())
        ]
    return {"languages": list(instance.languages), "pools": pools, "pairs": pairs}


def instance_from_dict(payload):
    """Build an instance from its document; any defect raises ``SchemaError``."""
    try:
        return _build_instance(payload)
    except SchemaError:
        raise
    except ValueError as exc:  # from the instance and distribution constructors
        raise SchemaError(f"invalid instance: {exc}") from exc


def _build_instance(payload):
    """Read the layout ``instance_to_dict`` writes and nothing else: no content is dropped."""
    languages, pool_ids, raw_pairs = _document(payload, "instance", ("languages", "pools", "pairs"))
    if not isinstance(languages, list) or not all(isinstance(l, str) for l in languages):
        raise SchemaError("'languages' must be a list of language ids")
    if len(languages) < 2:
        raise SchemaError(f"'languages' must name at least two languages, got {languages}")
    for lang in languages:
        _check_language_id(lang)
    if not isinstance(pool_ids, dict):
        raise SchemaError("'pools' must map each language to a list of sentence ids")
    if set(pool_ids) != set(languages):
        raise SchemaError(
            f"'pools' has the keys {sorted(pool_ids)}, not the languages {sorted(languages)}"
        )
    pools: dict[str, dict[Sentence, None]] = {}
    for lang in languages:
        ids = pool_ids[lang]
        if not isinstance(ids, list) or not all(isinstance(y, str) for y in ids):
            raise SchemaError(f"pool of {lang!r} must be a list of sentence ids, got {ids!r}")
        pools[lang] = dict.fromkeys(Sentence(lang, y) for y in ids)
        if len(pools[lang]) != len(ids):
            repeat = next(y for i, y in enumerate(ids) if y in ids[:i])
            raise SchemaError(f"pool of {lang!r} lists {repeat!r} twice")
    if not isinstance(raw_pairs, dict):
        raise SchemaError("'pairs' must map 'src->dst' keys to lists of rows")

    marginals, translators = {}, {}
    for key, rows in raw_pairs.items():
        src, dst = _parse_pair_key(key)
        if src not in languages or dst not in languages:
            unknown = dst if src in languages else src
            raise SchemaError(f"pair {key!r} names unknown language {unknown!r}")
        if not isinstance(rows, list):
            raise SchemaError(f"pair {key!r} must be a list of rows, got {rows!r}")
        mapping, weights = {}, []
        for i, row in enumerate(rows):
            with _naming(f"pair {key!r} row {i}"):
                if not (isinstance(row, list) and len(row) == 3
                        and isinstance(row[0], str) and isinstance(row[2], str)):
                    raise SchemaError(f"must be [sentence, weight, translation], got {row!r}")
                x, y = Sentence(src, row[0], target_tag=dst), Sentence(dst, row[2])
                weight = _number(row[1], "weight")
                if not math.isfinite(weight) or weight < 0:
                    raise SchemaError(f"weight must be finite and nonnegative, got {row[1]!r}")
                if y not in pools[dst]:
                    raise SchemaError(f"translation {row[2]!r} is not in the pool of {dst!r}")
                if x in mapping:
                    raise SchemaError(f"sentence {row[0]!r} already has a row")
            mapping[x] = y
            weights.append(weight)
        total = math.fsum(weights)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise SchemaError(f"pair {key!r} weights sum to {total!r}, expected 1")
        marginals[(src, dst)] = FiniteDistribution(tuple(mapping), np.array(weights))
        translators[(src, dst)] = DeterministicTranslator(mapping)
    return ManyToManyInstance(languages, marginals, translators, pools)


def load_instance(path):
    """Read an instance document; every defect is a ``SchemaError`` naming the file."""
    with _naming(path):
        return instance_from_dict(_read_json(path))


def save_instance(instance: ManyToManyInstance, path) -> None:
    _write_json(instance_to_dict(instance), path)


# ---------------------------------------------------------------------------
# Graphs, codecs, corpora, encoders


def load_graph(path) -> TranslationGraph:
    """Read a graph document, naming the file and the edge or language id of any defect."""
    with _naming(path):
        languages, entries = _document(_read_json(path), "graph", ("languages", "edges"))
        if not (isinstance(languages, list) and isinstance(entries, list)):
            raise SchemaError("graph document needs a 'languages' list and an 'edges' list")
        if not languages:
            raise SchemaError("graph document lists no languages")
        for lang in languages:
            if not isinstance(lang, str):
                raise SchemaError(f"language id {lang!r} is not a string")
            if any(c in lang for c in ("/", os.sep, "\0")):
                raise SchemaError(f"language id {lang!r} holds a path separator or NUL")
            _check_language_id(lang)
        edges = []
        for i, entry in enumerate(entries):
            a, b, n = _document(entry, f"edge {i}", ("a", "b", "n"))
            if not (isinstance(a, str) and isinstance(b, str)):
                raise SchemaError(
                    f"edge {i} needs language ids 'a' and 'b', got {a!r} and {b!r}"
                )
            if isinstance(n, bool) or not isinstance(n, int) or n < 0:
                raise SchemaError(
                    f"edge {a}->{b} has n={n!r}; n must be a non-negative integer"
                )
            edges.append((a, b, n))
        graph = TranslationGraph(tuple(languages), tuple(edges))
        edge_of: dict[str, tuple[str, str]] = {}
        for edge in graph.edge_pairs():
            name = corpus_filename(edge)
            if edge_of.setdefault(name, edge) != edge:
                raise SchemaError(
                    f"edges {edge_of[name]} and {edge} both store their corpus in {name}"
                )
        return graph


def save_graph(graph: TranslationGraph, path) -> None:
    _write_json(graph.to_dict(), path)


def spec_to_dict(spec: FunctionClassSpec) -> dict:
    """The spec's document, as codec, encoder and summary files record it."""
    return {"d": spec.dim, "B": spec.radius, "rho": spec.rho, "offset_bound": spec.offset_bound}


def _spec(raw) -> FunctionClassSpec:
    try:
        return FunctionClassSpec(
            dim=_integer(raw["d"], "d"),
            radius=_number(raw["B"], "B"),
            rho=_number(raw["rho"], "rho"),
            offset_bound=_number(raw["offset_bound"], "offset_bound"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed 'spec': {exc}") from exc


def _affine_entry(m: AffineMap) -> dict:
    return {"W": m.linear.tolist(), "b": m.offset.tolist()}


def save_codecs(
    codecs: Mapping[str, RandomizedCodec], spec: FunctionClassSpec, path
) -> None:
    """Write codecs that share one noise setting, which the document records once."""
    stack = RandomizedCodec.stack(list(codecs.values()))
    payload = {
        "spec": spec_to_dict(spec),
        "sigma": stack.sigma,
        "nuisance_dim": stack.nuisance_dim,
        "codecs": {
            lang: _affine_entry(codec.decoder) for lang, codec in sorted(codecs.items())
        },
    }
    _write_json(payload, path)


def _leaves(value):
    """The leaves of nested JSON lists, ``value`` itself if it is not a list."""
    if not isinstance(value, list):
        yield value
        return
    for item in value:
        yield from _leaves(item)


def _array_field(owner: str, entry, name: str, ndim: int) -> np.ndarray:
    """``entry[name]``, JSON numbers only, as a finite float array; ``owner`` names the entry."""
    if not isinstance(entry, dict) or name not in entry:
        raise SchemaError(f"{owner} field {name!r} is missing")
    for leaf in _leaves(entry[name]):
        if isinstance(leaf, bool) or not isinstance(leaf, (int, float)):
            raise SchemaError(f"{owner} field {name!r} holds {leaf!r}, not a JSON number")
    try:
        value = np.array(entry[name], dtype=np.float64)
    except (ValueError, OverflowError) as exc:
        raise SchemaError(f"{owner} field {name!r} is not a numeric array: {exc}") from exc
    if value.ndim != ndim:
        raise SchemaError(
            f"{owner} field {name!r} must have {ndim} dimension(s), got shape {value.shape}"
        )
    if not np.all(np.isfinite(value)):
        raise SchemaError(f"{owner} field {name!r} has a non-finite entry")
    return value


def load_codecs(path) -> tuple[FunctionClassSpec, dict[str, RandomizedCodec]]:
    """Read a codec document, naming the file, codec and field of any defect."""
    with _naming(path):
        raw_spec, sigma, nuisance, entries = _document(
            _read_json(path), "codec", ("spec", "sigma", "nuisance_dim", "codecs")
        )
        if not isinstance(entries, dict):
            raise SchemaError("codec field 'codecs' must map language ids to codecs")
        try:
            sigma = _number(sigma, "sigma")
            nuisance = _integer(nuisance, "nuisance_dim")
        except SchemaError as exc:
            raise SchemaError(f"codec {exc}") from exc
        spec = _spec(raw_spec)
        if not np.isfinite(sigma):
            raise SchemaError(f"codec field 'sigma' is not finite: {sigma}")
        decoders = {}
        for lang, entry in entries.items():
            W = _array_field(f"codec {lang!r}", entry, "W", 2)
            b = _array_field(f"codec {lang!r}", entry, "b", 1)
            if W.shape[0] != W.shape[1]:
                raise SchemaError(f"malformed codec {lang!r}: 'W' must be square, got {W.shape}")
            try:
                decoders[lang] = AffineMap(W, b)
            except ValueError as exc:
                raise SchemaError(f"malformed codec {lang!r}: {exc}") from exc
            if decoders[lang].dim - nuisance != spec.dim:
                raise SchemaError(
                    f"codec {lang!r} has latent dimension {decoders[lang].dim - nuisance}"
                    f" ('W' rows minus nuisance_dim), but the spec's 'd' is {spec.dim}"
                )
        if not decoders:
            return spec, {}
        # Every decoder now has the spec's size: one codec stack checks them all.
        stack = AffineMap.stack(list(decoders.values()))
        try:
            codecs = RandomizedCodec(stack, nuisance, sigma)
        except ValueError as exc:
            # Singularity is checked first; a bad setting names the first codec.
            singular = [lang for lang, ok in zip(decoders, stack.nonsingular) if not ok]
            raise SchemaError(f"malformed codec {(singular or [*decoders])[0]!r}: {exc}") from exc
        return spec, {lang: codecs[i] for i, lang in enumerate(decoders)}


def write_corpus(path, edge: tuple[str, str], meta: Mapping, n: int, dim: int, fill) -> None:
    """Write a corpus NPZ of n pairs (x, y) in R^dim, filled a row block at a time.

    The file holds the pairs as one (n, 2, dim) float64 array, a layout no
    other module knows. For each ``_row_blocks(n)`` slice ``rows``,
    ``fill(rows, x, y)`` writes those pairs' sources into x and targets into
    y, both (rows, dim) views of one reused block, whose buffer is then
    written, so no array of all the pairs is needed. The file is byte for
    byte what ``np.savez`` writes for ``pairs``, ``edge`` and ``meta``: the
    same members, ``.npy`` headers and fixed 1980 member timestamps. n or
    dim below 1, which ``load_corpus`` rejects, is a ``ValueError`` before
    anything is written.
    """
    if n < 1 or dim < 1:
        raise ValueError(f"a corpus needs n, dim >= 1, got n={n} and dim={dim}")
    shape = (int(n), 2, int(dim))  # the header holds Python ints
    descr = np.lib.format.dtype_to_descr(np.dtype(np.float64))
    header = {"descr": descr, "fortran_order": False, "shape": shape}
    block = np.empty((min(n, ROW_BLOCK + 1), 2, dim))
    with _atomic_open(path, "wb") as fh, zipfile.ZipFile(fh, "w", allowZip64=True) as npz:
        with npz.open("pairs.npy", "w", force_zip64=True) as member:
            np.lib.format.write_array_header_1_0(member, header)
            for rows in _row_blocks(n):
                pairs = block[: rows.stop - rows.start]
                fill(rows, pairs[:, 0], pairs[:, 1])
                member.write(pairs)
        for name, value in (
            ("edge", np.array(list(edge))),
            ("meta", np.array(json.dumps(dict(meta), sort_keys=True))),
        ):
            with npz.open(f"{name}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array(member, value)


def save_corpus(corpus: AlignedCorpus, path) -> None:
    """``write_corpus`` of the corpus's source and target points."""

    def fill(rows, x, y):
        x[...] = corpus.source_points[rows]
        y[...] = corpus.target_points[rows]

    write_corpus(path, corpus.edge, corpus.meta, corpus.n, corpus.dim, fill)


#: A ZIP member's local file header: its signature, 22 bytes whose values
#: the central directory also holds, and the lengths of the name and the
#: extra field that follow it, before the member's data.
_LOCAL_HEADER = struct.Struct("<4s22xHH")


def load_corpus(path) -> AlignedCorpus:
    """Read a corpus NPZ, naming the file and the field of any defect.

    Only the layout ``write_corpus`` and ``np.savez`` write is read; the
    ``pairs`` member goes straight into the corpus's rows (``_read_rows``).
    """
    with _naming(path):
        try:
            fh = open(path, "rb")
        except FileNotFoundError:
            raise
        except OSError as exc:
            raise SchemaError(f"not an NPZ corpus file: {exc}") from exc
        with fh:
            try:
                npz = zipfile.ZipFile(fh)
            except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
                raise SchemaError(f"not an NPZ corpus file: {exc}") from exc
            with npz:
                raw_edge, raw_meta = (_small_field(npz, name) for name in ("edge", "meta"))
                edge = tuple(str(x) for x in np.ravel(raw_edge))
                if raw_edge.dtype.kind != "U" or len(edge) != 2:
                    raise SchemaError(
                        f"corpus field 'edge' must name two languages, got {raw_edge!r}"
                    )
                try:
                    meta = json.loads(str(raw_meta[()]))
                except ValueError as exc:
                    raise SchemaError(f"corpus field 'meta' is not JSON: {exc}") from exc
                if not isinstance(meta, dict):
                    raise SchemaError("corpus field 'meta' must be a JSON object")
                rows = _read_rows(fh, npz)
        return AlignedCorpus(edge, rows, meta)


def _small_field(npz: zipfile.ZipFile, name: str) -> np.ndarray:
    """The array in member ``name``.npy, read through ``zipfile``, which checks its CRC-32."""
    try:
        with npz.open(f"{name}.npy") as member:
            return np.lib.format.read_array(member, allow_pickle=False)
    except (KeyError, ValueError, RuntimeError, NotImplementedError, zipfile.BadZipFile) as exc:
        # zipfile raises RuntimeError for an encrypted member, and
        # NotImplementedError for a compression method it lacks.
        raise SchemaError(f"corpus field {name!r} is unreadable: {exc}") from exc


def _pair_view(rows: np.ndarray) -> np.ndarray:
    """The (n, 2, dim) pairs (x, y) inside rows [x, 1, y], as a view that writes through."""
    dim = (rows.shape[-1] - 1) // 2
    step = rows.itemsize
    return np.lib.stride_tricks.as_strided(
        rows, (len(rows), 2, dim), (rows.strides[0], (dim + 1) * step, step)
    )


def _read_rows(fh, npz: zipfile.ZipFile) -> np.ndarray:
    """The ``pairs.npy`` member of the open NPZ file ``fh``, read into new corpus rows.

    The member must be stored, neither compressed nor encrypted, and hold a
    C-ordered '<f8' (n, 2, dim) array, n, dim >= 1, in exactly the bytes its header needs:
    all of that is checked before anything is allocated. The data is then
    read from the file ``ROW_BLOCK`` rows at a time into a staging block,
    whose CRC-32 and finiteness are checked as it arrives, and copied into
    the rows [x, 1, y], so every byte is read once and no (n, 2, dim) array
    is built. At ``PARALLEL_ROWS`` rows and above, the two ``_halves`` are
    read on two threads, each from its own byte range into its own staging
    block, and the second half's CRC-32 is joined onto the first's
    (``_crc32_combine``) before the whole member's is checked.
    """
    try:
        info = npz.getinfo("pairs.npy")
    except KeyError as exc:
        raise SchemaError(f"corpus field 'pairs' is unreadable: {exc}") from exc
    if info.compress_type != zipfile.ZIP_STORED or info.flag_bits & 0x1:
        raise SchemaError(
            "corpus field 'pairs' is compressed or encrypted; only a stored member is read"
        )
    fh.seek(info.header_offset)
    local = fh.read(_LOCAL_HEADER.size)
    signature, name_size, extra_size = (
        _LOCAL_HEADER.unpack(local) if len(local) == _LOCAL_HEADER.size else (b"", 0, 0)
    )
    if signature != b"PK\x03\x04" or fh.read(name_size) != info.orig_filename.encode():
        raise SchemaError("corpus field 'pairs' has a damaged ZIP member header")
    start = fh.seek(extra_size, os.SEEK_CUR)
    try:
        if np.lib.format.read_magic(fh) != (1, 0):
            raise ValueError("only a version 1.0 .npy header is read")
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
    except ValueError as exc:
        raise SchemaError(f"corpus field 'pairs' is unreadable: {exc}") from exc
    if (
        dtype != np.dtype("<f8")
        or fortran_order
        or len(shape) != 3
        or shape[1] != 2
        or min(shape) < 1
    ):
        order = "Fortran" if fortran_order else "C"
        raise SchemaError(
            "corpus field 'pairs' must be a '<f8' (n, 2, dim) array in C order with"
            f" n, dim >= 1, got {dtype.str} of shape {shape} in {order} order"
        )
    n, _, dim = shape
    header_size = fh.tell() - start
    row_size = 2 * dim * 8
    if info.file_size != header_size + n * row_size or info.compress_size != info.file_size:
        raise SchemaError(
            f"corpus field 'pairs' holds {info.file_size - header_size} data bytes,"
            f" but its shape {shape} needs {n * row_size}"
        )
    fh.seek(start)
    header_crc = zlib.crc32(fh.read(header_size))
    data_start = start + header_size
    rows = corpus_rows((n,), dim)
    pairs = _pair_view(rows)

    def read(part: slice) -> tuple[int, bool]:
        """The part's CRC-32 (from the header's, for the first part) and its finiteness."""
        crc = header_crc if part.start == 0 else 0
        finite = True
        staging = np.empty((min(part.stop - part.start, ROW_BLOCK), 2, dim))
        for first in range(part.start, part.stop, ROW_BLOCK):
            block = staging[: min(ROW_BLOCK, part.stop - first)]
            data = memoryview(block).cast("B")
            if os.preadv(fh.fileno(), [data], data_start + first * row_size) != data.nbytes:
                raise SchemaError("corpus field 'pairs' ends before its data does")
            crc = zlib.crc32(data, crc)
            finite = finite and bool(np.isfinite(block).all())
            pairs[first : first + len(block)] = block
        return crc, finite

    parts = _halves(n)
    (crc, finite), *rest = _on_two_threads(read, parts)
    for part, (part_crc, part_finite) in zip(parts[1:], rest):
        crc = _crc32_combine(crc, part_crc, (part.stop - part.start) * row_size)
        finite = finite and part_finite
    if crc != info.CRC:
        raise SchemaError("corpus field 'pairs' fails its CRC-32 check: the file is damaged")
    if not finite:
        raise SchemaError("corpus field 'pairs' has a non-finite entry")
    return rows


#: The CRC-32 polynomial, bit-reversed, as zlib uses it.
_CRC32_POLY = 0xEDB88320


def _gf2_multiply(a: int, b: int) -> int:
    """a(x) b(x) modulo the CRC-32 polynomial, both bit-reversed 32-bit polynomials."""
    product = 0
    m = 1 << 31
    while a:
        if a & m:
            product ^= b
            a ^= m
        m >>= 1
        b = (b >> 1) ^ _CRC32_POLY if b & 1 else b >> 1
    return product


@functools.cache
def _x_to_2_to_the(k: int) -> int:
    """x^(2^k) modulo the CRC-32 polynomial, by squaring x^(2^(k-1))."""
    if k == 0:
        return 1 << 30  # x
    half = _x_to_2_to_the(k - 1)
    return _gf2_multiply(half, half)


def _crc32_combine(crc1: int, crc2: int, len2: int) -> int:
    """``zlib.crc32(a + b)`` from crc1 = ``zlib.crc32(a)``, crc2 = ``zlib.crc32(b)`` and len(b).

    zlib's ``crc32_combine``: crc1 is shifted past len2 zero bytes by
    multiplying it by x^(8 len2) modulo the polynomial, built by square and
    multiply from the cached powers x^(2^k), and crc2 is added.
    """
    shift = 1 << 31  # x^0
    k = 3  # 8 len2 = len2 2^3
    while len2:
        if len2 & 1:
            shift = _gf2_multiply(_x_to_2_to_the(k), shift)
        len2 >>= 1
        k += 1
    return _gf2_multiply(shift, crc1) ^ crc2


def corpus_filename(edge: tuple[str, str]) -> str:
    return f"corpus_{edge[0]}__{edge[1]}.npz"


def save_encoders(
    estimate: EncoderEstimate, path, spec: FunctionClassSpec | None = None
) -> None:
    """Write each language's encoder and decoder; the document holds no anchor, none is pinned."""
    payload = {
        "encoders": {lang: _affine_entry(m) for lang, m in sorted(estimate.encoders.items())},
        "decoders": {lang: _affine_entry(m) for lang, m in sorted(estimate.decoders.items())},
        "spec": None if spec is None else spec_to_dict(spec),
    }
    _write_json(payload, path)


def load_encoders(path) -> tuple[EncoderEstimate, FunctionClassSpec | None]:
    """Read an encoder document, naming the file, language and field of any defect."""
    with _naming(path):
        *tables, spec = _document(_read_json(path), "encoder", ("encoders", "decoders", "spec"))
        maps = []
        for kind, entries in zip(("encoder", "decoder"), tables):
            if not isinstance(entries, dict):
                raise SchemaError(f"encoder field '{kind}s' must map language ids to maps")
            maps.append({})
            for lang, entry in entries.items():
                W = _array_field(f"{kind} {lang!r}", entry, "W", 2)
                b = _array_field(f"{kind} {lang!r}", entry, "b", 1)
                try:
                    maps[-1][lang] = AffineMap(W, b)
                except ValueError as exc:
                    raise SchemaError(f"malformed {kind} {lang!r}: {exc}") from exc
        encoders, decoders = maps
        try:
            estimate = EncoderEstimate(encoders, decoders)
        except (ConditioningError, ValueError) as exc:
            raise SchemaError(str(exc)) from exc
        return estimate, None if spec is None else _spec(spec)


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


#: The ``BoundReport`` fields of the bound CSV, in column order; the JSON report has them too.
_BOUND_COLUMNS = (
    "instance_id", "epsilon", "tv_max", "bound_sum", "bound_max", "bound_avg", "bf_value", "holds"
)


def write_bound_report_csv(reports: Sequence[BoundReport], path) -> None:
    rows = [[getattr(r, name) for name in _BOUND_COLUMNS] for r in reports]
    _write_csv(path, _BOUND_COLUMNS, rows)


def bound_report_to_dict(report: BoundReport) -> dict:
    return {
        **{name: getattr(report, name) for name in _BOUND_COLUMNS},
        "pair_tvs": [
            {"target": t, "source_a": a, "source_b": b, "tv": tv}
            for t, a, b, tv in report.pair_tvs
        ],
        "bf_objective": report.bf_objective,
    }


#: The ``PairEvalRecord`` columns of the pair-eval CSV, in order; ``path`` is written a->b->c.
_PAIR_COLUMNS = (
    "src", "dst", "path_len", "path", "measured_loss", "rho_hat", "bound", "holds"
)


def write_pair_eval_csv(records: Sequence[PairEvalRecord], path) -> None:
    rows = [
        ["->".join(r.path) if name == "path" else getattr(r, name) for name in _PAIR_COLUMNS]
        for r in records
    ]
    _write_csv(path, _PAIR_COLUMNS, rows)


def write_sweep_csv(rows: Sequence[SweepRow], path) -> None:
    _write_csv(path, SweepRow._fields, rows)


def write_edge_loss_csv(results: Sequence[EdgeRegressionResult], path) -> None:
    header = ["edge_a", "edge_b", "n", "empirical_loss"]
    _write_csv(
        path,
        header,
        [(r.edge[0], r.edge[1], r.n, r.empirical_loss) for r in results],
    )


def write_summary_json(payload: dict, path) -> None:
    _write_json(payload, path)
