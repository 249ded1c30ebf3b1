"""In-memory span tracing of calls into translab's public functions.

For the length of a traced pass, each target function is replaced by a
wrapper wherever translab binds it (module attributes, including names other
modules imported with ``from .x import f``, and class attributes for
methods), and restored afterwards. Each call records a span (name, start,
end, parent span); self time is span time minus the time of child spans.
Hooks turn a few call arguments and results into exact counts.
"""

from __future__ import annotations

import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "io", "distributions", "impossibility", "affine", "generative",
          "trainer", "evaluation")

# (module, attribute or Class.method, span name). Several functions may share
# one span name; the io writers share ``io.write_csv``.
TARGETS = (
    ("io", "load_instance", "io.load_instance"),
    ("io", "save_instance", "io.save_instance"),
    ("io", "load_graph", "io.load_graph"),
    ("io", "save_graph", "io.save_graph"),
    ("io", "save_codecs", "io.save_codecs"),
    ("io", "load_codecs", "io.load_codecs"),
    ("io", "save_corpus", "io.save_corpus"),
    ("io", "load_corpus", "io.load_corpus"),
    ("io", "save_encoders", "io.save_encoders"),
    ("io", "load_encoders", "io.load_encoders"),
    ("io", "write_bound_report_csv", "io.write_csv"),
    ("io", "write_pair_eval_csv", "io.write_csv"),
    ("io", "write_sweep_csv", "io.write_csv"),
    ("io", "write_edge_loss_csv", "io.write_csv"),
    ("io", "write_summary_json", "io.write_summary_json"),
    ("distributions", "tv_distance", "distributions.tv_distance"),
    ("distributions", "pushforward", "distributions.pushforward"),
    ("impossibility", "brute_force_min_error", "impossibility.brute_force_min_error"),
    ("impossibility", "bound_report", "impossibility.bound_report"),
    ("impossibility", "make_worst_case", "impossibility.make_worst_case"),
    ("affine", "AffineMap.__call__", "affine.apply"),
    ("affine", "AffineMap.inverse", "affine.inverse"),
    ("affine", "AffineMap.smallest_gain", "affine.smallest_gain"),
    ("generative", "LatentSampler.sample", "generative.sample"),
    ("generative", "RandomizedCodec.decode", "generative.decode"),
    ("generative", "AffineCodec.decode", "generative.decode"),
    ("generative", "randomized_generate", "generative.generate"),
    ("generative", "generate_corpus", "generative.generate"),
    ("generative", "sample_randomized_codecs", "generative.sample_codecs"),
    ("generative", "sample_ground_truth_codecs", "generative.sample_codecs"),
    ("trainer", "fit_edge", "trainer.fit_edge"),
    ("trainer", "anchor_spanning_tree", "trainer.anchor_spanning_tree"),
    ("trainer", "joint_refine", "trainer.joint_refine"),
    ("trainer", "total_edge_loss", "trainer.total_edge_loss"),
    ("trainer", "empirical_edge_loss", "trainer.empirical_edge_loss"),
    ("evaluation", "verify_chain_bound", "evaluation.verify_chain_bound"),
    ("evaluation", "sample_complexity_sweep", "evaluation.sample_complexity_sweep"),
    ("evaluation", "shortest_path_and_diameter", "evaluation.shortest_path_and_diameter"),
)


def _file_bytes(path) -> int:
    path = os.fspath(path)
    if not os.path.exists(path) and os.path.exists(path + ".npz"):
        path += ".npz"
    return os.path.getsize(path)


class Tracer:
    """Spans and counts of one traced pass; ``install`` / ``uninstall`` patch translab."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span id, seconds in child spans]
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._refine_best: float | None = None

    # -- recording --------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        """A function that records a span named ``name`` around each call of ``fn``."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = [0, 0.0, 0.0]
        name_id = self._name_ids[name]
        stats = self.stats[name]
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        counts = self.counts

        def traced(*args, **kwargs):
            span = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1][0] if stack else -1)
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            span_start.append(start)
            span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span_end[span] = end
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
            if hook is not None:
                try:
                    hook(args, result)
                except Exception:  # a changed signature must not break the traced pass
                    counts["trace.hook_errors"] += 1
            return result

        traced.__wrapped__ = fn
        traced.bench_span = name
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def inside(self, name: str) -> bool:
        """True if a span called ``name`` (or of layer ``name``) is open."""
        for span, _child in self._stack:
            open_name = self.names[self.span_name[span]]
            if open_name == name or open_name.startswith(name + "."):
                return True
        return False

    # -- hooks: exact counts at the layer boundaries -----------------------

    def _hooks(self) -> dict:
        counts = self.counts

        def file_bytes(key, position):
            def hook(args, result):
                counts[key] += _file_bytes(args[position])
            return hook

        def brute(args, result):
            instance = args[0]
            joints = getattr(instance, "joints", None)
            n_atoms = (sum(len(j) for j in joints.values()) if joints
                       else sum(len(m) for m in instance.marginals))
            counts["impossibility.encoder_tables"] += result.n_encoders
            counts["impossibility.feasible_tables"] += result.n_feasible
            # int64 table array plus float64 one-hot array, from their shapes.
            counts["impossibility.table_bytes"] += (
                result.n_encoders * n_atoms * 8 * (1 + result.z_size))

        def sample(args, result):
            counts["generative.sample.points"] += len(result)
            if self.inside("evaluation"):
                counts["evaluation.sampled_points"] += len(result)

        def fit_edge(args, result):
            if self.inside("evaluation"):
                counts["evaluation.fitted_points"] += result.n

        def verify(args, result):
            counts["evaluation.pairs"] += len(result)

        def total_edge_loss(args, result):
            if not self.inside("trainer.joint_refine"):
                return
            if self._refine_best is None:  # the incumbent's objective
                self._refine_best = result
                return
            counts["trainer.refine.trials"] += 1
            if result <= self._refine_best + 1e-12:  # joint_refine's acceptance rule
                counts["trainer.refine.accepted"] += 1
                self._refine_best = result

        def joint_refine(args, result):
            self._refine_best = None

        return {
            "io.save_corpus": file_bytes("io.save_corpus.bytes", 1),
            "io.load_corpus": file_bytes("io.load_corpus.bytes", 0),
            "io.write_csv": file_bytes("io.write_csv.bytes", 1),
            "impossibility.brute_force_min_error": brute,
            "generative.sample": sample,
            "trainer.fit_edge": fit_edge,
            "evaluation.verify_chain_bound": verify,
            "trainer.total_edge_loss": total_edge_loss,
            "trainer.joint_refine": joint_refine,
        }

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "translab" or key.startswith("translab."))]
        hooks = self._hooks()
        for module_name, attribute, name in TARGETS:
            module = sys.modules.get(f"translab.{module_name}")
            owner_name, _, method = attribute.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method or attribute, None) if owner is not None else None
            if original is None:
                self.missing.append(f"translab.{module_name}.{attribute}")
                continue
            if hasattr(original, "bench_span"):  # an alias of a target already wrapped
                continue
            wrapper = self.wrap(name, original, hooks.get(name))
            if owner_name:
                self._patch(owner, method, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attribute: str, value) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- results ----------------------------------------------------------

    def layer_self_seconds(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, (_calls, _total, self_s) in self.stats.items():
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + self_s
        return totals

    def write_spans(self, path) -> None:
        """Spans as CSV: id, name, parent id (-1 for a root), start and end in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,parent,start_s,end_s\n")
            base = self.span_start[0] if len(self.span_start) else 0.0
            for i in range(len(self.span_start)):
                fh.write(f"{i},{self.names[self.span_name[i]]},{self.span_parent[i]},"
                         f"{self.span_start[i] - base:.9f},{self.span_end[i] - base:.9f}\n")
