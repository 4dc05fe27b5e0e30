"""Traced run: per-layer spans recorded from the benchmark's own files.

Each public entry point of a layer is replaced, at the binding its caller
looks up (``loopclose.detector.ratio_match``, the ``knn_search`` attribute
of ``HammingForest`` and so on), by a wrapper that records a span: name,
start, end, parent and root.  Spans stay in memory until the pass ends;
self times are derived afterwards.  ``restore`` puts every original back.

Hooks read call results (island counts, putative matches, inliers, kept
keypoints) and run the sampled assignment oracle.  Their time is recorded
as ``trace.hook`` spans and excluded from frame time and from the self
time of the span they ran in.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np

FRAME = "frame"
SEED_FRAME = "seed_frame"
HOOK = "trace.hook"

# Module, owning class (None for a module-level function), attribute, span name.
BINDINGS = [
    ("loopclose.hamming_tree", "HammingForest", "knn_search", "hamming_tree.knn_search"),
    ("loopclose.hamming_tree", "HammingForest", "insert", "hamming_tree.insert"),
    ("loopclose.hamming_tree", "HammingForest", "remove", "hamming_tree.remove"),
    ("loopclose.hamming_tree", "HammingForest", "build", "hamming_tree.build"),
    ("loopclose.vocabulary", "Vocabulary", "process_image", "vocabulary.process_image"),
    ("loopclose.vocabulary", "Vocabulary", "assign_words", "vocabulary.assign_words"),
    ("loopclose.vocabulary", "Vocabulary", "merge_word", "vocabulary.merge_word"),
    ("loopclose.vocabulary", "Vocabulary", "add_temporary_words", "vocabulary.add_temporary_words"),
    ("loopclose.vocabulary", "Vocabulary", "purge_temporaries", "vocabulary.purge_temporaries"),
    ("loopclose.detector", "LoopDetector", "on_frame", "detector.on_frame"),
    ("loopclose.detector", None, "build_islands", "detector.build_islands"),
    ("loopclose.detector", None, "ratio_match", "geometry.ratio_match"),
    ("loopclose.detector", None, "ransac_fundamental", "geometry.ransac_fundamental"),
    ("loopclose.geometry", None, "eight_point", "geometry.eight_point"),
    ("loopclose.imgproc", None, "load_pgm", "imgproc.load_pgm"),
    ("loopclose.imgproc", None, "detect_corners", "imgproc.detect_corners"),
    ("loopclose.imgproc", None, "extract_descriptors", "imgproc.extract_descriptors"),
    ("loopclose.evaluation", None, "write_run_outputs", "evaluation.write_run_outputs"),
]

# Layers that run inside frames; evaluation runs after a pass and has its own span.
MODULES = ("hamming_tree", "vocabulary", "detector", "geometry", "imgproc")

# Every ORACLE_EVERY-th word assignment checks ORACLE_QUERIES of its
# descriptors against a brute-force scan of the live vocabulary.
ORACLE_EVERY = 4
ORACLE_QUERIES = 64


def _owner(module: str, cls: str | None):
    mod = importlib.import_module(module)
    return mod if cls is None else getattr(mod, cls)


def current_bindings() -> dict[str, object]:
    """The objects every traced binding holds right now, by span name."""
    return {
        name: (_owner(module, cls).__dict__[attr] if cls else getattr(_owner(module, cls), attr))
        for module, cls, attr, name in BINDINGS
    }


class Tracer:
    """In-memory spans for one traced pass; install, run, restore."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # [name id, start, end, parent index, root index, raised]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.excluded = 0.0  # seconds spent in hooks, across the pass
        self.samples: dict[str, list] = defaultdict(list)
        self.originals: dict[str, object] = {}
        self._installed: list[tuple[object, str, object]] = []
        self._assign_calls = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        stack = self._stack
        self.spans.append(
            [self._id(name), 0.0, 0.0, stack[-1] if stack else -1, stack[0] if stack else idx, False]
        )
        stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def close(self, idx: int, raised: bool = False) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = raised
        self._stack.pop()

    def _run_hook(self, hook, args, result) -> None:
        idx = self.open(HOOK)
        start = self.spans[idx][1]
        try:
            hook(self, args, result)
        finally:
            self.close(idx)
            self.excluded += self.spans[idx][2] - start

    def _wrap(self, fn, name: str, hook):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx, raised=True)
                raise
            tracer.close(idx)
            if hook is not None:
                tracer._run_hook(hook, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing wrappers -------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        for module, cls, attr, name in BINDINGS:
            owner = _owner(module, cls)
            original = owner.__dict__[attr] if cls else getattr(owner, attr)
            self.originals[name] = original
            setattr(owner, attr, self._wrap(original, name, HOOKS.get(name)))
            self._installed.append((owner, attr, original))

    def restore(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- derived per-layer metrics --------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-span and per-module numbers over the pass's timed frames."""
        if not self.spans:
            raise ValueError("no spans recorded")
        arr = np.array(self.spans, dtype=np.float64)
        name_id = arr[:, 0].astype(np.int64)
        parent = arr[:, 3].astype(np.int64)
        root = arr[:, 4].astype(np.int64)
        dur = arr[:, 2] - arr[:, 1]
        has_parent = parent >= 0
        child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(arr))
        self_time = dur - child_sum
        names = np.array(self.names)[name_id]

        frames = np.nonzero(names == FRAME)[0]
        in_frame = np.isin(root, frames) & (names != FRAME)
        hooks = names == HOOK
        hook_per_frame = np.bincount(root[hooks], weights=dur[hooks], minlength=len(arr))
        frame_time = dur[frames] - hook_per_frame[frames]
        total = float(frame_time.sum())
        n_frames = len(frames)
        seed_roots = np.nonzero(names == SEED_FRAME)[0]
        in_seed = np.isin(root, seed_roots)

        out: dict[str, float] = {}

        def stats(mask, times):
            calls = int(mask.sum())
            frames_with = len(np.unique(root[mask]))
            spent = float(times[mask].sum())
            return calls, frames_with, spent

        for _, _, _, name in BINDINGS:
            if name in ("hamming_tree.build", "evaluation.write_run_outputs"):
                continue
            mask = in_frame & (names == name)
            calls, frames_with, spent = stats(mask, dur)
            out[f"{name}.calls"] = calls / n_frames
            out[f"{name}.us"] = spent / calls * 1e6 if calls else 0.0
            out[f"{name}.ms"] = spent / frames_with * 1e3 if frames_with else 0.0
            out[f"{name}.share"] = spent / total
        out["geometry.eight_point.failed"] = float(
            (in_frame & (names == "geometry.eight_point") & (arr[:, 5] > 0)).sum()
        ) / n_frames

        for span, metric in (
            ("vocabulary.process_image", "vocabulary.index_self"),
            ("detector.on_frame", "detector.on_frame_self"),
        ):
            mask = in_frame & (names == span)
            _, frames_with, spent = stats(mask, self_time)
            out[f"{metric}.ms"] = spent / frames_with * 1e3 if frames_with else 0.0
            out[f"{metric}.share"] = spent / total

        for span, scope in (("hamming_tree.build", in_seed), ("evaluation.write_run_outputs", root >= 0)):
            mask = scope & (names == span)
            calls, _, spent = stats(mask, dur)
            out[f"{span}.ms"] = spent / calls * 1e3 if calls else 0.0
            out[f"{span}.share"] = spent / total

        # Module shares: self time of every span of a module in timed frames.
        checked = np.unique(root[in_frame & (names == "geometry.ratio_match")])
        in_checked = np.isin(root, checked)
        checked_total = float(frame_time[np.isin(frames, checked)].sum())
        module = np.array([n.split(".", 1)[0] for n in self.names])[name_id]
        for mod in MODULES:
            mask = in_frame & (module == mod) & ~hooks
            out[f"{mod}.share"] = float(self_time[mask].sum()) / total
            out[f"{mod}.check_share"] = (
                float(self_time[mask & in_checked].sum()) / checked_total if checked_total else 0.0
            )

        s = self.samples
        out["geometry.putative_matches"] = float(np.mean(s["putatives"])) if s["putatives"] else 0.0
        ratios = [i / n for i, n in s["inliers"] if n]
        out["geometry.inlier_ratio"] = float(np.mean(ratios)) if ratios else 0.0
        out["detector.islands"] = float(np.mean(s["islands"])) if s["islands"] else 0.0
        corners = sum(c for c, _ in s["kept"])
        out["imgproc.kept_ratio"] = sum(k for _, k in s["kept"]) / corners if corners else 0.0
        exact = s["oracle"]
        out["vocabulary.assign_words.exact_rate"] = sum(exact) / len(exact) if exact else 0.0
        out["trace.frames"] = n_frames
        out["trace.frame_ms_mean"] = total / n_frames * 1e3
        return out


# -- hooks ---------------------------------------------------------------------


def _assignment_oracle(tracer: Tracer, args, result) -> None:
    """Brute-force the nearest live word for sampled descriptors of a frame.

    Runs right after ``assign_words`` returns, before the frame's merges
    change the vocabulary.  A search answer is exact when its nearest
    distance equals the brute-force one (equal distances are equally near).
    """
    tracer._assign_calls += 1
    if tracer._assign_calls % ORACLE_EVERY != 1:
        return
    vocab, features = args[0], args[1]
    descs = features.descriptors
    if len(descs) == 0:
        return
    search = tracer.originals["hamming_tree.knn_search"]
    live = np.stack([vocab.descriptor(w) for w in vocab.words]).view(np.uint64)
    picks = np.linspace(0, len(descs) - 1, min(ORACLE_QUERIES, len(descs))).astype(np.int64)
    for i in np.unique(picks):
        found = search(vocab.forest, descs[i], 2)
        q64 = np.ascontiguousarray(descs[i]).view(np.uint64)
        best = int(np.bitwise_count(live ^ q64).sum(axis=1).min())
        tracer.samples["oracle"].append(bool(found) and found[0].distance == best)


def _islands(tracer: Tracer, args, result) -> None:
    tracer.samples["islands"].append(len(result))


def _putatives(tracer: Tracer, args, result) -> None:
    tracer.samples["putatives"].append(len(result[0]))


def _inliers(tracer: Tracer, args, result) -> None:
    mask = result[1]
    tracer.samples["inliers"].append((int(mask.sum()), len(mask)))


def _kept(tracer: Tracer, args, result) -> None:
    tracer.samples["kept"].append((len(args[1]), len(result)))


HOOKS = {
    "vocabulary.assign_words": _assignment_oracle,
    "detector.build_islands": _islands,
    "geometry.ratio_match": _putatives,
    "geometry.ransac_fundamental": _inliers,
    "imgproc.extract_descriptors": _kept,
}
