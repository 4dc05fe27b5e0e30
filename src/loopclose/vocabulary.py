"""Incremental visual vocabulary over a Hamming clustering forest.

The dictionary is seeded with the descriptors of the first image and then
updated on line: query descriptors that pass a nearest/second-nearest
ratio test are folded into their word with a bitwise AND, the rest enter
as temporary words that must be matched a minimum number of times within
a probation window or be deleted again.  An inverted index maps every
word to the images it was seen in and drives tf-idf retrieval of similar
images.

``process_image`` is a single exclusive transaction on the vocabulary;
score-only access may be shared between transactions.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .hamming_tree import HammingForest
from .imgproc import FeatureSet


class ScoredImage(NamedTuple):
    image_id: int
    score: float


@dataclass
class VocabParams:
    """Vocabulary and forest configuration.

    ``probation_frames`` and ``required_matches`` implement the temporary
    word policy: a word created at frame ``f`` survives past frame
    ``f + probation_frames`` only if it has been matched at least
    ``required_matches`` times by then.  ``purge`` exists so paired runs
    can measure how much the policy shrinks the dictionary.
    """

    branching: int = 16
    leaf_capacity: int = 150
    num_trees: int = 4
    budget: int = 64
    ratio: float = 0.8
    probation_frames: int = 2
    required_matches: int = 2
    purge: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.branching < 2 or self.leaf_capacity < 1 or self.num_trees < 1:
            raise ValueError("invalid forest parameters")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if not 0.0 < self.ratio < 1.0:
            raise ValueError("ratio must be in (0, 1)")
        if self.probation_frames < 1 or self.required_matches < 1:
            raise ValueError("probation_frames and required_matches must be >= 1")


@dataclass(slots=True)
class WordInfo:
    created_at: int
    times_matched: int


@dataclass(frozen=True)
class UpdateStats:
    """Per-frame dictionary maintenance counters (diagnostics stream)."""

    frame: int
    vocab_size: int
    temp_count: int
    merged: int
    added: int
    deleted: int


class Vocabulary:
    """Online visual dictionary with inverted index and tf-idf scoring."""

    def __init__(self, features: FeatureSet, params: VocabParams, image_id: int = 0):
        if len(features) == 0:
            raise ValueError("cannot initialise a vocabulary from an empty feature set")
        self.params = params
        self.width = features.width_bits
        self.forest = HammingForest(
            width=self.width,
            branching=params.branching,
            leaf_capacity=params.leaf_capacity,
            num_trees=params.num_trees,
            budget=params.budget,
            seed=params.seed,
        )
        self.words: dict[int, WordInfo] = {}
        self.postings: dict[int, list[tuple[int, int]]] = {}
        self.image_term_totals: dict[int, int] = {}
        self.images_indexed: list[int] = []
        self._temporary: set[int] = set()
        self._next_id = 0

        # One stable word per first-image descriptor, duplicates included.
        initial = {}
        for i in range(len(features)):
            wid = self._next_id
            self._next_id += 1
            initial[wid] = features.descriptors[i].copy()
            self.words[wid] = WordInfo(created_at=0, times_matched=0)
            self.postings[wid] = [(image_id, 1)]
        self.forest.build(initial)
        self.image_term_totals[image_id] = len(features)
        self.images_indexed.append(image_id)
        self.last_stats = UpdateStats(
            frame=0,
            vocab_size=len(self.words),
            temp_count=0,
            merged=0,
            added=len(self.words),
            deleted=0,
        )

    # -- basic queries --------------------------------------------------

    def __len__(self) -> int:
        return len(self.words)

    @property
    def num_images(self) -> int:
        return len(self.images_indexed)

    @property
    def num_temporary(self) -> int:
        return len(self._temporary)

    def is_temporary(self, word_id: int) -> bool:
        return word_id in self._temporary

    def doc_frequency(self, word_id: int) -> int:
        return len(self.postings[word_id])

    def descriptor(self, word_id: int) -> np.ndarray:
        return self.forest.descriptor(word_id)

    # -- word assignment and maintenance ---------------------------------

    def assign_words(self, features: FeatureSet) -> tuple[list[tuple[int, int]], list[int]]:
        """Match each feature to at most one word via the ratio test.

        Returns ``(matches, unmatched)`` where matches are
        ``(feature_index, word_id)`` pairs.  With a single candidate in the
        vocabulary the ratio test is undefined and a fixed accept radius
        (a quarter of the descriptor width) is used instead.  The two
        nearest words of every feature come from one batched forest
        search, which answers as a per-feature ``knn_search`` would.
        """
        if not self.words:
            raise ValueError("vocabulary is empty")
        ids, dists = self.forest.knn_search_batch(features.descriptors, 2)
        found = (ids >= 0).sum(axis=1)
        accept = np.where(
            found >= 2,
            dists[:, 0] < self.params.ratio * dists[:, 1],
            (found == 1) & (dists[:, 0] <= self.width // 4),
        )
        matched = np.flatnonzero(accept)
        matches = list(zip(matched.tolist(), ids[matched, 0].tolist()))
        return matches, np.flatnonzero(~accept).tolist()

    def merge_word(self, word_id: int, q: np.ndarray) -> None:
        """Fold a query descriptor into a word with bitwise AND.

        The popcount of the word descriptor never increases; the match
        counter used by the temporary word policy is incremented.
        """
        self.merge_words([word_id], np.asarray(q)[None])

    def merge_words(self, word_ids: list[int], descs: np.ndarray) -> None:
        """:meth:`merge_word` for each word id and descriptor row, in one call.

        A word listed more than once ends as the AND of all its rows and
        counts every match.  Every word is checked to be live before any
        changes.
        """
        infos = [self.words.get(wid) for wid in word_ids]
        if None in infos:
            raise KeyError(f"word {word_ids[infos.index(None)]} is not live")
        self.forest.merge_and_batch(word_ids, descs)
        for info in infos:
            info.times_matched += 1

    def add_temporary_words(
        self, features: FeatureSet, unmatched: Iterable[int], image_id: int, frame: int
    ) -> list[int]:
        """Insert unmatched descriptors as temporary words, updating the index."""
        unmatched = list(unmatched)
        new_ids = list(range(self._next_id, self._next_id + len(unmatched)))
        if not new_ids:
            return []
        self.forest.insert_batch(new_ids, features.descriptors[unmatched])
        self._next_id += len(new_ids)
        for wid in new_ids:
            self.words[wid] = WordInfo(created_at=frame, times_matched=0)
            self._temporary.add(wid)
            self.postings[wid] = [(image_id, 1)]
        self.image_term_totals[image_id] = self.image_term_totals.get(image_id, 0) + len(new_ids)
        return new_ids

    def purge_temporaries(self, current_frame: int) -> list[int]:
        """Promote or delete temporary words past their probation window."""
        if not self.params.purge:
            return []
        deleted = []
        for wid in sorted(self._temporary):
            info = self.words[wid]
            if current_frame - info.created_at < self.params.probation_frames:
                continue
            if info.times_matched >= self.params.required_matches:
                self._temporary.discard(wid)
            else:
                self.forest.remove(wid)
                for image_id, count in self.postings.pop(wid):
                    self.image_term_totals[image_id] -= count
                del self.words[wid]
                self._temporary.discard(wid)
                deleted.append(wid)
        return deleted

    # -- retrieval --------------------------------------------------------

    def score_images(self, features: FeatureSet, exclude: Iterable[int] = ()) -> list[ScoredImage]:
        """tf-idf similarity of indexed images to a query feature set.

        Every distinct matched word ``w`` contributes
        ``tf(w, image) * ln(N / df(w))`` to each image on its posting
        list, where tf is the term count normalised by the image's total
        word occurrences and N is the number of images indexed so far.
        Excluded image ids are omitted; the result is sorted by
        descending score (ties by ascending image id) and never contains
        zero-score entries.
        """
        matches, _ = self.assign_words(features)
        return self._score_from_matches(matches, exclude)

    def _score_from_matches(
        self, matches: list[tuple[int, int]], exclude: Iterable[int]
    ) -> list[ScoredImage]:
        excluded = frozenset(exclude)
        n_images = self.num_images
        totals = self.image_term_totals
        scores: dict[int, float] = {}
        for wid in dict.fromkeys(wid for _, wid in matches):
            plist = self.postings[wid]
            idf = math.log(n_images / len(plist))
            if idf <= 0.0:
                continue
            for image_id, count in plist:
                if image_id in excluded:
                    continue
                scores[image_id] = scores.get(image_id, 0.0) + (count / totals[image_id]) * idf
        ranked = [ScoredImage(i, s) for i, s in scores.items() if s > 0.0]
        ranked.sort(key=lambda si: (-si.score, si.image_id))
        return ranked

    # -- the per-frame transaction ----------------------------------------

    def process_image(
        self, features: FeatureSet, image_id: int, frame: int, exclude: Iterable[int] = ()
    ) -> list[ScoredImage]:
        """Score, then update the dictionary with one image.

        Scoring uses the pre-update vocabulary, so the image never appears
        in its own candidate list.  The update then merges matched words,
        adds unmatched descriptors as temporaries, applies the purge
        policy, and finally records this image's word occurrences in the
        inverted index.  Image ids must be distinct across calls.
        """
        if len(features) and features.width_bits != self.width:
            raise ValueError(
                f"descriptor width mismatch: image has {features.width_bits} bits, "
                f"vocabulary uses {self.width}"
            )
        matches, unmatched = self.assign_words(features) if len(features) else ([], [])
        scores = self._score_from_matches(matches, exclude)

        if matches:
            matched, wids = zip(*matches)
            self.merge_words(list(wids), features.descriptors[list(matched)])
        added = self.add_temporary_words(features, unmatched, image_id, frame)
        deleted = self.purge_temporaries(frame)

        dead = set(deleted)
        counts = Counter(wid for _, wid in matches if wid not in dead)
        for wid, count in counts.items():
            self.postings[wid].append((image_id, count))
            self.image_term_totals[image_id] = self.image_term_totals.get(image_id, 0) + count
        self.image_term_totals.setdefault(image_id, 0)
        self.images_indexed.append(image_id)

        self.last_stats = UpdateStats(
            frame=frame,
            vocab_size=len(self.words),
            temp_count=len(self._temporary),
            merged=len(matches),
            added=len(added),
            deleted=len(deleted),
        )
        return scores
