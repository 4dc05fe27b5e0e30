import hashlib

import numpy as np
import pytest

from loopclose.detector import (
    ACCEPTED,
    PATH_GEOMETRY,
    PATH_SHORTCUT,
    REJECTED,
    SKIPPED,
    DetectorParams,
    Island,
    LoopDetector,
    build_islands,
    filter_candidates,
    island_score,
    normalize_scores,
    select_island,
)
from loopclose.hamming_tree import HammingTree
from loopclose.synthetic import generate_synthetic
from loopclose.vocabulary import ScoredImage, VocabParams, Vocabulary


def scored(values):
    return [ScoredImage(i, v) for i, v in values]


class TestNormalizeScores:
    def test_affine_endpoints(self):
        got = normalize_scores(scored([(0, 8.0), (1, 5.0), (2, 2.0)]))
        assert got == [(0, 1.0), (1, 0.5), (2, 0.0)]

    def test_single_candidate_maps_to_one(self):
        assert normalize_scores(scored([(3, 7.0)])) == [(3, 1.0)]

    def test_all_equal_map_to_one(self):
        got = normalize_scores(scored([(0, 4.0), (1, 4.0), (2, 4.0)]))
        assert got == [(0, 1.0), (1, 1.0), (2, 1.0)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize_scores([])

    def test_bounds_property(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            values = rng.uniform(0.01, 100, size=rng.integers(2, 30))
            got = normalize_scores(scored(enumerate(values)))
            s = [v for _, v in got]
            assert all(0.0 <= v <= 1.0 for v in s)
            assert max(s) == 1.0
            if len(set(values.tolist())) >= 2:
                assert min(s) == 0.0


class TestFilterCandidates:
    def test_threshold(self):
        got = filter_candidates([(0, 1.0), (1, 0.5), (2, 0.0)], 0.3)
        assert got == [(0, 1.0), (1, 0.5)]

    def test_zero_threshold_keeps_all(self):
        items = [(0, 1.0), (1, 0.0)]
        assert filter_candidates(items, 0.0) == items

    def test_empty(self):
        assert filter_candidates([], 0.5) == []

    def test_monotone(self):
        rng = np.random.default_rng(1)
        values = [(i, float(v)) for i, v in enumerate(rng.uniform(0, 1, 30))]
        sizes = [len(filter_candidates(values, t)) for t in (0.0, 0.3, 0.6, 0.9)]
        assert sizes == sorted(sizes, reverse=True)


class TestBuildIslands:
    def test_twelve_frame_fixture(self):
        # Candidates at frames 2, 5, 9 over a 12-frame sequence with
        # halfwidth 3 collapse to [0,3], [4,6], [8,11]; frame 7 is in no
        # island and every candidate is its own representative.
        candidates = [(5, 1.0), (2, 0.8), (9, 0.6)]
        islands = build_islands(candidates, halfwidth=3, max_frame=11)
        by_start = sorted(islands, key=lambda i: i.start)
        assert [(i.start, i.end) for i in by_start] == [(0, 3), (4, 6), (8, 11)]
        assert [i.representative for i in by_start] == [2, 5, 9]
        for isl in by_start:
            assert not (isl.start <= 7 <= isl.end)

    def test_single_candidate(self):
        islands = build_islands([(10, 1.0)], halfwidth=5)
        assert len(islands) == 1
        isl = islands[0]
        assert (isl.start, isl.end) == (5, 15)
        assert isl.representative == 10
        assert isl.score == pytest.approx(1.0 / 11)

    def test_association_extends_interval(self):
        islands = build_islands([(10, 1.0), (12, 0.9)], halfwidth=5)
        assert len(islands) == 1
        isl = islands[0]
        assert (isl.start, isl.end) == (5, 17)
        assert sorted(i for i, _ in isl.members) == [10, 12]

    def test_clamps_to_frame_range(self):
        islands = build_islands([(2, 1.0)], halfwidth=5, max_frame=30)
        assert islands[0].start == 0
        islands = build_islands([(29, 1.0)], halfwidth=5, max_frame=30)
        assert islands[0].end == 30

    def test_properties_random_lists(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            frames = rng.choice(500, size=n, replace=False)
            scores = rng.uniform(0.05, 1.0, size=n)
            order = np.argsort(-scores)
            candidates = [(int(frames[i]), float(scores[i])) for i in order]
            b = int(rng.integers(0, 8))
            islands = build_islands(candidates, b, max_frame=520)
            # disjoint intervals
            spans = sorted((i.start, i.end) for i in islands)
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert e1 < s2
            # every candidate in exactly one island, inside its interval
            assigned = [i for isl in islands for i, _ in isl.members]
            assert sorted(assigned) == sorted(f for f, _ in candidates)
            for isl in islands:
                assert isl.start <= isl.end
                for f, _ in isl.members:
                    assert isl.start <= f <= isl.end
                top = max(s for _, s in isl.members)
                reps = [f for f, s in isl.members if s == top]
                assert isl.representative == min(reps)
                assert isl.score == pytest.approx(island_score(isl))
            # sorted by descending score
            g = [i.score for i in islands]
            assert g == sorted(g, reverse=True)


class TestIslandScore:
    def test_interval_average(self):
        isl = Island(start=4, end=6, members=[(4, 0.5), (5, 1.0), (6, 0.6)])
        assert island_score(isl) == pytest.approx(2.1 / 3)

    def test_single_member_wide_interval(self):
        isl = Island(start=5, end=15, members=[(10, 1.0)])
        assert island_score(isl) == pytest.approx(1.0 / 11)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            island_score(Island(start=0, end=1, members=[]))


class TestSelectIsland:
    def test_priority_beats_score(self):
        a = Island(start=15, end=25, members=[(20, 0.4)], representative=20, score=0.4)
        b = Island(start=40, end=50, members=[(45, 0.9)], representative=45, score=0.9)
        prev = Island(start=10, end=20, members=[(15, 1.0)], representative=15, score=0.5)
        assert select_island([b, a], prev) is a

    def test_no_previous_takes_global_best(self):
        a = Island(start=0, end=5, members=[(2, 0.9)], representative=2, score=0.9)
        b = Island(start=10, end=15, members=[(12, 0.4)], representative=12, score=0.4)
        assert select_island([a, b], None) is a

    def test_highest_scoring_priority_island_wins(self):
        prev = Island(start=10, end=30, members=[(20, 1.0)], representative=20, score=0.5)
        a = Island(start=8, end=12, members=[(10, 0.4)], representative=10, score=0.4)
        b = Island(start=25, end=33, members=[(28, 0.6)], representative=28, score=0.6)
        islands = sorted([a, b], key=lambda i: -i.score)
        assert select_island(islands, prev) is b

    def test_scale_invariance_of_selection(self):
        # Positive scaling of raw scores leaves candidates, islands and
        # the selected island unchanged (powers of two are float-exact).
        rng = np.random.default_rng(3)
        for scale in (0.25, 2.0, 1024.0):
            for trial in range(100):
                rng_t = np.random.default_rng(trial)
                n = int(rng_t.integers(2, 25))
                frames = rng_t.choice(300, size=n, replace=False)
                raw = rng_t.uniform(0.1, 5.0, size=n)
                order = np.argsort(-raw)

                def pipeline(mult):
                    ranked = scored(
                        (int(frames[i]), float(raw[i]) * mult) for i in order
                    )
                    cands = filter_candidates(normalize_scores(ranked), 0.3)
                    islands = build_islands(cands, 4, max_frame=310)
                    chosen = select_island(islands, None)
                    return cands, [(i.start, i.end, i.representative) for i in islands], (
                        chosen.start,
                        chosen.end,
                        chosen.representative,
                    )

                assert pipeline(1.0) == pipeline(scale)


class TestLoopDetector:
    def _run(self, plan, n_features=80, noise_bits=15, seed=0, **det_kwargs):
        frames, gt = generate_synthetic(plan, n_features=n_features, noise_bits=noise_bits, seed=seed)
        vocab_params = VocabParams(seed=seed)
        defaults = dict(buffer_size=20, min_inliers=12, shortcut_after=6, island_halfwidth=5)
        defaults.update(det_kwargs)
        detector = LoopDetector(vocab_params, DetectorParams(**defaults))
        return [detector.on_frame(f) for f in frames], gt, detector

    def test_warmup_frames_skipped(self):
        results, _, _ = self._run("new:30", seed=1)
        p = 20
        for r in results[:p]:
            assert r.status == SKIPPED
        assert all(r.status != SKIPPED for r in results[p:] if r.num_candidates)

    def test_revisit_sequence_closes_loops(self):
        results, gt, _ = self._run("new:50,revisit:5:25", seed=2)
        accepted = {r.frame: r for r in results if r.status == ACCEPTED}
        assert len(accepted) >= 0.5 * 25
        for frame, r in accepted.items():
            assert frame in gt
            assert abs(r.matched - gt[frame][0]) <= 5
            assert r.matched <= frame - 20  # never inside the recency buffer

    def test_shortcut_after_consecutive_closures(self):
        results, _, _ = self._run("new:50,revisit:5:30", seed=3, shortcut_after=6)
        paths = [r.path for r in results if r.status == ACCEPTED]
        assert PATH_GEOMETRY in paths
        assert PATH_SHORTCUT in paths
        # the shortcut only fires after more than shortcut_after consecutive accepts
        consecutive = 0
        for r in results:
            if r.status == ACCEPTED:
                if r.path == PATH_SHORTCUT:
                    assert consecutive > 6
                    assert r.inliers is None
                consecutive += 1
            else:
                consecutive = 0

    def test_rejection_resets_consecutive_count(self):
        results, _, detector = self._run("new:60", seed=4)
        assert detector.consecutive_loops == 0
        assert all(r.status != ACCEPTED for r in results[:21])

    def test_new_places_rarely_accepted(self):
        results, _, _ = self._run("new:80", seed=5)
        accepted = [r for r in results if r.status == ACCEPTED]
        assert len(accepted) <= 2

    def test_accepted_match_outside_buffer(self):
        results, _, _ = self._run("new:40,revisit:0:20", seed=6, buffer_size=15)
        for r in results:
            if r.status == ACCEPTED:
                assert r.matched <= r.frame - 15

    def test_island_trace_in_results(self):
        results, _, _ = self._run("new:40,revisit:5:15", seed=7)
        for r in results:
            if r.status == ACCEPTED:
                assert r.island is not None
                assert r.island.start <= r.matched <= r.island.end
                assert r.candidate == r.island.representative

    def test_featureless_opening_frames_are_skipped(self):
        from loopclose.imgproc import FeatureSet

        frames, _ = generate_synthetic("new:8", n_features=30, seed=8)
        detector = LoopDetector(VocabParams(seed=8), DetectorParams(buffer_size=3))
        first = detector.on_frame(FeatureSet.empty())
        assert first.status == SKIPPED
        assert detector.vocab is None
        for f in frames:
            detector.on_frame(f)
        assert detector.vocab is not None
        assert len(detector.vocab) > 0
        # empty frames after initialisation are handled too
        result = detector.on_frame(FeatureSet.empty())
        assert result.status in (SKIPPED, REJECTED)


# The hash chain of test_frame_states_pinned.
FRAME_STATE_DIGEST = "237b57d2979a39a665346cb7482ff014e3762ed56e4f971beaae6afff1e6734e"


def test_frame_states_pinned(monkeypatch):
    # A purging stream run frame by frame through the detector.  After
    # every frame its LoopResult, the vocabulary's update counters, every
    # tree's dump, the store bytes and row -> id array and the rng state
    # are hashed into one chain, which pins how the forest evolves through
    # leaf rebuilds, prunes and centre reselections.  A long probation
    # purges words that have become centres of internal nodes.
    frames, _ = generate_synthetic("new:40,revisit:0:30", n_features=200, seed=6)
    vocab_params = VocabParams(
        branching=4, leaf_capacity=8, probation_frames=15, required_matches=8, seed=6
    )
    detector = LoopDetector(
        vocab_params,
        DetectorParams(buffer_size=12, min_inliers=12, shortcut_after=3, island_halfwidth=4),
    )
    reselections = []
    reselect = HammingTree._reselect_centre
    monkeypatch.setattr(
        HammingTree, "_reselect_centre", lambda tree, *node: reselections.append(1) or reselect(tree, *node)
    )
    prunes = []
    purge = Vocabulary.purge_temporaries

    def counting(vocab, frame):
        # A purge only removes words, so its trees lose a dump line exactly
        # when it prunes a node.
        before = sum(t.dump().count("\n") for t in vocab.forest.trees)
        purged = purge(vocab, frame)
        prunes.append(sum(t.dump().count("\n") for t in vocab.forest.trees) < before)
        return purged

    monkeypatch.setattr(Vocabulary, "purge_temporaries", counting)
    chain = hashlib.sha256()
    for features in frames:
        result = detector.on_frame(features)
        forest = detector.vocab.forest
        for part in (
            repr(result).encode(),
            repr(detector.vocab.last_stats).encode(),
            *(tree.dump().encode() for tree in forest.trees),
            forest.store._data.tobytes(),
            forest.store._word_of.tobytes(),
            repr(forest.rng.bit_generator.state).encode(),
        ):
            chain.update(hashlib.sha256(part).digest())
    assert sum(prunes) >= 10 and len(reselections) >= 10, (sum(prunes), len(reselections))
    assert chain.hexdigest() == FRAME_STATE_DIGEST
