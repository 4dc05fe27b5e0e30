import numpy as np
import pytest

from loopclose.bits import flip_random_bits, popcount, random_descriptors
from loopclose.imgproc import FeatureSet
from loopclose.synthetic import generate_synthetic
from loopclose.vocabulary import VocabParams, Vocabulary

from helpers import (
    assign_words_loop,
    brute_force_scores,
    check_forest_invariants,
    random_feature_set,
)

SMALL = VocabParams(branching=4, leaf_capacity=10, num_trees=2, budget=32, seed=0)


def feature_set(descs):
    n = len(descs)
    return FeatureSet(
        keypoints=np.zeros((n, 2), dtype=np.float32),
        responses=np.ones(n, dtype=np.float32),
        descriptors=np.asarray(descs, dtype=np.uint8).reshape(n, -1),
    )


class TestInit:
    def test_one_stable_word_per_descriptor(self):
        rng = np.random.default_rng(0)
        vocab = Vocabulary(random_feature_set(rng, 50), SMALL)
        assert len(vocab) == 50
        assert vocab.num_temporary == 0
        assert all(vocab.doc_frequency(w) == 1 for w in vocab.words)
        assert vocab.num_images == 1

    def test_single_feature(self):
        rng = np.random.default_rng(1)
        vocab = Vocabulary(random_feature_set(rng, 1), SMALL)
        assert len(vocab) == 1

    def test_empty_features_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(FeatureSet.empty(), SMALL)

    def test_duplicate_descriptors_no_dedup(self):
        rng = np.random.default_rng(2)
        desc = random_descriptors(rng, 1)[0]
        fs = feature_set([desc, desc, desc])
        vocab = Vocabulary(fs, SMALL)
        assert len(vocab) == 3
        # scoring still matches the brute-force oracle on this corner case
        matches, _ = vocab.assign_words(fs)
        got = {s.image_id: s.score for s in vocab._score_from_matches(matches, ())}
        expected = brute_force_scores(vocab, [w for _, w in matches])
        assert got.keys() == expected.keys()
        for image_id in got:
            assert got[image_id] == pytest.approx(expected[image_id], rel=1e-9)


class TestAssignWords:
    def test_exact_match_accepted(self):
        rng = np.random.default_rng(3)
        fs = random_feature_set(rng, 30)
        vocab = Vocabulary(fs, SMALL)
        matches, unmatched = vocab.assign_words(feature_set([fs.descriptors[4]]))
        assert unmatched == []
        assert matches[0][1] == 4

    def test_equidistant_candidates_rejected(self):
        # d1 == d2 fails the strict ratio test.
        a = np.zeros(32, dtype=np.uint8)
        b = a.copy()
        b[0] = 0b11  # distance 2 from a
        vocab = Vocabulary(feature_set([a, b]), SMALL)
        probe = np.zeros(32, dtype=np.uint8)
        probe[0] = 0b01  # distance 1 from both
        matches, unmatched = vocab.assign_words(feature_set([probe]))
        assert matches == []
        assert unmatched == [0]

    def test_far_feature_unmatched(self):
        rng = np.random.default_rng(4)
        fs = random_feature_set(rng, 40)
        vocab = Vocabulary(fs, SMALL)
        probe = ~fs.descriptors[0]  # near-complement of every stored word
        matches, unmatched = vocab.assign_words(feature_set([probe]))
        # oracle: the ratio test must fail by exhaustive scan
        from loopclose.bits import hamming_matrix

        d = np.sort(hamming_matrix(probe[None], fs.descriptors)[0])
        assert d[0] >= 0.8 * d[1]
        assert matches == [] and unmatched == [0]

    def test_single_word_vocabulary_radius(self):
        rng = np.random.default_rng(5)
        desc = random_descriptors(rng, 1)[0]
        vocab = Vocabulary(feature_set([desc]), SMALL)
        near = flip_random_bits(rng, desc[None], 10)[0]
        far = flip_random_bits(rng, desc[None], 100)[0]
        matches, _ = vocab.assign_words(feature_set([near]))
        assert matches == [(0, 0)]
        matches, unmatched = vocab.assign_words(feature_set([far]))
        assert matches == [] and unmatched == [0]


class TestBatchedAssignment:
    def test_equals_per_query_loop_over_churned_stream(self):
        # Every frame of a 200-frame stream with merges, temporaries and
        # purges is assigned as the per-query loop assigns it, through both
        # the batch answer and the per-query walk.
        frames, _ = generate_synthetic("new:120,revisit:0:80", n_features=120, seed=31)
        params = VocabParams(branching=8, leaf_capacity=40, num_trees=4, budget=64, seed=4)
        vocab = Vocabulary(frames[0], params)
        walk = vocab.forest._best_bin_first
        walks = []
        vocab.forest._best_bin_first = lambda *args, **kwargs: walks.append(1) or walk(*args, **kwargs)
        walked = features = deleted = merged = 0
        for frame, fs in enumerate(frames[1:], start=1):
            before = len(walks)
            got = vocab.assign_words(fs)
            walked += len(walks) - before
            features += len(fs)
            assert got == assign_words_loop(vocab, fs), f"frame {frame}"
            vocab.process_image(fs, frame, frame)
            deleted += vocab.last_stats.deleted
            merged += vocab.last_stats.merged
        assert 0 < walked < features
        assert deleted > 0 and merged > 0


class TestMerge:
    def test_and_semantics(self):
        a = np.array([0b1100] + [0] * 31, dtype=np.uint8)
        q = np.array([0b1010] + [0] * 31, dtype=np.uint8)
        vocab = Vocabulary(feature_set([a]), SMALL)
        vocab.merge_word(0, q)
        assert vocab.descriptor(0)[0] == 0b1000
        assert vocab.words[0].times_matched == 1

    def test_idempotent_and_identity(self):
        rng = np.random.default_rng(6)
        desc = random_descriptors(rng, 1)[0]
        vocab = Vocabulary(feature_set([desc]), SMALL)
        vocab.merge_word(0, desc)
        assert np.array_equal(vocab.descriptor(0), desc)
        ones = np.full(32, 0xFF, dtype=np.uint8)
        vocab.merge_word(0, ones)
        assert np.array_equal(vocab.descriptor(0), desc)

    def test_popcount_never_increases(self):
        rng = np.random.default_rng(7)
        fs = random_feature_set(rng, 10)
        vocab = Vocabulary(fs, SMALL)
        for wid in range(10):
            before = popcount(vocab.descriptor(wid))
            vocab.merge_word(wid, random_descriptors(rng, 1)[0])
            assert popcount(vocab.descriptor(wid)) <= before

    def test_dead_word_rejected(self):
        rng = np.random.default_rng(8)
        vocab = Vocabulary(random_feature_set(rng, 5), SMALL)
        with pytest.raises(KeyError):
            vocab.merge_word(99, random_descriptors(rng, 1)[0])

    def test_merge_words_equals_one_merge_per_match(self):
        # Repeated words fold every row and count every match; a batch
        # naming a dead word changes nothing.
        rng = np.random.default_rng(38)
        fs = random_feature_set(rng, 10)
        batched, single = Vocabulary(fs, SMALL), Vocabulary(fs, SMALL)
        word_ids = [3, 7, 3, 0, 3, 7]
        descs = random_descriptors(rng, len(word_ids))
        batched.merge_words(word_ids, descs)
        for wid, desc in zip(word_ids, descs):
            single.merge_word(wid, desc)
        for wid in range(10):
            assert np.array_equal(batched.descriptor(wid), single.descriptor(wid))
            assert batched.words[wid].times_matched == single.words[wid].times_matched
        assert batched.words[3].times_matched == 3
        before = [(batched.descriptor(w), batched.words[w].times_matched) for w in range(10)]
        with pytest.raises(KeyError, match="99"):
            batched.merge_words([1, 99], random_descriptors(rng, 2))
        after = [(batched.descriptor(w), batched.words[w].times_matched) for w in range(10)]
        assert all(np.array_equal(a[0], b[0]) and a[1] == b[1] for a, b in zip(before, after))


class TestTemporaryLifecycle:
    def test_add_temporaries_grows_vocab(self):
        rng = np.random.default_rng(9)
        fs = random_feature_set(rng, 20)
        vocab = Vocabulary(fs, SMALL)
        extra = random_feature_set(rng, 10)
        new_ids = vocab.add_temporary_words(extra, range(10), image_id=1, frame=1)
        assert len(new_ids) == 10
        assert len(vocab) == 30
        assert vocab.num_temporary == 10
        for i, wid in zip(range(10), new_ids):
            got = vocab.forest.knn_search(extra.descriptors[i], 1, budget=len(vocab))
            assert got[0] == (wid, 0)

    def test_no_unmatched_no_change(self):
        rng = np.random.default_rng(10)
        vocab = Vocabulary(random_feature_set(rng, 20), SMALL)
        assert vocab.add_temporary_words(random_feature_set(rng, 3), [], 1, 1) == []
        assert len(vocab) == 20

    def test_promotion_after_enough_matches(self):
        # created at frame 5, matched at frames 6 and 7: promoted at frame 7
        rng = np.random.default_rng(11)
        vocab = Vocabulary(random_feature_set(rng, 10), SMALL)
        word = random_descriptors(rng, 1)[0]
        (wid,) = vocab.add_temporary_words(feature_set([word]), [0], image_id=5, frame=5)
        assert vocab.purge_temporaries(6) == []
        vocab.merge_word(wid, word)
        vocab.merge_word(wid, word)
        assert vocab.purge_temporaries(7) == []
        assert not vocab.is_temporary(wid)

    def test_unmatched_word_deleted(self):
        rng = np.random.default_rng(12)
        vocab = Vocabulary(random_feature_set(rng, 10), SMALL)
        word = random_descriptors(rng, 1)[0]
        (wid,) = vocab.add_temporary_words(feature_set([word]), [0], image_id=5, frame=5)
        assert vocab.purge_temporaries(7) == [wid]
        assert wid not in vocab.words
        assert wid not in vocab.postings
        assert wid not in vocab.forest

    def test_stable_words_never_purged(self):
        rng = np.random.default_rng(13)
        vocab = Vocabulary(random_feature_set(rng, 10), SMALL)
        assert vocab.purge_temporaries(10_000) == []
        assert len(vocab) == 10

    def test_purge_disabled(self):
        rng = np.random.default_rng(14)
        params = VocabParams(branching=4, leaf_capacity=10, num_trees=2, purge=False)
        vocab = Vocabulary(random_feature_set(rng, 10), params)
        vocab.add_temporary_words(random_feature_set(rng, 4), range(4), 5, 5)
        assert vocab.purge_temporaries(100) == []
        assert len(vocab) == 14


class TestScoring:
    def test_no_matches_empty_result(self):
        rng = np.random.default_rng(15)
        vocab = Vocabulary(random_feature_set(rng, 30), SMALL)
        probe = feature_set([~d for d in vocab.forest.store.gather(np.arange(1))])
        assert vocab.score_images(probe) == []

    def test_disjoint_corpora(self):
        rng = np.random.default_rng(16)
        img0 = random_feature_set(rng, 25)
        img1 = random_feature_set(rng, 25)
        vocab = Vocabulary(img0, SMALL)
        vocab.process_image(img1, image_id=1, frame=1)
        ranked = vocab.score_images(img0)
        assert ranked
        assert ranked[0].image_id == 0
        assert all(s.image_id == 0 for s in ranked)

    def test_matches_bruteforce_oracle_on_random_corpora(self):
        rng = np.random.default_rng(17)
        for trial in range(5):
            params = VocabParams(
                branching=4, leaf_capacity=12, num_trees=2, budget=48, seed=trial
            )
            n_images = int(rng.integers(5, 20))
            vocab = Vocabulary(random_feature_set(rng, int(rng.integers(10, 50))), params)
            for image_id in range(1, n_images):
                fs = random_feature_set(rng, int(rng.integers(10, 50)))
                vocab.process_image(fs, image_id=image_id, frame=image_id)
            query = random_feature_set(rng, 40)
            matches, _ = vocab.assign_words(query)
            exclude = {n_images - 1}
            got = vocab._score_from_matches(matches, exclude)
            expected = brute_force_scores(vocab, [w for _, w in matches], exclude)
            assert {s.image_id for s in got} == expected.keys()
            for image_id, score in got:
                assert score == pytest.approx(expected[image_id], rel=1e-9)
            # descending scores, ties by ascending id
            pairs = [(-s.score, s.image_id) for s in got]
            assert pairs == sorted(pairs)

    def test_scores_positive(self):
        rng = np.random.default_rng(18)
        vocab = Vocabulary(random_feature_set(rng, 20), SMALL)
        for image_id in range(1, 6):
            vocab.process_image(random_feature_set(rng, 20), image_id, image_id)
        for s in vocab.score_images(random_feature_set(rng, 20)):
            assert s.score > 0


class TestProcessImage:
    def test_same_image_twice_top_score_is_first_occurrence(self):
        rng = np.random.default_rng(19)
        base = random_feature_set(rng, 30)
        vocab = Vocabulary(base, SMALL)
        for i in range(1, 4):
            vocab.process_image(random_feature_set(rng, 30), i, i)
        repeated = random_feature_set(rng, 30)
        vocab.process_image(repeated, 4, 4)
        scores = vocab.process_image(repeated, 5, 5)
        assert scores[0].image_id == 4

    def test_excluded_images_never_scored(self):
        rng = np.random.default_rng(20)
        base = random_feature_set(rng, 30)
        vocab = Vocabulary(base, SMALL)
        vocab.process_image(base, 1, 1)
        scores = vocab.process_image(base, 2, 2, exclude={1})
        assert all(s.image_id != 1 for s in scores)

    def test_purge_soundness_and_index_consistency(self):
        rng = np.random.default_rng(21)
        params = VocabParams(branching=4, leaf_capacity=12, num_trees=2, seed=3)
        vocab = Vocabulary(random_feature_set(rng, 40), params)
        for frame in range(1, 30):
            if rng.random() < 0.4 and frame > 2:
                # near-duplicate of an earlier frame to provoke merges
                fs = random_feature_set(rng, 40)
            else:
                fs = random_feature_set(rng, 40)
            vocab.process_image(fs, frame, frame)
            # no temporary word past its probation window survives
            for wid in vocab.words:
                if vocab.is_temporary(wid):
                    assert frame - vocab.words[wid].created_at < params.probation_frames
            # inverted index references only live words / processed images
            processed = set(vocab.images_indexed)
            for wid, plist in vocab.postings.items():
                assert wid in vocab.words
                assert vocab.doc_frequency(wid) == len(plist)
                assert all(img in processed for img, _ in plist)
                assert all(c >= 1 for _, c in plist)
            # totals agree with the posting lists
            totals: dict[int, int] = {}
            for plist in vocab.postings.values():
                for img, c in plist:
                    totals[img] = totals.get(img, 0) + c
            for img, total in totals.items():
                assert vocab.image_term_totals[img] == total
        check_forest_invariants(vocab.forest, params.leaf_capacity)

    def test_vocabulary_smaller_with_purging(self):
        rng = np.random.default_rng(22)
        frames = [random_feature_set(rng, 30) for _ in range(60)]
        sizes = {}
        for purge in (True, False):
            params = VocabParams(
                branching=4, leaf_capacity=12, num_trees=2, purge=purge, seed=1
            )
            vocab = Vocabulary(frames[0], params)
            for i, fs in enumerate(frames[1:], start=1):
                vocab.process_image(fs, i, i)
            sizes[purge] = len(vocab)
        assert sizes[True] < sizes[False]

    def test_identical_frames_keep_vocabulary_flat(self):
        rng = np.random.default_rng(23)
        fs = random_feature_set(rng, 40)
        params = VocabParams(branching=4, leaf_capacity=12, num_trees=2, seed=2)
        vocab = Vocabulary(fs, params)
        vocab.process_image(fs, 1, 1)
        vocab.process_image(fs, 2, 2)
        size_after_two = len(vocab)
        for frame in range(3, 15):
            vocab.process_image(fs, frame, frame)
        assert abs(len(vocab) - size_after_two) <= params.leaf_capacity

    def test_stats_stream(self):
        rng = np.random.default_rng(24)
        vocab = Vocabulary(random_feature_set(rng, 20), SMALL)
        assert vocab.last_stats.added == 20
        vocab.process_image(random_feature_set(rng, 15), 1, 1)
        stats = vocab.last_stats
        assert stats.frame == 1
        assert stats.vocab_size == len(vocab)
        assert stats.merged + stats.added >= 0

    def test_word_ids_never_reused(self):
        rng = np.random.default_rng(25)
        vocab = Vocabulary(random_feature_set(rng, 10), SMALL)
        highest = max(vocab.words)
        for frame in range(1, 12):
            vocab.process_image(random_feature_set(rng, 10), frame, frame)
            new = {w for w in vocab.words if w > highest}
            old = set(vocab.words) - new
            assert all(w <= highest for w in old)
            if new:
                assert min(new) == highest + 1 or min(new) > highest
                highest = max(new)
