import hashlib
import sys
import threading

import numpy as np
import pytest

from loopclose.bits import (
    flip_random_bits,
    hamming,
    hamming_matrix,
    plane_distances,
    popcount,
    random_descriptors,
)
from loopclose import hamming_tree
from loopclose.hamming_tree import (
    NO_DISTANCE,
    ROOT,
    HammingForest,
    HammingTree,
    _FrameDescent,
)

from helpers import (
    all_nodes,
    centre_columns,
    check_forest_invariants,
    children,
    initial_leaf_rows,
    is_leaf,
    leaf_rows,
    linear_nn_distances,
    plain_descent,
    walk_answer,
    walk_rows,
)

GOLDEN_DUMP = """\
node root
  node c=w6
    leaf c=w3 [w3]
    node c=w6
      leaf c=w2 [w0,w2]
      node c=w4
        leaf c=w4 [w4,w6]
        leaf c=w9 [w9]
  node c=w8
    leaf c=w5 [w1,w5]
    leaf c=w8 [w7,w8]"""

# The hash chain of test_forest_evolution_pinned.
FOREST_EVOLUTION_DIGEST = "4f0c295d2487e2ebe0d850a08a060db8bf75c9bd20348d37cd80ca91b744b1f9"


def make_forest(descs, seed=0, **kwargs):
    forest = HammingForest(width=descs.shape[1] * 8, seed=seed, **kwargs)
    forest.build({i: descs[i] for i in range(len(descs))})
    return forest


def make_tree(words, branching, leaf_capacity, seed):
    """A standalone tree: the single tree of a one-tree forest."""
    width = len(next(iter(words.values()))) * 8
    forest = HammingForest(
        width=width, branching=branching, leaf_capacity=leaf_capacity, num_trees=1, seed=seed
    )
    forest.build(words)
    return forest.trees[0]


def leaf_ids(tree, leaf):
    return tree.store.ids_at(leaf_rows(tree, leaf)).tolist()


def leaf_lookup(tree):
    """Each word of a tree with the rows of the leaf the row -> leaf array names."""
    rows = np.flatnonzero(tree.leaf_of >= 0).tolist()
    return {int(tree.store.ids_at(r)): leaf_rows(tree, tree.leaf_of[r]) for r in rows}


class TestHamming:
    def test_identity(self):
        rng = np.random.default_rng(0)
        a = random_descriptors(rng, 1)[0]
        assert hamming(a, a) == 0

    def test_complement(self):
        zeros = np.zeros(32, dtype=np.uint8)
        ones = np.full(32, 0xFF, dtype=np.uint8)
        assert hamming(zeros, ones) == 256

    def test_small_pattern(self):
        # 0b1100 vs 0b1010 differ in two bits, embedded in one byte.
        a = np.array([0b1100], dtype=np.uint8)
        b = np.array([0b1010], dtype=np.uint8)
        assert hamming(a, b) == 2

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="width"):
            hamming(np.zeros(32, dtype=np.uint8), np.zeros(16, dtype=np.uint8))

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(1)
        a, b, c = random_descriptors(rng, 3)
        assert hamming(a, b) == hamming(b, a)
        assert hamming(a, c) <= hamming(a, b) + hamming(b, c)

    @pytest.mark.parametrize("width", [64, 256, 512])
    def test_matrix_and_row_distances_equal_pairwise(self, width):
        rng = np.random.default_rng(width)
        a = random_descriptors(rng, 23, width)
        b = random_descriptors(rng, 17, width)
        b[3] = ~a[5]  # distance equal to the width
        pairwise = np.array([[hamming(x, y) for y in b] for x in a])
        got = hamming_matrix(a, b)
        assert got.dtype == np.int32
        np.testing.assert_array_equal(got, pairwise)
        a64, b64 = a.view(np.uint64), b.view(np.uint64)
        picks = rng.integers(len(b), size=(len(a), 9))
        np.testing.assert_array_equal(
            plane_distances(a64, b64, picks), np.take_along_axis(pairwise, picks, axis=1)
        )
        np.testing.assert_array_equal(plane_distances(a64, b64, picks[0]), pairwise[:, picks[0]])

    def test_descent_distances_equal_pairwise(self):
        # Each level of a descent records the queries' distances to their
        # node's child centres, padding masked, and the first nearest child;
        # a query descended alone records the same rows.
        rng = np.random.default_rng(2)
        forest = make_forest(random_descriptors(rng, 400), seed=2, branching=6, leaf_capacity=20)
        tree = forest.trees[0]
        q64 = random_descriptors(rng, 30).view(np.uint64)
        _, levels = tree.descend(q64)
        assert len(levels) > 1
        for queries, nodes, d, best in levels:
            assert d.shape == (len(queries), tree.branching)
            for i, node, row, b in zip(queries.tolist(), nodes.tolist(), d.tolist(), best.tolist()):
                expected = [hamming(q64[i].view(np.uint8), centre) for centre in centre_columns(tree, node)]
                assert row == expected + [hamming_tree._MASKED] * (tree.branching - len(expected))
                assert b == expected.index(min(expected))
        for i in range(30):
            _, alone = tree.descend(q64[i : i + 1])
            rows = [d[queries == i][0].tolist() for queries, _, d, _ in levels if (queries == i).any()]
            assert [d[0].tolist() for _, _, d, _ in alone] == rows


class TestBuild:
    def test_ten_words_small_tree_shape(self):
        rng = np.random.default_rng(11)
        descs = random_descriptors(rng, 10)
        tree = make_tree({i: descs[i] for i in range(10)}, branching=2, leaf_capacity=3, seed=5)
        sizes = [len(leaf_rows(tree, n)) for n in all_nodes(tree) if is_leaf(tree, n)]
        assert all(s <= 3 for s in sizes)
        assert sum(sizes) == 10
        assert set(leaf_lookup(tree)) == set(range(10))
        # internal nodes are labelled by the word chosen as cluster centre
        assert not is_leaf(tree, ROOT)
        for child in children(tree, ROOT):
            assert tree.centre_word[child] in range(10)

    def test_golden_dump(self):
        rng = np.random.default_rng(11)
        descs = random_descriptors(rng, 10)
        tree = make_tree({i: descs[i] for i in range(10)}, branching=2, leaf_capacity=3, seed=5)
        assert tree.dump() == GOLDEN_DUMP

    def test_below_leaf_threshold_single_leaf(self):
        rng = np.random.default_rng(2)
        descs = random_descriptors(rng, 2)
        tree = make_tree({7: descs[0], 9: descs[1]}, branching=2, leaf_capacity=3, seed=0)
        assert is_leaf(tree, ROOT)
        assert sorted(leaf_ids(tree, ROOT)) == [7, 9]

    def test_same_seed_identical_trees(self):
        rng = np.random.default_rng(3)
        descs = random_descriptors(rng, 60)
        words = {i: descs[i] for i in range(60)}
        a = make_tree(words, branching=4, leaf_capacity=5, seed=9)
        b = make_tree(words, branching=4, leaf_capacity=5, seed=9)
        assert a.dump() == b.dump()

    def test_duplicate_descriptors_still_terminate(self):
        # All-identical descriptors cannot be split by distance; the build
        # must still make progress and respect the leaf bound.
        desc = np.full(32, 0xAB, dtype=np.uint8)
        words = {i: desc.copy() for i in range(40)}
        tree = make_tree(words, branching=4, leaf_capacity=5, seed=1)
        assert all(len(leaf_rows(tree, n)) <= 5 for n in all_nodes(tree) if is_leaf(tree, n))
        assert set(leaf_lookup(tree)) == set(range(40))

    def test_refused_build_leaves_the_forest_unchanged(self):
        # Every word of a build is checked before the first is stored.
        # Before, a build refused on a duplicate id kept the words stored
        # ahead of it in the store but in no tree: a walk missed them, a
        # full-budget search found them, and removing one raised.
        rng = np.random.default_rng(38)
        a, b, c = random_descriptors(rng, 3)
        forest = HammingForest(seed=38)
        forest.build({0: a})

        def answers():
            ids, dists = forest.knn_search_batch(b[None], 1, budget=1)
            return (
                len(forest.store),
                forest.knn_search(b, 1, budget=1),
                forest.knn_search(b, 1, budget=1000),
                ids.tolist(),
                dists.tolist(),
                [t.dump() for t in forest.trees],
            )

        before = answers()
        with pytest.raises(ValueError, match="word 0 already stored"):
            forest.build({1: b, 0: c})
        assert answers() == before
        with pytest.raises(ValueError, match="width"):
            forest.build({1: b, 2: c[:16]})
        assert answers() == before
        with pytest.raises(KeyError):
            forest.remove(1)
        assert answers() == before
        forest.remove(0)
        assert len(forest) == 0 and forest.knn_search(b, 1, budget=1000) == []

    def test_second_build_keeps_earlier_words(self):
        # Every tree is rebuilt over all stored words.  Before, a second
        # build rebuilt the trees over its own words only, and the earlier
        # ones stayed in the store but in no tree.
        rng = np.random.default_rng(39)
        a, b = random_descriptors(rng, 2)
        forest = HammingForest(seed=39)
        forest.build({0: a})
        forest.build({1: b})
        for q, word in ((a, 0), (b, 1)):
            for budget in (1, 1000):
                assert forest.knn_search(q, 1, budget) == [(word, 0)]
        check_forest_invariants(forest, 150)
        forest.remove(0)
        assert len(forest) == 1 and forest.knn_search(a, 1, 1000)[0].word_id == 1


class TestSearch:
    def test_full_budget_equals_linear_scan(self):
        rng = np.random.default_rng(4)
        descs = random_descriptors(rng, 500)
        forest = make_forest(descs, seed=4)
        queries = random_descriptors(rng, 100)
        oracle = linear_nn_distances(queries, descs)
        for i, q in enumerate(queries):
            got = forest.knn_search(q, 1, budget=500)
            assert got[0].distance == oracle[i]
            # A full budget ranks every live word; the best-bin-first walk
            # run to exhaustion must reach the same answer.
            assert walk_answer(forest, q, 1, budget=500) == got

    def test_full_budget_knn_distance_lists(self):
        rng = np.random.default_rng(5)
        descs = random_descriptors(rng, 300)
        forest = make_forest(descs, seed=5)
        from loopclose.bits import hamming_matrix

        queries = random_descriptors(rng, 40)
        dist = hamming_matrix(queries, descs)
        for i, q in enumerate(queries):
            got = forest.knn_search(q, 5, budget=300)
            expected = np.sort(dist[i])[:5]
            assert [n.distance for n in got] == expected.tolist()
            assert walk_answer(forest, q, 5, budget=300) == got

        # After removals and in-place merges the walk still covers every
        # live word, and reads the merged descriptors as the full budget does.
        for i in range(0, 300, 4):
            forest.remove(i)
        for i in range(1, 300, 8):
            forest.merge_and(i, queries[i % 40])
        for q in queries:
            got = forest.knn_search(q, 5, budget=len(forest))
            assert walk_answer(forest, q, 5, budget=len(forest)) == got
            assert not {n.word_id for n in got} & set(range(0, 300, 4))

    def test_sparse_word_ids_dedup_sized_by_store_rows(self):
        # Word ids are never reused, so they run far past the live
        # vocabulary; the walk dedups by store row, which removals free and
        # later inserts reuse, and must still reach the full budget's answer.
        rng = np.random.default_rng(22)
        descs = random_descriptors(rng, 1600)
        ids = [10**6 + 1000 * i for i in range(1600)]
        forest = HammingForest(leaf_capacity=20, branching=4, num_trees=3, seed=22)
        forest.build({ids[i]: descs[i] for i in range(400)})
        queries = random_descriptors(rng, 20)
        forest.knn_search(queries[0], 2)  # a walk before the store grows
        for i in range(400, 1600):  # grows the store past its first 1024 rows
            forest.insert(ids[i], descs[i])
            if i % 3 == 0:
                forest.remove(ids[i - 300])
        for q in queries:
            got = forest.knn_search(q, 5, budget=len(forest))
            assert walk_answer(forest, q, 5, budget=len(forest)) == got
        assert forest.store.capacity < 10**6

    def test_concurrent_searches_match_sequential(self):
        # Searches write no forest state, so interleaving them on threads
        # (switching as often as the interpreter allows) changes no answer.
        rng = np.random.default_rng(0)
        descs = random_descriptors(rng, 3000)
        forest = make_forest(descs, seed=0)
        queries = random_descriptors(rng, 4000)
        expected = [forest.knn_search(q, 2, budget=200) for q in queries]
        got = [None] * len(queries)

        def search(start):
            for i in range(start, len(queries), 4):
                got[i] = forest.knn_search(queries[i], 2, budget=200)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=search, args=(s,)) for s in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        differ = sum(g != e for g, e in zip(got, expected))
        assert differ == 0, f"{differ} of {len(queries)} concurrent searches differ"

    def test_budgeted_walk_answers_pinned(self):
        # A digest of a churned forest's budget-64 answers pins the heap tie
        # order and the budget accounting, which comparing two runs of the
        # same code (test_search_determinism) cannot.
        rng = np.random.default_rng(24)
        centres = random_descriptors(rng, 150)
        descs = np.concatenate(
            [flip_random_bits(rng, np.tile(c, (16, 1)), 12) for c in centres]
        )
        descs = descs[rng.permutation(len(descs))]
        forest = HammingForest(leaf_capacity=30, branching=8, num_trees=4, seed=24)
        forest.build({i: descs[i] for i in range(1200)})
        for i in range(1200, 2400):
            forest.insert(i, descs[i])
            if i % 3 == 0:
                forest.remove(i - 1000)
            if i % 5 == 0:
                forest.merge_and(i - 1, descs[i - 700])
        queries = np.concatenate([
            flip_random_bits(rng, descs[rng.integers(len(descs), size=1500)], 25),
            random_descriptors(rng, 500),
        ])
        answers = [[tuple(n) for n in forest.knn_search(q, 2)] for q in queries]
        assert len(forest) == 2000 and forest.budget == 64
        assert hashlib.sha256(repr(answers).encode()).hexdigest() == (
            "7dd73264b6de7d6a2d152bc58bb507660db1bddfa22582ab4ac8539abc0f4e76"
        )

    def test_stored_word_found_at_distance_zero(self):
        rng = np.random.default_rng(6)
        descs = random_descriptors(rng, 500)
        forest = make_forest(descs, seed=6)
        for i in (0, 123, 499):
            got = forest.knn_search(descs[i], 1, budget=500)
            assert got[0] == (i, 0)

    def test_results_ascending_and_distinct(self):
        rng = np.random.default_rng(7)
        descs = random_descriptors(rng, 400)
        forest = make_forest(descs, seed=7)
        q = random_descriptors(rng, 1)[0]
        got = forest.knn_search(q, 10, budget=400)
        dists = [n.distance for n in got]
        assert dists == sorted(dists)
        ids = [n.word_id for n in got]
        assert len(ids) == len(set(ids))

    def test_empty_forest(self):
        forest = HammingForest(seed=0)
        q = np.zeros(32, dtype=np.uint8)
        assert forest.knn_search(q, 3) == []

    def test_budgeted_hit_rate_on_clustered_corpus(self):
        # Descriptors clustered like real image features: the budgeted
        # search must find the exact nearest neighbour most of the time.
        rng = np.random.default_rng(8)
        centres = random_descriptors(rng, 250)
        descs = np.concatenate(
            [flip_random_bits(rng, np.tile(c, (20, 1)), 10) for c in centres]
        )
        descs = descs[rng.permutation(len(descs))]
        forest = make_forest(descs, seed=8)
        hits = 0
        n_queries = 300
        for _ in range(n_queries):
            base = descs[rng.integers(len(descs))]
            q = flip_random_bits(rng, base[None], 15)[0]
            got = forest.knn_search(q, 1, budget=64)
            oracle = linear_nn_distances(q[None], descs)[0]
            hits += got[0].distance == oracle
        rate = hits / n_queries
        print(f"\nclustered 5000-word corpus, budget 64: exact-NN rate {rate:.3f}")
        assert rate >= 0.8

    def test_budgeted_hit_rate_on_uniform_corpus_reported(self):
        # Uniform random descriptors carry almost no cluster structure, so
        # the budgeted hit rate is far lower; measured and reported here and
        # in the acceptance suite, whose 0.80 floor is asserted on clustered
        # vocabularies only.
        rng = np.random.default_rng(9)
        descs = random_descriptors(rng, 2000)
        forest = make_forest(descs, seed=9)
        queries = random_descriptors(rng, 200)
        oracle = linear_nn_distances(queries, descs)
        hits = sum(
            forest.knn_search(q, 1, budget=64)[0].distance == oracle[i]
            for i, q in enumerate(queries)
        )
        print(f"\nuniform 2000-word corpus, budget 64: exact-NN rate {hits / 200:.3f}")
        assert 0 <= hits <= 200

    def test_search_determinism(self):
        rng = np.random.default_rng(10)
        descs = random_descriptors(rng, 600)
        queries = random_descriptors(rng, 30)
        runs = []
        for _ in range(2):
            forest = make_forest(descs, seed=10)
            runs.append([forest.knn_search(q, 3) for q in queries])
        assert runs[0] == runs[1]


def churned_forest(kind, num_trees, seed, leaf_capacity=40):
    """A forest after inserts, removals and in-place merges, and queries for it.

    The descriptors are clustered or uniform, with exact duplicates, and a
    fifth of the queries are stored descriptors, so distance ties occur.
    """
    rng = np.random.default_rng(seed)
    if kind == "clustered":
        centres = random_descriptors(rng, 60)
        descs = np.concatenate([flip_random_bits(rng, np.tile(c, (20, 1)), 12) for c in centres])
    else:
        descs = random_descriptors(rng, 1200)
    descs[rng.integers(1200, size=150)] = descs[rng.integers(1200, size=150)]
    descs = descs[rng.permutation(len(descs))]
    forest = HammingForest(
        leaf_capacity=leaf_capacity, branching=6, num_trees=num_trees, budget=64, seed=seed
    )
    forest.build({i: descs[i] for i in range(500)})
    for i in range(500, 1200):
        forest.insert(i, descs[i])
        if i % 3 == 0:
            forest.remove(i - 400)
        if i % 7 == 0:
            forest.merge_and(i - 1, descs[i - 300])
    queries = np.concatenate([
        flip_random_bits(rng, descs[rng.integers(len(descs), size=150)], 20),
        descs[rng.integers(len(descs), size=50)],
        random_descriptors(rng, 50),
    ])
    return forest, queries


def per_query_answers(forest, queries, k, budget):
    """Each query's answer from code outside the forest's search, laid out
    as ``knn_search_batch`` returns it: the oracle walk's answer below the
    live word count, a brute-force scan of the live words at or above it."""
    ids = np.full((len(queries), k), -1, dtype=np.int64)
    dists = np.full((len(queries), k), NO_DISTANCE, dtype=np.int32)
    words = sorted(forest.store.word_ids)
    scan = hamming_matrix(queries, np.stack([forest.descriptor(w) for w in words]))
    for i, q in enumerate(queries):
        if budget < len(forest):
            found = walk_answer(forest, q, k, budget)
        else:
            found = [(w, d) for d, w in sorted(zip(scan[i].tolist(), words))[:k]]
        ids[i, : len(found)] = [w for w, _ in found]
        dists[i, : len(found)] = [d for _, d in found]
    return ids, dists


def record_walks(monkeypatch):
    """Record every walk of a frame descent: ``(query, budget, walked rows)``."""
    calls = []
    walks = _FrameDescent.walks

    def recording(descent, queries, budget):
        walked = walks(descent, queries, budget)
        calls.extend((descent.q64[i].view(np.uint8), budget, rows) for i, rows in zip(queries, walked))
        return walked

    monkeypatch.setattr(_FrameDescent, "walks", recording)
    return calls


class TestBatchSearch:
    @pytest.mark.parametrize("kind", ["clustered", "uniform"])
    @pytest.mark.parametrize("num_trees", [1, 4])
    def test_batch_equals_per_query_search(self, kind, num_trees):
        forest, queries = churned_forest(kind, num_trees, seed=30 + num_trees)
        for budget in (1, 16, 64, len(forest)):
            for k in (1, 2, 5):
                ids, dists = forest.knn_search_batch(queries, k, budget)
                exp_ids, exp_dists = per_query_answers(forest, queries, k, budget)
                np.testing.assert_array_equal(ids, exp_ids, err_msg=f"budget {budget}, k {k}")
                np.testing.assert_array_equal(dists, exp_dists, err_msg=f"budget {budget}, k {k}")
        # Duplicates and stored-word queries do produce tied distances.
        ids, dists = forest.knn_search_batch(queries, 5, 64)
        assert (dists[:, 1:] == dists[:, :-1]).any()

    def test_walk_taken_exactly_when_leaves_hold_fewer_than_budget(self, monkeypatch):
        # A query is answered from its reached leaves only when they hold
        # at least `budget` distinct words; every other query walks.
        forest, queries = churned_forest("clustered", 4, seed=34)
        short = [i for i, q in enumerate(queries) if len(initial_leaf_rows(forest, q)) < 64]
        assert 0 < len(short) < len(queries)
        walks = record_walks(monkeypatch)
        forest.knn_search_batch(queries, 2, 64)
        walked = np.array([q for q, _, _ in walks])
        assert np.array_equal(walked, queries[short])
        walks.clear()
        forest.knn_search_batch(queries, 2, len(forest))
        assert walks == []

    def test_seeded_walks_examine_the_rows_of_unseeded_walks(self, monkeypatch):
        # The batch resumes each short query's walk from its own descent;
        # the walk examines the rows a walk descending every tree again does.
        walks = record_walks(monkeypatch)
        for kind, num_trees, budgets in (
            ("clustered", 4, (64, 200)),
            ("uniform", 2, (32, 64)),
            ("clustered", 1, (16, 32)),
        ):
            forest, queries = churned_forest(kind, num_trees, seed=40 + num_trees)
            for budget in budgets:
                walks.clear()
                forest.knn_search_batch(queries, 2, budget)
                short = [i for i, q in enumerate(queries) if len(initial_leaf_rows(forest, q)) < budget]
                assert len(walks) == len(short) > 0
                for q, walk_budget, rows in walks:
                    assert walk_budget == budget
                    assert sorted(rows) == sorted(walk_rows(forest, q, budget))

    @pytest.mark.parametrize(
        "num_trees, leaf_capacity, budget, k",
        [(2, 40, 64, 5), (4, 4, 6, 10)],
        ids=["walked-lines-widest", "k-above-rows"],
    )
    def test_ranking_tables_as_wide_as_their_rows(self, num_trees, leaf_capacity, budget, k):
        # Queries are ranked in chunks ordered by row count, each table as
        # wide as its longest line: with two trees of leaves under 40 words,
        # leaf-answered queries hold 64..78 rows and walked ones up to 102;
        # with leaves under 4 words some queries hold fewer rows than k.
        forest, queries = churned_forest("clustered", num_trees, seed=39, leaf_capacity=leaf_capacity)
        leaf_sizes = np.array([len(initial_leaf_rows(forest, q)) for q in queries])
        walked = leaf_sizes < budget
        walk_sizes = [len(walk_rows(forest, q, budget)) for q in queries]
        sizes = np.where(walked, walk_sizes, leaf_sizes)
        assert walked.any() and not walked.all()
        if k == 5:
            assert sizes[walked].max() > sizes[~walked].max()
        else:
            assert (sizes[walked] < k).any() and (sizes[~walked] < k).any()
        tables = []
        top_k = forest.store.top_k
        forest.store.top_k = lambda q64, rows, k: tables.append(rows) or top_k(q64, rows, k)
        ids, dists = forest.knn_search_batch(queries, k, budget)
        assert all(t.shape[1] == (t >= 0).sum(axis=1).max() for t in tables)
        exp_ids, exp_dists = per_query_answers(forest, queries, k, budget)
        np.testing.assert_array_equal(ids, exp_ids)
        np.testing.assert_array_equal(dists, exp_dists)
        assert (ids == -1).any() == (k == 10)

    def test_fewer_words_than_k_padded(self):
        rng = np.random.default_rng(35)
        forest = make_forest(random_descriptors(rng, 3), seed=35)
        queries = random_descriptors(rng, 4)
        for budget in (1, 3):
            ids, dists = forest.knn_search_batch(queries, 5, budget)
            exp_ids, exp_dists = per_query_answers(forest, queries, 5, budget)
            np.testing.assert_array_equal(ids, exp_ids)
            np.testing.assert_array_equal(dists, exp_dists)
            assert (ids[:, 3:] == -1).all() and (dists[:, 3:] == NO_DISTANCE).all()
            assert (ids[:, :3] >= 0).all()
        ids, dists = HammingForest(seed=0).knn_search_batch(queries, 2)
        assert ids.shape == (4, 2) and (ids == -1).all() and (dists == NO_DISTANCE).all()
        ids, dists = forest.knn_search_batch(queries[:0], 2)
        assert ids.shape == dists.shape == (0, 2)

    def test_word_ids_outside_the_key_field_refused(self):
        # A word id shares an int64 key with its distance, and free store
        # rows are marked -1, so ids must satisfy 0 <= id < 2**id_bits.
        # `build` and `insert` refuse any other id and leave the forest as
        # it was; the largest allowed id is found by both searches.
        rng = np.random.default_rng(36)
        descs = random_descriptors(rng, 300)
        forest = HammingForest(leaf_capacity=40, branching=4, num_trees=2, seed=36)
        top = (1 << forest.store.id_bits) - 1
        assert forest.store.id_bits == 54
        bad_ids = (-1, 1 << forest.store.id_bits, 1 << 60)

        def state():
            return len(forest), sorted(forest.store.word_ids), [t.dump() for t in forest.trees]

        empty = state()
        for bad in bad_ids:
            with pytest.raises(ValueError, match=f"word id {bad} is outside"):
                forest.build({0: descs[1], bad: descs[2]})
            assert state() == empty
        forest.build({top - i: descs[i] for i in range(1, 300)})
        forest.insert(top, descs[0])
        built = state()
        for bad in bad_ids:
            with pytest.raises(ValueError, match=f"word id {bad} is outside"):
                forest.insert(bad, descs[1])
            assert state() == built
        for budget in (64, 300):
            assert forest.knn_search(descs[0], 2, budget)[0] == (top, 0)
            ids, dists = forest.knn_search_batch(descs, 2, budget)
            assert ids[0, 0] == top and dists[0, 0] == 0
            assert ids[:, 0].tolist() == [top - i for i in range(300)]

    def test_width_mismatch(self):
        forest = make_forest(random_descriptors(np.random.default_rng(37), 10), seed=37)
        with pytest.raises(ValueError, match="width"):
            forest.knn_search_batch(np.zeros((3, 16), dtype=np.uint8), 2)

    @pytest.mark.parametrize(
        "call, expected, got",
        [
            (lambda f, d: f.knn_search(d[0, 0], 2), "(32,)", "()"),
            (lambda f, d: f.knn_search_batch(d[0, 0], 2), "(n, 32)", "()"),
            (lambda f, d: f.build({10: d[0, 0]}), "(32,)", "()"),
            (lambda f, d: f.knn_search_batch(d[0], 2), "(n, 32)", "(32,)"),
            (lambda f, d: f.knn_search(d[:2], 2), "(32,)", "(2, 32)"),
            (lambda f, d: f.insert_batch([10, 11], d[:3]), "(2, 32)", "(3, 32)"),
            (lambda f, d: f.merge_and_batch([0, 1], d[:1]), "(2, 32)", "(1, 32)"),
        ],
        ids=[
            "search-0d",
            "batch-0d",
            "build-0d",
            "batch-one-descriptor",
            "search-two-descriptors",
            "insert-count",
            "merge-count",
        ],
    )
    def test_descriptor_shape_refused(self, call, expected, got):
        # One store check refuses every call given descriptors of the wrong
        # shape, naming the expected and the received one.  Before, a 0-d
        # descriptor raised IndexError, and a search given one descriptor
        # too many or too few dimensions named two equal widths.
        descs = random_descriptors(np.random.default_rng(47), 10)
        forest = make_forest(descs, seed=47)
        before = forest_state(forest)
        with pytest.raises(ValueError, match="width") as refused:
            call(forest, descs)
        assert f"expected descriptors shaped {expected}, got {got}" in str(refused.value)
        assert forest_state(forest) == before

    def test_leaves_ranked_only_where_they_can_answer(self):
        # A query's summed leaf sizes bound its distinct words, so a query
        # whose leaves hold fewer than `budget` rows in all walks without
        # its leaves being ranked.  Before, every query's leaves were ranked.
        forest, queries = churned_forest("clustered", 4, seed=46)
        budget = 64
        summed = np.array(
            [sum(len(leaf_rows(t, plain_descent(t, q))) for t in forest.trees) for q in queries]
        )
        assert 0 < (summed < budget).sum() < len(queries)
        leaf_lines = []
        rank_lines = forest._rank_lines

        def recording(q64, sizes, lines, k):
            if sizes.shape[1] == len(forest.trees):
                leaf_lines.append(sizes.sum(axis=1))
            return rank_lines(q64, sizes, lines, k)

        forest._rank_lines = recording
        ids, dists = forest.knn_search_batch(queries, 2, budget)
        del forest._rank_lines
        ranked = np.concatenate(leaf_lines)
        assert (ranked >= budget).all()
        assert len(ranked) == (summed >= budget).sum()
        exp_ids, exp_dists = per_query_answers(forest, queries, 2, budget)
        np.testing.assert_array_equal(ids, exp_ids)
        np.testing.assert_array_equal(dists, exp_dists)

    def test_concurrent_batches_match_sequential(self):
        # A batch writes no tree node, only the forest's record of its
        # reached leaves, so batches on threads give the answers of an
        # identically built forest searched sequentially.
        rng = np.random.default_rng(0)
        descs = random_descriptors(rng, 3000)
        batches = np.split(random_descriptors(rng, 4000), 16)
        reference = make_forest(descs, seed=0)
        expected = [reference.knn_search_batch(b, 2, budget=200) for b in batches]
        forest = make_forest(descs, seed=0)
        got = [None] * len(batches)

        def search(start):
            for i in range(start, len(batches), 4):
                got[i] = forest.knn_search_batch(batches[i], 2, budget=200)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=search, args=(s,)) for s in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        differ = sum(
            not (np.array_equal(g[0], e[0]) and np.array_equal(g[1], e[1]))
            for g, e in zip(got, expected)
        )
        assert differ == 0, f"{differ} of {len(batches)} concurrent batches differ"

    def test_ranked_leaf_lines_are_the_reached_leaves_rows(self):
        # A frame descent reaches in each tree the leaf a plain descent
        # reaches, and every leaf line the search ranks is the rows of those
        # leaves, tree by tree, read from the trees' leaf tables; a batch
        # answers as before.  Before, the reached leaves' row lists were
        # first copied into one flat array per frame.
        forest, queries = churned_forest("clustered", 4, seed=44)
        ranked = []
        leaf_lines = [False]
        rank_lines, top_k = forest._rank_lines, forest.store.top_k

        def recording_rank(q64, sizes, lines, k):
            leaf_lines[0] = sizes.shape[1] == len(forest.trees)
            return rank_lines(q64, sizes, lines, k)

        def recording_top_k(q64, rows, k):
            if leaf_lines[0]:
                ranked.extend(zip(q64.view(np.uint8), rows.tolist()))
            return top_k(q64, rows, k)

        forest._rank_lines, forest.store.top_k = recording_rank, recording_top_k
        for batch in (queries[:12], queries):
            descent = _FrameDescent(forest.trees, batch.view(np.uint64))
            assert descent.reached.tolist() == [[plain_descent(t, q) for t in forest.trees] for q in batch]
            ranked.clear()
            ids, dists = forest.knn_search_batch(batch, 2)
            summed = [sum(len(leaf_rows(t, plain_descent(t, q))) for t in forest.trees) for q in batch]
            assert 0 < len(ranked) == sum(s >= forest.budget for s in summed)
            for q, line in ranked:
                rows = [r for t in forest.trees for r in leaf_rows(t, plain_descent(t, q))]
                assert line == rows + [-1] * (len(line) - len(rows))
            exp_ids, exp_dists = per_query_answers(forest, batch, 2, forest.budget)
            np.testing.assert_array_equal(ids, exp_ids)
            np.testing.assert_array_equal(dists, exp_dists)

    def test_descent_reaches_the_plain_descent_leaf(self):
        # The level-by-level descent of a batch reaches, for every query,
        # the leaf a one-query plain descent reaches, and each level lists
        # the queries still at an internal node, each once.
        forest, queries = churned_forest("clustered", 4, seed=49)
        for batch in (queries[:1], queries[:12], queries):
            for tree in forest.trees:
                reached, levels = tree.descend(batch.view(np.uint64))
                assert reached.tolist() == [plain_descent(tree, q) for q in batch]
                for idx, nodes, _, _ in levels:
                    assert len(np.unique(idx)) == len(idx) and (tree.child[nodes, 0] >= 0).all()
                assert levels[-1][0].size > 0 and all(is_leaf(tree, leaf) for leaf in reached.tolist())

    def test_descent_masks_padding_after_prunes(self):
        # Splits of fewer words than the branching leave padding columns
        # in a routing table, and prunes shift columns left over more.  A
        # descent takes no padding column, even for queries equal to what
        # the padding holds: every query reaches its plain-descent leaf.
        rng = np.random.default_rng(53)
        descs = random_descriptors(rng, 300)
        forest = make_forest(descs, seed=53, branching=8, leaf_capacity=4, num_trees=2)
        for word in rng.permutation(300)[:200].tolist():
            forest.remove(word)
        check_forest_invariants(forest, leaf_capacity=4)
        padding = []
        single = 0
        for tree in forest.trees:
            for node in all_nodes(tree):
                count = len(children(tree, node))
                single += count == 1
                if 0 < count < tree.branching:
                    padding.extend(tree.centres[node, :, count:].T.copy().view(np.uint8))
        assert single > 0 and len(padding) > 0
        queries = np.concatenate([descs, np.unique(padding, axis=0), random_descriptors(rng, 100)])
        for tree in forest.trees:
            reached, _ = tree.descend(queries.view(np.uint64))
            assert reached.tolist() == [plain_descent(tree, q) for q in queries]
        ids, dists = forest.knn_search_batch(queries, 2, budget=16)
        exp_ids, exp_dists = per_query_answers(forest, queries, 2, 16)
        np.testing.assert_array_equal(ids, exp_ids)
        np.testing.assert_array_equal(dists, exp_dists)


class TestTopK:
    def test_repeated_rows_rank_as_distinct_rows(self):
        # A line may list a row more than once; it is ranked and counted
        # as the line of its distinct rows, whatever k is, and all-padding
        # lines give no words.
        forest, queries = churned_forest("uniform", 2, seed=45)
        store = forest.store
        live = store.live_rows()
        rng = np.random.default_rng(45)
        q64 = queries[:40].view(np.uint64)
        repeated = np.full((40, 30), -1, dtype=np.int64)
        distinct = np.full((40, 30), -1, dtype=np.int64)
        for i in range(40):
            n = int(rng.integers(0, 31)) if i >= 3 else 0
            line = rng.choice(live[:12], size=n)  # few rows, so repeats are common
            repeated[i, :n] = line
            unique = np.unique(line)
            distinct[i, : len(unique)] = rng.permutation(unique)
        assert (repeated >= 0).sum() > (distinct >= 0).sum()
        for k in (1, 2, 5, 12, 30):
            got = store.top_k(q64, repeated, k)
            exp = store.top_k(q64, distinct, k)
            for a, b in zip(got, exp):
                np.testing.assert_array_equal(a, b, err_msg=f"k {k}")
            assert got[2].tolist() == [len(set(line[line >= 0].tolist())) for line in repeated]
            assert (got[0][:3] == -1).all() and (got[1][:3] == NO_DISTANCE).all()
        assert ((got[2] > 0) & (got[2] < 12)).any()  # k = 12 and 30 exceed their distinct rows


def forest_state(forest):
    """Tree shapes, leaf lookups and store contents of a forest."""
    return (
        [t.dump() for t in forest.trees],
        [leaf_lookup(t) for t in forest.trees],
        {w: forest.store.row(w) for w in forest.store.word_ids},
        forest.store._data.tobytes(),
    )


def root_descents(monkeypatch):
    """Record the forest's descents that start at a tree root."""
    roots = []
    descend = HammingTree.descend

    def recording(tree, q64, start=ROOT):
        if start == ROOT:
            roots.append(len(q64))
        return descend(tree, q64, start)

    monkeypatch.setattr(HammingTree, "descend", recording)
    return roots


def near_copies_batch(forest, seed):
    """Sixty near copies of one stored word, which overflow its leaf
    (capacity 40), then forty random descriptors."""
    rng = np.random.default_rng(seed)
    base = forest.descriptor(next(iter(forest.store.word_ids)))
    return np.concatenate([flip_random_bits(rng, np.tile(base, (60, 1)), 3), random_descriptors(rng, 40)])


class TestInsert:
    def test_append_without_restructure(self):
        rng = np.random.default_rng(12)
        descs = random_descriptors(rng, 4)
        forest = HammingForest(leaf_capacity=5, num_trees=1, seed=12)
        forest.build({i: descs[i] for i in range(3)})
        tree = forest.trees[0]
        assert is_leaf(tree, ROOT) and len(leaf_rows(tree, ROOT)) == 3
        forest.insert(3, descs[3])  # 3 + 1 < 5: plain append
        assert is_leaf(tree, ROOT) and len(leaf_rows(tree, ROOT)) == 4

    def test_overflow_rebuilds_node(self):
        rng = np.random.default_rng(13)
        descs = random_descriptors(rng, 5)
        forest = HammingForest(leaf_capacity=5, num_trees=1, seed=13)
        forest.build({i: descs[i] for i in range(4)})
        tree = forest.trees[0]
        assert is_leaf(tree, ROOT)
        forest.insert(4, descs[4])  # 4 + 1 == 5: the leaf is rebuilt
        assert not is_leaf(tree, ROOT)
        for i in range(5):
            got = forest.knn_search(descs[i], 1, budget=5)
            assert got[0] == (i, 0)

    def test_thousand_inserts_all_findable(self):
        rng = np.random.default_rng(14)
        descs = random_descriptors(rng, 1100)
        forest = HammingForest(leaf_capacity=20, branching=4, seed=14)
        forest.build({i: descs[i] for i in range(100)})
        for i in range(100, 1100):
            forest.insert(i, descs[i])
        # Oracle: exhaustive membership walk of every tree.
        check_forest_invariants(forest, leaf_capacity=20)
        for i in rng.choice(1100, size=100, replace=False):
            got = forest.knn_search(descs[i], 1, budget=len(forest))
            assert got[0].distance == 0

    def test_batch_equals_sequential_inserts(self):
        # Sixty near copies of one word overflow its leaf (capacity 40), so
        # later words of the batch descend below a leaf an earlier word of
        # it rebuilt; the trees, leaf lookups, store rows and rng state are
        # those of inserting the words one by one.
        batched, single = (churned_forest("clustered", 4, seed=38)[0] for _ in range(2))
        rng = np.random.default_rng(38)
        base = batched.descriptor(next(iter(batched.store.word_ids)))
        descs = np.concatenate([
            flip_random_bits(rng, np.tile(base, (60, 1)), 3),
            random_descriptors(rng, 40),
        ])
        word_ids = list(range(5000, 5100))
        resumed = []
        for tree in batched.trees:
            tree.place = lambda w, q, leaf, place=tree.place, tree=tree: (
                resumed.append(not is_leaf(tree, leaf)) or place(w, q, leaf)
            )
        batched.insert_batch(word_ids, descs)
        for word_id, desc in zip(word_ids, descs):
            single.insert(word_id, desc)
        assert sum(resumed) > 0
        assert [t.dump() for t in batched.trees] == [t.dump() for t in single.trees]
        for a, b in zip(batched.trees, single.trees):
            assert leaf_lookup(a) == leaf_lookup(b)
        assert all(batched.store.row(w) == single.store.row(w) for w in single.store.word_ids)
        assert np.array_equal(batched.store._data, single.store._data)
        assert batched.rng.integers(1 << 62) == single.rng.integers(1 << 62)
        check_forest_invariants(batched, leaf_capacity=40)

    def test_insert_from_search_descent_equals_own_descent(self, monkeypatch):
        # The search's reached leaves, handed to insert_batch after the
        # frame's merges, place the words as a descent of the batch would:
        # same trees, leaf lookups, store rows and rng state, also where a
        # later word descends below a leaf an earlier word rebuilt.
        handed, own = (churned_forest("clustered", 4, seed=46)[0] for _ in range(2))
        descs = near_copies_batch(handed, seed=46)
        rng = np.random.default_rng(46)
        queries = np.concatenate([random_descriptors(rng, 50), descs])[rng.permutation(150)]
        searched = np.flatnonzero((queries[:, None] == descs[None]).all(axis=2).any(axis=1))
        searched = searched[rng.permutation(len(searched))]
        descs = queries[searched]
        merged_ids = list(handed.store.word_ids)[:30]
        for forest in (handed, own):
            forest.knn_search_batch(queries, 2)
            forest.merge_and_batch(merged_ids, queries[:30])
        word_ids = list(range(5000, 5000 + len(descs)))
        roots = root_descents(monkeypatch)
        resumed = []
        for tree in handed.trees:
            tree.place = lambda w, q, leaf, place=tree.place, tree=tree: (
                resumed.append(not is_leaf(tree, leaf)) or place(w, q, leaf)
            )
        handed.insert_batch(word_ids, descs, searched)
        assert roots == [] and sum(resumed) > 0
        own.insert_batch(word_ids, descs)
        assert roots == [len(descs)] * len(own.trees)
        assert forest_state(handed) == forest_state(own)
        assert handed.rng.integers(1 << 62) == own.rng.integers(1 << 62)
        assert handed._searched is None
        check_forest_invariants(handed, leaf_capacity=40)

    def test_per_query_search_keeps_the_batch_record(self, monkeypatch):
        # A traced run checks sampled queries with `knn_search` between a
        # frame's batch search and its insert.  The per-query search keeps
        # no record, so the insert still takes the batch's reached leaves
        # and descends no tree, with the result of an insert given no search.
        handed, own = (churned_forest("clustered", 4, seed=52)[0] for _ in range(2))
        queries = near_copies_batch(handed, seed=52)
        searched = np.arange(0, 100, 2)
        for forest in (handed, own):
            forest.knn_search_batch(queries, 2)
            record = forest._searched
            for q in queries[::10]:
                forest.knn_search(q, 2)
                forest.knn_search(q, 2, budget=len(forest))
            assert forest._searched is record
        roots = root_descents(monkeypatch)
        handed.insert_batch(range(7000, 7050), queries[searched], searched)
        assert roots == []
        own.insert_batch(range(7000, 7050), queries[searched])
        assert roots == [len(searched)] * len(own.trees)
        assert forest_state(handed) == forest_state(own)
        assert handed.rng.integers(1 << 62) == own.rng.integers(1 << 62)

    @pytest.mark.parametrize("change", [None, "remove", "insert_batch", "build", "other_descriptors"])
    def test_stale_search_descent_not_reused(self, change, monkeypatch):
        # A remove, insert or build since the search changes the shape the
        # recorded leaves belong to, and other descriptors than the searched
        # ones reach other leaves: the batch then descends the trees itself,
        # with the result of an insert given no search.
        handed, own = (churned_forest("clustered", 4, seed=47)[0] for _ in range(2))
        queries = near_copies_batch(handed, seed=47)
        others = random_descriptors(np.random.default_rng(47), 2)
        searched = np.arange(10, 90)
        descs = queries[searched].copy()
        if change == "other_descriptors":
            descs[5, 0] ^= 1
        for forest in (handed, own):
            forest.knn_search_batch(queries, 2)
            record = forest._searched
            if change == "remove":
                forest.remove(next(iter(forest.store.word_ids)))
            elif change == "insert_batch":
                forest.insert_batch([6000, 6001], others)
                # The insert released the record; restored, only the shape
                # epoch keeps it from use.
                forest._searched = record
            elif change == "build":
                forest.build({6000: others[0]})
        roots = root_descents(monkeypatch)
        handed.insert_batch(range(7000, 7080), descs, searched)
        assert roots == ([] if change is None else [len(descs)] * len(handed.trees))
        own.insert_batch(range(7000, 7080), descs)
        assert forest_state(handed) == forest_state(own)
        assert handed.rng.integers(1 << 62) == own.rng.integers(1 << 62)

    def test_refused_batch_leaves_the_forest_unchanged(self):
        rng = np.random.default_rng(39)
        descs = random_descriptors(rng, 40)
        forest = make_forest(descs[:30], seed=39, leaf_capacity=8, num_trees=2)

        def state():
            return sorted(forest.store.word_ids), [t.dump() for t in forest.trees]

        before = state()
        for word_ids, match in (
            ([30, 31, 30], "given twice"),
            ([30, 5], "already stored"),
            ([30, -1], "outside"),
        ):
            with pytest.raises(ValueError, match=match):
                forest.insert_batch(word_ids, descs[30 : 30 + len(word_ids)])
            assert state() == before
        with pytest.raises(ValueError, match="descriptors"):
            forest.insert_batch([30, 31], descs[30:33])
        assert state() == before
        forest.insert_batch([], descs[:0])  # an empty batch descends no query
        assert state() == before

    def test_duplicate_insert_rejected(self):
        rng = np.random.default_rng(15)
        descs = random_descriptors(rng, 2)
        forest = make_forest(descs, seed=15)
        with pytest.raises(ValueError, match="already"):
            forest.insert(0, descs[0])


class TestRemove:
    def test_remove_sole_descriptor_empties_tree(self):
        rng = np.random.default_rng(16)
        descs = random_descriptors(rng, 1)
        forest = make_forest(descs, seed=16)
        forest.remove(0)
        assert len(forest) == 0
        assert forest.knn_search(descs[0], 1, budget=10) == []
        forest.insert(0, descs[0])  # empty tree accepts inserts again
        assert forest.knn_search(descs[0], 1, budget=10)[0] == (0, 0)

    def test_remove_non_centre_keeps_shape(self):
        rng = np.random.default_rng(17)
        descs = random_descriptors(rng, 3)
        forest = HammingForest(leaf_capacity=5, num_trees=1, seed=17)
        forest.build({i: descs[i] for i in range(3)})
        tree = forest.trees[0]
        before = tree.dump()
        forest.remove(2)
        assert is_leaf(tree, ROOT) and sorted(leaf_ids(tree, ROOT)) == [0, 1]
        assert before != tree.dump()  # only the leaf content changed
        assert not children(tree, ROOT)

    def test_remove_centre_reselects(self):
        rng = np.random.default_rng(11)
        descs = random_descriptors(rng, 10)
        forest = HammingForest(branching=2, leaf_capacity=3, num_trees=1, seed=5)
        forest.build({i: descs[i] for i in range(10)})
        tree = forest.trees[0]
        centres = {
            int(tree.centre_word[node]) for node in all_nodes(tree) if node != ROOT and not is_leaf(tree, node)
        }
        victim = sorted(centres)[0]
        forest.remove(victim)
        # no surviving internal node still records the removed word
        for node in all_nodes(tree):
            if not is_leaf(tree, node):
                assert tree.centre_word[node] != victim
        # the other words are all still searchable
        for i in range(10):
            if i == victim:
                continue
            got = forest.knn_search(descs[i], 1, budget=10)
            assert got[0].distance == 0

    def test_search_after_prune_changes_no_node(self):
        # Searches, per-query and batched, read the routing tables a prune
        # left and write no table.
        # Before, a prune emptied its parent's cached centre matrix and the
        # next search filled it again.
        rng = np.random.default_rng(50)
        descs = random_descriptors(rng, 60)
        forest = make_forest(descs, seed=50, branching=4, leaf_capacity=4, num_trees=2)
        tree = forest.trees[0]
        leaf = next(n for n in all_nodes(tree) if is_leaf(tree, n) and len(leaf_rows(tree, n)) == 1)
        parent = int(tree.parent[leaf])
        forest.remove(int(forest.store.ids_at(leaf_rows(tree, leaf)[0])))
        assert leaf not in children(tree, parent)

        def node_state():
            tables = ("child", "centres", "parent", "centre_word", "rows", "fill", "leaf_of")
            return [getattr(t, name).tobytes() for t in forest.trees for name in tables]

        before = node_state()
        for q in descs[:20]:
            forest.knn_search(q, 2, budget=8)
        forest.knn_search_batch(descs, 2, budget=8)
        assert node_state() == before
        check_forest_invariants(forest, leaf_capacity=4)

    def test_invariants_check_routing_tables(self):
        # The routing tables have one column per child slot; a prune that
        # left a hole before the last child, a leaf whose size column
        # disagrees with its rows, rows left on an internal node, a freed
        # node still reachable and a row -> leaf array naming the wrong
        # leaf are each caught.
        rng = np.random.default_rng(51)
        forest = make_forest(random_descriptors(rng, 80), seed=51, branching=4, leaf_capacity=5)
        check_forest_invariants(forest, leaf_capacity=5)
        tree = forest.trees[1]
        leaves = [n for n in all_nodes(tree) if is_leaf(tree, n)]
        row = leaf_rows(tree, leaves[0])[0]
        for table, index, value, message in (
            ("child", (ROOT, 0), -1, "padding before the last child"),
            ("fill", leaves[0], 0, "size column does not match its rows"),
            ("rows", (ROOT, 0), row, "an internal node holds rows"),
            ("leaf_of", row, leaves[1], "row -> leaf array disagrees with a leaf"),
        ):
            kept = getattr(tree, table)[index]
            getattr(tree, table)[index] = value
            with pytest.raises(AssertionError, match=message):
                check_forest_invariants(forest, leaf_capacity=5)
            getattr(tree, table)[index] = kept
        tree._free_nodes.append(leaves[1])
        with pytest.raises(AssertionError, match="a freed node is reachable"):
            check_forest_invariants(forest, leaf_capacity=5)
        tree._free_nodes.pop()
        centres = tree.centres
        tree.centres = centres[:, :, :-1]
        with pytest.raises(AssertionError, match="one column per child"):
            check_forest_invariants(forest, leaf_capacity=5)
        tree.centres = centres
        check_forest_invariants(forest, leaf_capacity=5)

    def test_removed_word_never_in_results(self):
        rng = np.random.default_rng(18)
        descs = random_descriptors(rng, 200)
        forest = make_forest(descs, seed=18)
        removed = set(range(0, 200, 3))
        for i in removed:
            forest.remove(i)
        for q in random_descriptors(rng, 50):
            got = forest.knn_search(q, 10, budget=200)
            assert not ({n.word_id for n in got} & removed)

    def test_remove_absent_raises(self):
        rng = np.random.default_rng(19)
        forest = make_forest(random_descriptors(rng, 5), seed=19)
        with pytest.raises(KeyError):
            forest.remove(77)


class TestInterleavedMutation:
    def test_invariants_under_random_workload(self):
        rng = np.random.default_rng(20)
        descs = random_descriptors(rng, 3000)
        forest = HammingForest(leaf_capacity=25, branching=4, num_trees=2, seed=20)
        forest.build({i: descs[i] for i in range(200)})
        live = set(range(200))
        next_id = 200
        for step in range(1500):
            op = rng.random()
            if op < 0.5 and next_id < 3000:
                forest.insert(next_id, descs[next_id])
                live.add(next_id)
                next_id += 1
            elif op < 0.8 and live:
                victim = sorted(live)[int(rng.integers(len(live)))]
                forest.remove(victim)
                live.discard(victim)
            elif live:
                target = sorted(live)[int(rng.integers(len(live)))]
                forest.merge_and(target, random_descriptors(rng, 1)[0])
            if step % 250 == 0:
                check_forest_invariants(forest, leaf_capacity=25)
        check_forest_invariants(forest, leaf_capacity=25)

    def test_forest_evolution_pinned(self, monkeypatch):
        # A seeded churn over a small forest: frames that search, merge
        # their matches and insert the rest from the search's descent,
        # inserts given no search, and removes that take centre words
        # first.  After every step the tree dumps, the store bytes and row
        # -> id array, the rng state and a probe batch's answers are hashed;
        # the chain was recorded when each child's centre still lived in the
        # child and its parent cached a copy, so a change to it changes how
        # the forest evolves.
        rng = np.random.default_rng(48)
        bases = random_descriptors(rng, 30)

        def draw(n):
            picks = bases[rng.integers(len(bases), size=n)]
            return flip_random_bits(rng, picks, int(rng.integers(4, 40)))

        probes = draw(40)
        forest = HammingForest(branching=4, leaf_capacity=10, num_trees=3, budget=20, seed=48)
        forest.build(dict(enumerate(draw(120))))
        next_id = 120
        reselections = []
        reselect = HammingTree._reselect_centre

        def recording(tree, node):
            reselections.append(int(tree.centre_word[node]))
            reselect(tree, node)

        monkeypatch.setattr(HammingTree, "_reselect_centre", recording)
        rebuilds = prunes = 0
        chain = hashlib.sha256()
        nodes = sum(len(all_nodes(t)) for t in forest.trees)
        for step in range(60):
            if step % 4 == 0:
                queries = draw(24)
                ids, dists = forest.knn_search_batch(queries, 2)
                matched = dists[:, 0] < 30
                forest.merge_and_batch(ids[matched, 0], queries[matched])
                unmatched = np.flatnonzero(~matched)
                new_ids = range(next_id, next_id + len(unmatched))
                forest.insert_batch(new_ids, queries[unmatched], unmatched)
                next_id += len(unmatched)
            elif step % 4 == 1:
                forest.insert_batch(range(next_id, next_id + 16), draw(16))
                next_id += 16
            else:
                live = sorted(forest.store.word_ids)
                centres = sorted(
                    {int(t.centre_word[n]) for t in forest.trees for n in all_nodes(t) if children(t, n)}
                    & set(live)
                )
                victims = [centres[i] for i in rng.choice(len(centres), 2, replace=False)]
                victims += [w for w in rng.choice(live, 3, replace=False).tolist() if w not in victims]
                for word_id in victims:
                    forest.remove(word_id)
            before, nodes = nodes, sum(len(all_nodes(t)) for t in forest.trees)
            rebuilds += step % 4 < 2 and nodes > before
            prunes += step % 4 >= 2 and nodes < before
            ids, dists = forest.knn_search_batch(probes, 3)
            for part in (
                *(t.dump().encode() for t in forest.trees),
                forest.store._data.tobytes(),
                forest.store._word_of.tobytes(),
                repr(forest.rng.bit_generator.state).encode(),
                ids.tobytes(),
                dists.tobytes(),
            ):
                chain.update(hashlib.sha256(part).digest())
            check_forest_invariants(forest, leaf_capacity=10)
        assert rebuilds and prunes and reselections, (rebuilds, prunes, len(reselections))
        assert chain.hexdigest() == FOREST_EVOLUTION_DIGEST

    def test_merge_decreases_popcount_and_search_sees_it(self):
        rng = np.random.default_rng(21)
        descs = random_descriptors(rng, 30)
        forest = make_forest(descs, seed=21)
        before = popcount(forest.descriptor(5))
        q = random_descriptors(rng, 1)[0]
        forest.merge_and(5, q)
        merged = forest.descriptor(5)
        assert popcount(merged) <= before
        assert np.array_equal(merged, descs[5] & q)
        got = forest.knn_search(merged, 1, budget=30)
        assert got[0] == (5, 0)
