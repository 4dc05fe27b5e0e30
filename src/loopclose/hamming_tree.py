"""Randomized hierarchical clustering forest for binary descriptors.

Each tree partitions the descriptor set around randomly chosen cluster
centres by Hamming distance until clusters fall below the leaf capacity.
A tree is kept as int-indexed node tables (:class:`HammingTree`), one
copy of each fact, which search, insert, remove and ``dump`` read in
place.  A leaf is a node without children; it records store rows under
its own node id, and word ids are read from the store's row -> id array.

Several trees are built over the same word set and searched together by
one budgeted best-bin-first search, :meth:`HammingForest.knn_search_batch`;
:meth:`HammingForest.knn_search` is its one-query case.  All queries
descend every tree once, level by level (:meth:`HammingTree.descend`).
A query whose reached leaves hold at least ``budget`` distinct words would
pop nothing from its queue, so they are its answer.  Any other query walks
(:meth:`_FrameDescent.walks`): each node its descent passed puts one
entry for its unexplored children on the query's priority queue, keyed
by the nearest one's centre distance, and the walk pops the queue until
a budget of distinct descriptors has been examined.  A descriptor reached
through several trees is counted once.  Every search ranks its rows with
one kernel, :meth:`DescriptorStore.top_k`, by an int64 key
``distance << id_bits | id``; word ids are checked to fit it when stored.

The structure is fully online: words can be inserted (overflowing leaves
are rebuilt in place) and removed (emptied nodes are pruned upward, and
an internal node whose recorded centre word is deleted reselects a new
centre from its remaining subtree).  Words enter the store through one
checked call, :meth:`DescriptorStore.add`.
:meth:`HammingForest.insert_batch` places a batch's words word by word,
so the trees and rng draws are those of one insert per word.  A frame's
new words are queries of its search, so they go into the leaf nodes that
search reached, without a second descent.

Concurrency contract: searches, per-query and batched, change no tree
table and may run concurrently.  A batch writes only the forest's record
of the leaf nodes its queries reached; a per-query search writes none.
An insert uses that record only while the forest's shape epoch is
unchanged (``build``, ``insert_batch`` and ``remove`` bump it; merges do
not, as node centres are snapshots; only ``remove`` frees nodes), and
only for descriptors equal to the recorded queries: a descent depends on
nothing else, so a record a concurrent batch overwrote is still right.
The insert releases it.  Any mutation (insert, remove, descriptor merge)
requires exclusive access to the forest.  Enforcement is up to the
embedder.
"""

from __future__ import annotations

import heapq
from itertools import chain
from itertools import count as _counter
from typing import Iterator, NamedTuple

import numpy as np

from .bits import hamming, hamming_matrix, plane_distances

__all__ = [
    "Neighbor",
    "HammingTree",
    "HammingForest",
    "DescriptorStore",
    "hamming",
    "NO_DISTANCE",
]


class Neighbor(NamedTuple):
    word_id: int
    distance: int


_MASKED = 1 << 30  # sentinel distance of a child already taken, and of padding
ROOT = 0  # node id of every tree's root
_NODE_TABLES = ("child", "centres", "parent", "centre_word", "rows", "fill")

NO_DISTANCE = np.iinfo(np.int32).max  # distance padding of batch answers with fewer than k words
_NO_KEY = np.iinfo(np.int64).max  # packed key of padding and duplicate rows
_CHUNK = 32  # queries ranked together; bounds the ranking temporaries to about 1 MB


class DescriptorStore:
    """Flat storage of live descriptors, addressed by word id.

    Rows are stable for the lifetime of a word, so tree leaves record
    words by row.  Descriptors are mutated in place by :meth:`merge_and`;
    routing copies taken via :meth:`get` are unaffected.  A row -> word id
    array (-1 on free rows) maps rows back to words.
    """

    def __init__(self, nbytes: int, capacity: int = 1024):
        if nbytes % 8 != 0:
            raise ValueError("descriptor width must be a multiple of 64 bits")
        self.nbytes = nbytes
        self._data = np.zeros((capacity, nbytes), dtype=np.uint8)
        self._data64 = self._data.view(np.uint64)
        self._row_of: dict[int, int] = {}
        self._word_of = np.full(capacity, -1, dtype=np.int64)
        self._free: list[int] = list(range(capacity - 1, -1, -1))

    def __len__(self) -> int:
        return len(self._row_of)

    def __contains__(self, word_id: int) -> bool:
        return word_id in self._row_of

    @property
    def word_ids(self):
        return self._row_of.keys()

    def check_shape(self, descs, lead: tuple = ()) -> np.ndarray:
        """``descs`` as uint8, refused unless shaped ``(*lead, nbytes)``: ``()``
        for one descriptor, ``(m,)`` for ``m`` of them, ``(None,)`` for any number."""
        descs = np.asarray(descs, dtype=np.uint8)
        want = (*lead, self.nbytes)
        # An exact match is tested first: a build checks every word's shape.
        if descs.shape != want and (
            descs.ndim != len(want) or any(w not in (None, s) for w, s in zip(want, descs.shape))
        ):
            raise ValueError(
                f"descriptor width is {self.nbytes * 8} bits: expected descriptors shaped "
                f"{str(want).replace('None', 'n')}, got {descs.shape}"
            )
        return descs

    def add(self, word_ids, descs: np.ndarray) -> list[int]:
        """Store new words with their ``(len(word_ids), nbytes)``
        descriptors; returns their rows.

        An id must fit the id field of a packed key, be new and be given
        once.  Every id and the shape are checked before the first word is
        stored, so a refused call stores nothing.
        """
        word_ids = list(word_ids)
        descs = self.check_shape(descs, (len(word_ids),))
        given = set()
        for word_id in word_ids:
            if not 0 <= word_id < 1 << self.id_bits:
                raise ValueError(f"word id {word_id} is outside 0..2**{self.id_bits}-1")
            if word_id in self._row_of:
                raise ValueError(f"word {word_id} already stored")
            if word_id in given:
                raise ValueError(f"word {word_id} given twice")
            given.add(word_id)
        while len(self._free) < len(word_ids):
            # Doubled as often as storing the words one by one would; the
            # new rows go under the free ones, which are taken first.
            old = self._data
            self._data = np.zeros((len(old) * 2, self.nbytes), dtype=np.uint8)
            self._data[: len(old)] = old
            self._data64 = self._data.view(np.uint64)
            self._word_of = np.pad(self._word_of, (0, len(old)), constant_values=-1)
            self._free[:0] = range(len(old) * 2 - 1, len(old) - 1, -1)
        cut = len(self._free) - len(word_ids)
        rows = self._free[cut:][::-1]
        del self._free[cut:]
        self._data[rows] = descs
        self._word_of[rows] = word_ids
        self._row_of.update(zip(word_ids, rows))
        return rows

    def remove(self, word_id: int) -> None:
        row = self._row_of.pop(word_id)
        self._word_of[row] = -1
        self._free.append(row)

    def row(self, word_id: int) -> int:
        return self._row_of[word_id]

    def get(self, word_id: int) -> np.ndarray:
        """Copy of the current descriptor of a word."""
        return self._data[self._row_of[word_id]].copy()

    def merge_and(self, word_ids, qs: np.ndarray) -> None:
        """Fold each row of ``qs`` into the stored descriptor of the word in
        ``word_ids`` at the same position, with bitwise AND (in place).

        A word may be listed more than once: AND is order-free, so it ends
        as the AND of all its rows.  Every id is looked up before any row
        changes.
        """
        qs = self.check_shape(qs, (len(word_ids),))
        rows = [self._row_of[w] for w in word_ids]
        np.bitwise_and.at(self._data64, rows, np.ascontiguousarray(qs).view(np.uint64))

    @property
    def id_bits(self) -> int:
        """Bits left for the word id in an int64 key ``distance << id_bits | id``."""
        return 63 - (self.nbytes * 8).bit_length()

    def live_rows(self) -> np.ndarray:
        return np.flatnonzero(self._word_of >= 0)

    def top_k(
        self, q64: np.ndarray, rows: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``k`` nearest words to each of ``(m, words)`` queries, in (distance, id) order.

        ``rows`` is 1-D (distinct rows compared with every query) or
        ``(m, r)``: each query's own rows, -1 marking none, a row listed
        any number of times; a line's keys are sorted once and its repeats
        blanked.  Returns ``(ids, dists, counts)``: ``(m, k)`` ids and
        distances, padded with -1 and ``NO_DISTANCE`` past the words a
        query has, and the number of distinct rows of each query.
        """
        id_bits = self.id_bits
        keys = plane_distances(q64, self._data64, rows).astype(np.int64) << id_bits
        keys |= self._word_of[rows]
        if rows.ndim == 2:
            # A row's key is unique to it, so repeats sort next to each other.
            keys[rows < 0] = _NO_KEY
            keys.sort(axis=1)
            keys[:, 1:][keys[:, 1:] == keys[:, :-1]] = _NO_KEY
            counts = (keys != _NO_KEY).sum(axis=1)
        else:
            counts = np.full(len(keys), len(rows))
        if keys.shape[1] > k:
            keys = np.partition(keys, k - 1, axis=1)[:, :k]
        keys.sort(axis=1)
        found = keys != _NO_KEY
        ids = np.full((len(keys), k), -1, dtype=np.int64)
        dists = np.full((len(keys), k), NO_DISTANCE, dtype=np.int32)
        ids[:, : keys.shape[1]] = np.where(found, keys & ((1 << id_bits) - 1), -1)
        dists[:, : keys.shape[1]] = np.where(found, keys >> id_bits, NO_DISTANCE)
        return ids, dists, counts

    def gather(self, rows: np.ndarray) -> np.ndarray:
        return self._data[rows]

    def ids_at(self, rows) -> np.ndarray:
        """Word ids of the words stored at ``rows``."""
        return self._word_of[rows]

    @property
    def capacity(self) -> int:
        """Number of rows allocated; row indices are always below it."""
        return len(self._word_of)


class HammingTree:
    """One clustering tree over the word set of a shared descriptor store,
    kept in int-indexed tables.

    Per node (the root is ``ROOT``): ``child``, its child ids, -1 after the
    last; ``centres``, its ``(words, branching)`` uint64 routing table,
    whose column ``c`` is a value snapshot of the descriptor child ``c`` was
    clustered around (merging that word leaves it, so routing stays stable
    while searches remain approximate); ``parent`` and ``centre_word``, the
    word the node's centre was taken from (both -1 at the root); ``rows``,
    its store rows in insertion order, padded with -1, and ``fill``, their
    count.  A node is a leaf exactly when ``child[node, 0] < 0``; only
    leaves hold rows, so an internal or freed node has ``fill`` 0 and a row
    of -1.  ``leaf_of`` maps a store row to its leaf node (-1: none).
    Freed node ids are reused from a free list.
    """

    def __init__(self, store: DescriptorStore, branching: int, leaf_capacity: int, rng: np.random.Generator):
        if branching < 2:
            raise ValueError("branching must be >= 2")
        if leaf_capacity < 1:
            raise ValueError("leaf capacity must be >= 1")
        self.store = store
        self.branching = branching
        self.leaf_capacity = leaf_capacity
        self.rng = rng
        self.build(())

    # -- construction -------------------------------------------------

    def build(self, word_ids) -> None:
        """(Re)build the whole tree over the given word ids."""
        self.child = np.full((1, self.branching), -1, dtype=np.int64)
        self.centres = np.zeros((1, self.store.nbytes // 8, self.branching), dtype=np.uint64)
        self.parent, self.centre_word = np.full((2, 1), -1, dtype=np.int64)
        # A leaf holds fewer words than the capacity, or a single one.
        self.rows = np.full((1, max(self.leaf_capacity - 1, 1)), -1, dtype=np.int64)
        self.fill = np.zeros(1, dtype=np.int64)
        self.leaf_of = np.full(self.store.capacity, -1, dtype=np.int64)
        self._free_nodes: list[int] = []
        rows = np.fromiter((self.store.row(i) for i in word_ids), dtype=np.int64)
        self._build_into(ROOT, rows)

    def _build_into(self, node: int, rows: np.ndarray) -> None:
        """Build the subtree of ``node`` over ``rows`` from a work list that
        splits nodes depth first, children in order, so the rng draws come
        in the order of a recursive build."""
        work = [(node, rows)]
        while work:
            node, rows = work.pop()
            if len(rows) < self.leaf_capacity or len(rows) < 2:
                self._make_leaf(node, rows)
                continue
            k = min(self.branching, len(rows))
            centre_pos = np.sort(self.rng.choice(len(rows), size=k, replace=False))
            descs = self.store.gather(rows)
            centres = descs[centre_pos]
            assign = np.argmin(hamming_matrix(descs, centres), axis=1)
            if len(np.unique(assign)) < 2:
                # Degenerate split (duplicate descriptors): force progress.
                assign = np.arange(len(rows)) % k
            kept = np.flatnonzero(np.bincount(assign, minlength=k))  # the centres with members
            self.rows[node], self.fill[node] = -1, 0  # a leaf rebuilt in place drops its rows
            kids = [self._take() for _ in kept]
            self.child[node, : len(kids)] = kids
            self.centres[node, :, : len(kids)] = centres[kept].view(np.uint64).T
            self.parent[kids] = node
            self.centre_word[kids] = self.store.ids_at(rows[centre_pos[kept]])
            work.extend((kid, rows[assign == c]) for kid, c in zip(kids[::-1], kept[::-1].tolist()))

    def _take(self) -> int:
        """A node id off the free list, every node table doubled if it is
        empty.  A free node has no children and no rows: -1 in ``child``
        and ``rows``."""
        if not self._free_nodes:
            size = len(self.parent)
            for name in _NODE_TABLES:
                table = getattr(self, name)
                blank = -1 if name in ("child", "rows") else 0
                setattr(self, name, np.concatenate([table, np.full_like(table, blank)]))
            self._free_nodes[:0] = range(2 * size - 1, size - 1, -1)
        return self._free_nodes.pop()

    def _make_leaf(self, node: int, rows: np.ndarray) -> None:
        """Give a node that holds no rows its leaf rows."""
        self.rows[node, : len(rows)] = rows
        self.fill[node] = len(rows)
        self.leaf_of[rows] = node

    # -- online updates -----------------------------------------------

    def descend(self, q64: np.ndarray, start: int = ROOT) -> tuple[np.ndarray, list]:
        """Descend from node ``start`` with all ``(n, words)`` queries at once,
        level by level: a gather of routing tables (at the first level the
        start's, broadcast), one XOR and popcount and one argmin per level.

        Returns ``(reached, levels)``: each query's leaf node and, per level,
        ``(queries, nodes, distances, best)``: the queries at internal nodes,
        those nodes, their ``(m, branching)`` centre distances with padding
        set to ``_MASKED``, and the child each takes, the first nearest.
        """
        queries, nodes, levels = np.arange(len(q64)), np.full(len(q64), start), []
        if self.child.item(start, 0) < 0 or len(q64) == 0:
            return nodes, levels
        reached, q = None, q64[:, :, None]
        table, kids = self.centres[start], self.child[start : start + 1]
        while True:
            d = np.bitwise_count(table ^ q).sum(axis=1, dtype=np.int32)
            np.copyto(d, _MASKED, where=kids < 0)
            best = d.argmin(axis=1)
            levels.append((queries, nodes, d, best))
            nodes = kids[0].take(best) if len(kids) == 1 else kids[np.arange(len(best)), best]
            kids = self.child.take(nodes, axis=0)
            inner = kids[:, 0] >= 0
            left = np.count_nonzero(inner)
            if left < len(inner):
                # Queries at a leaf drop out; until the first does, ``nodes`` has them all.
                if reached is None:
                    reached = nodes
                else:
                    reached[queries] = nodes
                if left == 0:
                    return reached, levels
                queries, nodes, kids = queries[inner], nodes[inner], kids[inner]
                q = q64[queries][:, :, None]
            table = self.centres.take(nodes, axis=0)

    def place(self, word_id: int, q64: np.ndarray, leaf: int) -> None:
        """Insert a stored word whose ``(1, words)`` descriptor reached ``leaf``.

        A leaf rebuilt since the descent reached it is descended further.
        If the leaf can take one more entry it is appended, otherwise the
        leaf node is rebuilt in place over its descriptors plus the new one.
        """
        if self.child.item(leaf, 0) >= 0:
            leaf = self.descend(q64, leaf)[0].item(0)
        row = self.store.row(word_id)
        if row >= len(self.leaf_of):  # the store grew
            grown = self.store.capacity - len(self.leaf_of)
            self.leaf_of = np.pad(self.leaf_of, (0, grown), constant_values=-1)
        n = self.fill.item(leaf)
        if n + 1 < self.leaf_capacity:
            self.rows[leaf, n] = row
            self.fill[leaf] = n + 1
            self.leaf_of[row] = leaf
        else:
            self._build_into(leaf, np.append(self.rows[leaf, :n], row))

    def remove(self, word_id: int) -> None:
        """Remove a word; prune emptied nodes and reselect orphaned centres."""
        row = self.store.row(word_id)
        node = self.leaf_of.item(row)
        if node < 0:
            raise KeyError(f"word {word_id} not in tree")
        self.leaf_of[row] = -1
        n = self.fill.item(node)
        line = self.rows[node]
        i = line[:n].tolist().index(row)
        line[i : n - 1] = line[i + 1 : n]  # shifted, not swapped: a leaf rebuild draws in row order
        line[n - 1] = -1
        self.fill[node] = n - 1

        # An emptied leaf is pruned, then each parent it leaves without
        # children; a root left without children is an empty leaf.
        while n == 1 and node != ROOT and self.child.item(node, 0) < 0:
            parent = self.parent.item(node)
            c = self.child[parent].tolist().index(node)
            self.child[parent, c:] = np.append(self.child[parent, c + 1 :], -1)
            self.centres[parent, :, c:-1] = self.centres[parent, :, c + 1 :]
            self._free_nodes.append(node)
            node = parent

        # Pruning stopped at ``node``: it and its ancestors are exactly the
        # surviving nodes on the removed word's path, bottom-up.
        while node >= 0:
            if self.centre_word.item(node) == word_id and self.child.item(node, 0) >= 0:
                self._reselect_centre(node)
            node = self.parent.item(node)

    def _reselect_centre(self, node: int) -> None:
        subtree_rows = [r for n, _ in self._walk(node) for r in self.leaf_rows(n)]
        if not subtree_rows:
            return
        new_row = subtree_rows[int(self.rng.integers(len(subtree_rows)))]
        self.centre_word[node] = self.store.ids_at(new_row)
        # Only the root has no parent, and the root has no centre word.
        parent = self.parent.item(node)
        c = self.child[parent].tolist().index(node)
        self.centres[parent, :, c] = self.store.gather(new_row).view(np.uint64)

    # -- introspection ------------------------------------------------

    def _walk(self, node: int = ROOT) -> Iterator[tuple[int, int]]:
        """Nodes under ``node`` with their depth below it, parents first, children in order."""
        stack = [(node, 0)]
        while stack:
            node, depth = stack.pop()
            yield node, depth
            stack.extend((kid, depth + 1) for kid in reversed(self.child[node].tolist()) if kid >= 0)

    def leaf_rows(self, node: int) -> list[int]:
        """Store rows of a leaf node, in order; none for an internal node."""
        return self.rows[node, : self.fill.item(node)].tolist()

    def dump(self) -> str:
        """Tree shape as indented text, for golden-file comparisons."""
        lines: list[str] = []
        for node, depth in self._walk():
            word = self.centre_word.item(node)
            tag = "root" if word < 0 else f"c=w{word}"
            if self.child.item(node, 0) < 0:
                ids = ",".join(f"w{i}" for i in self.store.ids_at(self.leaf_rows(node)))
                lines.append("  " * depth + f"leaf {tag} [{ids}]")
            else:
                lines.append("  " * depth + f"node {tag}")
        return "\n".join(lines)


class HammingForest:
    """Several trees over one word set, searched with a shared budget.

    The budget counts distinct descriptors examined across all trees, so a
    budget at least as large as the vocabulary makes the search exact.
    """

    def __init__(
        self,
        width: int = 256,
        branching: int = 16,
        leaf_capacity: int = 150,
        num_trees: int = 4,
        budget: int = 64,
        seed: int = 0,
    ):
        if num_trees < 1:
            raise ValueError("num_trees must be >= 1")
        if budget < 1:
            raise ValueError("budget must be >= 1")
        if width % 64 != 0:
            raise ValueError("descriptor width must be a multiple of 64")
        self.width = width
        self.budget = budget
        self.rng = np.random.default_rng(seed)
        self.store = DescriptorStore(width // 8)
        self.trees = [
            HammingTree(self.store, branching, leaf_capacity, self.rng) for _ in range(num_trees)
        ]
        self._shape_epoch = 0  # bumped by every change of a tree's shape or centres
        # The last batch search, if any: (epoch, copy of its (n, words)
        # queries, (n, trees) leaf node each one reached in each tree).  No
        # node is freed while the epoch holds, so the node ids stay valid.
        self._searched = None

    def __len__(self) -> int:
        return len(self.store)

    def __contains__(self, word_id: int) -> bool:
        return word_id in self.store

    def build(self, words: dict[int, np.ndarray]) -> None:
        """Store an id -> descriptor mapping and rebuild every tree over
        all stored words.

        Every id and descriptor is checked before the first is stored, so
        a refused build leaves the forest as it was.
        """
        descs = [self.store.check_shape(desc) for desc in words.values()]
        self.store.add(words, np.reshape(descs, (len(descs), self.store.nbytes)))
        self._shape_epoch += 1
        ids = list(self.store.word_ids)
        for tree in self.trees:
            tree.build(ids)

    def insert(self, word_id: int, desc: np.ndarray) -> None:
        self.insert_batch([word_id], np.asarray(desc)[None])

    def insert_batch(self, word_ids, descs: np.ndarray, searched=None) -> None:
        """Store words and insert them into every tree, with the trees and
        rng draws that inserting them one by one, in order, would give.

        Every id and descriptor is checked before the first is stored, so
        a refused batch leaves the forest as it was.  The words are placed
        word by word, each in every tree in turn, and a word whose leaf an
        earlier word of the batch rebuilt descends on from that leaf.

        ``searched`` may give each word's index among the queries of the
        last :meth:`knn_search_batch`; the leaves they reached are used if
        no tree changed shape since and the descriptors equal those
        queries.  Otherwise each tree is descended once by the whole batch.
        Either way the search's record is released.
        """
        word_ids = list(word_ids)
        q64 = self.store.gather(self.store.add(word_ids, descs)).view(np.uint64)
        targets = self._searched_leaves(q64, searched)
        self._searched = None
        self._shape_epoch += 1
        if targets is None:
            targets = [tree.descend(q64)[0] for tree in self.trees]
        for i, word_id in enumerate(word_ids):
            q = q64[i, None]
            for tree, leaves in zip(self.trees, targets):
                tree.place(word_id, q, int(leaves[i]))

    def _searched_leaves(self, q64: np.ndarray, searched) -> np.ndarray | None:
        """Per tree, the leaf node each descriptor reached as the last batch
        search's queries ``searched``, if that search is still valid for them."""
        if searched is None or self._searched is None:
            return None
        epoch, queries, reached = self._searched
        searched = np.asarray(searched, dtype=np.int64)
        if (
            epoch != self._shape_epoch
            or searched.shape != (len(q64),)
            or not ((searched >= 0) & (searched < len(queries))).all()
            or not np.array_equal(queries[searched], q64)
        ):
            return None
        return reached[searched].T

    def remove(self, word_id: int) -> None:
        self._shape_epoch += 1
        for tree in self.trees:
            tree.remove(word_id)
        self.store.remove(word_id)

    def descriptor(self, word_id: int) -> np.ndarray:
        return self.store.get(word_id)

    def merge_and(self, word_id: int, q: np.ndarray) -> None:
        self.merge_and_batch([word_id], np.asarray(q)[None])

    def merge_and_batch(self, word_ids, qs: np.ndarray) -> None:
        """Fold each row of ``qs`` into its word of ``word_ids`` with bitwise
        AND; see :meth:`DescriptorStore.merge_and`."""
        self.store.merge_and(word_ids, qs)

    def knn_search(self, q: np.ndarray, k: int, budget: int | None = None) -> list[Neighbor]:
        """Budgeted best-bin-first search for the ``k`` nearest words to one
        descriptor: the one-query case of :meth:`knn_search_batch`.

        Results are sorted by ascending distance, ties by ascending id.
        It keeps no record of the leaves it reached, so the record of the
        last batch search stands.
        """
        q64 = np.ascontiguousarray(self.store.check_shape(q)).view(np.uint64)[None]
        ids, dists, _ = self._search(q64, k, self.budget if budget is None else budget)
        found = ids[0] >= 0
        return list(map(Neighbor, ids[0, found].tolist(), dists[0, found].tolist()))

    def knn_search_batch(
        self, queries: np.ndarray, k: int, budget: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Budgeted best-bin-first search for the ``k`` nearest words to
        every row of ``queries``.

        Returns ``(ids, dists)``, both ``(len(queries), k)``: row ``i``
        holds query ``i``'s words in ascending distance, ties by ascending
        id, padded with id -1 and distance ``NO_DISTANCE`` past the words
        found.  The leaves the queries reached are kept for
        :meth:`insert_batch`.
        """
        queries = self.store.check_shape(queries, (None,))
        self._searched = None
        q64 = np.ascontiguousarray(queries).view(np.uint64)
        ids, dists, descent = self._search(q64, k, self.budget if budget is None else budget)
        if descent is not None:
            self._searched = (self._shape_epoch, q64.copy(), descent.reached)
        return ids, dists

    def _search(
        self, q64: np.ndarray, k: int, budget: int
    ) -> tuple[np.ndarray, np.ndarray, _FrameDescent | None]:
        """The search of ``(n, words)`` queries: ``(ids, dists, descent)``,
        with the frame descent if the trees were descended.

        A budget covering the live vocabulary ranks every live word: a
        walk would examine them all.  Otherwise each tree is descended
        once, by all queries together, level by level.  A query whose
        reached leaves hold at least ``budget`` rows in all has them
        ranked as one line by :meth:`DescriptorStore.top_k`, which counts
        each row once.  If the line holds at least ``budget`` distinct
        words that answer stands: the walk would pop no queued sibling and
        examine exactly those words.  The other queries walk
        (:meth:`_FrameDescent.walks`) and are ranked from their walked rows.
        """
        k = max(k, 0)
        n = len(q64)
        ids = np.full((n, k), -1, dtype=np.int64)
        dists = np.full((n, k), NO_DISTANCE, dtype=np.int32)
        if len(self.store) == 0 or k == 0 or n == 0:
            return ids, dists, None
        if budget >= len(self.store):
            rows = self.store.live_rows()
            for s in range(0, n, _CHUNK):
                chunk = slice(s, s + _CHUNK)
                ids[chunk], dists[chunk], _ = self.store.top_k(q64[chunk], rows, k)
            return ids, dists, None
        descent = _FrameDescent(self.trees, q64)
        # Summed leaf sizes bound the distinct words, so only these can stand.
        full = np.flatnonzero(descent.sizes.sum(axis=1) >= budget)
        ids[full], dists[full], counts = self._rank_lines(
            q64[full], descent.sizes[full], lambda chunk: descent.rows(full[chunk]), k
        )
        short = np.setdiff1d(np.arange(n), full[counts >= budget])
        if len(short):
            walked = descent.walks(short, budget)
            sizes = np.fromiter(map(len, walked), dtype=np.int64, count=len(walked))[:, None]
            ids[short], dists[short], _ = self._rank_lines(
                q64[short], sizes, lambda c: np.fromiter(chain.from_iterable(walked[i] for i in c), np.int64), k
            )
        return ids, dists, descent

    def _rank_lines(
        self, q64: np.ndarray, sizes: np.ndarray, lines, k: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`DescriptorStore.top_k` of each query over its own line of
        rows: ``sizes[i]`` are the lengths of the parts of line ``i``, and
        ``lines(chunk)`` the rows of the queries at ``chunk``, line by line.

        Queries are ranked in chunks of ``_CHUNK`` ordered by line length,
        each a table as wide as its longest line, padded with -1.
        """
        n = len(q64)
        ids = np.empty((n, k), dtype=np.int64)
        dists = np.empty((n, k), dtype=np.int32)
        counts = np.empty(n, dtype=np.int64)
        lengths = sizes.sum(axis=1)
        order = np.argsort(lengths, kind="stable")
        for s in range(0, n, _CHUNK):
            chunk = order[s : s + _CHUNK]
            table = np.full((len(chunk), int(lengths[chunk].max())), -1, dtype=np.int64)
            table[np.arange(table.shape[1]) < lengths[chunk, None]] = lines(chunk)
            ids[chunk], dists[chunk], counts[chunk] = self.store.top_k(q64[chunk], table, k)
        return ids, dists, counts


class _FrameDescent:
    """Every tree descended once by all ``(n, words)`` queries together.

    Keeps the leaf node each query reaches in each tree, ``reached``, its
    row count, ``sizes``, and each tree's level records, from which
    :meth:`walks` builds the heap entries of the walking queries.  Leaf
    rows are read from the trees' tables in place.
    """

    def __init__(self, trees: list[HammingTree], q64: np.ndarray):
        self.trees = trees
        self.q64 = q64
        self.reached, self.sizes = np.empty((2, len(q64), len(trees)), dtype=np.int64)
        self._levels = []  # per tree, the levels of its descent
        for t, tree in enumerate(trees):
            self.reached[:, t], levels = tree.descend(q64)
            self.sizes[:, t] = tree.fill[self.reached[:, t]]
            self._levels.append(levels)

    def rows(self, queries: np.ndarray) -> np.ndarray:
        """The rows of the leaves each of ``queries`` reaches, tree by tree,
        query after query."""
        widths = self.sizes[queries].max(axis=0).tolist()
        leaves = self.reached[queries].T
        block = np.concatenate([t.rows[n, :w] for t, n, w in zip(self.trees, leaves, widths)], axis=1)
        return block[block >= 0]

    def walks(self, queries: np.ndarray, budget: int) -> list[list[int]]:
        """Store rows the best-bin-first walk of each of ``queries`` examines.

        A heap entry ``(key, tick, tree, node, distances, line, pos)`` stands
        for the unexplored children of one node: their centre distances, row
        ``line`` of ``distances``, with the children already taken and the
        padding masked, and ``pos``, the first child of least distance
        ``key`` among the rest.  One pass over
        the recorded levels, which run in tree order and top-down within a
        tree, gives each query the entries of the nodes with several
        children its descent passed, ticked in that order.  A walk starts
        from the rows of its reached leaves and pops until ``budget``
        distinct rows are examined or its queue drains.  A popped entry is
        pushed again for its next child before that child is descended, so
        ticks order equal keys by push.
        """
        walker = np.full(len(self.reached), -1)
        walker[queries] = np.arange(len(queries))
        heaps: list[list] = [[] for _ in range(len(queries))]
        for tree, levels in zip(self.trees, self._levels):
            for idx, nodes, d, best in levels:
                lines = np.flatnonzero((walker[idx] >= 0) & (tree.child[nodes, 1] >= 0))
                if len(lines) == 0:
                    continue
                d = d[lines]  # a copy: each walk masks its own row
                at = np.arange(len(lines))
                d[at, best[lines]] = _MASKED
                pos = d.argmin(axis=1)
                for line, (s, key, node, p) in enumerate(
                    zip(walker[idx[lines]].tolist(), d[at, pos].tolist(), nodes[lines].tolist(), pos.tolist())
                ):
                    heaps[s].append((key, len(heaps[s]), tree, node, d, line, p))
        flat, sizes = self.rows(queries).tolist(), self.sizes[queries].sum(axis=1)
        heappush, heappop, walked = heapq.heappush, heapq.heappop, []
        for heap, i, end, size in zip(heaps, queries.tolist(), np.cumsum(sizes).tolist(), sizes.tolist()):
            seen = set(flat[end - size : end])
            q64 = self.q64[i, None]
            tick = _counter(len(heap))
            # Entries are distinct (key, tick) pairs, so they pop in the same
            # order however the heap was built.
            heapq.heapify(heap)
            while heap and len(seen) < budget:
                _, _, tree, node, block, line, pos = heappop(heap)
                d = block[line]
                d[pos] = _MASKED
                after = d.argmin()
                if d.item(after) < _MASKED:
                    heappush(heap, (d.item(after), next(tick), tree, node, block, line, after))
                node = tree.child.item(node, pos)
                if tree.child.item(node, 0) >= 0:
                    reached, levels = tree.descend(q64, node)
                    for _, node, d, best in levels:  # one query: one node per level
                        node = node.item(0)
                        if tree.child.item(node, 1) >= 0:
                            d[0, best.item(0)] = _MASKED
                            pos = d.argmin()
                            heappush(heap, (d.item(pos), next(tick), tree, node, d, 0, pos))
                    node = reached.item(0)
                seen.update(tree.rows[node, : tree.fill.item(node)].tolist())
            walked.append(list(seen))
        return walked
