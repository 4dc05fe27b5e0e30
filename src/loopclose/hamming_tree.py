"""Randomized hierarchical clustering forest for binary descriptors.

Each tree recursively partitions the descriptor set around randomly chosen
cluster centres by Hamming distance until clusters fall below the leaf
capacity.  Each internal node routes by its children's centres, value
snapshots of the descriptors it was split around, kept in one ``(words,
children)`` uint64 table of its own: a prune deletes the child's column,
a centre reselection rewrites it, and nothing else holds a copy.
Several trees are built over the same word set and searched together by
one budgeted best-bin-first search, :meth:`HammingForest.knn_search_batch`;
:meth:`HammingForest.knn_search` is its one-query case.  All queries
descend every tree once, together, grouped by nearest child at each node,
listing only the leaves some query reaches (:func:`_descend`).  A query
whose reached leaves hold at least ``budget`` distinct words would pop
nothing from its queue, so they are its answer.  Any other query walks
(:meth:`_FrameDescent.walks`): each node its descent passed puts one
entry for its unexplored children on the query's priority queue, keyed
by the nearest one's centre distance, and the walk pops the queue until
a budget of distinct descriptors has been examined.  A descriptor reached
through several trees is counted once.  Every search ranks its rows with
one kernel, :meth:`DescriptorStore.top_k`, by an int64 key
``distance << id_bits | id``; word ids are checked to fit it when stored.
Leaves record store rows only; word ids are read from the store's row ->
id array where needed.

The structure is fully online: words can be inserted (overflowing leaves
are rebuilt in place) and removed (emptied nodes are pruned upward, and
an internal node whose recorded centre word is deleted reselects a new
centre from its remaining subtree).  Words enter the store through one
checked call, :meth:`DescriptorStore.add`.
:meth:`HammingForest.insert_batch` places a batch's words word by word,
so the trees and rng draws are those of one insert per word.  A frame's
new words are queries of its search, so they go into the leaves that
search reached, without a second descent.

Concurrency contract: searches, per-query and batched, change no tree
node and may run concurrently.  A batch writes only the forest's record
of the leaves its queries reached; a per-query search writes none.  An
insert uses that record only while the forest's shape epoch is unchanged
(``build``, ``insert_batch`` and ``remove`` bump it; merges do not, as
node centres are snapshots), and only for descriptors equal to the
recorded queries: a descent depends on nothing else, so a record a
concurrent batch overwrote is still right.  The insert releases it.
Any mutation (insert, remove, descriptor merge) requires exclusive
access to the forest.  Enforcement is up to the embedder.
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
    "TreeNode",
    "HammingTree",
    "HammingForest",
    "DescriptorStore",
    "hamming",
    "NO_DISTANCE",
]


class Neighbor(NamedTuple):
    word_id: int
    distance: int


_MASKED = 1 << 30  # sentinel distance for the already-descended child

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


class TreeNode:
    """A tree node; ``children is None`` marks a leaf, which lists the store
    rows of its words in ``rows``.

    An internal node owns its children's routing table: ``centres``, a
    ``(words, children)`` uint64 matrix whose column ``c`` is a value
    snapshot of the descriptor child ``c`` was clustered around, written
    when the node splits or the child's centre is reselected; a leaf has
    none.  ``centre_word`` is the word a node's own centre was taken from.
    Snapshots are not updated when the live word is merged, so routing
    stays stable while searches remain approximate.
    """

    __slots__ = ("centre_word", "parent", "children", "rows", "centres")

    def __init__(self, centre_word=None, parent=None):
        self.centre_word = centre_word
        self.parent = parent
        self.children: list[TreeNode] | None = None
        self.rows: list[int] | None = None
        self.centres: np.ndarray | None = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def child_distances(self, q64: np.ndarray) -> np.ndarray:
        """Hamming distances from ``(m, words)`` queries (``uint64`` views) to each
        child's centre: an ``(m, children)`` matrix."""
        # The XOR is built word-major like the centres, (words, children,
        # m), so its popcounts are summed over the leading axis in contiguous
        # adds along the queries: as few numpy calls as one query needs.
        return np.bitwise_count(self.centres[:, :, None] ^ q64.T[:, None, :]).sum(
            axis=0, dtype=np.int32
        ).T


def _descend(node: TreeNode, q64: np.ndarray, visit=None) -> tuple[list[TreeNode], np.ndarray]:
    """Descend from ``node`` with every ``(n, words)`` query at once,
    grouped by nearest child at each internal node.

    Returns ``(leaves, reached)``: the leaves some query reaches, each
    listed once, and the index in ``leaves`` of the leaf each query
    reaches.  At every node a query takes the first child of least centre
    distance.  ``visit(node, idx, d, best)`` is called at each internal
    node with the queries ``idx`` reaching it, their ``(len(idx),
    children)`` centre distances and their nearest child; it may
    overwrite ``d``.
    """
    leaves: list[TreeNode] = []
    reached = np.empty(len(q64), dtype=np.int64)
    stack = [(node, np.arange(len(q64)))]
    while stack:
        node, idx = stack.pop()
        if node.children is None:  # the start node; other leaves are listed by their parent
            reached[idx] = len(leaves)
            leaves.append(node)
            continue
        d = node.child_distances(q64[idx])
        best = d.argmin(axis=1)
        lines = np.full(len(node.children), -1)  # index in `leaves` of each reached leaf child
        for c in np.flatnonzero(np.bincount(best, minlength=len(node.children))).tolist():
            child = node.children[c]
            if child.children is None:
                lines[c] = len(leaves)
                leaves.append(child)
            else:
                stack.append((child, idx[best == c]))
        # Queries sent to an internal child are written again below it.
        reached[idx] = lines[best]
        if visit is not None:
            visit(node, idx, d, best)
    return leaves, reached


def iter_leaves(node: TreeNode) -> Iterator[TreeNode]:
    """Yield every leaf under ``node``."""
    stack = [node]
    while stack:
        n = stack.pop()
        if n.is_leaf:
            yield n
        else:
            stack.extend(reversed(n.children))


class HammingTree:
    """One clustering tree over the word set of a shared descriptor store."""

    def __init__(self, store: DescriptorStore, branching: int, leaf_capacity: int, rng: np.random.Generator):
        if branching < 2:
            raise ValueError("branching must be >= 2")
        if leaf_capacity < 1:
            raise ValueError("leaf capacity must be >= 1")
        self.store = store
        self.branching = branching
        self.leaf_capacity = leaf_capacity
        self.rng = rng
        self.root = TreeNode()
        self.root.rows = []
        self._leaf_of: dict[int, TreeNode] = {}

    # -- construction -------------------------------------------------

    def build(self, word_ids) -> None:
        """(Re)build the whole tree over the given word ids."""
        self._leaf_of.clear()
        self.root = TreeNode()
        rows = np.fromiter((self.store.row(i) for i in word_ids), dtype=np.int64)
        self._build_into(self.root, rows)

    def _build_into(self, node: TreeNode, rows: np.ndarray) -> None:
        if len(rows) < self.leaf_capacity or len(rows) < 2:
            node.children = node.centres = None
            node.rows = rows.tolist()
            self._leaf_of.update(dict.fromkeys(self.store.ids_at(rows).tolist(), node))
            return

        k = min(self.branching, len(rows))
        centre_pos = np.sort(self.rng.choice(len(rows), size=k, replace=False))
        descs = self.store.gather(rows)
        centres = descs[centre_pos]
        assign = np.argmin(hamming_matrix(descs, centres), axis=1)
        if len(np.unique(assign)) < 2:
            # Degenerate split (duplicate descriptors): force progress.
            assign = np.arange(len(rows)) % k

        kept = np.flatnonzero(np.bincount(assign, minlength=k))  # the centres with members
        node.rows = None
        node.children = []
        node.centres = np.ascontiguousarray(centres[kept].view(np.uint64).T)
        centre_words = self.store.ids_at(rows[centre_pos]).tolist()
        for ci in kept.tolist():
            child = TreeNode(centre_word=centre_words[ci], parent=node)
            self._build_into(child, rows[assign == ci])
            node.children.append(child)

    # -- online updates -----------------------------------------------

    def place(self, word_id: int, q64: np.ndarray, leaf: TreeNode) -> None:
        """Insert a stored word whose ``(1, words)`` descriptor reached ``leaf``.

        A leaf rebuilt since the descent reached it is descended further.
        If the leaf can take one more entry it is appended, otherwise the
        leaf node is rebuilt in place over its descriptors plus the new one.
        """
        if leaf.children is not None:
            leaves, reached = _descend(leaf, q64)
            leaf = leaves[reached[0]]
        row = self.store.row(word_id)
        if len(leaf.rows) + 1 < self.leaf_capacity:
            leaf.rows.append(row)
            self._leaf_of[word_id] = leaf
        else:
            self._build_into(leaf, np.array(leaf.rows + [row], dtype=np.int64))

    def remove(self, word_id: int) -> None:
        """Remove a word; prune emptied nodes and reselect orphaned centres."""
        leaf = self._leaf_of.pop(word_id, None)
        if leaf is None:
            raise KeyError(f"word {word_id} not in tree")
        leaf.rows.remove(self.store.row(word_id))

        node = leaf
        while node.parent is not None and self._is_empty(node):
            parent = node.parent
            c = parent.children.index(node)
            del parent.children[c]
            parent.centres = np.delete(parent.centres, c, axis=1)
            node = parent
        if node is self.root and not node.is_leaf and not node.children:
            node.children = node.centres = None
            node.rows = []

        # Pruning stopped at ``node``: it and its ancestors are exactly the
        # surviving nodes on the removed word's path, bottom-up.
        while node is not None:
            if node.children and node.centre_word == word_id:
                self._reselect_centre(node)
            node = node.parent

    @staticmethod
    def _is_empty(node: TreeNode) -> bool:
        return (not node.rows) if node.is_leaf else (not node.children)

    def _reselect_centre(self, node: TreeNode) -> None:
        subtree_rows = [r for leaf in iter_leaves(node) for r in leaf.rows]
        if not subtree_rows:
            return
        new_row = subtree_rows[int(self.rng.integers(len(subtree_rows)))]
        node.centre_word = int(self.store.ids_at(new_row))
        # Only the root has no parent, and the root has no centre word.
        parent = node.parent
        parent.centres[:, parent.children.index(node)] = self.store.gather(new_row).view(np.uint64)

    # -- introspection ------------------------------------------------

    def all_ids(self) -> set[int]:
        return set(self._leaf_of)

    def leaf_sizes(self) -> list[int]:
        return [len(leaf.rows) for leaf in iter_leaves(self.root)]

    def dump(self) -> str:
        """Tree shape as indented text, for golden-file comparisons."""
        lines: list[str] = []

        def walk(node: TreeNode, depth: int) -> None:
            tag = "root" if node.centre_word is None else f"c=w{node.centre_word}"
            if node.is_leaf:
                ids = ",".join(f"w{i}" for i in self.store.ids_at(node.rows))
                lines.append("  " * depth + f"leaf {tag} [{ids}]")
            else:
                lines.append("  " * depth + f"node {tag}")
                for child in node.children:
                    walk(child, depth + 1)

        walk(self.root, 0)
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
        # queries, (n, trees) index in `leaves` of each one's leaves, leaves).
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
            targets = []
            for tree in self.trees:
                leaves, reached = _descend(tree.root, q64)
                targets.append([leaves[i] for i in reached.tolist()])
        for i, word_id in enumerate(word_ids):
            q = q64[i, None]
            for tree, leaves in zip(self.trees, targets):
                tree.place(word_id, q, leaves[i])

    def _searched_leaves(self, q64: np.ndarray, searched) -> list[list[TreeNode]] | None:
        """Per tree, the leaf each descriptor reached as the last batch
        search's queries ``searched``, if that search is still valid for them."""
        if searched is None or self._searched is None:
            return None
        epoch, queries, reached, leaves = self._searched
        searched = np.asarray(searched, dtype=np.int64)
        if (
            epoch != self._shape_epoch
            or searched.shape != (len(q64),)
            or not ((searched >= 0) & (searched < len(queries))).all()
            or not np.array_equal(queries[searched], q64)
        ):
            return None
        return [[leaves[j] for j in column] for column in reached[searched].T.tolist()]

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
            self._searched = (self._shape_epoch, q64.copy(), descent.reached, descent.leaves)
        return ids, dists

    def _search(
        self, q64: np.ndarray, k: int, budget: int
    ) -> tuple[np.ndarray, np.ndarray, _FrameDescent | None]:
        """The search of ``(n, words)`` queries: ``(ids, dists, descent)``,
        with the frame descent if the trees were descended.

        A budget covering the live vocabulary ranks every live word: a
        walk would examine them all.  Otherwise each tree is descended
        once, by all queries together, grouped by their nearest child at
        every node.  A query whose reached leaves hold at least ``budget``
        rows in all has them ranked as one line by
        :meth:`DescriptorStore.top_k`, which counts each row once.  If the
        line holds at least ``budget`` distinct words that answer stands:
        the walk would pop no queued sibling and examine exactly those
        words.  The other queries walk (:meth:`_FrameDescent.walks`) and
        are ranked from their walked rows.
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
        reached = descent.reached
        sizes = descent.leaf_size[reached]
        # Summed leaf sizes bound the distinct words, so only these can stand.
        full = np.flatnonzero(sizes.sum(axis=1) >= budget)
        ids[full], dists[full], counts = self._rank_lines(
            q64[full], descent.leaf_flat, descent.leaf_start[reached[full]], sizes[full], k
        )
        short = np.setdiff1d(np.arange(n), full[counts >= budget])
        if len(short):
            walked = descent.walks(short, budget)
            sizes = np.fromiter(map(len, walked), dtype=np.int64, count=len(walked))
            flat = np.fromiter(chain.from_iterable(walked), dtype=np.int64, count=int(sizes.sum()))
            ids[short], dists[short], _ = self._rank_lines(
                q64[short], flat, (np.cumsum(sizes) - sizes)[:, None], sizes[:, None], k
            )
        return ids, dists, descent

    def _rank_lines(
        self, q64: np.ndarray, flat: np.ndarray, starts: np.ndarray, sizes: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`DescriptorStore.top_k` of each query over its own line of
        rows, the runs ``flat[starts[i, j]:starts[i, j] + sizes[i, j]]``.

        Queries are ranked in chunks of ``_CHUNK`` ordered by line length,
        so each table is only as wide as its longest line.
        """
        n = len(q64)
        ids = np.empty((n, k), dtype=np.int64)
        dists = np.empty((n, k), dtype=np.int32)
        counts = np.empty(n, dtype=np.int64)
        order = np.argsort(sizes.sum(axis=1), kind="stable")
        for s in range(0, n, _CHUNK):
            chunk = order[s : s + _CHUNK]
            rows = _lines(flat, starts[chunk], sizes[chunk])
            ids[chunk], dists[chunk], counts[chunk] = self.store.top_k(q64[chunk], rows, k)
        return ids, dists, counts


class _FrameDescent:
    """Every tree descended once by all ``(n, words)`` queries together.

    Keeps the leaves some query reaches, with their rows flattened, the
    one each query reaches in each tree and, for every node with several
    children, the centre distances of the queries passing it, from which
    :meth:`walks` builds the heap entries of the walking queries.
    """

    def __init__(self, trees: list[HammingTree], q64: np.ndarray):
        self.q64 = q64
        self.leaves: list[TreeNode] = []
        self.reached = np.empty((len(q64), len(trees)), dtype=np.int64)
        self._visits = []  # (queries, children, their centre distances, nearest child)
        for t, tree in enumerate(trees):
            tree_leaves, tree_reached = _descend(tree.root, q64, self._visit)
            self.reached[:, t] = tree_reached + len(self.leaves)
            self.leaves.extend(tree_leaves)
        self.leaf_size = np.fromiter(
            (len(leaf.rows) for leaf in self.leaves), dtype=np.int64, count=len(self.leaves)
        )
        self.leaf_flat = np.fromiter(
            chain.from_iterable(leaf.rows for leaf in self.leaves),
            dtype=np.int64,
            count=int(self.leaf_size.sum()),
        )
        self.leaf_start = np.cumsum(self.leaf_size) - self.leaf_size

    def _visit(self, node: TreeNode, idx: np.ndarray, d: np.ndarray, best: np.ndarray) -> None:
        if len(node.children) > 1:
            self._visits.append((idx, node.children, d, best))

    def walks(self, queries: np.ndarray, budget: int) -> list[list[int]]:
        """Store rows the best-bin-first walk of each of ``queries`` examines.

        A heap entry ``(key, tick, children, distances, pos)`` stands for
        the unexplored children of one node: their centre distances, with
        the children already taken masked, and ``pos``, the first child of
        least distance ``key`` among the rest.  One pass over the recorded
        visits, which run in tree order and top-down within a tree, gives
        each query the entries of the nodes its descent passed, ticked in
        that order.  A walk starts from the rows of its reached leaves and
        pops until ``budget`` distinct rows are examined or its queue
        drains.  A popped entry is pushed again for its next child before
        that child is descended, so ticks order equal keys by push.
        """
        slot = np.full(len(self.reached), -1)
        slot[queries] = np.arange(len(queries))
        heaps: list[list] = [[] for _ in range(len(queries))]
        for idx, children, d, best in self._visits:
            lines = np.flatnonzero(slot[idx] >= 0)
            if len(lines) == 0:
                continue
            d = d[lines]  # a copy: each walk masks its own row
            at = np.arange(len(lines))
            d[at, best[lines]] = _MASKED
            pos = d.argmin(axis=1)
            for s, key, row, p in zip(slot[idx[lines]].tolist(), d[at, pos].tolist(), d, pos.tolist()):
                heaps[s].append((key, len(heaps[s]), children, row, p))
        walked = []
        for heap, i in zip(heaps, queries.tolist()):
            q64 = self.q64[i, None]
            seen = set(chain.from_iterable(self.leaves[j].rows for j in self.reached[i].tolist()))
            tick = _counter(len(heap))
            # Entries are distinct (key, tick) pairs, so they pop in the same
            # order however the heap was built.
            heapq.heapify(heap)
            while heap and len(seen) < budget:
                _, _, children, d, pos = heapq.heappop(heap)
                d[pos] = _MASKED
                after = int(d.argmin())
                if d[after] < _MASKED:
                    heapq.heappush(heap, (int(d[after]), next(tick), children, d, after))
                node = children[pos]
                while node.children is not None:
                    d = node.child_distances(q64)[0]
                    best = int(d.argmin())
                    if len(node.children) > 1:
                        d[best] = _MASKED
                        pos = int(d.argmin())
                        heapq.heappush(heap, (int(d[pos]), next(tick), node.children, d, pos))
                    node = node.children[best]
                seen.update(node.rows)
            walked.append(list(seen))
        return walked


def _lines(flat: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """A table of ``(m, s)`` runs of ``flat``: line ``i`` joins the runs
    ``flat[starts[i, j]:starts[i, j] + sizes[i, j]]`` in order, and every
    line is padded with -1 to the longest."""
    lengths = sizes.sum(axis=1)
    table = np.full((len(sizes), int(lengths.max())), -1, dtype=np.int64)
    sizes = sizes.ravel()
    ends = np.cumsum(sizes)
    table[np.arange(table.shape[1]) < lengths[:, None]] = flat[
        np.repeat(starts.ravel() + sizes - ends, sizes) + np.arange(ends[-1])
    ]
    return table
