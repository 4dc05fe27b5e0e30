"""Randomized hierarchical clustering forest for binary descriptors.

Each tree recursively partitions the descriptor set around randomly chosen
cluster centres by Hamming distance until clusters fall below the leaf
capacity.  Several trees are built over the same word set and searched
together: the query descends every tree once, unexplored children go onto
a shared priority queue keyed by centre distance, and the search keeps
popping the queue until a budget of distinct descriptors has been examined.
A descriptor reached through several trees is counted once: each search
collects the store rows of the leaves it reaches in a set of its own.
Every search ranks its rows with one kernel, :meth:`DescriptorStore.top_k`,
by an int64 key ``distance << id_bits | id``; word ids are checked to fit
it when stored.  Leaves record store rows only; word ids are read from
the store's row -> id array where needed.

A frame's descriptors are searched together by
:meth:`HammingForest.knn_search_batch`, which descends every tree once:
all queries go down together, grouped by nearest child at each node
(:func:`_descend`).  A query whose reached leaves already hold ``budget``
distinct words would pop nothing from the queue, so it is answered from
those leaves.  Any other query walks, its queue seeded with the sibling
cursors its own walk would push, from the distances the grouped descent
computed, so no tree is descended twice.  Each query's distinct rows are
then ranked by ``top_k`` in chunks of queries ordered by row count within
a block, each table only as wide as its longest line, so both searches
give the same answers.

The structure is fully online: words can be inserted (overflowing leaves
are rebuilt in place) and removed (emptied nodes are pruned upward, and
an internal node whose recorded centre word is deleted reselects a new
centre from its remaining subtree).  :meth:`HammingForest.insert_batch`
descends each tree once with all of a batch's words, then places them
word by word, so the trees and rng draws are those of one insert per
word; :meth:`HammingForest.insert` is its one-word case.

Concurrency contract: searches, per-query and batched, write no forest
state and may run concurrently; the one write either makes is the
idempotent fill of a node's cached centre matrix.  Any mutation (insert, remove, descriptor
merge) requires exclusive access to the forest.  Enforcement is up to the
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
_CHUNK = 32  # queries scored together; bounds the scoring temporaries to about 1 MB
_BLOCK = 4 * _CHUNK  # queries whose examined rows are held at once; bounds them to about 1 MB


class _SiblingCursor:
    """Lazy heap entry standing for the unexplored children of one node.

    Pushing every sibling eagerly costs far more than budgeted searches
    ever pay back; a cursor enters the queue keyed by its cheapest
    unexplored child and re-inserts itself keyed by the next one each
    time it is popped.
    """

    __slots__ = ("children", "dists", "order", "pos")

    def __init__(self, children, dists):
        self.children = children
        self.dists = dists
        self.order = None
        self.pos = 0

    def next_child(self, heap, tick):
        if self.order is None:
            self.order = np.argsort(self.dists, kind="stable").tolist()
        child = self.children[self.order[self.pos]]
        self.pos += 1
        if self.pos < len(self.order):
            key = int(self.dists[self.order[self.pos]])
            if key < _MASKED:
                heapq.heappush(heap, (key, next(tick), self))
        return child


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

    def check_new(self, word_id: int, desc: np.ndarray) -> np.ndarray:
        """Refuse a word :meth:`add` cannot store; returns ``desc`` as uint8.

        An id must be new and fit the id field of a packed key.
        """
        if not 0 <= word_id < 1 << self.id_bits:
            raise ValueError(f"word id {word_id} is outside 0..2**{self.id_bits}-1")
        if word_id in self._row_of:
            raise ValueError(f"word {word_id} already stored")
        desc = np.asarray(desc, dtype=np.uint8)
        if desc.shape != (self.nbytes,):
            raise ValueError(
                f"descriptor width mismatch: got {desc.shape[-1] * 8} bits, store holds {self.nbytes * 8}"
            )
        return desc

    def add(self, word_id: int, desc: np.ndarray) -> int:
        desc = self.check_new(word_id, desc)
        if not self._free:
            old = self._data
            self._data = np.zeros((len(old) * 2, self.nbytes), dtype=np.uint8)
            self._data[: len(old)] = old
            self._data64 = self._data.view(np.uint64)
            self._word_of = np.pad(self._word_of, (0, len(old)), constant_values=-1)
            self._free = list(range(len(old) * 2 - 1, len(old) - 1, -1))
        row = self._free.pop()
        self._data[row] = desc
        self._row_of[word_id] = row
        self._word_of[row] = word_id
        return row

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
        qs = np.asarray(qs, dtype=np.uint8)
        if qs.shape != (len(word_ids), self.nbytes):
            raise ValueError("descriptor width mismatch in merge")
        rows = [self._row_of[w] for w in word_ids]
        np.bitwise_and.at(self._data64, rows, np.ascontiguousarray(qs).view(np.uint64))

    @property
    def id_bits(self) -> int:
        """Bits left for the word id in an int64 key ``distance << id_bits | id``."""
        return 63 - (self.nbytes * 8).bit_length()

    def live_rows(self) -> np.ndarray:
        return np.flatnonzero(self._word_of >= 0)

    def top_k(self, q64: np.ndarray, rows: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``k`` nearest words to each of ``(m, words)`` queries, in (distance, id) order.

        ``rows`` is 1-D (the rows compared with every query) or ``(m, r)``
        (each query's own rows, -1 marking none); a query must list a row
        at most once.  Returns ``(ids, dists)``, both ``(m, k)``, padded
        with -1 and ``NO_DISTANCE`` past the rows a query has.
        """
        id_bits = self.id_bits
        keys = plane_distances(q64, self._data64, rows).astype(np.int64) << id_bits
        keys |= self._word_of[rows]
        if rows.ndim == 2:
            keys[rows < 0] = _NO_KEY
        if keys.shape[1] > k:
            keys = np.partition(keys, k - 1, axis=1)[:, :k]
        keys.sort(axis=1)
        found = keys != _NO_KEY
        ids = np.full((len(keys), k), -1, dtype=np.int64)
        dists = np.full((len(keys), k), NO_DISTANCE, dtype=np.int32)
        ids[:, : keys.shape[1]] = np.where(found, keys & ((1 << id_bits) - 1), -1)
        dists[:, : keys.shape[1]] = np.where(found, keys >> id_bits, NO_DISTANCE)
        return ids, dists

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

    Every node keeps a value snapshot of the descriptor it was clustered
    around (``centre``) plus the originating word id, used only to rank the
    node during descent.  Snapshots are not updated when the live word is
    merged, so routing stays stable while searches remain approximate.
    """

    __slots__ = (
        "centre",
        "centre_word",
        "parent",
        "children",
        "rows",
        "_centre_mat",
    )

    def __init__(self, centre=None, centre_word=None, parent=None):
        self.centre = centre
        self.centre_word = centre_word
        self.parent = parent
        self.children: list[TreeNode] | None = None
        self.rows: list[int] | None = None
        self._centre_mat = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def child_distances(self, q64: np.ndarray) -> np.ndarray:
        """Hamming distances from ``(m, words)`` queries (``uint64`` views) to each
        child's centre: an ``(m, children)`` matrix."""
        # The centres are cached word-major, a (words, children) uint64
        # matrix, so the popcounts of one (words, m, children) XOR are
        # summed over its leading axis: as few numpy calls as one query
        # needs, and contiguous adds for a frame's worth of queries.
        if self._centre_mat is None:
            self._centre_mat = np.stack([c.centre for c in self.children]).view(np.uint64).T.copy()
        return np.bitwise_count(q64.T[:, :, None] ^ self._centre_mat[:, None, :]).sum(
            axis=0, dtype=np.int32
        )

    def invalidate(self) -> None:
        self._centre_mat = None


def _descend(node: TreeNode, q64: np.ndarray, visit=None) -> tuple[list[TreeNode], np.ndarray]:
    """Descend from ``node`` with every ``(n, words)`` query at once,
    grouped by nearest child at each internal node.

    Returns ``(leaves, reached)``: leaves listed on the way and the index
    in ``leaves`` of the leaf each query reaches.  At every node a query
    takes the first child of least centre distance.  ``visit(node, idx,
    d, best)`` is called at each internal node with the queries ``idx``
    reaching it, their ``(len(idx), children)`` centre distances and
    their nearest child; it may overwrite ``d``.
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
        lines = []  # index in `leaves` of each leaf child, -1 for an internal one
        for c, child in enumerate(node.children):
            if child.children is None:
                lines.append(len(leaves))
                leaves.append(child)
            else:
                lines.append(-1)
                group = idx[best == c]
                if len(group):
                    stack.append((child, group))
        # Queries sent to an internal child are written again below it.
        reached[idx] = np.array(lines)[best]
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
        node.invalidate()
        if len(rows) < self.leaf_capacity or len(rows) < 2:
            node.children = None
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

        node.rows = None
        node.children = []
        centre_words = self.store.ids_at(rows[centre_pos]).tolist()
        for ci in range(k):
            members = rows[assign == ci]
            if len(members) == 0:
                continue
            child = TreeNode(centre=centres[ci].copy(), centre_word=centre_words[ci], parent=node)
            self._build_into(child, members)
            node.children.append(child)

    # -- online updates -----------------------------------------------

    def descend_nearest(self, q: np.ndarray) -> TreeNode:
        """The leaf one descriptor reaches by nearest-child descent."""
        leaves, reached = _descend(self.root, np.ascontiguousarray(q).view(np.uint64)[None])
        return leaves[reached[0]]

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
            parent.children.remove(node)
            parent.invalidate()
            node = parent
        if node is self.root and not node.is_leaf and not node.children:
            node.children = None
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
        node.centre = self.store.gather(new_row).copy()
        if node.parent is not None:
            node.parent.invalidate()

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
        for word_id, desc in words.items():
            self.store.check_new(word_id, desc)
        for word_id, desc in words.items():
            self.store.add(word_id, desc)
        ids = list(self.store.word_ids)
        for tree in self.trees:
            tree.build(ids)

    def insert(self, word_id: int, desc: np.ndarray) -> None:
        self.insert_batch([word_id], np.asarray(desc)[None])

    def insert_batch(self, word_ids, descs: np.ndarray) -> None:
        """Store words and insert them into every tree, with the trees and
        rng draws that inserting them one by one, in order, would give.

        Every id and descriptor is checked before the first is stored, so
        a refused batch leaves the forest as it was.  Each tree is
        descended once by the whole batch; the words are then placed word
        by word, each in every tree in turn, and a word whose leaf an
        earlier word of the batch rebuilt descends on from that leaf.
        """
        word_ids = list(word_ids)
        descs = np.asarray(descs, dtype=np.uint8)
        if descs.ndim != 2 or len(descs) != len(word_ids):
            raise ValueError(f"{len(word_ids)} word ids need as many descriptors, got {descs.shape}")
        checked = set()
        for word_id, desc in zip(word_ids, descs):
            self.store.check_new(word_id, desc)
            if word_id in checked:
                raise ValueError(f"word {word_id} given twice")
            checked.add(word_id)
        for word_id, desc in zip(word_ids, descs):
            self.store.add(word_id, desc)
        q64 = np.ascontiguousarray(descs).view(np.uint64)
        targets = []
        for tree in self.trees:
            leaves, reached = _descend(tree.root, q64)
            targets.append([leaves[i] for i in reached.tolist()])
        for i, word_id in enumerate(word_ids):
            q = q64[i, None]
            for tree, leaves in zip(self.trees, targets):
                tree.place(word_id, q, leaves[i])

    def remove(self, word_id: int) -> None:
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
        """Budgeted best-bin-first search for the ``k`` nearest words.

        Every tree is descended once (children ranked by Hamming distance
        to their centre snapshot, siblings pushed onto one priority
        queue), then the queue is popped until at least ``budget``
        distinct descriptors have been examined or the queue drains; the
        examined words are ranked by :meth:`DescriptorStore.top_k`.
        A budget at least as large as the vocabulary examines every word,
        so the live store rows are ranked instead of walking, with the
        same result.  Results are sorted by ascending distance, ties by
        ascending id.
        """
        if len(self.store) == 0 or k <= 0:
            return []
        if budget is None:
            budget = self.budget
        q = np.asarray(q, dtype=np.uint8)
        if q.shape != (self.store.nbytes,):
            raise ValueError(
                f"descriptor width mismatch: query {q.shape[-1] * 8} bits, forest {self.width}"
            )
        q64 = np.ascontiguousarray(q).view(np.uint64)[None]
        if budget >= len(self.store):
            rows = self.store.live_rows()
        else:
            rows = np.array(self._best_bin_first(q64, budget), dtype=np.int64)
        ids, dists = self.store.top_k(q64, rows, min(k, len(rows)))
        return list(map(Neighbor, ids[0].tolist(), dists[0].tolist()))

    def _best_bin_first(self, q64: np.ndarray, budget: int, start=None) -> list[int]:
        """Store rows the walk of :meth:`knn_search` examines for one ``(1, words)`` query.

        Every tree is descended here, unless ``start`` resumes the walk
        from a batch descent: ``(pushed, leaves)``, the ``(key, cursor)``
        entries these descents would push, in push order, and the row
        lists of the leaves they reach.
        """
        heap: list = []
        tick = _counter()
        seen: set[int] = set()  # store rows examined, across trees

        def descend(node: TreeNode) -> None:
            while node.children is not None:
                d = node.child_distances(q64)[0]
                best = int(d.argmin())
                children = node.children
                if len(children) > 1:
                    d[best] = _MASKED
                    second = int(d.argmin())
                    heapq.heappush(heap, (int(d[second]), next(tick), _SiblingCursor(children, d)))
                node = children[best]
            seen.update(node.rows)

        if start is None:
            for tree in self.trees:
                descend(tree.root)
        else:
            pushed, leaves = start
            # Heap entries are distinct (key, tick) pairs, so they pop in
            # the same order however the heap was built.
            heap.extend((key, next(tick), cursor) for key, cursor in pushed)
            heapq.heapify(heap)
            for rows in leaves:
                seen.update(rows)
        while heap and len(seen) < budget:
            _, _, cursor = heapq.heappop(heap)
            descend(cursor.next_child(heap, tick))
        return list(seen)

    def knn_search_batch(
        self, queries: np.ndarray, k: int, budget: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`knn_search` for every row of ``queries`` at once.

        Returns ``(ids, dists)``, both ``(len(queries), k)``: row ``i``
        holds the answer of ``knn_search(queries[i], k, budget)`` in
        order, padded with id -1 and distance ``NO_DISTANCE`` past the
        words found.

        Each tree is descended once, by all queries together, grouped by
        their nearest child at every node.  A query whose reached leaves
        hold at least ``budget`` distinct words is answered from them: the
        walk would pop no queued sibling and examine exactly those words.
        The other queries walk as :meth:`knn_search` does, resuming from
        the batch descent.  Each query's rows are ranked by
        :meth:`DescriptorStore.top_k` in chunks of queries ordered by row
        count within a block of ``_BLOCK`` queries, so each table is only
        as wide as its longest line.  A
        budget covering the live vocabulary ranks every live word, as
        :meth:`knn_search` does.
        """
        queries = np.asarray(queries, dtype=np.uint8)
        if queries.ndim != 2 or queries.shape[1] != self.store.nbytes:
            raise ValueError(
                f"descriptor width mismatch: queries {queries.shape[-1] * 8} bits, forest {self.width}"
            )
        k = max(k, 0)
        n = len(queries)
        ids = np.full((n, k), -1, dtype=np.int64)
        dists = np.full((n, k), NO_DISTANCE, dtype=np.int32)
        if len(self.store) == 0 or k == 0 or n == 0:
            return ids, dists
        if budget is None:
            budget = self.budget
        q64 = np.ascontiguousarray(queries).view(np.uint64)
        if budget >= len(self.store):
            rows = self.store.live_rows()
            for s in range(0, n, _CHUNK):
                chunk = slice(s, s + _CHUNK)
                ids[chunk], dists[chunk] = self.store.top_k(q64[chunk], rows, k)
            return ids, dists
        descent = _FrameDescent(self.trees, q64)
        # Rows are gathered a block of queries at a time, which bounds
        # their memory; within a block, queries of similar row counts are
        # ranked together.
        for b in range(0, n, _BLOCK):
            flat, starts, sizes = self._examined_rows(q64, budget, descent, b, min(b + _BLOCK, n))
            order = np.argsort(sizes, kind="stable")
            for s in range(0, len(order), _CHUNK):
                chunk = order[s : s + _CHUNK]
                rows = _lines(flat, starts[chunk, None], sizes[chunk, None])
                ids[b + chunk], dists[b + chunk] = self.store.top_k(q64[b + chunk], rows, k)
        return ids, dists

    def _examined_rows(
        self, q64: np.ndarray, budget: int, descent: _FrameDescent, b: int, e: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The store rows :meth:`_best_bin_first` examines for each of the
        queries ``b`` to ``e``, resumed from ``descent``.

        Returns ``(flat, starts, sizes)``: query ``b + i`` examines
        ``flat[starts[i]:starts[i] + sizes[i]]``, each row once.
        """
        parts = []
        starts = np.empty(e - b, dtype=np.int64)
        sizes = np.empty(e - b, dtype=np.int64)
        offset = 0
        for s in range(0, e - b, _CHUNK):
            rows = descent.leaf_union(b + s, min(b + s + _CHUNK, e))
            kept = rows >= 0
            count = kept.sum(axis=1)
            # A query whose leaves hold fewer than `budget` words walks instead.
            short = np.flatnonzero(count < budget)
            kept[short] = False
            count[short] = 0
            parts.append(rows[kept])
            sizes[s : s + len(count)] = count
            starts[s : s + len(count)] = offset + np.cumsum(count) - count
            offset += int(count.sum())
            for i in (s + short).tolist():
                walked = self._best_bin_first(q64[b + i, None], budget, descent.walk_start(b + i))
                parts.append(np.array(walked, dtype=np.int64))
                starts[i], sizes[i] = offset, len(walked)
                offset += len(walked)
        return np.concatenate(parts), starts, sizes


class _FrameDescent:
    """Every tree descended once by all ``(n, words)`` queries together.

    Keeps the leaf each query reaches in each tree and, for every node a
    query passes, the sibling cursor :meth:`HammingForest._best_bin_first`
    would push there, from the distances the grouped descent computed.
    """

    def __init__(self, trees: list[HammingTree], q64: np.ndarray):
        leaves: list[TreeNode] = []
        self.reached = np.empty((len(q64), len(trees)), dtype=np.int64)
        self._visits = []  # (queries, children, masked distances, nearest unexplored distance)
        for t, tree in enumerate(trees):
            tree_leaves, tree_reached = _descend(tree.root, q64, self._visit)
            self.reached[:, t] = tree_reached + len(leaves)
            leaves.extend(tree_leaves)
        self.leaves = [leaf.rows for leaf in leaves]
        self._leaf_size = np.fromiter(map(len, self.leaves), dtype=np.int64, count=len(leaves))
        self._leaf_flat = np.fromiter(
            chain.from_iterable(self.leaves), dtype=np.int64, count=int(self._leaf_size.sum())
        )
        self._leaf_start = np.cumsum(self._leaf_size) - self._leaf_size

        # Each query's visits in visit order: tree order, then top-down.
        sizes = [len(v[0]) for v in self._visits]
        query = np.concatenate([np.empty(0, dtype=np.int64), *(v[0] for v in self._visits)])
        order = np.argsort(query, kind="stable")
        self._bounds = np.searchsorted(query[order], np.arange(len(q64) + 1)).tolist()
        self._visit_of = np.repeat(np.arange(len(sizes)), sizes)[order]
        self._line_of = (np.arange(len(query)) - np.repeat(np.cumsum(sizes) - sizes, sizes))[order]
        self._key_of = np.concatenate([np.empty(0, dtype=np.int32), *(v[3] for v in self._visits)])[order]

    def _visit(self, node: TreeNode, idx: np.ndarray, d: np.ndarray, best: np.ndarray) -> None:
        if len(node.children) > 1:
            d[np.arange(len(idx)), best] = _MASKED
            self._visits.append((idx, node.children, d, d.min(axis=1)))

    def leaf_union(self, s: int, e: int) -> np.ndarray:
        """The distinct store rows of the leaves each of the queries ``s``
        to ``e`` reaches, a line per query, in ascending order among -1s."""
        reached = self.reached[s:e]
        rows = _lines(self._leaf_flat, self._leaf_start[reached], self._leaf_size[reached])
        rows.sort(axis=1)
        rows[:, 1:][rows[:, 1:] == rows[:, :-1]] = -1
        return rows

    def walk_start(self, i: int):
        """The ``start`` of query ``i``'s :meth:`HammingForest._best_bin_first` walk."""
        a, z = self._bounds[i], self._bounds[i + 1]
        pushed = [
            (key, _SiblingCursor(self._visits[v][1], self._visits[v][2][line]))
            for v, line, key in zip(
                self._visit_of[a:z].tolist(), self._line_of[a:z].tolist(), self._key_of[a:z].tolist()
            )
        ]
        return pushed, [self.leaves[j] for j in self.reached[i].tolist()]


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
