"""Randomized hierarchical clustering forest for binary descriptors.

Each tree recursively partitions the descriptor set around randomly chosen
cluster centres by Hamming distance until clusters fall below the leaf
capacity.  Several trees are built over the same word set and searched
together: the query descends every tree once, unexplored children go onto
a shared priority queue keyed by centre distance, and the search keeps
popping the queue until a budget of distinct descriptors has been examined.
A descriptor reached through several trees is counted once: the search
stamps the store rows it has examined, so the bookkeeping is sized by the
store's row capacity, which follows the peak live vocabulary rather than
the number of word ids ever created.

The structure is fully online: words can be inserted (overflowing leaves
are rebuilt in place) and removed (emptied nodes are pruned upward, and an
internal node whose recorded centre word is deleted reselects a new centre
from its remaining subtree).

Concurrency contract: searches are read-only and may run concurrently;
any mutation (insert, remove, descriptor merge) requires exclusive access
to the forest.  Enforcement is up to the embedder.
"""

from __future__ import annotations

import heapq
from itertools import count as _counter
from typing import Iterator, NamedTuple

import numpy as np

from .bits import hamming, hamming_matrix

__all__ = [
    "Neighbor",
    "TreeNode",
    "HammingTree",
    "HammingForest",
    "DescriptorStore",
    "hamming",
    "build_tree",
]


class Neighbor(NamedTuple):
    word_id: int
    distance: int


_MASKED = 1 << 30  # sentinel distance for the already-descended child


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

    Rows are stable for the lifetime of a word, so tree leaves can cache
    row indices.  Descriptors are mutated in place by :meth:`merge_and`;
    routing copies taken via :meth:`get` are unaffected.  A row -> word id
    array (-1 on free rows) lets :meth:`scan` and the forest's search map
    rows back to words.
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

    def add(self, word_id: int, desc: np.ndarray) -> int:
        if word_id in self._row_of:
            raise ValueError(f"word {word_id} already stored")
        desc = np.asarray(desc, dtype=np.uint8)
        if desc.shape != (self.nbytes,):
            raise ValueError(
                f"descriptor width mismatch: got {desc.shape[-1] * 8} bits, store holds {self.nbytes * 8}"
            )
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

    def merge_and(self, word_id: int, q: np.ndarray) -> None:
        """Fold ``q`` into a stored descriptor with bitwise AND (in place)."""
        q = np.asarray(q, dtype=np.uint8)
        if q.shape != (self.nbytes,):
            raise ValueError("descriptor width mismatch in merge")
        self._data[self._row_of[word_id]] &= q

    def distances(self, q: np.ndarray, rows: np.ndarray) -> np.ndarray:
        q64 = np.ascontiguousarray(q).view(np.uint64)
        return np.bitwise_count(self._data64[rows] ^ q64).sum(axis=1, dtype=np.int32)

    def gather(self, rows: np.ndarray) -> np.ndarray:
        return self._data[rows]

    @property
    def capacity(self) -> int:
        """Number of rows allocated; row indices are always below it."""
        return len(self._word_of)

    def scan(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Word ids and distances to ``q`` of every live descriptor."""
        rows = np.flatnonzero(self._word_of >= 0)
        return self._word_of[rows], self.distances(q, rows)


class TreeNode:
    """A tree node; ``children is None`` marks a leaf.

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
        "ids",
        "rows",
        "_centre_mat",
        "_rows_arr",
    )

    def __init__(self, centre=None, centre_word=None, parent=None):
        self.centre = centre
        self.centre_word = centre_word
        self.parent = parent
        self.children: list[TreeNode] | None = None
        self.ids: list[int] | None = None
        self.rows: list[int] | None = None
        self._centre_mat = None
        self._rows_arr = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def child_distances(self, q64: np.ndarray) -> np.ndarray:
        """Hamming distance from a query (``uint64`` view) to each child's centre."""
        # The centres are cached as a uint64 matrix for fast XOR/popcount.
        if self._centre_mat is None:
            self._centre_mat = np.stack([c.centre for c in self.children]).view(np.uint64)
        return np.bitwise_count(self._centre_mat ^ q64).sum(axis=1, dtype=np.int32)

    def rows_array(self) -> np.ndarray:
        """The store rows of a leaf's words, cached as an array."""
        if self._rows_arr is None:
            self._rows_arr = np.asarray(self.rows, dtype=np.int64)
        return self._rows_arr

    def invalidate(self) -> None:
        self._centre_mat = None
        self._rows_arr = None


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
        self.root.ids = []
        self.root.rows = []
        self._leaf_of: dict[int, TreeNode] = {}

    # -- construction -------------------------------------------------

    def build(self, word_ids) -> None:
        """(Re)build the whole tree over the given word ids."""
        self._leaf_of.clear()
        self.root = TreeNode()
        self._build_into(self.root, list(word_ids))

    def _build_into(self, node: TreeNode, ids: list[int]) -> None:
        node.invalidate()
        if len(ids) < self.leaf_capacity or len(ids) < 2:
            node.children = None
            node.ids = ids
            node.rows = [self.store.row(i) for i in ids]
            for i in ids:
                self._leaf_of[i] = node
            return

        k = min(self.branching, len(ids))
        centre_pos = np.sort(self.rng.choice(len(ids), size=k, replace=False))
        rows = np.fromiter((self.store.row(i) for i in ids), dtype=np.int64, count=len(ids))
        descs = self.store.gather(rows)
        centres = descs[centre_pos]
        assign = np.argmin(hamming_matrix(descs, centres, chunk=2048), axis=1)
        if len(np.unique(assign)) < 2:
            # Degenerate split (duplicate descriptors): force progress.
            assign = np.arange(len(ids)) % k

        node.ids = None
        node.rows = None
        node.children = []
        ids_arr = np.asarray(ids, dtype=np.int64)
        for ci in range(k):
            member_idx = np.nonzero(assign == ci)[0]
            if len(member_idx) == 0:
                continue
            pos = int(centre_pos[ci])
            child = TreeNode(
                centre=descs[pos].copy(),
                centre_word=ids[pos],
                parent=node,
            )
            self._build_into(child, [int(i) for i in ids_arr[member_idx]])
            node.children.append(child)

    # -- online updates -----------------------------------------------

    def descend_nearest(self, q: np.ndarray) -> TreeNode:
        q64 = np.ascontiguousarray(q).view(np.uint64)
        node = self.root
        while not node.is_leaf:
            node = node.children[int(np.argmin(node.child_distances(q64)))]
        return node

    def insert(self, word_id: int) -> None:
        """Insert a word already present in the store.

        Descends to the nearest leaf; if the leaf can take one more entry
        it is appended, otherwise the leaf node is rebuilt in place over
        its descriptors plus the new one.
        """
        if word_id in self._leaf_of:
            raise ValueError(f"word {word_id} already in tree")
        q = self.store.get(word_id)
        leaf = self.descend_nearest(q)
        if len(leaf.ids) + 1 < self.leaf_capacity:
            leaf.ids.append(word_id)
            leaf.rows.append(self.store.row(word_id))
            leaf.invalidate()
            self._leaf_of[word_id] = leaf
        else:
            ids = leaf.ids + [word_id]
            self._build_into(leaf, ids)

    def remove(self, word_id: int) -> None:
        """Remove a word; prune emptied nodes and reselect orphaned centres."""
        leaf = self._leaf_of.pop(word_id, None)
        if leaf is None:
            raise KeyError(f"word {word_id} not in tree")
        idx = leaf.ids.index(word_id)
        leaf.ids.pop(idx)
        leaf.rows.pop(idx)
        leaf.invalidate()

        node = leaf
        while node.parent is not None and self._is_empty(node):
            parent = node.parent
            parent.children.remove(node)
            parent.invalidate()
            node = parent
        if node is self.root and not node.is_leaf and not node.children:
            node.children = None
            node.ids = []
            node.rows = []
            node.invalidate()

        # Pruning stopped at ``node``: it and its ancestors are exactly the
        # surviving nodes on the removed word's path, bottom-up.
        while node is not None:
            if node.children and node.centre_word == word_id:
                self._reselect_centre(node)
            node = node.parent

    @staticmethod
    def _is_empty(node: TreeNode) -> bool:
        return (not node.ids) if node.is_leaf else (not node.children)

    def _reselect_centre(self, node: TreeNode) -> None:
        subtree_ids = [i for leaf in iter_leaves(node) for i in leaf.ids]
        if not subtree_ids:
            return
        new_id = subtree_ids[int(self.rng.integers(len(subtree_ids)))]
        node.centre_word = new_id
        node.centre = self.store.get(new_id)
        if node.parent is not None:
            node.parent.invalidate()

    # -- introspection ------------------------------------------------

    def all_ids(self) -> set[int]:
        return set(self._leaf_of)

    def leaf_sizes(self) -> list[int]:
        return [len(leaf.ids) for leaf in iter_leaves(self.root)]

    def dump(self) -> str:
        """Tree shape as indented text, for golden-file comparisons."""
        lines: list[str] = []

        def walk(node: TreeNode, depth: int) -> None:
            tag = "root" if node.centre_word is None else f"c=w{node.centre_word}"
            if node.is_leaf:
                ids = ",".join(f"w{i}" for i in node.ids)
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
        self._stamp = np.zeros(self.store.capacity, dtype=np.int64)  # row -> last search epoch
        self._epoch = 0

    def __len__(self) -> int:
        return len(self.store)

    def __contains__(self, word_id: int) -> bool:
        return word_id in self.store

    def build(self, words: dict[int, np.ndarray]) -> None:
        """Build every tree over an id -> descriptor mapping."""
        for word_id, desc in words.items():
            self.store.add(word_id, desc)
        ids = list(words)
        for tree in self.trees:
            tree.build(ids)

    def insert(self, word_id: int, desc: np.ndarray) -> None:
        self.store.add(word_id, desc)
        for tree in self.trees:
            tree.insert(word_id)

    def remove(self, word_id: int) -> None:
        for tree in self.trees:
            tree.remove(word_id)
        self.store.remove(word_id)

    def descriptor(self, word_id: int) -> np.ndarray:
        return self.store.get(word_id)

    def merge_and(self, word_id: int, q: np.ndarray) -> None:
        self.store.merge_and(word_id, q)

    def knn_search(self, q: np.ndarray, k: int, budget: int | None = None) -> list[Neighbor]:
        """Budgeted best-bin-first search for the ``k`` nearest words.

        Every tree is descended once (children ranked by Hamming distance
        to their centre snapshot, siblings pushed onto one priority
        queue), then the queue is popped until at least ``budget``
        distinct descriptors have been examined or the queue drains.
        A budget at least as large as the vocabulary examines every word,
        so it is answered exactly by one Hamming scan over the live store
        rows instead of the walk, with the same result.
        Results are sorted by ascending distance, ties by ascending id.
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
        if budget >= len(self.store):
            return _nearest(*self.store.scan(q), k)
        return self._best_bin_first(q, k, budget)

    def _best_bin_first(self, q: np.ndarray, k: int, budget: int) -> list[Neighbor]:
        """The tree walk of :meth:`knn_search`, for a validated query."""
        if len(self._stamp) < self.store.capacity:
            self._stamp = np.zeros(self.store.capacity, dtype=np.int64)
        self._epoch += 1
        epoch = self._epoch
        stamp = self._stamp
        data64 = self.store._data64
        q64 = np.ascontiguousarray(q).view(np.uint64)
        heap: list = []
        tick = _counter()
        found_rows: list[np.ndarray] = []
        found_dists: list[np.ndarray] = []
        examined = 0

        def scan(leaf: TreeNode) -> None:
            nonlocal examined
            if not leaf.rows:
                return
            rows = leaf.rows_array()
            fresh = stamp[rows] != epoch
            n_fresh = int(np.count_nonzero(fresh))
            if n_fresh == 0:
                return
            if n_fresh < len(rows):
                rows = rows[fresh]
            stamp[rows] = epoch
            found_rows.append(rows)
            found_dists.append(np.bitwise_count(data64[rows] ^ q64).sum(axis=1, dtype=np.int32))
            examined += n_fresh

        def descend(node: TreeNode) -> None:
            while node.children is not None:
                d = node.child_distances(q64)
                best = int(d.argmin())
                children = node.children
                if len(children) > 1:
                    d[best] = _MASKED
                    second = int(d.argmin())
                    heapq.heappush(heap, (int(d[second]), next(tick), _SiblingCursor(children, d)))
                node = children[best]
            scan(node)

        for tree in self.trees:
            descend(tree.root)
        while heap and examined < budget:
            _, _, cursor = heapq.heappop(heap)
            node = cursor.next_child(heap, tick)
            if node.children is None:
                scan(node)
            else:
                descend(node)

        if not found_rows:
            return []
        ids = self.store._word_of[np.concatenate(found_rows)]
        return _nearest(ids, np.concatenate(found_dists), k)


def _nearest(ids: np.ndarray, dists: np.ndarray, k: int) -> list[Neighbor]:
    """The ``k`` first entries in (distance, id) order."""
    order = np.lexsort((ids, dists))[:k]
    return [Neighbor(int(ids[i]), int(dists[i])) for i in order]


def build_tree(words: dict[int, np.ndarray], branching: int, leaf_capacity: int, seed: int) -> HammingTree:
    """Build a standalone tree (with its own store) over an id -> descriptor map."""
    if not words:
        raise ValueError("cannot build a tree over an empty word set")
    first = next(iter(words.values()))
    store = DescriptorStore(first.shape[-1])
    for word_id, desc in words.items():
        store.add(word_id, desc)
    tree = HammingTree(store, branching, leaf_capacity, np.random.default_rng(seed))
    tree.build(list(words))
    return tree
