"""pg3D-Rtree: a 3D R-tree over spatiotemporal boxes.

Hermes' R-tree indexes :class:`~repro.hermes.types.BoxST` keys in
``(x, y, t)`` and is independent of PostGIS.  The tree is height-balanced
and grows from the leaves upwards, like a B-tree: an overflowing node splits
and the split propagates towards the root.  Its behaviours are Guttman's:

* choose-leaf -- descend into the entry whose box needs the least volume
  enlargement plus ``1e-9 * volume`` (smaller boxes win near-ties); an exact
  tie goes to the first such entry, so the tree's shape is a function of the
  insertion sequence alone,
* split       -- the quadratic split at minimum fill
  ``max(2, max_entries // 3)``,
* range search -- a stack-order walk of the entries whose boxes intersect
  the query box (closed bounds).

Sort-Tile-Recursive (STR) bulk loading orders the items before inserting
them; benchmark E11 compares it with one-at-a-time insertion.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from typing import Any, Generic, TypeVar

from repro.hermes.types import BoxST

__all__ = ["RTree3D", "str_bulk_load"]

V = TypeVar("V")


class _Node:
    """A node: entry boxes plus, per entry, a child node or a leaf value."""

    __slots__ = ("is_leaf", "boxes", "items", "parent")

    def __init__(self, is_leaf: bool, boxes: list[BoxST], items: list[Any]) -> None:
        self.is_leaf = is_leaf
        self.boxes = boxes
        self.items = items
        self.parent: _Node | None = None


def _union(boxes: list[BoxST]) -> BoxST:
    out = boxes[0]
    for box in boxes[1:]:
        out = out.union(box)
    return out


def _penalty(box: BoxST, new_box: BoxST) -> float:
    """Volume enlargement, with volume as tie-breaker (Guttman)."""
    return box.enlargement(new_box) + 1e-9 * box.volume


class RTree3D(Generic[V]):
    """The pg3D-Rtree.

    Values of any type can be stored under a :class:`BoxST` key; the
    ReTraTree stores :class:`~repro.storage.heapfile.RID` record identifiers.
    A node splits when it holds more than ``max_entries`` entries.
    """

    def __init__(self, max_entries: int = 16) -> None:
        if max_entries < 4:
            raise ValueError("max_entries must be at least 4")
        self.max_entries = max_entries
        self.min_fill = max(2, max_entries // 3)
        self._root = _Node(True, [], [])
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels (1 for a tree that is just a leaf root)."""
        h = 1
        node = self._root
        while not node.is_leaf:
            h += 1
            node = node.items[0]
        return h

    @property
    def bbox(self) -> BoxST | None:
        """Bounding box of everything stored, or ``None`` when empty."""
        return _union(self._root.boxes) if self._root.boxes else None

    # -- insertion ---------------------------------------------------------------

    def insert(self, box: BoxST, value: V) -> None:
        """Insert a value under its 3D bounding box."""
        node = self._root
        while not node.is_leaf:
            penalties = [_penalty(b, box) for b in node.boxes]
            best = penalties.index(min(penalties))
            node.boxes[best] = node.boxes[best].union(box)
            node = node.items[best]
        node.boxes.append(box)
        node.items.append(value)
        self._size += 1
        while len(node.boxes) > self.max_entries:
            node = self._split(node)

    def _split(self, node: _Node) -> _Node:
        """Split an overflowing node in place; returns the node to check next.

        ``node`` keeps the left group and a new sibling takes the right one.
        When ``node`` was the root, a new root above the two ends the climb.
        """
        left, right = self._pick_split(node.boxes)
        boxes, items = node.boxes, node.items
        node.boxes, node.items = [boxes[i] for i in left], [items[i] for i in left]
        sibling = _Node(node.is_leaf, [boxes[i] for i in right], [items[i] for i in right])
        if not node.is_leaf:
            for child in node.items:
                child.parent = node
            for child in sibling.items:
                child.parent = sibling
        left_box, right_box = _union(node.boxes), _union(sibling.boxes)

        parent = node.parent
        if parent is None:
            self._root = _Node(False, [left_box, right_box], [node, sibling])
            node.parent = sibling.parent = self._root
            return self._root
        parent.boxes[parent.items.index(node)] = left_box
        parent.boxes.append(right_box)
        parent.items.append(sibling)
        sibling.parent = parent
        return parent

    def _pick_split(self, boxes: list[BoxST]) -> tuple[list[int], list[int]]:
        """Guttman's quadratic split.

        Picks the pair of entries that would waste the most volume if put in
        the same group as seeds, then assigns remaining entries to the group
        whose bounding box needs the least enlargement, while respecting the
        minimum fill.
        """
        n = len(boxes)
        # Seed selection: maximise dead space.
        worst_pair = (0, 1)
        worst_waste = -math.inf
        for i, j in itertools.combinations(range(n), 2):
            waste = boxes[i].union(boxes[j]).volume - boxes[i].volume - boxes[j].volume
            if waste > worst_waste:
                worst_waste = waste
                worst_pair = (i, j)
        left = [worst_pair[0]]
        right = [worst_pair[1]]
        left_box = boxes[worst_pair[0]]
        right_box = boxes[worst_pair[1]]

        remaining = [i for i in range(n) if i not in worst_pair]
        # Assign entries one at a time, most constrained first.
        while remaining:
            # Force-assign if one group must take everything left to reach min fill.
            if len(left) + len(remaining) <= self.min_fill:
                left.extend(remaining)
                break
            if len(right) + len(remaining) <= self.min_fill:
                right.extend(remaining)
                break
            best_idx = None
            best_diff = -math.inf
            for idx in remaining:
                diff = abs(left_box.enlargement(boxes[idx]) - right_box.enlargement(boxes[idx]))
                if diff > best_diff:
                    best_diff = diff
                    best_idx = idx
            assert best_idx is not None
            d_left = left_box.enlargement(boxes[best_idx])
            d_right = right_box.enlargement(boxes[best_idx])
            if d_left < d_right or (d_left == d_right and len(left) <= len(right)):
                left.append(best_idx)
                left_box = left_box.union(boxes[best_idx])
            else:
                right.append(best_idx)
                right_box = right_box.union(boxes[best_idx])
            remaining.remove(best_idx)
        return left, right

    # -- queries -----------------------------------------------------------------

    def range_search(self, box: BoxST) -> list[V]:
        """Values whose keys intersect the query box."""
        return self.range_search_with_stats(box)[0]

    def range_search_with_stats(self, box: BoxST) -> tuple[list[V], int]:
        """Range search that also reports how many tree nodes were visited.

        The node count is the index-efficiency measure of benchmark E11 and
        of the e2e tracer's ``index.rtree_nodes_per_probe``.
        """
        results: list[V] = []
        visited = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            visited += 1
            hits = [item for key, item in zip(node.boxes, node.items) if key.intersects(box)]
            if node.is_leaf:
                results.extend(hits)
            else:
                stack.extend(hits)
        return results, visited

    def check_invariants(self) -> None:
        """Verify structural invariants; raises :class:`AssertionError` on violation.

        * every parent box covers its child's boxes, and the child points back,
        * all leaves are at the same depth,
        * no node exceeds ``max_entries``.
        """
        leaf_depths: set[int] = set()

        def visit(node: _Node, depth: int) -> None:
            assert len(node.boxes) <= self.max_entries, "node overflow"
            if node.is_leaf:
                leaf_depths.add(depth)
                return
            for box, child in zip(node.boxes, node.items):
                assert child.parent is node, "child does not point to its parent"
                assert box.union(_union(child.boxes)) == box, "parent box does not cover child boxes"
                visit(child, depth + 1)

        if self._root.boxes:
            visit(self._root, 0)
            assert len(leaf_depths) == 1, "leaves at different depths"


def str_bulk_load(
    items: Iterable[tuple[BoxST, V]],
    max_entries: int = 16,
) -> RTree3D[V]:
    """Sort-Tile-Recursive bulk loading.

    STR sorts the items by x-center, slices them into vertical slabs, sorts
    each slab by y-center, slices again, and finally sorts by t-center.  The
    result is inserted leaf-tile by leaf-tile so that spatially and temporally
    nearby entries end up in the same leaves, which is what makes the bulk-
    loaded tree faster to query than one built by repeated insertion
    (ablation E11).
    """
    items = list(items)
    tree: RTree3D[V] = RTree3D(max_entries=max_entries)
    if not items:
        return tree

    n = len(items)
    leaf_cap = max_entries
    n_leaves = math.ceil(n / leaf_cap)
    # Number of slabs along each of the first two sort dimensions.
    s = max(1, math.ceil(n_leaves ** (1.0 / 3.0)))

    items.sort(key=lambda kv: kv[0].center.x)
    slab_size_x = math.ceil(n / s)
    ordered: list[tuple[BoxST, V]] = []
    for i in range(0, n, slab_size_x):
        slab_x = items[i : i + slab_size_x]
        slab_x.sort(key=lambda kv: kv[0].center.y)
        slab_size_y = math.ceil(len(slab_x) / s)
        for j in range(0, len(slab_x), slab_size_y):
            slab_y = slab_x[j : j + slab_size_y]
            slab_y.sort(key=lambda kv: kv[0].center.t)
            ordered.extend(slab_y)

    for box, value in ordered:
        tree.insert(box, value)
    return tree
