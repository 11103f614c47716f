"""Unit, property and golden tests for the pg3D-Rtree."""

import hashlib
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import aircraft_scenario
from repro.hermes.types import BoxST
from repro.index.rtree3d import RTree3D, _penalty, _union, str_bulk_load

EVERYWHERE = BoxST(-math.inf, -math.inf, -math.inf, math.inf, math.inf, math.inf)


def random_boxes(n: int, seed: int = 0, extent: float = 100.0) -> list[BoxST]:
    rng = np.random.default_rng(seed)
    boxes = []
    for _ in range(n):
        x, y, t = rng.uniform(0, extent, 3)
        dx, dy, dt = rng.uniform(0.1, extent * 0.05, 3)
        boxes.append(BoxST(x, y, t, x + dx, y + dy, t + dt))
    return boxes


class _Junk:
    """A small heap object with a ``__dict__``, for allocator churn."""


def shape(tree: RTree3D) -> tuple:
    """The tree's structure: nested tuples of entry boxes and leaf values."""

    def walk(node) -> tuple:
        if node.is_leaf:
            return tuple(zip(node.boxes, node.items))
        return tuple((box, walk(child)) for box, child in zip(node.boxes, node.items))

    return walk(tree._root)


class TestConstruction:
    def test_capacity_below_four_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            RTree3D(max_entries=3)

    def test_quadratic_split_respects_min_fill(self):
        tree: RTree3D[int] = RTree3D(max_entries=16)
        assert tree.min_fill == 5
        left, right = tree._pick_split(random_boxes(17, seed=2))
        assert len(left) >= 5 and len(right) >= 5
        assert sorted(left + right) == list(range(17))

    def test_single_insert(self):
        tree: RTree3D[str] = RTree3D(max_entries=4)
        tree.insert(BoxST(5, 5, 5, 7, 7, 7), "a")
        assert len(tree) == 1
        assert tree.height == 1
        assert tree.range_search(BoxST(6, 6, 6, 6, 6, 6)) == ["a"]
        assert tree.range_search(BoxST(8, 8, 8, 9, 9, 9)) == []

    def test_height_grows_at_the_first_root_split(self):
        tree: RTree3D[int] = RTree3D(max_entries=4)
        boxes = random_boxes(5, seed=12)
        for i, box in enumerate(boxes[:4]):
            tree.insert(box, i)
        assert tree.height == 1
        tree.insert(boxes[4], 4)
        assert tree.height == 2
        tree.check_invariants()


class TestKeyHelpers:
    def test_union_covers_all(self):
        boxes = random_boxes(10, seed=1)
        union = _union(boxes)
        assert all(union.union(box) == union for box in boxes)
        assert union.xmin == min(box.xmin for box in boxes)
        assert union.ymax == max(box.ymax for box in boxes)

    def test_penalty_zero_for_contained_box(self):
        big = BoxST(0, 0, 0, 10, 10, 10)
        small = BoxST(1, 1, 1, 2, 2, 2)
        assert _penalty(big, small) == pytest.approx(0.0, abs=1e-5)
        assert _penalty(small, big) > 0

    def test_penalty_prefers_the_smaller_containing_box(self):
        """Zero enlargement either way: the volume term picks the smaller box."""
        small = BoxST(1, 1, 1, 2, 2, 2)
        medium = BoxST(0, 0, 0, 5, 5, 5)
        big = BoxST(0, 0, 0, 10, 10, 10)
        assert _penalty(medium, small) < _penalty(big, small)


class TestRTreeInsertSearch:
    def test_all_inserted_found_by_their_own_box(self):
        tree: RTree3D[int] = RTree3D(max_entries=8)
        boxes = random_boxes(300, seed=3)
        for i, box in enumerate(boxes):
            tree.insert(box, i)
        assert len(tree) == 300
        for i, box in enumerate(boxes):
            assert i in tree.range_search(box)
        tree.check_invariants()

    def test_range_search_matches_linear_scan(self):
        tree: RTree3D[int] = RTree3D(max_entries=8)
        boxes = random_boxes(400, seed=4)
        for i, box in enumerate(boxes):
            tree.insert(box, i)
        query = BoxST(20, 20, 20, 60, 60, 60)
        expected = {i for i, box in enumerate(boxes) if box.intersects(query)}
        assert set(tree.range_search(query)) == expected

    def test_empty_tree_queries(self):
        tree: RTree3D[int] = RTree3D()
        assert tree.range_search(EVERYWHERE) == []
        assert tree.range_search_with_stats(EVERYWHERE) == ([], 1)
        assert tree.bbox is None
        assert tree.height == 1

    def test_bbox_covers_everything(self):
        boxes = random_boxes(100, seed=10)
        tree: RTree3D[int] = RTree3D(max_entries=6)
        for i, box in enumerate(boxes):
            tree.insert(box, i)
        bbox = tree.bbox
        assert all(bbox.union(box) == bbox for box in boxes)
        assert bbox.xmin == min(box.xmin for box in boxes)
        assert bbox.tmax == max(box.tmax for box in boxes)

    def test_range_search_with_stats_prunes(self):
        tree: RTree3D[int] = RTree3D(max_entries=8)
        for i, box in enumerate(random_boxes(500, seed=5)):
            tree.insert(box, i)
        _, nodes_narrow = tree.range_search_with_stats(BoxST(0, 0, 0, 5, 5, 5))
        _, nodes_all = tree.range_search_with_stats(EVERYWHERE)
        assert nodes_narrow < nodes_all

    def test_range_search_returns_exact_matches(self):
        tree: RTree3D[int] = RTree3D(max_entries=4)
        for i in range(50):
            tree.insert(BoxST(2 * i, 0, 2 * i, 2 * i + 1, 1, 2 * i + 1), i)
        hits = tree.range_search(BoxST(10, 0, 10, 21, 1, 21))
        assert sorted(hits) == [5, 6, 7, 8, 9, 10]

    def test_query_bounds_are_closed(self):
        """A box that only touches the query on a face or corner is a hit."""
        tree: RTree3D[str] = RTree3D(max_entries=4)
        tree.insert(BoxST(0, 0, 0, 1, 1, 1), "face")
        tree.insert(BoxST(2, 1, 1, 3, 2, 2), "corner")
        tree.insert(BoxST(5, 5, 5, 6, 6, 6), "apart")
        assert sorted(tree.range_search(BoxST(1, 0, 0, 2, 1, 1))) == ["corner", "face"]
        assert tree.range_search(BoxST(3.5, 3.5, 3.5, 4.5, 4.5, 4.5)) == []

    def test_point_queries_find_every_entry(self):
        tree: RTree3D[int] = RTree3D(max_entries=4)
        for i in range(100):
            tree.insert(BoxST(i, 0, i, i + 1, 1, i + 1), i)
        assert len(tree) == 100
        assert tree.height > 2
        for i in range(100):
            assert i in tree.range_search(BoxST(i + 0.5, 0.5, i + 0.5, i + 0.5, 0.5, i + 0.5))

    def test_invariants_after_many_duplicate_keys(self):
        tree: RTree3D[int] = RTree3D(max_entries=4)
        for i in range(200):
            tree.insert(BoxST(i % 17, 0, i % 17, i % 17 + 1, 1, i % 17 + 1), i)
        tree.check_invariants()
        assert sorted(tree.range_search(EVERYWHERE)) == list(range(200))
        hits = tree.range_search(BoxST(3.5, 0.5, 3.5, 3.5, 0.5, 3.5))
        assert sorted(hits) == [i for i in range(200) if i % 17 == 3]


class TestCheckInvariants:
    @staticmethod
    def grown_tree() -> RTree3D[int]:
        tree: RTree3D[int] = RTree3D(max_entries=4)
        for i, box in enumerate(random_boxes(40, seed=13)):
            tree.insert(box, i)
        tree.check_invariants()
        return tree

    def test_uncovered_child_detected(self):
        tree = self.grown_tree()
        root = tree._root
        root.boxes[0] = BoxST(-2, -2, -2, -1, -1, -1)
        with pytest.raises(AssertionError, match="does not cover"):
            tree.check_invariants()

    def test_overflow_detected(self):
        tree = self.grown_tree()
        leaf = tree._root
        while not leaf.is_leaf:
            leaf = leaf.items[0]
        while len(leaf.boxes) <= tree.max_entries:
            leaf.boxes.append(leaf.boxes[0])
            leaf.items.append(-1)
        with pytest.raises(AssertionError, match="overflow"):
            tree.check_invariants()


class TestChooseLeafTies:
    """An exact penalty tie goes to the first minimal entry, so the shape and
    the result order are a function of the insertion sequence alone."""

    def test_duplicate_goes_to_the_first_of_equal_children(self):
        box = BoxST(0, 0, 0, 1, 1, 1)
        tree: RTree3D[int] = RTree3D(max_entries=4)
        for value in range(5):
            tree.insert(box, value)
        # The root split: the quadratic split seeds on (0, 1) and alternates.
        assert shape(tree) == ((box, ((box, 0), (box, 2), (box, 4))), (box, ((box, 1), (box, 3))))
        # Both children now have the same box, so a duplicate ties on penalty.
        tree.insert(box, 5)
        assert [value for _box, value in shape(tree)[0][1]] == [0, 2, 4, 5]
        assert tree.range_search(box) == [1, 3, 0, 2, 4, 5]

    @staticmethod
    def build(sequence, churn_seed: int | None) -> RTree3D:
        """Insert ``sequence``; with a seed, scramble the allocator in between.

        Churn allocates small objects of assorted sizes and frees a random
        half of them before every insert, so new nodes land at addresses
        unrelated to their creation order.
        """
        rng = random.Random(churn_seed)
        kept = []
        tree: RTree3D[int] = RTree3D(max_entries=4)
        for box, value in sequence:
            if churn_seed is not None:
                batch = [_Junk() if rng.random() < 0.5 else [0] * rng.randint(0, 8) for _ in range(64)]
                rng.shuffle(batch)
                kept.extend(batch[:32])
            tree.insert(box, value)
        return tree

    def test_shape_is_a_function_of_the_insertion_sequence(self):
        distinct = random_boxes(24, seed=11)
        dup = BoxST(40, 40, 40, 45, 45, 45)
        rng = random.Random(7)
        # Duplicates of already-inserted boxes and many copies of one box,
        # inserted after the root has split.
        duplicates = [(rng.choice(distinct), 100 + i) for i in range(30)]
        duplicates += [(dup, 200 + i) for i in range(30)]
        rng.shuffle(duplicates)
        sequence = [(box, i) for i, box in enumerate(distinct)] + duplicates
        reference = self.build(sequence, None)
        assert reference.height >= 3
        reference.check_invariants()
        queries = [EVERYWHERE, dup, *distinct[:6]]
        expected = [reference.range_search_with_stats(q) for q in queries]
        for churn_seed in range(6):
            tree = self.build(sequence, churn_seed)
            assert shape(tree) == shape(reference)
            assert [tree.range_search_with_stats(q) for q in queries] == expected


class TestBulkLoad:
    def test_str_bulk_load_contains_everything(self):
        boxes = random_boxes(250, seed=9)
        tree = str_bulk_load([(box, i) for i, box in enumerate(boxes)], max_entries=8)
        assert len(tree) == 250
        query = BoxST(10, 10, 10, 50, 50, 50)
        expected = {i for i, box in enumerate(boxes) if box.intersects(query)}
        assert set(tree.range_search(query)) == expected
        tree.check_invariants()

    def test_str_bulk_load_empty(self):
        tree = str_bulk_load([])
        assert len(tree) == 0


def aircraft_segment_boxes() -> tuple[list[BoxST], list[BoxST]]:
    """Benchmark E11's workload shape, smaller: every segment box of a seeded
    aircraft MOD, and range queries centred uniformly in its bounding box."""
    mod, _truth = aircraft_scenario(n_trajectories=40, n_samples=30, seed=5)
    boxes = [traj.segment(i).bbox for traj in mod for i in range(traj.num_segments)]
    bbox = mod.bbox
    rng = np.random.default_rng(5)
    queries = []
    for _ in range(25):
        cx = rng.uniform(bbox.xmin, bbox.xmax)
        cy = rng.uniform(bbox.ymin, bbox.ymax)
        ct = rng.uniform(bbox.tmin, bbox.tmax)
        hx, hy, ht = bbox.dx * 0.1, bbox.dy * 0.1, bbox.dt * 0.15
        queries.append(BoxST(cx - hx, cy - hy, ct - ht, cx + hx, cy + hy, ct + ht))
    return boxes, queries


#: Per build: tree height, nodes visited per query, and the first 16 hex
#: digits of the sha256 of the JSON list of every query's result list.
#: Recorded from the GiST-based R-tree this class replaced.
GOLDEN = {
    ("insert", 6): (
        5, [9, 18, 6, 10, 2, 11, 5, 28, 6, 4, 5, 33, 7, 13, 4, 21, 2, 2, 3, 26, 22, 2, 10, 3, 55], "f9382d72abf48560"
    ),
    ("insert", 8): (
        4, [8, 13, 5, 6, 2, 7, 4, 18, 5, 3, 4, 25, 3, 9, 7, 13, 1, 2, 3, 20, 18, 2, 15, 1, 53], "18ea2fb860cab799"
    ),
    ("insert", 16): (
        3, [3, 6, 5, 4, 1, 6, 3, 13, 3, 2, 3, 12, 6, 7, 3, 11, 1, 2, 2, 13, 15, 2, 7, 1, 26], "24083ac380e0bb06"
    ),
    ("str", 6): (
        5, [8, 17, 7, 9, 2, 7, 5, 31, 6, 4, 5, 35, 4, 15, 5, 19, 1, 2, 4, 27, 32, 2, 11, 5, 61], "c44532d024bd3e70"
    ),
    ("str", 8): (
        4, [6, 14, 7, 7, 1, 4, 4, 20, 4, 3, 4, 27, 3, 13, 5, 15, 1, 1, 2, 20, 28, 2, 10, 4, 44], "76723b1178d32965"
    ),
    ("str", 16): (
        3, [4, 8, 3, 4, 2, 4, 3, 11, 3, 2, 3, 15, 2, 9, 4, 10, 1, 1, 2, 12, 14, 2, 8, 2, 24], "dee6268a3e07226e"
    ),
}


@pytest.fixture(scope="module")
def segment_boxes():
    return aircraft_segment_boxes()


@pytest.mark.parametrize("build, max_entries", sorted(GOLDEN))
def test_golden_tree_shape_and_probes(segment_boxes, build, max_entries):
    """Same height, same nodes visited per probe and same result order."""
    boxes, queries = segment_boxes
    assert len(boxes) == 1160
    if build == "insert":
        tree: RTree3D[int] = RTree3D(max_entries=max_entries)
        for i, box in enumerate(boxes):
            tree.insert(box, i)
    else:
        tree = str_bulk_load([(box, i) for i, box in enumerate(boxes)], max_entries=max_entries)
    tree.check_invariants()
    nodes, results = [], []
    for query in queries:
        values, visited = tree.range_search_with_stats(query)
        assert values == tree.range_search(query)
        nodes.append(visited)
        results.append(values)
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()[:16]
    assert (tree.height, nodes, digest) == GOLDEN[build, max_entries]


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-100, max_value=100),
                st.floats(min_value=-100, max_value=100),
                st.floats(min_value=0, max_value=100),
                st.floats(min_value=0.01, max_value=10),
                st.floats(min_value=0.01, max_value=10),
                st.floats(min_value=0.01, max_value=10),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_insert_then_query_is_exhaustive(self, raw):
        """Whatever is inserted must be found by a range query on its own key."""
        tree: RTree3D[int] = RTree3D(max_entries=6)
        boxes = [
            BoxST(x, y, t, x + dx, y + dy, t + dt) for (x, y, t, dx, dy, dt) in raw
        ]
        for i, box in enumerate(boxes):
            tree.insert(box, i)
        tree.check_invariants()
        for i, box in enumerate(boxes):
            assert i in tree.range_search(box)
        # A query over all of space returns everything exactly once.
        assert sorted(tree.range_search(EVERYWHERE)) == list(range(len(boxes)))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_workload_matches_linear_scan(self, seed):
        rng = np.random.default_rng(seed)
        boxes = random_boxes(int(rng.integers(5, 120)), seed=seed % 1000)
        tree: RTree3D[int] = RTree3D(max_entries=8)
        for i, box in enumerate(boxes):
            tree.insert(box, i)
        qx, qy, qt = rng.uniform(0, 80, 3)
        query = BoxST(qx, qy, qt, qx + 25, qy + 25, qt + 25)
        expected = {i for i, box in enumerate(boxes) if box.intersects(query)}
        assert set(tree.range_search(query)) == expected
