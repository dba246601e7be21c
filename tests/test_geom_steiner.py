"""Rectilinear Steiner tree construction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geom.point import Point
from repro.geom.segment import Segment, l_route
from repro.geom.steiner import _mst_edges, build_steiner_tree


def _connected_terminals(tree) -> bool:
    """Every terminal must lie on some segment (or equal another terminal)."""
    for t in tree.terminals:
        if t == tree.root and len(tree.terminals) == 1:
            return True
        on_wire = any(_on_segment(t, seg) for seg in tree.segments)
        if not on_wire:
            return False
    return True


def _on_segment(p: Point, seg) -> bool:
    if seg.horizontal:
        return p.y == seg.track_coord and seg.lo <= p.x <= seg.hi
    return p.x == seg.track_coord and seg.lo <= p.y <= seg.hi


def test_single_terminal_empty():
    tree = build_steiner_tree(Point(0, 0), [])
    assert tree.segments == []
    assert tree.wirelength == 0.0


def test_two_terminals_is_l_route():
    tree = build_steiner_tree(Point(0, 0), [Point(3, 4)])
    assert tree.wirelength == pytest.approx(7.0)
    assert _connected_terminals(tree)


def test_collinear_terminals_share_trunk():
    tree = build_steiner_tree(Point(0, 0), [Point(5, 0), Point(10, 0)])
    assert tree.wirelength == pytest.approx(10.0)
    assert len(tree.segments) == 1


def test_steiner_sharing_beats_star():
    # Three sinks to the right of the root at the same x: a shared trunk
    # should cost less than three independent L-routes.
    root = Point(0, 0)
    sinks = [Point(10, -1), Point(10, 0), Point(10, 1)]
    tree = build_steiner_tree(root, sinks)
    star = sum(root.manhattan_to(s) for s in sinks)
    assert tree.wirelength < star


def test_duplicate_terminals_deduplicated():
    tree = build_steiner_tree(Point(0, 0), [Point(3, 0), Point(3, 0)])
    assert len(tree.terminals) == 2
    assert tree.wirelength == pytest.approx(3.0)


def test_deterministic():
    sinks = [Point(7, 2), Point(3, 9), Point(5, 5), Point(1, 8)]
    a = build_steiner_tree(Point(0, 0), list(sinks))
    b = build_steiner_tree(Point(0, 0), list(sinks))
    assert a.segments == b.segments


points = st.tuples(st.integers(0, 50), st.integers(0, 50)).map(
    lambda t: Point(float(t[0]), float(t[1])))


@settings(max_examples=40, deadline=None)
@given(st.lists(points, min_size=1, max_size=8), points)
def test_tree_connects_all_terminals(sinks, root):
    tree = build_steiner_tree(root, sinks)
    assert _connected_terminals(tree)


@settings(max_examples=40, deadline=None)
@given(st.lists(points, min_size=1, max_size=8), points)
def test_wirelength_bounded(sinks, root):
    """Never worse than the star; never better than half the MST bound."""
    tree = build_steiner_tree(root, sinks)
    star = sum(root.manhattan_to(s) for s in set(sinks) if s != root)
    assert tree.wirelength <= star + 1e-9
    # Lower bound: at least the distance to the farthest terminal.
    far = max((root.manhattan_to(s) for s in sinks), default=0.0)
    assert tree.wirelength >= far - 1e-9


# -- the readable Segment-based construction, kept as the oracle ---------------


def _oracle_overlap_score(candidate, placed) -> float:
    score = 0.0
    for seg in candidate:
        for other in placed:
            if (seg.horizontal == other.horizontal
                    and seg.track_coord == other.track_coord):
                score += seg.overlap_with(other)
    return score


def _oracle_merge_collinear(segments):
    by_track = {}
    for seg in segments:
        if seg.is_point:
            continue
        by_track.setdefault((seg.horizontal, seg.track_coord), []).append(seg)
    merged = []
    for (horizontal, coord), group in sorted(by_track.items()):
        intervals = sorted((s.lo, s.hi) for s in group)
        cur_lo, cur_hi = intervals[0]
        spans = []
        for lo, hi in intervals[1:]:
            if lo <= cur_hi:
                cur_hi = max(cur_hi, hi)
            else:
                spans.append((cur_lo, cur_hi))
                cur_lo, cur_hi = lo, hi
        spans.append((cur_lo, cur_hi))
        for lo, hi in spans:
            if horizontal:
                merged.append(Segment(Point(lo, coord), Point(hi, coord)))
            else:
                merged.append(Segment(Point(coord, lo), Point(coord, hi)))
    return merged


def _oracle_segments(root, sinks):
    """Prim MST, overlap-greedy L bends on Segments, collinear merge."""
    unique = []
    for p in [root] + [p for p in sinks if p != root]:
        if p not in unique:
            unique.append(p)
    if len(unique) < 2:
        return []
    placed = []
    for parent_idx, child_idx in _mst_edges(unique):
        a, b = unique[parent_idx], unique[child_idx]
        route_h = l_route(a, b, horizontal_first=True)
        route_v = l_route(a, b, horizontal_first=False)
        if (_oracle_overlap_score(route_v, placed)
                > _oracle_overlap_score(route_h, placed)):
            placed.extend(route_v)
        else:
            placed.extend(route_h)
    return _oracle_merge_collinear(placed)


def test_trees_equal_the_segment_oracle_on_random_nets():
    """Scoring on plain coordinates builds exactly the Segment trees.

    Coarse grids force shared tracks and equal-score ties; fractional
    coordinates exercise the float sums.
    """
    rng = np.random.default_rng(7)
    for trial in range(1500):
        grid = (4, 12, 60)[trial % 3]
        size = int(rng.integers(1, 12))
        coords = rng.integers(0, grid, size=(size + 1, 2)).astype(float)
        if trial % 5 == 0:
            coords = coords * 0.37 + rng.uniform(0.0, 0.5, coords.shape)
        pts = [Point(float(x), float(y)) for x, y in coords]
        tree = build_steiner_tree(pts[0], pts[1:])
        assert tree.segments == _oracle_segments(pts[0], pts[1:]), trial
