"""Property-based tests on the track manager and router invariants."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.geom.grid import RoutingGrid
from repro.geom.point import Point
from repro.geom.rect import Rect
from repro.geom.segment import Segment
from repro.netlist.net import NetKind
from repro.route.tracks import TrackManager
from repro.route.wires import NeighborCoupling, RoutedWire
from repro.tech import default_technology, rule_by_name

TECH = default_technology()
M5 = TECH.stack.by_name("M5")
GRID = RoutingGrid(die=Rect(0, 0, 200, 200))

interval = st.tuples(st.integers(0, 180), st.integers(5, 20)).map(
    lambda t: (float(t[0]), float(t[0] + t[1])))


def _wire(wid, track, lo, hi, net="sig"):
    y = GRID.track_coord(M5, track)
    return RoutedWire(wire_id=wid, net_name=net, kind=NetKind.SIGNAL,
                      segment=Segment(Point(lo, y), Point(hi, y)),
                      layer=M5, track=track, rule=rule_by_name("W1S1"),
                      activity=0.2)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), interval),
                min_size=1, max_size=20))
def test_registered_intervals_never_report_free(entries):
    tm = TrackManager(GRID)
    placed = []
    for i, (track, (lo, hi)) in enumerate(entries):
        if tm.is_free(M5, track, lo, hi):
            tm.register(_wire(i, track, lo, hi))
            placed.append((track, lo, hi))
    # Every placed interval (and any sub-interval) is now occupied.
    for track, lo, hi in placed:
        assert not tm.is_free(M5, track, lo, hi)
        mid = (lo + hi) / 2.0
        assert not tm.is_free(M5, track, mid, mid + 0.1)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), interval),
                min_size=1, max_size=15))
def test_nearest_free_track_is_actually_free(entries):
    tm = TrackManager(GRID)
    for i, (track, (lo, hi)) in enumerate(entries):
        got = tm.nearest_free_track(M5, track, lo, hi)
        if tm.is_free(M5, got, lo, hi):
            tm.register(_wire(i, got, lo, hi))
    # No overlap among registered wires on the same track.
    by_track = {}
    for wid, wire in tm._wires.items():
        by_track.setdefault(wire.track, []).append(
            (wire.segment.lo, wire.segment.hi))
    for spans in by_track.values():
        spans.sort()
        for (l1, h1), (l2, h2) in zip(spans, spans[1:]):
            assert h1 <= l2 + 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 29), interval, interval)
def test_neighbor_overlap_symmetry(track, span_a, span_b):
    """If A sees B as a neighbor, the overlap matches B seeing A."""
    tm = TrackManager(GRID)
    a = _wire(0, track, *span_a, net="clk")
    b = _wire(1, track + 1, *span_b)
    tm.register(a)
    tm.register(b)
    a_sees = {nb.neighbor_id: nb for nb in tm.neighbors_of(a)}
    b_sees = {nb.neighbor_id: nb for nb in tm.neighbors_of(b)}
    if 1 in a_sees:
        assert 0 in b_sees
        assert a_sees[1].overlap == pytest.approx(b_sees[0].overlap)
        assert a_sees[1].spacing == pytest.approx(b_sees[0].spacing)
    else:
        assert 0 not in b_sees


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 30), interval)
def test_utilization_bounded(track, span):
    tm = TrackManager(GRID)
    tm.register(_wire(0, track, *span))
    util = tm.layer_utilization(M5)
    assert 0.0 <= util <= 1.0


# -- bisected track queries against a brute-force scan ------------------------

_RULES = [rule_by_name(name) for name in ("W1S1", "W2S1", "W2S2")]

# (track, lo, length, rule index, clock?) -- length 0 is a zero-length
# wire; lengths 120/180 keep a track's running max hi above the short
# intervals that follow them; tracks 0..6 keep most wires within
# coupling reach of each other.
_placement = st.tuples(st.integers(0, 6), st.integers(0, 180),
                       st.sampled_from([0, 0, 3, 8, 15, 30, 120, 180]),
                       st.integers(0, len(_RULES) - 1), st.booleans())


def _any_wire(wid, track, lo, length, rule_idx, clock):
    y = GRID.track_coord(M5, track)
    return RoutedWire(wire_id=wid, net_name="clk" if clock else f"s{wid}",
                      kind=NetKind.CLOCK if clock else NetKind.SIGNAL,
                      segment=Segment(Point(float(lo), y),
                                      Point(float(lo + length), y)),
                      layer=M5, track=track, rule=_RULES[rule_idx],
                      activity=0.1 + 0.01 * wid)


def _brute_is_free(placed, blocks, track, lo, hi):
    if any(t == track and b_lo < hi and b_hi > lo
           for t, b_lo, b_hi in blocks):
        return False
    return not any(w.track == track and w.segment.lo < hi
                   and w.segment.hi > lo for w in placed)


def _brute_neighbors(placed, wire, max_tracks=8):
    """``neighbors_of`` as a full scan of every registered wire.

    Same-track occupants are visited in lo order; among equal lo the
    later registration comes first (bisect_left insertion).
    """
    result = []
    layer = wire.layer
    for direction in (-1, +1):
        covered = 0.0
        for step in range(1, max_tracks + 1):
            track = wire.track + direction * step
            if track < 0 or track >= GRID.num_tracks(layer):
                break
            distance = GRID.track_distance(layer, wire.track, track)
            if distance - wire.width / 2.0 > layer.coupling_reach:
                break
            on_track = sorted(
                ((-reg, other) for reg, other in enumerate(placed)
                 if other.track == track),
                key=lambda item: (item[1].segment.lo, item[0]))
            for _, other in on_track:
                overlap = (min(other.segment.hi, wire.segment.hi)
                           - max(other.segment.lo, wire.segment.lo))
                if overlap <= 0.0:
                    continue
                spacing = max(GRID.edge_spacing(layer, wire.track,
                                                wire.width, track,
                                                other.width),
                              layer.min_spacing, wire.guaranteed_spacing(),
                              other.guaranteed_spacing())
                result.append(NeighborCoupling(
                    neighbor_id=other.wire_id, spacing=spacing,
                    overlap=overlap, neighbor_kind=other.kind,
                    neighbor_activity=other.activity,
                    same_net=(other.net_name == wire.net_name),
                    neighbor_window=other.window))
                covered += overlap
            if covered >= wire.length:
                break
    return result


# A long interval first on track 3, then short ones it spans: the
# running max stays at its hi while later intervals end early.
_LONG_THEN_SHORT = [(3, 0, 180, 0, True), (3, 10, 3, 1, False),
                    (3, 40, 8, 0, False), (3, 150, 3, 2, False),
                    (2, 20, 30, 0, True), (4, 100, 15, 1, True)]
# A long interval registered on track 3 after a query indexed it, at a
# lo ahead of the short interval already there: a stale running max
# would hide it from the wire on track 2.
_LONG_AFTER_QUERY = [(3, 0, 8, 0, False), (2, 20, 15, 0, True),
                     (3, 0, 120, 1, False)]
# Overflow overlaps: the router's fallback stacks wires on one track.
_OVERFLOW = [(2, 50, 30, 0, True), (2, 55, 30, 1, False),
             (2, 50, 8, 2, False), (2, 60, 0, 0, False),
             (3, 52, 15, 0, True), (1, 45, 120, 1, False)]


@settings(max_examples=80, deadline=None)
@given(st.lists(_placement, max_size=30),
       st.lists(st.tuples(st.integers(0, 6), interval), max_size=4),
       st.lists(st.tuples(st.integers(0, 7), interval), min_size=1,
                max_size=10),
       st.integers(0, 4))
@example(_LONG_THEN_SHORT, [], [(3, (5.0, 20.0))], 0)
@example(_OVERFLOW, [(2, (0.0, 10.0))], [(2, (50.0, 60.0))], 0)
@example(_LONG_THEN_SHORT + _OVERFLOW, [], [(3, (0.0, 5.0))], 1)
@example(_LONG_AFTER_QUERY, [], [(3, (0.0, 5.0))], 1)
def test_track_queries_match_brute_force(placements, blocks, probes,
                                         query_every):
    """Bisected ``is_free``/``neighbors_of`` equal a full scan, in order.

    Wires register unconditionally, so same-track intervals overlap the
    way the router's overflow fallback leaves them; zero-length wires,
    long intervals, keep-outs and empty tracks (7, and any the draw
    skipped) ride along.  A nonzero ``query_every`` queries every placed
    wire after each that many registrations, so a neighbor index that
    ``register`` failed to drop shows up as a stale answer.
    """
    tm = TrackManager(GRID)
    placed = []
    for wid, spec in enumerate(placements):
        wire = _any_wire(wid, *spec)
        tm.register(wire)
        placed.append(wire)
        if query_every and (wid + 1) % query_every == 0:
            for other in placed:
                assert tm.neighbors_of(other) == \
                    _brute_neighbors(placed, other)
    flat_blocks = [(track, lo, hi) for track, (lo, hi) in blocks]
    for track, lo, hi in flat_blocks:
        tm.block(M5, track, lo, hi)
    for track, (lo, hi) in probes:
        assert tm.is_free(M5, track, lo, hi) == \
            _brute_is_free(placed, flat_blocks, track, lo, hi)
        assert tm.is_free(M5, track, lo, lo) == \
            _brute_is_free(placed, flat_blocks, track, lo, lo)
    for wire in placed:
        assert tm.neighbors_of(wire) == _brute_neighbors(placed, wire)


def test_neighbor_index_stays_out_of_the_pickle():
    """The running-max index is a query cache, never pickled.

    Pickles keep the layout they had before the index existed, so stored
    artifacts need no schema bump, and a loaded manager rebuilds the
    index on its first query.
    """
    import pickle

    tm = TrackManager(GRID)
    wires = [_any_wire(wid, *spec) for wid, spec in enumerate(
        _LONG_THEN_SHORT + _OVERFLOW)]
    for wire in wires:
        tm.register(wire)
    before = [tm.neighbors_of(w) for w in wires]
    assert tm._hi_max  # the queries built the index

    state = tm.__getstate__()
    assert "_hi_max" not in state
    loaded = pickle.loads(pickle.dumps(tm))
    assert loaded._hi_max == {}
    assert [loaded.neighbors_of(w) for w in wires] == before
