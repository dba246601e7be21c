"""Router integration over a real design."""

import pickle

import pytest

from repro.netlist.net import NetKind
from repro.route.router import Router, RoutingResult
from repro.tech import rule_by_name


def test_every_tree_edge_routed(small_physical):
    tree, routing = small_physical.tree, small_physical.routing
    for _parent, child in tree.edges():
        assert child.node_id in routing.edge_wires


def test_edge_wires_cover_manhattan_distance(small_physical):
    tree, routing = small_physical.tree, small_physical.routing
    for parent, child in tree.edges():
        wires = routing.edge_wires[child.node_id]
        span = sum(w.segment.length for w in wires)
        manhattan = parent.location.manhattan_to(child.location)
        # Track snapping moves each leg by at most one pitch.
        assert span == pytest.approx(manhattan, abs=2.0)


def test_snake_assigned_to_edge_wires(small_physical):
    tree, routing = small_physical.tree, small_physical.routing
    for _parent, child in tree.edges():
        extra = sum(w.extra_length for w in routing.edge_wires[child.node_id])
        assert extra == pytest.approx(child.snake, abs=1e-9)


def test_wires_on_preferred_layers(small_physical, tech):
    for wire in small_physical.routing.wires:
        expected = tech.layer_for(wire.segment.horizontal,
                                  clock=wire.is_clock)
        assert wire.layer.name == expected.name
        assert wire.layer.direction == ("H" if wire.segment.horizontal else "V")


def test_clock_wires_have_full_activity(small_physical):
    for wire in small_physical.routing.clock_wires:
        assert wire.activity == 1.0
        assert wire.kind == NetKind.CLOCK


def test_signal_wires_present(small_physical, small_design):
    routing = small_physical.routing
    assert len(routing.signal_wires) >= len(small_design.signal_nets)


def test_wire_ids_unique(small_physical):
    ids = [w.wire_id for w in small_physical.routing.wires]
    assert len(ids) == len(set(ids))


def test_no_overflows_on_benchmarks(small_physical):
    assert small_physical.routing.tracks.overflows == 0


def test_assign_rule_round_trip(make_small_physical):
    phys = make_small_physical()
    routing = phys.routing
    wire = routing.clock_wires[0]
    routing.assign_rule(wire.wire_id, rule_by_name("W2S2"))
    assert routing.tracks.wire(wire.wire_id).rule.name.value == "W2S2"


def test_assign_rule_rejects_signal_wires(make_small_physical):
    phys = make_small_physical()
    routing = phys.routing
    sig = routing.signal_wires[0]
    with pytest.raises(ValueError):
        routing.assign_rule(sig.wire_id, rule_by_name("W2S2"))


def test_rule_histogram(make_small_physical):
    phys = make_small_physical()
    routing = phys.routing
    hist = routing.rule_histogram()
    assert sum(hist.values()) == len(routing.clock_wires)
    assert hist.get("W1S1", 0) == len(routing.clock_wires)
    routing.assign_rule(routing.clock_wires[0].wire_id, rule_by_name("W2S2"))
    hist = routing.rule_histogram()
    assert hist.get("W2S2") == 1


def test_ndr_track_cost(make_small_physical):
    phys = make_small_physical()
    routing = phys.routing
    assert routing.ndr_track_cost() == 0.0
    wire = max(routing.clock_wires, key=lambda w: w.segment.length)
    routing.assign_rule(wire.wire_id, rule_by_name("W2S2"))
    assert routing.ndr_track_cost() == pytest.approx(2 * wire.segment.length)


def test_clock_wirelength_positive(small_physical):
    assert small_physical.routing.clock_wirelength() > 0.0


def test_routing_is_deterministic(make_small_physical):
    a = make_small_physical()
    b = make_small_physical()
    sa = [(w.segment, w.track, w.layer.name) for w in a.routing.wires]
    sb = [(w.segment, w.track, w.layer.name) for w in b.routing.wires]
    assert sa == sb


def test_clock_wires_cache_follows_appends(small_physical):
    """The cached clock-wire list matches a fresh scan as wires grow."""
    source = small_physical.routing
    routing = RoutingResult(tracks=source.tracks)
    for wire in source.wires:
        before = routing.clock_wires
        assert routing.clock_wires is before  # unchanged: no rescan
        routing.wires.append(wire)
        assert routing.clock_wires == [w for w in routing.wires
                                       if w.is_clock]
    assert routing.clock_wires == source.clock_wires
    # The scan stays out of pickles; a restored copy scans afresh.
    restored = pickle.loads(pickle.dumps(routing))
    assert "_clock_scan" not in restored.__dict__
    assert [w.wire_id for w in restored.clock_wires] == \
        [w.wire_id for w in routing.clock_wires]
