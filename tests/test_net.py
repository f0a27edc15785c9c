"""Message / adapter-interface unit tests."""

from __future__ import annotations

import pytest

from repro.config import NocConfig, OnocConfig
from repro.engine import Simulator
from repro.net import Message, NetworkAdapter
from repro.noc import ElectricalNetwork
from repro.onoc import build_optical_network


def test_message_validation():
    with pytest.raises(ValueError, match="negative endpoint"):
        Message(-1, 2, 8)
    with pytest.raises(ValueError, match="size_bytes"):
        Message(0, 1, 0)


def test_message_ids_monotone():
    a, b = Message(0, 1, 8), Message(0, 1, 8)
    assert b.id > a.id


def test_explicit_message_id_preserved():
    m = Message(0, 1, 8, msg_id=424242)
    assert m.id == 424242


def test_latency_requires_delivery():
    m = Message(0, 1, 8)
    with pytest.raises(ValueError, match="not delivered"):
        _ = m.latency
    m.inject_time = 5
    m.deliver_time = 25
    assert m.latency == 20


def test_adapters_satisfy_protocol():
    sim = Simulator(seed=1)
    elec = ElectricalNetwork(sim, NocConfig())
    assert isinstance(elec, NetworkAdapter)
    for topology in ("crossbar", "circuit_mesh", "swmr_crossbar", "awgr"):
        sim2 = Simulator(seed=1)
        net = build_optical_network(sim2, OnocConfig(topology=topology))
        assert isinstance(net, NetworkAdapter), topology
        assert net.num_nodes == 16


def test_hybrid_satisfies_protocol():
    from repro.onoc import HybridConfig, HybridNetwork

    sim = Simulator(seed=1)
    net = HybridNetwork(sim, HybridConfig(noc=NocConfig(), onoc=OnocConfig()))
    assert isinstance(net, NetworkAdapter)


def test_on_delivery_callback_receives_message():
    sim = Simulator(seed=1)
    net = ElectricalNetwork(sim, NocConfig())
    seen = []
    msg = Message(0, 5, 16, payload={"tag": 9},
                  on_delivery=lambda m: seen.append(m))
    sim.schedule(0, net.send, (msg,))
    sim.run()
    assert seen == [msg]
    assert seen[0].payload == {"tag": 9}
