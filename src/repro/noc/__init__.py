"""Cycle-level electrical wormhole NoC — the paper's baseline simulator.

An input-queued virtual-channel wormhole network in the Garnet/Popnet
tradition: per-hop routers with a ``router_latency``-stage pipeline,
credit-based VC flow control and XY dimension-order routing on a 2-D
mesh.
"""

from repro import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "Flit": "repro.noc.flit",
    "Packet": "repro.noc.flit",
    "ElectricalNetwork": "repro.noc.network",
    "route_port": "repro.noc.routing",
    "Coord": "repro.noc.topology",
    "Topology": "repro.noc.topology",
})

__all__ = [
    "Coord",
    "ElectricalNetwork",
    "Flit",
    "Packet",
    "Topology",
    "route_port",
]
