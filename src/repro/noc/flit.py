"""Packets and flits.

One :class:`repro.net.Message` maps to exactly one :class:`Packet`; the NI
serialises it into ``num_flits`` flits (head ... tail).  A single-flit packet
is both head and tail.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.net import Message

_packet_ids = itertools.count()


class Packet:
    """A wormhole packet: the unit of routing and VC allocation."""

    __slots__ = (
        "id",
        "src",
        "dst",
        "num_flits",
        "message",
        "inject_time",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        num_flits: int,
        message: Optional[Message] = None,
    ) -> None:
        if num_flits < 1:
            raise ValueError(f"num_flits must be >= 1, got {num_flits}")
        self.id = next(_packet_ids)
        self.src = src
        self.dst = dst
        self.num_flits = num_flits
        self.message = message
        self.inject_time: int = -1

    def make_flits(self) -> list["Flit"]:
        """Serialise the packet into its flit train."""
        return [Flit(self, i) for i in range(self.num_flits)]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Packet(id={self.id}, {self.src}->{self.dst}, {self.num_flits}f)"


class Flit:
    """One flow-control unit.  ``ready_time`` is stamped by each router on
    arrival: the cycle at which the flit has cleared that router's pipeline
    and may compete for the switch.  ``is_head``/``is_tail`` are fixed by the
    flit's position in its packet and read on every grant, so they are
    plain slots."""

    __slots__ = ("packet", "index", "ready_time", "is_head", "is_tail")

    def __init__(self, packet: Packet, index: int) -> None:
        self.packet = packet
        self.index = index
        self.ready_time = 0
        self.is_head = index == 0
        self.is_tail = index == packet.num_flits - 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        role = "H" if self.is_head else ("T" if self.is_tail else "B")
        return f"Flit(pkt={self.packet.id}, {self.index}/{self.packet.num_flits}, {role})"
