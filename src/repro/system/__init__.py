"""Full-system chip-multiprocessor substrate.

A simplified but *executable* 2012-era CMP: in-order blocking cores run
synthetic application kernels (:mod:`repro.system.workloads`) whose loads and
stores traverse real private L1 caches, a distributed shared L2 (S-NUCA, one
slice per node) with an MSI directory protocol, and memory controllers — all
messages travelling over whichever interconnect (electrical or optical) is
plugged in through :class:`repro.net.NetworkAdapter`.

This substrate plays the role the paper's commercial full-system host
(Simics/GEMS-class running real binaries) played: it *generates* the real
coherence traffic that the trace model captures, and it *is* the
execution-driven reference that trace replays are judged against.

Protocol simplifications (documented in DESIGN.md): single outstanding miss
per core, home-serialised per-line transactions, silent shared evictions,
and no L2 recall — the L2 victim search skips lines with active directory
state (serving such lines bypasses allocation instead).
"""

from repro import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "CacheArray": "repro.system.cache",
    "CacheLineState": "repro.system.cache",
    "FullSystem": "repro.system.cmp",
    "SystemResult": "repro.system.cmp",
    "OP_BARRIER": "repro.system.ops",
    "OP_COMPUTE": "repro.system.ops",
    "OP_LOAD": "repro.system.ops",
    "OP_STORE": "repro.system.ops",
    "Program": "repro.system.ops",
    "WORKLOADS": "repro.system.workloads",
    "build_workload": "repro.system.workloads",
})

__all__ = [
    "CacheArray",
    "CacheLineState",
    "FullSystem",
    "OP_BARRIER",
    "OP_COMPUTE",
    "OP_LOAD",
    "OP_STORE",
    "Program",
    "SystemResult",
    "WORKLOADS",
    "build_workload",
]
