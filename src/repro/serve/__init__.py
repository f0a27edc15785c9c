"""``repro.serve`` — the resident simulation service.

Turns the one-shot simulator into a long-running, concurrent job service:
clients submit simulation/replay/validation requests over a
newline-delimited-JSON TCP protocol (with an HTTP shim for ``/healthz``,
``/metrics``, ``/jobs``), the server executes them on a bounded process
pool, and identical requests coalesce (single-flight) and hit the same
on-disk content-addressed cache as batch sweeps.  See ``docs/SERVING.md``.

Quickstart::

    # terminal 1
    python -m repro serve --workers 4 --cache

    # terminal 2
    python -m repro submit scenario_json --params \\
        '{"params": {"workload": "fft", "cores": 16, "seed": 7, \\
          "scale": 0.25, "capture": "electrical", "target": "crossbar"}}'

or programmatically::

    from repro.serve import ServeClient
    with ServeClient(port=7433) as c:
        outcome = c.submit("scenario", scenario)   # dataclasses encode fine
"""

from repro import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "AsyncServeClient": "repro.serve.client",
    "JobFailed": "repro.serve.client",
    "ServeClient": "repro.serve.client",
    "ServeError": "repro.serve.client",
    "ServerClosed": "repro.serve.client",
    "Shed": "repro.serve.client",
    "Job": "repro.serve.jobs",
    "JobTable": "repro.serve.jobs",
    "ServiceStats": "repro.serve.jobs",
    "LRUCache": "repro.serve.lru",
    "LRUStats": "repro.serve.lru",
    "DEFAULT_OPERATIONS": "repro.serve.ops",
    "Membership": "repro.serve.peer",
    "PeerLink": "repro.serve.peer",
    "parse_addr": "repro.serve.peer",
    "JobFailure": "repro.serve.pool",
    "JobTimeout": "repro.serve.pool",
    "WorkerDied": "repro.serve.pool",
    "WorkerPool": "repro.serve.pool",
    "DEFAULT_VNODES": "repro.serve.ring",
    "HashRing": "repro.serve.ring",
    "DEFAULT_PORT": "repro.serve.protocol",
    "PROTOCOL_VERSION": "repro.serve.protocol",
    "ProtocolError": "repro.serve.protocol",
    "RemoteError": "repro.serve.protocol",
    "SimulationServer": "repro.serve.server",
})

__all__ = [
    "AsyncServeClient",
    "DEFAULT_OPERATIONS",
    "DEFAULT_PORT",
    "DEFAULT_VNODES",
    "HashRing",
    "Job",
    "JobFailed",
    "JobFailure",
    "JobTable",
    "JobTimeout",
    "LRUCache",
    "LRUStats",
    "Membership",
    "PROTOCOL_VERSION",
    "PeerLink",
    "ProtocolError",
    "RemoteError",
    "ServeClient",
    "ServeError",
    "ServerClosed",
    "ServiceStats",
    "Shed",
    "SimulationServer",
    "WorkerDied",
    "WorkerPool",
    "parse_addr",
]
