"""The four fixed workloads of the pipeline benchmark.

Every workload measures the program **from outside**: it only calls
public functions of ``repro`` and times those calls with the benchmark's
own :class:`spans.Recorder`.  A workload object is created, ``setup()``,
``measure(seconds)``, optionally ``extras()`` (layer-only measurements
of the traced run), then ``teardown()``; afterwards it holds

* ``ledger`` — operations attempted / failed and the simulated
  statistics it saw (compared with ``expected.json`` by the caller),
* ``pipeline_s()`` / ``work_per_s()`` — the end-to-end numbers,
* ``layer_metrics()`` — the per-layer numbers of a traced run.

A pass is a fixed sequence of *stages*, one span each.  ``pipeline_s``
is the sum over the stages of each stage's median (host-normalised)
time over the passes, so the per-layer stage times add up to the
end-to-end number exactly.

README.md says why each workload is here and which layers it leaves
idle.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import multiprocessing
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Recorder

#: Input sizes.  ``full`` is what BENCHMARK.json measures; ``smoke`` is
#: the structural check run by test_pipeline_smoke.py.
PROFILES = {
    "full": {
        "capture_scale": 0.5,
        "synth_nodes": 1024, "synth_messages": 50_000,
        "stream_messages": 300_000,
        "serve_seeds": 4, "serve_scale": 0.25,
        "warm_batch": 1000, "warm_batches": 16, "disk_requests": 600,
    },
    "smoke": {
        "capture_scale": 0.25,
        "synth_nodes": 1024, "synth_messages": 10_000,
        "stream_messages": 10_000,
        "serve_seeds": 1, "serve_scale": 0.25,
        "warm_batch": 100, "warm_batches": 2, "disk_requests": 60,
    },
}

EVENT_BACKENDS = ("crossbar", "swmr_crossbar", "awgr", "circuit_mesh")
GENERATIONAL_BACKENDS = ("crossbar", "awgr")
SERVE_KERNELS = ("fft", "radix", "stencil")
SERVE_CLIENTS = 2       # closed loop: a client sends its next request only
SERVE_WORKERS = 1       # when the last returned; 1 worker + 2 clients <= nproc


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def peak_rss_mib() -> float:
    """``VmHWM`` of this process (reset at exec, so a fresh child measures
    only itself)."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


class Ledger:
    """Operations attempted and failed, plus every simulated statistic.

    A statistic recorded twice (one value per pass) must repeat exactly:
    the simulator is deterministic, so a difference is a failed operation.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.stats: dict[str, object] = {}

    def op(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def stat(self, name: str, value) -> None:
        if name not in self.stats:
            self.stats[name] = value
        elif self.stats[name] != value:
            self.op(f"{name} differs across passes: "
                    f"{self.stats[name]!r} then {value!r}", False)


class Workload:
    name = ""
    #: The calls whose wall time the work rate divides by; between them
    #: they process ``work_units`` messages or requests.
    work_stages: tuple[str, ...] = ()

    def __init__(self, sizes: dict, seed: int, workdir: Path,
                 rec: Recorder) -> None:
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir
        self.rec = rec
        self.ledger = Ledger()
        self.stages: tuple[str, ...] = ()   # span names that make one pass
        self.work_units = 0
        self.passes = 0

    def setup(self, generate: bool) -> None:
        """Imports, configs, topology construction.  ``generate`` is set
        in the set-up child only: inputs generated once are written to
        ``workdir`` there and merely opened by the measuring process."""

    def measure(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while self.passes == 0 or time.perf_counter() < deadline:
            with self.rec.span("pass", rid=self.passes):
                self.one_pass()
            self.passes += 1

    def one_pass(self) -> None:
        raise NotImplementedError

    def extras(self) -> None:
        """Layer-only measurements, outside the timed passes (traced run)."""

    def teardown(self) -> None:
        pass

    def pipeline_s(self) -> float:
        return sum(self.rec.typical(s) for s in self.stages)

    def work_per_s(self) -> float:
        return self.work_units / sum(self.rec.typical(s)
                                     for s in self.work_stages)

    def layer_metrics(self) -> dict[str, float]:
        raise NotImplementedError


# --------------------------------------------------------------------------
# W1: the paper's own flow on the event engine
# --------------------------------------------------------------------------

class CapturedEvent16(Workload):
    name = "captured_event_16"
    work_stages = tuple(f"onoc.{b}.replay" for b in EVENT_BACKENDS)

    def setup(self, generate: bool) -> None:
        from repro.config import TraceConfig, default_16core_config
        from repro.harness.builders import optical_factory

        self.exp = default_16core_config().with_seed(self.seed)
        self.factories = {
            b: optical_factory(
                dataclasses.replace(self.exp.onoc, topology=b), self.seed)
            for b in EVENT_BACKENDS}
        self.sc = TraceConfig(mode="self_correcting")
        self.stages = ("system.exec_driven_electrical",
                       "system.exec_driven_optical",
                       *self.work_stages, "core.accuracy.compare")

    def one_pass(self) -> None:
        from repro.core import compare_to_reference, replay_trace
        from repro.harness.builders import run_execution_driven

        rec, led, scale = self.rec, self.ledger, self.sizes["capture_scale"]
        results = {}
        with rec.span("system.exec_driven_electrical"):
            res_e, trace, _ = run_execution_driven(
                self.exp, "fft", "electrical", scale=scale)
        with rec.span("system.exec_driven_optical"):
            res_o, ref, _ = run_execution_driven(
                self.exp, "fft", "optical", scale=scale)
        for b in EVENT_BACKENDS:
            with rec.span(f"onoc.{b}.replay"):
                results[b] = replay_trace(trace, self.factories[b], self.sc)
        with rec.span("core.accuracy.compare"):
            report = compare_to_reference(results["crossbar"], ref)
        self.trace, self.ref = trace, ref
        self.work_units = len(trace) * len(EVENT_BACKENDS)

        led.op("electrical capture produced a trace", len(trace) > 0)
        led.stat("captured.messages", len(trace))
        led.stat("captured.exec_time", res_e.exec_time_cycles)
        led.op("optical reference produced a trace", len(ref) > 0)
        led.stat("reference.exec_time", res_o.exec_time_cycles)
        for b, r in results.items():
            led.op(f"event replay on {b} replayed every message",
                   r.messages_replayed == len(trace)
                   and r.messages_unreplayed == 0 and r.stalled_count == 0)
            led.stat(f"event.{b}.exec_time_estimate", r.exec_time_estimate)
            led.stat(f"event.{b}.sim_events", r.sim_events)
        led.stat("event.sim_events",
                 sum(r.sim_events for r in results.values()))
        led.stat("event.crossbar.rederived_records",
                 results["crossbar"].rederived_records)
        led.stat("event.crossbar.stalled_count",
                 results["crossbar"].stalled_count)
        led.op("accuracy report matched every message",
               report.matched_messages == len(trace))
        led.stat("accuracy.exec_time_error_pct", report.exec_time_error_pct)
        led.stat("accuracy.latency_mape_pct", report.latency_mape_pct)

    def extras(self) -> None:
        from repro.config import TraceConfig
        from repro.core import compare_to_reference, replay_trace

        rec, led, n = self.rec, self.ledger, len(self.trace)
        factory = self.factories["crossbar"]
        with rec.span("extras", rid="extras"):
            with rec.span("core.replay.naive"):
                naive = replay_trace(self.trace, factory,
                                     TraceConfig(mode="naive"))
            # The captured fft trace is a narrow DAG: few messages per
            # generation, the regime where vectorising pays least.
            with rec.span("core.generational.narrow_dag"):
                gen = replay_trace(
                    self.trace, factory,
                    TraceConfig(mode="self_correcting",
                                engine="generational"))
        led.op("naive event replay replayed every message",
               naive.messages_replayed == n)
        led.op("generational replay of the captured trace converged",
               gen.messages_unreplayed == 0 and gen.stalled_count == 0
               and gen.extra["converged"])
        report = compare_to_reference(naive, self.ref)
        led.stat("accuracy.naive_error_pct", report.exec_time_error_pct)
        led.stat("generational.captured.exec_time_estimate",
                 gen.exec_time_estimate)

    def layer_metrics(self) -> dict[str, float]:
        typical, stats = self.rec.typical, self.ledger.stats
        replay_s = sum(typical(s) for s in self.work_stages)
        out = {f"{s}_s": typical(s) for s in self.stages}
        out.update({
            "engine.events_per_s": stats["event.sim_events"] / replay_s,
            "engine.events_per_msg":
                stats["event.sim_events"] / self.work_units,
            "core.replay.self_correcting_s": replay_s,
            "core.replay.naive_s": typical("core.replay.naive"),
            "core.replay.rederived_records":
                stats["event.crossbar.rederived_records"],
            "core.replay.stalled_count":
                stats["event.crossbar.stalled_count"],
            "core.accuracy.exec_time_error_pct":
                stats["accuracy.exec_time_error_pct"],
            "core.accuracy.naive_error_pct":
                stats["accuracy.naive_error_pct"],
            "core.accuracy.latency_mape_pct":
                stats["accuracy.latency_mape_pct"],
            "core.generational.narrow_dag_s":
                typical("core.generational.narrow_dag"),
        })
        return out


# --------------------------------------------------------------------------
# W2: generator -> container -> loader -> windowed generational solver
# --------------------------------------------------------------------------

class SynthGenerational1k(Workload):
    name = "synth_generational_1k"
    work_stages = tuple(f"core.generational.self_correcting.{b}"
                        for b in GENERATIONAL_BACKENDS)

    def setup(self, generate: bool) -> None:
        from repro.config import TraceConfig
        from repro.harness.builders import optical_factory
        from repro.synth import default_profile, synth_onoc

        nodes = self.sizes["synth_nodes"]
        self.messages = self.sizes["synth_messages"]
        self.profile = default_profile(nodes, self.messages,
                                       pattern="uniform")
        self.factories = {b: optical_factory(synth_onoc(b, nodes), 1)
                          for b in GENERATIONAL_BACKENDS}
        self.cfg = TraceConfig(mode="self_correcting", engine="generational")
        self.path = self.workdir / "synth_uniform.rtrc"
        self.stages = ("synth.generate", "core.tracebin.load",
                       "core.tracebin.dumps", *self.work_stages)
        self.work_units = self.messages * len(GENERATIONAL_BACKENDS)

    def one_pass(self) -> None:
        from repro.core import load_trace, replay_trace, tracebin
        from repro.synth import generate_to_file

        rec, led, n = self.rec, self.ledger, self.messages
        results = {}
        with rec.span("synth.generate"):
            gen = generate_to_file(self.profile, self.path, seed=self.seed)
        with rec.span("core.tracebin.load"):
            trace = load_trace(self.path)
        with rec.span("core.tracebin.dumps"):
            blob = tracebin.dumps(trace)
        for b in GENERATIONAL_BACKENDS:
            with rec.span(f"core.generational.self_correcting.{b}"):
                results[b] = replay_trace(trace, self.factories[b], self.cfg)

        led.op("generator wrote every message", gen["messages"] == n)
        led.stat("container.sha256", sha256_file(self.path))
        led.stat("container.bytes", gen["file_bytes"])
        led.op("loader returned every record", len(trace) == n)
        led.op("re-encoding the loaded trace reproduces the file",
               blob == self.path.read_bytes())
        for b, r in results.items():
            led.op(f"generational replay on {b} converged",
                   r.messages_replayed == n and r.messages_unreplayed == 0
                   and r.stalled_count == 0 and r.extra["converged"])
            led.stat(f"generational.{b}.exec_time_estimate",
                     r.exec_time_estimate)
            led.stat(f"generational.{b}.iterations", r.extra["iterations"])
            rec.count("core.generational.replays")
            rec.count("core.generational.converged",
                      int(r.extra["converged"]))

    def extras(self) -> None:
        from repro.synth import iter_records

        with self.rec.span("synth.iter_records", rid="extras"):
            n = sum(1 for _ in iter_records(self.profile, seed=self.seed))
        self.ledger.op("generator alone yields every record",
                       n == self.messages)

    def layer_metrics(self) -> dict[str, float]:
        typical, n = self.rec.typical, self.messages
        counts, stats = self.rec.counts, self.ledger.stats
        return {
            "synth.generate_s": typical("synth.generate"),
            "synth.generate_msgs_per_s": n / typical("synth.generate"),
            "synth.iter_records_s": typical("synth.iter_records"),
            "core.tracebin.load_s": typical("core.tracebin.load"),
            "core.tracebin.load_msgs_per_s": n / typical("core.tracebin.load"),
            "core.tracebin.dumps_s": typical("core.tracebin.dumps"),
            "core.tracebin.encode_msgs_per_s":
                n / typical("core.tracebin.dumps"),
            "core.tracebin.bytes_per_msg": stats["container.bytes"] / n,
            "core.generational.self_correcting_s.crossbar":
                typical("core.generational.self_correcting.crossbar"),
            "core.generational.self_correcting_s.awgr":
                typical("core.generational.self_correcting.awgr"),
            "core.generational.iterations": sum(
                stats[f"generational.{b}.iterations"]
                for b in GENERATIONAL_BACKENDS),
            "core.generational.converged":
                counts["core.generational.converged"]
                / counts["core.generational.replays"],
        }


# --------------------------------------------------------------------------
# W3: the same two layers used differently -- chunk-wise, carry-state scan
# --------------------------------------------------------------------------

class SynthStream300k(Workload):
    name = "synth_stream_300k"
    work_stages = ("core.generational.stream_naive",)

    def setup(self, generate: bool) -> None:
        from repro.synth import default_profile, generate_to_file, synth_onoc

        nodes, n = self.sizes["synth_nodes"], self.sizes["stream_messages"]
        self.onoc = synth_onoc("crossbar", nodes)
        self.path = self.workdir / "synth_hotspot.rtrc"
        sidecar = self.workdir / "synth_hotspot.json"
        if generate:
            gen = generate_to_file(default_profile(nodes, n, pattern="hotspot"),
                                   self.path, seed=self.seed)
            gen["sha256"] = sha256_file(self.path)
            sidecar.write_text(json.dumps(gen))
        self.gen = json.loads(sidecar.read_text())
        self.ledger.op("generator wrote every message",
                       self.gen["messages"] == n)
        self.ledger.stat("container.sha256", self.gen["sha256"])
        self.stages = ("core.tracebin.scan_blocks", *self.work_stages)
        self.work_units = n
        self.in_memory: dict = {}

    def one_pass(self) -> None:
        from repro.core import scan_blocks, stream_naive_summary

        rec, led, n = self.rec, self.ledger, self.work_units
        with rec.span("core.tracebin.scan_blocks"):
            blocks = scan_blocks(self.path)
        with rec.span("core.generational.stream_naive"):
            summary = stream_naive_summary(self.path, self.onoc)

        footer = blocks["footer"] or {}
        led.op("block scan saw the whole container",
               not blocks["truncated"] and footer.get("record_count") == n)
        led.op("stream replay covered every message",
               summary["messages"] == n)
        for key in ("exec_time_estimate", "mean_latency", "max_deliver"):
            led.stat(f"stream.{key}", summary[key])

    def extras(self) -> None:
        from repro.core.tracebin import iter_chunks

        n = self.work_units
        with self.rec.span("core.tracebin.iter_chunks", rid="extras"):
            decoded = sum(len(c.msg_id) for c in iter_chunks(self.path))
        self.ledger.op("chunk reader decoded every record", decoded == n)
        # The contrast curve: load + naive generational replay of the same
        # file in a fresh process, for its wall time and its peak RSS.
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")),
             "--child", "in_memory", "--workload", self.name,
             "--workdir", str(self.workdir)],
            capture_output=True, text=True, check=True)
        self.in_memory = json.loads(proc.stdout.splitlines()[-1])
        self.ledger.op(
            "in-memory naive replay agrees with the stream replay",
            self.in_memory["messages"] == n
            and self.in_memory["exec_time_estimate"]
            == self.ledger.stats["stream.exec_time_estimate"])

    def in_memory_child(self) -> dict:
        """Body of the ``--child in_memory`` process."""
        from repro.config import TraceConfig
        from repro.core import load_trace, replay_trace
        from repro.harness.builders import optical_factory

        t0 = time.perf_counter()
        result = replay_trace(
            load_trace(self.path), optical_factory(self.onoc, 1),
            TraceConfig(mode="naive", engine="generational"))
        return {"wall_s": time.perf_counter() - t0,
                "rss_mib": peak_rss_mib(),
                "messages": result.messages_replayed,
                "exec_time_estimate": result.exec_time_estimate}

    def layer_metrics(self) -> dict[str, float]:
        typical = self.rec.typical
        return {
            "synth.generate_s": self.gen["wall_clock_s"],
            "synth.generate_msgs_per_s":
                self.gen["messages"] / self.gen["wall_clock_s"],
            "core.tracebin.bytes_per_msg":
                self.gen["file_bytes"] / self.gen["messages"],
            "core.tracebin.iter_chunks_s": typical("core.tracebin.iter_chunks"),
            "core.tracebin.scan_blocks_s": typical("core.tracebin.scan_blocks"),
            "core.generational.stream_naive_s":
                typical("core.generational.stream_naive"),
            "core.generational.naive_in_memory_s": self.in_memory["wall_s"],
            "core.generational.in_memory_rss_mib": self.in_memory["rss_mib"],
        }


# --------------------------------------------------------------------------
# W4: the serve hop with a real replay task, cold / warm-LRU / warm-disk
# --------------------------------------------------------------------------

def _percentile_ms(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return 1e3 * ordered[min(len(ordered) - 1,
                             int(q * (len(ordered) - 1) + 0.5))]


class ServeScenarioMix(Workload):
    name = "serve_scenario_mix"
    work_stages = ("serve.warm_lru.batch",)

    def setup(self, generate: bool) -> None:
        from repro.serve import ServeError

        self.serve_error = ServeError
        self.jobs = [
            {"workload": kernel, "cores": 16,
             "seed": self.seed * self.sizes["serve_seeds"] + i,
             "scale": self.sizes["serve_scale"],
             "capture": "electrical", "target": "crossbar"}
            for kernel in SERVE_KERNELS
            for i in range(self.sizes["serve_seeds"])]
        # A pass: one cold round trip of each kernel.
        self.stages = tuple(f"serve.cold.{k}" for k in SERVE_KERNELS)
        self.work_units = self.sizes["warm_batch"]
        self.cache_dir = self.workdir / "serve-cache"
        self.loop = asyncio.new_event_loop()
        self.server = None
        self.clients: list = []
        self.cold: dict[int, object] = {}       # job index -> cold payload
        self.served: dict[str, int] = {}
        with self.rec.span("serve.start", rid="setup"):
            self.server, self.clients = self.loop.run_until_complete(
                self._start(lru_entries=None))

    async def _start(self, lru_entries):
        from repro.serve import AsyncServeClient, SimulationServer

        kw = {} if lru_entries is None else {"lru_entries": lru_entries}
        server = SimulationServer(port=0, workers=SERVE_WORKERS,
                                  cache_dir=str(self.cache_dir), **kw)
        await server.start()
        clients = [await AsyncServeClient.connect(port=server.port)
                   for _ in range(SERVE_CLIENTS)]
        # The first round trip starts the worker process; the pid keeps
        # the set-up child's echo out of this server's cache key space.
        token = ["echo", os.getpid(), lru_entries]
        echoed = await clients[0].submit("echo", token)
        self.ledger.op("echo round trip", echoed == token)
        return server, clients

    async def _stop(self, server, clients) -> None:
        for c in clients:
            await c.close()
        await server.aclose()

    async def _stats(self, client) -> dict:
        status = await client.status()
        return {**status["stats"], "pool_retries": status["pool"]["retries"]}

    async def _request(self, client, phase: str, rid, job_index: int):
        """One closed-loop request: latency, per-stage split from the
        client-side timestamps of its events, payload check."""
        stamps: dict[str, float] = {}
        accepted: dict = {}

        def on_event(event: dict) -> None:
            kind = event["event"]
            if kind == "state":
                kind = event.get("state")
            stamps.setdefault(kind, time.perf_counter())
            if kind == "accepted":
                accepted.update(event)

        t0 = time.perf_counter()
        try:
            payload = await client.submit("scenario_json",
                                          self.jobs[job_index],
                                          quiet=False, on_event=on_event)
        except self.serve_error as exc:
            self.ledger.op(f"{phase} request {rid}: {exc!r}", False)
            return None
        t1 = time.perf_counter()
        whole = self.rec.add(f"serve.{phase}.request", t0, t1, rid=rid)
        if phase != "cold":
            self.ledger.op(f"{phase} payload of job {job_index} equals the "
                           "cold payload",
                           payload == self.cold.get(job_index))
            return payload
        if not accepted.get("deduped") and "running" in stamps:
            kernel = self.jobs[job_index]["workload"]
            self.rec.add(f"serve.cold.{kernel}", t0, t1, rid=rid)
            marks = (t0, stamps["accepted"], stamps["running"], t1)
            for part, lo, hi in zip(("admit", "queue_wait", "execute"),
                                    marks, marks[1:]):
                self.rec.add(f"serve.cold.{part}", lo, hi, parent=whole)
            self.cold[job_index] = payload
        self.ledger.op(f"cold job {job_index} passed its own invariants",
                       payload.passed and payload.sc_unreplayed == 0)
        return payload

    async def _cold(self) -> None:
        async def walk(ci: int):
            return [await self._request(self.clients[ci], "cold",
                                        f"cold-c{ci}-{j}", j)
                    for j in range(len(self.jobs))]
        outs = await asyncio.gather(*[walk(ci)
                                      for ci in range(SERVE_CLIENTS)])
        for j, payloads in enumerate(zip(*outs)):
            self.ledger.op(
                f"cold job {j}: every client got the executed payload",
                j in self.cold and all(p == self.cold[j] for p in payloads))
            if j in self.cold:
                self.ledger.stat(
                    f"serve.result_digest.{j}",
                    hashlib.sha256(repr(self.cold[j]).encode()).hexdigest())

    async def _warm(self, clients, phase: str, batch: int, b: int) -> None:
        """``batch`` closed-loop requests over the known keys, split over
        the clients; client ``ci`` starts half-way round the key ring so
        the two never ask for the same key at once."""
        per_client, k = batch // len(clients), len(self.jobs)

        async def loop(ci: int) -> None:
            for i in range(per_client):
                await self._request(clients[ci], phase,
                                    f"{phase}-{b}-c{ci}-{i}",
                                    (i + ci * k // len(clients)) % k)
        t0 = time.perf_counter()
        await asyncio.gather(*[loop(ci) for ci in range(len(clients))])
        self.rec.add(f"serve.{phase}.batch", t0, time.perf_counter(),
                     rid=f"{phase}-{b}")

    def measure(self, seconds: float) -> None:
        run = self.loop.run_until_complete
        deadline = time.perf_counter() + seconds
        before = run(self._stats(self.clients[0]))
        with self.rec.span("serve.cold", rid="cold"):
            run(self._cold())
        while (self.passes < self.sizes["warm_batches"]
               or time.perf_counter() < deadline):
            run(self._warm(self.clients, "warm_lru",
                           self.sizes["warm_batch"], self.passes))
            self.passes += 1
        after = run(self._stats(self.clients[0]))
        self.served = {k: after[k] - before[k] for k in after}
        self.ledger.op(
            "each distinct job executed exactly once",
            self.served["executed"] == len(self.jobs)
            and self.served["shed"] == 0 and self.served["failed"] == 0)

    def extras(self) -> None:
        """Warm-disk phase: a second server on the same cache directory
        whose LRU holds one entry, so requests are answered from disk."""
        run = self.loop.run_until_complete
        server, clients = run(self._start(lru_entries=1))
        try:
            run(self._warm(clients, "warm_disk",
                           self.sizes["disk_requests"], 0))
            disk = run(self._stats(clients[0]))
        finally:
            run(self._stop(server, clients))
        # Its set-up echo is the only job the second server may execute.
        self.ledger.op("warm-disk phase executed nothing",
                       disk["executed"] == 1 and disk["cache_hits"] > 0)
        self.served["cache_hits"] += disk["cache_hits"]

    async def _finish(self) -> None:
        if self.server is not None:
            await self._stop(self.server, self.clients)
        # aclose() cancels its connection tasks; let them finish before
        # the loop goes away.
        me = asyncio.current_task()
        await asyncio.gather(*(t for t in asyncio.all_tasks() if t is not me),
                             return_exceptions=True)

    def teardown(self) -> None:
        self.loop.run_until_complete(self._finish())
        self.loop.close()
        stop_worker_processes()

    def layer_metrics(self) -> dict[str, float]:
        d, served = self.rec.durations, self.served
        out = {
            "serve.start_s": self.rec.typical("serve.start"),
            "serve.warm_disk.req_per_s": self.sizes["disk_requests"]
            / self.rec.typical("serve.warm_disk.batch"),
            "serve.retries": served["retries"] + served["pool_retries"],
            "serve.executed_per_distinct":
                served["executed"] / len(self.jobs),
        }
        for part in ("admit", "queue_wait", "execute"):
            out[f"serve.cold.{part}_ms"] = 1e3 * statistics.median(
                d[f"serve.cold.{part}"])
        for phase in ("warm_lru", "warm_disk"):
            for q in (50, 99):
                out[f"serve.{phase}.p{q}_ms"] = _percentile_ms(
                    d[f"serve.{phase}.request"], q / 100)
        for key in ("executed", "dedup_hits", "lru_hits", "cache_hits",
                    "shed"):
            out[f"serve.{key}"] = served[key]
        return out


def stop_worker_processes() -> None:
    """Wait for the serve pool's workers, then stop multiprocessing's
    forkserver and resource tracker, so that no process this benchmark
    started outlives it.  ``SimulationServer.aclose`` only *signals* the
    pool (``shutdown(wait=False)``)."""
    for child in multiprocessing.active_children():
        child.join(timeout=30)
    from multiprocessing import forkserver, resource_tracker

    for helper in (forkserver._forkserver,
                   resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


WORKLOADS = {w.name: w for w in (CapturedEvent16, SynthGenerational1k,
                                 SynthStream300k, ServeScenarioMix)}
