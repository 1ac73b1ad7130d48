"""Traced mode: per-layer spans recorded from outside the engine.

:class:`LayerTracer` replaces the public entry points of each layer with
thin wrappers at run time (nothing under ``src/`` changes).  Each wrapper
pushes a frame on its thread's span stack, so a span's *self time* is its
duration minus the time of the spans it encloses.  Foreground (the driver
thread) and background threads (the stage-C finalize worker, the
validation pool) are kept apart.  Counts the metrics registry already
keeps (messages, bytes, announces, WAL flushes, plan-cache hits) are read
from the registry, as deltas over the timed window.
"""

from __future__ import annotations

import importlib
import statistics
import threading
import time
from collections import defaultdict
from typing import Dict, List, Tuple

# (module, class, attribute, span name, layer).  Spans whose layer self
# times add up to the foreground wall time; ``events.step`` is the root
# of every simulated event, so its self time is the remainder.
SPANS: List[Tuple[str, str, str, str, str]] = [
    ("repro.common.crypto", "PrivateKey", "sign", "crypto.sign", "crypto"),
    ("repro.common.crypto", "PublicKey", "verify", "crypto.verify",
     "crypto"),
    ("repro.core.client", "BlockchainClient", "invoke", "client.invoke",
     "client"),
    ("repro.consensus.kafka", "KafkaOrderingService", "submit",
     "consensus.submit", "consensus"),
    ("repro.consensus.kafka", "KafkaOrderingService", "_on_entry",
     "consensus.kafka_entry", "consensus"),
    ("repro.consensus.kafka", "KafkaTopic", "publish",
     "consensus.kafka_publish", "consensus"),
    ("repro.consensus.pbft", "PBFTOrderingService", "submit",
     "consensus.submit", "consensus"),
    ("repro.consensus.pbft", "_PBFTReplica", "on_message",
     "consensus.pbft_message", "consensus"),
    ("repro.consensus.pbft", "_PBFTReplica", "_retransmit",
     "consensus.pbft_retransmit", "consensus"),
    ("repro.consensus.base", "BlockAssembler", "feed", "consensus.feed",
     "consensus"),
    ("repro.net.transport", "SimNetwork", "send", "net.send", "consensus"),
    ("repro.node.sync", "BlockSyncManager", "_tick", "sync.tick",
     "consensus"),
    ("repro.node.sync", "BlockSyncManager", "on_announce",
     "sync.on_announce", "consensus"),
    ("repro.chain.block", "Block", "verify", "chain.block_verify", "chain"),
    ("repro.chain.block", "Block", "seal", "chain.block_seal", "chain"),
    ("repro.node.peer", "DatabaseNode", "on_message", "node.on_message",
     "node"),
    ("repro.node.peer", "DatabaseNode", "submit_transaction",
     "node.submit_transaction", "node"),
    ("repro.node.peer", "DatabaseNode", "query", "node.query", "sql"),
    ("repro.node.backend", "Backend", "execute", "backend.execute", "sql"),
    ("repro.contracts.procedure", "ProcedureRuntime", "invoke",
     "contracts.invoke", "sql"),
    ("repro.sql.executor", "Executor", "execute", "sql.execute", "sql"),
    ("repro.node.block_processor", "BlockProcessor", "process_block",
     "processor.process_block", "processor"),
    ("repro.node.ledger", "Ledger", "record_block", "ledger.record_block",
     "processor"),
    ("repro.node.ledger", "Ledger", "record_statuses",
     "ledger.record_statuses", "processor"),
    ("repro.node.checkpoint", "CheckpointManager", "record_local",
     "checkpoint.record_local", "processor"),
    ("repro.node.checkpoint", "CheckpointManager", "verify_remote",
     "checkpoint.verify_remote", "processor"),
    ("repro.mvcc.database", "Database", "begin", "mvcc.begin", "mvcc"),
    ("repro.mvcc.database", "Database", "apply_commit", "mvcc.apply_commit",
     "mvcc"),
    ("repro.mvcc.database", "Database", "apply_abort", "mvcc.apply_abort",
     "mvcc"),
    ("repro.mvcc.database", "Database", "apply_block", "mvcc.apply_block",
     "mvcc"),
    ("repro.node.scheduler", "CommitScheduler", "barrier",
     "scheduler.barrier", "mvcc"),
    ("repro.node.scheduler", "CommitScheduler", "prepare_block",
     "scheduler.prepare_block", "mvcc"),
    ("repro.node.scheduler", "CommitScheduler", "_run_finalize",
     "scheduler.finalize", "mvcc"),
    ("repro.storage.wal", "WriteAheadLog", "flush", "wal.flush", "wal"),
    ("repro.analytics.columnstore", "ColumnStore", "on_block",
     "columnstore.on_block", "columnstore"),
    ("repro.analytics.columnstore", "ColumnStore", "ingest_block",
     "columnstore.ingest_block", "columnstore"),
    ("repro.common.events", "EventScheduler", "step", "events.step",
     "other"),
]

LAYERS = ("crypto", "client", "consensus", "chain", "node", "sql",
          "processor", "mvcc", "wal", "columnstore", "other")

#: Spans recorded under a separate ``<name>@read`` entry when a read
#: (``DatabaseNode.query``) encloses them, so transaction and read costs
#: stay apart.
READ_SPLIT = {"sql.execute", "mvcc.begin", "scheduler.barrier"}

#: Registry counters read as deltas over the timed window.
COUNTERS = ("transport.messages_sent", "transport.bytes_sent",
            "sync.announces_sent", "wal.flush_count", "wal.records_flushed",
            "plancache.hits", "plancache.misses",
            "scheduler.parallel_blocks")

BACKGROUND = (("finalize", "-finalize"), ("validate", "-validate"))


class SpanStats:
    """Per (thread, span name): calls, outermost calls, inclusive time of
    the outermost calls, self time."""

    __slots__ = ("calls", "outer", "inclusive", "self_time")

    def __init__(self):
        self.calls = 0
        self.outer = 0
        self.inclusive = 0.0
        self.self_time = 0.0


def thread_kind(name: str) -> str:
    for kind, marker in BACKGROUND:
        if marker in name:
            return kind
    return "foreground"


def _counter_totals(registry) -> Dict[str, float]:
    totals: Dict[str, float] = defaultdict(float)
    for key, value in registry.snapshot()["counters"].items():
        name = key.split("{", 1)[0]
        if name in COUNTERS:
            totals[name] += value
    return totals


def _thread_cpu() -> Dict[int, Tuple[str, float]]:
    """CPU seconds of every live background thread, by thread id."""
    out = {}
    for thread in threading.enumerate():
        kind = thread_kind(thread.name)
        if kind == "foreground" or thread.ident is None:
            continue
        try:
            clock = time.pthread_getcpuclockid(thread.ident)
            out[thread.ident] = (kind, time.clock_gettime(clock))
        except OSError:     # the thread ended in between
            continue
    return out


class LayerTracer:
    """Wraps each layer's entry points and aggregates span times."""

    def __init__(self):
        self.recording = False
        self._local = threading.local()
        self._tables: List[Tuple[str, Dict[str, SpanStats]]] = []
        self._lock = threading.Lock()
        self._undo = []
        self.wall = 0.0

    # -- wrapping ------------------------------------------------------------

    def install(self) -> None:
        for module_name, cls_name, attr, span, _layer in SPANS:
            owner = getattr(importlib.import_module(module_name), cls_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, span))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _thread_state(self):
        local = self._local
        try:
            return local.stack, local.table
        except AttributeError:
            local.stack = []
            local.table = {}
            with self._lock:
                self._tables.append((threading.current_thread().name,
                                     local.table))
            return local.stack, local.table

    def _wrap(self, original, span: str):
        tracer = self
        split = span in READ_SPLIT
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.recording:
                return original(*args, **kwargs)
            stack, table = tracer._thread_state()
            name = span
            if split and any(frame[0] == "node.query" for frame in stack):
                name = span + "@read"
            frame = [name, 0.0]
            stack.append(frame)
            started = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                stats = table.get(name)
                if stats is None:
                    stats = table[name] = SpanStats()
                stats.calls += 1
                stats.self_time += elapsed - frame[1]
                if not any(f[0] == name for f in stack):
                    stats.outer += 1
                    stats.inclusive += elapsed
                if stack:
                    stack[-1][1] += elapsed

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", span)
        traced.__doc__ = getattr(original, "__doc__", None)
        return traced

    # -- the timed window ------------------------------------------------------

    def start(self, net) -> None:
        self._counters0 = _counter_totals(net.metrics)
        self._cpu0 = _thread_cpu()
        self._height0 = net.primary_node.db.committed_height
        self._started = time.perf_counter()
        self.recording = True

    def stop(self, net) -> None:
        self.recording = False
        self.wall = time.perf_counter() - self._started
        counters1 = _counter_totals(net.metrics)
        self.counters = {name: counters1[name] - self._counters0[name]
                         for name in COUNTERS}
        self.background_cpu: Dict[str, float] = defaultdict(float)
        for ident, (kind, seconds) in _thread_cpu().items():
            before = self._cpu0.get(ident, (kind, 0.0))[1]
            self.background_cpu[kind] += seconds - before
        self.blocks = net.primary_node.db.committed_height - self._height0
        gauge = net.primary_node.metrics.snapshot()["gauges"]
        self.bytes_per_row = next(
            (value for key, value in gauge.items()
             if key.startswith("columnstore.bytes_per_row")), 0.0) or 0.0

    # -- aggregation -----------------------------------------------------------

    def merged(self, kind: str = None) -> Dict[str, SpanStats]:
        """Span stats summed over threads (of one kind, if given)."""
        out: Dict[str, SpanStats] = defaultdict(SpanStats)
        for thread_name, table in self._tables:
            if kind is not None and thread_kind(thread_name) != kind:
                continue
            for name, stats in table.items():
                merged = out[name]
                merged.calls += stats.calls
                merged.outer += stats.outer
                merged.inclusive += stats.inclusive
                merged.self_time += stats.self_time
        return out

    def layer_self(self, kind: str = "foreground") -> Dict[str, float]:
        layer_of = {span: layer for *_, span, layer in SPANS}
        totals = {layer: 0.0 for layer in LAYERS}
        for name, stats in self.merged(kind).items():
            totals[layer_of[name.split("@", 1)[0]]] += stats.self_time
        return totals

    def per_layer_metrics(self, driver, elapsed: float, committed: int):
        spans = self.merged()
        fg_self = self.layer_self()
        txs = max(committed, 1)
        node_blocks = max(spans["processor.process_block"].outer, 1)
        reads = max(driver.read_attempted, 1)
        counters = self.counters
        metric = {}

        def put(name, value, unit):
            metric[name] = {"value": value, "unit": unit}

        def mean_ms(*names):
            calls = sum(spans[n].outer for n in names)
            return 1e3 * sum(spans[n].inclusive for n in names) / calls \
                if calls else 0.0

        def total_ms(*names):
            return 1e3 * sum(spans[n].inclusive for n in names)

        def self_per_tx(layer):
            return 1e3 * fg_self[layer] / txs

        put("crypto.sign_ms", mean_ms("crypto.sign"), "ms")
        put("crypto.verify_ms", mean_ms("crypto.verify"), "ms")
        put("crypto.signs_per_tx", spans["crypto.sign"].calls / txs, "count")
        put("crypto.verifies_per_tx", spans["crypto.verify"].calls / txs,
            "count")
        put("crypto.self_ms_per_tx", self_per_tx("crypto"), "ms")
        put("client.invoke_ms", mean_ms("client.invoke"), "ms")
        put("client.self_ms_per_tx", self_per_tx("client"), "ms")
        put("consensus.self_ms_per_tx", self_per_tx("consensus"), "ms")
        put("net.messages_per_tx",
            counters["transport.messages_sent"] / txs, "count")
        put("net.bytes_per_tx", counters["transport.bytes_sent"] / txs,
            "B")
        put("sync.announces_per_tx", counters["sync.announces_sent"] / txs,
            "count")
        put("chain.block_verify_ms", mean_ms("chain.block_verify"), "ms")
        put("chain.txs_per_block", committed / max(self.blocks, 1), "count")
        put("chain.self_ms_per_tx", self_per_tx("chain"), "ms")
        put("node.self_ms_per_tx", self_per_tx("node"), "ms")
        put("backend.execute_ms", mean_ms("backend.execute"), "ms")
        put("contracts.invoke_ms", mean_ms("contracts.invoke"), "ms")
        put("sql.execute_ms", mean_ms("sql.execute"), "ms")
        put("sql.statements_per_tx", spans["sql.execute"].outer / txs,
            "count")
        lookups = counters["plancache.hits"] + counters["plancache.misses"]
        put("sql.plancache_hit_ratio",
            counters["plancache.hits"] / lookups if lookups else 0.0,
            "ratio")
        put("sql.self_ms_per_tx", self_per_tx("sql"), "ms")
        put("processor.bpt_ms", mean_ms("processor.process_block"), "ms")
        put("processor.self_ms_per_tx", self_per_tx("processor"), "ms")
        put("ledger.ms_per_block",
            total_ms("ledger.record_block", "ledger.record_statuses")
            / node_blocks, "ms")
        put("checkpoint.ms_per_block",
            total_ms("checkpoint.record_local", "checkpoint.verify_remote")
            / node_blocks, "ms")
        put("mvcc.apply_commit_ms", mean_ms("mvcc.apply_commit"), "ms")
        put("mvcc.apply_block_ms", mean_ms("mvcc.apply_block"), "ms")
        put("mvcc.begin_wait_ms_per_read",
            total_ms("scheduler.barrier@read") / reads, "ms")
        put("mvcc.self_ms_per_tx", self_per_tx("mvcc"), "ms")
        put("scheduler.background_ms_per_block",
            total_ms("scheduler.finalize") / node_blocks, "ms")
        put("scheduler.finalize_cpu_ms_per_block",
            1e3 * self.background_cpu["finalize"] / node_blocks, "ms")
        put("scheduler.validate_cpu_ms_per_block",
            1e3 * self.background_cpu["validate"] / node_blocks, "ms")
        put("scheduler.parallel_block_share",
            counters["scheduler.parallel_blocks"] / node_blocks, "ratio")
        put("wal.flush_ms", mean_ms("wal.flush"), "ms")
        put("wal.flushes_per_block", counters["wal.flush_count"]
            / node_blocks, "count")
        put("wal.records_per_tx", counters["wal.records_flushed"] / txs,
            "count")
        put("wal.self_ms_per_tx", self_per_tx("wal"), "ms")
        put("columnstore.ingest_ms_per_block",
            total_ms("columnstore.on_block", "columnstore.ingest_block")
            / node_blocks, "ms")
        put("columnstore.bytes_per_row", float(self.bytes_per_row), "B")
        put("events.fired_per_tx", spans["events.step"].calls / txs,
            "count")
        put("other.self_ms_per_tx", self_per_tx("other"), "ms")
        put("read.fresh_p50_ms", statistics.median(driver.fresh_ms), "ms")
        put("read.point_p95_ms", statistics.quantiles(
            driver.point_ms, n=100, method="inclusive")[94], "ms")
        put("trace.wall_ms_per_tx", 1e3 * elapsed / txs, "ms")
        put("trace.coverage", sum(fg_self.values()) / self.wall, "ratio")
        return metric

    def table(self) -> str:
        """Human-readable breakdown: foreground self time by layer, then
        background threads."""
        lines = [f"{'layer':12s} {'fg self ms':>12s} {'share':>7s}"]
        for layer, seconds in self.layer_self().items():
            lines.append(f"{layer:12s} {seconds * 1e3:12.1f} "
                         f"{seconds / self.wall:7.1%}")
        for kind, _marker in BACKGROUND:
            busy = sum(s.inclusive for name, s in self.merged(kind).items()
                       if name == "scheduler.finalize")
            lines.append(f"{kind + ' thr':12s} {busy * 1e3:12.1f} wall, "
                         f"{self.background_cpu[kind] * 1e3:.1f} cpu ms")
        lines.append(f"{'wall':12s} {self.wall * 1e3:12.1f}")
        lines.append("top foreground spans by self time:")
        spans = sorted(self.merged("foreground").items(),
                       key=lambda item: -item[1].self_time)
        for name, stats in spans[:12]:
            lines.append(f"  {name:28s} {stats.self_time * 1e3:10.1f} ms "
                         f"self, {stats.calls:7d} calls")
        return "\n".join(lines)
