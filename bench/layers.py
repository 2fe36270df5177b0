"""The traced run: every layer timed alone, through its public functions.

The inputs are the seed's inputs of all three workloads, so the run is
the same whichever workload names it. Each call into the program is
recorded as a span (name, start, end, parent) whose parent is the span of
its layer; spans stay in memory and are written to
``bench/_runs/trace-<workload>-s<seed>.jsonl`` at the end. Fsyncs and
bytes are counted from outside the program by wrapping ``os.fsync`` in
this process, and rules scanned per query by wrapping
``ItemSet.issubset``. With ``--profile N`` each layer also runs under
cProfile and its top N functions go to ``bench/_runs/profile-...txt``.
"""

from __future__ import annotations

import cProfile
import fcntl
import io
import json
import os
import pstats
import time
from pathlib import Path
from statistics import median
from typing import Optional

import data
import oracle
from common import Connection, Daemon

clock = time.perf_counter_ns
LAYERS = ("cli", "mining", "id3", "model", "engine", "store", "daemon", "syslearn")


class Tracer:
    """Spans (name, start, end, parent) kept in memory and written out at the end."""

    def __init__(self):
        self.spans: list[tuple[int, str, int, int, Optional[int]]] = []
        self._open: list[int] = []

    def add(self, name: str, start: int, end: int) -> None:
        """Record a finished call as a child of the innermost open span."""
        parent = self._open[-1] if self._open else None
        self.spans.append((len(self.spans), name, start, end, parent))

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append((sid, name, clock(), 0, self._open[-1] if self._open else None))
        self._open.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self._open.remove(sid)
        _, name, start, _, parent = self.spans[sid]
        self.spans[sid] = (sid, name, start, clock(), parent)

    def durations(self, name: str) -> list[int]:
        return [end - start for _, n, start, end, _ in self.spans if n == name]

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")


class FsyncCounter:
    """Counts fsyncs, and the bytes each one makes durable, while active.

    A file opened for writing holds exactly what was written to it, so its
    size is the byte count; an append-mode file grew by its size change
    since the last fsync (or since ``prime`` saw it).
    """

    def __init__(self):
        self.fsyncs = 0
        self.bytes = 0
        self._sizes: dict[tuple[int, int], int] = {}
        self._real = os.fsync

    def prime(self, root: Path) -> None:
        for path in root.rglob("*"):
            if path.is_file():
                st = path.stat()
                self._sizes[(st.st_dev, st.st_ino)] = st.st_size

    def _fsync(self, fd: int) -> None:
        st = os.fstat(fd)
        key = (st.st_dev, st.st_ino)
        if fcntl.fcntl(fd, fcntl.F_GETFL) & os.O_APPEND:
            self.bytes += st.st_size - self._sizes.get(key, 0)
        else:
            self.bytes += st.st_size
        self._sizes[key] = st.st_size
        self.fsyncs += 1
        self._real(fd)

    def __enter__(self):
        os.fsync = self._fsync
        return self

    def __exit__(self, *exc):
        os.fsync = self._real

    def take(self) -> tuple[int, int]:
        counts = (self.fsyncs, self.bytes)
        self.fsyncs = self.bytes = 0
        return counts


class Suite:
    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.tracer = Tracer()
        self.metrics: dict[str, tuple[float, str]] = {}
        self.faults: list[str] = []
        self.info: dict = {}
        self.shared: dict = {}

    def call(self, name: str, fn, *args):
        t0 = clock()
        result = fn(*args)
        self.tracer.add(name, t0, clock())
        return result

    def med_ms(self, name: str) -> float:
        return median(self.tracer.durations(name)) / 1e6

    def med_us(self, name: str) -> float:
        return median(self.tracer.durations(name)) / 1e3

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    # -- layers, in dependency order -----------------------------------------

    def cli(self):
        from arlearn.cli import load_data_file

        jobs = data.mine_jobs(self.seed, self.workdir)
        for _ in range(5):
            datasets = [self.call("cli.load_data_file", load_data_file, job.path) for job in jobs]
        self.shared.update(jobs=jobs, datasets=datasets)
        self.put("cli.load_data_file_ms", self.med_ms("cli.load_data_file"), "ms")

    def mining(self):
        from arlearn import mining

        jobs, datasets = self.shared["jobs"], self.shared["datasets"]
        stats = mining.MiningStats()
        frequent = self.call("mining.apriori", mining.apriori, datasets[0], data.MINE_MINSUP, stats)
        rules = self.call("mining.derive_rules", mining.derive_rules, frequent, datasets[0].schema, data.MINE_MINCONF)
        want = oracle.expected_rules(jobs[0].rows, [a.name for a in jobs[0].spec.inputs],
                                     data.MINE_MINSUP, data.MINE_MINCONF)
        if {oracle.rule_tuple(r.to_dict()) for r in rules} != want:
            self.faults.append("apriori + derive_rules differ from the oracle")
        self.put("mining.apriori_ms", self.med_ms("mining.apriori"), "ms")
        self.put("mining.apriori_candidates", stats.candidates_generated, "count")
        self.put("mining.apriori_passes", stats.support_counting_passes, "count")
        self.put("mining.frequent_per_candidate", len(frequent) / stats.candidates_generated, "ratio")
        self.put("mining.derive_rules_ms", self.med_ms("mining.derive_rules"), "ms")

        stats = mining.MiningStats()
        maximal = self.call("mining.max_miner", mining.max_miner, datasets[1], data.MINE_MINSUP, stats)
        family = self.call("mining.expand_maximal", mining.expand_maximal, maximal, datasets[1], data.MINE_MINSUP)
        subsets = set()
        for fis in maximal:
            items = tuple(fis.items)
            for mask in range(1, 1 << len(items)):
                subsets.add(frozenset(items[i] for i in range(len(items)) if mask >> i & 1))
        counts, total = oracle.subset_counts(jobs[1].rows)
        if {(tuple(sorted((i.attribute, i.value) for i in f.items)), f.support_count) for f in family} != {
            (items, count) for items, count in counts.items() if oracle.at_least(count, total, data.MINE_MINSUP)
        }:
            self.faults.append("max_miner + expand_maximal differ from the oracle's frequent family")
        self.put("mining.max_miner_ms", self.med_ms("mining.max_miner"), "ms")
        self.put("mining.max_miner_candidates", stats.candidates_generated, "count")
        self.put("mining.expand_maximal_ms", self.med_ms("mining.expand_maximal"), "ms")
        self.put("mining.expand_maximal_subsets", len(subsets), "count")
        self.shared["rules"] = sorted(rules, key=lambda r: r.identity)

    def id3(self):
        from arlearn import id3
        from arlearn.model import Thresholds

        job, dataset = self.shared["jobs"][2], self.shared["datasets"][2]
        tree = self.call("id3.build", id3.id3_build, dataset, dataset.schema, "y")
        rules = self.call("id3.rules", id3.id3_rules, tree, dataset,
                          Thresholds(data.MINE_MINSUP, data.MINE_MINCONF), "y")
        self.faults += oracle.id3_faults(job.rows, [r.to_dict() for r in rules], data.MINE_MINSUP, data.MINE_MINCONF)
        leaves, stack = 0, [tree]
        while stack:
            node = stack.pop()
            if isinstance(node, id3.Leaf):
                leaves += 1
            else:
                stack += [child for _, child in node.children] + [node.null_child]
        self.put("id3.build_ms", self.med_ms("id3.build"), "ms")
        self.put("id3.rules_ms", self.med_ms("id3.rules"), "ms")
        self.put("id3.leaves", leaves, "count")

    def model(self):
        from arlearn.model import validate_row

        dataset = self.shared["datasets"][0]
        for row in dataset.rows:
            self.call("model.validate_row", validate_row, dataset.schema, row)
        for rule in self.shared["rules"]:
            t0 = clock()
            rule.identity
            self.tracer.add("model.rule_identity", t0, clock())
        self.put("model.validate_row_us", self.med_us("model.validate_row"), "us")
        self.put("model.rule_identity_us", self.med_us("model.rule_identity"), "us")

    def engine(self):
        from arlearn.engine import Engine
        from arlearn.model import ItemSet, Thresholds

        job, dataset = self.shared["jobs"][0], self.shared["datasets"][0]
        schema = dataset.schema
        inputs = [a for a in schema.attributes if a.kind == "input"]
        outputs = [a for a in schema.attributes if a.kind == "output"]
        for _ in range(5):
            engine = Engine()
            key = engine.register_app("app")
            engine.set_input_output(key, inputs, outputs)
            self.call("engine.load_training_data", engine.load_training_data, key, dataset.rows)
        engine.generate_rules(key, Thresholds(data.MINE_MINSUP, data.MINE_MINCONF), "apriori")

        queries = job.queries
        for query in queries * 3:
            self.call("engine.get_current_output", engine.get_current_output, key, query)

        scanned = [0]
        real = ItemSet.issubset

        def counting(itemset, other):
            scanned[0] += 1
            return real(itemset, other)

        ItemSet.issubset = counting
        try:
            for query in queries:
                engine.get_current_output(key, query)
        finally:
            ItemSet.issubset = real

        for query in queries:
            if engine.get_current_output(key, query) is not None:
                self.call("engine.send_feedback_last_gco", engine.send_feedback_last_gco, key, "positive")

        engine = Engine()
        key = engine.register_app("rows")
        engine.set_input_output(key, inputs, outputs)
        for row in dataset.rows[:500]:
            self.call("engine.set_training_data_row", engine.set_training_data_row, key, row)

        self.put("engine.load_training_data_ms", self.med_ms("engine.load_training_data"), "ms")
        self.put("engine.get_current_output_us", self.med_us("engine.get_current_output"), "us")
        self.put("engine.rules_scanned_per_query", scanned[0] / len(queries), "count")
        self.put("engine.send_feedback_last_gco_us", self.med_us("engine.send_feedback_last_gco"), "us")
        self.put("engine.set_training_data_row_us", self.med_us("engine.set_training_data_row"), "us")

    def store(self):
        import serve_mixed
        from arlearn.model import TrainingRow
        from arlearn.store import open_store

        plans = data.serve_apps(self.seed)
        root = self.workdir / "store"
        start = serve_mixed.prepare_store(root, plans)
        for _ in range(5):
            store = self.call("store.open_store", open_store, root)
        # the application with the most rules
        plan = max(plans, key=lambda p: (len(start[p.name]["rules"]), p.name))
        ctx = store.contexts()[start[plan.name]["key"]]
        counter = FsyncCounter()
        counter.prime(root)
        with counter:
            for _ in range(50):
                self.call("store.persist_context", store.persist_context, ctx)
            persist = counter.take()
            for row in plan.inserts * 3:
                self.call("store.append_row", store.append_row, ctx.key, TrainingRow.from_dict(row))
            append = counter.take()
            for _ in range(10):
                self.call("store.compact", store.compact, ctx.key)
            compact = counter.take()
        self.shared.update(root=root, store=store, plan=plan, key=ctx.key)
        self.put("store.open_store_ms", self.med_ms("store.open_store"), "ms")
        self.put("store.persist_context_us", self.med_us("store.persist_context"), "us")
        self.put("store.persist_context_fsyncs", persist[0] / 50, "count")
        self.put("store.persist_context_bytes", persist[1] / 50, "bytes")
        self.put("store.append_row_us", self.med_us("store.append_row"), "us")
        self.put("store.append_row_fsyncs", append[0] / (3 * len(plan.inserts)), "count")
        self.put("store.compact_ms", self.med_ms("store.compact"), "ms")
        self.put("store.compact_bytes", compact[1] / 10, "bytes")
        self.info["rules_in_store_app"] = len(ctx.rules)

    def daemon(self):
        from arlearn import daemon
        from arlearn.engine import Engine

        store, plan, key = self.shared["store"], self.shared["plan"], self.shared["key"]
        engine = Engine.restore(store.contexts().values())
        requests = [{"request": "get_current_output", "key": key, "params": {"inputs": q}} for q in plan.queries]
        for request in requests * 3:
            self.call("daemon.dispatch_query", daemon.dispatch, request, engine, None)
        counter = FsyncCounter()
        counter.prime(self.shared["root"])
        with counter:
            for request in requests * 3:
                self.call("daemon.dispatch_query_store", daemon.dispatch, request, engine, store)
            fsyncs, written = counter.take()
        self.put("daemon.dispatch_query_us", self.med_us("daemon.dispatch_query"), "us")
        self.put("daemon.dispatch_query_store_us", self.med_us("daemon.dispatch_query_store"), "us")
        self.put("store.fsyncs_per_query", fsyncs / (3 * len(requests)), "count")
        self.put("store.bytes_per_query", written / (3 * len(requests)), "bytes")

        empty = self.workdir / "empty-store"
        child = Daemon(empty, self.workdir / "ping.sock")
        try:
            child.start()
            conn = Connection(child.address)
            try:
                for _ in range(300):
                    self.call("daemon.ping", conn.call, {"request": "ping", "id": 1})
            finally:
                conn.close()
        finally:
            child.stop()
        self.put("daemon.ping_rtt_us", self.med_us("daemon.ping"), "us")

    def syslearn(self):
        from arlearn import syslearn

        trace = self.workdir / "trace.jsonl"
        data.write_trace(self.seed, trace)
        _, binning_dict = data.trace_spec()
        binning = syslearn.BinningConfig.from_dict(binning_dict)
        for _ in range(5):
            events = self.call("syslearn.parse_trace", syslearn.parse_trace, trace)
        state: dict = {}
        states = []
        for event in events:
            if event.kind == syslearn.SENSOR:
                state[event.name] = event.value
            else:
                states.append(dict(state))
        for snapshot in states * 3:
            self.call("syslearn.bin_state", syslearn.bin_state, snapshot, binning)
        self.put("syslearn.parse_trace_ms", self.med_ms("syslearn.parse_trace"), "ms")
        self.put("syslearn.bin_state_us", self.med_us("syslearn.bin_state"), "us")


def span_overhead_us(calls: int = 20000) -> float:
    """What recording one span adds to a call, from a no-op timed both ways."""
    probe = Tracer()
    t0 = clock()
    for _ in range(calls):
        int()
    bare = clock() - t0
    t0 = clock()
    for _ in range(calls):
        start = clock()
        int()
        probe.add("noop", start, clock())
    return (clock() - t0 - bare) / calls / 1e3


def run(workload: str, seed: int, workdir: Path, runs_dir: Path, profile_top: int) -> dict:
    suite = Suite(seed, workdir)
    suite.info["span_overhead_us"] = span_overhead_us()
    tag = f"{workload}-s{seed}"
    for layer in LAYERS:
        sid = suite.tracer.begin(f"layer.{layer}")
        profiler = cProfile.Profile() if profile_top else None
        if profiler:
            profiler.enable()
        try:
            getattr(suite, layer)()
        finally:
            if profiler:
                profiler.disable()
            suite.tracer.end(sid)
        if profiler:
            out = io.StringIO()
            pstats.Stats(profiler, stream=out).sort_stats("cumulative").print_stats(profile_top)
            (runs_dir / f"profile-{tag}-{layer}.txt").write_text(out.getvalue(), encoding="utf-8")
    suite.tracer.write(runs_dir / f"trace-{tag}.jsonl")
    layer_ms = {name[6:]: round(ms / 1e6, 1) for name, ms in
                ((n, sum(suite.tracer.durations(n))) for n in (f"layer.{x}" for x in LAYERS))}
    suite.info["layer_wall_ms"] = layer_ms
    calls = sum(1 for _, name, _, _, _ in suite.tracer.spans if not name.startswith("layer."))
    return {"faults": suite.faults, "attempted": calls, "failed": 0, "metrics": suite.metrics, "info": suite.info}
