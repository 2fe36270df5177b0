"""replay-online: ``syslearn.replay`` over a generated trace, remining after every row.

``replay`` keeps its own loop; the calls it makes into the engine are
timed by ``TimedEngine``, whose methods do nothing but time the parent
call. Set-up is ``parse_trace`` plus registering the app. After the
measured replays one more replay, untimed, checks every answer, and the
measured replays must have reported exactly what it reported.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from statistics import median

import data
import oracle
from common import ms, p90, self_peak_rss_mb

SETUP_REPEATS = 15


def _engine_classes():
    from arlearn.engine import Engine
    from arlearn.errors import EngineError

    class TimedEngine(Engine):
        def __init__(self, times: dict):
            super().__init__()
            self.times = times

        def get_current_output(self, key, inputs):
            t0 = time.perf_counter_ns()
            try:
                return super().get_current_output(key, inputs)
            finally:
                self.times["query"].append(time.perf_counter_ns() - t0)

        def set_training_data_row(self, key, row):
            t0 = time.perf_counter_ns()
            try:
                return super().set_training_data_row(key, row)
            finally:
                self.times["learn"].append(time.perf_counter_ns() - t0)

        def generate_rules(self, key, thresholds, algorithm):
            t0 = time.perf_counter_ns()
            try:
                return super().generate_rules(key, thresholds, algorithm)
            finally:
                self.times["mine"].append(time.perf_counter_ns() - t0)

    class CheckingEngine(Engine):
        """Checks each answer against the rules the last ``generate_rules`` returned."""

        def __init__(self):
            super().__init__()
            self.rules = None
            self.faults: list[str] = []
            self.calls = 0

        def generate_rules(self, key, thresholds, algorithm):
            rules = super().generate_rules(key, thresholds, algorithm)
            self.rules = [r.to_dict() for r in rules]
            return rules

        def get_current_output(self, key, inputs):
            self.calls += 1
            try:
                result = super().get_current_output(key, inputs)
            except EngineError as exc:
                if not (exc.code == "no-rules-generated" and self.rules is None):
                    self.faults.append(f"query {self.calls} raised {exc.code}")
                raise
            if self.rules is None:
                self.faults.append(f"query {self.calls} answered before any rules were generated")
                return result
            want = oracle.best_rule(self.rules, inputs)
            got = None if result is None else result.rule.to_dict()
            if want != got:
                self.faults.append(f"query {self.calls} on {inputs} answered {got}, expected {want}")
            return result

    return TimedEngine, CheckingEngine


def bin_raw(signal: dict, raw) -> str:
    """The binning of the spec's signal kinds, written apart from ``syslearn``."""
    if signal["kind"] == "categorical":
        return raw
    hour, minute = (int(p) for p in raw.split(":"))
    start = (hour * 60 + minute) // signal["width_minutes"] * signal["width_minutes"]
    return f"{start // 60:02d}:{start % 60:02d}"


def learned_rows(trace: Path, spec: dict) -> tuple[list[dict], list[tuple[float, str]]]:
    """The rows replay must learn, and the actions in order, read straight from the file."""
    signals = {s["signal"]: s for s in spec["signals"]}
    state: dict[str, str] = {}
    rows, actions = [], []
    for line in trace.read_text(encoding="utf-8").splitlines():
        event = json.loads(line)
        if "sensor" in event:
            signal = signals[event["sensor"]["name"]]
            state[signal["attribute"]] = bin_raw(signal, event["sensor"]["value"])
        else:
            action = event["action"]
            rows.append({"inputs": dict(state), "outputs": {action["name"]: action["value"]}, "weight": 1})
            actions.append((event["t"], action["value"]))
    return rows, actions


def _digest(report) -> str:
    return hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest()


def check(report, spec: dict, sidecar: dict, trace: Path) -> list[str]:
    faults = []
    rules = [r.to_dict() for r in report.rules]
    action = spec["action"]["name"]
    for pattern in spec["patterns"]:
        cond = pattern["when"]
        frequency = sidecar.get(oracle.encode(cond.items()))
        hits = [r for r in rules if r["antecedent"] == cond and r["consequent"] == {action: pattern["value"]}]
        if frequency is None or len(hits) != 1 or hits[0]["confidence"] != frequency:
            faults.append(f"planted pattern {cond} => {pattern['value']}: learned "
                          f"{[h['confidence'] for h in hits]}, sidecar frequency {frequency}")
    rows, actions = learned_rows(trace, spec)
    value_at = dict(actions)
    matched = sum(1 for p in report.predictions if p.predicted.get(p.action_attribute) == value_at[p.t])
    fired = len(report.predictions)
    if (report.actions_total, report.fired, report.matched) != (len(actions), fired, matched):
        faults.append(f"replay counted {report.actions_total}/{report.fired}/{report.matched} actions/fired/matched, "
                      f"recount {len(actions)}/{fired}/{matched}")
    if report.precision != (matched / fired if fired else 0.0) or report.recall != matched / len(actions):
        faults.append(f"precision/recall {report.precision}/{report.recall} differ from the recount")
    inputs = [s["attribute"] for s in spec["signals"]]
    want = oracle.expected_rules(rows, inputs, data.REPLAY_MINSUP, data.REPLAY_MINCONF)
    got = {oracle.rule_tuple(r) for r in rules}
    if got != want or len(rules) != len(want):
        faults.append(f"final rules differ from the oracle ({len(got - want)} extra, {len(want - got)} missing)")
    return faults


def run(seed: int, seconds: float, workdir: Path) -> dict:
    from arlearn import syslearn
    from arlearn.model import Thresholds

    TimedEngine, CheckingEngine = _engine_classes()
    spec, binning_dict = data.trace_spec()
    trace = workdir / "trace.jsonl"
    data.write_trace(seed, trace)
    sidecar = json.loads(trace.with_name(trace.name + ".sidecar.json").read_text(encoding="utf-8"))
    thresholds = Thresholds(data.REPLAY_MINSUP, data.REPLAY_MINCONF)
    policy = syslearn.ReplayPolicy(regenerate_every=1)

    times = {"query": [], "learn": [], "mine": []}
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        events = syslearn.parse_trace(trace)
        binning = syslearn.BinningConfig.from_dict(binning_dict)
        engine = TimedEngine(times)
        syslearn.register_system_app(engine, binning)
        setups.append(time.perf_counter() - t0)

    digests = []
    t_start = time.perf_counter()
    deadline = t_start + seconds
    while True:
        report = syslearn.replay(events, engine, binning, thresholds, data.REPLAY_ALGORITHM, policy)
        digests.append(_digest(report))
        if time.perf_counter() >= deadline:
            break
        engine = TimedEngine(times)
        syslearn.register_system_app(engine, binning)
    elapsed = time.perf_counter() - t_start
    peak = self_peak_rss_mb()

    checker = CheckingEngine()
    syslearn.register_system_app(checker, binning)
    report = syslearn.replay(events, checker, binning, thresholds, data.REPLAY_ALGORITHM, policy)
    faults = checker.faults[:20] + check(report, spec, sidecar, trace)
    if any(d != _digest(report) for d in digests):
        faults.append("a measured replay reported differently from the checked replay")

    attempted = sum(len(v) for v in times.values())
    return {
        "faults": faults,
        "attempted": attempted,
        "failed": 0,
        "metrics": {
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (peak, "MB"),
            "ops_per_s": (attempted / elapsed, "1/s"),
            "query_p50_ms": (ms(median(times["query"])), "ms"),
            "query_p90_ms": (ms(p90(times["query"])), "ms"),
            "learn_p50_ms": (ms(median(times["learn"])), "ms"),
            "mine_p50_ms": (ms(median(times["mine"])), "ms"),
        },
        "info": {"setups_s": [round(s, 5) for s in setups], "replays": len(digests), "elapsed_s": elapsed,
                 "actions": report.actions_total, "rules": len(report.rules),
                 "precision": report.precision, "recall": report.recall},
    }
