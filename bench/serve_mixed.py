"""serve-mixed: ``arlearn serve`` in a child, over a Unix socket, store on.

The daemon starts on a prepared store of many applications. The
benchmark drives a closed loop over one connection: each request is sent
when the previous answer has arrived. One connection, not two, because
on a two-core host a second connection's requests wait out the
interpreter's switch interval behind the first one's mining, which set
the query tail more than the daemon did. (Two connections would also
need disjoint applications: two on one key race on the store's shared
temp file.) After the run the daemon is stopped, its store is reopened
with ``open_store``, and every application must hold exactly what the
acknowledged requests imply.
"""

from __future__ import annotations

import time
from pathlib import Path
from statistics import median

import data
import oracle
from common import Connection, Daemon, ms, p90

SETUP_REPEATS = 5
STEPS = 5  # per application per round: STEPS x (QUERIES queries, 1 insert)
QUERIES = 4
# the engine's default FeedbackPolicy, clamped to [0, 1]
FEEDBACK_STEP = {"positive": 0.05, "negative": -0.10}


def row_key(row: dict) -> tuple:
    return (
        tuple(sorted(row["inputs"].items())),
        tuple(sorted(row["outputs"].items())),
        row.get("weight", 1),
    )


def rule_key(rule: dict) -> tuple:
    return oracle.rule_tuple(rule) + (rule["active"],)


def prepare_store(root: Path, plans: list[data.AppPlan]) -> dict:
    """Write the starting store through the program's own engine and store."""
    from arlearn.engine import Engine
    from arlearn.model import Thresholds, TrainingRow, parse_attribute_literal
    from arlearn.store import open_store

    store = open_store(root)
    engine = Engine()
    start = {}
    for plan in plans:
        key = engine.register_app(plan.name)
        inputs = [parse_attribute_literal(a.literal()) for a in plan.spec.inputs]
        outputs = [parse_attribute_literal(a.literal()) for a in plan.spec.outputs]
        engine.set_input_output(key, inputs, outputs)
        engine.load_training_data(key, [TrainingRow.from_dict(r) for r in plan.rows])
        rules = engine.generate_rules(key, Thresholds(data.SERVE_MINSUP, data.SERVE_MINCONF), plan.algorithm)
        ctx = engine.context(key)
        store.persist_context(ctx)
        store.compact(key)
        start[plan.name] = {"key": key, "rules": [r.to_dict() for r in rules]}
    return start


class Client:
    """The closed loop over one connection."""

    def __init__(self, conn: Connection, plans: list[data.AppPlan], start: dict):
        self.conn = conn
        self.plans = plans
        self.keys = {p.name: start[p.name]["key"] for p in plans}
        self.log: dict[str, list] = {p.name: [] for p in plans}
        self.latency: dict[str, list[int]] = {"query": [], "learn": [], "mine": [], "other": []}
        self.failed = 0
        self._cursor = {p.name: [0, 0, 0, 0] for p in plans}  # query, insert, verdict, matched

    def call(self, plan: data.AppPlan, verb: str, kind: str, params: dict) -> dict:
        request = {"request": verb, "key": self.keys[plan.name], "id": len(self.log[plan.name]), "params": params}
        response, elapsed = self.conn.timed_call(request)
        self.latency[kind].append(elapsed)
        if not response.get("ok"):
            self.failed += 1
        self.log[plan.name].append((verb, params, response))
        return response

    def block(self, plan: data.AppPlan) -> None:
        cur = self._cursor[plan.name]
        inserted = None
        for _ in range(STEPS):
            for _ in range(QUERIES):
                query = plan.queries[cur[0] % len(plan.queries)]
                cur[0] += 1
                answer = self.call(plan, "get_current_output", "query", {"inputs": query})
                if answer.get("ok") and answer["result"]["output"] is not None:
                    cur[3] += 1
                    if cur[3] % 2:
                        verdict = plan.verdicts[cur[2] % len(plan.verdicts)]
                        cur[2] += 1
                        self.call(plan, "send_feedback_last_gco", "other", {"verdict": verdict})
            inserted = plan.inserts[cur[1] % len(plan.inserts)]
            cur[1] += 1
            self.call(plan, "set_training_data_row", "learn", {"row": inserted})
        self.call(plan, "delete_training_data_row", "other", {"match": inserted["inputs"], "mode": "first"})
        self.call(plan, "generate_rules", "mine", {
            "min_support": data.SERVE_MINSUP, "min_confidence": data.SERVE_MINCONF, "algorithm": plan.algorithm,
        })

    def run(self, deadline: float) -> None:
        """Whole rounds, every application once per round, until the deadline."""
        while True:
            for plan in self.plans:
                self.block(plan)
            if time.perf_counter() >= deadline:
                break


def check(plans: list[data.AppPlan], start: dict, logs: dict, store_root: Path) -> list[str]:
    """Replay each application's acknowledged requests and compare with the reopened store."""
    from arlearn.store import open_store

    faults: list[str] = []
    stored = {ctx.name: ctx for ctx in open_store(store_root).contexts().values()}
    for plan in plans:
        rows = list(plan.rows)
        rules = [dict(r) for r in start[plan.name]["rules"]]
        inputs = [a.name for a in plan.spec.inputs]
        last_answer = None
        oracle_checked = False
        for verb, params, response in logs[plan.name]:
            if not response.get("ok"):
                last_answer = None
                continue
            result = response["result"]
            if verb == "get_current_output":
                want = oracle.best_rule(rules, params["inputs"])
                if want is None:
                    if result["output"] is not None:
                        faults.append(f"{plan.name}: answered {result.get('rule_id')} where no active rule matches")
                    last_answer = None
                elif result["output"] is None or result["rule_id"] != oracle.identity(want) \
                        or rule_key(result["rule"]) != rule_key(want) or result["output"] != want["consequent"]:
                    faults.append(f"{plan.name}: query {params['inputs']} answered {result.get('rule_id')}, "
                                  f"expected {oracle.identity(want)}")
                    last_answer = None
                else:
                    last_answer = want
            elif verb == "send_feedback_last_gco":
                if last_answer is None:
                    faults.append(f"{plan.name}: feedback acknowledged without a matched answer")
                    continue
                step = FEEDBACK_STEP[params["verdict"]]
                if result["confidence"] != min(max(last_answer["confidence"] + step, 0.0), 1.0):
                    faults.append(f"{plan.name}: feedback moved {last_answer['confidence']} to {result['confidence']}")
                last_answer["confidence"] = result["confidence"]
                last_answer["active"] = not (result["confidence"] < data.SERVE_MINCONF)
                last_answer = None
            elif verb == "set_training_data_row":
                rows.append(params["row"])
            elif verb == "delete_training_data_row":
                hits = [i for i, r in enumerate(rows)
                        if all(r["inputs"].get(a) == v for a, v in params["match"].items())]
                if result["deleted"] != min(1, len(hits)):
                    faults.append(f"{plan.name}: delete reported {result['deleted']}, expected {min(1, len(hits))}")
                if hits:
                    del rows[hits[0]]
            elif verb == "generate_rules":
                rules = [dict(r) for r in result["rules"]]
                if not oracle_checked:
                    oracle_checked = True
                    want = oracle.expected_rules(rows, inputs, data.SERVE_MINSUP, data.SERVE_MINCONF)
                    got = {oracle.rule_tuple(r) for r in rules}
                    if got != want or len(rules) != len(want):
                        faults.append(f"{plan.name}: {plan.algorithm} rules differ from the oracle "
                                      f"({len(got - want)} extra, {len(want - got)} missing)")
        ctx = stored.get(plan.name)
        if ctx is None:
            faults.append(f"{plan.name}: missing from the reopened store")
            continue
        if [row_key(r.to_dict()) for r in ctx.dataset.rows] != [row_key(r) for r in rows]:
            faults.append(f"{plan.name}: reopened rows differ from the acknowledged history")
        if [rule_key(r.to_dict()) for r in ctx.rules] != [rule_key(r) for r in rules]:
            faults.append(f"{plan.name}: reopened rules differ from the acknowledged history")
    return faults


def run(seed: int, seconds: float, workdir: Path) -> dict:
    plans = data.serve_apps(seed)
    store_root = workdir / "store"
    sock_path = workdir / "arlearn.sock"
    start = prepare_store(store_root, plans)

    setups = []
    daemon = Daemon(store_root, sock_path)
    try:
        for attempt in range(SETUP_REPEATS):
            setups.append(daemon.start())
            if attempt < SETUP_REPEATS - 1:
                daemon.stop()

        conn = Connection(daemon.address)
        try:
            client = Client(conn, plans, start)
            t_start = time.perf_counter()
            client.run(t_start + seconds)
            elapsed = time.perf_counter() - t_start
        finally:
            conn.close()
    finally:
        daemon.stop()

    lat = client.latency
    attempted = sum(len(v) for v in lat.values())
    faults = check(plans, start, client.log, store_root)
    return {
        "faults": faults,
        "attempted": attempted,
        "failed": client.failed,
        "metrics": {
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (daemon.peak_rss_mb, "MB"),
            "ops_per_s": (attempted / elapsed, "1/s"),
            "query_p50_ms": (ms(median(lat["query"])), "ms"),
            "query_p90_ms": (ms(p90(lat["query"])), "ms"),
            "learn_p50_ms": (ms(median(lat["learn"])), "ms"),
            "mine_p50_ms": (ms(median(lat["mine"])), "ms"),
        },
        "info": {"setups_s": setups, "rounds_ops": {k: len(v) for k, v in lat.items()},
                 "elapsed_s": elapsed},
    }
