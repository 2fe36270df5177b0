"""mine-batch: train-then-predict cycles in process, with no store and no socket.

Set-up reads one dataset file per miner the way ``arlearn mine`` does. A
round is three cycles, one per miner; each cycle loads its dataset into
a fresh application (learn), mines it (mine) and answers its held-out
queries. Rounds repeat until the time is up. The first round is checked
against the oracle; every later round must repeat it exactly.
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

SETUP_REPEATS = 5
MIN_RULES = {"apriori": 50, "maxminer": 50, "id3": 5}


def _cycle(job: data.MineJob, dataset, times: dict) -> tuple[list, list]:
    from arlearn.engine import Engine
    from arlearn.model import Thresholds

    schema = dataset.schema
    engine = Engine()
    key = engine.register_app("job")
    engine.set_input_output(
        key,
        [a for a in schema.attributes if a.kind == "input"],
        [a for a in schema.attributes if a.kind == "output"],
    )
    clock = time.perf_counter_ns
    rows = dataset.rows
    t0 = clock()
    engine.load_training_data(key, rows)
    t1 = clock()
    rules = engine.generate_rules(key, Thresholds(data.MINE_MINSUP, data.MINE_MINCONF), job.algorithm)
    t2 = clock()
    times["learn"].append(t1 - t0)
    times["mine"].append(t2 - t1)
    answers = []
    query_times = times["query"]
    for query in job.queries:
        t0 = clock()
        result = engine.get_current_output(key, query)
        t1 = clock()
        query_times.append(t1 - t0)
        answers.append(result)
    return rules, answers


def _summary(rules: list, answers: list) -> tuple[list[dict], list]:
    return [r.to_dict() for r in rules], [None if a is None else a.rule.identity for a in answers]


def _digest(summary) -> str:
    return hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()


def check(jobs: list[data.MineJob], first: list, digests: list[list[str]]) -> list[str]:
    faults = []
    for index, (job, (rules, answers)) in enumerate(zip(jobs, first)):
        name = f"job {index} ({job.algorithm})"
        if len(rules) < MIN_RULES[job.algorithm]:
            faults.append(f"{name}: {len(rules)} rules, fewer than {MIN_RULES[job.algorithm]}")
        if job.algorithm == "id3":
            faults += [f"{name}: {f}" for f in oracle.id3_faults(job.rows, rules, data.MINE_MINSUP, data.MINE_MINCONF)]
        else:
            want = oracle.expected_rules(
                job.rows, [a.name for a in job.spec.inputs], data.MINE_MINSUP, data.MINE_MINCONF
            )
            got = [oracle.rule_tuple(r) for r in rules]
            if set(got) != want or len(got) != len(want):
                faults.append(f"{name}: rules differ from the oracle "
                              f"({len(set(got) - want)} extra, {len(want - set(got))} missing)")
        for query, answer in zip(job.queries, answers):
            want = oracle.best_rule(rules, query)
            if (None if want is None else oracle.identity(want)) != answer:
                faults.append(f"{name}: query {query} answered {answer}")
        for round_index, round_digests in enumerate(digests[1:], start=2):
            if round_digests[index] != digests[0][index]:
                faults.append(f"{name}: round {round_index} differs from round 1")
    return faults


def run(seed: int, seconds: float, workdir: Path) -> dict:
    from arlearn.cli import load_data_file

    jobs = data.mine_jobs(seed, workdir)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        datasets = [load_data_file(job.path) for job in jobs]
        setups.append(time.perf_counter() - t0)

    times = {"learn": [], "mine": [], "query": []}
    first = []
    digests = []
    t_start = time.perf_counter()
    deadline = t_start + seconds
    while True:
        round_digests = []
        for job, dataset in zip(jobs, datasets):
            summary = _summary(*_cycle(job, dataset, times))
            if not digests:
                first.append(summary)
            round_digests.append(_digest(summary))
        digests.append(round_digests)
        if time.perf_counter() >= deadline:
            break
    elapsed = time.perf_counter() - t_start
    peak = self_peak_rss_mb()

    attempted = sum(len(v) for v in times.values())
    return {
        "faults": check(jobs, first, digests),
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
        "info": {"setups_s": setups, "rounds": len(digests), "elapsed_s": elapsed,
                 "rules": [len(r) for r, _ in first],
                 "mine_ms": [round(ms(t), 1) for t in times["mine"]]},
    }
