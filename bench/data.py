"""Seeded inputs for every workload.

Everything here depends only on the seed it is given: the same seed gives
the same datasets, query streams, application specs and trace specs. The
program under test only ever sees what these functions produce.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# mine-batch: one dataset per miner, mined with the same thresholds
MINE_ROWS = 2000
MINE_INPUTS = 5
MINE_VALUES = 3
MINE_CLASSES = 3
MINE_QUERIES = 500
MINE_MINSUP = 0.03
MINE_MINCONF = 0.5
MINE_ALGORITHMS = ("apriori", "maxminer", "id3")

# serve-mixed: a store of many applications of varied size
SERVE_APPS = 24
SERVE_MINSUP = 0.05
SERVE_MINCONF = 0.4

# replay-online
REPLAY_ACTIONS = 120
REPLAY_MINSUP = 0.05
REPLAY_MINCONF = 0.5
REPLAY_ALGORITHM = "apriori"


def rng_for(seed: int, purpose: str) -> random.Random:
    """An independent stream per purpose, stable across interpreters."""
    return random.Random(f"{seed}:{purpose}")


@dataclass(frozen=True)
class AttrSpec:
    name: str
    kind: str
    domain: tuple[str, ...]

    def literal(self) -> str:
        return f"{self.name}:{self.kind}:{{{','.join(self.domain)}}}"


@dataclass(frozen=True)
class TableSpec:
    """A categorical schema plus the planted structure its rows follow.

    The first input decides the first output outright for its first value,
    through the second input for its second value, through the third and
    fourth inputs (two combinations in three) for its third value, and
    leaves the output random otherwise. ID3 therefore finds pure leaves at
    depths one to three, and the miners find rules of every length.
    """

    inputs: tuple[AttrSpec, ...]
    outputs: tuple[AttrSpec, ...]
    root_map: tuple[str, ...]  # class for root value 0
    second_map: tuple[str, ...]  # class per value of the second input
    third_map: dict  # (third value, fourth value) -> class, partial
    null_rate: float
    heavy_rate: float

    def literals(self) -> list[str]:
        return [a.literal() for a in self.inputs + self.outputs]


def table_spec(n_inputs: int, n_values: int, classes: tuple[int, ...]) -> TableSpec:
    """The shape depends on the sizes alone; seeds only change which rows are drawn."""
    inputs = tuple(
        AttrSpec(f"x{i}", "input", tuple(f"v{j}" for j in range(n_values))) for i in range(n_inputs)
    )
    outputs = tuple(
        AttrSpec(f"y{k}" if len(classes) > 1 else "y", "output", tuple(f"c{j}" for j in range(n)))
        for k, n in enumerate(classes)
    )
    first = outputs[0].domain
    third_map = {}
    if n_inputs >= 4:
        for i, u in enumerate(inputs[2].domain):
            for j, w in enumerate(inputs[3].domain):
                if (i + j) % 3 != 2:
                    third_map[(u, w)] = first[(i + 2 * j) % len(first)]
    return TableSpec(
        inputs=inputs,
        outputs=outputs,
        root_map=(first[0],),
        second_map=tuple(first[(i + 1) % len(first)] for i in range(n_values)),
        third_map=third_map,
        null_rate=0.04,
        heavy_rate=0.1,
    )


def _first_output(spec: TableSpec, x: dict, rng: random.Random) -> str:
    root = spec.inputs[0].domain
    first = spec.outputs[0].domain
    value = x.get(spec.inputs[0].name)
    if value == root[0]:
        return spec.root_map[0]
    if value == root[1] and spec.inputs[1].name in x:
        return spec.second_map[spec.inputs[1].domain.index(x[spec.inputs[1].name])]
    if len(root) > 2 and value == root[2] and len(spec.inputs) >= 4:
        combo = (x.get(spec.inputs[2].name), x.get(spec.inputs[3].name))
        if combo in spec.third_map:
            return spec.third_map[combo]
    return rng.choice(first)


def _balanced_column(rng: random.Random, domain: tuple[str, ...], n: int) -> list[str]:
    column = [domain[i % len(domain)] for i in range(n)]
    rng.shuffle(column)
    return column


def table_rows(spec: TableSpec, rng: random.Random, n: int) -> list[dict]:
    """Rows as the wire/file dicts: balanced input columns, planted outputs."""
    columns = {a.name: _balanced_column(rng, a.domain, n) for a in spec.inputs}
    rows = []
    for i in range(n):
        x = {}
        for index, attr in enumerate(spec.inputs):
            # the root is always bound so every row reaches a planted branch
            if index == 0 or rng.random() >= spec.null_rate:
                x[attr.name] = columns[attr.name][i]
        y = {spec.outputs[0].name: _first_output(spec, x, rng)}
        for attr in spec.outputs[1:]:
            # later outputs copy the first output's index when they can
            idx = spec.outputs[0].domain.index(y[spec.outputs[0].name])
            y[attr.name] = attr.domain[idx % len(attr.domain)] if rng.random() < 0.8 else rng.choice(attr.domain)
        weight = 2 if rng.random() < spec.heavy_rate else 1
        rows.append({"inputs": x, "outputs": y, "weight": weight})
    return rows


def table_queries(spec: TableSpec, rng: random.Random, n: int) -> list[dict]:
    """Held-out input assignments; about one in four leaves one input unbound."""
    queries = []
    for _ in range(n):
        q = {a.name: rng.choice(a.domain) for a in spec.inputs}
        if rng.random() < 0.25:
            del q[rng.choice(spec.inputs).name]
        queries.append(q)
    return queries


# -- mine-batch ------------------------------------------------------------


@dataclass
class MineJob:
    algorithm: str
    spec: TableSpec
    rows: list[dict]
    queries: list[dict]
    path: Path


def write_data_file(path: Path, spec: TableSpec, rows: list[dict]) -> None:
    """The ``arlearn mine`` file format: schema header, then one row per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"attributes": spec.literals()}) + "\n")
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def mine_jobs(seed: int, workdir: Path) -> list[MineJob]:
    jobs = []
    for index, algorithm in enumerate(MINE_ALGORITHMS):
        rng = rng_for(seed, f"mine-{index}")
        spec = table_spec(MINE_INPUTS, MINE_VALUES, (MINE_CLASSES,))
        rows = table_rows(spec, rng, MINE_ROWS)
        path = workdir / f"mine-{index}.jsonl"
        write_data_file(path, spec, rows)
        jobs.append(MineJob(algorithm, spec, rows, table_queries(spec, rng, MINE_QUERIES), path))
    return jobs


# -- serve-mixed -----------------------------------------------------------


@dataclass
class AppPlan:
    name: str
    spec: TableSpec
    algorithm: str
    rows: list[dict]
    queries: list[dict]  # the query stream, cycled
    inserts: list[dict]  # rows to insert, cycled
    verdicts: list[str]  # feedback verdicts, cycled


def serve_apps(seed: int) -> list[AppPlan]:
    """Schemas from 3 inputs x 2 values up to 7 inputs x 4 values."""
    apps = []
    for j in range(SERVE_APPS):
        rng = rng_for(seed, f"app-{j}")
        n_inputs = 3 + j % 5
        n_values = 2 + j % 3
        classes = (3,) if j % 4 else (3, 2)
        spec = table_spec(n_inputs, n_values, classes)
        rows = table_rows(spec, rng, 160 + 20 * (j % 6))
        apps.append(
            AppPlan(
                name=f"app{j:02d}",
                spec=spec,
                algorithm="maxminer" if j % 3 == 2 else "apriori",
                rows=rows,
                queries=table_queries(spec, rng, 64),
                inserts=table_rows(spec, rng, 16),
                verdicts=["negative" if rng.random() < 0.2 else "positive" for _ in range(32)],
            )
        )
    return apps


# -- replay-online -----------------------------------------------------------


def write_trace(seed: int, path: Path) -> dict:
    """A ``generate_trace`` trace that ends on its REPLAY_ACTIONS-th action.

    Replay cost grows with the square of the actions, so their number is
    fixed: a long probe trace finds the length at which the action count
    is reached, and the same seed at that length gives its prefix.
    """
    from arlearn.syslearn import generate_trace

    spec, _ = trace_spec()
    probe = path.with_name(path.name + ".probe")
    generate_trace(spec, seed, 20 * REPLAY_ACTIONS, probe, probe.with_name(probe.name + ".sidecar"))
    actions = 0
    with open(probe, encoding="utf-8") as fh:
        for length, line in enumerate(fh, start=1):
            actions += '"action"' in line
            if actions == REPLAY_ACTIONS:
                break
    return generate_trace(spec, seed, length, path, path.with_name(path.name + ".sidecar.json"))


def trace_spec() -> tuple[dict, dict]:
    """A trace spec with planted patterns and the binning config that reads it.

    The seed goes to ``generate_trace``; the spec itself is fixed.
    """
    places = ["home", "work", "gym"]
    spec = {
        "signals": [
            {"signal": "clock", "attribute": "hour", "kind": "timeofday", "width_minutes": 360},
            {"signal": "headphones", "attribute": "headphones", "kind": "categorical", "domain": ["yes", "no"],
             "weights": [0.6, 0.4]},
            # categorical, not intervals: generate_trace can draw an interval's
            # upper edge, which no bin holds (see CHANGES.md)
            {"signal": "battery", "attribute": "battery", "kind": "categorical", "domain": ["low", "mid", "high"],
             "weights": [0.5, 0.25, 0.25]},
            {"signal": "wifi", "attribute": "wifi", "kind": "categorical", "domain": ["on", "off"]},
            {"signal": "place", "attribute": "place", "kind": "categorical", "domain": places,
             "weights": [0.4, 0.3, 0.3]},
        ],
        "action": {"name": "app_launched", "background": "none"},
        # disjoint conditions, so no pattern shadows another in the generator
        "patterns": [
            {"when": {"place": "home", "headphones": "yes"}, "value": "music", "probability": 0.9},
            {"when": {"place": "work"}, "value": "news", "probability": 0.85},
            {"when": {"place": "gym"}, "value": "settings", "probability": 0.85},
        ],
        "churn": 0.5,
        "action_rate": 0.6,
        "step_seconds": [60, 900],
    }
    binning = {
        "signals": [{k: v for k, v in s.items() if k != "weights"} for s in spec["signals"]],
        "actions": [{"attribute": "app_launched", "domain": ["music", "news", "settings", "none"]}],
    }
    return spec, binning
