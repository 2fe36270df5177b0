"""Shared generators and fixtures used by unit and acceptance tests."""

import json
import os
import random
from pathlib import Path
from typing import Callable, Collection, Iterable, Mapping, Optional, Sequence

import arlearn
from arlearn.id3 import DecisionNode, Leaf, Split, entropy
from arlearn.model import AttributeSchema, Dataset, Schema, TrainingRow


def cli_env(**overrides: str) -> dict[str, str]:
    """Environment for a ``python -m arlearn.cli`` child process.

    The absolute directory holding the ``arlearn`` package this process imported
    goes first on the child's PYTHONPATH, ahead of any inherited entries. The
    child then runs the code under test whatever its working directory, even
    when the parent was given a relative PYTHONPATH such as ``src``.
    """
    package_root = str(Path(arlearn.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    python_path = os.pathsep.join([package_root, inherited]) if inherited else package_root
    return dict(os.environ, PYTHONPATH=python_path, **overrides)


def rewrite_stored_rules(app_dir: Path, change: Callable[[list], None]) -> None:
    """Apply ``change`` to the rule records of the snapshot in ``app_dir/meta.json``, in place."""
    meta_path = app_dir / "meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    change(meta["rules"])
    meta_path.write_text(json.dumps(meta), encoding="utf-8")


def random_schema(rng: random.Random, values: Optional[int] = None) -> Schema:
    """A small schema whose total item universe stays within the oracle bound.

    With ``values`` every attribute has that many values instead, and the
    bound no longer holds.
    """
    n_inputs = rng.randint(2, 4)
    n_outputs = rng.randint(1, 2)
    budget = 12 - 2 * (n_inputs + n_outputs)
    attrs = []
    for index in range(n_inputs + n_outputs):
        extra = rng.randint(0, 1) if budget > 0 else 0
        budget -= extra
        domain = tuple(f"v{j}" for j in range(2 + extra if values is None else values))
        kind = "input" if index < n_inputs else "output"
        name = f"i{index}" if kind == "input" else f"o{index - n_inputs}"
        attrs.append(AttributeSchema(name, kind, domain))
    return Schema(attrs)


def random_dataset(
    rng: random.Random, max_rows: int = 200, min_rows: int = 1, values: Optional[int] = None
) -> Dataset:
    schema = random_schema(rng, values)
    inputs = [schema.attribute(n) for n in schema.input_names]
    outputs = [schema.attribute(n) for n in schema.output_names]
    rows = []
    for _ in range(rng.randint(min_rows, max_rows)):
        bound = {
            a.name: rng.choice(a.domain) for a in inputs if rng.random() < 0.85
        }
        labels = {a.name: rng.choice(a.domain) for a in outputs}
        rows.append(TrainingRow(bound, labels, rng.randint(1, 3)))
    return Dataset(schema, rows)


# -- reference ID3: row lists rescanned at every node ----------------------


def _class_counts(rows: Iterable[TrainingRow], target: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for row in rows:
        value = row.outputs[target]
        counts[value] = counts.get(value, 0) + row.weight
    return counts


def _majority(counts: Mapping[str, int], domain: Sequence[str]) -> str:
    """Heaviest class; ties resolve to the earliest value in the target's domain."""
    best = None
    best_weight = -1
    for value in domain:
        weight = counts.get(value, 0)
        if weight > best_weight:
            best, best_weight = value, weight
    assert best is not None
    return best


def _partition(
    rows: Iterable[TrainingRow], attribute: str
) -> dict[Optional[str], list[TrainingRow]]:
    parts: dict[Optional[str], list[TrainingRow]] = {}
    for row in rows:
        parts.setdefault(row.inputs.get(attribute), []).append(row)
    return parts


def naive_gain(rows: Collection[TrainingRow], attribute: str, target: str) -> float:
    """Information gain from row lists; classes and parts summed in first-seen order."""
    total = sum(r.weight for r in rows)
    base = entropy(_class_counts(rows, target))
    weighted = 0.0
    for part in _partition(rows, attribute).values():
        part_weight = sum(r.weight for r in part)
        weighted += (part_weight / total) * entropy(_class_counts(part, target))
    gain = base - weighted
    return gain if gain > 0.0 else 0.0  # clamp float residue


def naive_id3_build(data: Dataset, schema: Schema, target_name: str) -> DecisionNode:
    """``id3_build`` by partitioning and recounting row lists at every node."""
    target_domain = schema.domain_of(target_name)

    def build(rows: Collection[TrainingRow], available: tuple[str, ...], fallback: str) -> DecisionNode:
        if not rows:
            return Leaf(fallback, ())
        counts = _class_counts(rows, target_name)
        sorted_counts = tuple(sorted(counts.items()))
        nonzero = [v for v, c in counts.items() if c > 0]
        if len(nonzero) == 1:
            return Leaf(nonzero[0], sorted_counts)
        majority = _majority(counts, target_domain)
        if not available:
            return Leaf(majority, sorted_counts)
        best_attr = available[0]
        best_gain = -1.0
        for attr in available:  # declaration order; strict > keeps earliest on ties
            gain = naive_gain(rows, attr, target_name)
            if gain > best_gain:
                best_attr, best_gain = attr, gain
        remaining = tuple(a for a in available if a != best_attr)
        parts = _partition(rows, best_attr)
        children = tuple(
            (value, build(parts.get(value, []), remaining, majority))
            for value in schema.domain_of(best_attr)
        )
        null_child = build(parts.get(None, []), remaining, majority)
        return Split(best_attr, children, null_child)

    return build(data, schema.input_names, _majority(_class_counts(data, target_name), target_domain))


def planted_long_pattern(rng: random.Random) -> Dataset:
    """Twenty rows, ninety percent sharing one 8-item pattern over 10 attributes."""
    schema = Schema(
        [AttributeSchema(f"in{i}", "input", ("0", "1")) for i in range(1, 10)]
        + [AttributeSchema("out", "output", ("0", "1"))]
    )
    rows = []
    for _ in range(18):
        inputs = {f"in{k}": "1" for k in range(1, 8)}
        inputs["in8"] = rng.choice(["0", "1"])
        inputs["in9"] = rng.choice(["0", "1"])
        rows.append(TrainingRow(inputs, {"out": "1"}))
    for _ in range(2):
        rows.append(TrainingRow({f"in{k}": "0" for k in range(1, 10)}, {"out": "0"}))
    return Dataset(schema, rows)


F1_INPUT_LITERALS = ["headphones:input:{yes,no}", "hour:input:{morning,evening}"]
F1_OUTPUT_LITERALS = ["app:output:{music,none}"]

F1_ROW_DICTS = [
    {"inputs": {"headphones": "yes", "hour": "morning"}, "outputs": {"app": "music"}},
    {"inputs": {"headphones": "yes", "hour": "morning"}, "outputs": {"app": "music"}},
    {"inputs": {"headphones": "no", "hour": "morning"}, "outputs": {"app": "none"}},
    {"inputs": {"headphones": "yes", "hour": "evening"}, "outputs": {"app": "music"}},
    {"inputs": {"headphones": "no", "hour": "evening"}, "outputs": {"app": "none"}},
]

TRACE_SPEC = {
    "signals": [
        {
            "signal": "clock",
            "attribute": "hour",
            "kind": "timeofday",
            "labels": ["08", "19"],
            "weights": [0.5, 0.5],
        },
        {
            "signal": "headphones",
            "attribute": "headphones",
            "kind": "categorical",
            "domain": ["yes", "no"],
            "weights": [0.5, 0.5],
        },
    ],
    "action": {"name": "app_launched", "background": "none"},
    "patterns": [
        {"when": {"headphones": "yes", "hour": "08"}, "value": "music", "probability": 0.9}
    ],
    "churn": 0.5,
    "action_rate": 0.6,
}

BINNING_DICT = {
    "signals": [
        {"signal": "clock", "attribute": "hour", "kind": "timeofday"},
        {
            "signal": "headphones",
            "attribute": "headphones",
            "kind": "categorical",
            "domain": ["yes", "no"],
        },
    ],
    "actions": [{"attribute": "app_launched", "domain": ["music", "none"]}],
}
