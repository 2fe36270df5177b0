"""ID3 decision-tree induction over categorical rows, and path-to-rule extraction.

Trees split on the input attribute with the highest information gain
(ties broken by schema declaration order) and stop on pure partitions,
attribute exhaustion, or empty partitions. Rows with a null value for the
split attribute follow a dedicated null branch. Root-to-leaf paths become
rules scored against the training data; paths through a null branch are
not expressible as itemsets and are skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Iterable, Mapping, Optional, Sequence, Union

from .errors import EngineError
from .mining import MiningStats, _Tidsets, meets_threshold
from .model import INPUT, OUTPUT, Dataset, Item, ItemSet, Rule, Schema, Thresholds, TrainingRow


def entropy(class_counts: Mapping[str, float]) -> float:
    """Shannon entropy in bits of a class-count distribution."""
    total = 0.0
    for count in class_counts.values():
        if count < 0:
            raise ValueError("class counts must be nonnegative")
        total += count
    if total <= 0:
        raise EngineError("all-zero-counts", "entropy needs at least one counted example")
    h = 0.0
    for count in class_counts.values():
        if count > 0:
            p = count / total
            h -= p * math.log2(p)
    return h if h > 0.0 else 0.0


@dataclass(frozen=True)
class Leaf:
    """Terminal node: predicted class plus the weighted class counts behind it."""

    klass: str
    class_counts: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class Split:
    """Internal node: one child per domain value plus a branch for null values."""

    attribute: str
    children: tuple[tuple[str, "DecisionNode"], ...]
    null_child: "DecisionNode"


DecisionNode = Union[Leaf, Split]


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


def _gain(rows: Collection[TrainingRow], attribute: str, target: str) -> float:
    total = sum(r.weight for r in rows)
    base = entropy(_class_counts(rows, target))
    weighted = 0.0
    for part in _partition(rows, attribute).values():
        part_weight = sum(r.weight for r in part)
        weighted += (part_weight / total) * entropy(_class_counts(part, target))
    gain = base - weighted
    return gain if gain > 0.0 else 0.0  # clamp float residue


def _resolve_target(schema: Schema, target: Optional[str]) -> str:
    outputs = schema.output_names
    if target is None:
        if len(outputs) != 1:
            raise ValueError("target attribute required when the schema has several outputs")
        return outputs[0]
    attr = schema.attribute(target)
    if attr is None or attr.kind != OUTPUT:
        raise EngineError("unknown-attribute", f"{target!r} is not a declared output attribute")
    return target


def information_gain(data: Dataset, attribute: str, target: Optional[str] = None) -> float:
    """Entropy reduction of the target from splitting on one input attribute."""
    spec = data.schema.attribute(attribute)
    if spec is None or spec.kind != INPUT:
        raise EngineError("unknown-attribute", f"{attribute!r} is not a declared input attribute")
    target = _resolve_target(data.schema, target)
    return _gain(data, attribute, target)


def id3_build(data: Dataset, schema: Optional[Schema] = None, target: Optional[str] = None) -> DecisionNode:
    """Build a decision tree for one output attribute.

    Splits greedily on maximum information gain; ties break toward the
    attribute declared first. Empty partitions become leaves carrying the
    parent's majority class.
    """
    schema = schema if schema is not None else data.schema
    if not len(data):
        raise EngineError("empty-dataset", "cannot build a tree from an empty dataset")
    target_name = _resolve_target(schema, target)
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
            gain = _gain(rows, attr, target_name)
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


def id3_rules(
    tree: DecisionNode,
    data: Dataset,
    thresholds: Thresholds,
    target: Optional[str] = None,
    stats: Optional[MiningStats] = None,
) -> set[Rule]:
    """Turn root-to-leaf paths into rules scored against the data.

    The antecedent is the path's value conditions and the consequent the
    leaf class; support and confidence are counted on the dataset's
    tidsets, the path's rows narrowed one branch at a time, and rules
    below either threshold are dropped. Paths with an empty
    antecedent or passing through a null branch are skipped.
    """
    target_name = _resolve_target(data.schema, target)
    vertical = _Tidsets(data)
    rules: set[Rule] = set()

    def walk(node: DecisionNode, path: tuple[Item, ...], rows: int) -> None:
        if isinstance(node, Leaf):
            if not path:
                return
            consequent = ItemSet((Item(target_name, node.klass),))
            rule_count = vertical.count(rows & vertical.tidset(consequent))
            if rule_count == 0:
                return
            ant_count = vertical.count(rows)
            if meets_threshold(rule_count, vertical.total, thresholds.min_support) and meets_threshold(
                rule_count, ant_count, thresholds.min_confidence
            ):
                rules.add(
                    Rule(
                        antecedent=ItemSet(path),
                        consequent=consequent,
                        support=rule_count / vertical.total,
                        confidence=rule_count / ant_count,
                        source="id3",
                    )
                )
                if stats is not None:
                    stats.rules_emitted += 1
            return
        for value, child in node.children:
            item = Item(node.attribute, value)
            walk(child, path + (item,), rows & vertical.tidset((item,)))
        # null branch: "attribute is null" has no itemset form, so no rules

    walk(tree, (), vertical.all_rows)
    return rules


def classify(tree: DecisionNode, inputs: Mapping[str, str]) -> str:
    """Route an input assignment through the tree to a leaf class."""
    node = tree
    while isinstance(node, Split):
        value = inputs.get(node.attribute)
        if value is None:
            node = node.null_child
        else:
            for v, child in node.children:
                if v == value:
                    node = child
                    break
            else:
                node = node.null_child
    return node.klass
