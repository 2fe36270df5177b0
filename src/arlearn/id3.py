"""ID3 decision-tree induction over categorical rows, and path-to-rule extraction.

Trees split on the input attribute with the highest information gain
(ties broken by schema declaration order) and stop on pure partitions,
attribute exhaustion, or empty partitions. Rows with a null value for the
split attribute follow a dedicated null branch. Weights are counted on
``mining._Tidsets``: a node is a row mask, and its classes and a split's
parts are that mask ANDed with value tidsets (the null branch takes the
rest). Entropy terms are summed in the order each class or part first
appears among the rows, as a row scan would, so near-ties resolve alike.
Root-to-leaf paths become rules counted off their leaves; paths through a
null branch are not expressible as itemsets and are skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import EngineError
from .mining import MiningStats, _Tidsets, meets_threshold
from .model import INPUT, OUTPUT, Dataset, Item, ItemSet, Rule, Schema, Thresholds


def entropy(class_counts: Mapping[str, float]) -> float:
    """Shannon entropy in bits of a class-count distribution."""
    return _entropy(list(class_counts.values()))


def _entropy(counts: Sequence[float]) -> float:
    """``entropy`` with its terms summed in the order of ``counts``."""
    total = 0.0
    for count in counts:
        if count < 0:
            raise ValueError("class counts must be nonnegative")
        total += count
    if total <= 0:
        raise EngineError("all-zero-counts", "entropy needs at least one counted example")
    h = 0.0
    for count in counts:
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


def _branches(v: _Tidsets, attribute: str, domain: Sequence[str]) -> list[int]:
    """The rows holding each domain value of ``attribute``, then the rows where it is null."""
    masks = [v.tidset((Item(attribute, value),)) for value in domain]
    return masks + [v.all_rows & ~reduce(or_, masks, 0)]


def _first_seen(masks: Iterable[int]) -> list[int]:
    """The nonempty disjoint masks, ordered by the first row each holds."""
    return sorted(filter(None, masks), key=lambda m: m & -m)


def _class_entropy(v: _Tidsets, rows: int, classes: Sequence[int]) -> float:
    """Entropy of the classes among ``rows``, summed in first-seen order."""
    return _entropy([v.count(m) for m in _first_seen(rows & c for c in classes)])


def _gain(v: _Tidsets, rows: int, branches: Sequence[int], classes: Sequence[int], before: float) -> float:
    """Gain of splitting ``rows``, of class entropy ``before``, along ``branches``, parts in first-seen order."""
    total = v.count(rows)
    weighted = 0.0
    for part in _first_seen(rows & b for b in branches):
        weighted += (v.count(part) / total) * _class_entropy(v, part, classes)
    gain = before - weighted
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
    v = _Tidsets(data)
    classes = _branches(v, target, data.schema.domain_of(target))[:-1]  # outputs are never null
    before = _class_entropy(v, v.all_rows, classes)
    return _gain(v, v.all_rows, _branches(v, attribute, spec.domain), classes, before)


def id3_build(data: Dataset, schema: Optional[Schema] = None, target: Optional[str] = None) -> DecisionNode:
    """Build a decision tree for one output attribute.

    Splits greedily on maximum information gain; ties break toward the
    attribute declared first. Empty partitions become leaves carrying the
    parent's majority class.
    """
    schema = schema if schema is not None else data.schema
    if not len(data):
        raise EngineError("empty-dataset", "cannot build a tree from an empty dataset")
    return _id3_build(_Tidsets(data), schema, _resolve_target(schema, target))


def _id3_build(v: _Tidsets, schema: Schema, target: str) -> DecisionNode:
    """``id3_build``'s recursion over row masks of a nonempty layout."""
    domain = schema.domain_of(target)
    classes = _branches(v, target, domain)[:-1]  # outputs are never null
    branches = {a: _branches(v, a, schema.domain_of(a)) for a in schema.input_names}

    def build(rows: int, available: tuple[str, ...], fallback: str) -> DecisionNode:
        if not rows:
            return Leaf(fallback, ())
        counts = {c: v.count(rows & m) for c, m in zip(domain, classes) if rows & m}
        majority = max(domain, key=lambda c: counts.get(c, 0))  # ties: earliest in the domain
        if len(counts) == 1 or not available:  # pure, or no attribute left
            return Leaf(majority, tuple(sorted(counts.items())))
        before = _class_entropy(v, rows, classes)
        # declaration order; max keeps the earliest on ties
        best_attr = max(available, key=lambda a: _gain(v, rows, branches[a], classes, before))
        remaining = tuple(a for a in available if a != best_attr)
        *parts, null = (rows & b for b in branches[best_attr])
        children = tuple(
            (value, build(part, remaining, majority))
            for value, part in zip(schema.domain_of(best_attr), parts)
        )
        return Split(best_attr, children, build(null, remaining, majority))

    return build(v.all_rows, schema.input_names, domain[0])  # the root is never empty


def id3_rules(
    tree: DecisionNode,
    data: Dataset,
    thresholds: Thresholds,
    target: Optional[str] = None,
    stats: Optional[MiningStats] = None,
) -> set[Rule]:
    """Turn root-to-leaf paths into rules scored against the data.

    The antecedent is the path's value conditions and the consequent the
    leaf class. ``tree`` must have been built from ``data``: a leaf
    reached through value branches holds exactly the rows of its path,
    so its class counts give the rule's count and the antecedent's.
    Rules below either threshold are dropped. Paths with an empty
    antecedent or passing through a null branch are skipped.
    """
    target_name = _resolve_target(data.schema, target)
    total = data.total_weight()
    rules: set[Rule] = set()

    def walk(node: DecisionNode, path: tuple[Item, ...]) -> None:
        if isinstance(node, Leaf):
            counts = dict(node.class_counts)
            rule_count = counts.get(node.klass, 0)
            if not path or rule_count == 0:
                return
            ant_count = sum(counts.values())
            if meets_threshold(rule_count, total, thresholds.min_support) and meets_threshold(
                rule_count, ant_count, thresholds.min_confidence
            ):
                rules.add(
                    Rule(
                        antecedent=ItemSet(path),
                        consequent=ItemSet((Item(target_name, node.klass),)),
                        support=rule_count / total,
                        confidence=rule_count / ant_count,
                        source="id3",
                    )
                )
                if stats is not None:
                    stats.rules_emitted += 1
            return
        for value, child in node.children:
            walk(child, path + (Item(node.attribute, value),))
        # null branch: "attribute is null" has no itemset form, so no rules

    walk(tree, ())
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
