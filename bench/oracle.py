"""Expected outputs computed apart from the program.

Rows here are the plain dicts the generators in ``data`` produce
(``{"inputs": {...}, "outputs": {...}, "weight": n}``); rules are compared
as tuples of sorted ``(attribute, value)`` pairs. Nothing in this module
imports the program, so a fault in the program cannot hide in the check.

Thresholds mean the decimal they are written as (``0.4`` is 2/5) and are
compared exactly with ``>=``; supports and confidences are correctly
rounded quotients of exact weighted counts.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Optional

Pairs = tuple[tuple[str, str], ...]


def encode(pairs: Iterable[tuple[str, str]]) -> str:
    """Canonical text of an itemset: its sorted pairs as compact JSON."""
    return json.dumps([list(p) for p in sorted(pairs)], separators=(",", ":"), ensure_ascii=False)


def row_items(row: Mapping) -> Pairs:
    return tuple(sorted(list(row["inputs"].items()) + list(row["outputs"].items())))


def at_least(count: int, total: int, threshold: float) -> bool:
    return Fraction(count, total) >= Fraction(str(threshold))


def subset_counts(rows: Iterable[Mapping]) -> tuple[Counter, int]:
    """Weighted count of every nonempty subset of every row, and the total weight."""
    counts: Counter = Counter()
    total = 0
    for row in rows:
        items = row_items(row)
        weight = row.get("weight", 1)
        total += weight
        for size in range(1, len(items) + 1):
            for subset in combinations(items, size):
                counts[subset] += weight
    return counts, total


def expected_rules(
    rows: list[Mapping], input_names: Iterable[str], minsup: float, minconf: float
) -> set[tuple[Pairs, Pairs, float, float]]:
    """Every rule ``inputs => outputs`` of a frequent itemset that meets ``minconf``.

    This is the full rule set Apriori, and Max-Miner with the maximal sets
    expanded, must emit: (antecedent, consequent, support, confidence).
    """
    counts, total = subset_counts(rows)
    inputs = set(input_names)
    rules = set()
    for items, count in counts.items():
        if not at_least(count, total, minsup):
            continue
        ant = tuple(p for p in items if p[0] in inputs)
        cons = tuple(p for p in items if p[0] not in inputs)
        if not ant or not cons:
            continue
        ant_count = counts[ant]
        if Fraction(count, ant_count) >= Fraction(str(minconf)):
            rules.add((ant, cons, count / total, count / ant_count))
    return rules


def rule_tuple(rule: Mapping) -> tuple[Pairs, Pairs, float, float]:
    """A rule in its wire form (``Rule.to_dict``) as an oracle tuple."""
    return (
        tuple(sorted(rule["antecedent"].items())),
        tuple(sorted(rule["consequent"].items())),
        rule["support"],
        rule["confidence"],
    )


def identity(rule: Mapping) -> str:
    return encode(list(rule["antecedent"].items()) + list(rule["consequent"].items()))


def rank_key(rule: Mapping) -> tuple:
    """The documented match order: confidence, support, antecedent length, identity."""
    return (-rule["confidence"], -rule["support"], -len(rule["antecedent"]), identity(rule))


def best_rule(rules: Iterable[Mapping], query: Mapping[str, str]) -> Optional[Mapping]:
    """The rule a query must be answered with, or None when no active rule matches."""
    best = None
    best_key = None
    for rule in rules:
        if not rule["active"]:
            continue
        if all(query.get(a) == v for a, v in rule["antecedent"].items()):
            key = rank_key(rule)
            if best_key is None or key < best_key:
                best, best_key = rule, key
    return best


def recount(rows: Iterable[Mapping], ant: Mapping[str, str], cons: Mapping[str, str]) -> tuple[int, int, int]:
    """(rows matching antecedent and consequent, rows matching antecedent, total), weighted."""
    both = either = total = 0
    for row in rows:
        weight = row.get("weight", 1)
        total += weight
        if all(row["inputs"].get(a) == v for a, v in ant.items()):
            either += weight
            if all(row["outputs"].get(a) == v for a, v in cons.items()):
                both += weight
    return both, either, total


def id3_faults(rows: list[Mapping], rules: list[Mapping], minsup: float, minconf: float) -> list[str]:
    """Properties every ID3 path rule must have; returns one message per breach."""
    faults = []
    for rule in rules:
        both, either, total = recount(rows, rule["antecedent"], rule["consequent"])
        name = identity(rule)
        if not rule["antecedent"] or either == 0:
            faults.append(f"id3 rule {name} has no supporting rows")
            continue
        if rule["support"] != both / total or rule["confidence"] != both / either:
            faults.append(f"id3 rule {name}: support/confidence do not recount")
        if not at_least(both, total, minsup) or Fraction(both, either) < Fraction(str(minconf)):
            faults.append(f"id3 rule {name} is below a threshold")
    for i, a in enumerate(rules):
        for b in rules[i + 1 :]:
            if set(a["consequent"]) != set(b["consequent"]):
                continue
            shared = set(a["antecedent"]) & set(b["antecedent"])
            if not any(a["antecedent"][k] != b["antecedent"][k] for k in shared):
                faults.append(f"id3 rules {identity(a)} and {identity(b)} overlap")
    return faults
