"""Domain types: attribute schemas, items, itemsets, training rows, and rules.

Everything here is a plain value. Attributes are categorical with finite
declared domains; an item is one ``attribute=value`` binding and an itemset
holds at most one item per attribute. Rows bind input attributes partially
(missing means null) and must bind every declared output attribute.
"""

from __future__ import annotations

import json
import re
import secrets
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import NamedTuple, Optional

from .errors import EngineError

INPUT = "input"
OUTPUT = "output"
KINDS = (INPUT, OUTPUT)

# the mining algorithms, each the source of the rules it mines
ALGORITHMS = ("apriori", "maxminer", "id3")

KEY_LENGTH = 32
KEY_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
_KEY_RE = re.compile(r"^[A-Za-z0-9]{32}$")

# name:kind:{v1,v2,...} — names and values may not contain ':', ',', '{', '}'
# or whitespace so the literal stays unambiguous.
_ATTR_LITERAL_RE = re.compile(r"^([^:{},\s]+):(input|output):\{([^{}\s]*)\}$")

# the encoder of ItemSet.encode's item texts, built once: json.dumps with these arguments builds one per call
_ITEMS_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False)
# the scanner json.loads ends in, without its whitespace and end-of-text checks
_scan_once = json.JSONDecoder().scan_once


def decode_line(line: str) -> object:
    """``json.loads(line)``, raising what it raises.

    A line that is one record and nothing else is only scanned, which
    skips ``json.loads``' whitespace and end-of-text passes.
    """
    try:
        record, end = _scan_once(line, 0)
    except (StopIteration, TypeError):
        return json.loads(line)  # leading whitespace, no record at all, or not text
    return record if end == len(line) else json.loads(line)


def new_key() -> str:
    """Return a fresh 32-character alphanumeric identification key."""
    return "".join(secrets.choice(KEY_ALPHABET) for _ in range(KEY_LENGTH))


def is_key(text: object) -> bool:
    return isinstance(text, str) and bool(_KEY_RE.match(text))


def is_number(value: object) -> bool:
    """Whether ``value`` is an int or a float; JSON's ``true`` is not a number here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class AttributeSchema:
    """A named categorical attribute with a finite ordered value domain."""

    name: str
    kind: str
    domain: tuple[str, ...]

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise ValueError("attribute name must be nonempty text")
        if self.kind not in KINDS:
            raise ValueError(f"attribute kind must be one of {KINDS}, got {self.kind!r}")
        object.__setattr__(self, "domain", tuple(self.domain))
        if not self.domain:
            raise ValueError(f"attribute {self.name!r} has an empty domain")
        if len(set(self.domain)) != len(self.domain):
            raise ValueError(f"attribute {self.name!r} has duplicate domain values")
        for value in self.domain:
            if not isinstance(value, str) or not value:
                raise ValueError(f"attribute {self.name!r} has a non-text domain value")


def parse_attribute_literal(text: str) -> AttributeSchema:
    """Parse the ``name:kind:{v1,v2,...}`` literal used in files and on the wire."""
    if not isinstance(text, str):
        raise ValueError(f"attribute literal must be text, got {text!r}")
    match = _ATTR_LITERAL_RE.match(text.strip())
    if not match:
        raise ValueError(f"bad attribute literal: {text!r}")
    name, kind, body = match.groups()
    values = tuple(v for v in body.split(",") if v)
    return AttributeSchema(name, kind, values)


def format_attribute_literal(attr: AttributeSchema) -> str:
    return f"{attr.name}:{attr.kind}:{{{','.join(attr.domain)}}}"


class Schema:
    """Ordered attribute declarations for one application.

    Declaration order is significant: it is the tie-break order for
    decision-tree splits and the canonical order in persisted metadata.
    """

    __slots__ = ("_attributes", "_by_name", "_checks")

    def __init__(self, attributes: Iterable[AttributeSchema]):
        attrs = tuple(attributes)
        by_name: dict[str, AttributeSchema] = {}
        for attr in attrs:
            if attr.name in by_name:
                raise ValueError(f"duplicate attribute name {attr.name!r}")
            by_name[attr.name] = attr
        if not any(a.kind == INPUT for a in attrs):
            raise ValueError("schema needs at least one input attribute")
        if not any(a.kind == OUTPUT for a in attrs):
            raise ValueError("schema needs at least one output attribute")
        self._attributes = attrs
        self._by_name = by_name
        self._checks = None  # validate_row's lookups, built on its first call

    @property
    def attributes(self) -> tuple[AttributeSchema, ...]:
        return self._attributes

    @property
    def input_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self._attributes if a.kind == INPUT)

    @property
    def output_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self._attributes if a.kind == OUTPUT)

    def attribute(self, name: str) -> Optional[AttributeSchema]:
        return self._by_name.get(name)

    def _row_checks(self) -> tuple[dict[str, tuple[str, frozenset[str]]], tuple[str, ...]]:
        """What ``validate_row`` looks up: each name's kind and domain as a set, and the output names."""
        if self._checks is None:
            declared = {a.name: (a.kind, frozenset(a.domain)) for a in self._attributes}
            self._checks = declared, self.output_names
        return self._checks

    def domain_of(self, name: str) -> tuple[str, ...]:
        attr = self._by_name.get(name)
        if attr is None:
            raise EngineError("unknown-attribute", f"no attribute named {name!r}")
        return attr.domain

    def to_literals(self) -> tuple[list[str], list[str]]:
        inputs = [format_attribute_literal(a) for a in self._attributes if a.kind == INPUT]
        outputs = [format_attribute_literal(a) for a in self._attributes if a.kind == OUTPUT]
        return inputs, outputs

    @classmethod
    def from_literals(cls, inputs: Sequence[str], outputs: Sequence[str]) -> "Schema":
        attrs = [parse_attribute_literal(t) for t in inputs] + [
            parse_attribute_literal(t) for t in outputs
        ]
        return cls(attrs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash(self._attributes)

    def __repr__(self) -> str:
        return f"Schema({', '.join(format_attribute_literal(a) for a in self._attributes)})"


class Item(NamedTuple):
    """One ``attribute=value`` binding; the unit of itemsets.

    A tuple, so hashing, equality and ordering (attribute, then value) run
    in C; its hash is ``hash((attribute, value))``.
    """

    attribute: str
    value: str

    def __str__(self) -> str:
        return f"{self.attribute}={self.value}"


_attribute = itemgetter(0)  # an Item's attribute


@lru_cache(maxsize=4096)
def _item_text(item: Item) -> str:
    """An item's text in ``ItemSet.encode``: ``["attribute","value"]``, a tuple being a JSON array."""
    return _ITEMS_ENCODER.encode(item)


class ItemSet:
    """An immutable set of items with at most one item per attribute.

    Items are kept in canonical order (attribute, then value) so equality,
    hashing, and the text encoding never depend on construction order.
    """

    __slots__ = ("_items", "_set")

    def __init__(self, items: Iterable[Item] = ()):
        ordered = tuple(sorted(set(items)))
        seen: set[str] = set()
        for item in ordered:
            if item.attribute in seen:
                raise ValueError(f"conflicting values for attribute {item.attribute!r}")
            seen.add(item.attribute)
        self._items = ordered
        self._set = frozenset(ordered)

    @classmethod
    def _canonical(cls, items: tuple[Item, ...]) -> "ItemSet":
        """An itemset from a tuple already in canonical order that binds each attribute once.

        Nothing is sorted, de-duplicated or checked: callers pass only tuples
        for which both hold by construction.
        """
        itemset = object.__new__(cls)
        itemset._items = items
        itemset._set = frozenset(items)
        return itemset

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, str]) -> "ItemSet":
        """The itemset of a query's bindings; an unbound (null) value is left out."""
        # a mapping's keys are distinct, so its pairs sorted by key are canonical
        pairs = sorted((a, v) for a, v in mapping.items() if v is not None)
        return cls._canonical(tuple(map(Item._make, pairs)))

    @classmethod
    def from_record(cls, mapping: object, memo: Optional[dict] = None) -> "ItemSet":
        """The itemset of a stored ``{attribute: value}`` object; every value must be text.

        Unlike ``from_mapping`` a null value is an error: nothing stored
        binds one. With ``memo``, objects with equal pairs in equal order
        give one shared itemset, built once.
        """
        if not isinstance(mapping, Mapping):
            raise ValueError("itemset must be an object")
        pairs = tuple(mapping.items())
        for attribute, value in pairs:
            if not isinstance(value, str):
                raise ValueError(f"value for {attribute!r} must be text, got {value!r}")
        itemset = memo.get(pairs) if memo is not None else None
        if itemset is None:
            itemset = cls._canonical(tuple(map(Item._make, sorted(pairs))))
            if memo is not None:
                memo[pairs] = itemset
        return itemset

    def __iter__(self) -> Iterator[Item]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __contains__(self, item: Item) -> bool:
        return item in self._set

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ItemSet) and self._set == other._set

    def __hash__(self) -> int:
        return hash(self._set)

    def __repr__(self) -> str:
        return "{" + ",".join(str(i) for i in self._items) + "}"

    def issubset(self, other: "ItemSet") -> bool:
        return self._set <= other._set

    def union(self, other: "ItemSet") -> "ItemSet":
        return ItemSet(self._items + other._items)

    def attributes(self) -> tuple[str, ...]:
        return tuple(i.attribute for i in self._items)

    def as_mapping(self) -> dict[str, str]:
        return {i.attribute: i.value for i in self._items}

    def as_frozenset(self) -> frozenset[Item]:
        return self._set

    def encode(self) -> str:
        """Deterministic text encoding; injective over valid itemsets."""
        return "[" + ",".join(map(_item_text, self._items)) + "]"


def _clean_bindings(mapping: Mapping[str, Optional[str]], role: str) -> dict[str, str]:
    clean: dict[str, str] = {}
    for attr, value in mapping.items():
        if value is None:
            continue
        if not isinstance(attr, str) or not attr:
            raise ValueError(f"{role} attribute names must be nonempty text")
        if not isinstance(value, str):
            raise ValueError(f"{role} value for {attr!r} must be text, got {value!r}")
        clean[attr] = value
    return dict(sorted(clean.items()))


@dataclass(frozen=True)
class TrainingRow:
    """One complete input+output assignment; ``weight`` run-length compresses repeats."""

    inputs: Mapping[str, str]
    outputs: Mapping[str, str]
    weight: int = 1

    def __post_init__(self):
        object.__setattr__(self, "inputs", _clean_bindings(self.inputs, "input"))
        object.__setattr__(self, "outputs", _clean_bindings(self.outputs, "output"))
        if isinstance(self.weight, bool) or not isinstance(self.weight, int) or self.weight < 1:
            raise ValueError(f"row weight must be a positive integer, got {self.weight!r}")

    def itemset(self) -> ItemSet:
        items = [Item(a, v) for a, v in self.inputs.items()]
        items += [Item(a, v) for a, v in self.outputs.items()]
        return ItemSet(items)

    def to_dict(self) -> dict:
        return {"inputs": dict(self.inputs), "outputs": dict(self.outputs), "weight": self.weight}

    @classmethod
    def from_dict(cls, obj: Mapping) -> "TrainingRow":
        if not isinstance(obj, Mapping):
            raise ValueError("row must be an object")
        inputs = obj.get("inputs", {})
        outputs = obj.get("outputs", {})
        if not isinstance(inputs, Mapping) or not isinstance(outputs, Mapping):
            raise ValueError("row inputs/outputs must be objects")
        return cls(inputs, outputs, obj.get("weight", 1))


_UNDECLARED = (None, frozenset())  # the kind and domain of a name no schema declares


def validate_row(schema: Schema, row: TrainingRow) -> None:
    """Check a row against a schema; raises with a stable code on the first defect."""
    declared, outputs = schema._row_checks()
    for attr, value in row.inputs.items():
        kind, domain = declared.get(attr, _UNDECLARED)
        if kind != INPUT:
            raise EngineError("unknown-attribute", f"{attr!r} is not a declared input attribute")
        if value not in domain:
            raise EngineError(
                "out-of-domain-value", f"{attr}={value!r} is outside the declared domain"
            )
    for attr, value in row.outputs.items():
        kind, domain = declared.get(attr, _UNDECLARED)
        if kind != OUTPUT:
            raise EngineError("unknown-attribute", f"{attr!r} is not a declared output attribute")
        if value not in domain:
            raise EngineError(
                "out-of-domain-value", f"{attr}={value!r} is outside the declared domain"
            )
    if len(row.outputs) != len(outputs):  # each bound output is declared, so one is unbound
        for name in outputs:
            if name not in row.outputs:
                raise EngineError("missing-output", f"output attribute {name!r} is unbound")


class Dataset:
    """Schema plus training rows in insertion order."""

    __slots__ = ("schema", "_rows")

    def __init__(self, schema: Schema, rows: Iterable[TrainingRow] = ()):
        self.schema = schema
        self._rows: list[TrainingRow] = []
        for row in rows:
            self.append(row)

    @classmethod
    def restore(cls, schema: Schema, rows: Iterable[TrainingRow]) -> "Dataset":
        """Rebuild from already-validated rows (persistence path); skips validation."""
        ds = cls(schema)
        ds._rows = list(rows)
        return ds

    @property
    def rows(self) -> tuple[TrainingRow, ...]:
        return tuple(self._rows)

    def __iter__(self) -> Iterator[TrainingRow]:
        """The rows in order, without the copy ``rows`` makes."""
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def append(self, row: TrainingRow) -> None:
        validate_row(self.schema, row)
        self._rows.append(row)

    def extend(self, rows: Iterable[TrainingRow]) -> None:
        """Append rows the caller has already checked with ``validate_row``."""
        self._rows.extend(rows)

    def remove_at(self, indexes: Iterable[int]) -> None:
        doomed = set(indexes)
        self._rows = [r for i, r in enumerate(self._rows) if i not in doomed]

    def clear(self) -> None:
        self._rows = []

    def total_weight(self) -> int:
        return sum(r.weight for r in self._rows)


@dataclass(frozen=True)
class Rule:
    """Antecedent itemset over inputs implies consequent itemset over outputs."""

    antecedent: ItemSet
    consequent: ItemSet
    support: float
    confidence: float
    source: str
    active: bool = True

    def __post_init__(self):
        if not self.consequent:
            raise ValueError("rule consequent may not be empty")
        if not set(map(_attribute, self.antecedent)).isdisjoint(map(_attribute, self.consequent)):
            raise ValueError("antecedent and consequent must bind disjoint attributes")
        if not (0.0 <= self.support <= 1.0):
            raise ValueError(f"support {self.support} outside [0,1]")
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence {self.confidence} outside [0,1]")
        if self.source not in ALGORITHMS:
            raise ValueError(f"rule source must be one of {ALGORITHMS}")

    @cached_property
    def identity(self) -> str:
        """Stable identity: the encoding of the full antecedent∪consequent itemset.

        Computed on first use and kept on the rule, which is immutable;
        rules from ``_mined`` arrive with it already filled.
        """
        return self.antecedent.union(self.consequent).encode()

    def to_dict(self) -> dict:
        return {
            "antecedent": self.antecedent.as_mapping(),
            "consequent": self.consequent.as_mapping(),
            "support": self.support,
            "confidence": self.confidence,
            "source": self.source,
            "active": self.active,
        }

    @classmethod
    def _mined(
        cls,
        antecedent: ItemSet,
        consequent: ItemSet,
        support: float,
        confidence: float,
        source: str,
        identity: str,
    ) -> "Rule":
        """A rule built by the checking constructor whose identity is already known.

        ``identity`` must be the encoding of antecedent∪consequent.
        """
        rule = cls(antecedent, consequent, support, confidence, source)
        rule.__dict__["identity"] = identity  # fills the cached_property
        return rule

    def _resupported(self, support: float) -> "Rule":
        """This rule with ``support`` in place of its own, identity included.

        Only the support is checked, as ``__post_init__`` checks it: every
        other field was checked when this rule was built.
        """
        if not (0.0 <= support <= 1.0):
            raise ValueError(f"support {support} outside [0,1]")
        rule = object.__new__(Rule)
        fields = rule.__dict__
        fields.update(self.__dict__)
        fields["support"] = support
        return rule

    @classmethod
    def from_dict(cls, obj: Mapping, itemsets: Optional[dict] = None) -> "Rule":
        """The rule ``to_dict`` wrote; ``itemsets`` is ``ItemSet.from_record``'s memo."""
        if not isinstance(obj, Mapping):
            raise ValueError("rule must be an object")
        support, confidence, active = obj["support"], obj["confidence"], obj.get("active", True)
        for label, number in (("support", support), ("confidence", confidence)):
            if not is_number(number):
                raise ValueError(f"rule {label} must be a number, got {number!r}")
        if not isinstance(active, bool):
            raise ValueError(f"rule active must be true or false, got {active!r}")
        return cls(
            antecedent=ItemSet.from_record(obj["antecedent"], itemsets),
            consequent=ItemSet.from_record(obj["consequent"], itemsets),
            support=float(support),
            confidence=float(confidence),
            source=obj["source"],
            active=active,
        )


@dataclass(frozen=True)
class Thresholds:
    """Support and confidence floors for rule generation; both in (0, 1]."""

    min_support: float
    min_confidence: float

    def __post_init__(self):
        for label, value in (("min_support", self.min_support), ("min_confidence", self.min_confidence)):
            if not is_number(value):
                raise ValueError(f"{label} must be a number")
            if not (0.0 < float(value) <= 1.0):
                raise ValueError(f"{label} must lie in (0, 1], got {value}")
        object.__setattr__(self, "min_support", float(self.min_support))
        object.__setattr__(self, "min_confidence", float(self.min_confidence))
