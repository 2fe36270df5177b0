"""Multi-application learning engine.

Each registered application owns an isolated context: schema, training
data, generated rules, generation mode, and the record of its last
inference. Mutating requests serialize per context; different keys may
proceed concurrently.

``get_current_output`` answers with the active rule whose antecedent the
query holds that comes first in ``_match_order``: highest confidence,
then support, then longest antecedent, then identity. A generation of
rules (one ``generation_epoch``) keeps every rule at its position in
``ctx.rules``; feedback replaces a rule in place and never reorders the
list. A mined generation is stored in match order, so the list order
does the ranking: the first active, unmoved match in the list is only
compared with the matching rules feedback may have moved out of order.
Those positions are kept as a mask, which the snapshot saves and a
restore reads back. The first query of a generation scans the list
until that match. Later queries use a bitmask index over rule positions
(Zaki's vertical tidsets, applied to rules): per attribute, the rules
leaving it unbound and, per value, the rules binding it to that value.
Building the index costs several scans, so a generation queried once is
never indexed. A new generation gets a new index.

Each context keeps its last apriori or maxminer search (``ctx.search``)
for ``mining.remine``, which continues it across appended and deleted
rows while the dataset does not weigh less than the search's rows. So a
remine after inserts (automated mode, replay), or after inserts and a
delete, counts only the sets the changed rows hold. Deletes, migrations
and rollbacks need not drop the search: ``remine`` compares its rows
with the dataset's and sees them. A search is stored only once its mine
has completed and never changes, so a checkpoint may share it. Its rules
are the objects ``ctx.rules`` starts from, and a remine, continued or
not, copies each one whose confidence did not change with a new support.
Feedback replaces a rule in ``ctx.rules`` and leaves the search's rule
as mined, so a copy never carries feedback. An ID3 mine keeps no search.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, replace
from itertools import islice
from typing import Iterable, Mapping, Optional, Sequence, Union

from . import mining
from .errors import EngineError
from .model import (
    ALGORITHMS,
    INPUT,
    OUTPUT,
    AttributeSchema,
    Dataset,
    ItemSet,
    Rule,
    Schema,
    Thresholds,
    TrainingRow,
    new_key,
    validate_row,
)

MODES = ("automated", "manual")


@dataclass(frozen=True)
class FeedbackPolicy:
    """How feedback nudges rule confidence; the result is clamped to [0, 1]."""

    positive_delta: float = 0.05
    negative_delta: float = 0.10

    def __post_init__(self):
        for label, delta in (("positive_delta", self.positive_delta), ("negative_delta", self.negative_delta)):
            if not (0.0 < delta < 1.0):
                raise ValueError(f"{label} must lie in (0, 1)")


@dataclass(frozen=True)
class GenerationConfig:
    thresholds: Thresholds
    algorithm: str

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")

    def to_dict(self) -> dict:
        return {
            "min_support": self.thresholds.min_support,
            "min_confidence": self.thresholds.min_confidence,
            "algorithm": self.algorithm,
        }

    @classmethod
    def from_dict(cls, obj: Mapping) -> "GenerationConfig":
        return cls(Thresholds(obj["min_support"], obj["min_confidence"]), obj["algorithm"])


@dataclass(frozen=True)
class GcoRecord:
    """What the last get_current_output matched: the rule feedback finds, and its generation."""

    rule_id: str
    epoch: int

    def to_dict(self) -> dict:
        return {"rule": self.rule_id, "epoch": self.epoch}

    @classmethod
    def from_dict(cls, obj: Mapping) -> "GcoRecord":
        """The record ``to_dict`` wrote; other keys are ignored, and a bad value raises ``ValueError``."""
        rule_id, epoch = obj["rule"], obj["epoch"]
        if not (isinstance(rule_id, str) and _is_count(epoch)):
            raise ValueError(f"a match needs a text rule and a count epoch, got {rule_id!r}, {epoch!r}")
        return cls(rule_id, epoch)


@dataclass(frozen=True)
class InferenceResult:
    outputs: ItemSet
    confidence: float
    rule: Rule


@dataclass(frozen=True)
class MigrationReport:
    dropped_columns: int
    quarantined_rows: int


def _match_order(rule: Rule) -> tuple:
    """Total order for picking the best matching rule (min() wins)."""
    return (-rule.confidence, -rule.support, -len(rule.antecedent), rule.identity)


class _RuleIndex:
    """Lookups by position in one generation's ``ctx.rules``.

    Feedback and journal replay replace a rule at its position without
    changing its antecedent or identity, so what is built here holds for
    the whole generation; ``AppContext.new_generation`` makes a new index,
    and ``AppContext.restore`` puts back the rules and the index together.
    It keeps positions and identity strings, never a ``Rule``, and only
    caches built from the generation's rules, so a checkpoint may share it.

    ``best_match`` takes ``AppContext.moved``, the positions that may be
    out of ``_match_order``; the rules outside it are in match order, so
    among them the first active match in the list wins, and only the
    matching rules in ``moved`` can beat it.
    """

    __slots__ = ("queries", "unbound", "bound", "positions")

    def __init__(self):
        self.queries = 0
        # the masks are built on the generation's second query
        self.unbound: dict[str, int] = {}  # attribute -> rules leaving it unbound
        self.bound: dict[str, dict[str, int]] = {}  # attribute -> value -> rules binding it
        self.positions: Optional[dict[str, int]] = None  # identity -> position

    def best_match(self, rules: Sequence[Rule], query: ItemSet, moved: int) -> Optional[Rule]:
        self.queries += 1
        best = None
        if self.queries == 1:
            for position, rule in enumerate(rules):
                if rule.active and not moved >> position & 1 and rule.antecedent.issubset(query):
                    best = rule
                    break
            return _rank(rules, best, moved, query)
        if self.queries == 2:
            self._build(rules)
        values = query.as_mapping()
        candidates = (1 << len(rules)) - 1
        for attribute, by_value in self.bound.items():
            candidates &= self.unbound[attribute] | by_value.get(values.get(attribute), 0)
        unmoved = candidates & ~moved
        while unmoved:
            low = unmoved & -unmoved
            rule = rules[low.bit_length() - 1]
            if rule.active:
                best = rule
                break
            unmoved ^= low
        return _rank(rules, best, candidates & moved)

    def _build(self, rules: Sequence[Rule]) -> None:
        for position, rule in enumerate(rules):
            bit = 1 << position
            for item in rule.antecedent:
                by_value = self.bound.setdefault(item.attribute, {})
                by_value[item.value] = by_value.get(item.value, 0) | bit
        everything = (1 << len(rules)) - 1
        for attribute, by_value in self.bound.items():
            binding = 0
            for mask in by_value.values():
                binding |= mask
            self.unbound[attribute] = everything & ~binding

    def position(self, rules: Sequence[Rule], rule_id: str) -> Optional[int]:
        if self.positions is None:
            self.positions = {rule.identity: i for i, rule in enumerate(rules)}
        return self.positions.get(rule_id)


def _rank(
    rules: Sequence[Rule], best: Optional[Rule], mask: int, query: Optional[ItemSet] = None
) -> Optional[Rule]:
    """``best`` or the active rule at a position in ``mask`` that comes first in ``_match_order``.

    With ``query``, only the rules whose antecedent it holds compete;
    without, every rule in ``mask`` is known to match.
    """
    if not mask:
        return best
    best_key = _match_order(best) if best is not None else None
    while mask:
        low = mask & -mask
        mask ^= low
        rule = rules[low.bit_length() - 1]
        # a rule of lower confidence cannot come first, so its key is not built
        if not rule.active or best is not None and rule.confidence < best.confidence:
            continue
        if query is None or rule.antecedent.issubset(query):
            key = _match_order(rule)
            if best is None or key < best_key:
                best, best_key = rule, key
    return best


def _is_count(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


class AppContext:
    """Everything the engine knows about one registered application."""

    __slots__ = (
        "key",
        "name",
        "schema",
        "dataset",
        "quarantine",
        "rules",
        "rules_generated",
        "mode",
        "config",
        "last_gco",
        "generation_epoch",
        "moved",
        "lock",
        "_index",
        "search",
    )

    def __init__(self, key: str, name: str):
        self.key = key
        self.name = name
        self.schema: Optional[Schema] = None
        self.dataset: Optional[Dataset] = None
        self.quarantine: list[TrainingRow] = []
        self.rules: list[Rule] = []
        self.rules_generated = False
        self.mode = "manual"
        self.config: Optional[GenerationConfig] = None
        self.last_gco: Optional[GcoRecord] = None
        self.generation_epoch = 0
        # positions that may be out of ``_match_order``: a superset is safe and only costs time
        self.moved = 0
        self.lock = threading.RLock()
        self._index = _RuleIndex()
        self.search: Optional[mining.Search] = None  # the last apriori or maxminer mine's, to continue

    def best_match(self, query: ItemSet) -> Optional[Rule]:
        """The active rule whose antecedent ``query`` holds, first in ``_match_order``."""
        return self._index.best_match(self.rules, query, self.moved)

    def rule_position(self, rule_id: str) -> Optional[int]:
        """The position in ``rules`` of the rule with identity ``rule_id``, if it is there."""
        return self._index.position(self.rules, rule_id)

    def set_rule(self, position: int, rule: Rule) -> None:
        """Put ``rule``, which keeps the antecedent and identity of the one there, at ``position``."""
        self.rules[position] = rule
        self.moved |= 1 << position

    def checkpoint(self) -> "AppContext":
        """A copy of this context for ``restore``.

        The lists a request changes in place (rules, quarantine and the
        dataset's rows) are copied; every other slot is shared, because
        requests replace those values and never change them, or, for the
        index, only cache what the generation's rules determine.
        """
        saved = object.__new__(AppContext)
        saved.restore(self)  # shares every slot
        saved.rules = list(self.rules)
        saved.quarantine = list(self.quarantine)
        if self.dataset is not None:
            saved.dataset = Dataset.restore(self.dataset.schema, self.dataset)
        return saved

    def restore(self, saved: "AppContext") -> None:
        """Put back every slot of a ``checkpoint``."""
        for slot in self.__slots__:
            setattr(self, slot, getattr(saved, slot))

    def new_generation(self, rules: list[Rule]) -> None:
        """Replace the rules with a new generation, given in ``_match_order``: the epoch moves and the index goes."""
        self.rules = rules
        self.generation_epoch += 1
        self.moved = 0
        self._index = _RuleIndex()

    def state_dict(self) -> dict:
        """Context metadata as one JSON-able object, without rows or rules (``moved`` as positions)."""
        inputs, outputs = self.schema.to_literals() if self.schema else (None, None)
        moved = self.moved
        return {
            "key": self.key,
            "name": self.name,
            "inputs": inputs,
            "outputs": outputs,
            "mode": self.mode,
            "config": self.config.to_dict() if self.config else None,
            "rules_generated": self.rules_generated,
            "generation_epoch": self.generation_epoch,
            "last_gco": self.last_gco.to_dict() if self.last_gco else None,
            "moved": [p for p in range(moved.bit_length()) if moved >> p & 1],
        }

    @classmethod
    def from_state(
        cls,
        state: Mapping,
        rows: Iterable[TrainingRow] = (),
        quarantine: Iterable[TrainingRow] = (),
        rules: Iterable[Rule] = (),
    ) -> "AppContext":
        """The context a ``state_dict`` describes; a value of the wrong type or range raises ``ValueError``."""
        ctx = cls(state["key"], state["name"])
        if state.get("inputs") is not None:
            ctx.schema = Schema.from_literals(state["inputs"], state["outputs"])
            ctx.dataset = Dataset.restore(ctx.schema, rows)
        ctx.quarantine = list(quarantine)
        ctx.rules = list(rules)
        ctx.rules_generated = state.get("rules_generated", False)
        ctx.mode = state.get("mode", "manual")
        ctx.generation_epoch = state.get("generation_epoch", 0)
        if not (isinstance(ctx.rules_generated, bool) and ctx.mode in MODES and _is_count(ctx.generation_epoch)):
            raise ValueError(f"bad rules_generated, mode or epoch: {state!r}")
        if state.get("config"):
            ctx.config = GenerationConfig.from_dict(state["config"])
        if state.get("last_gco"):
            ctx.last_gco = GcoRecord.from_dict(state["last_gco"])
        # a state without ``moved`` was saved before it was kept: every position counts as moved
        moved = state.get("moved", range(len(ctx.rules)))
        if not isinstance(moved, (list, range)) or not all(_is_count(p) and p < len(ctx.rules) for p in moved):
            raise ValueError(f"moved must list positions among {len(ctx.rules)} rules, got {moved!r}")
        ctx.moved = sum(1 << p for p in set(moved))
        return ctx


def context_fingerprint(ctx: AppContext) -> str:
    """Canonical serialization of the full context, for exact-state comparison."""
    state = ctx.state_dict()
    del state["moved"]  # any superset answers alike, and a snapshot from before it was kept marks every position
    state["rows"] = [r.to_dict() for r in (ctx.dataset if ctx.dataset is not None else ())]
    state["quarantine"] = [r.to_dict() for r in ctx.quarantine]
    state["rules"] = [r.to_dict() for r in ctx.rules]
    return json.dumps(state, sort_keys=True)


class Engine:
    """The request surface: registration through feedback, one context per key."""

    def __init__(self, feedback: Optional[FeedbackPolicy] = None):
        self.feedback = feedback if feedback is not None else FeedbackPolicy()
        self._contexts: dict[str, AppContext] = {}
        self._names: dict[str, str] = {}
        self._lock = threading.RLock()

    @classmethod
    def restore(cls, contexts: Iterable[AppContext], feedback: Optional[FeedbackPolicy] = None) -> "Engine":
        engine = cls(feedback)
        for ctx in contexts:
            engine._install(ctx)
        return engine

    def _install(self, ctx: AppContext) -> None:
        with self._lock:
            if ctx.key in self._contexts or ctx.name in self._names:
                raise ValueError(f"context {ctx.name!r}/{ctx.key} already installed")
            self._contexts[ctx.key] = ctx
            self._names[ctx.name] = ctx.key

    def context(self, key: str) -> AppContext:
        with self._lock:
            ctx = self._contexts.get(key) if isinstance(key, str) else None
            if ctx is None:
                raise EngineError("unknown-key", f"no application registered under {key!r}")
            return ctx

    def key_for_name(self, name: str) -> Optional[str]:
        with self._lock:
            return self._names.get(name)

    def contexts(self) -> list[AppContext]:
        with self._lock:
            return list(self._contexts.values())

    # -- requests ------------------------------------------------------

    def register_app(self, name: str) -> str:
        if not isinstance(name, str) or not name:
            raise EngineError("empty-name", "application name must be nonempty")
        with self._lock:
            if name in self._names:
                raise EngineError("duplicate-name", f"{name!r} is already registered")
            key = new_key()
            while key in self._contexts:
                key = new_key()
            self._install(AppContext(key, name))
            return key

    def unregister_app(self, key: str) -> None:
        """Drop the context under ``key``, freeing its name."""
        with self._lock:
            ctx = self._contexts.pop(key)
            del self._names[ctx.name]

    def set_input_output(
        self,
        key: str,
        inputs: Sequence[AttributeSchema],
        outputs: Sequence[AttributeSchema],
    ) -> None:
        ctx = self.context(key)
        with ctx.lock:
            if ctx.schema is not None:
                raise EngineError(
                    "schema-already-set", "use change_inputs_outputs to restructure"
                )
            ctx.schema = self._build_schema(inputs, outputs)
            ctx.dataset = Dataset(ctx.schema)

    @staticmethod
    def _build_schema(
        inputs: Sequence[AttributeSchema], outputs: Sequence[AttributeSchema]
    ) -> Schema:
        for attr in inputs:
            if attr.kind != INPUT:
                raise EngineError("invalid-schema", f"{attr.name!r} listed as input but declared {attr.kind}")
        for attr in outputs:
            if attr.kind != OUTPUT:
                raise EngineError("invalid-schema", f"{attr.name!r} listed as output but declared {attr.kind}")
        try:
            return Schema(tuple(inputs) + tuple(outputs))
        except ValueError as exc:
            raise EngineError("invalid-schema", str(exc)) from exc

    def _dataset(self, ctx: AppContext) -> Dataset:
        if ctx.schema is None or ctx.dataset is None:
            raise EngineError("no-schema", "set_input_output has not been called")
        return ctx.dataset

    def load_training_data(self, key: str, rows: Sequence[TrainingRow]) -> int:
        ctx = self.context(key)
        with ctx.lock:
            dataset = self._dataset(ctx)
            for index, row in enumerate(rows):
                try:
                    validate_row(ctx.schema, row)
                except EngineError as exc:
                    raise EngineError("validation-error", f"row {index}: {exc}") from exc
            dataset.extend(rows)
            if rows and ctx.mode == "automated":
                self._regenerate(ctx)
            return len(rows)

    def set_training_data_row(self, key: str, row: TrainingRow) -> None:
        ctx = self.context(key)
        with ctx.lock:
            dataset = self._dataset(ctx)
            try:
                validate_row(ctx.schema, row)
            except EngineError as exc:
                raise EngineError("validation-error", str(exc)) from exc
            dataset.extend((row,))
            if ctx.mode == "automated":
                self._regenerate(ctx)

    def generate_rules(
        self, key: str, thresholds: Thresholds, algorithm: str
    ) -> list[Rule]:
        try:
            config = GenerationConfig(thresholds, algorithm)
        except ValueError as exc:
            raise EngineError("malformed-params", str(exc)) from exc
        ctx = self.context(key)
        with ctx.lock:
            self._dataset(ctx)
            self._regenerate(ctx, config)
            return list(ctx.rules)

    def _regenerate(self, ctx: AppContext, config: Optional[GenerationConfig] = None) -> None:
        config = config if config is not None else ctx.config
        assert config is not None
        rules, _, search = mining.remine(
            self._dataset(ctx), config.thresholds, config.algorithm, ctx.search
        )
        ctx.config = config
        ctx.search = search
        ctx.new_generation(sorted(rules, key=_match_order))
        ctx.rules_generated = True

    def set_generation_mode(self, key: str, mode: str) -> None:
        if mode not in MODES:
            raise EngineError("malformed-params", f"unknown mode {mode!r}")
        ctx = self.context(key)
        with ctx.lock:
            if mode == "automated" and ctx.config is None:
                raise EngineError(
                    "no-generation-config", "generate_rules must run once before automated mode"
                )
            ctx.mode = mode

    def get_current_output(
        self, key: str, inputs: Union[ItemSet, Mapping[str, str]]
    ) -> Optional[InferenceResult]:
        ctx = self.context(key)
        query = inputs if isinstance(inputs, ItemSet) else ItemSet.from_mapping(inputs)
        with ctx.lock:
            if not ctx.rules_generated:
                raise EngineError("no-rules-generated", "generate_rules has never been called")
            best = ctx.best_match(query)
            if best is None:
                ctx.last_gco = None
                return None
            ctx.last_gco = GcoRecord(best.identity, ctx.generation_epoch)
            return InferenceResult(best.consequent, best.confidence, best)

    def send_feedback_last_gco(self, key: str, verdict: str) -> float:
        if verdict not in ("positive", "negative"):
            raise EngineError("malformed-params", f"unknown verdict {verdict!r}")
        ctx = self.context(key)
        with ctx.lock:
            record = ctx.last_gco
            if record is None:
                raise EngineError("no-pending-gco", "no unconsumed get_current_output match")
            if record.epoch != ctx.generation_epoch:
                raise EngineError("rule-evicted", "the matched rule was replaced by regeneration")
            index = ctx.rule_position(record.rule_id)
            if index is None:
                raise EngineError("rule-evicted", "the matched rule is no longer stored")
            rule = ctx.rules[index]
            if verdict == "positive":
                confidence = rule.confidence + self.feedback.positive_delta
            else:
                confidence = rule.confidence - self.feedback.negative_delta
            confidence = min(max(confidence, 0.0), 1.0)
            assert ctx.config is not None
            active = not (confidence < ctx.config.thresholds.min_confidence)
            ctx.set_rule(index, replace(rule, confidence=confidence, active=active))
            ctx.last_gco = None
            return confidence

    def delete_training_data(self, key: str) -> None:
        ctx = self.context(key)
        with ctx.lock:
            if ctx.dataset is not None:
                ctx.dataset.clear()
            ctx.quarantine = []

    def delete_training_data_row(
        self, key: str, input_match: Mapping[str, Optional[str]], mode: str = "first"
    ) -> int:
        if mode not in ("first", "all"):
            raise EngineError("malformed-params", f"unknown delete mode {mode!r}")
        ctx = self.context(key)
        with ctx.lock:
            dataset = self._dataset(ctx)
            for attr in input_match:
                spec = ctx.schema.attribute(attr)
                if spec is None or spec.kind != INPUT:
                    raise EngineError(
                        "invalid-attribute", f"{attr!r} is not a declared input attribute"
                    )
            hits = (
                i
                for i, row in enumerate(dataset)
                if all(row.inputs.get(a) == v for a, v in input_match.items())
            )
            doomed = list(islice(hits, 1) if mode == "first" else hits)
            if doomed:
                dataset.remove_at(doomed)
            return len(doomed)

    def change_inputs_outputs(
        self,
        key: str,
        new_inputs: Sequence[AttributeSchema],
        new_outputs: Sequence[AttributeSchema],
    ) -> MigrationReport:
        ctx = self.context(key)
        with ctx.lock:
            if ctx.schema is None:
                raise EngineError("no-schema", "set_input_output has not been called")
            new_schema = self._build_schema(new_inputs, new_outputs)
            old_attrs = {a.name: a for a in ctx.schema.attributes}
            new_attrs = {a.name: a for a in new_schema.attributes}
            # a column is dropped when it disappears or changes kind
            dropped = {
                name
                for name, attr in old_attrs.items()
                if name not in new_attrs or new_attrs[name].kind != attr.kind
            }
            retained: list[TrainingRow] = []
            quarantined: list[TrainingRow] = []
            for row in ctx.dataset.rows:
                inputs = {a: v for a, v in row.inputs.items() if a not in dropped}
                outputs = {a: v for a, v in row.outputs.items() if a not in dropped}
                migrated = TrainingRow(inputs, outputs, row.weight)
                try:
                    validate_row(new_schema, migrated)
                except EngineError:
                    quarantined.append(migrated)
                else:
                    retained.append(migrated)
            ctx.schema = new_schema
            ctx.dataset = Dataset.restore(new_schema, retained)
            ctx.quarantine.extend(quarantined)
            ctx.new_generation([])
            ctx.rules_generated = False
            return MigrationReport(len(dropped), len(quarantined))
