"""System-level learning driven by recorded traces.

A trace interleaves timestamped sensor updates and user actions. Replay
keeps the current sensor state, and on every user action first asks the
engine for a prediction from the binned state (strictly before learning
from the event), then appends the snapshot as a training row. Raw sensor
values are discretized by a binning configuration; precision and recall
score predictions against the actions that triggered them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from .engine import Engine
from .errors import EngineError
from .model import (
    INPUT,
    OUTPUT,
    AttributeSchema,
    Item,
    ItemSet,
    Rule,
    Schema,
    Thresholds,
    TrainingRow,
    decode_line,
)

SENSOR = "sensor"
ACTION = "action"


class TraceEvent(NamedTuple):
    """One timestamped sensor update or user action; a tuple, cheaper to build than a frozen dataclass."""

    t: float
    kind: str
    name: str
    value: object

    def to_dict(self) -> dict:
        return {"t": self.t, self.kind: {"name": self.name, "value": self.value}}


def parse_trace(source: Union[str, Path, Iterable[str]]) -> list[TraceEvent]:
    """Parse a JSON-lines trace file; timestamps must be nondecreasing."""
    if isinstance(source, (str, Path)):
        lines = Path(source).read_text(encoding="utf-8").splitlines()
    else:
        lines = list(source)
    events: list[TraceEvent] = []
    last_t = None
    for number, line in enumerate(lines, start=1):
        if not line or line.isspace():  # ``not line.strip()``, without the copy
            continue
        try:
            obj = decode_line(line)
            t = obj["t"]
            if not isinstance(t, (int, float)) or isinstance(t, bool):
                raise ValueError("t must be a number")
            kind = SENSOR if SENSOR in obj else ACTION
            if (SENSOR in obj) == (ACTION in obj):
                raise ValueError("exactly one of 'sensor'/'action' required")
            body = obj[kind]
            name = body["name"]
            value = body["value"]
            if not isinstance(name, str) or not name:
                raise ValueError("name must be nonempty text")
        except (ValueError, KeyError, TypeError) as exc:
            raise EngineError("malformed-line", f"line {number}: {exc}") from exc
        if last_t is not None and t < last_t:
            raise EngineError(
                "timestamp-regression", f"line {number}: {t} after {last_t}"
            )
        last_t = t
        events.append(TraceEvent(t, kind, name, value))
    return events


def write_trace(events: Sequence[TraceEvent], path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event.to_dict()) + "\n")


# -- binning -----------------------------------------------------------

CATEGORICAL = "categorical"
INTERVALS = "intervals"
TIMEOFDAY = "timeofday"


def _parse_clock(raw: object) -> int:
    """Minutes since midnight from an ``HH:MM`` string."""
    if not isinstance(raw, str):
        raise ValueError(f"clock value must be 'HH:MM' text, got {raw!r}")
    parts = raw.split(":")
    if len(parts) != 2:
        raise ValueError(f"clock value must be 'HH:MM' text, got {raw!r}")
    hour, minute = int(parts[0]), int(parts[1])
    if not (0 <= hour < 24 and 0 <= minute < 60):
        raise ValueError(f"clock value out of range: {raw!r}")
    return hour * 60 + minute


@dataclass(frozen=True)
class SignalBinning:
    """Discretization rule mapping one raw signal to a categorical attribute."""

    signal: str
    attribute: str
    kind: str
    domain: tuple[str, ...] = ()
    bins: tuple[tuple[float, float, str], ...] = ()
    width_minutes: int = 60

    def __post_init__(self):
        if self.kind == CATEGORICAL:
            if not self.domain:
                raise ValueError(f"signal {self.signal!r}: categorical binning needs a domain")
        elif self.kind == INTERVALS:
            if not self.bins:
                raise ValueError(f"signal {self.signal!r}: interval binning needs bins")
            labels = [b[2] for b in self.bins]
            if len(set(labels)) != len(labels):
                raise ValueError(f"signal {self.signal!r}: duplicate bin labels")
            for (lo, hi, _), nxt in zip(self.bins, self.bins[1:]):
                if lo >= hi or nxt[0] != hi:
                    raise ValueError(f"signal {self.signal!r}: bins must partition the range")
            lo, hi, _ = self.bins[-1]
            if lo >= hi:
                raise ValueError(f"signal {self.signal!r}: bins must partition the range")
        elif self.kind == TIMEOFDAY:
            if 1440 % self.width_minutes != 0:
                raise ValueError(f"signal {self.signal!r}: width must divide 24h")
        else:
            raise ValueError(f"signal {self.signal!r}: unknown binning kind {self.kind!r}")

    @classmethod
    def from_dict(cls, obj: Mapping) -> "SignalBinning":
        """Parse one signal of a binning config or a trace spec.

        Malformed input raises ``KeyError``, ``TypeError``, ``ValueError``
        or, for a bin of fewer than three entries, ``IndexError``.
        """
        return cls(
            signal=obj["signal"],
            attribute=obj.get("attribute", obj["signal"]),
            kind=obj["kind"],
            domain=tuple(obj.get("domain", ())),
            bins=tuple((b[0], b[1], b[2]) for b in obj.get("bins", ())),
            width_minutes=obj.get("width_minutes", 60),
        )

    def labels(self) -> tuple[str, ...]:
        if self.kind == CATEGORICAL:
            return self.domain
        if self.kind == INTERVALS:
            return tuple(b[2] for b in self.bins)
        starts = range(0, 1440, self.width_minutes)
        if self.width_minutes == 60:
            return tuple(f"{m // 60:02d}" for m in starts)
        return tuple(f"{m // 60:02d}:{m % 60:02d}" for m in starts)

    def bin_value(self, raw: object) -> str:
        if self.kind == CATEGORICAL:
            if raw not in self.domain:
                raise EngineError(
                    "unbinnable-value", f"{self.signal}={raw!r} not in declared domain"
                )
            return str(raw)
        if self.kind == INTERVALS:
            try:
                number = float(raw)  # type: ignore[arg-type]
            except (TypeError, ValueError) as exc:
                raise EngineError(
                    "unbinnable-value", f"{self.signal}={raw!r} is not numeric"
                ) from exc
            for lo, hi, label in self.bins:
                if lo <= number < hi:
                    return label
            raise EngineError(
                "unbinnable-value", f"{self.signal}={raw!r} outside every bin"
            )
        try:
            minutes = _parse_clock(raw)
        except ValueError as exc:
            raise EngineError("unbinnable-value", f"{self.signal}: {exc}") from exc
        return self.labels()[minutes // self.width_minutes]


@dataclass(frozen=True)
class ActionBinding:
    """One output attribute an action event may bind."""

    attribute: str
    domain: tuple[str, ...]


class BinningConfig:
    """Per-signal discretization rules plus the action attributes they feed."""

    def __init__(self, signals: Sequence[SignalBinning], actions: Sequence[ActionBinding]):
        self.signals = tuple(signals)
        self.actions = tuple(actions)
        if not self.signals or not self.actions:
            raise ValueError("binning needs at least one signal and one action attribute")
        names = [s.attribute for s in self.signals] + [a.attribute for a in self.actions]
        if len(set(names)) != len(names):
            raise ValueError("binning attribute names must be unique")
        self._by_signal = {s.signal: s for s in self.signals}
        if len(self._by_signal) != len(self.signals):
            raise ValueError("binning signal names must be unique")

    def signal(self, name: str) -> Optional[SignalBinning]:
        return self._by_signal.get(name)

    def schema(self) -> Schema:
        attrs = [AttributeSchema(s.attribute, INPUT, s.labels()) for s in self.signals]
        attrs += [AttributeSchema(a.attribute, OUTPUT, a.domain) for a in self.actions]
        return Schema(attrs)

    @classmethod
    def from_dict(cls, obj: Mapping) -> "BinningConfig":
        try:
            signals = [SignalBinning.from_dict(s) for s in obj["signals"]]
            actions = [
                ActionBinding(a["attribute"], tuple(a["domain"])) for a in obj["actions"]
            ]
            return cls(signals, actions)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise EngineError("invalid-spec", f"bad binning config: {exc}") from exc

    @classmethod
    def load(cls, path: Union[str, Path]) -> "BinningConfig":
        try:
            obj = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise EngineError("invalid-spec", f"{path}: {exc}") from exc
        return cls.from_dict(obj)


def snapshot_to_row(
    state: Mapping[str, object], action: Item, binning: BinningConfig
) -> TrainingRow:
    """Bin the current sensor state into a training row labeled with one action."""
    return TrainingRow(bin_state(state, binning), {action.attribute: action.value})


def bin_state(state: Mapping[str, object], binning: BinningConfig) -> dict[str, str]:
    inputs: dict[str, str] = {}
    for signal, raw in state.items():
        rule = binning.signal(signal)
        if rule is not None:
            inputs[rule.attribute] = rule.bin_value(raw)
    return inputs


# -- replay ------------------------------------------------------------


@dataclass(frozen=True)
class ReplayPolicy:
    """Remine every ``regenerate_every`` rows (1: per row), and after the last row if any wait."""

    regenerate_every: int = 1

    def __post_init__(self):
        if self.regenerate_every < 1:
            raise ValueError("regenerate_every must be >= 1")


@dataclass(frozen=True)
class Prediction:
    t: float
    rule_id: str
    predicted: Mapping[str, str]
    action_attribute: str
    action_value: str
    matched: bool

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "rule": self.rule_id,
            "predicted": dict(self.predicted),
            "action": f"{self.action_attribute}={self.action_value}",
            "matched": self.matched,
        }


@dataclass
class ReplayReport:
    rules: list[Rule] = field(default_factory=list)
    predictions: list[Prediction] = field(default_factory=list)
    actions_total: int = 0
    fired: int = 0
    matched: int = 0
    precision: float = 0.0
    recall: float = 0.0
    per_action: dict[str, dict[str, int]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "rules": [r.to_dict() for r in self.rules],
            "predictions": [p.to_dict() for p in self.predictions],
            "actions_total": self.actions_total,
            "fired": self.fired,
            "matched": self.matched,
            "precision": self.precision,
            "recall": self.recall,
            "per_action": {k: dict(v) for k, v in sorted(self.per_action.items())},
        }


def register_system_app(engine: Engine, binning: BinningConfig, name: str = "system") -> str:
    """Register the whole-platform application and install the binned schema."""
    key = engine.register_app(name)
    schema = binning.schema()
    inputs = [a for a in schema.attributes if a.kind == INPUT]
    outputs = [a for a in schema.attributes if a.kind == OUTPUT]
    engine.set_input_output(key, inputs, outputs)
    return key


def replay(
    events: Sequence[TraceEvent],
    engine: Engine,
    binning: BinningConfig,
    thresholds: Thresholds,
    algorithm: str,
    policy: ReplayPolicy = ReplayPolicy(),
    app: str = "system",
) -> ReplayReport:
    """Replay a trace against the engine and score its predictions.

    Sensor updates mutate the current state. For each user action the
    engine is queried on the binned state strictly before the event is
    learned; the prediction counts as matched when its consequent binds the
    action's attribute to the action's value.
    """
    key = engine.key_for_name(app)
    if key is None:
        raise EngineError("unknown-key", f"no application named {app!r} is registered")
    ctx = engine.context(key)
    if ctx.schema != binning.schema():
        raise EngineError(
            "schema-mismatch", "the registered schema does not match the binning config"
        )

    report = ReplayReport()
    state: dict[str, object] = {}
    rows_pending = 0
    action_attrs = {a.attribute for a in binning.actions}

    def breakdown(label: str) -> dict[str, int]:
        return report.per_action.setdefault(label, {"actions": 0, "fired": 0, "matched": 0})

    for event in events:
        if event.kind == SENSOR:
            state[event.name] = event.value
            continue
        if event.name not in action_attrs:
            raise EngineError(
                "schema-mismatch", f"action {event.name!r} is not a declared action attribute"
            )
        action_value = event.value
        if not isinstance(action_value, str):
            raise EngineError("schema-mismatch", f"action value {action_value!r} must be text")
        label = f"{event.name}={action_value}"
        report.actions_total += 1
        breakdown(label)["actions"] += 1

        result = None
        try:
            result = engine.get_current_output(key, bin_state(state, binning))
        except EngineError as exc:
            if exc.code != "no-rules-generated":
                raise
        if result is not None:
            predicted = result.outputs.as_mapping()
            matched = predicted.get(event.name) == action_value
            report.fired += 1
            breakdown(label)["fired"] += 1
            if matched:
                report.matched += 1
                breakdown(label)["matched"] += 1
            report.predictions.append(
                Prediction(event.t, result.rule.identity, predicted, event.name, action_value, matched)
            )

        engine.set_training_data_row(
            key, snapshot_to_row(state, Item(event.name, action_value), binning)
        )
        rows_pending += 1
        if rows_pending >= policy.regenerate_every:
            engine.generate_rules(key, thresholds, algorithm)
            rows_pending = 0

    if rows_pending:
        engine.generate_rules(key, thresholds, algorithm)

    report.rules = list(ctx.rules)
    report.precision = report.matched / report.fired if report.fired else 0.0
    report.recall = report.matched / report.actions_total if report.actions_total else 0.0
    return report


# -- synthetic traces ----------------------------------------------------


def _spec_signals(spec: Mapping) -> list[tuple[SignalBinning, list[str], list[float]]]:
    out = []
    for s in spec["signals"]:
        binning = SignalBinning.from_dict(s)
        labels = list(s.get("labels", binning.labels()))
        for label in labels:
            if label not in binning.labels():
                raise ValueError(f"label {label!r} is not produced by signal {s['signal']!r}")
        weights = list(s.get("weights", [1.0] * len(labels)))
        if len(weights) != len(labels) or any(w <= 0 for w in weights):
            raise ValueError(f"signal {s['signal']!r}: weights must match labels and be positive")
        out.append((binning, labels, weights))
    return out


def _raw_for_label(binning: SignalBinning, label: str, rng: random.Random) -> object:
    if binning.kind == CATEGORICAL:
        return label
    if binning.kind == INTERVALS:
        for lo, hi, name in binning.bins:
            if name == label:
                value = round(rng.uniform(lo, hi), 3)
                return value if lo <= value < hi else lo  # rounding can reach hi
        raise ValueError(f"no bin labeled {label!r}")
    index = binning.labels().index(label)
    start = index * binning.width_minutes
    minute = start + rng.randrange(binning.width_minutes)
    return f"{minute // 60:02d}:{minute % 60:02d}"


def generate_trace(
    spec: Union[Mapping, str, Path],
    seed: int,
    length: int,
    out: Union[str, Path],
    sidecar: Union[str, Path, None] = None,
) -> dict:
    """Emit a deterministic synthetic trace with planted conditional patterns.

    Each step may resample sensors (emitting sensor events) and emit one
    user action whose value follows the first pattern whose condition holds
    in the binned state, with the planted probability, and the background
    value otherwise. The sidecar records the empirical conditional
    frequency of each pattern keyed by its condition's canonical encoding.
    """
    if isinstance(spec, (str, Path)):
        try:
            spec = json.loads(Path(spec).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise EngineError("invalid-spec", f"bad trace spec: {exc}") from exc
    if length < 0:
        raise EngineError("invalid-spec", "length must be nonnegative")
    try:
        signals = _spec_signals(spec)
        drawn = {binning.attribute: labels for binning, labels, _ in signals}
        action = spec["action"]
        action_name = action["name"]
        background = action["background"]
        patterns = []
        for p in spec.get("patterns", ()):
            when, probability = p["when"], float(p["probability"])
            if not isinstance(when, dict):
                raise ValueError(f"pattern 'when' must be an object, got {when!r}")
            for attribute, value in when.items():  # a condition no drawn state holds would never fire
                if not isinstance(value, str) or value not in drawn.get(attribute, ()):
                    raise ValueError(f"pattern binds {attribute}={value!r}, which no signal draws")
            if not (0.0 <= probability <= 1.0):
                raise ValueError("pattern probability must lie in [0,1]")
            patterns.append((ItemSet.from_mapping(when), p["value"], probability))
        churn = float(spec.get("churn", 0.4))
        action_rate = float(spec.get("action_rate", 0.5))
        step_lo, step_hi = spec.get("step_seconds", [30, 300])
        t = int(spec.get("start", 0))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise EngineError("invalid-spec", f"bad trace spec: {exc}") from exc

    rng = random.Random(seed)
    events: list[TraceEvent] = []
    labels: dict[str, str] = {}
    occurrences = {cond.encode(): 0 for cond, _, _ in patterns}
    hits = {cond.encode(): 0 for cond, _, _ in patterns}

    def sample(binning: SignalBinning, choices: list[str], weights: list[float]) -> None:
        label = rng.choices(choices, weights=weights)[0]
        labels[binning.attribute] = label
        events.append(TraceEvent(t, SENSOR, binning.signal, _raw_for_label(binning, label, rng)))

    for binning, choices, weights in signals:
        if len(events) >= length:
            break
        sample(binning, choices, weights)

    while len(events) < length:
        t += rng.randint(step_lo, step_hi)
        for binning, choices, weights in signals:
            if len(events) >= length:
                break
            if rng.random() < churn:
                sample(binning, choices, weights)
        if len(events) >= length:
            break
        if rng.random() < action_rate:
            state = ItemSet.from_mapping(labels)
            value = background
            fired = False
            for condition, pattern_value, probability in patterns:
                if condition.issubset(state):
                    if not fired:
                        fired = True
                        if rng.random() < probability:
                            value = pattern_value
                    occurrences[condition.encode()] += 1
            for condition, pattern_value, _ in patterns:
                if condition.issubset(state) and value == pattern_value:
                    hits[condition.encode()] += 1
            events.append(TraceEvent(t, ACTION, action_name, value))

    write_trace(events, out)
    frequencies = {
        key: (hits[key] / occ if occ else None) for key, occ in occurrences.items()
    }
    sidecar_path = Path(sidecar) if sidecar is not None else Path(str(out) + ".sidecar.json")
    sidecar_path.write_text(json.dumps(frequencies, sort_keys=True) + "\n", encoding="utf-8")
    return frequencies
