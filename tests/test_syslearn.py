import json
import random

import pytest

from arlearn import mining
from arlearn.engine import Engine
from arlearn.errors import EngineError
from arlearn.model import Item, ItemSet, Thresholds
from arlearn.syslearn import (
    ActionBinding,
    BinningConfig,
    ReplayPolicy,
    SignalBinning,
    TraceEvent,
    _raw_for_label,
    generate_trace,
    parse_trace,
    register_system_app,
    replay,
    snapshot_to_row,
    write_trace,
)

from helpers import BINNING_DICT, TRACE_SPEC


@pytest.fixture
def binning():
    return BinningConfig.from_dict(BINNING_DICT)


def fresh_engine(binning):
    engine = Engine()
    register_system_app(engine, binning)
    return engine


class TestParseTrace:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_text("")
        assert parse_trace(path) == []

    def test_round_trip_count(self, tmp_path):
        events = [
            TraceEvent(1, "sensor", "headphones", "yes"),
            TraceEvent(2, "action", "app_launched", "music"),
        ]
        path = tmp_path / "t.trace"
        write_trace(events, path)
        assert parse_trace(path) == events

    def test_timestamp_regression(self):
        lines = [
            '{"t": 5, "sensor": {"name": "headphones", "value": "yes"}}',
            '{"t": 4, "action": {"name": "app_launched", "value": "music"}}',
        ]
        with pytest.raises(EngineError) as err:
            parse_trace(lines)
        assert err.value.code == "timestamp-regression"

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            '{"t": 1}',
            '{"t": 1, "sensor": {"name": "x", "value": 1}, "action": {"name": "y", "value": 2}}',
            '{"t": "one", "sensor": {"name": "x", "value": 1}}',
            '{"t": 1, "sensor": {"value": 1}}',
        ],
    )
    def test_malformed_lines_carry_line_number(self, line):
        with pytest.raises(EngineError) as err:
            parse_trace(["", line])
        assert err.value.code == "malformed-line"
        assert "line 2" in str(err.value)


class TestBinning:
    def test_hour_bins(self, binning):
        clock = binning.signal("clock")
        assert clock.bin_value("08:12") == "08"
        assert clock.bin_value("23:59") == "23"

    def test_unbinnable_clock(self, binning):
        with pytest.raises(EngineError) as err:
            binning.signal("clock").bin_value("25:00")
        assert err.value.code == "unbinnable-value"

    def test_categorical_passthrough(self, binning):
        assert binning.signal("headphones").bin_value("yes") == "yes"
        with pytest.raises(EngineError):
            binning.signal("headphones").bin_value("maybe")

    def test_interval_bins(self):
        battery = SignalBinning(
            "battery",
            "battery",
            "intervals",
            bins=((0, 20, "low"), (20, 80, "mid"), (80, 101, "high")),
        )
        assert battery.bin_value(5) == "low"
        assert battery.bin_value(20) == "mid"
        assert battery.bin_value(100.5) == "high"
        with pytest.raises(EngineError) as err:
            battery.bin_value(-3)
        assert err.value.code == "unbinnable-value"

    def test_bins_must_partition(self):
        with pytest.raises(ValueError):
            SignalBinning("x", "x", "intervals", bins=((0, 10, "a"), (12, 20, "b")))
        with pytest.raises(ValueError):
            SignalBinning("x", "x", "intervals", bins=((0, 10, "a"), (10, 20, "a")))

    def test_schema_from_binning(self, binning):
        schema = binning.schema()
        assert schema.input_names == ("hour", "headphones")
        assert schema.output_names == ("app_launched",)
        assert len(schema.domain_of("hour")) == 24


class TestSnapshotToRow:
    def test_direct_binning(self, binning):
        row = snapshot_to_row(
            {"clock": "08:12", "headphones": "yes"},
            Item("app_launched", "music"),
            binning,
        )
        assert row.inputs == {"headphones": "yes", "hour": "08"}
        assert row.outputs == {"app_launched": "music"}

    def test_unbinnable_raw_value(self, binning):
        with pytest.raises(EngineError) as err:
            snapshot_to_row({"clock": "nonsense"}, Item("app_launched", "music"), binning)
        assert err.value.code == "unbinnable-value"

    def test_empty_state_all_null(self, binning):
        row = snapshot_to_row({}, Item("app_launched", "none"), binning)
        assert row.inputs == {}
        assert row.outputs == {"app_launched": "none"}

    def test_undeclared_signals_ignored(self, binning):
        row = snapshot_to_row(
            {"clock": "09:00", "unknown_sensor": 3}, Item("app_launched", "none"), binning
        )
        assert row.inputs == {"hour": "09"}


class TestReplay:
    def test_single_action_cold_start(self, binning):
        engine = fresh_engine(binning)
        events = [
            TraceEvent(1, "sensor", "headphones", "yes"),
            TraceEvent(2, "action", "app_launched", "music"),
        ]
        report = replay(events, engine, binning, Thresholds(0.5, 0.5), "apriori")
        assert report.actions_total == 1
        assert report.fired == 0
        assert report.predictions == []
        key = engine.key_for_name("system")
        assert len(engine.context(key).dataset) == 1

    def test_empty_trace_empty_report(self, binning):
        engine = fresh_engine(binning)
        report = replay([], engine, binning, Thresholds(0.5, 0.5), "apriori")
        assert report.actions_total == 0
        assert report.rules == []
        assert report.precision == 0.0 and report.recall == 0.0

    def test_requires_registered_app(self, binning):
        with pytest.raises(EngineError) as err:
            replay([], Engine(), binning, Thresholds(0.5, 0.5), "apriori")
        assert err.value.code == "unknown-key"

    def test_schema_mismatch(self, binning):
        engine = Engine()
        key = engine.register_app("system")
        other = BinningConfig(
            [SignalBinning("headphones", "headphones", "categorical", domain=("yes", "no"))],
            [ActionBinding("app_launched", ("music", "none"))],
        )
        engine.set_input_output(
            key,
            [a for a in other.schema().attributes if a.kind == "input"],
            [a for a in other.schema().attributes if a.kind == "output"],
        )
        with pytest.raises(EngineError) as err:
            replay([], engine, binning, Thresholds(0.5, 0.5), "apriori")
        assert err.value.code == "schema-mismatch"

    def test_undeclared_action_rejected(self, binning):
        engine = fresh_engine(binning)
        events = [TraceEvent(1, "action", "vibrate", "on")]
        with pytest.raises(EngineError) as err:
            replay(events, engine, binning, Thresholds(0.5, 0.5), "apriori")
        assert err.value.code == "schema-mismatch"

    def _planted(self, tmp_path, length=300, seed=4):
        out = tmp_path / "planted.trace"
        frequencies = generate_trace(TRACE_SPEC, seed=seed, length=length, out=out)
        return parse_trace(out), frequencies

    def test_determinism(self, binning, tmp_path):
        events, _ = self._planted(tmp_path)
        reports = []
        for _ in range(2):
            engine = fresh_engine(binning)
            reports.append(
                replay(
                    events,
                    engine,
                    binning,
                    Thresholds(0.05, 0.7),
                    "apriori",
                    ReplayPolicy(regenerate_every=10),
                ).to_dict()
            )
        assert reports[0] == reports[1]

    def test_predict_before_learn_prefix_stability(self, binning, tmp_path):
        events, _ = self._planted(tmp_path)
        cut = len(events) // 2
        policy = ReplayPolicy(regenerate_every=5)
        thresholds = Thresholds(0.05, 0.7)

        prefix_report = replay(
            events[:cut], fresh_engine(binning), binning, thresholds, "apriori", policy
        )
        full = replay(events, fresh_engine(binning), binning, thresholds, "apriori", policy)
        # replace the future with unrelated events; past predictions must not move
        tail_time = events[cut - 1].t
        mutated = events[:cut] + [
            TraceEvent(tail_time + i + 1, "action", "app_launched", "none")
            for i in range(len(events) - cut)
        ]
        mutated_report = replay(
            mutated, fresh_engine(binning), binning, thresholds, "apriori", policy
        )

        expected = [p.to_dict() for p in prefix_report.predictions]
        assert [p.to_dict() for p in full.predictions][: len(expected)] == expected
        assert [p.to_dict() for p in mutated_report.predictions][: len(expected)] == expected

    def test_confidences_equal_empirical_frequencies(self, binning, tmp_path):
        events, frequencies = self._planted(tmp_path, length=400, seed=9)
        engine = fresh_engine(binning)
        report = replay(
            events, engine, binning, Thresholds(0.02, 0.5), "apriori",
            ReplayPolicy(regenerate_every=25),
        )
        condition = ItemSet([Item("headphones", "yes"), Item("hour", "08")])
        rule = next(
            (
                r
                for r in report.rules
                if r.antecedent == condition
                and r.consequent == ItemSet([Item("app_launched", "music")])
            ),
            None,
        )
        assert rule is not None
        assert rule.confidence == pytest.approx(frequencies[condition.encode()], abs=1e-12)

    def test_report_counts_recomputable(self, binning, tmp_path):
        events, _ = self._planted(tmp_path)
        engine = fresh_engine(binning)
        report = replay(
            events, engine, binning, Thresholds(0.05, 0.7), "apriori",
            ReplayPolicy(regenerate_every=10),
        )
        assert report.fired == len(report.predictions)
        assert report.matched == sum(1 for p in report.predictions if p.matched)
        if report.fired:
            assert report.precision == report.matched / report.fired
        assert report.recall == report.matched / report.actions_total
        totals = {"actions": 0, "fired": 0, "matched": 0}
        for counts in report.per_action.values():
            for field in totals:
                totals[field] += counts[field]
        assert totals["actions"] == report.actions_total
        assert totals["fired"] == report.fired
        assert totals["matched"] == report.matched


# three more signals than TRACE_SPEC, so that a replay mines about 170 rules
EXTRA_SIGNALS = [
    {"signal": name, "attribute": name, "kind": "categorical", "domain": domain}
    for name, domain in [("battery", ["low", "high"]), ("wifi", ["on", "off"]), ("place", ["home", "work"])]
]


@pytest.mark.parametrize("algorithm", ["apriori", "maxminer", "id3"])
def test_a_replay_continuing_its_searches_reports_what_one_mining_afresh_reports(algorithm, tmp_path, monkeypatch):
    out = tmp_path / "wide.trace"
    generate_trace({**TRACE_SPEC, "signals": [*TRACE_SPEC["signals"], *EXTRA_SIGNALS]}, seed=1, length=200, out=out)
    events = parse_trace(out)
    binning = BinningConfig.from_dict({**BINNING_DICT, "signals": [*BINNING_DICT["signals"], *EXTRA_SIGNALS]})
    thresholds, policy = Thresholds(0.05, 0.5), ReplayPolicy(regenerate_every=1)
    remine = mining.remine
    continued = []

    def spying(dataset, thresholds, algorithm, last=None):
        result = remine(dataset, thresholds, algorithm, last)
        search = result[2]
        # a continued search grows the last one's layout, which keeps its items
        continued.append(last is not None and search is not None and search.tidsets.items is last.tidsets.items)
        return result

    reports = []
    for patched in [spying, lambda dataset, thresholds, algorithm, last=None: remine(dataset, thresholds, algorithm)]:
        with monkeypatch.context() as patch:
            patch.setattr(mining, "remine", patched)
            report = replay(events, fresh_engine(binning), binning, thresholds, algorithm, policy)
        reports.append(json.dumps(report.to_dict(), sort_keys=True))
    assert reports[0] == reports[1]
    assert any(continued) == (algorithm != "id3")


class TestGenerateTrace:
    def test_same_seed_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.trace", tmp_path / "b.trace"]
        for path in paths:
            generate_trace(TRACE_SPEC, seed=11, length=200, out=path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert (
            (tmp_path / "a.trace.sidecar.json").read_bytes()
            == (tmp_path / "b.trace.sidecar.json").read_bytes()
        )

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a.trace", tmp_path / "b.trace"
        generate_trace(TRACE_SPEC, seed=1, length=200, out=a)
        generate_trace(TRACE_SPEC, seed=2, length=200, out=b)
        assert a.read_bytes() != b.read_bytes()

    def test_planted_probability_one(self, tmp_path):
        spec = dict(TRACE_SPEC)
        spec["patterns"] = [
            {"when": {"headphones": "yes"}, "value": "music", "probability": 1.0}
        ]
        frequencies = generate_trace(spec, seed=3, length=200, out=tmp_path / "p1.trace")
        condition = ItemSet([Item("headphones", "yes")])
        assert frequencies[condition.encode()] == 1.0

    def test_zero_length_empty(self, tmp_path):
        out = tmp_path / "zero.trace"
        generate_trace(TRACE_SPEC, seed=5, length=0, out=out)
        assert out.read_text() == ""
        assert parse_trace(out) == []

    def test_invalid_spec(self, tmp_path):
        with pytest.raises(EngineError) as err:
            generate_trace({"signals": []}, seed=1, length=10, out=tmp_path / "x.trace")
        assert err.value.code == "invalid-spec"

    def test_short_bin_is_invalid_spec_in_binning_and_trace_spec(self, tmp_path):
        short = {"signal": "battery", "kind": "intervals", "bins": [[0, 10]]}
        with pytest.raises(EngineError) as err:
            BinningConfig.from_dict(dict(BINNING_DICT, signals=[short]))
        assert err.value.code == "invalid-spec"
        with pytest.raises(EngineError) as err:
            generate_trace(dict(TRACE_SPEC, signals=[short]), seed=1, length=10, out=tmp_path / "x.trace")
        assert err.value.code == "invalid-spec"

    def test_sidecar_matches_trace_recount(self, tmp_path, binning):
        out = tmp_path / "recount.trace"
        frequencies = generate_trace(TRACE_SPEC, seed=21, length=400, out=out)
        # independent recount straight off the trace file
        events = parse_trace(out)
        state = {}
        occurrences = hits = 0
        for event in events:
            if event.kind == "sensor":
                state[event.name] = event.value
                continue
            binned = {
                binning.signal(s).attribute: binning.signal(s).bin_value(v)
                for s, v in state.items()
            }
            if binned.get("headphones") == "yes" and binned.get("hour") == "08":
                occurrences += 1
                if event.value == "music":
                    hits += 1
        condition = ItemSet([Item("headphones", "yes"), Item("hour", "08")])
        assert occurrences > 0
        assert frequencies[condition.encode()] == pytest.approx(hits / occurrences, abs=1e-12)


BATTERY_SPEC = {
    "signals": [
        {
            "signal": "battery",
            "attribute": "battery",
            "kind": "intervals",
            "bins": [[0, 20, "low"], [20, 60, "mid"], [60, 101, "high"]],
        },
        {"signal": "headphones", "attribute": "headphones", "kind": "categorical", "domain": ["yes", "no"]},
    ],
    "action": {"name": "app_launched", "background": "none"},
    "patterns": [{"when": {"battery": "low"}, "value": "music", "probability": 0.5}],
    "churn": 0.5,
    "action_rate": 0.6,
}


class TestIntervalDraws:
    """A drawn ``intervals`` value must bin back to the label it was drawn for.

    Bins are closed-open, and a draw rounded to three decimals can land on
    the bin's upper edge: in the next bin, or outside every bin after the
    last one.
    """

    def test_every_draw_bins_back_to_its_label(self):
        # bins narrower than the rounding step make edge draws common
        binning = SignalBinning("level", "level", "intervals", bins=((0, 0.0015, "low"), (0.0015, 0.003, "high")))
        rng = random.Random(5)
        for _ in range(300):
            for label in binning.labels():
                assert binning.bin_value(_raw_for_label(binning, label, rng)) == label

    def test_draw_rounding_onto_the_upper_edge(self):
        class EdgeRng:
            @staticmethod
            def uniform(lo, hi):
                return hi - 1e-4  # rounds to hi

        binning = SignalBinning("battery", "battery", "intervals", bins=((0, 60, "low"), (60, 101, "high")))
        for label in ("low", "high"):
            assert binning.bin_value(_raw_for_label(binning, label, EdgeRng())) == label

    def test_generated_trace_recounts_to_its_sidecar(self, tmp_path):
        # seed 216 draws a "low" battery value that rounds to 20.0, the
        # lower edge of "mid"
        out = tmp_path / "battery.trace"
        frequencies = generate_trace(BATTERY_SPEC, seed=216, length=600, out=out)
        binning = SignalBinning("battery", "battery", "intervals", bins=((0, 20, "low"), (20, 60, "mid"), (60, 101, "high")))
        battery = None
        occurrences = hits = 0
        for event in parse_trace(out):
            if event.kind == "sensor":
                if event.name == "battery":
                    battery = binning.bin_value(event.value)
            elif battery == "low":
                occurrences += 1
                hits += event.value == "music"
        assert occurrences > 0
        assert frequencies[ItemSet([Item("battery", "low")]).encode()] == pytest.approx(hits / occurrences, abs=1e-12)
