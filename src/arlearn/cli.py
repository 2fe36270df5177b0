"""Command-line interface: the daemon plus batch mining/replay/inspection.

Exit codes: 0 success, 1 usage, 2 data error (unreadable or malformed
inputs), 3 engine error (valid request the engine refuses).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import daemon, mining
from .engine import Engine
from .errors import EngineError
from .model import (
    ALGORITHMS,
    Dataset,
    Schema,
    Thresholds,
    TrainingRow,
    decode_line,
    parse_attribute_literal,
)
from .store import open_store

USAGE_EXIT = 1
DATA_EXIT = 2
ENGINE_EXIT = 3

# codes pointing at broken input artifacts rather than engine-level refusals
_DATA_CODES = {
    "malformed-line",
    "timestamp-regression",
    "unbinnable-value",
    "invalid-spec",
    "malformed-params",
    "malformed-request",
    "unknown-attribute",
    "out-of-domain-value",
    "missing-output",
    "validation-error",
    "too-many-items",
    "corrupt-meta",
    "unreadable-root",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _fail(exc: EngineError) -> int:
    print(f"error [{exc.code}]: {exc}", file=sys.stderr)
    return DATA_EXIT if exc.code in _DATA_CODES else ENGINE_EXIT


def load_data_file(path: Path) -> Dataset:
    """Parse a mining fixture: a schema-header line, then one row object per line."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise EngineError("malformed-line", f"{path}: {exc}") from exc
    schema: Optional[Schema] = None
    dataset: Optional[Dataset] = None
    for number, line in enumerate(lines, start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            obj = decode_line(line)
        except json.JSONDecodeError as exc:
            raise EngineError("malformed-line", f"{path}:{number}: {exc}") from exc
        if schema is None:
            literals = obj.get("attributes") if isinstance(obj, dict) else None
            if not isinstance(literals, list):
                raise EngineError(
                    "malformed-line", f"{path}:{number}: first record must carry 'attributes'"
                )
            try:
                schema = Schema([parse_attribute_literal(t) for t in literals])
            except (ValueError, TypeError) as exc:
                raise EngineError("malformed-line", f"{path}:{number}: {exc}") from exc
            dataset = Dataset(schema)
            continue
        try:
            dataset.append(TrainingRow.from_dict(obj))
        except (ValueError, EngineError) as exc:
            raise EngineError("malformed-line", f"{path}:{number}: {exc}") from exc
    if dataset is None:
        raise EngineError("malformed-line", f"{path}: no schema header found")
    return dataset


def cmd_mine(args) -> int:
    try:
        dataset = load_data_file(Path(args.data))
        rules, stats = mining.mine(dataset, Thresholds(args.minsup, args.minconf), args.algo)
    except EngineError as exc:
        return _fail(exc)
    except ValueError as exc:
        print(f"error [bad-thresholds]: {exc}", file=sys.stderr)
        return USAGE_EXIT
    for rule in sorted(rules, key=lambda r: (-r.confidence, -r.support, r.identity)):
        print(f"{rule.antecedent!r} => {rule.consequent!r} {rule.support!r} {rule.confidence!r}")
    if args.stats:
        print(f"stats candidates_generated={stats.candidates_generated}")
        print(f"stats support_counting_passes={stats.support_counting_passes}")
        print(f"stats rules_emitted={stats.rules_emitted}")
    return 0


def cmd_replay(args) -> int:
    from . import syslearn  # only replay and gen-trace need it; serve starts without

    try:
        binning = syslearn.BinningConfig.load(Path(args.bins))
        events = syslearn.parse_trace(Path(args.trace))
        engine = Engine()
        syslearn.register_system_app(engine, binning)
        report = syslearn.replay(
            events,
            engine,
            binning,
            Thresholds(args.minsup, args.minconf),
            args.algo,
            syslearn.ReplayPolicy(regenerate_every=args.every),
        )
    except FileNotFoundError as exc:
        print(f"error [missing-file]: {exc}", file=sys.stderr)
        return DATA_EXIT
    except EngineError as exc:
        return _fail(exc)
    except ValueError as exc:
        print(f"error [bad-thresholds]: {exc}", file=sys.stderr)
        return USAGE_EXIT
    print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    return 0


def cmd_gen_trace(args) -> int:
    from . import syslearn

    try:
        syslearn.generate_trace(Path(args.spec), args.seed, args.len, Path(args.out))
    except FileNotFoundError as exc:
        print(f"error [missing-file]: {exc}", file=sys.stderr)
        return DATA_EXIT
    except EngineError as exc:
        return _fail(exc)
    return 0


def cmd_inspect(args) -> int:
    try:
        store = open_store(args.store)
    except EngineError as exc:
        return _fail(exc)
    ctx = next((c for c in store.contexts().values() if c.name == args.app), None)
    if ctx is None:
        print(f"error [unknown-app]: no application named {args.app!r}", file=sys.stderr)
        return ENGINE_EXIT
    if ctx.schema is not None:
        inputs, outputs = ctx.schema.to_literals()
        schema_text = f"{' '.join(inputs)} -> {' '.join(outputs)}"
    else:
        schema_text = "(unset)"
    active = sum(1 for r in ctx.rules if r.active)
    print(f"app: {ctx.name}")
    print(f"key: {ctx.key}")
    print(f"mode: {ctx.mode}")
    print(f"schema: {schema_text}")
    print(f"rows: {len(ctx.dataset) if ctx.dataset else 0}")
    print(f"quarantined: {len(ctx.quarantine)}")
    print(f"rules: {len(ctx.rules)} (active {active})")
    print(f"generated: {'yes' if ctx.rules_generated else 'no'}")
    print(f"epoch: {ctx.generation_epoch}")
    print(f"moved: {ctx.moved.bit_count()}")
    return 0


def cmd_serve(args) -> int:
    try:
        daemon.serve(args.store, args.listen)
    except EngineError as exc:
        return _fail(exc)
    except KeyboardInterrupt:
        pass
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="arlearn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", parents=[], help="run the request daemon")
    p.add_argument("--store", required=True, help="store root directory")
    p.add_argument("--listen", required=True, help="socket path or host:port")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("mine", help="mine rules from a data file")
    p.add_argument("--data", required=True)
    p.add_argument("--minsup", type=float, required=True)
    p.add_argument("--minconf", type=float, required=True)
    p.add_argument("--algo", choices=ALGORITHMS, default="apriori")
    p.add_argument("--stats", action="store_true")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("replay", help="replay a trace and report predictions")
    p.add_argument("--trace", required=True)
    p.add_argument("--bins", required=True)
    p.add_argument("--minsup", type=float, required=True)
    p.add_argument("--minconf", type=float, required=True)
    p.add_argument("--algo", choices=ALGORITHMS, default="apriori")
    p.add_argument("--every", type=int, default=1, help="regenerate every N learned rows")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("gen-trace", help="generate a synthetic trace + sidecar")
    p.add_argument("--spec", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--len", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_trace)

    p = sub.add_parser("inspect", help="print one application's store summary")
    p.add_argument("--store", required=True)
    p.add_argument("--app", required=True)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
