"""``python -m repro`` — package info and a 30-second demo.

Subcommands::

    python -m repro                   # version, inventory, pointers
    python -m repro demo              # run the quickstart demo inline
    python -m repro bench             # run every paper experiment (slow)
    python -m repro backends          # list registered backends and matchers
    python -m repro describe NAME     # capability card for one backend/matcher
    python -m repro segments DIR      # list a disk tier's segment files,
                                      # verifying every checksum
    python -m repro maintenance       # play a scenario through the unified
                                      # maintenance scheduler and print its
                                      # task table (--quick, --seed N)
"""

from __future__ import annotations

import sys

from . import __version__


def _info() -> None:
    from . import __all__ as exported

    print(f"repro {__version__}")
    print(
        "Reproduction of Hanson et al., 'A Predicate Matching Algorithm "
        "for Database Rule Systems' (SIGMOD 1990)."
    )
    print(f"public API: {len(exported)} names (see `import repro; help(repro)`)")
    print()
    print("try:")
    print("  python -m repro demo        # quick inline demo")
    print("  python -m repro bench       # regenerate every paper experiment")
    print("  python examples/quickstart.py")
    print("  pytest tests/  |  pytest benchmarks/ --benchmark-only")


def _demo() -> None:
    from .core import IBSTree, Interval
    from .db import Database
    from .rules import RuleEngine

    print("IBS-tree stabbing queries:")
    tree = IBSTree()
    tree.insert(Interval.closed(9, 19), "A")
    tree.insert(Interval.closed_open(2, 7), "B")
    tree.insert(Interval.at_most(17), "G")
    for x in (5, 12, 18):
        print(f"  stab({x}) = {sorted(tree.stab(x))}")

    print("\nrule engine:")
    db = Database()
    db.create_relation("emp", ["name", "salary"])
    engine = RuleEngine(db)
    engine.create_rule(
        "well_paid",
        on="emp",
        condition="20000 <= salary <= 30000",
        action=lambda ctx: print(f"  fired for {ctx.tuple['name']}"),
    )
    db.insert("emp", {"name": "Lee", "salary": 25000})
    db.insert("emp", {"name": "Kim", "salary": 5000})
    print(f"  explain: {engine.explain('emp', {'name': 'X', 'salary': 25000})}")


def _backends() -> None:
    from .match.registry import DEFAULT_REGISTRY

    names = DEFAULT_REGISTRY.tree_backends()
    width = max(len(name) for name in names)
    print(f"tree backends ({len(names)}):")
    for name in names:
        info = DEFAULT_REGISTRY.describe_backend(name)
        print(f"  {name:<{width}}  {info['description']}")
    matchers = DEFAULT_REGISTRY.matchers()
    width = max(len(name) for name in matchers)
    print(f"\nmatchers ({len(matchers)}):")
    for name in matchers:
        info = DEFAULT_REGISTRY.describe_matcher(name)
        flags = "".join(
            f" [{flag}]" for flag, value in info["capabilities"].items() if value
        )
        print(f"  {name:<{width}}  {info['description']}{flags}")
    print("\nuse `python -m repro describe NAME` for capability details")


def _describe(name: str) -> int:
    from .errors import RegistryError
    from .match.registry import DEFAULT_REGISTRY

    found = False
    try:
        info = DEFAULT_REGISTRY.describe_backend(name)
    except RegistryError:
        pass
    else:
        found = True
        print(f"tree backend {name!r}")
        print(f"  factory:     {info['factory']}")
        print(f"  description: {info['description']}")
        print("  capabilities:")
        for key, value in info.items():
            if key.startswith("supports_"):
                print(f"    {key:<24} {'yes' if value else 'no'}")
    try:
        info = DEFAULT_REGISTRY.describe_matcher(name)
    except RegistryError:
        pass
    else:
        if found:
            print()
        found = True
        print(f"matcher {name!r}")
        print(f"  builder:     {info['builder']}")
        print(f"  description: {info['description']}")
        if info["capabilities"]:
            print("  capabilities:")
            for key, value in sorted(info["capabilities"].items()):
                print(f"    {key:<24} {value}")
        if info["capabilities"].get("requires_numpy"):
            from .match.columnar import HAVE_NUMPY

            if HAVE_NUMPY:
                print("  numpy:       available (vectorized path active)")
            else:
                print(
                    "  numpy:       NOT INSTALLED — the matcher still works,\n"
                    "               but batch matching falls back to the scalar\n"
                    "               pipeline; install the [columnar] extra to\n"
                    "               enable the vectorized path"
                )
    if not found:
        print(
            f"unknown backend or matcher {name!r}; "
            "run `python -m repro backends` for the list",
            file=sys.stderr,
        )
        return 2
    return 0


def _maintenance(arguments: list) -> int:
    """Drive the unified maintenance scheduler over a synthetic workload.

    Builds one ``PredicateIndex`` per scenario family with a
    :class:`~repro.maintenance.MaintenancePolicy` that re-chooses entry
    clauses (the ``retune`` task), plays the family's churn and batches
    (every write and matched tuple ticks the clock), then prints the
    scheduler's task table — runs, failures, next-due op — and the
    dead-letter queue, mirroring ``maintenance_report()``.
    """
    quick = "--quick" in arguments
    seed = 42
    if "--seed" in arguments:
        try:
            seed = int(arguments[arguments.index("--seed") + 1])
        except (IndexError, ValueError):
            print(
                "usage: python -m repro maintenance [--quick] [--seed N]",
                file=sys.stderr,
            )
            return 2
    from .core.predicate_index import PredicateIndex
    from .maintenance import MaintenancePolicy
    from .workloads.scenarios import scenario_names, synthesize

    scale = 0.25 if quick else 1.0
    policy = MaintenancePolicy(retune_interval=64, quarantine_failures=3)
    print(
        f"unified maintenance plane over the synthesized scenarios "
        f"(seed {seed}, scale {scale:g}):"
    )
    print(f"  policy: {policy.as_dict()}")
    for family in scenario_names():
        scenario = synthesize(family, seed=seed, scale=scale)
        relation = scenario.spec.relation
        index = PredicateIndex(maintenance=policy)
        for predicate in scenario.predicates():
            index.add(predicate)
        for op, payload in scenario.churn():
            if op == "add":
                index.add(payload)
            else:
                index.remove(payload)
        for batch in scenario.batches():
            index.match_batch(relation, batch)
        report = index.maintenance_report()
        print(f"  {family}: clock_ops={report['clock_ops']}")
        for name, state in sorted(report["tasks"].items()):
            line = (
                f"    {name:<12} runs={state['runs']}"
                f" failures={state['failures']}"
                f" next_due_ops={state['next_due_ops']}"
            )
            if state["quarantined"]:
                line += "  QUARANTINED"
            print(line)
        for failure in report["failures"]:
            print(f"    dead-letter: {failure}")
    return 0


def _segments(data_dir: str) -> int:
    """List every segment file under *data_dir* with checksum verification.

    Walks ``data_dir`` for ``*.seg`` files, opens each with a full
    payload-CRC verify, and prints one line per segment.  Exit status:
    0 when every segment verifies, 1 when any is corrupt or unreadable.
    """
    import os

    from .disk.segment import SEGMENT_SUFFIX, SegmentReader
    from .errors import CorruptSegmentError

    if not os.path.isdir(data_dir):
        print(f"not a directory: {data_dir}", file=sys.stderr)
        return 2
    paths = []
    for root, _dirs, files in os.walk(data_dir):
        for name in sorted(files):
            if name.endswith(SEGMENT_SUFFIX):
                paths.append(os.path.join(root, name))
    paths.sort()
    if not paths:
        print(f"no segment files under {data_dir}")
        return 0
    bad = 0
    for path in paths:
        rel = os.path.relpath(path, data_dir)
        try:
            reader = SegmentReader(path)
            try:
                reader.verify()
                print(
                    f"  ok       {rel}  {reader.relation}.{reader.attribute}"
                    f"  epoch={reader.epoch} intervals={reader.count}"
                    f" crc={reader.payload_crc:08x}"
                )
            finally:
                reader.close()
        except (CorruptSegmentError, OSError) as exc:
            bad += 1
            print(f"  CORRUPT  {rel}  {exc}")
    print(f"{len(paths)} segment(s), {bad} corrupt")
    return 1 if bad else 0


def main(argv: list) -> int:
    command = argv[1] if len(argv) > 1 else "info"
    if command == "info":
        _info()
    elif command == "demo":
        _demo()
    elif command == "bench":
        from .bench.runner import main as bench_main

        bench_main()
    elif command == "backends":
        _backends()
    elif command == "describe":
        if len(argv) < 3:
            print("usage: python -m repro describe NAME", file=sys.stderr)
            return 2
        return _describe(argv[2])
    elif command == "segments":
        if len(argv) < 3:
            print("usage: python -m repro segments DATA_DIR", file=sys.stderr)
            return 2
        return _segments(argv[2])
    elif command == "maintenance":
        return _maintenance(argv[2:])
    else:
        print(
            f"unknown command {command!r}; "
            "use: info | demo | bench | backends | describe | segments | "
            "maintenance",
            file=sys.stderr,
        )
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
