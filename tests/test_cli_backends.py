"""The ``backends`` / ``describe`` CLI subcommands.

Exercises :func:`repro.__main__.main` in-process; the output contract
matters because the CI lint job and humans both read it.
"""

import pytest

from repro.__main__ import main
from repro.match.registry import DEFAULT_REGISTRY


def test_backends_lists_every_registration(capsys):
    assert main(["repro", "backends"]) == 0
    out = capsys.readouterr().out
    for name in DEFAULT_REGISTRY.tree_backends():
        assert f"  {name}" in out
    for name in DEFAULT_REGISTRY.matchers():
        assert f"  {name}" in out


@pytest.mark.parametrize("name", ["ibs", "segment", "rtree-1d"])
def test_describe_backend_shows_capabilities(capsys, name):
    assert main(["repro", "describe", name]) == 0
    out = capsys.readouterr().out
    info = DEFAULT_REGISTRY.describe_backend(name)
    assert f"tree backend {name!r}" in out
    assert info["description"] in out
    for flag in ("supports_dynamic_insert", "supports_open_bounds"):
        answer = "yes" if info[flag] else "no"
        assert f"{flag:<24} {answer}" in out


def test_describe_matcher_only_name(capsys):
    assert main(["repro", "describe", "sequential"]) == 0
    out = capsys.readouterr().out
    assert "matcher 'sequential'" in out
    assert "tree backend" not in out


def test_describe_dual_name_shows_both(capsys):
    # "ibs" names both a tree backend and a matcher
    assert main(["repro", "describe", "ibs"]) == 0
    out = capsys.readouterr().out
    assert "tree backend 'ibs'" in out
    assert "matcher 'ibs'" in out


def test_describe_unknown_fails(capsys):
    assert main(["repro", "describe", "no-such-thing"]) == 2
    err = capsys.readouterr().err
    assert "no-such-thing" in err


def test_describe_requires_argument(capsys):
    assert main(["repro", "describe"]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_command_mentions_new_subcommands(capsys):
    assert main(["repro", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "backends" in err and "describe" in err
    assert "segments" in err and "maintenance" in err
    # a removed command is unknown too
    assert main(["repro", "tune"]) == 2


def test_describe_disk_matcher_shows_disk_backed(capsys):
    assert main(["repro", "describe", "disk"]) == 0
    out = capsys.readouterr().out
    assert "tree backend 'disk'" in out
    assert "matcher 'disk'" in out
    assert "disk_backed" in out


def test_segments_requires_argument(capsys):
    assert main(["repro", "segments"]) == 2
    assert "usage" in capsys.readouterr().err


def test_segments_rejects_missing_directory(tmp_path, capsys):
    assert main(["repro", "segments", str(tmp_path / "nope")]) == 2
    assert "not a directory" in capsys.readouterr().err


def test_segments_empty_directory(tmp_path, capsys):
    assert main(["repro", "segments", str(tmp_path)]) == 0
    assert "no segment files" in capsys.readouterr().out


def test_segments_lists_and_verifies(tmp_path, capsys):
    from repro.core.intervals import Interval
    from repro.core.predicate_index import PredicateIndex
    from repro.predicates import IntervalClause, Predicate

    index = PredicateIndex(storage="disk", data_dir=str(tmp_path))
    for i in range(8):
        index.add(
            Predicate(
                "emp",
                [IntervalClause("salary", Interval.closed(i, i + 5))],
                ident=i,
            )
        )
    index.seal()
    assert main(["repro", "segments", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "emp.salary" in out and "0 corrupt" in out


def test_segments_flags_corruption(tmp_path, capsys):
    import glob
    import os

    from repro.core.intervals import Interval
    from repro.core.predicate_index import PredicateIndex
    from repro.predicates import IntervalClause, Predicate

    index = PredicateIndex(storage="disk", data_dir=str(tmp_path))
    index.add(
        Predicate("emp", [IntervalClause("salary", Interval.closed(1, 9))], ident=0)
    )
    index.seal(release=True)
    victim = glob.glob(os.path.join(str(tmp_path), "**", "*.seg"), recursive=True)[0]
    data = bytearray(open(victim, "rb").read())
    data[len(data) // 2] ^= 0xFF  # flip one payload byte
    open(victim, "wb").write(bytes(data))
    assert main(["repro", "segments", str(tmp_path)]) == 1
    assert "CORRUPT" in capsys.readouterr().out


def test_maintenance_prints_task_table(capsys):
    assert main(["repro", "maintenance", "--quick", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "unified maintenance plane" in out
    assert "policy:" in out
    from repro.workloads.scenarios import scenario_names

    for family in scenario_names():
        assert f"  {family}:" in out
    assert "clock_ops=" in out
    assert "retune" in out
    assert "runs=" in out and "next_due_ops=" in out
    # a healthy run dead-letters nothing
    assert "dead-letter" not in out


def test_maintenance_bad_seed_is_usage_error(capsys):
    assert main(["repro", "maintenance", "--seed", "nope"]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_command_mentions_maintenance(capsys):
    assert main(["repro", "bogus"]) == 2
    assert "maintenance" in capsys.readouterr().err
