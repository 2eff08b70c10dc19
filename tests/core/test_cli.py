"""CLI tests."""

import pytest

from repro.cli import main


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "repro" in out
    assert "figures 8a 8b 9a 9b 10" in out


def test_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


def test_query_from_file(tmp_path, capsys):
    tuples = tmp_path / "tuples.txt"
    tuples.write_text(
        "# two parcels and an unbounded plain\n"
        "x >= 0 and x <= 2 and y >= 0 and y <= 2\n"
        "x >= 5 and x <= 7 and y >= 5 and y <= 7\n"
        "y <= -10\n"
    )
    code = main(
        [
            "query",
            "--tuples", str(tuples),
            "--type", "EXIST",
            "--slope", "0.0",
            "--intercept", "4.0",
            "--theta", "GE",
            "--slopes=-1,0,1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "answers  : 1 of 3 tuples" in out
    assert "tuple 1" in out

    # A non-finite slope is rejected, never answered.
    with pytest.raises(SystemExit) as excinfo:
        main(["query", "--tuples", str(tuples), "--type", "EXIST",
              "--slope", "nan", "--intercept", "4.0"])
    assert "finite" in str(excinfo.value.code)


def test_query_all_from_file(tmp_path, capsys):
    tuples = tmp_path / "tuples.txt"
    tuples.write_text("y <= -10\nx >= 0 and x <= 1 and y >= 0 and y <= 1\n")
    code = main(
        [
            "query",
            "--tuples", str(tuples),
            "--type", "ALL",
            "--slope", "0.3",
            "--intercept", "-5.0",
            "--theta", "LE",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "technique:" in out


def test_query_empty_file(tmp_path, capsys):
    tuples = tmp_path / "empty.txt"
    tuples.write_text("# nothing here\n")
    assert main(
        [
            "query",
            "--tuples", str(tuples),
            "--type", "EXIST",
            "--slope", "0",
            "--intercept", "0",
        ]
    ) == 1


def test_unknown_command_rejected(capsys):
    # ``trace`` is ``explain --tuples F --queries Q`` and ``stats`` is
    # ``smoke --out``; both were removed as duplicates.
    for command in ("not-a-command", "trace", "stats"):
        with pytest.raises(SystemExit) as excinfo:
            main([command])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def test_documented_subcommands_are_registered():
    import pathlib
    import re

    from repro.cli import build_parser

    root = pathlib.Path(__file__).resolve().parents[2]
    docs = [root / "README.md", *sorted((root / "docs").glob("*.md")),
            root / ".claude" / "skills" / "verify" / "SKILL.md",
            root / ".github" / "workflows" / "ci.yml"]
    # ``python -m repro X``, a backticked ``repro X`` (or ``repro X|Y``)
    # and a line (or heading) that starts with ``repro X`` name
    # subcommands; prose such as "from repro import" does not match.
    pattern = re.compile(
        r"(?:python3? -m repro|`repro|^[ \t]*(?:#+ )?repro)"
        r" +([a-z][a-z-]*(?:\|[a-z][a-z-]*)*)",
        re.MULTILINE,
    )
    named = {
        (path.name, command)
        for path in docs if path.exists()
        for match in pattern.finditer(path.read_text(encoding="utf-8"))
        for command in match.group(1).split("|")
    }
    assert named, "no `repro <subcommand>` found in the docs"
    registered = build_parser()._subparsers._group_actions[0].choices
    unknown = sorted(
        (name, cmd) for name, cmd in named if cmd not in registered)
    assert unknown == []


TRACE_TUPLES = (
    "x >= 0 and x <= 2 and y >= 0 and y <= 2\n"
    "x >= 5 and x <= 7 and y >= 5 and y <= 7\n"
)


def _explain_files(tmp_path, query_line):
    tuples = tmp_path / "tuples.txt"
    tuples.write_text(TRACE_TUPLES)
    queries = tmp_path / "queries.txt"
    queries.write_text(query_line + "\n")
    return ["explain", "--tuples", str(tuples), "--queries", str(queries)]


def test_trace_prints_span_tree(tmp_path, capsys):
    code = main(_explain_files(tmp_path, "EXIST 1 0 GE"))
    assert code == 0
    out = capsys.readouterr().out
    # span tree with per-phase I/O and timings
    assert "query [" in out
    assert "plan" in out
    assert "fetch" in out or "sweep" in out
    assert "ms" in out and "pages" in out and "physical" in out
    assert "technique=" in out


def test_trace_json(tmp_path, capsys):
    import json

    code = main(_explain_files(tmp_path, "ALL 0.5 -1 LE") + ["--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["children"][0]["name"] == "query"
    assert doc["children"][0]["meta"]["technique"]
    assert "logical_reads" in doc["io"]


def test_trace_leaves_tracing_disabled(tmp_path, capsys):
    from repro.obs import trace as obs

    main(_explain_files(tmp_path, "EXIST 1 0 GE"))
    capsys.readouterr()
    assert obs.current() is None


@pytest.fixture(scope="module")
def smoke_artifact(tmp_path_factory):
    """One ``repro smoke --out`` run, gated on the pinned baseline."""
    import json

    out = tmp_path_factory.mktemp("smoke") / "BENCH_smoke.json"
    assert main(["smoke", "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_stats_emits_registry_json(smoke_artifact):
    assert set(smoke_artifact) == {"counters", "gauges", "histograms"}
    assert any(k.startswith("smoke_index_pages")
               for k in smoke_artifact["counters"])
    assert any(k.startswith("exec_") for k in smoke_artifact["counters"])


def test_smoke_artifact_labelled_series(smoke_artifact):
    counters = smoke_artifact["counters"]
    for structure in ("dual", "rplus"):
        for qtype in ("EXIST", "ALL"):
            key = f"smoke_total_pages{{structure={structure},type={qtype}}}"
            assert counters[key] > 0
    hist = smoke_artifact["histograms"]["smoke_query_seconds{structure=dual}"]
    assert hist["count"] > 0 and hist["total"] > 0


def test_smoke_gate_round_trip(tmp_path, capsys):
    out = tmp_path / "BENCH_smoke.json"
    baseline = tmp_path / "baseline.json"
    assert main(
        ["smoke", "--out", str(out), "--baseline", str(baseline),
         "--update-baseline"]
    ) == 0
    assert main(
        ["smoke", "--out", str(out), "--baseline", str(baseline)]
    ) == 0
    capsys.readouterr()

    import json

    doc = json.loads(baseline.read_text())
    key = next(iter(doc["counters"]))
    doc["counters"][key] -= 1
    baseline.write_text(json.dumps(doc))
    assert main(
        ["smoke", "--out", str(out), "--baseline", str(baseline)]
    ) == 1
    assert "exceeds baseline" in capsys.readouterr().err


def test_smoke_missing_baseline(tmp_path, capsys):
    assert main(
        ["smoke", "--out", str(tmp_path / "o.json"),
         "--baseline", str(tmp_path / "nope.json")]
    ) == 2
    assert "--update-baseline" in capsys.readouterr().err


def test_explain_workload_smoke(capsys):
    assert main(["explain", "--workload", "smoke", "--count", "1"]) == 0
    out = capsys.readouterr().out
    assert "phase attribution" in out
    assert "(checked)" in out
    assert "per-index work" in out


def test_explain_sharded_shows_per_shard_rows(capsys):
    assert main(
        ["explain", "--workload", "smoke", "--count", "1", "--shards", "2"]
    ) == 0
    out = capsys.readouterr().out
    assert "shard0" in out and "shard1" in out
    assert "(checked)" in out


def test_explain_from_files_with_artifacts(tmp_path, capsys):
    import json

    from repro.obs.export import validate_chrome_trace

    tuples = tmp_path / "tuples.txt"
    tuples.write_text(TRACE_TUPLES)
    queries = tmp_path / "queries.txt"
    queries.write_text("EXIST 0.5 2.0 GE\nALL 0.5 -1.0 LE\n")
    chrome = tmp_path / "trace.json"
    events = tmp_path / "events.jsonl"
    code = main(
        [
            "explain",
            "--tuples", str(tuples),
            "--queries", str(queries),
            "--chrome-out", str(chrome),
            "--events-out", str(events),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "wrote chrome trace" in out
    doc = json.loads(chrome.read_text())
    assert validate_chrome_trace(doc) == []
    from repro.obs.events import parse_jsonl

    assert parse_jsonl(events.read_text())


def test_explain_requires_exactly_one_source(tmp_path, capsys):
    assert main(["explain"]) == 2
    tuples = tmp_path / "tuples.txt"
    tuples.write_text(TRACE_TUPLES)
    assert main(
        ["explain", "--workload", "smoke", "--tuples", str(tuples)]
    ) == 2
    assert main(["explain", "--tuples", str(tuples)]) == 2
    err = capsys.readouterr().err
    assert "exactly one" in err and "--queries" in err


def test_bench_diff_subcommand_exit_codes(tmp_path, capsys):
    import json

    base = tmp_path / "base.json"
    cur = tmp_path / "cur.json"
    base.write_text(json.dumps({"counters": {"pages": 10}}))
    cur.write_text(json.dumps({"counters": {"pages": 10}}))
    assert main(["bench-diff", str(base), str(cur)]) == 0
    cur.write_text(json.dumps({"counters": {"pages": 12}}))
    assert main(["bench-diff", str(base), str(cur)]) == 1
    assert main(
        ["bench-diff", str(base), str(cur), "--threshold", "0.5"]
    ) == 0
    capsys.readouterr()


def test_fuzz_budget_must_be_finite_and_positive():
    from repro.cli import parse_budget

    assert parse_budget("45") == 45.0
    assert parse_budget("30s") == 30.0
    assert parse_budget("2m") == 120.0
    assert parse_budget("0.5h") == 1800.0
    # nan ran zero rounds and reported OK; inf never ended.
    for text in ("abc", "nan", "inf", "-inf", "nanm", "1e400", "1e308h"):
        with pytest.raises(SystemExit) as excinfo:
            parse_budget(text)
        assert "invalid --budget" in str(excinfo.value.code)
    for text in ("0", "-5s"):
        with pytest.raises(SystemExit) as excinfo:
            parse_budget(text)
        assert "must be positive" in str(excinfo.value.code)
    with pytest.raises(SystemExit) as excinfo:
        main(["fuzz", "--budget", "nan"])
    assert "invalid --budget" in str(excinfo.value.code)


def test_save_open_round_trip(tmp_path, capsys):
    tuples = tmp_path / "tuples.txt"
    tuples.write_text(
        "x >= 0 and x <= 2 and y >= 0 and y <= 2\n"
        "x >= 5 and x <= 7 and y >= 5 and y <= 7\n"
    )
    data_dir = tmp_path / "engine"
    assert main(
        ["save", "--tuples", str(tuples), "--data-dir", str(data_dir),
         "--slopes=-1,0,1"]
    ) == 0
    out = capsys.readouterr().out
    assert "saved planner engine (2 tuples)" in out

    queries = tmp_path / "queries.txt"
    queries.write_text("EXIST 0.0 4.0 GE\n")
    assert main(
        ["open", "--data-dir", str(data_dir), "--queries", str(queries)]
    ) == 0
    out = capsys.readouterr().out
    assert "kind" in out and "planner" in out
    assert "EXIST" in out  # query answers printed


def test_save_open_sharded_json(tmp_path, capsys):
    import json

    tuples = tmp_path / "tuples.txt"
    tuples.write_text(
        "x >= 0 and x <= 1 and y >= 0 and y <= 1\n"
        "x >= 2 and x <= 3 and y >= 2 and y <= 3\n"
        "x >= 4 and x <= 5 and y >= 4 and y <= 5\n"
    )
    data_dir = tmp_path / "fleet"
    assert main(
        ["save", "--tuples", str(tuples), "--data-dir", str(data_dir),
         "--shards", "2"]
    ) == 0
    capsys.readouterr()
    assert main(["open", "--data-dir", str(data_dir), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "sharded"
    assert doc["shards"] == 2
    assert doc["size"] == 3


def test_batch_from_data_dir(tmp_path, capsys):
    tuples = tmp_path / "tuples.txt"
    tuples.write_text("x >= 0 and x <= 2 and y >= 0 and y <= 2\n")
    queries = tmp_path / "queries.txt"
    queries.write_text("EXIST 0.0 4.0 GE\nALL 0.0 -4.0 LE\n")
    data_dir = tmp_path / "engine"
    assert main(
        ["save", "--tuples", str(tuples), "--data-dir", str(data_dir)]
    ) == 0
    capsys.readouterr()
    # no --tuples: the engine is opened from disk instead of rebuilt
    assert main(
        ["batch", "--data-dir", str(data_dir), "--queries", str(queries)]
    ) == 0
    assert "batch    : 2 queries" in capsys.readouterr().out

    assert main(["batch", "--queries", str(queries)]) == 2
    assert "--data-dir" in capsys.readouterr().err

    # Non-finite slopes or intercepts are reported as path:line errors.
    for line in ("EXIST nan 0.0 GE", "ALL 0.5 inf LE", "ALL -inf 1.0 GE"):
        queries.write_text(f"EXIST 0.0 4.0 GE\n{line}\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["batch", "--data-dir", str(data_dir),
                  "--queries", str(queries)])
        assert str(excinfo.value.code).startswith(f"{queries}:2: ")
        assert "finite" in str(excinfo.value.code)
