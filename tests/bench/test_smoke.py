"""Perf-smoke gate tests: ``repro smoke``'s exit code and report over a
stubbed workload (pure; the workload itself runs in CI)."""

import json

import pytest

from repro.bench import smoke
from repro.obs import MetricsRegistry


@pytest.fixture
def gate(tmp_path, monkeypatch, capsys):
    """Run ``smoke.main`` with the given current and baseline counters;
    return ``(exit_code, stdout, stderr)``."""

    def run(current, baseline):
        registry = MetricsRegistry()
        for key, value in current.items():
            registry.counter(key, key).inc(value)
        monkeypatch.setattr(smoke, "run_smoke", lambda **kwargs: registry)
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"counters": baseline}))
        code = smoke.main(["--out", str(tmp_path / "BENCH_smoke.json"),
                           "--baseline", str(path)])
        out, err = capsys.readouterr()
        return code, out, err

    return run


class TestCheckBaseline:
    def test_within_baseline_passes(self, gate):
        assert gate({"a": 5.0}, {"a": 5.0})[0] == 0
        code, out, _ = gate({"a": 4.0}, {"a": 5.0})
        assert code == 0
        assert "perf-smoke OK: 1 counters within baseline" in out

    def test_exceeding_counter_fails(self, gate):
        code, _, err = gate({"a": 6.0}, {"a": 5.0})
        assert code == 1
        assert "exceeds baseline" in err
        assert "a: 5 -> 6" in err

    def test_missing_counter_fails(self, gate):
        code, _, err = gate({"b": 1.0}, {"a": 5.0, "b": 1.0})
        assert code == 1
        assert "a: 5 -> MISSING" in err

    def test_new_counter_is_not_a_violation(self, gate):
        code, out, _ = gate({"a": 1.0, "b": 9.0}, {"a": 5.0})
        assert code == 0
        assert "note: 1 counters not in baseline" in out

    def test_violations_sorted_by_key(self, gate):
        code, _, err = gate({"b": 9.0, "a": 9.0}, {"a": 1.0, "b": 1.0})
        assert code == 1
        lines = [line.strip() for line in err.splitlines()[1:]]
        assert lines[0].startswith("a:")
        assert lines[1].startswith("b:")
