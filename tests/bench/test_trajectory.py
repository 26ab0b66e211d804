"""The shared benchmark writer and the trajectory regression gate."""

import json

import pytest

from repro.bench.record import SCHEMA_VERSION, load, provenance, record
from repro.bench.trajectory import check


class TestRecord:
    def test_entry_shape_and_provenance(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        entry = record(path, "ED-1", "us_per_event", {"with_rule": 12.5})
        assert entry["schema"] == SCHEMA_VERSION
        assert entry["benchmark"] == "ED-1"
        assert entry["unit"] == "us_per_event"
        assert entry["samples"] == {"with_rule": 12.5}
        assert entry["recorded_at"].endswith("Z")
        prov = entry["provenance"]
        assert prov["python"] and prov["platform"] and prov["host"]
        assert load(path) == [entry]

    def test_append_preserves_history(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        record(path, "ED-1", "us_per_event", {"s": 1.0})
        record(path, "ED-1", "us_per_event", {"s": 2.0})
        entries = load(path)
        assert [e["samples"]["s"] for e in entries] == [1.0, 2.0]

    def test_loads_pre_writer_files(self, tmp_path):
        """Entries written before the shared writer (no schema key)."""
        path = tmp_path / "BENCH_old.json"
        path.write_text(json.dumps([{
            "recorded_at": "2026-01-01T00:00:00Z",
            "benchmark": "old", "unit": "events_per_sec",
            "samples": {"single": 5000.0},
        }]))
        assert load(path)[0]["benchmark"] == "old"
        record(path, "old", "events_per_sec", {"single": 5100.0})
        assert len(load(path)) == 2

    def test_provenance_git_sha_in_a_checkout(self):
        sha = provenance()["git_sha"]
        assert sha is None or (len(sha) == 40 and int(sha, 16) >= 0)

    def test_load_missing_file_is_empty(self, tmp_path):
        assert load(tmp_path / "absent.json") == []


def seed(path, benchmark, unit, values, sample="s"):
    for value in values:
        record(path, benchmark, unit, {sample: value})


class TestCheck:
    def test_single_point_never_regresses(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        seed(path, "ED-1", "us_per_event", [10.0])
        assert check(path) == []

    def test_stable_trajectory_passes(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        seed(path, "ED-1", "us_per_event", [10.0, 12.0, 9.0, 11.0])
        assert check(path) == []

    def test_lower_is_better_regression(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        seed(path, "ED-1", "us_per_event", [10.0, 12.0, 11.0, 40.0])
        (regression,) = check(path, tolerance=3.0)
        assert regression["benchmark"] == "ED-1"
        assert regression["sample"] == "s"
        assert regression["latest"] == 40.0
        assert regression["median"] == 11.0
        assert regression["ratio"] > 3.0

    def test_higher_is_better_regression(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        seed(path, "serving", "events_per_sec", [9000.0, 10000.0, 2000.0])
        (regression,) = check(path, tolerance=3.0)
        assert regression["latest"] == 2000.0
        assert regression["ratio"] > 3.0

    def test_improvement_never_fails(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        seed(path, "ED-1", "us_per_event", [10.0, 10.0, 0.1])
        seed(path, "serving", "events_per_sec", [1000.0, 1000.0, 99999.0])
        assert check(path) == []

    def test_within_tolerance_band_passes(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        seed(path, "ED-1", "us_per_event", [10.0, 10.0, 29.0])
        assert check(path, tolerance=3.0) == []
        assert check(path, tolerance=2.0)  # tighter band flags it

    def test_new_sample_key_is_skipped(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        record(path, "ED-1", "us_per_event", {"old": 10.0})
        record(path, "ED-1", "us_per_event", {"old": 10.0, "new": 99.0})
        assert check(path) == []

    def test_unknown_unit_is_never_gated(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        seed(path, "odd", "furlongs", [1.0, 100.0])
        assert check(path) == []

    def test_tolerance_must_exceed_one(self, tmp_path):
        with pytest.raises(ValueError):
            check(tmp_path / "x.json", tolerance=0.5)

    def test_benchmarks_are_gated_independently(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        seed(path, "good", "us_per_event", [10.0, 10.0, 10.0])
        seed(path, "bad", "us_per_event", [10.0, 10.0, 99.0])
        regressions = check(path)
        assert [r["benchmark"] for r in regressions] == ["bad"]


class TestQuickSet:
    def test_run_quick_appends_gateable_points(self, tmp_path):
        """One tiny end-to-end pass: run ED-1 twice, gate it."""
        from repro.bench.trajectory import run_quick

        path = tmp_path / "BENCH_core.json"
        (entry,) = run_quick(path, only=["ED-1"])
        assert entry["benchmark"] == "ED-1"
        assert set(entry["samples"]) == {"no_rule", "with_rule"}
        assert all(v > 0 for v in entry["samples"].values())
        run_quick(path, only=["ED-1"])
        assert len(load(path)) == 2
        # Two back-to-back runs of the same code sit within the band.
        assert check(path, tolerance=3.0) == []

    def test_facade_entry_prices_three_telemetry_settings(self, tmp_path):
        """ED-1 through ``Sentinel``: off / default / recording are all
        recorded in one gateable point, beside the two sentry samples
        (a wrapped call nothing is armed for)."""
        from repro.bench.trajectory import QUICK_BENCHMARKS, run_ed1_facade

        assert QUICK_BENCHMARKS["ED-1-facade"][0] == "us_per_event"
        samples = run_ed1_facade(events=200)
        assert set(samples) == {
            "telemetry_off", "default", "recording",
            "unwatched", "registered_unruled",
        }
        assert all(v > 0 for v in samples.values())

    def test_multi_producer_entry_counts_every_occurrence(self):
        from repro.bench.trajectory import QUICK_BENCHMARKS, run_mp8

        assert QUICK_BENCHMARKS["MP-8"][0] == "events_per_sec"
        samples = run_mp8(per_thread=50)
        assert set(samples) == {"producers_8"}
        assert samples["producers_8"] > 0

    def test_cli_tool_runs_and_gates(self, tmp_path):
        import subprocess
        import sys
        from pathlib import Path

        tool = (Path(__file__).resolve().parents[2]
                / "tools" / "bench_trajectory.py")
        path = tmp_path / "BENCH_core.json"
        out = subprocess.run(
            [sys.executable, str(tool), "--run", "--check",
             "--only", "RM-1", "--path", str(path)],
            capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 0, out.stderr
        assert "RM-1" in out.stdout and "trajectory OK" in out.stdout
        assert load(path)
