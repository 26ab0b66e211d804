"""Tests for the command-line tools."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main

SPEC = """
class STOCK : public REACTIVE {
    event end(e1) int sell_stock(int qty)
    event begin(e2) && end(e3) void set_price(float price)
    event e4 = e1 ^ e2
    rule R1(e4, cond1, action1, CUMULATIVE, IMMEDIATE, 10)
}
"""


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "stock.sentinel"
    path.write_text(SPEC)
    return str(path)


class TestCheck:
    def test_valid_spec(self, spec_file, capsys):
        assert main(["check", spec_file]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "R1" in out
        assert "cumulative" in out

    def test_invalid_spec_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.sentinel"
        bad.write_text("rule R(")
        assert main(["check", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent.sentinel"]) == 2
        assert "error:" in capsys.readouterr().err


class TestCodegen:
    def test_to_stdout(self, spec_file, capsys):
        assert main(["codegen", spec_file]) == 0
        out = capsys.readouterr().out
        assert "detector.primitive_event('STOCK_e1'" in out
        compile(out, "<cli>", "exec")

    def test_to_file(self, spec_file, tmp_path, capsys):
        out_path = tmp_path / "generated.py"
        assert main(["codegen", spec_file, "-o", str(out_path)]) == 0
        assert "detector.rule('R1'" in out_path.read_text()


class TestGraph:
    def test_renders_ascii_graph(self, spec_file, capsys):
        assert main(["graph", spec_file]) == 0
        out = capsys.readouterr().out
        assert "AND" in out
        assert "rules: R1" in out


class TestReplay:
    def test_replay_reports_firings(self, spec_file, tmp_path, capsys):
        entries = [
            {"event_name": "STOCK_e1", "at": 1.0, "class_name": "STOCK",
             "instance": "obj1", "method_name": "sell_stock",
             "modifier": "end", "arguments": [["qty", 5]], "txn_id": 1},
            {"event_name": "STOCK_e2", "at": 2.0, "class_name": "STOCK",
             "instance": "obj1", "method_name": "set_price",
             "modifier": "begin", "arguments": [["price", 9.5]],
             "txn_id": 1},
        ]
        log_path = tmp_path / "events.jsonl"
        log_path.write_text(
            "".join(json.dumps(e) + "\n" for e in entries)
        )
        assert main(["replay", spec_file, str(log_path)]) == 0
        out = capsys.readouterr().out
        assert "replayed 2 events" in out
        assert "R1: 1 firing(s)" in out

    def test_replay_empty_log(self, spec_file, tmp_path, capsys):
        log_path = tmp_path / "empty.jsonl"
        log_path.write_text("")
        assert main(["replay", spec_file, str(log_path)]) == 0
        assert "no rules would have fired" in capsys.readouterr().out


class TestTrace:
    @pytest.fixture()
    def log_file(self, tmp_path):
        entries = [
            {"event_name": "STOCK_e1", "at": 1.0, "class_name": "STOCK",
             "instance": "obj1", "method_name": "sell_stock",
             "modifier": "end", "arguments": [["qty", 5]], "txn_id": 1},
            {"event_name": "STOCK_e2", "at": 2.0, "class_name": "STOCK",
             "instance": "obj1", "method_name": "set_price",
             "modifier": "begin", "arguments": [["price", 9.5]],
             "txn_id": 1},
        ]
        path = tmp_path / "events.jsonl"
        path.write_text("".join(json.dumps(e) + "\n" for e in entries))
        return str(path)

    def test_trace_prints_span_tree_and_counters(
            self, spec_file, log_file, capsys):
        assert main(["trace", spec_file, log_file]) == 0
        out = capsys.readouterr().out
        assert "replayed 2 events" in out
        # span tree: the rule execution nests under its notification
        assert "notify#" in out
        assert "\n  propagate#" in out
        assert "rule#" in out and "R1" in out
        # the counter summary is on by default
        assert "counters:" in out
        assert "rules.executions: 1" in out
        assert "latency:" in out

    def test_no_metrics_flag(self, spec_file, log_file, capsys):
        assert main(["trace", spec_file, log_file, "--no-metrics"]) == 0
        out = capsys.readouterr().out
        assert "notify#" in out
        assert "counters:" not in out

    def test_capacity_bounds_trace(self, spec_file, log_file, capsys):
        assert main(["trace", spec_file, log_file, "--capacity", "1"]) == 0
        out = capsys.readouterr().out
        # only the last event survives the 1-slot ring buffer
        assert out.count("#") <= 2


class TestExitCodes:
    """Errors carry the registry code: ``error: <msg> [E<code>]``."""

    def test_sentinel_errors_append_the_wire_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.sentinel"
        bad.write_text("rule R(")
        assert main(["check", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "[E61]" in err  # SnoopSyntaxError's registry code

    def test_bad_tenant_spec_is_a_value_error(self, capsys):
        assert main(["serve", "--tenant", "missing-colon",
                     "--duration", "0"]) == 1
        assert "tenant spec" in capsys.readouterr().err


class TestServe:
    def test_parser_has_serve_command(self):
        args = build_parser().parse_args([
            "serve", "--port", "0", "--tenant", "a:t:eps=5",
            "--duration", "0.1",
        ])
        assert args.func.__name__ == "cmd_serve"
        assert args.tenant == ["a:t:eps=5"]

    def test_shards_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["serve", "--shards", "2", "--duration", "0"])
        assert exited.value.code == 2
        assert "--shards" in capsys.readouterr().err

    def test_serve_duration_runs_and_exits_cleanly(self, tmp_path, capsys):
        port_file = tmp_path / "port.txt"
        assert main(["serve", "--port", "0",
                     "--port-file", str(port_file),
                     "--duration", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "serving" in out and "stopped" in out
        host, port = port_file.read_text().split()
        assert host == "127.0.0.1" and int(port) > 0

    def test_serve_subprocess_drains_on_sigterm(self, tmp_path):
        """The acceptance path: boot, serve a client, SIGTERM, exit 0."""
        port_file = tmp_path / "port.txt"
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--port-file", str(port_file),
             "--tenant", "alpha:tok:eps=1000"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.time() + 20
            while not port_file.exists() and time.time() < deadline:
                if process.poll() is not None:
                    break
                time.sleep(0.05)
            assert port_file.exists(), process.communicate()[1]
            host, port = port_file.read_text().split()

            from repro.serving import SentinelClient

            with SentinelClient(host, int(port), tenant="alpha",
                                token="tok") as client:
                client.explicit_event("e")
                client.watch("r", "e")
                client.raise_event("e")
                assert len(client.detections("r")) == 1

            process.send_signal(signal.SIGTERM)
            out, err = process.communicate(timeout=20)
            assert process.returncode == 0, err
            assert "draining" in out and "stopped" in out
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()


class TestProfileWorkload:
    def test_profiles_a_checked_fixed_count_run(self):
        tool = Path(__file__).resolve().parents[1] / "tools" / "profile_workload.py"
        result = subprocess.run(
            [sys.executable, str(tool), "--workload", "detect.local",
             "--seed", "3", "--events", "300"],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "detect.local seed 3: 300 operations" in result.stdout
        assert "0 mismatches" in result.stdout
        # the cumulative table, then the self-time (tottime) table
        cumulative = result.stdout.index("Ordered by: cumulative time")
        assert result.stdout.index("Ordered by: internal time") > cumulative
