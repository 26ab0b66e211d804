"""Lifecycle of the ``python -m repro serve`` subprocess under test."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

TENANT = "ledger"
TOKEN = "ledger-token"
#: events/s quota far above what one closed-loop connection can offer,
#: so the token bucket is charged on every request and never refuses
EPS = 1_000_000

START_TIMEOUT_S = 20.0
#: SIGTERM grace before SIGKILL; today's close stall is about 5 s
TERM_DEADLINE_S = 10.0


class ServeProcess:
    """One server: spawned from an empty directory, stopped on a deadline."""

    def __init__(self, workdir: Path, log_path: Path, monitor: bool = False):
        self.workdir = workdir
        self.log_path = log_path
        self.monitor = monitor
        self.process: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self.killed = False

    def start(self) -> tuple[str, int]:
        """Spawn and wait for the port file; raises with the log's tail
        if the server exits or stays silent past the start timeout."""
        port_file = self.workdir / "port"
        command = [
            sys.executable, "-m", "repro", "serve",
            "--port-file", str(port_file),
            "--tenant", f"{TENANT}:{TOKEN}:eps={EPS}:burst={EPS}",
        ]
        if self.monitor:
            command += ["--monitor-port", "0"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(
                command, env=env, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, cwd=self.workdir,
            )
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                break
            text = port_file.read_text() if port_file.exists() else ""
            if text.endswith("\n"):
                host, port = text.split()
                self.address = (host, int(port))
                return self.address
            time.sleep(0.005)
        self.stop(term_deadline=0.0)
        raise RuntimeError(
            f"repro serve did not come up within {START_TIMEOUT_S:g}s: "
            + self.log_path.read_text()[-2000:]
        )

    def monitor_url(self) -> str:
        """The monitor's base URL, from the banner the server prints."""
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            match = re.search(r"monitor on (\S+)", self.log_path.read_text())
            if match:
                return match.group(1)
            time.sleep(0.005)
        raise RuntimeError("repro serve never announced its monitor")

    def stop(self, term_deadline: float = TERM_DEADLINE_S) -> float:
        """SIGTERM, then SIGKILL past the deadline; returns the seconds
        the process took to end and always reaps it."""
        process = self.process
        if process is None:
            return 0.0
        self.process = None
        start = time.perf_counter()
        if process.poll() is None and term_deadline > 0:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=term_deadline)
            except subprocess.TimeoutExpired:
                pass
        if process.poll() is None:
            self.killed = True
            process.kill()
        process.wait()
        return time.perf_counter() - start
