"""The command ``BENCHMARK.json`` names: ``python3 benchmarks/ledger/run.py``.

Run from anywhere; it puts the checkout's root and ``src`` on the path
itself, so it needs no environment. Without the program under ``src``
it exits non-zero with nothing on standard output.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    raise SystemExit(f"{ROOT / 'src' / 'repro'}: the program to measure is absent")
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from benchmarks.ledger.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
