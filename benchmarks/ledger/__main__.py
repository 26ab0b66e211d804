"""``python -m benchmarks.ledger`` (with ``src`` on ``PYTHONPATH``)."""

from .cli import main

raise SystemExit(main())
