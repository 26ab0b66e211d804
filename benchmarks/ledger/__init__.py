"""The layer ledger: the repo's end-to-end benchmark.

Five closed-loop workloads drive the public ``repro`` surface from one
generator thread, check every run against a naive reference count, and
report ``ops_per_s`` / ``op_p50_us`` / ``setup_s`` (gated by the bounds
in ``BENCHMARK.json``) plus per-layer costs in a separate traced pass.
See ``README.md`` in this directory.
"""
