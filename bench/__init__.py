"""End-to-end benchmark of the unmodified program, driven through its public API.

Run ``python -m bench`` from the repository root; ``bench/README.md`` defines
every workload and metric and ``BENCHMARK.json`` is the machine-readable
contract.  Nothing here is imported by ``repro`` and nothing under ``src/`` is
edited: spans are recorded from these files, around the calls into each layer.
"""
