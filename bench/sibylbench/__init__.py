"""The repo's benchmark harness (``python3 bench/run.py``).

``stats``     — percentiles, quartiles, bound comparison, span bookkeeping
``env``       — scrubbed child environment, host report, backend gate
``workloads`` — the four end-to-end workloads and their correctness checks
``probes``    — per-layer timing probes on the program's public functions
``budget``    — probe unit costs x exact counts against measured CPU

Everything here measures the program from outside; nothing under
``src/`` imports this package.  See ``bench/README.md``.
"""
