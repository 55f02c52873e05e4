"""The declared-workload benchmark for this repository (see ``perf/README.md``).

Everything here measures ``src/repro`` from outside: wall clocks around
calls into public functions, the program's own public counters, and
``/proc``.  Nothing under ``src/`` imports this package.
"""
