"""The one benchmark for the whole stack (see README.md in this directory).

Five named workloads, four end-to-end metrics every workload reports, and a
traced run that attributes the time to the layers (``graph`` / ``core`` /
``tensorir`` / ``runtime`` / ``minidgl`` / ``serve``).  Every layer is
measured from outside: the files here time calls into public functions and
read public counters; nothing under ``src/`` knows the benchmark exists.

Entry points::

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1
    PYTHONPATH=src python -m benchmarks.perf run|repeat|list
"""
