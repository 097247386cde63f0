"""The repo's performance benchmark: whole campaigns and a whole service.

Four workloads (``bo_dbms``, ``smac_dbms``, ``svc_random``, ``svc_mixed``),
end-to-end metrics measured from the caller's side with tracing off, and a
separate traced run that attributes the time to the repo's modules from
outside (wrappers around public callables — nothing in ``src/`` changes).

Run it with ``PYTHONPATH=src python -m benchmarks.perf run`` (people) or
``python3 benchmarks/perf/run.py`` (the driver contract in ``BENCHMARK.json``);
see ``README.md`` next to this file.
"""
