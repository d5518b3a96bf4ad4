"""Engine benchmark of record for the push/pull broadcast simulator.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload of :mod:`perfbench.workloads`; see :mod:`perfbench.run`.
"""
