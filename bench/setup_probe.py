"""Time one workload's set-up in a fresh process and print the seconds.

Set-up is ``import dyadhist`` (numpy and scipy included) plus making the
workload's in-memory inputs.  ``run.py`` starts this script several times
per run; by hand: ``python3 bench/setup_probe.py WORKLOAD SEED WORKDIR``.
"""

import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    import workloads

    workloads.WORKLOADS[sys.argv[1]].make_inputs(int(sys.argv[2]), sys.argv[3])
    print(time.perf_counter() - start)
