"""Session setup for every test under this directory, `bench/` included.

One OpenBLAS thread: the simulator's dots and norms are small, and on a
busy host a thread per CPU spins against other work and slows the tests
several-fold. It must be set before numpy is first imported, which
`bench/test_bench.py` does at collection, so it lives at the root.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
