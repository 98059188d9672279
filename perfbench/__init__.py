"""Wall-clock benchmark of the training, distributed and serving paths.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``perfbench/README.md``.
"""

#: Thread-count variables pinned to 1 before NumPy loads, so BLAS and
#: OpenMP never oversubscribe the cores; forked DDP ranks inherit them.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
