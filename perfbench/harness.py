"""Timing, tracing, probing and reporting helpers shared by the workloads.

Everything here is benchmark-side: spans are recorded around calls into
the library's public functions, never inside the library.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import signal
import statistics
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

perf = time.perf_counter
MB = float(1 << 20)


class CheckFailed(RuntimeError):
    """A correctness check failed; the run must exit non-zero."""


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------
class Tracer:
    """In-memory span recorder with parent links and self time.

    ``tracer.span(name)`` is a context manager.  A span's self time is
    its duration minus the durations of its direct children; children
    nest strictly inside their parent, so their intervals never overlap
    and the subtraction is exact.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.child_time: list[float] = []
        self._stack: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.child_time.append(0.0)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(perf())
        return idx

    def _close(self, idx: int) -> None:
        end = perf()
        self.ends[idx] = end
        self._stack.pop()
        parent = self.parents[idx]
        if parent >= 0:
            self.child_time[parent] += end - self.starts[idx]

    def durations(self, name: str) -> np.ndarray:
        return np.array([e - s for n, s, e in
                         zip(self.names, self.starts, self.ends) if n == name])

    def self_times(self, name: str) -> np.ndarray:
        return np.array([e - s - c for n, s, e, c in
                         zip(self.names, self.starts, self.ends,
                             self.child_time) if n == name])

    def root_time(self) -> float:
        """Total duration of root-level spans."""
        return float(sum(e - s for s, e, p in
                         zip(self.starts, self.ends, self.parents) if p < 0))

    def to_records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p,
                 "self": e - s - c}
                for n, s, e, p, c in zip(self.names, self.starts, self.ends,
                                         self.parents, self.child_time)]


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False


class NullTracer:
    """Stand-in with the :class:`Tracer` span surface and no cost."""

    def span(self, name: str):
        return _NULL_SPAN


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
def pct(values, q: float) -> float:
    """Percentile ``q`` (0-100) by linear interpolation; NaN when empty."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return float("nan")
    return float(np.percentile(values, q))


def ms(seconds: float) -> float:
    return seconds * 1e3


# ---------------------------------------------------------------------------
# Host-speed probe
# ---------------------------------------------------------------------------
_PROBE_REPS = 7


def host_probe() -> dict[str, float]:
    """Time a pinned BLAS matmul and a pinned pure-Python loop.

    The two move independently on a shared host, so both are kept.
    Diagnostic only: a reader compares them across runs to tell a slow
    host phase from a change in the program.
    """
    a = np.random.default_rng(0).standard_normal((256, 256)).astype(np.float32)
    mm, py = [], []
    for _ in range(_PROBE_REPS):
        t0 = perf()
        for _ in range(10):
            a @ a
        mm.append((perf() - t0) / 10)
        t0 = perf()
        total = 0
        for i in range(100_000):
            total += i
        py.append(perf() - t0)
    return {"matmul_ms": ms(statistics.median(mm)),
            "pyloop_ms": ms(statistics.median(py))}


@dataclass
class Probes:
    """Host probes taken before and after each timed window."""

    readings: list[dict[str, float]] = field(default_factory=list)

    def take(self) -> None:
        self.readings.append(host_probe())

    def median(self, key: str) -> float:
        return statistics.median(r[key] for r in self.readings)


# ---------------------------------------------------------------------------
# Set-up timing and memory
# ---------------------------------------------------------------------------
def timed(build):
    """Run ``build()``; return (result, seconds)."""
    t0 = perf()
    result = build()
    return result, perf() - t0


def setup_seconds(first: float, build, reps: int) -> float:
    """Median set-up time over ``first`` and ``reps - 1`` more set-ups.

    The extra set-ups run after the timed window, each in a forked child
    of this process: every child starts from the same warm state (imports
    done, nothing else built), none of them can raise this process's peak
    RSS, and their spread in time samples more than one host phase.
    """
    times = [first]
    for _ in range(reps - 1):
        gc.collect()
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:                            # child: never returns
            code = 1
            try:
                os.close(read_fd)
                result, seconds = timed(build)
                close = getattr(result, "close", None)
                if close is not None:
                    close()
                os.write(write_fd, repr(seconds).encode())
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(code)
        os.close(write_fd)
        with os.fdopen(read_fd) as fh:
            reply = fh.read()
        _, status = os.waitpid(pid, 0)
        if status != 0 or not reply:
            raise RuntimeError(f"set-up child exited with status {status}")
        times.append(float(reply))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------
_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the parent of every descendant whose own parent
    exits first (Linux ``PR_SET_CHILD_SUBREAPER``), so that
    :func:`end_children` can wait for those too.  A no-op elsewhere."""
    try:
        import ctypes
        ctypes.CDLL(None, use_errno=True).prctl(
            _PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _child_pids() -> list[int]:
    """PIDs whose parent is this process, read from ``/proc``."""
    me, pids = str(os.getpid()), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me:
            pids.append(int(entry))
    return pids


def end_children(grace: float = 10.0) -> None:
    """Stop every process this one started and wait until each has ended.

    Rank processes still alive are terminated.  The first shared-memory
    block starts multiprocessing's resource tracker, which would outlive
    this process; closing its pipe tells it to exit.  Whatever is still
    running after ``grace`` seconds is killed.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(grace)
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)
        tracker._fd = tracker._pid = None
    deadline = perf() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return                              # none left
        if pid:
            continue
        if perf() > deadline:
            for pid in _child_pids():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def traced_peak_mb(fn):
    """Run ``fn()`` under tracemalloc; return (result, peak MB above
    the level at entry)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, (peak - start) / MB


def bits(values) -> list[int]:
    """Float64 bit patterns, for bitwise comparison of loss sequences."""
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def rss_mb() -> float:
    """Current resident set size in MB."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / MB


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Run stamp
# ---------------------------------------------------------------------------
def stamp(seed: int) -> dict:
    """Everything that changes how fast this host runs the workload."""
    import scipy

    from perfbench import THREAD_VARS
    from repro import kernels
    from repro.hardware.cores import usable_cores

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "usable_cores": usable_cores(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "kernel_backend": kernels.active_backend().name,
    }


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------
@dataclass
class Result:
    """What one workload run reports.

    ``metrics`` maps metric name -> value (units come from
    ``BENCHMARK.json``); ``info`` holds diagnostics printed beside the
    metrics (probe readings, counts).
    """

    attempted: int
    failed: int
    metrics: dict[str, float]
    info: dict = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
