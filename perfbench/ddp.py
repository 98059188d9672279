"""``ddp-process-w2``: distributed index-batching on the process fabric.

``DDPTrainer`` with the ``dist-index`` strategy, world 2, on
``ProcessTransport`` (one forked interpreter per rank per step).  The
model is small, so the fabric, not compute, sets the step time: this is
the only workload that runs ``repro.runtime.fabric``.

The trainer exposes epochs, not steps, so step boundaries are taken
where the parent process sees them: each step is one ``run_ranks`` call on the
process group.  :class:`StepGroup` is a ``ProcessGroup`` subclass that
stamps those boundaries, keeps the per-step losses, wraps ``run_ranks``
and ``allreduce`` in spans when traced, and ends the window by raising
out of the epoch.
"""

from __future__ import annotations

import resource
from dataclasses import dataclass

import numpy as np

from repro.api import BATCHINGS, DATASETS, MODELS, OPTIMIZERS
from repro.api.builders import ModelContext, default_in_features
from repro.hardware.memory import MemorySpace
from repro.runtime import ProcessGroup, ProcessTransport
from repro.training.ddp import DDPStrategy, DDPTrainer

from perfbench.harness import (
    MB, CheckFailed, NullTracer, Probes, Result, Tracer, bits, ms, pct,
    peak_rss_mb, perf, setup_seconds, timed, traced_peak_mb)

DATASET = "metr-la"
NODES = 8
ENTRIES = 2000
HORIZON = 4
HIDDEN = 8
BATCH = 8          # per rank
WORLD = 2
MODEL = "dcrnn"
LR = 1e-3
WARMUP_STEPS = 5
SETUP_REPS = 15
#: Share of the traced run's window spent alternating whole epochs
#: between an untraced, a traced and an inline trainer.
ALTERNATE_SHARE = 0.9

_NULL = NullTracer()


class _WindowDone(Exception):
    """Raised out of ``DDPTrainer.train_epoch`` to end the timed window."""


class StepGroup(ProcessGroup):
    """A process group that records what the parent process sees of each
    step.

    Step starts are stamped in segments of back-to-back steps; a segment
    ends at :meth:`pause` or at the end of the window, so time spent
    elsewhere between segments is never charged to a step.  The first
    ``warmup`` steps are untimed.  When ``seconds`` or ``steps`` is set,
    the window ends at the first step boundary past it.
    """

    def __init__(self, transport, tracer=_NULL, warmup: int = WARMUP_STEPS):
        super().__init__(transport)
        self.tracer = tracer
        self.warmup = warmup
        self.seconds: float | None = None
        self.steps: int | None = None
        self.calls = 0
        self.segments: list[list[float]] = [[]]
        self.losses: list[float] = []       # rank losses, step by step
        #: per timed step: (run_ranks seconds, per-rank compute seconds)
        self.rank_steps: list[tuple[float, np.ndarray]] = []
        self.comm_start = self.comm_end = (0, 0)    # (bytes, ops)
        self._stop_at = float("inf")
        self._active = _NULL

    def _comm(self) -> tuple[int, int]:
        return self.stats.total_bytes(), self.stats.ops

    def pause(self, now: float | None = None) -> None:
        """Close the current segment of steps."""
        self.segments[-1].append(perf() if now is None else now)
        self.segments.append([])
        self.comm_end = self._comm()

    def run_ranks(self, fn, *, parallel: bool = True) -> list:
        now = perf()
        done = self.calls - self.warmup         # timed steps completed
        if done == 0:
            self.comm_start = self._comm()
            self._active = self.tracer
            if self.seconds is not None:
                self._stop_at = now + self.seconds
        elif done > 0 and (now >= self._stop_at or done == self.steps):
            self.pause(now)
            raise _WindowDone
        self.segments[-1].append(now)
        self.calls += 1
        c0 = self.transport.compute_time.copy()
        with self._active.span("runtime.run_ranks"):
            t0 = perf()
            out = super().run_ranks(fn, parallel=parallel)
            elapsed = perf() - t0
        if done >= 0:
            self.rank_steps.append(
                (elapsed, self.transport.compute_time - c0))
        self.losses.extend(out)
        return out

    def allreduce(self, arrays, op="mean", category="gradient"):
        with self._active.span("runtime.allreduce"):
            return super().allreduce(arrays, op=op, category=category)

    def durations(self) -> np.ndarray:
        """Boundary-to-boundary durations of the timed steps."""
        return np.concatenate([np.diff(seg) for seg in self.segments
                               if len(seg) > 1])[self.warmup:]


@dataclass
class DDPSetup:
    trainer: DDPTrainer
    group: StepGroup
    space: MemorySpace

    def close(self) -> None:
        self.group.transport.shutdown()


def build(seed: int, *, parallel: bool = True, tracer=_NULL,
          setup_tracer=_NULL) -> DDPSetup:
    with setup_tracer.span("datasets.generate"):
        ds = DATASETS.get(DATASET)(nodes=NODES, entries=ENTRIES, seed=seed)
    space = MemorySpace("perfbench:ddp")
    with setup_tracer.span("preprocessing.build"):
        bundle = BATCHINGS.get("index")(ds, HORIZON, BATCH, space)
    ctx = ModelContext(graph=ds.graph, horizon=HORIZON,
                       in_features=default_in_features(ds),
                       hidden_dim=HIDDEN, seed=seed)
    model = MODELS.get(MODEL)(ctx)
    trainable = [p for p in model.parameters() if p.requires_grad]
    optimizer = OPTIMIZERS.get("adam")(trainable, LR)
    group = StepGroup(ProcessTransport(WORLD, parallel=parallel), tracer)
    trainer = DDPTrainer(model, optimizer, group, bundle.train,
                         strategy=DDPStrategy.DIST_INDEX,
                         scaler=bundle.scaler, seed=seed)
    return DDPSetup(trainer, group, space)


def train_window(setup: DDPSetup, *, seconds: float | None = None,
                 steps: int | None = None) -> np.ndarray:
    """Warm up, then train epoch after epoch until the window ends;
    returns the timed step durations."""
    setup.group.seconds, setup.group.steps = seconds, steps
    epoch = 0
    try:
        while True:
            setup.trainer.train_epoch(epoch)
            epoch += 1
    except _WindowDone:
        pass
    finally:
        setup.close()
    return setup.group.durations()


def train_epochs(setups: list[DDPSetup], seconds: float) -> None:
    """Whole epochs, alternating between ``setups`` epoch by epoch, until
    ``seconds`` have passed.  Alternating keeps a slow host phase from
    landing on one trainer only; reversing the order every other round
    keeps any one trainer from always following the same neighbour."""
    t0 = perf()
    epoch = 0
    try:
        while perf() - t0 < seconds:
            for setup in (setups if epoch % 2 == 0 else setups[::-1]):
                setup.trainer.train_epoch(epoch)
                setup.group.pause()
            epoch += 1
    finally:
        for setup in setups:
            setup.close()


def _check(losses: list[float], reference: list[float], what: str) -> None:
    if not np.all(np.isfinite(losses)):
        raise CheckFailed(f"non-finite DDP loss ({what} run)")
    if bits(losses) != bits(reference):
        raise CheckFailed(f"process-fabric losses differ bitwise from the "
                          f"{what} run")


def _inline_losses(seed: int, steps: int) -> list[float]:
    """The same run with ranks inline in this process (``parallel=False``)."""
    setup = build(seed, parallel=False)
    train_window(setup, steps=steps)
    return setup.group.losses


def _samples_per_s(durations: np.ndarray) -> float:
    return BATCH * WORLD * len(durations) / float(durations.sum())


# ---------------------------------------------------------------------------
def run(seed: int, seconds: float, trace: bool) -> Result:
    return (_run_traced if trace else _run_untraced)(seed, seconds)


def _run_untraced(seed: int, seconds: float) -> Result:
    setup, first = timed(lambda: build(seed))
    probes = Probes()
    probes.take()
    durations = train_window(setup, seconds=seconds)
    probes.take()
    _check(setup.group.losses, _inline_losses(seed, len(durations)),
           "inline")
    return Result(
        attempted=len(durations), failed=0,
        metrics={
            "setup_s": setup_seconds(first, lambda: build(seed), SETUP_REPS),
            "samples_per_s": _samples_per_s(durations),
            "latency_ms_p50": ms(pct(durations, 50)),
            "latency_ms_p90": ms(pct(durations, 90)),
            "peak_rss_mb": peak_rss_mb(),
            "ok_frac": 1.0,
        },
        info={"steps": len(durations), "probes": probes.readings})


def _run_traced(seed: int, seconds: float) -> Result:
    setup_tracer = Tracer()
    base = build(seed, setup_tracer=setup_tracer)
    accounted_mb = base.space.peak / MB
    tracer = Tracer()
    traced = build(seed, tracer=tracer)
    inline = build(seed, parallel=False)
    probes = Probes()
    probes.take()
    train_epochs([base, traced, inline], seconds=seconds * ALTERNATE_SHARE)
    probes.take()
    for setup in (base, traced):
        _check(setup.group.losses, inline.group.losses, "inline")
    base_d, durations = base.group.durations(), traced.group.durations()
    seq_d = inline.group.durations()
    group = traced.group

    ds = DATASETS.get(DATASET)(nodes=NODES, entries=ENTRIES, seed=seed)
    _, traced_mb = traced_peak_mb(
        lambda: BATCHINGS.get("index")(ds, HORIZON, BATCH, None))

    steps = len(durations)
    run_s = np.array([e for e, _ in group.rank_steps])
    compute = np.array([c for _, c in group.rank_steps])
    (b0, o0), (b1, o1) = group.comm_start, group.comm_end
    step_p50 = pct(base_d, 50)
    seq_p50 = pct(seq_d, 50)
    base_sps = _samples_per_s(base_d)
    return Result(
        attempted=steps, failed=0,
        metrics={
            "runtime.run_ranks_ms_p50": ms(pct(run_s, 50)),
            "runtime.rank_compute_ms_p50": ms(pct(compute.ravel(), 50)),
            "runtime.fabric_overhead_ms_p50": ms(pct(
                run_s - compute.max(axis=1), 50)),
            "runtime.allreduce_ms_p50": ms(pct(
                tracer.durations("runtime.allreduce"), 50)),
            "runtime.bytes_per_step": (b1 - b0) / steps,
            "runtime.collectives_per_step": (o1 - o0) / steps,
            "runtime.seq_step_ms_p50": ms(seq_p50),
            "runtime.speedup_vs_seq": seq_p50 / step_p50,
            "runtime.child_peak_rss_mb": peak_rss_mb(
                resource.RUSAGE_CHILDREN),
            "datasets.generate_s": float(
                setup_tracer.durations("datasets.generate")[0]),
            "preprocessing.build_s": float(
                setup_tracer.durations("preprocessing.build")[0]),
            "preprocessing.accounted_peak_mb": accounted_mb,
            "preprocessing.traced_peak_mb": traced_mb,
            "preprocessing.accounting_gap_frac": accounted_mb / traced_mb - 1,
            "trace.untraced_samples_per_s": base_sps,
            "trace.overhead_frac": 1.0 - _samples_per_s(durations) / base_sps,
            "trace.span_cover_frac": tracer.root_time() / float(
                durations.sum()),
            "calib.matmul_ms": probes.median("matmul_ms"),
            "calib.pyloop_ms": probes.median("pyloop_ms"),
        },
        info={"steps": steps, "probes": probes.readings},
        spans=tracer.to_records() + setup_tracer.to_records())
