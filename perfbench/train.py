"""``train-index`` and ``train-base``: single-process training steps.

Both workloads run one loop: ``Trainer.train_step`` over
``loader.batch_at`` on the METR-LA generator at paper shape (207
sensors, horizon 12).  They differ only in the batching mode the loaders
are built with, so a compute change moves both alike and a
preprocessing change moves only ``train-base``'s set-up and memory.
"""

from __future__ import annotations

import gc
import itertools
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.api import BATCHINGS, DATASETS, MODELS, OPTIMIZERS
from repro.api.builders import ModelContext, default_in_features
from repro.autograd.tensor import Tensor
from repro.hardware.memory import MemorySpace
from repro.models.dcrnn import DCRNN
from repro.training.step import clip_and_step
from repro.training.trainer import Trainer

from perfbench.harness import (
    MB, CheckFailed, NullTracer, Probes, Result, Tracer, bits, ms, pct,
    peak_rss_mb, perf, rss_mb, setup_seconds, timed, traced_peak_mb)

DATASET = "metr-la"
NODES = 207
ENTRIES = 6000
HORIZON = 12
HIDDEN = 8
BATCH = 8
MODEL = "dcrnn"
LR = 1e-3
WARMUP_STEPS = 3
SETUP_REPS = {"index": 5, "base": 3}


@dataclass
class TrainSetup:
    trainer: Trainer
    bundle: Any            # keeps every split's loader (and its memory) alive
    space: MemorySpace
    resident_mb: float     # RSS the preprocessed loaders hold
    context: ModelContext


def build(batching: str, seed: int, tracer=NullTracer()) -> TrainSetup:
    """Dataset -> loaders -> model -> optimizer -> trainer, as ``repro.run``
    wires a single-device run."""
    with tracer.span("datasets.generate"):
        ds = DATASETS.get(DATASET)(nodes=NODES, entries=ENTRIES, seed=seed)
    space = MemorySpace(f"perfbench:{batching}")
    rss0 = rss_mb()
    with tracer.span("preprocessing.build"):
        bundle = BATCHINGS.get(batching)(ds, HORIZON, BATCH, space)
    resident_mb = rss_mb() - rss0
    ctx = ModelContext(graph=ds.graph, horizon=HORIZON,
                       in_features=default_in_features(ds),
                       hidden_dim=HIDDEN, seed=seed)
    return TrainSetup(new_trainer(ctx, bundle, seed), bundle, space,
                      resident_mb, ctx)


def new_trainer(ctx: ModelContext, bundle, seed: int) -> Trainer:
    """A model, optimizer and trainer from the seed, over ``bundle``."""
    model = MODELS.get(MODEL)(ctx)
    trainable = [p for p in model.parameters() if p.requires_grad]
    optimizer = OPTIMIZERS.get("adam")(trainable, LR)
    return Trainer(model, optimizer, bundle.train, scaler=bundle.scaler,
                   seed=seed)


def _selections(trainer: Trainer):
    """Full batches in the trainer's own epoch order, epoch after epoch."""
    bs = trainer.train_loader.batch_size
    for epoch in itertools.count():
        for sel in trainer.sampler.epoch_plan(epoch)[0]:
            if len(sel) == bs:
                yield sel


def run_steps(trainer: Trainer, seconds: float):
    """Warm up, then run ``Trainer.train_step`` until ``seconds`` pass.

    Returns every loss (warm-up first) and the boundary-to-boundary
    durations of the timed steps.
    """
    trainer.model.train()
    step = trainer_step(trainer)
    loader = trainer.train_loader
    losses: list[float] = []
    marks: list[float] = []
    for sel in _selections(trainer):
        if len(losses) >= WARMUP_STEPS:
            now = perf()
            marks.append(now)
            if now - marks[0] >= seconds:
                break
        losses.append(step(loader, sel))
    return losses, np.diff(marks)


def alternate_steps(trainers: tuple[Trainer, Trainer],
                    steps: tuple[Callable, Callable],
                    warm: tuple[Callable, Callable], seconds: float):
    """Two trainers over the same batches, step by step in turn, so a
    slow host phase lands on both alike.  Returns each one's losses
    (warm-up first) and timed step durations."""
    for trainer in trainers:
        trainer.model.train()
    loader = trainers[0].train_loader
    losses: tuple[list, list] = ([], [])
    durations: tuple[list, list] = ([], [])
    start = None
    for n, sel in enumerate(_selections(trainers[0])):
        if n < WARMUP_STEPS:
            for k in (0, 1):
                losses[k].append(warm[k](loader, sel))
            continue
        start = perf() if start is None else start
        for k in (0, 1):
            t0 = perf()
            losses[k].append(steps[k](loader, sel))
            durations[k].append(perf() - t0)
        if perf() - start >= seconds:
            break
    return losses, tuple(np.array(d) for d in durations)


def trainer_step(trainer: Trainer) -> Callable:
    """The production step, untraced."""
    def step(loader, sel):
        x, y = loader.batch_at(sel)
        return trainer.train_step(x, y)
    return step


def traced_step(trainer: Trainer, tracer) -> Callable:
    """``Trainer.train_step`` rebuilt from its public calls, with a span
    around each layer.  Its losses must equal the trainer's bitwise."""
    model, optimizer = trainer.model, trainer.optimizer

    def step(loader, sel):
        with tracer.span("training.step"):
            with tracer.span("batching.gather"):
                x, y = loader.batch_at(sel)
            xt = Tensor(x)
            target = y[..., :1]
            with tracer.span("models.forward"):
                pred = (model(xt, targets=y) if isinstance(model, DCRNN)
                        else model(xt))
            with tracer.span("optim.loss"):
                loss = trainer.loss_fn(pred, target.astype(np.float32))
            optimizer.zero_grad()
            with tracer.span("autograd.backward"):
                loss.backward()
            with tracer.span("optim.step"):
                clip_and_step(optimizer, trainer.clip_norm)
            return float(loss.item())
    return step


def _check_finite(losses: list[float]) -> None:
    bad = [i for i, v in enumerate(losses) if not np.isfinite(v)]
    if bad:
        raise CheckFailed(f"non-finite training loss at steps {bad[:5]}")


def _samples_per_s(durations: np.ndarray) -> float:
    return BATCH * len(durations) / float(durations.sum())


# ---------------------------------------------------------------------------
def run(batching: str, seed: int, seconds: float, trace: bool) -> Result:
    return (_run_traced if trace else _run_untraced)(batching, seed, seconds)


def _run_untraced(batching: str, seed: int, seconds: float) -> Result:
    setup, first = timed(lambda: build(batching, seed))
    trainer = setup.trainer
    probes = Probes()
    probes.take()
    losses, durations = run_steps(trainer, seconds)
    probes.take()
    _check_finite(losses)
    peak_mb = peak_rss_mb()
    del setup, trainer
    return Result(
        attempted=len(durations), failed=0,
        metrics={
            "setup_s": setup_seconds(first, lambda: build(batching, seed),
                                     SETUP_REPS[batching]),
            "samples_per_s": _samples_per_s(durations),
            "latency_ms_p50": ms(pct(durations, 50)),
            "latency_ms_p90": ms(pct(durations, 90)),
            "peak_rss_mb": peak_mb,
            "ok_frac": 1.0,
        },
        info={"steps": len(durations), "probes": probes.readings})


def _run_traced(batching: str, seed: int, seconds: float) -> Result:
    setup_tracer = Tracer()
    setup = build(batching, seed, setup_tracer)
    accounted_mb = setup.space.peak / MB
    # The production step and its traced rebuild, each on its own model
    # from the same seed, alternate over the same batches.
    base = setup.trainer
    trainer = new_trainer(setup.context, setup.bundle, seed)
    tracer = Tracer()
    probes = Probes()
    probes.take()
    (base_losses, losses), (base_d, durations) = alternate_steps(
        (base, trainer),
        (trainer_step(base), traced_step(trainer, tracer)),
        (trainer_step(base), traced_step(trainer, NullTracer())), seconds)
    probes.take()
    _check_finite(losses)
    if bits(losses) != bits(base_losses):
        raise CheckFailed("traced step rebuild diverged from "
                          "Trainer.train_step (losses differ bitwise)")

    alloc_mb = _step_alloc_mb(trainer)
    resident_mb = setup.resident_mb
    del setup, base, trainer
    gc.collect()
    traced_mb = _traced_build_mb(batching, seed)

    def self_ms(name):
        return ms(pct(tracer.self_times(name), 50))

    base_sps = _samples_per_s(base_d)
    traced_sps = _samples_per_s(durations)
    return Result(
        attempted=len(durations), failed=0,
        metrics={
            "models.forward_ms_p50": self_ms("models.forward"),
            "optim.loss_ms_p50": self_ms("optim.loss"),
            "autograd.backward_ms_p50": self_ms("autograd.backward"),
            "autograd.alloc_mb_per_step": alloc_mb,
            "optim.step_ms_p50": self_ms("optim.step"),
            "batching.gather_ms_p50": self_ms("batching.gather"),
            "training.other_ms_p50": self_ms("training.step"),
            "training.step_ms_p50": ms(pct(tracer.durations("training.step"),
                                           50)),
            "datasets.generate_s": float(
                setup_tracer.durations("datasets.generate")[0]),
            "preprocessing.build_s": float(
                setup_tracer.durations("preprocessing.build")[0]),
            "preprocessing.accounted_peak_mb": accounted_mb,
            "preprocessing.traced_peak_mb": traced_mb,
            "preprocessing.resident_mb": resident_mb,
            "preprocessing.accounting_gap_frac": accounted_mb / traced_mb - 1,
            "trace.untraced_samples_per_s": base_sps,
            "trace.overhead_frac": 1.0 - traced_sps / base_sps,
            "trace.span_cover_frac": tracer.root_time() / float(
                durations.sum()),
            "calib.matmul_ms": probes.median("matmul_ms"),
            "calib.pyloop_ms": probes.median("pyloop_ms"),
        },
        info={"steps": len(durations), "probes": probes.readings},
        spans=tracer.to_records() + setup_tracer.to_records())


def _step_alloc_mb(trainer: Trainer) -> float:
    """Peak bytes one more training step allocates above its start level
    (the autograd graph's saved activations and gradients dominate)."""
    x, y = trainer.train_loader.batch_at(next(_selections(trainer)))
    _, peak = traced_peak_mb(lambda: trainer.train_step(x, y))
    return peak


def _traced_build_mb(batching: str, seed: int) -> float:
    """tracemalloc peak of preprocessing alone, for comparison with the
    ``MemorySpace`` accounting of the same build."""
    ds = DATASETS.get(DATASET)(nodes=NODES, entries=ENTRIES, seed=seed)
    bundle, peak = traced_peak_mb(
        lambda: BATCHINGS.get(batching)(ds, HORIZON, BATCH, None))
    del bundle
    return peak
