"""``serve-gateway-open``: a wall-clock open loop against ``Gateway``.

One local deployment (the ``train-index`` model, seed-initialised) sits
behind ``Gateway(clock=time.perf_counter)`` with four tenants.  A seeded
Poisson schedule offers 30 qps, about half of what one replica serves a
window at a time (one forward of one window takes 9-15 ms); a host slow
phase of up to ~2x then raises latency without overloading the queue.
Requests coalesce for up to 10 ms, so the batching layer does real work
and a fixed share of each latency does not scale with host speed.
Each streamed request is preceded by its tenant's ``Gateway.ingest`` (a
write beside the read); a fixed share repeats explicit windows from a
small pool, so the result cache sees hits and misses.

The loop is single-threaded: it submits every request that is due,
polls, and spins until the next arrival or the next batch timer.  Each
request is timed from when it was due, so a stall also counts against
the requests queued behind it, and the generator's own lateness is
reported as ``loadgen.lag_ms_p90``.  The library's load generators run
on a manual clock that charges only the forward pass, so auth, quota,
cache, admission and ingest would be free there; here they are not.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.api import BATCHINGS, DATASETS, MODELS
from repro.api.builders import ModelContext, default_in_features
from repro.hardware.memory import MemorySpace
from repro.serving.gateway import Gateway
from repro.serving.session import ModelSession

from perfbench.harness import (
    MB, CheckFailed, NullTracer, Probes, Result, Tracer, ms, pct,
    peak_rss_mb, perf, rss_mb, setup_seconds, timed, traced_peak_mb)
from perfbench.train import (
    DATASET, ENTRIES, HIDDEN, HORIZON, MODEL, NODES)

DEPLOYMENT = "metr-la"
MAX_BATCH = 8
MAX_WAIT_S = 0.01       # micro-batch coalescing window
RATE_QPS = 30.0
TENANTS = 4
POOL = 16
REPEAT_SHARE = 0.25
SLO_MS = 100.0          # fixed latency limit behind loadgen.slo_frac
DEADLINE_S = 1.0        # admission deadline: sheds only on real overload
CACHE_TTL_S = 3600.0
TENANT_QPS = 1000.0     # quotas are checked on every request, never bind
SETUP_REPS = 5

_NULL = NullTracer()


class TracedSession:
    """A session wrapper handed to the deployment: spans ``predict``."""

    def __init__(self, session: ModelSession, tracer):
        self._session = session
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._session, name)

    def predict(self, windows):
        with self._tracer.span("serving.predict"):
            return self._session.predict(windows)


@dataclass
class Traffic:
    """The seeded request schedule and the data it carries."""

    arrivals: np.ndarray        # seconds after the window opens
    tenant: np.ndarray          # tenant index per request
    pool_index: np.ndarray      # explicit pool window, or -1 = streamed
    pool: np.ndarray            # [POOL, horizon, nodes, features]
    rows: np.ndarray            # [TENANTS, rows, nodes, raw] raw readings
    minutes: np.ndarray         # [TENANTS, rows] timestamps


def make_traffic(ds, pool: np.ndarray, seed: int, seconds: float) -> Traffic:
    rng = np.random.default_rng([seed, 0x5E7E])
    # A Poisson process conditioned on its count: every seed offers the
    # same number of requests, so the served rate does not vary with it.
    n = max(1, round(RATE_QPS * seconds))
    arrivals = np.sort(rng.uniform(0.0, seconds, size=n))
    tenant = rng.integers(TENANTS, size=n)
    repeat = rng.random(n) < REPEAT_SHARE
    pool_index = np.where(repeat, rng.integers(POOL, size=n), -1)
    # Each tenant streams its own stretch of the held-out tail of the
    # series; the stretch wraps if a long window outruns it.
    tail = len(ds.signals) // 5
    per = tail // TENANTS
    start = len(ds.signals) - tail
    rows = np.stack([ds.signals[start + k * per: start + (k + 1) * per]
                     for k in range(TENANTS)])
    minutes = np.stack([ds.timestamps[start + k * per: start + (k + 1) * per]
                        for k in range(TENANTS)])
    return Traffic(arrivals, tenant, pool_index, pool, rows, minutes)


@dataclass
class ServeSetup:
    session: ModelSession
    gateway: Gateway
    keys: list[str]
    traffic: Traffic
    space: MemorySpace
    resident_mb: float


def build(seed: int, seconds: float, tracer=_NULL,
          setup_tracer=_NULL) -> ServeSetup:
    with setup_tracer.span("datasets.generate"):
        ds = DATASETS.get(DATASET)(nodes=NODES, entries=ENTRIES, seed=seed)
    space = MemorySpace("perfbench:serve")
    rss0 = rss_mb()
    with setup_tracer.span("preprocessing.build"):
        bundle = BATCHINGS.get("index")(ds, HORIZON, MAX_BATCH, space)
    resident_mb = rss_mb() - rss0
    ctx = ModelContext(graph=ds.graph, horizon=HORIZON,
                       in_features=default_in_features(ds),
                       hidden_dim=HIDDEN, seed=seed)
    session = ModelSession(MODELS.get(MODEL)(ctx), bundle.scaler,
                           max_batch=MAX_BATCH)
    pool = bundle.test.batch_at(np.arange(POOL))[0].copy()
    traffic = make_traffic(ds, pool, seed, seconds)
    gw = Gateway(clock=time.perf_counter, max_batch=MAX_BATCH,
                 max_wait=MAX_WAIT_S, cache_ttl=CACHE_TTL_S,
                 default_deadline=DEADLINE_S)
    gw.add_deployment(DEPLOYMENT, session if tracer is _NULL
                      else TracedSession(session, tracer))
    keys = [gw.add_tenant(f"tenant-{k}", rate_qps=TENANT_QPS).api_key
            for k in range(TENANTS)]
    for k, key in enumerate(keys):          # history for a first window
        for r in range(HORIZON):
            gw.ingest(key, DEPLOYMENT, traffic.rows[k, r],
                      float(traffic.minutes[k, r]))
    return ServeSetup(session, gw, keys, traffic, space, resident_mb)


def warm_up(setup: ServeSetup) -> None:
    """Every batch size once, straight on the session (untimed)."""
    for b in range(1, MAX_BATCH + 1):
        setup.session.predict(setup.traffic.pool[:b])


@dataclass
class LoopOutcome:
    attempted: int
    ok: int
    elapsed: float                      # window open -> last answer held
    latency: list[float] = field(default_factory=list)   # OK answers, s
    lag: list[float] = field(default_factory=list)       # submit lateness
    statuses: dict[str, int] = field(default_factory=dict)
    queue_wait: list[float] = field(default_factory=list)
    batches: int = 0


def open_loop(setup: ServeSetup, tracer=_NULL) -> LoopOutcome:
    """Drive the schedule on the wall clock and verify every OK answer."""
    gw, tr = setup.gateway, setup.traffic
    dep = gw.deployments.get(DEPLOYMENT)
    # Mirror stores reproduce the window each streamed request is served
    # from, for the correctness check; they never touch the gateway.
    mirrors = [dep.new_store(gw.store_capacity) for _ in range(TENANTS)]
    for k in range(TENANTS):
        for r in range(HORIZON):
            mirrors[k].ingest(tr.rows[k, r], float(tr.minutes[k, r]))
    cursor = [HORIZON] * TENANTS            # next stream row per tenant

    n = len(tr.arrivals)
    due = np.empty(n)
    windows: list[np.ndarray | None] = [None] * n
    pending: dict[tuple[str, int], int] = {}
    done_ok: list[tuple[int, object]] = []     # (request, forecast) in order
    hits: list[tuple[int, np.ndarray]] = []
    out = LoopOutcome(attempted=n, ok=0, elapsed=0.0)

    def note(status: str) -> None:
        out.statuses[status] = out.statuses.get(status, 0) + 1

    i = 0
    t0 = perf()
    last = t0
    while i < n or pending:
        now = perf()
        while i < n and t0 + tr.arrivals[i] <= now:
            due[i] = t0 + tr.arrivals[i]
            out.lag.append(now - due[i])
            k = int(tr.tenant[i])
            key = setup.keys[k]
            if tr.pool_index[i] < 0:
                r = cursor[k] % tr.rows.shape[1]
                cursor[k] += 1
                row, minute = tr.rows[k, r], float(tr.minutes[k, r])
                with tracer.span("gateway.ingest"):
                    gw.ingest(key, DEPLOYMENT, row, minute)
                mirrors[k].ingest(row, minute)
                windows[i] = mirrors[k].window(HORIZON)
                with tracer.span("gateway.submit"):
                    resp = gw.submit(key, DEPLOYMENT)
            else:
                windows[i] = tr.pool[tr.pool_index[i]]
                with tracer.span("gateway.submit"):
                    resp = gw.submit(key, DEPLOYMENT, windows[i])
            if resp.status == "admitted":
                pending[(resp.deployment, resp.request_id)] = i
            else:
                note(resp.status)
            if resp.status == "cached":
                last = perf()
                out.latency.append(last - due[i])
                hits.append((i, resp.forecast.predictions))
            i += 1
            now = perf()
        with tracer.span("gateway.poll"):
            completed = gw.poll()
        held = perf()
        for resp in completed:
            j = pending.pop((resp.deployment, resp.request_id))
            note(resp.status)
            if resp.status == "ok":
                last = held
                out.latency.append(held - due[j])
                out.queue_wait.append(resp.forecast.queue_wait)
                done_ok.append((j, resp.forecast))
        if i >= n and not pending:
            break
        wake = t0 + tr.arrivals[i] if i < n else math.inf
        ready = gw.time_until_ready()
        if ready is not None:
            wake = min(wake, perf() + ready)
        elif math.isinf(wake):
            wake = perf() + MAX_WAIT_S
        # Spin rather than sleep: waking an idle virtual CPU costs the
        # host a variable few milliseconds, which would be charged to the
        # next request as if the program had spent it.
        while perf() < wake:
            pass
    out.elapsed = last - t0
    out.ok = len(out.latency)
    out.batches = _verify(setup.session, windows, done_ok, hits)
    return out


def _verify(session: ModelSession, windows, done_ok, hits) -> int:
    """Every OK answer must be finite and bitwise equal to a direct
    ``ModelSession.predict`` on the same window.

    A forward's low bits depend on the batch it ran in (BLAS blocks the
    batch dimension), so each dispatched batch is replayed whole: the
    queue is FIFO, so a batch is a run of consecutive request ids whose
    completions arrive together.  Cache hits must equal an answer
    computed for the same window in this run.  Returns the batch count.
    """
    computed: dict[bytes, set[bytes]] = {}
    pos = batches = 0
    while pos < len(done_ok):
        size = done_ok[pos][1].batch_size
        group = done_ok[pos: pos + size]
        ids = [fc.request_id for _, fc in group]
        if len(group) != size or ids != list(range(ids[0], ids[0] + size)):
            raise CheckFailed(f"completions at {pos} do not form one "
                              f"batch of {size}: request ids {ids}")
        preds = session.predict(np.stack([windows[j] for j, _ in group]))
        for row, (j, fc) in enumerate(group):
            expect = session.to_original_units(preds[row])
            got = fc.predictions
            if not np.all(np.isfinite(got)):
                raise CheckFailed(f"request {j}: non-finite answer")
            if got.shape != expect.shape or got.dtype != expect.dtype or \
                    got.tobytes() != expect.tobytes():
                raise CheckFailed(f"request {j}: answer differs from a "
                                  f"direct predict of its batch")
            computed.setdefault(windows[j].tobytes(), set()).add(
                got.tobytes())
        pos += size
        batches += 1
    for j, got in hits:
        if got.tobytes() not in computed.get(windows[j].tobytes(), ()):
            raise CheckFailed(f"request {j}: cache hit matches no answer "
                              f"computed for its window")
    return batches


# ---------------------------------------------------------------------------
def run(seed: int, seconds: float, trace: bool) -> Result:
    return (_run_traced if trace else _run_untraced)(seed, seconds)


def _run_untraced(seed: int, seconds: float) -> Result:
    setup, first = timed(lambda: build(seed, seconds))
    warm_up(setup)
    probes = Probes()
    probes.take()
    loop = open_loop(setup)
    probes.take()
    lat = np.asarray(loop.latency)
    peak_mb = peak_rss_mb()
    del setup
    return Result(
        attempted=loop.attempted, failed=loop.attempted - loop.ok,
        metrics={
            "setup_s": setup_seconds(first, lambda: build(seed, seconds),
                                     SETUP_REPS),
            "samples_per_s": loop.ok / loop.elapsed,
            "latency_ms_p50": ms(pct(lat, 50)),
            "latency_ms_p90": ms(pct(lat, 90)),
            "peak_rss_mb": peak_mb,
            "ok_frac": loop.ok / loop.attempted,
        },
        info={"slo_frac": _slo_frac(loop), "statuses": loop.statuses,
              "batches": loop.batches,
              "lag_ms_p90": ms(pct(loop.lag, 90)),
              "probes": probes.readings})


def _slo_frac(loop: LoopOutcome) -> float:
    """Attempted requests answered OK within ``SLO_MS``; refusals miss."""
    return float(np.sum(np.asarray(loop.latency) * 1e3 <= SLO_MS)) \
        / loop.attempted


def _run_traced(seed: int, seconds: float) -> Result:
    half = seconds / 2
    setup_tracer = Tracer()
    base = build(seed, half, setup_tracer=setup_tracer)
    accounted_mb = base.space.peak / MB
    warm_up(base)
    probes = Probes()
    probes.take()
    base_loop = open_loop(base)
    probes.take()

    tracer = Tracer()
    setup = build(seed, half, tracer)
    warm_up(setup)
    probes.take()
    loop = open_loop(setup, tracer)
    probes.take()

    ds = DATASETS.get(DATASET)(nodes=NODES, entries=ENTRIES, seed=seed)
    _, traced_mb = traced_peak_mb(
        lambda: BATCHINGS.get("index")(ds, HORIZON, MAX_BATCH, None))

    def self_us(name):
        return pct(tracer.self_times(name), 50) * 1e6

    polls = [r["self"] for r in tracer.to_records()
             if r["name"] == "gateway.poll" and r["end"] - r["start"]
             > r["self"]]
    cache = setup.gateway.cache.stats
    base_sps = base_loop.ok / base_loop.elapsed
    served = loop.ok - cache.hits
    return Result(
        attempted=loop.attempted, failed=loop.attempted - loop.ok,
        metrics={
            "serving.predict_ms_p50": ms(pct(
                tracer.durations("serving.predict"), 50)),
            "serving.queue_wait_ms_p90": ms(pct(loop.queue_wait, 90)),
            "serving.batch_size_mean": served / loop.batches,
            "serving.batches": loop.batches,
            "gateway.submit_us_p50": self_us("gateway.submit"),
            "gateway.ingest_us_p50": self_us("gateway.ingest"),
            "gateway.poll_ms_p50": ms(pct(polls, 50)),
            "gateway.cache_hit_frac": cache.hit_rate,
            "gateway.shed_frac": setup.gateway.stats.shed / loop.attempted,
            "loadgen.lag_ms_p90": ms(pct(loop.lag, 90)),
            "loadgen.slo_frac": _slo_frac(loop),
            "datasets.generate_s": float(
                setup_tracer.durations("datasets.generate")[0]),
            "preprocessing.build_s": float(
                setup_tracer.durations("preprocessing.build")[0]),
            "preprocessing.accounted_peak_mb": accounted_mb,
            "preprocessing.traced_peak_mb": traced_mb,
            "preprocessing.resident_mb": base.resident_mb,
            "preprocessing.accounting_gap_frac": accounted_mb / traced_mb - 1,
            "trace.untraced_samples_per_s": base_sps,
            "trace.overhead_frac": 1.0 - (loop.ok / loop.elapsed) / base_sps,
            "trace.span_cover_frac": tracer.root_time() / loop.elapsed,
            "calib.matmul_ms": probes.median("matmul_ms"),
            "calib.pyloop_ms": probes.median("pyloop_ms"),
        },
        info={"statuses": loop.statuses, "probes": probes.readings},
        spans=tracer.to_records() + setup_tracer.to_records())
