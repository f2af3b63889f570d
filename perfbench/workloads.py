"""The scpkit benchmark workloads.

Every workload is a closed loop with one caller, like a researcher's script
that waits on each call before making the next.  It runs in one process,
except ``campaign-w2``, whose ``run_campaign`` calls fan out to 2 pool
workers.  Each workload has

* ``setup(seed, sizes)``: builds its inputs from the seed and makes one
  warm-up call;
* ``measure(state, seconds, gate, pause)``: the untraced timed loop, which
  gives the end-to-end metrics.  It calls ``pause()`` between calls and
  extends its deadline by the seconds that returns;
* ``trace(state, seconds, gate, tracer)``: the traced run, which times each
  public call into a scpkit layer and gives the per-layer metrics.

Every output is checked, and each instance whose check fails or whose call
raises is counted as failed in ``gate``.  scpkit is used only through its
public functions.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import statistics
import traceback
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Callable

from scpkit import (
    CampaignSpec,
    ComparisonRow,
    GeneratorConfig,
    big_step_greedy,
    classical_greedy,
    emit_table,
    exact_min_cover,
    feasibility_probability,
    generate_instance,
    parse_instance,
    run_campaign,
    serialize_instance,
    validate_cover,
)

from spans import Tracer, no_span

# The paper's acceptance shape for campaigns.
CAMPAIGN_N = 100
M_VALUES = (10, 15, 20, 25, 30, 35)
Q_VALUES = (0.3, 0.4, 0.5)
ORACLE_N, ORACLE_M, ORACLE_Q = 100, 25, 0.3
WARMUP_COUNT = 10
GATE_COUNT = 40  # instances per row of the untraced run's replay check


@dataclass(frozen=True)
class Sizes:
    campaign_count: int  # instances per (q, m) row of one run_campaign call
    wide_n: int
    wide_m: int
    wide_q: float
    wide_pool: int  # serialized instances that solve-wide cycles through
    oracle_pool: int  # instances that oracle-small cycles through
    oracle_counted: int  # leading pool instances behind the exact work counts
    setup_reps: int  # cold set-ups whose median is setup_s


FULL = Sizes(500, 1000, 400, 0.05, 12, 1000, 200, 15)
# For the smoke test only: same code paths, seconds instead of minutes.
TINY = Sizes(4, 200, 60, 0.2, 2, 12, 6, 1)


class Gate:
    """Instances attempted and failed in one run, with the first failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, units: int, ok: bool, note: str) -> None:
        self.attempted += units
        if not ok:
            self.failed += units
            if len(self.notes) < 20:
                self.notes.append(note)

    def raised(self, units: int, where: str) -> None:
        self.record(units, False, f"{where}: {traceback.format_exc(limit=3)}")


class WorkCounts:
    """Exact work counts and a digest of every chosen-index tuple, summed
    over a fixed set of instances so that the same seed repeats them."""

    def __init__(self) -> None:
        self.instances = 0
        self.classical_steps = 0
        self.big_steps = 0
        self.big_candidates = 0
        self._digest = hashlib.sha256()

    def add(self, solved: list[tuple]) -> None:
        self.instances += 1
        for name, cover, trace in solved:
            self._digest.update(f"{name}{cover.chosen};".encode())
            if name == "classical_greedy":
                self.classical_steps += len(trace.steps)
            elif name.startswith("big_step_greedy"):
                self.big_steps += len(trace.steps)
                self.big_candidates += sum(s.candidates_evaluated for s in trace.steps)

    def metrics(self) -> dict[str, float]:
        return {
            "classical_greedy.steps": self.classical_steps,
            "big_step_greedy.steps": self.big_steps,
            "big_step_greedy.candidates": self.big_candidates,
        }

    def digest(self) -> str:
        return self._digest.hexdigest()


def harmonic(n: int) -> float:
    return sum(1.0 / k for k in range(1, n + 1))


def pair_bytes(n: int, m: int) -> int:
    """Size of the p=2 pair-union array: C(m, 2) pairs of ceil(n/64) words."""
    return m * (m - 1) // 2 * ((n + 63) // 64) * 8


def expected_draws(configs: list[GeneratorConfig]) -> float:
    """Mean over the configs of 1 / feasibility_probability: raw draws per
    feasible instance under reject-resample."""
    return statistics.fmean(1.0 / feasibility_probability(c) for c in configs)


# A tail is the highest of these percentiles with at least ten samples beyond it.
TAIL_LEVELS = (50, 90, 99, 99.9)


def tail(values: list[float]) -> tuple[float, float]:
    """``(percentile, value)`` of the tail of ``values``, by nearest rank.

    Too few samples for any level gives the maximum, as percentile 100."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in reversed(TAIL_LEVELS):
        k = max(math.ceil(pct / 100 * n) - 1, 0)
        if n - 1 - k >= 10:
            return pct, ordered[k]
    return 100.0, ordered[-1]


def sustained_rate(timed: dict) -> float:
    """Instances per second with each input at its third-quartile call time.

    ``timed`` maps an input to (instances per call, call times in seconds).
    A shared host can switch between a fast and a slow speed, about a third
    apart, for minutes at a time.  Nearly every run sees the slow speed, so
    the upper quartile repeats from run to run where the median jumps."""
    total_units = total_s = 0.0
    for units, times in timed.values():
        if times:
            # interpolated, so that a run with one repeat fewer reads the same
            q3 = statistics.quantiles(times, n=4, method="inclusive")[2] if len(times) > 1 else times[0]
            total_units += units
            total_s += q3
    return total_units / total_s if total_s else 0.0


def share(part_ns: int, whole_ns: int) -> float:
    return part_ns / whole_ns if whole_ns else 0.0


def no_pause() -> float:
    return 0.0


def children_peak_rss_mb() -> float:
    """Largest peak RSS (VmHWM) of this process's live multiprocessing
    children, which during a pooled run_campaign call are its pool workers."""
    peak_kib = 0
    for child in multiprocessing.active_children():
        with open(f"/proc/{child.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    peak_kib = max(peak_kib, int(line.split()[1]))
    return peak_kib / 1024


# --- campaign and campaign-w2 ----------------------------------------------


@dataclass(frozen=True)
class CampaignState:
    specs: tuple[CampaignSpec, ...]
    workers: int


def _instances(spec: CampaignSpec) -> int:
    return spec.count * len(spec.m_values)


def campaign_setup(seed: int, sizes: Sizes, workers: int) -> CampaignState:
    specs = tuple(
        CampaignSpec(
            n=CAMPAIGN_N, q=q, m_values=M_VALUES, p=2, count=sizes.campaign_count, seed=seed
        )
        for q in Q_VALUES
    )
    run_campaign(replace(specs[0], count=min(WARMUP_COUNT, sizes.campaign_count)), workers=workers)
    return CampaignState(specs, workers)


def replay(spec: CampaignSpec, span=no_span, counts: WorkCounts | None = None):
    """The rows of ``spec`` recomputed index by index with the public
    generator and both solvers, each call timed by ``span``."""
    rows = []
    for m in spec.m_values:
        config = GeneratorConfig(spec.n, m, spec.q, spec.seed, spec.feasibility_policy)
        wins = losses = 0
        for idx in range(spec.count):
            with span("generate.generate_instance", m):
                instance = generate_instance(config, idx)
            with span("solvers.classical_greedy", m):
                greedy, greedy_trace = classical_greedy(instance)
            with span("solvers.big_step_greedy", m):
                big, big_trace = big_step_greedy(instance, spec.p)
            wins += big.size < greedy.size
            losses += big.size > greedy.size
            if counts is not None:
                counts.add(
                    [("classical_greedy", greedy, greedy_trace), ("big_step_greedy.p2", big, big_trace)]
                )
        rows.append(
            ComparisonRow(m, spec.q, spec.count, wins, losses, spec.count - wins - losses, spec.p)
        )
    return rows


def _row_timed_call(spec: CampaignSpec, workers: int):
    """One run_campaign call: its rows, wall seconds, per-row seconds and
    the pool workers' peak RSS in MiB (0 without a pool).

    A row ends when the progress sink reports it complete; the first row's
    time includes starting the pool, if there is one.  The sink runs after
    each chunk, while the pool is alive, so the last one sees the workers'
    peaks."""
    ends: list[float] = []
    rss_mb = [0.0]

    def sink(m: int, done: int, count: int) -> None:
        if workers > 1:
            rss_mb[0] = max(rss_mb[0], children_peak_rss_mb())
        if done == count:
            ends.append(perf_counter())

    start = perf_counter()
    rows = run_campaign(spec, sink, workers=workers)
    wall = perf_counter() - start
    return rows, wall, [b - a for a, b in zip([start] + ends[:-1], ends)], rss_mb[0]


def campaign_measure(state: CampaignState, seconds: float, gate: Gate, pause) -> dict:
    # A pooled table must equal the single-process table byte for byte; a
    # single-process table must repeat itself on every call.
    reference = {}
    if state.workers > 1:
        reference = {spec: emit_table(run_campaign(spec), "csv") for spec in state.specs}
    walls: dict[CampaignSpec, list[float]] = {spec: [] for spec in state.specs}
    row_ms: list[float] = []
    workers_rss_mb = 0.0
    cycles = 0
    deadline = perf_counter() + seconds
    while cycles == 0 or perf_counter() < deadline:
        cycles += 1
        for spec in state.specs:
            if cycles > 1 and perf_counter() >= deadline:
                break
            deadline += pause()
            try:
                rows, wall, row_s, rss_mb = _row_timed_call(spec, state.workers)
            except Exception:
                gate.raised(_instances(spec), f"run_campaign q={spec.q}")
                continue
            walls[spec].append(wall)
            workers_rss_mb = max(workers_rss_mb, rss_mb)
            row_ms += [s * 1e3 for s in row_s]
            table = emit_table(rows, "csv")
            expected = reference.setdefault(spec, table)
            gate.record(_instances(spec), table == expected, f"q={spec.q}: table differs")
    _replay_gate(state, gate)
    return {"throughput": sustained_rate({spec: (_instances(spec), w) for spec, w in walls.items()}),
            "latency_ms": row_ms, "repeats": min(len(w) for w in walls.values()),
            "workers_rss_mb": workers_rss_mb}


def _replay_gate(state: CampaignState, gate: Gate) -> None:
    for spec in state.specs:
        small = replace(spec, count=min(spec.count, GATE_COUNT))
        try:
            ok = replay(small) == run_campaign(small, workers=state.workers)
        except Exception:
            gate.raised(_instances(small), f"replay q={spec.q}")
            continue
        gate.record(_instances(small), ok, f"q={spec.q}: replayed tallies differ")


def campaign_trace(state: CampaignState, seconds: float, gate: Gate, tracer: Tracer) -> dict:
    """Per spec: run_campaign at one worker (and at the pool size, for
    campaign-w2), then the replay of the same indices untraced and traced.
    Both replays' tallies must equal run_campaign's rows."""
    counts = WorkCounts()
    cycles = 0
    deadline = perf_counter() + seconds
    with tracer("perfbench.traced"):
        while cycles == 0 or perf_counter() < deadline:
            for i, spec in enumerate(state.specs):
                if cycles and perf_counter() >= deadline:
                    break
                units = _instances(spec)
                try:
                    with tracer("bench.run_campaign"):
                        rows = run_campaign(spec)
                    if state.workers > 1:
                        with tracer("bench.run_campaign.pool"):
                            pooled = run_campaign(spec, workers=state.workers)
                        same = emit_table(pooled, "csv") == emit_table(rows, "csv")
                        gate.record(units, same, f"q={spec.q}: pooled table differs")
                    # The two replays take turns going first, so that a drift
                    # in the host's speed does not always land on the same one.
                    plain_first = (cycles + i) % 2 == 0
                    if plain_first:
                        with tracer("perfbench.replay.untraced"):
                            plain = replay(spec)
                    with tracer("perfbench.replay"):
                        replayed = replay(spec, tracer, counts if cycles == 0 else None)
                    if not plain_first:
                        with tracer("perfbench.replay.untraced"):
                            plain = replay(spec)
                except Exception:
                    gate.raised(units, f"traced campaign q={spec.q}")
                    continue
                gate.record(units, plain == rows, f"q={spec.q}: untraced replay differs")
                gate.record(units, replayed == rows, f"q={spec.q}: replayed tallies differ")
            cycles += 1

    summary = tracer.summary()

    def total(name: str, m: int | None = None, field: int = 1) -> int:
        return sum(v[field] for (n, mm), v in summary.items() if n == name and m in (None, mm))

    def mean_us(name: str, m: int) -> float:
        count = total(name, m, field=0)
        return total(name, m) / count / 1e3 if count else 0.0

    single_ns = total("bench.run_campaign", field=2)
    pooled_ns = total("bench.run_campaign.pool", field=2)
    replay_ns = total("perfbench.replay", field=2)
    plain_ns = total("perfbench.replay.untraced", field=2)
    layers = ("generate.generate_instance", "solvers.classical_greedy", "solvers.big_step_greedy")
    layer_ns = sum(total(name) for name in layers)
    solved = total("solvers.classical_greedy", field=0)
    metrics = {
        "generate.share": share(total(layers[0]), replay_ns),
        "classical_greedy.share": share(total(layers[1]), replay_ns),
        "big_step_greedy.share": share(total(layers[2]), replay_ns),
        "bench.self_share": share(single_ns - layer_ns, single_ns),
        "classical_greedy.ms": total(layers[1]) / solved / 1e6,
        "big_step_greedy.ms": total(layers[2]) / solved / 1e6,
        "big_step_greedy.pair_bytes_computed": pair_bytes(CAMPAIGN_N, max(M_VALUES)),
        "generate.expected_draws": expected_draws(
            [GeneratorConfig(s.n, m, s.q, s.seed) for s in state.specs for m in s.m_values]
        ),
        # the same replays, traced against untraced
        "trace.overhead": 1.0 - share(plain_ns, replay_ns),
        **counts.metrics(),
    }
    for m in M_VALUES:
        metrics[f"generate.us.m{m}"] = mean_us(layers[0], m)
        metrics[f"classical_greedy.us.m{m}"] = mean_us(layers[1], m)
        metrics[f"big_step_greedy.us.m{m}"] = mean_us(layers[2], m)
    if state.workers > 1:
        calls = total("bench.run_campaign.pool", field=0)
        metrics["pool.scaling_efficiency"] = share(single_ns, state.workers * pooled_ns)
        metrics["pool.overhead_s"] = (pooled_ns - single_ns / state.workers) / calls / 1e9
    info = {"cycles": cycles, "counted_instances": counts.instances, "digest": counts.digest()}
    return {"metrics": metrics, "info": info}


# --- solve-wide and oracle-small ------------------------------------------


def _instance_loop(inputs, solve, check, seconds, gate, span, min_calls, pause=no_pause):
    """Closed loop over ``inputs``, cycled from index 0, for ``seconds`` and
    at least ``min_calls`` calls.  Latency covers ``solve``, not ``check``."""
    latency_ms: list[float] = []
    times: dict[int, tuple[int, list[float]]] = {}
    counts = WorkCounts()
    calls = 0
    deadline = perf_counter() + seconds
    while calls < min_calls or perf_counter() < deadline:
        index = calls % len(inputs)
        calls += 1
        deadline += pause()
        t0 = perf_counter()
        try:
            instance, solved = solve(inputs[index], span)
            t1 = perf_counter()
            ok = check(instance, solved, span)
        except Exception:
            gate.raised(1, f"input {index}")
            continue
        latency_ms.append((t1 - t0) * 1e3)
        times.setdefault(index, (1, []))[1].append(t1 - t0)
        gate.record(1, ok, f"input {index}: check failed")
        if calls <= min_calls:
            counts.add(solved)
    return {
        "throughput": sustained_rate(times),
        "latency_ms": latency_ms,
        "repeats": min((len(t) for _, t in times.values()), default=0),
        "counts": counts,
    }


def _split_trace(state, seconds, gate, tracer, measure_loop):
    """Untraced half, then traced half over the same inputs from index 0."""
    plain = measure_loop(state, seconds / 2, gate, no_span)
    with tracer("perfbench.traced"):
        traced = measure_loop(state, seconds / 2, gate, tracer)
    overhead = 1.0 - traced["throughput"] / plain["throughput"]
    return traced, overhead


@dataclass(frozen=True)
class WideState:
    texts: tuple[str, ...]
    config: GeneratorConfig


def wide_setup(seed: int, sizes: Sizes) -> WideState:
    config = GeneratorConfig(sizes.wide_n, sizes.wide_m, sizes.wide_q, seed)
    texts = tuple(
        serialize_instance(generate_instance(config, i)) for i in range(sizes.wide_pool)
    )
    _solve_wide(texts[0], no_span)
    return WideState(texts, config)


def _solve_wide(text: str, span):
    with span("formats.parse_instance"):
        instance = parse_instance(text)
    with span("solvers.classical_greedy"):
        greedy, greedy_trace = classical_greedy(instance)
    with span("solvers.big_step_greedy"):
        big, big_trace = big_step_greedy(instance, 2)
    return instance, [
        ("classical_greedy", greedy, greedy_trace),
        ("big_step_greedy.p2", big, big_trace),
    ]


def _covers_valid(instance, solved, span) -> bool:
    with span("core.validate_cover"):
        return all(validate_cover(instance, cover) for _, cover, _ in solved)


def _wide_loop(state: WideState, seconds, gate, span, pause=no_pause):
    n = len(state.texts)
    return _instance_loop(state.texts, _solve_wide, _covers_valid, seconds, gate, span, n, pause)


def wide_measure(state: WideState, seconds: float, gate: Gate, pause) -> dict:
    return _wide_loop(state, seconds, gate, no_span, pause)


def wide_trace(state: WideState, seconds: float, gate: Gate, tracer: Tracer) -> dict:
    traced, overhead = _split_trace(state, seconds, gate, tracer, _wide_loop)
    summary = tracer.summary()
    wall = summary[("perfbench.traced", 0)][2]
    parse, classical, big = (
        summary[(name, 0)]
        for name in ("formats.parse_instance", "solvers.classical_greedy", "solvers.big_step_greedy")
    )
    config = state.config
    metrics = {
        "formats.parse_instance.ms": parse[1] / parse[0] / 1e6,
        "classical_greedy.ms": classical[1] / classical[0] / 1e6,
        "big_step_greedy.ms": big[1] / big[0] / 1e6,
        "classical_greedy.share": share(classical[1], wall),
        "big_step_greedy.share": share(big[1], wall),
        "big_step_greedy.pair_bytes_computed": pair_bytes(config.n, config.m),
        "generate.expected_draws": expected_draws([config]),
        "trace.overhead": overhead,
        **traced["counts"].metrics(),
    }
    info = {"counted_instances": traced["counts"].instances, "digest": traced["counts"].digest()}
    return {"metrics": metrics, "info": info}


@dataclass(frozen=True)
class OracleState:
    instances: tuple
    config: GeneratorConfig
    counted: int


def oracle_setup(seed: int, sizes: Sizes) -> OracleState:
    config = GeneratorConfig(ORACLE_N, ORACLE_M, ORACLE_Q, seed)
    instances = tuple(generate_instance(config, i) for i in range(sizes.oracle_pool))
    _bound_one(instances[0], no_span)
    return OracleState(instances, config, min(sizes.oracle_counted, sizes.oracle_pool))


def _bound_one(instance, span):
    with span("solvers.exact_min_cover"):
        opt = exact_min_cover(instance)
    with span("solvers.classical_greedy"):
        greedy, greedy_trace = classical_greedy(instance)
    with span("solvers.big_step_greedy"):
        big2, big2_trace = big_step_greedy(instance, 2)
    with span("solvers.big_step_greedy.p3"):
        big3, big3_trace = big_step_greedy(instance, 3)
    return instance, [
        ("exact_min_cover", opt, None),
        ("classical_greedy", greedy, greedy_trace),
        ("big_step_greedy.p2", big2, big2_trace),
        ("big_step_greedy.p3", big3, big3_trace),
    ]


def _within_bounds(instance, solved, span) -> bool:
    """opt <= every greedy size <= H(n) * opt, and every cover is a cover."""
    opt = solved[0][1].size
    bound = harmonic(instance.n) * opt
    sizes_ok = all(opt <= cover.size <= bound for _, cover, _ in solved[1:])
    return _covers_valid(instance, solved, span) and sizes_ok


def _oracle_loop(state: OracleState, seconds, gate, span, pause=no_pause):
    return _instance_loop(
        state.instances, _bound_one, _within_bounds, seconds, gate, span, state.counted, pause
    )


def oracle_measure(state: OracleState, seconds: float, gate: Gate, pause) -> dict:
    return _oracle_loop(state, seconds, gate, no_span, pause)


def oracle_trace(state: OracleState, seconds: float, gate: Gate, tracer: Tracer) -> dict:
    traced, overhead = _split_trace(state, seconds, gate, tracer, _oracle_loop)
    summary = tracer.summary()
    wall = summary[("perfbench.traced", 0)][2]
    exact, classical, big2, big3 = (
        summary[(name, 0)]
        for name in (
            "solvers.exact_min_cover",
            "solvers.classical_greedy",
            "solvers.big_step_greedy",
            "solvers.big_step_greedy.p3",
        )
    )
    exact_ms = [ns / 1e6 for ns in tracer.durations_ns("solvers.exact_min_cover")]
    tail_pct, tail_ms = tail(exact_ms)
    config = state.config
    metrics = {
        "exact_min_cover.ms_p50": statistics.median(exact_ms),
        "exact_min_cover.ms_tail": tail_ms,
        "exact_min_cover.share": share(exact[1], wall),
        "big_step_greedy.p3.ms": big3[1] / big3[0] / 1e6,
        "classical_greedy.ms": classical[1] / classical[0] / 1e6,
        "big_step_greedy.ms": big2[1] / big2[0] / 1e6,
        "classical_greedy.share": share(classical[1], wall),
        "big_step_greedy.share": share(big2[1], wall),
        "big_step_greedy.pair_bytes_computed": pair_bytes(config.n, config.m),
        "generate.expected_draws": expected_draws([config]),
        "trace.overhead": overhead,
        **traced["counts"].metrics(),
    }
    info = {
        "exact_min_cover.tail_percentile": tail_pct,
        "exact_min_cover.samples": len(exact_ms),
        "counted_instances": traced["counts"].instances,
        "digest": traced["counts"].digest(),
    }
    return {"metrics": metrics, "info": info}


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    setup: Callable
    measure: Callable
    trace: Callable
    shape: Callable[[Sizes], dict]


def _campaign_shape(sizes: Sizes) -> dict:
    return {"n": CAMPAIGN_N, "q": list(Q_VALUES), "m": list(M_VALUES), "p": 2,
            "count_per_row": sizes.campaign_count}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "campaign", 1,
            lambda seed, sizes: campaign_setup(seed, sizes, 1),
            campaign_measure, campaign_trace,
            lambda sizes: {**_campaign_shape(sizes), "workers": 1},
        ),
        Workload(
            "campaign-w2", 2,
            lambda seed, sizes: campaign_setup(seed, sizes, 2),
            campaign_measure, campaign_trace,
            lambda sizes: {**_campaign_shape(sizes), "workers": 2},
        ),
        Workload(
            "solve-wide", 1,
            wide_setup, wide_measure, wide_trace,
            lambda sizes: {"n": sizes.wide_n, "m": sizes.wide_m, "q": sizes.wide_q,
                           "pool": sizes.wide_pool, "p": 2},
        ),
        Workload(
            "oracle-small", 1,
            oracle_setup, oracle_measure, oracle_trace,
            lambda sizes: {"n": ORACLE_N, "m": ORACLE_M, "q": ORACLE_Q,
                           "pool": sizes.oracle_pool, "p": [2, 3]},
        ),
    )
}
