"""The benchmark's workloads.

Each workload has the same life cycle, driven by ``worker.py`` in a
fresh process: :meth:`setup` (everything a user pays before the first
timed operation), :meth:`run` (operations for a fixed number of
seconds), :meth:`check` (outputs against an oracle, outside the timed
window) and :meth:`close`.  With a :class:`~harness.Tracer` attached the
workload also wraps the program's public calls in spans and reports the
per-layer metrics in :meth:`layers`.

Why these (see ``contract.json`` for the full prediction table):

* ``paper_400`` is the paper's Fig. 4 problem and the repo's headline
  number; half of a step is compiled sweeps, half NumPy residue.
* ``fig3_weno3`` is the Fig. 3 method, which the jit cannot lower, so
  every strip runs the NumPy kernels: the bypass workload for jit work.
* ``service_mix`` is the only workload through ``repro.serve`` and the
  batched engine; per-job compute is small, so queue, dispatch, wire
  and cache are a visible share.
* ``fig4_model`` is the only workload through ``repro.sac``,
  ``repro.f90`` and ``perf.machine``, the paper's own subject.  It runs
  by name but ``BENCHMARK.json`` does not gate it: its time is all
  pure-Python interpretation, which drifts by a quarter or more over
  tens of seconds on a shared host, and one regeneration (25-40 s)
  already fills a run.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import multiprocessing
import os
import random
import resource
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.jit
from repro.euler import engine as engine_module
from repro.euler import problems
from repro.euler.solver import SolverConfig, paper_benchmark_config
from repro.jit import compile as jit_compile

from harness import Tracer, developed_path, median, tail_percentile

HERE = Path(__file__).resolve().parent

#: Problem sizes.  ``toy`` exists for the benchmark's own tests.
SIZES = {
    "full": {
        "paper_400": {"grid": 400, "trial_steps": 8, "develop_steps": 500},
        "fig3_weno3": {"grid": 200, "trial_steps": 8, "develop_steps": 300},
        "service_mix": {"n_2d": 48, "steps_2d": 20, "n_1d": (60, 200), "steps_1d": (30, 40, 50)},
        "fig4_model": {"grid": 400, "steps": 1000, "measure_grid": 24, "measure_steps": 2},
    },
    "toy": {
        "paper_400": {"grid": 32, "trial_steps": 4, "develop_steps": 6},
        "fig3_weno3": {"grid": 24, "trial_steps": 3, "develop_steps": 4},
        "service_mix": {"n_2d": 16, "steps_2d": 3, "n_1d": (20, 160), "steps_1d": (4, 5, 6)},
        "fig4_model": {"grid": 400, "steps": 10, "measure_grid": 16, "measure_steps": 1},
    },
}

Metric = Tuple[float, str]


def sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.float64).tobytes()).hexdigest()


def peak_rss_mb() -> float:
    """This process's peak resident set, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one measured run produced."""

    #: Seconds per operation: a step, a job or a figure regeneration.
    op_seconds: List[float]
    ops_per_s: float
    attempted: int
    failed: int = 0
    #: Peak RSS over the timed window, MiB.
    peak_rss_mb: float = 0.0
    #: Per-workload metric names (steps_per_s, job_ms_p90...), for the table and record.
    named: Dict[str, Metric] = field(default_factory=dict)
    layers: Dict[str, Metric] = field(default_factory=dict)
    record: Dict[str, object] = field(default_factory=dict)


# -- solver workloads ------------------------------------------------------

#: StepEngine methods a traced run wraps, and their span names.
ENGINE_SPANS = {
    "step": "engine.step",
    "compute_dt": "engine.compute_dt",
    "integrate": "engine.integrate",
    "rhs": "engine.rhs",
    "sweep_axis0": "engine.sweep_x",
    "sweep_axis1": "engine.sweep_y",
    "primitive_into": "engine.convert",
    "orient_into": "engine.orient",
}
JIT_SPANS = {"sweep": "jit.sweep", "sweep_tiled": "jit.sweep", "dt_strip": "jit.dt"}


class SolverWorkload:
    """Trials of a fixed step count on the two-channel problem.

    Every trial starts from the same developed flow: :meth:`develop`
    advances the problem ``develop_steps`` steps once per checkout and
    saves the state under ``.bench_build/``, before anything is timed.
    On the 400x400 grid the shocks have disturbed (density off the gas
    at rest by more than 1%) 2% of the cells after 8 steps, 41% after
    500 and 72% after 1000, so the middle of Fig. 4's 1000-step run
    looks like step 500, not like the first steps; 300 steps on the
    200x200 grid (same cell size) disturb 48%.  Each trial's final state
    is compared bit for bit with one oracle run from the same snapshot.  A
    traced run alternates untraced and traced trials and reports the
    tracing overhead from the pair.
    """

    oracle_name = ""
    #: Whether the first ``compute_dt`` loads a jit kernel.
    loads_kernel = True

    def __init__(self, size: str, seed: int, tracer: Optional[Tracer] = None):
        params = SIZES[size][self.name]
        self.size = size
        self.grid = params["grid"]
        self.trial_steps = params["trial_steps"]
        self.develop_steps = params["develop_steps"]
        self.seed = seed  # the paper's problem is fixed; nothing to draw
        self.tracer = tracer
        self.trial_shas: List[str] = []

    def config(self) -> SolverConfig:
        raise NotImplementedError

    def build(self, backend: Optional[str] = None):
        override = repro.jit.backend_override(backend) if backend else contextlib.nullcontext()
        with override:
            solver, _ = problems.two_channel(
                n_cells=self.grid, h=self.grid / 2.0, mach=2.2, config=self.config()
            )
        return solver

    def develop(self) -> None:
        """Save the developed flow, unless this checkout has it already."""
        path = developed_path(self.name, self.size)
        if path.exists():
            return
        solver = self.build()
        for _ in range(self.develop_steps):
            solver.step()
        path.parent.mkdir(parents=True, exist_ok=True)
        partial = path.with_suffix(".partial.npz")
        np.savez(partial, u=solver.u, time=solver.time, steps=solver.steps)
        os.replace(partial, path)

    def setup(self) -> None:
        if self.tracer is not None:
            self.tracer.run_id = "setup"
            self.tracer.wrap(jit_compile, "load_kernel", "jit.load_kernel")
        self.solver = self.build()
        with np.load(developed_path(self.name, self.size)) as saved:
            self.start = (saved["u"], float(saved["time"]), int(saved["steps"]))
        if self.loads_kernel:
            # The jit loads its kernel on the first dt: part of getting ready.
            self.solver.compute_dt()
        self.restart(self.solver)
        if self.tracer is not None:
            self.tracer.restore()
            self.compiles = jit_compile.compile_stats()["compiles"]

    def restart(self, solver) -> None:
        u, time, steps = self.start
        np.copyto(solver.u, u)
        solver.time = time
        solver.steps = steps

    def instrument(self) -> None:
        tracer, engine = self.tracer, self.solver.engine
        for attr, name in ENGINE_SPANS.items():
            tracer.wrap(engine, attr, name)
        if engine.backend is not None:
            for attr, name in JIT_SPANS.items():
                tracer.wrap(engine.backend, attr, name)
        tracer.wrap(engine, "riemann", "kernels.riemann")
        tracer.wrap(engine_module, "reconstruct_characteristic", "kernels.reconstruct")
        tracer.wrap(engine_module, "reconstruct_component", "kernels.reconstruct")

    def run(self, seconds: float) -> Outcome:
        solver = self.solver
        step_times: List[float] = []
        rates = {False: [0, 0.0], True: [0, 0.0]}  # traced? -> [steps, seconds]
        self.traced_ids: set = set()
        self.counts: Dict[str, float] = {}
        deadline = perf_counter() + seconds
        trial = 0
        while trial < 2 or perf_counter() < deadline:
            traced = self.tracer is not None and trial % 2 == 1
            if traced:
                self.tracer.run_id = f"trial{trial}"
                self.traced_ids.add(self.tracer.run_id)
                before = self._counters()
                self.instrument()
            self.restart(solver)
            started = perf_counter()
            for _ in range(self.trial_steps):
                tick = perf_counter()
                solver.step()
                if not traced:
                    step_times.append(perf_counter() - tick)
            elapsed = perf_counter() - started
            if traced:
                self.tracer.restore()
                for key, value in self._counters().items():
                    self.counts[key] = self.counts.get(key, 0) + value - before[key]
            rates[traced][0] += self.trial_steps
            rates[traced][1] += elapsed
            self.trial_shas.append(sha256(solver.u))
            trial += 1
            if self.tracer is None and perf_counter() >= deadline:
                break
        rss = peak_rss_mb()
        rate = len(step_times) / sum(step_times)
        outcome = Outcome(step_times, rate, attempted=trial * self.trial_steps, peak_rss_mb=rss)
        outcome.named = {"steps_per_s": (rate, "steps/s")}
        outcome.named.update(percentile_metrics("step_ms", step_times))
        outcome.record = {"trials": trial, "trial_steps": self.trial_steps, "grid": self.grid,
                          "start_step": self.start[2], "start_time": self.start[1]}
        if self.tracer is not None:
            untraced, traced = (rates[flag][0] / rates[flag][1] for flag in (False, True))
            outcome.layers = self.layers()
            outcome.layers["trace.steps_per_s_untraced"] = (untraced, "steps/s")
            outcome.layers["trace.steps_per_s_traced"] = (traced, "steps/s")
            outcome.layers["trace.overhead"] = (untraced / traced, "ratio")
        return outcome

    def _counters(self) -> Dict[str, float]:
        engine = self.solver.engine
        counters = {
            "steps": engine.steps_taken,
            "tiles": engine.tiles_processed,
            "rhs_evaluations": engine.rhs_evaluations,
        }
        stats = engine.backend.stats() if engine.backend is not None else {}
        counters["jit.sweep_calls"] = stats.get("sweep_calls", 0)
        counters["jit.dt_calls"] = stats.get("dt_calls", 0)
        counters["jit.strips_threaded"] = stats.get("strips_threaded", 0)
        counters["jit.serialized_strips"] = sum((stats.get("serialized") or {}).values())
        counters["jit.fallback_strips"] = sum((stats.get("fallbacks") or {}).values())
        return counters

    def layers(self) -> Dict[str, Metric]:
        table = self.tracer.summary(self.traced_ids)
        steps = self.counts["steps"]

        def per_step(name: str, column: str = "seconds") -> float:
            return table.get(name, {}).get(column, 0.0) / steps

        step_s = per_step("engine.step")
        jit_s = per_step("jit.sweep") + per_step("jit.dt")
        setup = self.tracer.summary({"setup"})
        layers: Dict[str, Metric] = {
            "engine.step_s": (step_s, "s/step"),
            "engine.compute_dt_s": (per_step("engine.compute_dt"), "s/step"),
            "engine.rhs_s": (per_step("engine.rhs"), "s/step"),
            "engine.rhs_calls": (self.counts["rhs_evaluations"] / steps, "count/step"),
            "engine.sweep_x_s": (per_step("engine.sweep_x"), "s/step"),
            "engine.sweep_y_s": (per_step("engine.sweep_y"), "s/step"),
            "engine.convert_s": (per_step("engine.convert"), "s/step"),
            "engine.orient_s": (per_step("engine.orient"), "s/step"),
            "engine.rk_self_s": (per_step("engine.integrate", "self"), "s/step"),
            "engine.nonjit_share": ((step_s - jit_s) / step_s, "ratio"),
            "engine.scratch_bytes": (float(self.solver.engine.scratch_bytes), "bytes"),
            "tiling.strips_per_step": (self.counts["tiles"] / steps, "count/step"),
            "jit.sweep_s": (per_step("jit.sweep"), "s/step"),
            "jit.dt_s": (per_step("jit.dt"), "s/step"),
            "jit.load_s": (setup.get("jit.load_kernel", {}).get("seconds", 0.0), "s"),
            "jit.compiles": (float(self.compiles), "count"),
            "kernels.reconstruct_s": (per_step("kernels.reconstruct"), "s/step"),
            "kernels.riemann_s": (per_step("kernels.riemann"), "s/step"),
            "kernels.calls_per_step": (
                per_step("kernels.reconstruct", "calls") + per_step("kernels.riemann", "calls"),
                "count/step",
            ),
        }
        for key in ("sweep_calls", "dt_calls", "strips_threaded", "serialized_strips",
                    "fallback_strips"):
            layers[f"jit.{key}"] = (self.counts[f"jit.{key}"] / steps, "count/step")
        return layers

    def oracle(self):
        raise NotImplementedError

    def check(self) -> Tuple[int, Dict[str, object]]:
        """Steps whose trial ended off the oracle's state, and the detail."""
        oracle = self.oracle()
        self.restart(oracle)
        for _ in range(self.trial_steps):
            oracle.step()
        expected = sha256(oracle.u)
        wrong = [index for index, digest in enumerate(self.trial_shas) if digest != expected]
        detail = {"oracle": self.oracle_name, "oracle_sha256": expected, "wrong_trials": wrong}
        return len(wrong) * self.trial_steps, detail

    def premise(self, layers: Dict[str, Metric]) -> Tuple[bool, str]:
        raise NotImplementedError

    def close(self) -> None:
        pass


class Paper400(SolverWorkload):
    name = "paper_400"
    oracle_name = "backend=numpy"

    def config(self) -> SolverConfig:
        return paper_benchmark_config()

    def oracle(self):
        return self.build(backend="numpy")

    def premise(self, layers):
        fallbacks = layers["jit.fallback_strips"][0]
        share = layers["jit.sweep_s"][0] / layers["engine.step_s"][0]
        return (
            fallbacks == 0 and share >= 0.30,
            f"jit.fallback_strips={fallbacks:g} (want 0),"
            f" jit.sweep_s/engine.step_s={share:.3f} (want >= 0.30)",
        )


class Fig3Weno3(SolverWorkload):
    name = "fig3_weno3"
    oracle_name = "use_engine=False seed path"
    loads_kernel = False

    def config(self) -> SolverConfig:
        return SolverConfig(riemann="hllc", reconstruction="weno3")

    def oracle(self):
        solver = self.build()
        solver.engine = None
        return solver

    def premise(self, layers):
        sweeps = layers["jit.sweep_calls"][0]
        kernels = layers["kernels.reconstruct_s"][0] + layers["kernels.riemann_s"][0]
        share = kernels / layers["engine.step_s"][0]
        return (
            sweeps == 0 and share >= 0.70,
            f"jit.sweep_calls={sweeps:g} (want 0),"
            f" kernels self/engine.step_s={share:.3f} (want >= 0.70)",
        )


def percentile_metrics(prefix: str, seconds: List[float]) -> Dict[str, Metric]:
    """Median and p90 in ms, p90 only with enough samples beyond it."""
    metrics = {
        f"{prefix}_p50": (median(seconds) * 1e3, "ms"),
        f"{prefix}_samples": (float(len(seconds)), "count"),
    }
    p90 = tail_percentile(seconds, 90)
    if p90 is not None:
        metrics[f"{prefix}_p90"] = (p90 * 1e3, "ms")
    return metrics


# -- service workload ------------------------------------------------------


#: Resubmits reach at least this far back, past the jobs still in flight.
RESUBMIT_GAP = 16


def job_mix(seed: int, count: int, size: str) -> List[Dict[str, object]]:
    """The seeded job list, as JobSpec wire dicts.

    Every block of eight holds, in seeded order, four 2-D two-channel
    Mach variants on one grid with the Section 5 method (shape-compatible,
    so they batch), two 1-D Sod/Lax tubes (never batched) and two exact
    resubmits of an earlier job at least ``RESUBMIT_GAP`` places back, by
    which time the first copy has usually finished, so the result cache
    answers it.  Fresh jobs never repeat one another, so every seed
    gives the same mix of work and only the parameters differ.
    """
    params = SIZES[size]["service_mix"]
    rng = random.Random(seed)
    config = paper_benchmark_config().to_dict()
    low, high = params["n_1d"]
    tubes = [
        (problem, n, steps)
        for problem in ("sod", "lax")
        for n in range(low, high + 1)
        for steps in params["steps_1d"]
    ]
    tube_draws = iter(rng.sample(tubes, len(tubes)))
    fresh: List[int] = []
    jobs: List[Dict[str, object]] = []
    while len(jobs) < count:
        block = ["2d"] * 4 + ["1d"] * 2 + ["again"] * 2
        rng.shuffle(block)
        for kind in block:
            eligible = len(jobs) - RESUBMIT_GAP
            if kind == "again" and eligible > 0:
                jobs.append(jobs[rng.choice([i for i in fresh if i < eligible])])
                continue
            fresh.append(len(jobs))
            if kind == "1d":
                problem, n, steps = next(tube_draws)
                jobs.append({"problem": problem, "problem_args": {"n_cells": n},
                             "config": config, "max_steps": steps, "return_state": False})
            else:
                jobs.append({
                    "problem": "two_channel",
                    "problem_args": {"n_cells": params["n_2d"], "mach": rng.uniform(1.5, 3.0)},
                    "config": config,
                    "max_steps": params["steps_2d"],
                    "return_state": False,
                })
    return jobs[:count]


class ServiceMix:
    """A closed loop against the service from one process.

    ``CLIENTS`` clients each keep ``WINDOW`` jobs outstanding; a
    connection carries one waiting request at a time, so each window
    slot is its own connection, submitting its next job only when the
    previous one has reached a terminal state.
    """

    name = "service_mix"
    SHARDS = 2
    BATCH_MAX = 4
    CLIENTS = 2
    WINDOW = 4
    #: Enough for a 20 s run at 160 jobs/s; the 846 distinct 1-D tubes
    #: (a quarter of the mix) cap it at 3384.
    MIX_LENGTH = 3200
    #: The server keeps every job record (about 65 KB a job), so RSS at the
    #: end of a timed window grows with throughput.  Peak RSS is read when
    #: this many jobs have finished, which every full-size run reaches,
    #: so memory and speed stay separate metrics.
    RSS_AT_JOBS = 600

    def __init__(self, size: str, seed: int, tracer: Optional[Tracer] = None):
        self.size = size
        self.seed = seed
        self.tracer = tracer
        self.handle = None
        self.replies: List[Dict[str, object]] = []
        self.rss_mb: Optional[float] = None
        self._rss_lock = threading.Lock()

    def setup(self) -> None:
        from repro.serve.server import start_in_thread

        self.jobs = job_mix(self.seed, self.MIX_LENGTH, self.size)
        self.handle = start_in_thread(shards=self.SHARDS, batch_max=self.BATCH_MAX)

    def _slot(self, deadline: float, next_index) -> None:
        from repro.errors import ServiceError
        from repro.serve.client import ServiceClient

        with ServiceClient(port=self.handle.port) as client:
            while perf_counter() < deadline:
                index = next_index()
                if index is None:
                    return
                started = perf_counter()
                try:
                    reply = client.run(self.jobs[index])
                except ServiceError as error:
                    reply = {"refused": str(error)}
                reply.update(index=index, started=started, latency=perf_counter() - started)
                with self._rss_lock:
                    self.replies.append(reply)
                    if len(self.replies) == self.RSS_AT_JOBS:
                        self.rss_mb = peak_rss_mb() + sum(child_peak_rss_mb())

    def run(self, seconds: float) -> Outcome:
        lock = threading.Lock()
        cursor = iter(range(len(self.jobs)))

        def next_index():
            with lock:
                return next(cursor, None)

        slots = self.CLIENTS * self.WINDOW
        started = perf_counter()
        with ThreadPoolExecutor(max_workers=slots) as pool:
            futures = [pool.submit(self._slot, started + seconds, next_index) for _ in range(slots)]
            for future in futures:
                future.result()
        window = max(r["started"] + r["latency"] for r in self.replies) - started
        with self._client() as client:
            self.stats = client.stats()
        latencies = [r["latency"] for r in self.replies]
        rate = len(self.replies) / window
        outcome = Outcome(latencies, rate, attempted=len(self.replies))
        # A run too short to reach RSS_AT_JOBS (the toy size) reads it at the end.
        outcome.peak_rss_mb = self.rss_mb or peak_rss_mb() + sum(child_peak_rss_mb())
        outcome.named = {"jobs_per_s": (rate, "jobs/s")}
        outcome.named.update(percentile_metrics("job_ms", latencies))
        used = max(r["index"] for r in self.replies) + 1
        outcome.record = {
            "settings": {"shards": self.SHARDS, "batch_max": self.BATCH_MAX,
                         "clients": self.CLIENTS, "window": self.WINDOW,
                         "rss_read_at_jobs": self.RSS_AT_JOBS if self.rss_mb else len(self.replies)},
            "mix": {"seed": self.seed, "generator": "job_mix", "used": used,
                    "jobs": [_describe(job) for job in self.jobs[:used]]},
        }
        if self.tracer is not None:
            for reply in self.replies:
                self.tracer.record(
                    "svc.job", reply["started"], reply["started"] + reply["latency"],
                    reply.get("job_id"),
                )
            outcome.layers = self.layers()
        return outcome

    def _client(self):
        from repro.serve.client import ServiceClient

        return ServiceClient(port=self.handle.port)

    def layers(self) -> Dict[str, Metric]:
        cold = [r for r in self.replies if r.get("status") and not r["status"]["cached"]]
        queue_wait, compute, supervise = [], [], []
        for reply in cold:
            status, wall = reply["status"], reply["result"]["wall_seconds"]
            queue_wait.append(status["started"] - status["created"])
            compute.append(wall)
            supervise.append(status["finished"] - status["started"] - wall)
        wire = [
            r["latency"] - (r["status"]["finished"] - r["status"]["created"])
            for r in self.replies if r.get("status")
        ]
        stats = self.stats
        batching = stats["batching"]
        hits = sum(1 for r in self.replies if r.get("status", {}).get("cached"))
        return {
            "svc.queue_wait_ms_p50": (median(queue_wait) * 1e3, "ms"),
            "svc.shard_compute_ms_p50": (median(compute) * 1e3, "ms"),
            "svc.supervise_ms_p50": (median(supervise) * 1e3, "ms"),
            "svc.wire_ms_p50": (median(wire) * 1e3, "ms"),
            "svc.cache_hit_ratio": (hits / len(self.replies), "ratio"),
            "svc.batch_size_mean": (
                batching["batched_jobs"] / batching["batches_formed"]
                if batching["batches_formed"] else 1.0,
                "jobs",
            ),
            "svc.queue_high_watermark": (float(stats["queue"]["high_watermark"]), "jobs"),
            "svc.retries": (float(stats["retries"]), "count"),
            "svc.respawns": (float(stats["shards"]["respawns"]), "count"),
            "jit.compiles": (float(self._shard_compiles()), "count"),
        }

    def _shard_compiles(self) -> int:
        """Kernel compiles in the shards, read off their step-trace records.

        Each shard's trace records carry its process-wide jit cache-miss
        counter; the last 1-D job a shard ran has the final value.
        """
        last: Dict[int, Dict[str, object]] = {}
        for reply in self.replies:
            status = reply.get("status")
            if status and not status["cached"] and status["problem"] in ("sod", "lax"):
                last[status["shard"]] = reply
        misses = 0
        with self._client() as client:
            for reply in last.values():
                seen = [
                    event.get("jit_cache_misses", 0)
                    for event in client.stream(reply["job_id"])
                ]
                misses += max(seen, default=0)
        return misses

    def check(self) -> Tuple[int, Dict[str, object]]:
        from repro.serve.jobs import JobSpec

        bad = set()
        cold: Dict[str, List[Dict[str, object]]] = {}
        keys: Dict[int, str] = {}
        for position, reply in enumerate(self.replies):
            status = reply.get("status")
            if not status or status["state"] != "done" or reply.get("result") is None:
                bad.add(position)
                continue
            keys[position] = JobSpec.from_dict(self.jobs[reply["index"]]).cache_key()
            if not status["cached"]:
                cold.setdefault(keys[position], []).append(reply["result"])
        specs = {key: self.jobs[self.replies[p]["index"]] for p, key in keys.items()}
        # The solo solves cost about what the shards computed; spread
        # them over the host's CPUs, one spawned process each.
        context = multiprocessing.get_context("spawn")
        workers = min(len(os.sched_getaffinity(0)), len(specs)) or 1
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            solved = dict(zip(specs, pool.map(solve_in_process, specs.values(), chunksize=4)))
        for position, key in keys.items():
            reply = self.replies[position]
            if reply["status"]["cached"]:
                if reply["result"] not in cold.get(key, []):
                    bad.add(position)
            elif reply["result"]["state_sha256"] != solved[key]:
                bad.add(position)
        detail = {
            "not_done": sum(1 for r in self.replies if not r.get("status")
                            or r["status"]["state"] != "done"),
            "distinct_results": len(solved),
            "wrong_jobs": sorted(self.replies[p].get("job_id", "?") for p in bad),
        }
        return len(bad), detail

    def premise(self, layers):
        batch = layers["svc.batch_size_mean"][0]
        hits = layers["svc.cache_hit_ratio"][0]
        return (
            batch > 1 and hits > 0,
            f"svc.batch_size_mean={batch:.2f} (want > 1), svc.cache_hit_ratio={hits:.3f} (want > 0)",
        )

    def close(self) -> None:
        if self.handle is not None:
            self.handle.stop()
            self.handle = None


def _describe(job: Dict[str, object]) -> List[object]:
    return [job["problem"], job["problem_args"], job["max_steps"]]


def solve_in_process(wire: Dict[str, object]) -> str:
    """sha256 of the conservative state an in-process solve of a job ends in."""
    from repro.serve.jobs import JobSpec
    from repro.serve.workers import state_digest

    spec = JobSpec.from_dict(wire)
    args = spec.problem_args
    if spec.problem == "two_channel":
        n = int(args["n_cells"])
        solver, _ = problems.two_channel(
            n_cells=n, h=n / 2.0, mach=float(args["mach"]), config=spec.config
        )
    else:
        solver, _ = problems.riemann_problem_solver(
            problems.RIEMANN_PROBLEMS[spec.problem],
            n_cells=int(args["n_cells"]), config=spec.config,
        )
    solver.run(t_end=spec.t_end, max_steps=spec.max_steps)
    return state_digest(solver.u)


def child_peak_rss_mb() -> List[float]:
    """Peak RSS (VmHWM) of every live child process, in MiB."""
    me = str(os.getpid())
    peaks = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
            if stat.rsplit(")", 1)[1].split()[1] != me:
                continue
            for line in (entry / "status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    peaks.append(int(line.split()[1]) / 1024.0)
        except (OSError, IndexError, ValueError):
            continue  # the process ended while we looked
    return peaks


# -- Fig. 4 model workload -------------------------------------------------


class Fig4Model:
    """Regenerate Fig. 4's model data: compile, trace, replay 1..16 cores."""

    name = "fig4_model"

    def __init__(self, size: str, seed: int, tracer: Optional[Tracer] = None):
        self.params = SIZES[size]["fig4_model"]
        self.seed = seed  # the paper's problem is fixed; nothing to draw
        self.tracer = tracer
        self.results = []
        self.regions = 0

    def setup(self) -> None:
        import repro.perf.scaling  # noqa: F401 - imports are part of set-up

        reference = HERE / "reference" / f"fig4_{self.params['grid']}x{self.params['steps']}.json"
        self.reference = json.loads(reference.read_text())

    def regenerate(self):
        from repro.perf.scaling import TwoChannelWorkload, figure4_experiment

        params = self.params
        workload = TwoChannelWorkload(
            measure_grid=params["measure_grid"], measure_steps=params["measure_steps"]
        )
        return figure4_experiment(params["grid"], params["steps"], workload=workload)

    def instrument(self) -> None:
        from repro.f90 import api as f90_api
        from repro.f90.api import CompiledFortran
        from repro.perf.machine import MachineModel
        from repro.sac import api as sac_api
        from repro.sac.api import SacProgram

        tracer = self.tracer
        tracer.wrap(sac_api, "compile_file", "sac.compile")
        tracer.wrap(f90_api, "compile_file", "f90.compile")
        tracer.wrap(SacProgram, "run", "sac.run")
        tracer.wrap(CompiledFortran, "call", "f90.run")

        def count_regions(model, trace, *rest):
            self.regions += len(trace)

        tracer.wrap(MachineModel, "run_trace", "machine.run_trace", observe=count_regions)

    def run(self, seconds: float) -> Outcome:
        if self.tracer is not None:
            self.instrument()
        durations = []
        deadline = perf_counter() + seconds
        while not durations or perf_counter() < deadline:
            started = perf_counter()
            if self.tracer is None:
                self.results.append(self.regenerate())
            else:
                self.tracer.run_id = f"regen{len(durations)}"
                self.results.append(self.tracer.call("fig4.regenerate", self.regenerate))
            durations.append(perf_counter() - started)
        if self.tracer is not None:
            self.tracer.restore()
        rss = peak_rss_mb()
        outcome = Outcome(durations, len(durations) / sum(durations),
                          attempted=len(durations), peak_rss_mb=rss)
        outcome.named = {"fig4_s": (median(durations), "s")}
        outcome.record = {"regenerations": len(durations), **self.params}
        if self.tracer is not None:
            outcome.layers = self.layers(len(durations), sum(durations))
        return outcome

    def layers(self, count: int, seconds: float) -> Dict[str, Metric]:
        table = self.tracer.summary()

        def each(name: str, column: str = "seconds") -> float:
            return table.get(name, {}).get(column, 0.0) / count

        return {
            "sac.compile_s": (each("sac.compile"), "s"),
            "sac.run_s": (each("sac.run"), "s"),
            "f90.compile_s": (each("f90.compile"), "s"),
            "f90.run_s": (each("f90.run"), "s"),
            "machine.run_trace_s": (each("machine.run_trace"), "s"),
            "machine.run_trace_calls": (each("machine.run_trace", "calls"), "count"),
            "machine.regions_simulated": (self.regions / count, "count"),
            "machine.run_trace_share": (
                table.get("machine.run_trace", {}).get("seconds", 0.0) / seconds, "ratio"
            ),
        }

    def check(self) -> Tuple[int, Dict[str, object]]:
        wrong = [
            index for index, result in enumerate(self.results)
            if not (matches_reference(result, self.reference) and claims_hold(result))
        ]
        return len(wrong), {"wrong_regenerations": wrong,
                            "crossover_cores": self.results[0].crossover_cores()}

    def premise(self, layers):
        share = layers["machine.run_trace_share"][0]
        return share >= 0.80, f"machine.run_trace_s/fig4_s={share:.3f} (want >= 0.80)"

    def close(self) -> None:
        pass


def scaling_record(result) -> Dict[str, object]:
    return {
        "grid": result.grid,
        "steps": result.steps,
        "sac_regions_per_step": result.sac_regions_per_step,
        "fortran_regions_per_step": result.fortran_regions_per_step,
        "points": [[p.cores, p.sac_seconds, p.fortran_seconds] for p in result.points],
    }


#: Modeled seconds are sums over ~10^5 regions; a faster replay may add
#: them in another order, which moves the last bits and nothing else.
REL_TOL = 1e-9


def matches_reference(result, reference: Dict[str, object]) -> bool:
    got = scaling_record(result)
    exact = ("grid", "steps", "sac_regions_per_step", "fortran_regions_per_step")
    if any(got[key] != reference[key] for key in exact):
        return False
    if len(got["points"]) != len(reference["points"]):
        return False
    return all(
        a[0] == b[0]
        and math.isclose(a[1], b[1], rel_tol=REL_TOL)
        and math.isclose(a[2], b[2], rel_tol=REL_TOL)
        for a, b in zip(got["points"], reference["points"])
    )


def claims_hold(result) -> bool:
    """The paper's Fig. 4 claims: Fortran >= 2x faster on one core,
    Fortran degrading with cores, SaC ahead at the most cores, and the
    crossover strictly in between."""
    first, last = result.points[0], result.points[-1]
    crossover = result.crossover_cores()
    return (
        first.sac_seconds >= 2.0 * first.fortran_seconds
        and last.fortran_seconds > first.fortran_seconds
        and last.sac_seconds < last.fortran_seconds
        and crossover is not None
        and first.cores < crossover < last.cores
    )


WORKLOADS = {cls.name: cls for cls in (Paper400, Fig3Weno3, ServiceMix, Fig4Model)}
