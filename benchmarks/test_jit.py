"""Compiled-kernel benchmark: jit vs tiled NumPy, bit for bit.

The compile layer (:mod:`repro.jit`) exists to buy back the with-loop
folding the paper credits to SaC — fusing the
``reconstruct -> riemann -> difference`` chain so intermediates never
travel through memory.  This benchmark measures that purchase in the
repo's standard currency (steps/s on the two-channel workload, paper
method) and enforces the ISSUE 8 acceptance gates:

* ``max_abs_difference`` between the jit and NumPy runs is **exactly
  0.0** — the compiled path may only change speed, never results;
* the jit path is >= 2x the tiled NumPy path at 320 cells and up
  (the ROADMAP target to report toward is 5x; the measured number
  lands in ``BENCH_jit.json`` either way).

Grid and steps shrink for CI smoke via ``REPRO_JIT_BENCH_GRID`` /
``REPRO_JIT_BENCH_STEPS``.  Skips cleanly when no C compiler is on
PATH — the NumPy oracle is always available, so the absence of ``cc``
must never fail the suite.
"""

import os
import time

import numpy as np
import pytest

import repro.jit
from repro.euler import problems
from repro.euler.solver import paper_benchmark_config

from conftest import write_bench_json

GRID = int(os.environ.get("REPRO_JIT_BENCH_GRID", "400"))
STEPS = int(os.environ.get("REPRO_JIT_BENCH_STEPS", "10"))
#: The hard acceptance bar (jit vs tiled NumPy) on big grids; tiny
#: grids are dominated by Python dispatch either way.
JIT_SPEEDUP_FLOOR = 2.0
JIT_SPEEDUP_GRID = 320

pytestmark = pytest.mark.skipif(
    not repro.jit.available(), reason="no C compiler on PATH"
)


def _solver(backend):
    with repro.jit.backend_override(backend):
        solver, _ = problems.two_channel(
            n_cells=GRID, h=GRID / 2.0, config=paper_benchmark_config()
        )
    return solver


def _timed_steps(solver, steps):
    """Steps/s over ``steps`` steps after one warmup step (the warmup
    absorbs lazy compilation on the jit path)."""
    solver.step()
    start = time.perf_counter()
    for _ in range(steps):
        solver.step()
    return steps / (time.perf_counter() - start)


@pytest.fixture(scope="module")
def jit_rates():
    numpy_solver = _solver("numpy")
    jit_solver = _solver("jit")
    numpy_rate = _timed_steps(numpy_solver, STEPS)
    jit_rate = _timed_steps(jit_solver, STEPS)
    counters = jit_solver.engine.counters()
    stats = counters["jit"]
    return {
        "grid": GRID,
        "steps": STEPS,
        "numpy_steps_per_second": numpy_rate,
        "jit_steps_per_second": jit_rate,
        "jit_speedup": jit_rate / numpy_rate,
        "max_abs_difference": float(
            np.max(np.abs(jit_solver.u - numpy_solver.u))
        ),
        "spec": stats["spec"],
        "backend": counters["backend"],
        "tiles": counters["tiles"],
        "sweep_calls": stats["sweep_calls"],
        "dt_calls": stats["dt_calls"],
        "compile_seconds": stats["compile_seconds"],
        "cache_hits": stats["cache_hits"],
        "cache_misses": stats["cache_misses"],
    }


def test_jit_json(benchmark, jit_rates):
    """Emit the cross-PR record; benchmark one jit step for the harness."""
    solver = _solver("jit")
    solver.step()
    benchmark.pedantic(solver.step, rounds=1, iterations=max(1, STEPS // 2))
    print()
    print(
        f"jit {GRID}x{GRID} ({jit_rates['spec']}):"
        f" jit {jit_rates['jit_steps_per_second']:.2f} steps/s, numpy"
        f" {jit_rates['numpy_steps_per_second']:.2f}"
        f" ({jit_rates['jit_speedup']:.2f}x); compile"
        f" {jit_rates['compile_seconds']:.2f}s,"
        f" cache {jit_rates['cache_hits']}h/{jit_rates['cache_misses']}m;"
        f" max|jit-numpy| = {jit_rates['max_abs_difference']}"
    )
    path = write_bench_json("jit", jit_rates)
    print(f"wrote {path}")
    benchmark.extra_info["jit_speedup"] = jit_rates["jit_speedup"]


def test_jit_is_bit_for_bit_with_numpy(jit_rates):
    """The non-negotiable gate, enforced at every grid size."""
    assert jit_rates["max_abs_difference"] == 0.0


def test_jit_kernels_actually_served(jit_rates):
    """The measurement must be of the compiled path, not a silent
    NumPy run dressed up as one: every strip went through the kernel."""
    assert jit_rates["backend"] == "jit"
    assert jit_rates["sweep_calls"] > 0
    assert jit_rates["dt_calls"] > 0
    assert jit_rates["sweep_calls"] + jit_rates["dt_calls"] == jit_rates["tiles"]


def test_jit_speedup_gate(jit_rates):
    """>= 2x tiled NumPy from 320 cells up; sanity only below."""
    if GRID >= JIT_SPEEDUP_GRID:
        assert jit_rates["jit_speedup"] >= JIT_SPEEDUP_FLOOR, (
            f"jit {jit_rates['jit_steps_per_second']:.2f} steps/s vs numpy"
            f" {jit_rates['numpy_steps_per_second']:.2f} — below the 2x bar"
        )
    else:
        assert jit_rates["jit_speedup"] > 0.5
