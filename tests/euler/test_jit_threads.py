"""Compiled kernels on worker threads: bit-identical to the serial run.

Threads enter a jit run in one place: the worker team of
:class:`~repro.par.ParallelSolver2D`, one rank engine per thread, all
sharing one loaded kernel.  The ctypes kernel calls release the GIL, so
the ranks really run at once.  The one correctness contract is
``max |threaded - serial| == 0.0``, enforced here across the full
riemann x reconstruction x limiter x variables matrix with strip seams
that do not line up with the rank seam.  The dependence prover's
verdict on the shipped kernels (the strips of a real plan are
independent, so their order cannot matter) is pinned too.
"""

import itertools

import numpy as np
import pytest

import repro.jit
from repro.analysis import deps
from repro.euler.boundary import all_transmissive_2d
from repro.euler.solver import EulerSolver2D, SolverConfig
from repro.jit import codegen
from repro.jit.kernels import build_flux_ir, spec_from_config
from repro.par import ParallelSolver2D

from tests.euler.test_jit import (
    LIMITED_SCHEMES,
    LIMITERS,
    RECONSTRUCTIONS,
    RIEMANN_SOLVERS,
    TINY_TILE_BYTES,
    VARIABLES,
    needs_cc,
    smooth_random_2d,
)


def _threaded_jit(primitive, config, workers=2):
    with repro.jit.backend_override("jit"):
        return ParallelSolver2D(
            primitive.copy(), 0.01, 0.012, all_transmissive_2d(), config,
            workers=workers, barrier="forkjoin",
        )


def _serial_numpy(primitive, config):
    with repro.jit.backend_override("numpy"):
        return EulerSolver2D(
            primitive.copy(), 0.01, 0.012, all_transmissive_2d(), config
        )


def _every_strip_compiled(counters) -> bool:
    stats = counters["jit"]
    return stats["sweep_calls"] + stats["dt_calls"] == counters["tiles"] > 0


@needs_cc
class TestThreadedBitIdentity:
    """max |threaded jit - serial NumPy| == 0.0 across the method matrix.

    Tiny grids (9x13) with a tiny tile budget force ragged multi-strip
    plans inside each rank; two steps mean the second runs from
    threaded-produced state.  Characteristic variables with wide
    stencils run NumPy rank engines and must still match exactly.
    """

    @pytest.mark.parametrize("reconstruction", RECONSTRUCTIONS)
    @pytest.mark.parametrize("riemann", RIEMANN_SOLVERS)
    def test_threaded_equals_serial(self, reconstruction, riemann, rng):
        limiters = LIMITERS if reconstruction in LIMITED_SCHEMES else ("minmod",)
        prim = smooth_random_2d(rng, 9, 13)
        for limiter, variables in itertools.product(limiters, VARIABLES):
            config = SolverConfig(
                reconstruction=reconstruction,
                riemann=riemann,
                limiter=limiter,
                variables=variables,
                rk_order=3,
                tile_bytes=TINY_TILE_BYTES,
            )
            label = f"{reconstruction}/{riemann}/{limiter}/{variables}"
            serial = _serial_numpy(prim, config)
            with _threaded_jit(prim, config) as threaded:
                for _ in range(2):
                    assert threaded.step() == serial.step()
                assert (
                    np.max(np.abs(threaded.u - serial.u)) == 0.0
                ), f"threaded != serial for {label}"
                if spec_from_config(config, 2)[0] is not None:
                    for counters in threaded.engine_counters():
                        assert _every_strip_compiled(counters), label

    def test_threaded_strips_actually_threaded(self, rng):
        """Two ranks on two threads, each serving every strip through
        the one shared kernel from its own scratch."""
        config = SolverConfig(
            reconstruction="weno3",
            riemann="hllc",
            variables="primitive",
            tile_bytes=TINY_TILE_BYTES,
        )
        with _threaded_jit(smooth_random_2d(rng, 24, 16), config) as threaded:
            for _ in range(2):
                threaded.step()
            assert threaded.workers == 2
            first, second = threaded._engines
            assert first.backend.kernel is second.backend.kernel
            assert first.workspace is not second.workspace
            for counters in threaded.engine_counters():
                assert _every_strip_compiled(counters)


@needs_cc
class TestProofLicensing:
    def test_real_proof_licenses_the_shipped_kernels(self, rng):
        """No monkeypatching: the access map of a shipped kernel proves
        the strips of the engine's real multi-strip plans independent."""
        config = SolverConfig(
            reconstruction="weno3",
            riemann="hllc",
            variables="primitive",
            tile_bytes=TINY_TILE_BYTES,
        )
        with repro.jit.backend_override("jit"):
            solver = EulerSolver2D(
                smooth_random_2d(rng, 24, 16), 0.01, 0.012,
                all_transmissive_2d(), config,
            )
        solver.step()
        spec = solver.engine.backend.spec
        amap = codegen.sweep_access_map(spec, build_flux_ir(spec))
        plans = [
            plan
            for (kind, _), plan in solver.engine._tile_plans.items()
            if kind == "sweep"
        ]
        assert len(plans) == 2  # one per axis
        for plan in plans:
            assert len(plan.tiles) > 1
            strips = tuple((tile.start, tile.stop) for tile in plan.tiles)
            proof = deps.prove_strips(
                amap, strips, spec.ghost_cells, where=spec.label()
            )
            assert proof.licensed, proof.reason

    def test_trace_record_carries_thread_counters(self, rng):
        """The step trace of a threaded jit run names the jit backend
        and the worker count."""
        from repro.obs.trace import StepTrace

        config = SolverConfig(
            reconstruction="weno3", riemann="hllc", variables="primitive"
        )
        with _threaded_jit(smooth_random_2d(rng, 24, 16), config) as threaded:
            trace = StepTrace()
            record = trace.record_step(threaded, threaded.step())
        assert record.backend == "jit" and record.workers == 2
        assert record.jit_cache_hits + record.jit_cache_misses >= 1
        assert type(record).from_json(record.to_json()) == record
