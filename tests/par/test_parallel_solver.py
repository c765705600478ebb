"""ParallelSolver2D against the serial golden reference.

The acceptance bar (ISSUE 1): 1, 2 and 4 workers reproduce the serial
two-channel solution to <= 1e-12 max-abs difference.  The machinery is
designed for *exact* equality — every kernel is stencil-local along the
sweep axis — so these tests assert bitwise agreement, which implies the
1e-12 bound with room to spare.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.jit
from repro.errors import PhysicsError
from repro.euler import problems
from repro.euler.boundary import (
    BoundarySet2D,
    EdgeSpec,
    ReflectiveWall,
    SupersonicInflow,
    Transmissive,
)
from repro.euler.solver import EulerSolver2D, SolverConfig
from repro.par import ParallelSolver2D

PAPER_BENCH = SolverConfig(reconstruction="pc", riemann="rusanov", rk_order=3, cfl=0.5)

#: The two stencil/variable configurations the halo property test runs:
#: the paper's flow-picture method and a second, structurally different
#: reconstruction path (component-wise MUSCL on primitives).
PROPERTY_CONFIGS = {
    "weno3-characteristic": SolverConfig(
        reconstruction="weno3", variables="characteristic", rk_order=2
    ),
    "tvd2-primitive": SolverConfig(
        reconstruction="tvd2", limiter="vanleer", variables="primitive", rk_order=2
    ),
}


def random_problem(rng, nx, ny):
    """A smooth random state with a piecewise (wall/inflow/wall) left edge."""
    primitive = np.empty((nx, ny, 4))
    primitive[..., 0] = rng.uniform(0.5, 2.0, (nx, ny))
    primitive[..., 1] = rng.uniform(-0.3, 0.3, (nx, ny))
    primitive[..., 2] = rng.uniform(-0.3, 0.3, (nx, ny))
    primitive[..., 3] = rng.uniform(0.5, 2.0, (nx, ny))
    cut0, cut1 = ny // 3, 2 * ny // 3
    left = (
        EdgeSpec()
        .add(0, cut0, ReflectiveWall())
        .add(cut0, cut1, SupersonicInflow([1.5, 2.0, 0.0, 2.5]))
        .add(cut1, None, ReflectiveWall())
    )
    boundaries = BoundarySet2D(
        left=left,
        right=EdgeSpec.uniform(Transmissive()),
        bottom=EdgeSpec.uniform(ReflectiveWall()),
        top=EdgeSpec.uniform(Transmissive()),
    )
    return primitive, boundaries


@pytest.mark.parametrize("config_name", sorted(PROPERTY_CONFIGS))
@given(
    seed=st.integers(0, 10_000),
    nx=st.integers(8, 24),
    ny=st.integers(9, 24),
    px=st.integers(1, 3),
    py=st.integers(1, 3),
    extra_halo=st.integers(0, 2),
)
@settings(max_examples=10, deadline=None)
def test_one_step_matches_serial_for_random_partitions(
    config_name, seed, nx, ny, px, py, extra_halo
):
    """A full solver step on a decomposed grid equals the serial step."""
    config = PROPERTY_CONFIGS[config_name]
    rng = np.random.default_rng(seed)
    primitive, boundaries = random_problem(rng, nx, ny)
    dx, dy = 1.0 / nx, 1.2 / ny

    serial = EulerSolver2D(primitive, dx, dy, boundaries, config)
    halo = serial.kernel.ghost_cells + extra_halo
    with ParallelSolver2D(
        primitive, dx, dy, boundaries, config, px=px, py=py, halo=halo
    ) as parallel:
        assert parallel.compute_dt() == serial.compute_dt()
        dt = 0.2 * serial.compute_dt()
        serial.step(dt)
        parallel.step(dt)
        np.testing.assert_array_equal(parallel.u, serial.u)


@pytest.mark.parametrize("barrier", ["spin", "forkjoin"])
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_two_channel_acceptance_matrix(workers, barrier):
    """1/2/4 workers x both barriers reproduce the serial two-channel run."""
    serial, _ = problems.two_channel(n_cells=16, h=8.0, config=PAPER_BENCH)
    with ParallelSolver2D.from_serial(
        serial, workers=workers, barrier=barrier
    ) as parallel:
        serial.run(max_steps=4)
        result = parallel.run(max_steps=4)
        assert result.steps == 4
        assert parallel.time == serial.time
        difference = np.abs(parallel.u - serial.u).max()
        assert difference <= 1e-12  # the ISSUE bound; in practice exactly 0
        np.testing.assert_array_equal(parallel.u, serial.u)


def test_sod_2d_multi_step_exact():
    serial, _ = problems.sod_2d(nx=32, ny=12)
    with ParallelSolver2D.from_serial(serial, workers=3) as parallel:
        serial.run(max_steps=5)
        parallel.run(max_steps=5)
        np.testing.assert_array_equal(parallel.u, serial.u)
        np.testing.assert_array_equal(parallel.primitive, serial.primitive)


def test_exchange_counter_matches_structure():
    """RK3: 3 stages x neighbour links halo copies per step, plus none for dt."""
    serial, _ = problems.two_channel(n_cells=16, h=8.0, config=PAPER_BENCH)
    with ParallelSolver2D.from_serial(serial, workers=4) as parallel:
        links = parallel.decomposition.neighbour_pairs()
        assert parallel.halo_exchanges == 0
        parallel.step()
        assert parallel.halo_exchanges == 3 * links
        parallel.step()
        assert parallel.halo_exchanges == 6 * links


@pytest.mark.skipif(not repro.jit.available(), reason="no C compiler on PATH")
@pytest.mark.parametrize("workers", [1, 2])
def test_jit_ranks_compile_every_strip(workers):
    """Rank engines hand the jit strided halo-buffer views (the x-sweep's
    padded window and the dt target); they are staged through scratch,
    so every sweep and dt strip is compiled and the run is still the
    serial NumPy run bit for bit."""
    with repro.jit.backend_override("numpy"):
        serial, _ = problems.two_channel(n_cells=64, h=32.0, config=PAPER_BENCH)
    with repro.jit.backend_override("jit"):
        parallel = ParallelSolver2D.from_serial(serial, workers=workers)
    with parallel:
        serial.run(max_steps=3)
        parallel.run(max_steps=3)
        np.testing.assert_array_equal(parallel.u, serial.u)
        for counters in parallel.engine_counters():
            stats = counters["jit"]
            assert stats["dt_calls"] == counters["dt_fused_strips"] > 0
            sweep_strips = counters["tiles"] - counters["dt_fused_strips"]
            assert stats["sweep_calls"] == sweep_strips > 0


def test_from_serial_copies_clock_and_state():
    serial, _ = problems.sod_2d(nx=16, ny=8)
    serial.run(max_steps=2)
    with ParallelSolver2D.from_serial(serial, workers=2) as parallel:
        assert parallel.time == serial.time
        assert parallel.steps == serial.steps
        np.testing.assert_array_equal(parallel.u, serial.u)


def test_halo_narrower_than_stencil_rejected():
    serial, _ = problems.sod_2d(nx=16, ny=8)  # weno3 needs 2 ghost cells
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="halo width"):
        ParallelSolver2D.from_serial(serial, workers=2, halo=1)


def test_gather_derives_fields_and_dtype_from_blocks():
    """The ``u`` gather must not hardcode (nx, ny, 4) float64."""
    serial, _ = problems.sod_2d(nx=16, ny=8, config=PAPER_BENCH)
    with ParallelSolver2D.from_serial(serial, workers=2) as parallel:
        narrowed = [block.astype(np.float32) for block in parallel._locals]
        parallel._locals = narrowed
        gathered = parallel.u
        assert gathered.dtype == np.float32
        assert gathered.shape == (16, 8, 4)


def test_rank_engines_share_no_scratch():
    """One workspace per rank: no buffer aliasing across workers."""
    serial, _ = problems.two_channel(n_cells=16, h=8.0, config=PAPER_BENCH)
    with ParallelSolver2D.from_serial(serial, workers=2) as parallel:
        parallel.step()
        first, second = parallel._engines
        for buffer_a in first.workspace.buffers():
            for buffer_b in second.workspace.buffers():
                assert not np.shares_memory(buffer_a, buffer_b)


def test_rank_conversion_counters_match_engine_dedup():
    """compute_dt feeds RK stage 1 on every rank: 3 conversions per RK3
    step, and the phase counters cover every engine phase."""
    from repro.euler.engine import PHASES

    serial, _ = problems.two_channel(n_cells=16, h=8.0, config=PAPER_BENCH)
    with ParallelSolver2D.from_serial(serial, workers=4) as parallel:
        parallel.run(max_steps=2)
        for counters in parallel.engine_counters():
            assert counters["steps"] == 2
            assert counters["rhs_evaluations"] == 6
            assert counters["primitive_conversions"] == 6  # 3 per step, not 4
            assert counters["scratch_bytes"] > 0
        # Every static phase is covered; jit engines may add extra
        # phases (jit_sweep/jit_dt) on top.
        assert set(PHASES) <= set(parallel.engine_seconds)
        assert parallel.scratch_bytes == sum(
            c["scratch_bytes"] for c in parallel.engine_counters()
        )


@pytest.mark.parametrize("barrier", ["spin", "forkjoin"])
def test_unphysical_state_raises_instead_of_deadlocking(barrier):
    serial, _ = problems.sod_2d(nx=16, ny=8, config=PAPER_BENCH)
    with ParallelSolver2D.from_serial(serial, workers=4, barrier=barrier) as parallel:
        parallel._locals[0][..., -1] = -1.0  # negative energy -> negative pressure
        with pytest.raises(PhysicsError):
            parallel.step(1e-3)
        assert parallel.pool.broken
