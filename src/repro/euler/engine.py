"""StepEngine — one preallocated stepping core under all the solvers.

The paper attributes much of SaC's performance to compiler-managed
memory reuse; the golden NumPy solver originally allocated ~10 fresh
arrays per Runge-Kutta stage (integrator temporaries, padded sweep
buffers, face fluxes, primitive round trips).  :class:`StepEngine`
owns, per (grid shape, :class:`~repro.euler.solver.SolverConfig`), a
:class:`~repro.euler.workspace.Workspace` of preallocated buffers and
advances the conservative state through ``out=``-parameterised kernels
whose in-place formulations perform the identical sequence of rounded
floating-point operations as the allocating seed path — results are
bit-for-bit equal, only the allocator traffic is gone.

`EulerSolver1D`/`EulerSolver2D` drive one engine over the whole grid;
:class:`~repro.par.solver.ParallelSolver2D` drives one engine per rank
(each with its own workspace, so ranks share no scratch memory) through
the lower-level :meth:`sweep_axis0`/:meth:`sweep_axis1`/:meth:`integrate`
interface.

Sweeps are cache-blocked (see :mod:`repro.euler.tiling`): each sweep is
partitioned into strips of rows whose whole
``reconstruct -> riemann -> difference`` working set fits the
``tile_bytes`` budget, so every intermediate stays cache-resident
instead of round-tripping DRAM once per ufunc.  ``compute_dt`` fuses
the primitive conversion with the GetDT eigenvalue pass strip-by-strip,
eliminating the dt phase's second full-grid traversal.  Untiled
(``tile_bytes=0``) is the one-strip plan through the same loop, and
every plan is bit-for-bit identical to the seed path the differential
tests pin.

The compiled backend (:mod:`repro.jit`) is chosen once per engine: a
strip is served either by the loaded kernel or, on an engine without
one, by the NumPy kernels — never a mix.

The engine also keeps per-phase wall-clock counters (boundary fill,
reconstruction, Riemann fluxes, flux differencing, Runge-Kutta combine,
primitive conversion, dt reduction) plus conversion/step/tile counts and
the scratch footprint in bytes; ``perf.scaling`` measured mode and
``benchmarks/test_steprate.py`` record them.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, PhysicsError
from repro.euler import state, tiling
from repro.euler.reconstruction import (
    reconstruct_characteristic,
    reconstruct_component,
)
from repro.euler.rk import get_integrator_into
from repro.euler.riemann import get_riemann_solver
from repro.euler.reconstruction import get_scheme
from repro.euler.timestep import (
    eigenvalues_into,
    max_eigenvalue,
    member_max_eigenvalues,
)
from repro.euler.workspace import Workspace
import repro.jit as repro_jit

__all__ = ["StepEngine", "BatchEngine", "PHASES"]

#: Phase keys of the engine's wall-clock counters.
PHASES = ("convert", "bc", "reconstruct", "riemann", "difference", "rk", "dt")

#: Field permutation of ``swap_velocity_axes`` for 4-field states.
_SWAP_FIELDS = ((0, 0), (1, 2), (2, 1), (3, 3))

#: In-place spatial operator: ``rhs_into(u, out, first_stage)``.
RhsInto = Callable[[np.ndarray, np.ndarray, bool], None]


class StepEngine:
    """Preallocated Godunov stepping core for one grid shape and config.

    ``grid_shape`` is the full state shape — ``(N, 3)`` in 1-D or
    ``(Nx, Ny, 4)`` in 2-D; ``spacing`` the matching cell sizes.
    ``boundaries`` (a ``BoundarySet1D``/``BoundarySet2D``) is required
    for the serial :meth:`rhs`/:meth:`step` interface and may be omitted
    when the sweeps are driven externally (the parallel solver fills
    exterior edges through windowed specs instead).
    """

    def __init__(
        self,
        grid_shape: Sequence[int],
        spacing: Sequence[float],
        config,
        boundaries=None,
        backend: Optional[str] = None,
    ):
        self.grid_shape = tuple(int(extent) for extent in grid_shape)
        nfields = self.grid_shape[-1]
        if nfields == 3:
            self.ndim = 1
        elif nfields == 4:
            self.ndim = 2
        else:
            raise ConfigurationError(
                f"state arrays must have 3 or 4 fields, got {nfields}"
            )
        if len(self.grid_shape) != self.ndim + 1:
            raise ConfigurationError(
                f"grid shape {self.grid_shape} inconsistent with {self.ndim}-D state"
            )
        self.spacing = tuple(float(s) for s in spacing)
        if len(self.spacing) != self.ndim:
            raise ConfigurationError(
                f"{self.ndim}-D engine needs {self.ndim} spacings, got {len(self.spacing)}"
            )
        self.config = config
        self.boundaries = boundaries
        self.scheme = get_scheme(config.reconstruction, config.limiter)
        self.riemann = get_riemann_solver(config.riemann)
        self.ghost_cells = self.scheme.ghost_cells
        self.integrator_into = get_integrator_into(config.rk_order)
        self.workspace = Workspace()
        self.seconds: Dict[str, float] = {phase: 0.0 for phase in PHASES}
        self.steps_taken = 0
        self.rhs_evaluations = 0
        self.primitive_conversions = 0
        #: Effective cache-blocking budget (0 = one strip per sweep).
        self.tile_bytes = tiling.resolve_tile_bytes(
            getattr(config, "tile_bytes", None)
        )
        #: Strips processed, cumulative over sweeps and fused dt passes.
        self.tiles_processed = 0
        #: Fused per-strip convert+eigenvalue passes.
        self.dt_fused_strips = 0
        self._tile_plans: Dict[Tuple, tiling.TilePlan] = {}
        self._fresh_primitive = False
        self._primitive_target: Optional[np.ndarray] = None
        #: Compiled-kernel backend, or None with the reason the whole run
        #: is NumPy.  Resolution order: the ``backend=`` argument, then
        #: any :func:`repro.jit.backend_override`, then ``REPRO_JIT``,
        #: then auto-detection — see :mod:`repro.jit`.  Results are
        #: bit-for-bit identical either way.
        self.backend, self.backend_reason = repro_jit.create_backend(
            config, self.ndim, backend
        )
        if self.backend is not None:
            self.seconds["jit_sweep"] = 0.0
            self.seconds["jit_dt"] = 0.0

    # -- counters -------------------------------------------------------

    @property
    def scratch_bytes(self) -> int:
        """Bytes currently held by this engine's workspace."""
        return self.workspace.nbytes

    def counters(self) -> Dict[str, object]:
        """Snapshot of all phase/operation counters (JSON-friendly)."""
        counters: Dict[str, object] = {
            "steps": self.steps_taken,
            "rhs_evaluations": self.rhs_evaluations,
            "primitive_conversions": self.primitive_conversions,
            "scratch_bytes": self.scratch_bytes,
            "tiles": self.tiles_processed,
            "tile_bytes": self.tile_bytes,
            "dt_fused_strips": self.dt_fused_strips,
            "seconds": dict(self.seconds),
            "backend": "numpy" if self.backend is None else self.backend.name,
            "backend_reason": self.backend_reason,
        }
        if self.backend is not None:
            counters["jit"] = self.backend.stats()
        return counters

    # -- tiling ---------------------------------------------------------

    def _plan(self, kind: str, shape: Tuple[int, ...]) -> tiling.TilePlan:
        """The (cached) strip plan for a ``"sweep"`` over padded ``shape``
        or a ``"dt"`` pass over state ``shape``; a zero budget is one
        strip covering every cell."""
        key = (kind, shape)
        if key not in self._tile_plans:
            cross = math.prod(shape[1:-1])
            if kind == "dt":
                n_cells = shape[0]
                row_bytes = tiling.dt_row_bytes(cross, shape[-1])
            else:
                n_cells = shape[0] - 2 * self.ghost_cells
                # The compiled sweep materialises no per-ufunc
                # intermediates, so a strip's working set is far
                # smaller; strips grow to fill the same budget.
                row_bytes = (
                    tiling.jit_sweep_row_bytes(cross, shape[-1], self.ghost_cells)
                    if self.backend is not None
                    else tiling.sweep_row_bytes(
                        cross, shape[-1], self.config, self.ghost_cells
                    )
                )
            budget = self.tile_bytes or n_cells * row_bytes
            self._tile_plans[key] = tiling.plan_tiles(n_cells, row_bytes, budget)
        return self._tile_plans[key]

    # -- primitive scratch ---------------------------------------------

    def primitive_into(
        self, u: np.ndarray, target: Optional[np.ndarray] = None, reuse: bool = False
    ) -> np.ndarray:
        """Convert ``u`` to primitive variables in a reusable buffer.

        With ``reuse=True`` a conversion freshly produced by
        :meth:`compute_dt` into the *same* target buffer is consumed
        instead of recomputed — the dt/stage-1 deduplication the
        engine's conversion counter verifies (one conversion per RK
        stage, not two).
        """
        if target is None:
            target = self.workspace.array("engine.primitive", self.grid_shape)
        if reuse and self._fresh_primitive and self._primitive_target is target:
            self._fresh_primitive = False
            return target
        self._fresh_primitive = False
        started = perf_counter()
        state.primitive_from_conservative(
            u, self.config.gamma, out=target, work=self.workspace
        )
        self.seconds["convert"] += perf_counter() - started
        self.primitive_conversions += 1
        self._primitive_target = target
        return target

    def compute_dt(
        self, u: np.ndarray, target: Optional[np.ndarray] = None
    ) -> float:
        """CFL time step from ``u``; leaves the primitive scratch fresh.

        The primitive conversion and the GetDT eigenvalue pass run
        fused, strip by strip: each strip of ``u`` is converted into
        ``target`` and reduced to its max signal speed while still
        cache-resident, so the dt phase makes no second full-grid
        traversal.  ``max`` is exact and order-independent, so the dt is
        bit-for-bit the one-strip value; the converted ``target`` is
        complete and stays fresh for the first RK stage.
        """
        cfl = self.config.cfl
        if cfl <= 0.0:
            raise ConfigurationError(f"CFL number must be positive, got {cfl}")
        if target is None:
            target = self.workspace.array("engine.primitive", self.grid_shape)
        gamma = self.config.gamma
        ws = self.workspace
        plan = self._plan("dt", u.shape)
        strip_maxima = ws.array("engine.dt_strip_max", (len(plan.tiles),))
        for index, tile in enumerate(plan.tiles):
            rows = slice(tile.start, tile.stop)
            if self.backend is not None:
                self.backend.dt_strip(
                    self, u[rows], target[rows], strip_maxima[index : index + 1]
                )
            else:
                started = perf_counter()
                state.primitive_from_conservative(
                    u[rows], gamma, out=target[rows], work=ws
                )
                self.seconds["convert"] += perf_counter() - started
                started = perf_counter()
                ev = eigenvalues_into(target[rows], self.spacing, gamma, work=ws)
                strip_maxima[index] = ev.max()
                self.seconds["dt"] += perf_counter() - started
        self.tiles_processed += len(plan.tiles)
        self.dt_fused_strips += len(plan.tiles)
        self.primitive_conversions += 1
        self._primitive_target = target
        self._fresh_primitive = True
        started = perf_counter()
        largest = float(strip_maxima.max())
        if not np.isfinite(largest):
            # A full-grid pass over the (complete) converted state names
            # the offending cells.  max_eigenvalue always raises here
            # since the global max is non-finite.
            try:
                max_eigenvalue(target, self.spacing, gamma, work=ws)
            finally:
                self.seconds["dt"] += perf_counter() - started
            raise PhysicsError(  # pragma: no cover - defensive
                f"GetDT: non-finite signal speed ({largest})", context="GetDT"
            )
        self.seconds["dt"] += perf_counter() - started
        return cfl / largest

    # -- sweeps ---------------------------------------------------------

    def _face_fluxes(self, padded: np.ndarray) -> np.ndarray:
        """Riemann fluxes at the interior faces of a padded sweep array."""
        ws = self.workspace
        ng = self.ghost_cells
        faces_shape = (padded.shape[0] - 2 * ng + 1,) + padded.shape[1:]
        flux = ws.array("engine.flux", faces_shape)
        left = ws.array("engine.left", faces_shape)
        right = ws.array("engine.right", faces_shape)
        gamma = self.config.gamma
        mode = self.config.variables
        started = perf_counter()
        if mode == "characteristic":
            reconstruct_characteristic(
                self.scheme, padded, gamma, out=(left, right), work=ws
            )
        elif mode == "primitive":
            reconstruct_component(
                self.scheme, padded, ng, out=(left, right), work=ws
            )
        else:  # conservative
            padded_cons = ws.array("engine.padded_cons", padded.shape)
            state.conservative_from_primitive(padded, gamma, out=padded_cons, work=ws)
            cons_left = ws.array("engine.cons_left", faces_shape)
            cons_right = ws.array("engine.cons_right", faces_shape)
            reconstruct_component(
                self.scheme, padded_cons, ng, out=(cons_left, cons_right), work=ws
            )
            state.primitive_from_conservative(cons_left, gamma, out=left, work=ws)
            state.primitive_from_conservative(cons_right, gamma, out=right, work=ws)
        self.seconds["reconstruct"] += perf_counter() - started
        started = perf_counter()
        self.riemann(left, right, gamma, out=flux, work=ws)
        self.seconds["riemann"] += perf_counter() - started
        return flux

    def _fill_boundaries(self, padded: np.ndarray, low_spec, high_spec) -> None:
        ng = self.ghost_cells
        started = perf_counter()
        if low_spec is not None:
            low_spec.fill(padded, ng)
        if high_spec is not None:
            high_spec.fill(padded[::-1], ng)
        self.seconds["bc"] += perf_counter() - started

    def _flux_difference(
        self, padded_strip: np.ndarray, spacing: float, target: np.ndarray
    ) -> None:
        """``target = -(F[i+1/2] - F[i-1/2]) / spacing`` for one padded strip."""
        if self.backend is not None:
            self.backend.sweep(self, padded_strip, spacing, target)
            return
        flux = self._face_fluxes(padded_strip)
        started = perf_counter()
        np.subtract(flux[1:], flux[:-1], out=target)
        np.negative(target, out=target)
        np.divide(target, spacing, out=target)
        self.seconds["difference"] += perf_counter() - started

    def _sweep(
        self,
        padded: np.ndarray,
        low_spec,
        high_spec,
        spacing: float,
        out: np.ndarray,
        oriented: bool,
    ) -> None:
        """The strip loop both sweeps share.

        A strip owning output rows ``[start, stop)`` reads padded rows
        ``[start, stop + 2 ng)`` and produces faces ``[start, stop + 1)``.
        Every kernel in the chain is elementwise per face, so each
        strip's values are bit-for-bit the rows a one-strip pass would
        produce (adjacent strips just recompute one shared face).
        """
        self._fill_boundaries(padded, low_spec, high_spec)
        ng = self.ghost_cells
        for tile in self._plan("sweep", padded.shape).tiles:
            padded_strip = padded[tile.start : tile.stop + 2 * ng]
            if oriented:
                contribution = self.workspace.array(
                    "engine.contribution_y", (tile.cells,) + padded.shape[1:]
                )
                self._flux_difference(padded_strip, spacing, contribution)
                self._accumulate_oriented(
                    contribution, out[..., tile.start : tile.stop, :]
                )
            else:
                self._flux_difference(
                    padded_strip, spacing, out[tile.start : tile.stop]
                )
            self.tiles_processed += 1

    def _accumulate_oriented(self, contribution: np.ndarray, view: np.ndarray) -> None:
        """Add sweep-layout ``contribution`` rows into global-layout ``view``."""
        started = perf_counter()
        # moveaxis generalizes the (rows, nx, 4) -> (nx, rows, 4)
        # transpose to any leading batch axes: (rows, B, nx, 4)
        # becomes (B, nx, rows, 4), matching the global-layout view.
        transposed = np.moveaxis(contribution, 0, -2)
        for field_out, field_src in _SWAP_FIELDS:
            np.add(
                view[..., field_out],
                transposed[..., field_src],
                out=view[..., field_out],
            )
        self.seconds["difference"] += perf_counter() - started

    def sweep_axis0(
        self,
        padded: np.ndarray,
        low_spec,
        high_spec,
        spacing: float,
        out: np.ndarray,
    ) -> None:
        """Axis-0 sweep: fill edges, flux, difference — *writes* ``out``."""
        self._sweep(padded, low_spec, high_spec, spacing, out, oriented=False)

    def sweep_axis1(
        self,
        oriented_padded: np.ndarray,
        low_spec,
        high_spec,
        spacing: float,
        out: np.ndarray,
    ) -> None:
        """Axis-1 sweep on an oriented padded array — *accumulates* into ``out``.

        ``oriented_padded`` is in sweep layout (axis 1 of the grid along
        its axis 0, velocity fields swapped, see :meth:`orient_into`);
        each strip of oriented rows ``[start, stop)`` is added back into
        the ``out`` *columns* ``[:, start:stop]`` in global layout,
        without materialising the un-oriented copy the seed path makes.
        """
        self._sweep(oriented_padded, low_spec, high_spec, spacing, out, oriented=True)

    @staticmethod
    def orient_into(window: np.ndarray, target: np.ndarray) -> None:
        """``target[j, i, f] = window[i, j, swap(f)]`` — the y-sweep layout.

        Rank-generic: leading batch axes ride along, so a ``(B, nx, ny, 4)``
        window orients into a ``(ny, B, nx, 4)`` target (grid axis 1 out
        front, exactly what the batched y-sweep pads).
        """
        transposed = np.moveaxis(window, -2, 0)
        for field_out, field_src in _SWAP_FIELDS:
            np.copyto(target[..., field_out], transposed[..., field_src])

    # -- serial driver interface ---------------------------------------

    def rhs(
        self, u: np.ndarray, out: np.ndarray, use_cached_primitive: bool = False
    ) -> np.ndarray:
        """Spatial operator L(U) into ``out`` (needs ``boundaries``)."""
        if self.boundaries is None:
            raise ConfigurationError("engine built without boundaries cannot run rhs()")
        self.rhs_evaluations += 1
        ws = self.workspace
        ng = self.ghost_cells
        primitive = self.primitive_into(u, reuse=use_cached_primitive)
        started = perf_counter()
        state.validate_state(primitive, f"{self.ndim}-D solver state", work=ws)
        self.seconds["convert"] += perf_counter() - started
        if self.ndim == 1:
            n = primitive.shape[0]
            padded = ws.array("engine.padded_x", (n + 2 * ng,) + primitive.shape[1:])
            started = perf_counter()
            padded[ng : ng + n] = primitive
            self.seconds["bc"] += perf_counter() - started
            self.sweep_axis0(
                padded, self.boundaries.low, self.boundaries.high, self.spacing[0], out
            )
            return out
        nx, ny = primitive.shape[:2]
        padded = ws.array("engine.padded_x", (nx + 2 * ng, ny, 4))
        started = perf_counter()
        padded[ng : ng + nx] = primitive
        self.seconds["bc"] += perf_counter() - started
        low_spec, high_spec = self.boundaries.for_axis(0)
        self.sweep_axis0(padded, low_spec, high_spec, self.spacing[0], out)
        padded_y = ws.array("engine.padded_y", (ny + 2 * ng, nx, 4))
        started = perf_counter()
        self.orient_into(primitive, padded_y[ng : ng + ny])
        self.seconds["bc"] += perf_counter() - started
        low_spec, high_spec = self.boundaries.for_axis(1)
        self.sweep_axis1(padded_y, low_spec, high_spec, self.spacing[1], out)
        return out

    def integrate(self, u: np.ndarray, dt: float, rhs_into: RhsInto) -> np.ndarray:
        """Advance ``u`` in place by one Runge-Kutta step.

        ``rhs_into(v, out, first_stage)`` must write L(v) into ``out``;
        ``first_stage`` is True exactly once so drivers can reuse the
        dt-fresh primitive conversion.  Time not spent inside the other
        counted phases is booked as the Runge-Kutta combine ("rk").
        """
        stage_flag = [True]

        def callback(v: np.ndarray, out: np.ndarray) -> None:
            first = stage_flag[0]
            stage_flag[0] = False
            rhs_into(v, out, first)

        inner_before = self._inner_seconds()
        started = perf_counter()
        self.integrator_into(u, dt, callback, self.workspace)
        elapsed = perf_counter() - started
        self.seconds["rk"] += elapsed - (self._inner_seconds() - inner_before)
        self.steps_taken += 1
        self._fresh_primitive = False
        return u

    def step(self, u: np.ndarray, dt: Optional[float] = None) -> float:
        """One serial time step, in place on ``u``; returns the dt used."""
        if dt is None:
            dt = self.compute_dt(u)
        self.integrate(
            u,
            dt,
            lambda v, out, first: self.rhs(v, out, use_cached_primitive=first),
        )
        return dt

    def _inner_seconds(self) -> float:
        seconds = self.seconds
        return (
            seconds["convert"]
            + seconds["bc"]
            + seconds["reconstruct"]
            + seconds["riemann"]
            + seconds["difference"]
            + seconds.get("jit_sweep", 0.0)
            + seconds.get("jit_dt", 0.0)
        )


class BatchEngine(StepEngine):
    """A :class:`StepEngine` over a ``(B, ...)`` stack of member states.

    One engine step advances ``batch`` independent problems in lockstep:
    the state is ``(B, N, 3)`` in 1-D or ``(B, Nx, Ny, 4)`` in 2-D, and
    every kernel call — conversion, reconstruction, Riemann solve, flux
    differencing, Runge-Kutta combine — processes the whole stack at
    once, paying the Python/ufunc dispatch overhead once per B members
    instead of once per member.

    **Bit-identity contract.**  Every kernel in the chain is elementwise
    over its leading axes (the same property the strip tiling relies
    on), so member ``b`` of a batched step is bit-for-bit the state a
    standalone :class:`StepEngine` step of that member produces.  The
    only non-elementwise operations are the reductions, and those are
    made per-member here: :meth:`compute_dt` returns a ``(B,)`` vector
    of per-member CFL steps (``max`` is exact, so each entry equals the
    member's standalone dt — members advance on their own clocks, there
    is *no* global ``min``), and state validation attributes failures to
    a member via :func:`repro.euler.state.validate_members`, raising a
    member-local :class:`PhysicsError` carrying ``batch_index``.

    **Layouts.**  Sweeps pad to ``(n + 2 ng, B, cross..., fields)`` —
    the sweep axis out front as always, members next.  A member's slab
    ``padded[:, b]`` therefore has exactly the standalone padded layout,
    which is what lets per-member boundary sets (different geometry per
    member, piecewise :class:`~repro.euler.boundary.EdgeSpec` segments
    included) fill their ghost layers with the unmodified 1-member code.

    **Tiling.**  The sweep strip planner sees the batch in its cross
    size (``B × ny`` rows of work per sweep row), so strips shrink
    automatically to keep the per-strip working set in cache; the fused
    dt pass strips over *members* (axis 0 of the state stack) and
    reduces each strip's members separately.

    ``member_boundaries`` is one boundary set per member (required for
    :meth:`rhs`/:meth:`step`, optional for externally-driven sweeps).
    """

    def __init__(
        self,
        batch: int,
        member_shape: Sequence[int],
        spacing: Sequence[float],
        config,
        member_boundaries=None,
        backend: Optional[str] = None,
    ):
        batch = int(batch)
        if batch < 1:
            raise ConfigurationError(f"batch size must be >= 1, got {batch}")
        super().__init__(
            member_shape, spacing, config, boundaries=None, backend=backend
        )
        self.batch = batch
        #: Shape of one member's state; ``grid_shape`` is the full stack.
        self.member_shape = self.grid_shape
        self.grid_shape = (batch,) + self.member_shape
        if member_boundaries is not None:
            member_boundaries = list(member_boundaries)
            if len(member_boundaries) != batch:
                raise ConfigurationError(
                    f"need one boundary set per member:"
                    f" got {len(member_boundaries)} for batch {batch}"
                )
        self.member_boundaries = member_boundaries

    def counters(self) -> Dict[str, object]:
        counters = super().counters()
        counters["batch"] = self.batch
        return counters

    def placeholder_member(self) -> np.ndarray:
        """A benign uniform conservative member state (rho=1, v=0, p=1).

        Retired and finished members are parked on this in the stack so
        the lockstep step stays valid for them without affecting any
        sibling (elementwise kernels never mix members); their real
        states live in the driver's frozen store.
        """
        primitive = np.zeros(self.member_shape)
        primitive[..., 0] = 1.0
        primitive[..., -1] = 1.0
        return state.conservative_from_primitive(primitive, self.config.gamma)

    def dt_column(self, dt: np.ndarray) -> np.ndarray:
        """Reshape a ``(B,)`` dt vector to broadcast over member states.

        The integrators' ``np.multiply(k, dt, out=k)`` then scales each
        member's stage by its own clock — identical rounding to the
        standalone scalar multiply.
        """
        return np.asarray(dt, dtype=float).reshape(
            (self.batch,) + (1,) * len(self.member_shape)
        )

    # -- per-member dt ---------------------------------------------------

    def compute_dt(
        self, u: np.ndarray, target: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Per-member CFL steps as a ``(B,)`` vector (member clocks).

        Entry ``b`` is bit-for-bit the standalone ``compute_dt`` of
        member ``b``.  The pass strips over *members* and fuses the
        conversion with the eigenvalue pass per strip; the converted
        primitive stack stays fresh for the first RK stage.
        A non-finite member raises a member-local :class:`PhysicsError`
        with ``batch_index`` set (siblings' entries are unaffected).
        """
        cfl = self.config.cfl
        if cfl <= 0.0:
            raise ConfigurationError(f"CFL number must be positive, got {cfl}")
        ws = self.workspace
        gamma = self.config.gamma
        if target is None:
            target = ws.array("engine.primitive", self.grid_shape)
        maxima = ws.array("engine.dt_member_max", (self.batch,))
        # The dt plan partitions axis 0 — the *member* axis here — into
        # strips whose convert+eigenvalue working set fits the budget.
        plan = self._plan("dt", u.shape)
        for tile in plan.tiles:
            rows = slice(tile.start, tile.stop)
            if self.backend is not None:
                # One group per member: the compiled reduction mirrors
                # member_max_eigenvalues' per-member max exactly.
                self.backend.dt_strip(self, u[rows], target[rows], maxima[rows])
                continue
            started = perf_counter()
            state.primitive_from_conservative(
                u[rows], gamma, out=target[rows], work=ws
            )
            self.seconds["convert"] += perf_counter() - started
            started = perf_counter()
            member_max_eigenvalues(
                target[rows], self.spacing, gamma, out=maxima[rows], work=ws
            )
            self.seconds["dt"] += perf_counter() - started
        self.tiles_processed += len(plan.tiles)
        self.dt_fused_strips += len(plan.tiles)
        self.primitive_conversions += 1
        self._primitive_target = target
        self._fresh_primitive = True
        started = perf_counter()
        finite = np.isfinite(maxima)
        if not np.all(finite):
            index = int(np.argmin(finite))
            try:
                # Member-local diagnostic pass: always raises, naming the
                # member's own offending cells.
                max_eigenvalue(target[index], self.spacing, gamma)
            except PhysicsError as error:
                error.batch_index = index
                self.seconds["dt"] += perf_counter() - started
                raise
            raise PhysicsError(  # pragma: no cover - defensive
                "GetDT: non-finite signal speed",
                context="GetDT",
                batch_index=index,
            )
        self.seconds["dt"] += perf_counter() - started
        dt = ws.array("engine.dt_members", (self.batch,))
        np.divide(cfl, maxima, out=dt)
        return dt

    # -- batched rhs -----------------------------------------------------

    def _fill_boundaries(self, padded: np.ndarray, low_specs, high_specs) -> None:
        """Fill ghost layers member by member.

        ``padded[:, b]`` is exactly one member's standalone padded array,
        so each member's own boundary set (including piecewise EdgeSpec
        segments, whose ranges address the along-edge axis) applies
        unchanged.  Looping members here also keeps an EdgeSpec from
        wrongly partitioning the batch axis.
        """
        ng = self.ghost_cells
        started = perf_counter()
        for member in range(self.batch):
            slab = padded[:, member]
            low = low_specs[member]
            high = high_specs[member]
            if low is not None:
                low.fill(slab, ng)
            if high is not None:
                high.fill(slab[::-1], ng)
        self.seconds["bc"] += perf_counter() - started

    def rhs(
        self, u: np.ndarray, out: np.ndarray, use_cached_primitive: bool = False
    ) -> np.ndarray:
        """Spatial operator L(U) over the whole stack, into ``out``."""
        if self.member_boundaries is None:
            raise ConfigurationError(
                "batch engine built without member boundaries cannot run rhs()"
            )
        self.rhs_evaluations += 1
        ws = self.workspace
        ng = self.ghost_cells
        batch = self.batch
        primitive = self.primitive_into(u, reuse=use_cached_primitive)
        started = perf_counter()
        state.validate_members(
            primitive, f"batched {self.ndim}-D solver state", work=ws
        )
        self.seconds["convert"] += perf_counter() - started
        if self.ndim == 1:
            n = self.member_shape[0]
            padded = ws.array(
                "engine.padded_x", (n + 2 * ng, batch) + self.member_shape[1:]
            )
            started = perf_counter()
            padded[ng : ng + n] = np.moveaxis(primitive, 1, 0)
            self.seconds["bc"] += perf_counter() - started
            self.sweep_axis0(
                padded,
                [bset.low for bset in self.member_boundaries],
                [bset.high for bset in self.member_boundaries],
                self.spacing[0],
                np.moveaxis(out, 1, 0),
            )
            return out
        nx, ny = self.member_shape[:2]
        padded = ws.array("engine.padded_x", (nx + 2 * ng, batch, ny, 4))
        started = perf_counter()
        padded[ng : ng + nx] = np.moveaxis(primitive, 1, 0)
        self.seconds["bc"] += perf_counter() - started
        specs = [bset.for_axis(0) for bset in self.member_boundaries]
        self.sweep_axis0(
            padded,
            [spec[0] for spec in specs],
            [spec[1] for spec in specs],
            self.spacing[0],
            np.moveaxis(out, 1, 0),
        )
        padded_y = ws.array("engine.padded_y", (ny + 2 * ng, batch, nx, 4))
        started = perf_counter()
        self.orient_into(primitive, padded_y[ng : ng + ny])
        self.seconds["bc"] += perf_counter() - started
        specs = [bset.for_axis(1) for bset in self.member_boundaries]
        self.sweep_axis1(
            padded_y,
            [spec[0] for spec in specs],
            [spec[1] for spec in specs],
            self.spacing[1],
            out,
        )
        return out

    def step(self, u: np.ndarray, dt: Optional[np.ndarray] = None) -> np.ndarray:
        """One lockstep time step in place on the stack.

        Every member advances by its *own* dt (computed here when not
        supplied); returns the ``(B,)`` dt vector used.  Drivers that
        need per-member clamping or failure isolation (see
        ``EnsembleSolver2D``) call :meth:`compute_dt`/:meth:`integrate`
        directly instead.
        """
        if dt is None:
            dt = self.compute_dt(u)
        self.integrate(
            u,
            self.dt_column(dt),
            lambda v, out, first: self.rhs(v, out, use_cached_primitive=first),
        )
        return dt
