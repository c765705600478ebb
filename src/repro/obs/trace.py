"""`StepTrace` — a ring-buffer recorder of per-step solver telemetry.

A :class:`StepTrace` is handed to a solver through the ``watch=``
keyword (constructor or ``run``); after every completed step the solver
calls :meth:`StepTrace.record_step`, which derives one
:class:`TraceRecord` from the solver's public state:

* the step index, simulated time, dt and configured CFL number;
* conservation totals (mass, momentum, energy) and their relative
  drift against the first recorded step — a drifting total on a
  closed domain is the classic silent-wrong-answer signature;
* the minimum density and pressure over the grid — the early-warning
  signal for an impending :class:`~repro.errors.PhysicsError`;
* per-phase wall-clock second *deltas* from the
  :class:`~repro.euler.engine.StepEngine` counters (when the solver
  steps through an engine);
* halo-copy counts/bytes and barrier-wait seconds (when the solver is
  a :class:`~repro.par.solver.ParallelSolver2D`).

Only the last ``capacity`` records are kept (a ring), so a 1000-step
run can be watched with bounded memory; ``total_recorded`` keeps the
true count.  Recording derives everything from reductions over the
state (a handful of light passes per step against a Godunov step's
dozens), which is what keeps the enabled cost under the 5% acceptance
bar; with ``watch=None`` the solvers skip this module entirely.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["StepTrace", "TraceRecord", "DEFAULT_CAPACITY"]

#: Default ring capacity — enough for forensics tails and short runs.
DEFAULT_CAPACITY = 256

#: Fields of the deleted threaded-strip layer; old payloads still parse.
_RETIRED_FIELDS = ("jit_threads", "jit_strips_threaded", "jit_strips_serialized")


@dataclass
class TraceRecord:
    """One step's telemetry (JSON-friendly; see :mod:`repro.obs.export`)."""

    step: int
    time: float
    dt: float
    cfl: float
    mass: float
    momentum_x: float
    momentum_y: float
    energy: float
    mass_drift: float
    energy_drift: float
    min_density: float
    min_pressure: float
    phase_seconds: Optional[Dict[str, float]] = None
    halo_copies: int = 0
    halo_bytes: int = 0
    barrier_wait_seconds: float = 0.0
    workers: int = 1
    #: Cache-blocking strips processed this step and the engine's budget
    #: (0 = untiled); see :mod:`repro.euler.tiling`.
    tiles: int = 0
    tile_bytes: int = 0
    #: Kernel backend in use ("numpy" or "jit") and the process-wide
    #: compile/cache counters from :mod:`repro.jit.compile` at record
    #: time (cumulative snapshots, not per-step deltas — compilation
    #: happens once per specialization, not per step).
    backend: str = "numpy"
    jit_compile_seconds: float = 0.0
    jit_cache_hits: int = 0
    jit_cache_misses: int = 0

    def to_json(self) -> Dict[str, object]:
        """A plain-dict form with only JSON-serialisable values.

        ``kind`` discriminates step records from the diagnostic
        records of :mod:`repro.analysis.diag` in a shared JSONL file.
        """
        payload: Dict[str, object] = {"kind": "step"}
        payload.update(asdict(self))
        return payload

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "TraceRecord":
        """Inverse of :meth:`to_json` (unknown keys are rejected loudly;
        fields of retired layers are dropped)."""
        payload = dict(payload)
        payload.pop("kind", None)
        for name in _RETIRED_FIELDS:
            payload.pop(name, None)
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"trace record has unknown fields {sorted(unknown)}"
            )
        return cls(**payload)


class StepTrace:
    """Ring buffer of :class:`TraceRecord` with solver-facing recording.

    ``capacity`` bounds the number of retained records; older records
    are overwritten.  One trace should watch one solver — the drift
    baseline and the cumulative-counter snapshots are per-trace state.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ConfigurationError(
                f"trace capacity must be at least 1, got {capacity}"
            )
        self.capacity = capacity
        self._ring: List[Optional[TraceRecord]] = [None] * capacity
        self._next = 0
        self.total_recorded = 0
        self._baseline_mass: Optional[float] = None
        self._baseline_energy: Optional[float] = None
        self._last_phases: Optional[Dict[str, float]] = None
        self._last_halo_copies = 0
        self._last_halo_bytes = 0
        self._last_barrier_wait = 0.0
        self._last_tiles = 0

    # -- ring mechanics -------------------------------------------------

    def __len__(self) -> int:
        return min(self.total_recorded, self.capacity)

    def append(self, record: TraceRecord) -> None:
        """Push one record, evicting the oldest when full."""
        self._ring[self._next] = record
        self._next = (self._next + 1) % self.capacity
        self.total_recorded += 1

    def records(self) -> List[TraceRecord]:
        """Retained records, oldest first."""
        # Strictly less-than: after exactly ``capacity`` appends the ring
        # is full and ``_next`` has wrapped to 0, so the unwrapped slice
        # would be empty.
        if self.total_recorded < self.capacity:
            return [r for r in self._ring[: self._next] if r is not None]
        return [
            r
            for r in self._ring[self._next :] + self._ring[: self._next]
            if r is not None
        ]

    def last(self, n: int) -> List[TraceRecord]:
        """The most recent ``n`` retained records, oldest first."""
        if n <= 0:
            return []
        return self.records()[-n:]

    def clear(self) -> None:
        """Drop all records and reset the drift/counter baselines."""
        self.__init__(self.capacity)

    # -- solver-facing recording ---------------------------------------

    def record_step(self, solver, dt: float) -> TraceRecord:
        """Derive and append one record from a solver that just stepped.

        Works for any solver exposing ``u``/``steps``/``time``/``config``
        (both serial solvers and :class:`~repro.par.solver.ParallelSolver2D`);
        the parallel extras (halo, barrier wait, workers) are read when
        present.
        """
        u = solver.u
        gamma = solver.config.gamma
        rho = u[..., 0]
        nfields = u.shape[-1]
        mass = float(rho.sum())
        energy = float(u[..., -1].sum())
        momentum_x = float(u[..., 1].sum())
        momentum_y = float(u[..., 2].sum()) if nfields == 4 else 0.0
        # Pressure straight from the conservative state: p = (g-1)(E - K).
        # Deliberately *not* eos/validate — telemetry must report negative
        # pressures, not raise on them.
        with np.errstate(invalid="ignore", divide="ignore"):
            if nfields == 4:
                kinetic = 0.5 * (u[..., 1] ** 2 + u[..., 2] ** 2) / rho
            else:
                kinetic = 0.5 * u[..., 1] ** 2 / rho
            pressure_min = float(
                ((gamma - 1.0) * (u[..., -1] - kinetic)).min()
            )
        if self._baseline_mass is None:
            self._baseline_mass = mass
            self._baseline_energy = energy
        record = TraceRecord(
            step=int(solver.steps),
            time=float(solver.time),
            dt=float(dt),
            cfl=float(solver.config.cfl),
            mass=mass,
            momentum_x=momentum_x,
            momentum_y=momentum_y,
            energy=energy,
            mass_drift=_relative_drift(mass, self._baseline_mass),
            energy_drift=_relative_drift(energy, self._baseline_energy),
            min_density=float(rho.min()),
            min_pressure=pressure_min,
            phase_seconds=self._phase_delta(solver),
            workers=int(getattr(solver, "workers", 1)),
            tiles=self._tiles_delta(solver),
            tile_bytes=int(getattr(solver, "tile_bytes", 0)),
            **self._backend_snapshot(solver),
            **self._parallel_deltas(solver),
        )
        self.append(record)
        return record

    @staticmethod
    def _backend_snapshot(solver) -> Dict[str, object]:
        """Backend name plus the jit compile/cache counters (all
        defaults for engineless or NumPy-backed solvers)."""
        backend = getattr(getattr(solver, "engine", None), "backend", None)
        if backend is None:
            return {}
        stats = backend.stats()
        return {
            "backend": backend.name,
            "jit_compile_seconds": float(stats.get("compile_seconds", 0.0)),
            "jit_cache_hits": int(stats.get("cache_hits", 0)),
            "jit_cache_misses": int(stats.get("cache_misses", 0)),
        }

    def _phase_delta(self, solver) -> Optional[Dict[str, float]]:
        cumulative = getattr(solver, "phase_seconds", None)
        if cumulative is None:
            return None
        previous = self._last_phases or {}
        delta = {
            phase: seconds - previous.get(phase, 0.0)
            for phase, seconds in cumulative.items()
        }
        self._last_phases = dict(cumulative)
        return delta

    def _tiles_delta(self, solver) -> int:
        total = int(getattr(solver, "tiles", 0))
        delta = total - self._last_tiles
        self._last_tiles = total
        return delta

    def _parallel_deltas(self, solver) -> Dict[str, object]:
        copies = int(getattr(solver, "halo_exchanges", 0))
        nbytes = int(getattr(solver, "halo_bytes", 0))
        wait = float(getattr(solver, "barrier_wait_seconds", 0.0))
        deltas = {
            "halo_copies": copies - self._last_halo_copies,
            "halo_bytes": nbytes - self._last_halo_bytes,
            "barrier_wait_seconds": wait - self._last_barrier_wait,
        }
        self._last_halo_copies = copies
        self._last_halo_bytes = nbytes
        self._last_barrier_wait = wait
        return deltas


def _relative_drift(value: float, baseline: Optional[float]) -> float:
    if baseline is None:
        return 0.0
    scale = abs(baseline)
    if scale == 0.0:
        return value - baseline
    return (value - baseline) / scale
