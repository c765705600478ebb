"""The ``KernelBackend`` the StepEngine dispatches through.

A :class:`JitBackend` owns the loaded kernel for one engine's
specialization and serves two strip-level operations:

* :meth:`sweep` — the fused ``reconstruct -> riemann -> difference``
  pass over one padded strip, writing the flux-difference rows;
* :meth:`dt_strip` — the fused ``convert -> eigenvalue`` GetDT pass
  over one strip, writing the primitive conversion and per-group
  maxima.

The backend is chosen once per engine: :func:`load_backend` returns one
only when the spec lowers and its kernel loads, and otherwise hands the
engine a reason to run NumPy for the whole run.  A backend serves every
call it gets — strided inputs and outputs go through contiguous
workspace scratch plus one exact copy.  An IR verification failure is
not a reason to run NumPy: it means an emitter produced malformed IR (a
bug), and the :class:`~repro.errors.AnalysisError` propagates with the
specialization named.

Kernels are cached across engines and processes (see
:mod:`repro.jit.compile`); time spent in the served calls is booked to
the engine's ``jit_sweep``/``jit_dt`` phase counters.
"""

from __future__ import annotations

import ctypes
import math
from time import perf_counter
from typing import Dict, Optional, Tuple

import numpy as np

from repro.analysis.jit_verify import verify_kernel
from repro.errors import ConfigurationError
from repro.jit import codegen
from repro.jit import compile as jit_compile
from repro.jit.kernels import KernelSpec, build_dt_ir, build_flux_ir, spec_from_config

__all__ = ["JitBackend", "load_backend"]

_DOUBLE_P = ctypes.POINTER(ctypes.c_double)


def _ptr(array: np.ndarray):
    return array.ctypes.data_as(_DOUBLE_P)


def _staged(workspace, name: str, array: np.ndarray, load: bool) -> np.ndarray:
    """``array`` when C-contiguous, else a contiguous workspace twin
    (filled from ``array`` when ``load``); copies are exact."""
    if array.flags.c_contiguous:
        return array
    twin = workspace.array(name, array.shape)
    if load:
        np.copyto(twin, array)
    return twin


def _require_float64(*arrays: np.ndarray) -> None:
    for array in arrays:
        if array.dtype != np.float64:
            raise ConfigurationError(
                f"compiled kernels take float64 arrays, got {array.dtype}"
            )


def load_backend(config, ndim: int) -> Tuple[Optional["JitBackend"], Optional[str]]:
    """``(backend, None)`` when the spec lowers and its kernel loads,
    else ``(None, reason)`` and the engine runs NumPy throughout."""
    spec, reason = spec_from_config(config, ndim)
    if spec is None:
        return None, reason
    label = spec.label()
    flux_ir = build_flux_ir(spec)
    dt_ir = build_dt_ir(spec)
    # Emitter bugs surface here, by specialization — see module doc.
    verify_kernel(flux_ir, label)
    verify_kernel(dt_ir, label)
    source = codegen.generate_source(spec, flux_ir, dt_ir)
    try:
        kernel = jit_compile.load_kernel(source, spec.ndim)
    except jit_compile.CompileError as error:
        return None, f"compile failed: {error}"
    return JitBackend(config, spec, kernel), None


class JitBackend:
    """Compiled-kernel server for one engine's loaded specialization."""

    name = "jit"

    def __init__(self, config, spec: KernelSpec, kernel: jit_compile.CompiledKernel):
        self.config = config
        self.spec = spec
        self.kernel = kernel
        self.sweep_calls = 0
        self.dt_calls = 0

    def sweep(self, engine, padded: np.ndarray, spacing: float, out: np.ndarray) -> None:
        """Fused sweep over one padded strip into ``out``.

        ``padded`` is ``(cells + 2 ng, cross..., F)`` in sweep layout;
        ``out`` receives the ``cells`` flux-difference rows.
        """
        _require_float64(padded, out)
        nfields = self.spec.nfields
        cells = padded.shape[0] - 2 * self.spec.ghost_cells
        if (
            padded.shape[-1] != nfields
            or cells < 1
            or out.shape != (cells,) + padded.shape[1:]
        ):
            raise ConfigurationError(
                f"jit sweep: padded strip {padded.shape} does not fit output {out.shape}"
            )
        cross = math.prod(padded.shape[1:-1])

        started = perf_counter()
        workspace = engine.workspace
        source = _staged(workspace, "jit.sweep_in", padded, load=True)
        target = _staged(workspace, "jit.sweep_out", out, load=False)
        scratch = workspace.array("jit.flux_rows", (2, cross, nfields))
        self.kernel.sweep(
            _ptr(source),
            _ptr(target),
            _ptr(scratch),
            cells,
            cross,
            float(self.config.gamma),
            float(spacing),
        )
        if target is not out:
            np.copyto(out, target)
        engine.seconds["jit_sweep"] += perf_counter() - started
        self.sweep_calls += 1

    # perfbench/workloads.py JIT_SPANS wraps this name; nothing else uses it.
    sweep_tiled = sweep

    def dt_strip(
        self,
        engine,
        u_strip: np.ndarray,
        prim_strip: np.ndarray,
        maxima_out: np.ndarray,
    ) -> None:
        """Fused convert+GetDT over one strip.

        Writes the primitive conversion into ``prim_strip`` (kept fresh
        for RK stage 1, exactly like the NumPy path) and one max per
        group into ``maxima_out`` — one group for a solo engine strip,
        one per member for a batch strip.
        """
        _require_float64(u_strip, prim_strip, maxima_out)
        nfields = self.spec.nfields
        groups = maxima_out.shape[0] if maxima_out.ndim == 1 else 0
        cells = u_strip.size // nfields
        if (
            u_strip.shape != prim_strip.shape
            or u_strip.shape[-1] != nfields
            or groups < 1
            or cells % groups != 0
        ):
            raise ConfigurationError(
                f"jit dt: strip {u_strip.shape} does not fit"
                f" {prim_strip.shape} / {maxima_out.shape}"
            )

        started = perf_counter()
        workspace = engine.workspace
        source = _staged(workspace, "jit.dt_in", u_strip, load=True)
        primitive = _staged(workspace, "jit.dt_prim", prim_strip, load=False)
        maxima = _staged(workspace, "jit.dt_max", maxima_out, load=False)
        self.kernel.dt(
            _ptr(source),
            _ptr(primitive),
            _ptr(maxima),
            groups,
            cells // groups,
            float(self.config.gamma),
            *(float(s) for s in engine.spacing),
        )
        if primitive is not prim_strip:
            np.copyto(prim_strip, primitive)
        if maxima is not maxima_out:
            np.copyto(maxima_out, maxima)
        engine.seconds["jit_dt"] += perf_counter() - started
        self.dt_calls += 1

    def stats(self) -> Dict[str, object]:
        """JSON-friendly counter snapshot (engine counters / step trace)."""
        snapshot: Dict[str, object] = {
            "spec": self.spec.label(),
            "sweep_calls": self.sweep_calls,
            "dt_calls": self.dt_calls,
        }
        snapshot.update(jit_compile.compile_stats())
        return snapshot
