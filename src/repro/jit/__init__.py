"""``repro.jit`` — lazy-specializing native compilation of the hot kernels.

The paper credits SaC's with-loop folding for fusing the
``reconstruct -> riemann -> difference`` producer/consumer chains that
dominate every Euler step; pure NumPy cannot fuse them (ROADMAP item 1,
~82% of step time in ``riemann + difference`` at 400x400).  This package
is the compile layer that closes that gap without giving up the repo's
core contract: **bit-for-bit identity with the NumPy path**.

How it works
------------

* A *specialization* is the tuple ``(riemann, reconstruction, limiter,
  variables, dtype, ndim)`` — exactly the method menu the engine's
  NumPy path dispatches on (:data:`repro.euler.riemann.RIEMANN_SOLVERS`
  and friends).  :mod:`repro.jit.kernels` assembles, per
  specialization, a straight-line SSA kernel IR (:mod:`repro.jit.ir`)
  for the fused per-face flux computation and the fused per-cell
  convert+eigenvalue dt pass, using *emitter* functions that live next
  to the NumPy kernels they mirror (``emit_*`` in
  :mod:`repro.euler.riemann`, :mod:`repro.euler.reconstruction`,
  :mod:`repro.euler.state`, :mod:`repro.euler.eos`).
* Every emitted op mirrors one NumPy ufunc application — same operation,
  same order, no algebraic rewrites (``np.power(x, 2)`` becomes
  ``x * x`` because that is NumPy's own fast path; ``np.minimum``'s
  NaN propagation is reproduced with an explicit helper, not ``fmin``).
  The IR is checked by :func:`repro.analysis.jit_verify.verify_kernel`
  before any C is generated; diagnostics name the failing
  specialization.
* :mod:`repro.jit.codegen` lowers the verified IR to C99 and
  :mod:`repro.jit.compile` builds it with the system C compiler
  (``-O2 -fPIC -shared -ffp-contract=off`` — contraction off so the
  compiler cannot fuse a mirrored multiply+add into an FMA with
  different rounding), caches the shared object by source hash, and
  loads it through :mod:`ctypes`.  First use compiles; later engines —
  and later processes — reuse the cached ``.so``.
* :class:`repro.jit.backend.JitBackend` is the ``KernelBackend`` the
  :class:`~repro.euler.engine.StepEngine` dispatches through,
  strip-wise, so :mod:`repro.euler.tiling` still governs the working
  set.  Fallback is per engine, not per strip: a spec the compiled
  path does not lower (characteristic projection with wide stencils)
  or a kernel that does not build or load (no compiler) leaves the
  engine on the NumPy oracle for the whole run, with the reason in
  ``engine.counters()["backend_reason"]``.

Backend selection
-----------------

Resolution order (first match wins):

1. the explicit ``backend=`` argument to ``StepEngine``;
2. a :func:`backend_override` context (used by tests/benchmarks);
3. the ``REPRO_JIT`` environment variable — ``0``/``off``/``numpy``
   forces NumPy, ``1``/``on``/``jit`` requests the compiled path
   (still NumPy, with a counted reason, if the kernel does not load);
4. *auto*: use the compiled path when a C compiler is available.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.errors import ConfigurationError

__all__ = [
    "JIT_ENV",
    "available",
    "backend_override",
    "resolve_backend_name",
    "create_backend",
]

#: Environment switch: "0"/"off"/"numpy" disables the compiled path,
#: "1"/"on"/"jit" requests it, unset means auto-detect.
JIT_ENV = "REPRO_JIT"

_NUMPY_WORDS = frozenset({"0", "off", "numpy", "false", "no"})
_JIT_WORDS = frozenset({"1", "on", "jit", "true", "yes"})

#: Module-level override installed by :func:`backend_override`.
_OVERRIDE: Optional[str] = None


def available() -> bool:
    """True when a C compiler is on PATH (the auto-mode gate)."""
    from repro.jit.compile import find_compiler

    return find_compiler() is not None


def _parse_env(raw: str) -> str:
    word = raw.strip().lower()
    if word in _NUMPY_WORDS:
        return "numpy"
    if word in _JIT_WORDS:
        return "jit"
    raise ConfigurationError(
        f"{JIT_ENV}={raw!r} is not a backend; use 0/off/numpy or 1/on/jit"
    )


def resolve_backend_name(explicit: Optional[str] = None) -> str:
    """Resolve the backend to use: ``"numpy"`` or ``"jit"``.

    Precedence: ``explicit`` argument > :func:`backend_override` >
    ``REPRO_JIT`` env > auto (jit iff a compiler is available).
    """
    for source, value in (
        ("backend=", explicit),
        ("backend_override()", _OVERRIDE),
    ):
        if value is None:
            continue
        name = str(value).strip().lower()
        if name == "auto":
            break
        if name not in ("numpy", "jit"):
            raise ConfigurationError(
                f"{source} got {value!r}; expected 'numpy', 'jit' or 'auto'"
            )
        return name
    raw = os.environ.get(JIT_ENV)
    if raw is not None:
        return _parse_env(raw)
    return "jit" if available() else "numpy"


@contextmanager
def backend_override(name: Optional[str]) -> Iterator[None]:
    """Scoped backend selection: ``"numpy"``, ``"jit"``, ``"auto"`` or
    ``None`` (None removes any active override).

    Engines resolve their backend at construction, so the override must
    wrap engine/solver *creation*, not stepping.
    """
    global _OVERRIDE
    if name is not None and str(name).strip().lower() not in (
        "numpy",
        "jit",
        "auto",
    ):
        raise ConfigurationError(
            f"backend_override({name!r}); expected 'numpy', 'jit', 'auto' or None"
        )
    previous = _OVERRIDE
    _OVERRIDE = name if name is None else str(name).strip().lower()
    try:
        yield
    finally:
        _OVERRIDE = previous


def create_backend(config, ndim: int, explicit: Optional[str] = None):
    """The engine-side entry point: ``(backend, None)`` with a loaded
    :class:`~repro.jit.backend.JitBackend`, or ``(None, reason)`` for an
    engine that runs NumPy throughout."""
    if resolve_backend_name(explicit) == "numpy":
        return None, "numpy requested" if available() else "no C compiler on PATH"
    from repro.jit.backend import load_backend

    return load_backend(config, ndim)
