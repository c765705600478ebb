"""``python -m repro.lint`` — run every static checker in one pass.

With no arguments the built-in programs are linted: the three bundled
SaC sources (the Section 4 Euler kernels among them, with the paper's
``-DDIM=2`` define set) and the two Fortran solver sources.  Paths to
``.sac`` / ``.f90`` files may be given instead.

Per SaC target: parse, IR-verify + typecheck the source module
(:mod:`repro.analysis.sac_verify`), check with-loop disjointness and
bounds (:mod:`repro.analysis.wl_check`), then compile at ``-O3`` with
``verify_ir=True`` so the verifier also runs between every
optimisation pass.  Per Fortran target: parse, auto-parallelise, and
cross-check the annotations against the independent race checker
(:mod:`repro.analysis.f90_races`).

``--jit`` lints the *compiled-kernel matrix* instead of (or besides)
source files: every registered riemann × reconstruction × limiter ×
variables × ndim specialization is lowered to kernel IR, verified
(:mod:`repro.analysis.jit_verify`), and its access map run through the
dependence prover (:mod:`repro.analysis.deps` — footprint vs. ghost
width, strip write-disjointness) ahead of time, so a specialization
whose strips are not provably independent is caught in CI rather
than at first engine use.

Output is a human-readable report, or JSONL (``--json``, one
``"kind": "diagnostic"`` object per line — the
:mod:`repro.obs.export` schema) to stdout or ``--output``.  Exit
status is the number of error-severity findings, capped at 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.diag import DiagnosticEngine
from repro.analysis.f90_races import cross_check_autopar
from repro.analysis.sac_verify import verify_module
from repro.analysis.wl_check import check_with_loops
from repro.errors import AnalysisError, ReproError

__all__ = [
    "main",
    "lint_sac_source",
    "lint_f90_source",
    "lint_jit_kernels",
    "builtin_targets",
]

#: defines for the bundled kernels, per tests and the paper's flags
_KERNELS_DEFINES: Dict[str, object] = {
    "DIM": 2,
    "DELTA": np.array([1.0, 1.0]),
    "CFL": 0.5,
}


def builtin_targets() -> List[Tuple[str, str, Dict[str, object]]]:
    """(name, kind, defines) for every bundled program."""
    return [
        ("kernels.sac", "sac", dict(_KERNELS_DEFINES)),
        ("euler1d.sac", "sac", {}),
        ("euler2d.sac", "sac", {}),
        ("euler2d.f90", "f90", {}),
        ("getdt.f90", "f90", {}),
    ]


def lint_sac_source(
    source: str,
    defines: Optional[Dict[str, object]] = None,
    *,
    engine: Optional[DiagnosticEngine] = None,
    pipeline: bool = True,
) -> DiagnosticEngine:
    """All SaC checkers over one source text."""
    from repro.sac import api
    from repro.sac.parser import parse_module

    engine = engine if engine is not None else DiagnosticEngine()
    module = parse_module(source)
    verify_module(module, defines, engine=engine)
    check_with_loops(module, defines, engine=engine)
    if pipeline and not engine.has_errors():
        options = api.CompilerOptions(defines=dict(defines or {}), verify_ir=True)
        try:
            api.compile_source(source, options)
        except AnalysisError as error:
            engine.extend(error.diagnostics)
    return engine


def lint_f90_source(
    source: str,
    *,
    engine: Optional[DiagnosticEngine] = None,
) -> DiagnosticEngine:
    """Autopar cross-check over one Fortran source text."""
    from repro.f90.autopar import autoparallelize
    from repro.f90.parser import parse_program

    engine = engine if engine is not None else DiagnosticEngine()
    unit = parse_program(source)
    autoparallelize(unit)
    cross_check_autopar(unit, engine=engine)
    return engine


def lint_jit_kernels(
    engine: Optional[DiagnosticEngine] = None,
) -> Tuple[int, List[Tuple[str, str]]]:
    """Lower + verify + dependence-prove the whole KernelSpec matrix.

    Every registered riemann × reconstruction × limiter × variables ×
    ndim combination is resolved to a :class:`~repro.jit.kernels
    .KernelSpec` (deduplicated — e.g. limiter choices collapse for
    unlimited schemes), its flux/dt IR built and structurally verified,
    and its access maps run through :func:`repro.analysis.deps
    .prove_strips` (sweep, against a representative two-strip plan and
    the declared ghost width) and :func:`~repro.analysis.deps
    .prove_footprint` (dt).  Findings land in ``engine``; returns
    ``(verified_spec_count, [(label, reason), ...])`` for the
    combinations the compiled path does not support (NumPy-only, by
    design — reported, not an error).
    """
    import itertools

    from repro.analysis import deps
    from repro.analysis.jit_verify import verify_kernel
    from repro.euler.reconstruction import LIMITERS
    from repro.euler.riemann import RIEMANN_SOLVERS
    from repro.euler.solver import SolverConfig
    from repro.jit import codegen
    from repro.jit.kernels import build_dt_ir, build_flux_ir, spec_from_config

    engine = engine if engine is not None else DiagnosticEngine()
    reconstructions = ("pc", "tvd2", "tvd3", "weno3")
    variables = ("primitive", "conservative", "characteristic")
    limited = ("tvd2", "tvd3")

    specs = []
    seen = set()
    unsupported: List[Tuple[str, str]] = []
    for riemann, reconstruction, variant, ndim in itertools.product(
        RIEMANN_SOLVERS, reconstructions, variables, (1, 2)
    ):
        limiters = tuple(LIMITERS) if reconstruction in limited else ("minmod",)
        for limiter in limiters:
            config = SolverConfig(
                riemann=riemann,
                reconstruction=reconstruction,
                limiter=limiter,
                variables=variant,
            )
            spec, reason = spec_from_config(config, ndim)
            if spec is None:
                label = f"{riemann}/{reconstruction}/{limiter}/{variant}/{ndim}d"
                unsupported.append((label, str(reason)))
                continue
            if spec in seen:
                continue
            seen.add(spec)
            specs.append(spec)

    for spec in specs:
        label = spec.label()
        # verify_kernel raises as soon as *any* error is on its engine,
        # so each spec gets a private one; findings are merged after.
        local = DiagnosticEngine()
        try:
            flux_ir = build_flux_ir(spec)
            dt_ir = build_dt_ir(spec)
            verify_kernel(flux_ir, label, engine=local)
            verify_kernel(dt_ir, label, engine=local)
        except AnalysisError:
            engine.extend(local.diagnostics)
            continue
        engine.extend(local.diagnostics)
        # Representative two-strip plan: enough to exercise every
        # cross-strip check (the proof is layout-generic in `cells`).
        amap = codegen.sweep_access_map(spec, flux_ir)
        proof = deps.prove_strips(
            amap, ((0, 4), (4, 8)), spec.ghost_cells, where=label
        )
        engine.extend(proof.diagnostics)
        deps.prove_footprint(
            codegen.dt_access_map(spec, dt_ir), engine=engine, where=label
        )
    return len(specs), unsupported


def _lint_target(
    name: str,
    kind: str,
    defines: Dict[str, object],
    engine: DiagnosticEngine,
    pipeline: bool,
) -> None:
    if kind == "sac":
        from repro.sac.api import load_program_source

        lint_sac_source(
            load_program_source(name), defines, engine=engine, pipeline=pipeline
        )
    else:
        from repro.f90.api import load_program_source

        lint_f90_source(load_program_source(name), engine=engine)


def _classify(path: str) -> str:
    if path.endswith(".sac"):
        return "sac"
    if path.endswith((".f90", ".f", ".F90")):
        return "f90"
    raise SystemExit(f"repro.lint: cannot classify {path!r} (.sac or .f90)")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Static analysis over SaC and Fortran-90 sources "
        "(IR verification, with-loop disjointness/bounds, autopar race "
        "cross-check).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=".sac / .f90 files; default: the bundled Euler programs",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit JSONL diagnostics (repro.obs.export schema)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="write the report/JSONL here instead of stdout",
    )
    parser.add_argument(
        "--define",
        "-D",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="compile-time define for .sac targets (int or float)",
    )
    parser.add_argument(
        "--no-pipeline",
        action="store_true",
        help="skip the -O3 verify_ir compile of .sac targets",
    )
    parser.add_argument(
        "--jit",
        action="store_true",
        help="lower, verify and dependence-prove the full compiled-kernel "
        "specialization matrix (with no paths, lints only the matrix)",
    )
    arguments = parser.parse_args(argv)

    defines: Dict[str, object] = {}
    for item in arguments.define:
        name, _, text = item.partition("=")
        if not _:
            raise SystemExit(f"repro.lint: bad define {item!r} (want NAME=VALUE)")
        try:
            defines[name] = int(text)
        except ValueError:
            try:
                defines[name] = float(text)
            except ValueError:
                raise SystemExit(
                    f"repro.lint: define {item!r} is neither int nor float"
                ) from None

    engine = DiagnosticEngine()
    targets: List[Tuple[str, str, Dict[str, object]]]
    if arguments.paths:
        targets = [(path, _classify(path), dict(defines)) for path in arguments.paths]
    elif arguments.jit:
        targets = []
    else:
        targets = builtin_targets()

    checked: List[str] = []
    for name, kind, target_defines in targets:
        before = len(engine)
        try:
            _lint_target(
                name, kind, target_defines, engine, pipeline=not arguments.no_pipeline
            )
        except ReproError as error:
            engine.error(
                "LINT-FAIL",
                f"{name}: {type(error).__name__}: {error}",
                source="repro.lint",
                where=name,
            )
        checked.append(f"{name}: {len(engine) - before} finding(s)")

    if arguments.jit:
        before = len(engine)
        try:
            verified, unsupported = lint_jit_kernels(engine)
        except ReproError as error:
            engine.error(
                "LINT-FAIL",
                f"jit kernel matrix: {type(error).__name__}: {error}",
                source="repro.lint",
                where="jit-matrix",
            )
        else:
            checked.append(
                f"jit kernel matrix: {verified} spec(s) verified, "
                f"{len(unsupported)} unsupported (NumPy-only), "
                f"{len(engine) - before} finding(s)"
            )

    stream = open(arguments.output, "w") if arguments.output else sys.stdout
    try:
        if arguments.json:
            for diagnostic in engine:
                stream.write(json.dumps(diagnostic.to_dict()))
                stream.write("\n")
        else:
            for line in checked:
                stream.write(f"checked {line}\n")
            stream.write(engine.format())
            stream.write("\n")
    finally:
        if arguments.output:
            stream.close()
    return 1 if engine.has_errors() else 0
