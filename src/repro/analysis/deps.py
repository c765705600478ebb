"""Affine stencil-footprint and write-disjointness prover.

The paper's parallelization story rests on the SaC compiler *proving*
with-loop iterations independent before it threads them.  This module
is that proof engine for the reproduction, shared by two clients:

* the compiled-kernel lint (``repro.lint --jit``): every kernel carries
  a machine-readable **access map** (:class:`AccessMap`, built by
  :func:`repro.jit.codegen.sweep_access_map` from the same geometry the
  C emitter uses) describing each array's affine read/write row indices
  and loop bounds.  :func:`prove_footprint` re-derives the stencil
  footprint from the map and checks it against the declared ghost
  width; :func:`prove_strips` additionally proves that distinct strips
  of a tile plan touch disjoint output rows, so the strips could run
  in any order or in parallel;
* the with-loop checker (:mod:`repro.analysis.wl_check`): generator
  boxes with *symbolic* bounds become :class:`LinExpr` boxes and
  :func:`box_relation` delivers real verdicts (proven disjoint, proven
  overlapping with a concrete witness) where the constant-only logic
  used to bail.

Everything is affine: a :class:`LinExpr` is ``sum(coef * symbol) +
const`` over integer symbols.  Comparisons are decided under the
documented assumption that every symbol is a **nonnegative** count or
extent (strip cell counts, array sizes); verdicts that depend on the
assumption say so, and anything undecidable is reported as *unknown* —
never guessed.

Diagnostic codes (stable; tests assert on them):

========== ============================================================
code       meaning
========== ============================================================
DEP001     an access provably reads or writes outside the declared
           extent (for the sweep kernels: outside ``cells + 2 * ghost``
           padded rows — an out-of-bounds stencil read)
DEP002     overlapping writes, between two strips of a plan or between
           iterations of one loop (parallel execution would race)
DEP003     read-after-write between strips: one strip reads rows
           another strip writes (threading would reorder the dependence)
DEP004     proof unavailable — non-affine index, unknown symbol, or an
           opcode with unknown effects; the dispatcher must serialize
========== ============================================================

DEP001–003 are error severity, DEP004 a warning: an unprovable kernel
is not *wrong*, it just may not be threaded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.diag import Diagnostic, DiagnosticEngine
from repro.jit.ir import OPCODES

__all__ = [
    "LinExpr",
    "Access",
    "AccessMap",
    "StripProof",
    "OPCODE_EFFECTS",
    "nonneg",
    "access_bounds",
    "prove_footprint",
    "prove_strips",
    "box_relation",
]

SOURCE = "deps"

#: Side effects of every kernel opcode, maintained in lockstep with
#: :data:`repro.jit.ir.OPCODES` (the drift-guard test asserts the key
#: sets match).  All current opcodes are pure scalar value producers —
#: no loads, stores, or control flow — so the access map alone
#: describes a kernel's memory behaviour.  An opcode missing here, or
#: mapped to anything but ``"pure"``, makes every proof unavailable
#: (DEP004): the prover refuses to certify effects it does not know.
OPCODE_EFFECTS: Dict[str, str] = {
    "const": "pure",
    "param": "pure",
    "add": "pure",
    "sub": "pure",
    "mul": "pure",
    "div": "pure",
    "neg": "pure",
    "abs": "pure",
    "sqrt": "pure",
    "sign": "pure",
    "minimum": "pure",
    "maximum": "pure",
    "eq": "pure",
    "lt": "pure",
    "gt": "pure",
    "ge": "pure",
    "le": "pure",
    "and_": "pure",
    "select": "pure",
}


# --------------------------------------------------------------------------
# affine expressions over nonnegative integer symbols
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LinExpr:
    """``sum(coef * symbol) + const`` with integer coefficients.

    Symbols stand for nonnegative integers (cell counts, extents);
    ``terms`` is kept sorted so structurally equal expressions compare
    equal.  Arithmetic returns new expressions; ``+``/``-``/``*`` accept
    plain ints.
    """

    terms: Tuple[Tuple[str, int], ...] = ()
    const: int = 0

    @staticmethod
    def of(value: Union["LinExpr", int]) -> "LinExpr":
        if isinstance(value, LinExpr):
            return value
        return LinExpr((), int(value))

    @staticmethod
    def var(name: str, coef: int = 1) -> "LinExpr":
        if coef == 0:
            return LinExpr()
        return LinExpr(((name, int(coef)),), 0)

    @staticmethod
    def _normal(terms: Mapping[str, int], const: int) -> "LinExpr":
        kept = tuple(sorted((s, c) for s, c in terms.items() if c != 0))
        return LinExpr(kept, int(const))

    def coef(self, symbol: str) -> int:
        for name, c in self.terms:
            if name == symbol:
                return c
        return 0

    @property
    def symbols(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.terms)

    @property
    def is_const(self) -> bool:
        return not self.terms

    def __add__(self, other: Union["LinExpr", int]) -> "LinExpr":
        other = LinExpr.of(other)
        terms = dict(self.terms)
        for name, c in other.terms:
            terms[name] = terms.get(name, 0) + c
        return LinExpr._normal(terms, self.const + other.const)

    def __sub__(self, other: Union["LinExpr", int]) -> "LinExpr":
        return self + (LinExpr.of(other) * -1)

    def __mul__(self, factor: int) -> "LinExpr":
        factor = int(factor)
        return LinExpr._normal(
            {name: c * factor for name, c in self.terms}, self.const * factor
        )

    def __neg__(self) -> "LinExpr":
        return self * -1

    def subst(self, symbol: str, value: Union["LinExpr", int]) -> "LinExpr":
        """Replace ``symbol`` by ``value`` (an int or another LinExpr)."""
        c = self.coef(symbol)
        if c == 0:
            return self
        rest = LinExpr._normal(
            {name: k for name, k in self.terms if name != symbol}, self.const
        )
        return rest + LinExpr.of(value) * c

    def evaluate(self, env: Mapping[str, int]) -> Optional[int]:
        """Concrete value under ``env``; None when a symbol is missing."""
        total = self.const
        for name, c in self.terms:
            if name not in env:
                return None
            total += c * int(env[name])
        return total

    def __str__(self) -> str:
        parts = [
            (f"{c}*{name}" if c != 1 else name) for name, c in self.terms
        ]
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts).replace("+ -", "- ")


def nonneg(expr: Union[LinExpr, int]) -> Optional[bool]:
    """Tri-state sign of ``expr`` over nonnegative symbol values.

    ``True`` — provably ``>= 0`` for *every* assignment (all
    coefficients ``>= 0`` and the minimum, at the all-zero point, is
    ``const >= 0``); ``False`` — provably ``< 0`` for every assignment
    (the supremum is negative); ``None`` — the sign depends on the
    symbol values or cannot be decided.  Callers treat None as "proof
    unavailable", never as a verdict.
    """
    expr = LinExpr.of(expr)
    coefs = [c for _, c in expr.terms]
    if all(c >= 0 for c in coefs):
        if expr.const >= 0:
            return True
        if not coefs:
            return False
        # positive coefficients can lift a negative constant: unknown
        return None if any(c > 0 for c in coefs) else False
    if all(c <= 0 for c in coefs):
        return False if expr.const < 0 else None
    return None


# --------------------------------------------------------------------------
# access maps
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Access:
    """One array access of a kernel loop, in *row* units.

    ``row`` is the affine row index as a function of the loop variable
    ``var`` (and symbolic parameters); ``None`` marks a non-affine
    access the prover cannot reason about (DEP004).  ``lower``/``upper``
    is the half-open loop domain.  ``scope`` distinguishes shared
    arrays (windowed per strip by the dispatcher) from strip-private
    scratch the dispatcher allocates one-per-thread; only shared
    accesses participate in cross-strip checks.
    """

    array: str
    mode: str  # "read" | "write"
    row: Optional[LinExpr]
    var: str
    lower: LinExpr
    upper: LinExpr
    scope: str = "shared"

    def to_dict(self) -> Dict[str, object]:
        return {
            "array": self.array,
            "mode": self.mode,
            "row": None if self.row is None else str(self.row),
            "var": self.var,
            "domain": [str(self.lower), str(self.upper)],
            "scope": self.scope,
        }


@dataclass(frozen=True)
class AccessMap:
    """Machine-readable memory behaviour of one compiled kernel.

    ``extents`` gives each array's declared row extent (affine in the
    kernel's size parameters); ``strip_bases`` says how the dispatcher
    windows each shared array per strip — ``"start"`` arrays see a view
    beginning at the strip's global start row, ``"zero"`` arrays are
    passed whole (every strip addresses the same rows).  ``opcodes`` is
    the set of IR opcodes the kernel body executes, checked against
    :data:`OPCODE_EFFECTS` before any proof is issued.
    """

    kernel: str
    accesses: Tuple[Access, ...]
    extents: Mapping[str, LinExpr]
    opcodes: frozenset
    strip_bases: Mapping[str, str] = field(default_factory=dict)

    def base_of(self, array: str) -> str:
        return self.strip_bases.get(array, "start")

    def to_dict(self) -> Dict[str, object]:
        """JSON form — embedded as a comment in the generated C."""
        return {
            "kernel": self.kernel,
            "accesses": [a.to_dict() for a in self.accesses],
            "extents": {k: str(v) for k, v in sorted(self.extents.items())},
            "opcodes": sorted(self.opcodes),
            "strip_bases": dict(sorted(self.strip_bases.items())),
        }


def access_bounds(access: Access) -> Optional[Tuple[LinExpr, LinExpr]]:
    """Inclusive ``(min_row, max_row)`` of one access over its domain.

    The row index is affine in the loop variable with a *known integer*
    coefficient, so the extrema sit at the domain endpoints.  Returns
    None for non-affine accesses.  Callers guard empty domains
    separately; the bounds assume at least one iteration.
    """
    if access.row is None:
        return None
    first = access.lower
    last = access.upper - 1
    c = access.row.coef(access.var)
    at_first = access.row.subst(access.var, first)
    at_last = access.row.subst(access.var, last)
    if c >= 0:
        return at_first, at_last
    return at_last, at_first


# --------------------------------------------------------------------------
# proofs
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class StripProof:
    """Verdict of :func:`prove_strips`.

    ``licensed`` is True only when every check *proved* safe; ``reason``
    is the short counted string the dispatcher books when it must
    serialize (None when licensed).  ``diagnostics`` carries the full
    findings for lint/CLI surfacing.
    """

    licensed: bool
    reason: Optional[str]
    diagnostics: Tuple[Diagnostic, ...] = ()


def _check_effects(
    amap: AccessMap, engine: DiagnosticEngine, where: str
) -> None:
    unknown = sorted(
        op
        for op in amap.opcodes
        if OPCODE_EFFECTS.get(op) != "pure"
    )
    if unknown:
        engine.warning(
            "DEP004",
            f"kernel {amap.kernel} uses opcode(s) with unknown effects: "
            f"{', '.join(unknown)} — cannot certify memory behaviour",
            source=SOURCE,
            where=where,
        )
    stray = sorted(amap.opcodes - set(OPCODES))
    if stray:
        engine.warning(
            "DEP004",
            f"kernel {amap.kernel} uses opcode(s) absent from the IR "
            f"opcode table: {', '.join(stray)}",
            source=SOURCE,
            where=where,
        )


def prove_footprint(
    amap: AccessMap,
    ghost_cells: Optional[int] = None,
    *,
    engine: Optional[DiagnosticEngine] = None,
    where: str = "",
) -> DiagnosticEngine:
    """Prove every access in bounds for all nonnegative parameter values.

    With ``ghost_cells`` given, the footprint of the ``padded`` array is
    checked against the *declared* ghost width — its extent is taken as
    ``cells + 2 * ghost_cells`` regardless of what the map says — which
    is exactly the "does the reconstruction stencil fit the padding the
    engine provides" question.  Emits DEP001 for proven violations and
    DEP004 where the proof is unavailable.
    """
    engine = engine if engine is not None else DiagnosticEngine()
    where = where or amap.kernel
    _check_effects(amap, engine, where)
    extents = dict(amap.extents)
    if ghost_cells is not None and "padded" in extents:
        extents["padded"] = LinExpr.var("cells") + 2 * int(ghost_cells)
    for access in amap.accesses:
        bounds = access_bounds(access)
        if bounds is None:
            engine.warning(
                "DEP004",
                f"{access.mode} of '{access.array}' has a non-affine row "
                "index — footprint proof unavailable",
                source=SOURCE,
                where=where,
            )
            continue
        extent = extents.get(access.array)
        if extent is None:
            continue
        lo, hi = bounds
        # Vacuous when the domain can be empty only if it is *always*
        # empty; a sometimes-empty domain still needs in-bounds rows for
        # the nonempty instances, which the endpoint bounds cover.
        if nonneg(access.upper - access.lower - 1) is False:
            continue  # provably zero iterations: no footprint
        low_ok = nonneg(lo)
        high_ok = nonneg(extent - 1 - hi)
        if low_ok is False or high_ok is False:
            engine.error(
                "DEP001",
                f"{access.mode} of '{access.array}' spans rows "
                f"[{lo}, {hi}] but the declared extent is {extent}"
                + (
                    f" (cells + 2*{ghost_cells} ghost rows)"
                    if ghost_cells is not None and access.array == "padded"
                    else ""
                ),
                source=SOURCE,
                where=where,
            )
        elif low_ok is None or high_ok is None:
            engine.warning(
                "DEP004",
                f"cannot decide whether {access.mode} of "
                f"'{access.array}' rows [{lo}, {hi}] stays inside "
                f"extent {extent}",
                source=SOURCE,
                where=where,
            )
    return engine


def _concrete_interval(
    access: Access, start: int, cells: int
) -> Optional[Tuple[int, int]]:
    """Inclusive global row interval of one access for one strip.

    The strip's kernel invocation binds ``cells``; ``"start"``-based
    arrays are windowed so local row 0 is global row ``start``,
    ``"zero"``-based arrays are passed whole.  None when the interval
    is not concrete after binding (unknown symbols remain) or the
    strip's domain is empty.
    """
    bounds = access_bounds(access)
    if bounds is None:
        return None
    env = {"cells": int(cells)}
    iterations = (access.upper - access.lower).evaluate(env)
    if iterations is None:
        return None
    if iterations <= 0:
        return (0, -1)  # empty
    lo = bounds[0].evaluate(env)
    hi = bounds[1].evaluate(env)
    if lo is None or hi is None:
        return None
    return (lo + start, hi + start)


def prove_strips(
    amap: AccessMap,
    strips: Sequence[Tuple[int, int]],
    ghost_cells: Optional[int] = None,
    *,
    where: str = "",
) -> StripProof:
    """Prove the strips of one tile plan independent under ``amap``.

    ``strips`` are the concrete ``(start, stop)`` output-row ranges of
    the plan.  The proof licenses threading iff *all* of:

    * the kernel's opcodes have known (pure) effects and every access
      is affine and in bounds (:func:`prove_footprint`);
    * no shared array row is written by two different strips (DEP002),
      including the degenerate per-iteration case where a single
      strip's loop writes one row more than once;
    * no shared array row written by one strip is read by another
      (DEP003) — threading would reorder that dependence.

    Strip-scope arrays (per-thread scratch) are exempt from the
    cross-strip checks: the dispatcher hands every strip its own
    buffer, which is precisely what the scope annotation asserts.
    """
    engine = DiagnosticEngine()
    where = where or amap.kernel
    prove_footprint(amap, ghost_cells, engine=engine, where=where)

    # iteration-level write disjointness inside one strip: a shared
    # write whose row ignores the loop variable, in a loop that can run
    # twice, writes the same row twice.
    for access in amap.accesses:
        if access.mode != "write" or access.scope != "shared":
            continue
        if access.row is None:
            continue  # already DEP004
        if access.row.coef(access.var) == 0:
            if nonneg(access.upper - access.lower - 2) is not False:
                engine.error(
                    "DEP002",
                    f"iterations of {amap.kernel} all write row "
                    f"'{access.array}[{access.row}]' — not injective in "
                    f"{access.var}",
                    source=SOURCE,
                    where=where,
                )

    # cross-strip: concrete global intervals per strip and array.
    spans: List[Dict[str, Dict[str, Tuple[int, int]]]] = []
    unknown = False
    for start, stop in strips:
        cells = int(stop) - int(start)
        per_strip: Dict[str, Dict[str, Tuple[int, int]]] = {
            "read": {},
            "write": {},
        }
        for access in amap.accesses:
            if access.scope != "shared":
                continue
            base = int(start) if amap.base_of(access.array) == "start" else 0
            interval = _concrete_interval(access, base, cells)
            if interval is None:
                unknown = True
                continue
            if interval[1] < interval[0]:
                continue  # empty domain for this strip
            table = per_strip[access.mode]
            seen = table.get(access.array)
            if seen is None:
                table[access.array] = interval
            else:
                table[access.array] = (
                    min(seen[0], interval[0]),
                    max(seen[1], interval[1]),
                )
        spans.append(per_strip)
    if unknown:
        engine.warning(
            "DEP004",
            "strip intervals are not concrete after binding the strip "
            "cell counts — cross-strip proof unavailable",
            source=SOURCE,
            where=where,
        )

    def overlap(a: Tuple[int, int], b: Tuple[int, int]) -> bool:
        return max(a[0], b[0]) <= min(a[1], b[1])

    for i in range(len(spans)):
        for j in range(i + 1, len(spans)):
            for array, wi in spans[i]["write"].items():
                wj = spans[j]["write"].get(array)
                if wj is not None and overlap(wi, wj):
                    engine.error(
                        "DEP002",
                        f"strips {strips[i]} and {strips[j]} both write "
                        f"'{array}' rows {wi} and {wj}",
                        source=SOURCE,
                        where=where,
                    )
            for first, second in ((i, j), (j, i)):
                for array, w in spans[first]["write"].items():
                    r = spans[second]["read"].get(array)
                    if r is not None and overlap(w, r):
                        engine.error(
                            "DEP003",
                            f"strip {strips[second]} reads '{array}' rows "
                            f"{r} written by strip {strips[first]} "
                            f"(rows {w}) — threading would reorder the "
                            "dependence",
                            source=SOURCE,
                            where=where,
                        )

    diagnostics = tuple(engine.diagnostics)
    if diagnostics:
        head = diagnostics[0]
        reason = f"{head.code}: {head.message.splitlines()[0]}"
        return StripProof(False, reason, diagnostics)
    return StripProof(True, None, ())


# --------------------------------------------------------------------------
# symbolic boxes (wl_check's disjointness upgrade)
# --------------------------------------------------------------------------

#: (lowers, uppers) of a half-open box with affine sides.
SymBox = Tuple[Tuple[LinExpr, ...], Tuple[LinExpr, ...]]


def _box_symbols(boxes: Iterable[SymBox]) -> List[str]:
    names: List[str] = []
    for box in boxes:
        for side in box:
            for expr in side:
                for name in expr.symbols:
                    if name not in names:
                        names.append(name)
    return names


def _instantiate(box: SymBox, env: Mapping[str, int]):
    lowers = [lo.evaluate(env) for lo in box[0]]
    uppers = [hi.evaluate(env) for hi in box[1]]
    if any(v is None for v in lowers + uppers):
        return None
    return tuple(lowers), tuple(uppers)


def box_relation(
    one: SymBox, two: SymBox, witness_values: Sequence[int] = (0, 1, 2, 3)
) -> Tuple[str, Optional[Dict[str, int]]]:
    """Relation of two symbolic half-open boxes of equal rank.

    Returns ``("disjoint", None)`` when the boxes provably never
    intersect for any nonnegative symbol values (one is always empty,
    or some axis is separated), ``("overlap", witness)`` when a
    concrete nonnegative instantiation makes both boxes nonempty and
    intersecting (the witness assignment is returned for the
    diagnostic), and ``("unknown", None)`` otherwise — the conservative
    stay-silent verdict.
    """
    # provably empty box -> vacuously disjoint
    for box in (one, two):
        for lo, hi in zip(box[0], box[1]):
            if nonneg(lo - hi) is True:  # hi <= lo on this axis, always
                return "disjoint", None
    # separated on some axis -> disjoint
    for lo1, hi1, lo2, hi2 in zip(one[0], one[1], two[0], two[1]):
        if nonneg(lo2 - hi1) is True or nonneg(lo1 - hi2) is True:
            return "disjoint", None
    # concrete witness -> overlap (a real counterexample, no assumption)
    symbols = _box_symbols((one, two))
    for value in witness_values:
        env = {name: int(value) for name in symbols}
        a = _instantiate(one, env)
        b = _instantiate(two, env)
        if a is None or b is None:
            continue
        if any(hi <= lo for lo, hi in zip(*a)):
            continue
        if any(hi <= lo for lo, hi in zip(*b)):
            continue
        if all(
            max(lo1, lo2) < min(hi1, hi2)
            for lo1, lo2, hi1, hi2 in zip(a[0], b[0], a[1], b[1])
        ):
            return "overlap", env
    return "unknown", None
