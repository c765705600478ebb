"""Measurement primitives shared by the benchmark's workloads.

* order statistics: the median (always reported, with its sample count)
  and tail percentiles, which are reported only when at least
  :data:`MIN_BEYOND` samples lie beyond them;
* :class:`Tracer`: in-memory spans (name, start, end, parent, run id)
  around calls into the program's public functions, with self time;
* :func:`host_fingerprint`: the host facts every result record carries.

Stdlib only, so the orchestrator can import it without loading NumPy.
"""

from __future__ import annotations

import functools
import json
import math
import os
import platform
import statistics
import subprocess
import threading
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10

#: Where the solver workloads keep the developed flow their trials start from.
DEVELOPED = Path(__file__).resolve().parents[1] / ".bench_build" / "perfbench" / "developed"


def developed_path(workload: str, size: str) -> Path:
    return DEVELOPED / f"{workload}-{size}.npz"


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("median of no samples")
    return statistics.median(samples)


def tail_percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-th percentile, or None with < MIN_BEYOND beyond it.

    The nearest-rank percentile of n sorted samples is the one at rank
    ``ceil(q/100 * n)``; the samples beyond it are the ``n - rank``
    above that rank.  p90 therefore needs at least 100 samples.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ordered))
    if rank < 1 or len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the run-to-run spread the bounds are set against."""
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid


# -- tracing -------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: Optional[str]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans around calls into the program, kept in memory.

    :meth:`wrap` replaces an attribute (a bound method on an instance, a
    method on a class, a function in a module) with a timing wrapper;
    :meth:`restore` puts every original back, so one process can run
    traced and untraced trials alternately.  The parent of a span is
    the innermost open span on the same thread.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self.run_id: Optional[str] = None
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object, bool]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, function: Callable, *args, **kwargs):
        stack = self._stack()
        index = len(self.spans)
        span = Span(name, perf_counter(), 0.0, stack[-1] if stack else None, self.run_id)
        self.spans.append(span)
        stack.append(index)
        try:
            return function(*args, **kwargs)
        finally:
            span.end = perf_counter()
            stack.pop()

    def record(self, name: str, start: float, end: float, run_id: Optional[str]) -> None:
        """Add a span measured elsewhere (a client-side request, say)."""
        self.spans.append(Span(name, start, end, None, run_id))

    def wrap(
        self, owner: object, attr: str, name: str, observe: Optional[Callable] = None
    ) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        A plain function is installed: on an instance or a module it is
        called as is, on a class it binds like the method it replaces.
        ``observe``, if given, sees each call's arguments first (to
        count the work a call was handed).
        """
        original = getattr(owner, attr)
        had_own = attr in vars(owner)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(*args, **kwargs)
            return tracer.call(name, original, *args, **kwargs)

        self._patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def summary(self, run_ids: Optional[set] = None) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total seconds and self seconds."""
        chosen = [
            index for index, span in enumerate(self.spans)
            if run_ids is None or span.run_id in run_ids
        ]
        own = self_times(self.spans)
        table: Dict[str, Dict[str, float]] = {}
        for index in chosen:
            span = self.spans[index]
            row = table.setdefault(span.name, {"calls": 0, "seconds": 0.0, "self": 0.0})
            row["calls"] += 1
            row["seconds"] += span.seconds
            row["self"] += own[index]
        return table

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines (name, start, end, parent, run_id)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Children may overlap one another (threads); their intervals are
    clipped to the parent and merged before being subtracted.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.seconds - covered)
    return result


# -- host ----------------------------------------------------------------


def _command_line(command: Sequence[str], cwd: Optional[Path] = None) -> Optional[str]:
    try:
        result = subprocess.run(
            list(command), capture_output=True, text=True, timeout=20, cwd=cwd
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if result.returncode != 0:
        return None
    return result.stdout.strip()


def host_fingerprint(root: Path, jit_cache: Path) -> Dict[str, object]:
    """CPU count, affinity, compiler, NumPy/Python, git state, jit cache."""
    from importlib import metadata

    try:
        numpy_version: Optional[str] = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    cc = _command_line(["cc", "--version"])
    # Only the checkout's own repository counts, never an enclosing one.
    is_repo = (root / ".git").exists()
    sha = _command_line(["git", "rev-parse", "HEAD"], cwd=root) if is_repo else None
    status = _command_line(["git", "status", "--porcelain"], cwd=root) if sha else None
    kernels = sorted(jit_cache.glob("*.so")) if jit_cache.is_dir() else []
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cc_version": cc.splitlines()[0] if cc else None,
        "numpy": numpy_version,
        "python": platform.python_version(),
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "jit_cache": {"dir": str(jit_cache.relative_to(root)), "kernels": len(kernels)},
    }
