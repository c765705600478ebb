"""The repo benchmark: one command, several workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload paper_400 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each workload runs in fresh processes (see ``worker.py``).  A
checkout's first run saves the developed flow the solver workloads
start from (a few minutes, once).  Then a priming process warms the jit
disk cache, six probe processes (three before and
three after the measured one) and the measured process each time
process start to "ready" (``setup_s`` is their median), and the
measured process runs the workload for ``--seconds`` and checks its
outputs outside the timed window.

``--trace 0`` reports the ``end_to_end`` metrics of ``BENCHMARK.json``;
``--trace 1`` is a separate run that wraps the program's public calls
in spans and reports the ``per_layer`` metrics, reading 0 for layers the
workload does not measure (``contract.json`` says which workload
measures which layer).  ``fig4_model`` runs by name (and in ``all``) but
is not one of ``BENCHMARK.json``'s workloads; traced, it reports its own
layers.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A human table goes
before it, and a full record with the host fingerprint goes to
``.bench_build/perfbench/results/``.

The program runs as users get it: default backend resolution and no
``REPRO_*`` overrides, except that the jit disk cache and temporary
files live under ``.bench_build/`` so the benchmark writes only inside
its checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
JIT_CACHE = BUILD / "jit-cache"

sys.path.insert(0, str(HERE))
from harness import developed_path, host_fingerprint, median  # noqa: E402

WORKLOADS = ("paper_400", "fig3_weno3", "service_mix")
#: Workloads that run by name but that BENCHMARK.json does not gate:
#: fig4_model is all pure-Python interpretation, whose speed drifts by a
#: quarter or more over tens of seconds on a shared host, so one
#: regeneration per run cannot stay inside any bound the contract allows.
UNGATED = ("fig4_model",)
#: Workloads that run jit kernels, so need the disk cache warm.
PRIMED = {"paper_400", "service_mix"}
#: Workloads whose trials start from a developed flow saved once per checkout.
DEVELOPED = ("paper_400", "fig3_weno3")
#: The first run in a checkout may take 900 s; saving the flows is most of it.
DEVELOP_BUDGET_S = 600.0
#: Extra set-up probes per run, besides the measured process itself.
SETUP_PROBES = 6
#: A run must end within 180 s; keep a margin for the last teardown.
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


class Worker:
    """A worker.py process with deadline-bounded line reads."""

    def __init__(self, workload: str, role: str, options, extra: List[str] = ()):
        command = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", workload, "--role", role,
            "--seed", str(options.seed), "--seconds", str(options.seconds),
            "--trace", str(options.trace), "--size", options.size, *extra,
        ]
        self.started = perf_counter()
        # A session of its own, so __exit__ can reach the service's shards too.
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=worker_env(), text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, start_new_session=True,
        )
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.process.stdout, selectors.EVENT_READ)

    def expect(self, prefix: str, deadline: float) -> str:
        """Read stdout until a line starting with ``prefix``; return its rest."""
        while True:
            remaining = deadline - perf_counter()
            if remaining <= 0 or not self._selector.select(remaining):
                raise BenchError(f"worker timed out waiting for {prefix}")
            line = self.process.stdout.readline()
            if not line:
                raise BenchError(f"worker exited (code {self.process.wait()}) before {prefix}")
            if line.startswith(prefix):
                return line[len(prefix):].strip()
            sys.stderr.write(line)

    def send(self, text: str) -> None:
        self.process.stdin.write(text)
        self.process.stdin.flush()

    def finish(self, deadline: float) -> None:
        """Close stdin and wait for the process to exit cleanly."""
        self.process.stdin.close()
        try:
            code = self.process.wait(timeout=max(1.0, deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            raise BenchError("worker did not exit in time") from None
        if code != 0:
            raise BenchError(f"worker exited with code {code}")

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc_info) -> None:
        """Kill whatever the worker left running, then reap it."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        self._selector.close()
        for stream in (self.process.stdin, self.process.stdout):
            stream.close()


def worker_env() -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["REPRO_JIT_CACHE"] = str(JIT_CACHE)
    env["TMPDIR"] = str(BUILD / "tmp")
    return env


def develop(options) -> None:
    """Save every developed flow this checkout lacks, before any timing."""
    deadline = perf_counter() + DEVELOP_BUDGET_S
    for workload in DEVELOPED:
        if not developed_path(workload, options.size).exists():
            with Worker(workload, "develop", options) as worker:
                worker.finish(deadline)


def measure(workload: str, options, contract: Dict[str, object]) -> Dict[str, object]:
    """Run one workload; return its result record."""
    deadline = perf_counter() + RUN_BUDGET_S
    fingerprint = host_fingerprint(ROOT, JIT_CACHE)
    if workload in PRIMED:
        with Worker(workload, "prime", options) as primer:
            primer.finish(deadline)
    setup_samples = []

    def probe() -> None:
        with Worker(workload, "probe", options) as worker:
            worker.expect("READY", deadline)
            setup_samples.append(perf_counter() - worker.started)
            worker.finish(deadline)

    # Probes go on both sides of the measured process, so the median
    # samples the host over the whole run, not one quiet or busy moment.
    probes = 0 if options.trace else SETUP_PROBES
    for _ in range(probes // 2):
        probe()
    spans = BUILD / "spans" / f"{workload}-seed{options.seed}.jsonl"
    extra = ["--spans", str(spans)] if options.trace else []
    with Worker(workload, "main", options, extra) as worker:
        worker.expect("READY", deadline)
        setup_samples.append(perf_counter() - worker.started)
        worker.send("GO\n")
        result = json.loads(worker.expect("RESULT", deadline))
        worker.finish(deadline)
    for _ in range(probes - probes // 2):
        probe()

    if options.trace and workload in UNGATED:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in result["layers"].items()}
    elif options.trace:
        metrics = pick(contract["per_layer"], result["layers"], default=0.0)
    else:
        measured = {
            "setup_s": (median(setup_samples), "s"),
            "ops_per_s": (result["ops_per_s"], "1/s"),
            "op_ms_p50": (median(result["op_seconds"]) * 1e3, "ms"),
            "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
        }
        metrics = pick(contract["end_to_end"], measured)
    named = dict(result["named"])
    named["failed_frac"] = (result["failed"] / result["attempted"], "ratio")
    if not options.trace:
        named["setup_s"] = measured["setup_s"]
        named["peak_rss_mb"] = measured["peak_rss_mb"]
    return {
        "workload": workload,
        "host": fingerprint,
        "protocol": {
            "seed": options.seed, "seconds": options.seconds, "trace": options.trace,
            "size": options.size, "setup_samples": setup_samples,
            "env": {name: str(Path(value).relative_to(ROOT))
                    for name, value in worker_env().items() if name in ("REPRO_JIT_CACHE", "TMPDIR")},
        },
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "named": {name: {"value": v, "unit": u} for name, (v, u) in named.items()},
        "premise": result.get("premise"),
        "detail": result["record"],
    }


def pick(declared, measured, default: Optional[float] = None) -> Dict[str, Dict[str, object]]:
    """The declared metrics, in order, with their declared units."""
    metrics = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        value, got_unit = measured.get(name, (default, unit))
        if value is None:
            raise BenchError(f"workload did not measure {name}")
        if got_unit != unit:
            raise BenchError(f"{name} measured in {got_unit}, declared in {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def table(record: Dict[str, object]) -> str:
    lines = [f"== {record['workload']} (seed {record['protocol']['seed']},"
             f" {record['protocol']['seconds']:g} s, trace {record['protocol']['trace']})"]
    for name, metric in record["named"].items():
        lines.append(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    for name, metric in record["metrics"].items():
        lines.append(f"  [{name}]".ljust(30) + f" {metric['value']:>14.6g} {metric['unit']}")
    if record["premise"]:
        verdict = "holds" if record["premise"]["holds"] else "DOES NOT HOLD"
        lines.append(f"  premise {verdict}: {record['premise']['detail']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + UNGATED + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy shrinks every problem, for the benchmark's own tests")
    options = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = WORKLOADS + UNGATED if options.workload == "all" else (options.workload,)
    records = []
    try:
        (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
        develop(options)
        for workload in names:
            record = measure(workload, options, contract)
            path = BUILD / "results" / f"{workload}-seed{options.seed}-trace{options.trace}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(record, indent=1))
            print(table(record))
            print(f"  record: {path.relative_to(ROOT)}")
            records.append(record)
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {
            f"{record['workload']}.{name}": metric
            for record in records for name, metric in record["metrics"].items()
        }
    print(json.dumps({
        "correct": all(record["correct"] for record in records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
