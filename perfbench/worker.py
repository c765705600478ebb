"""One workload in one fresh process, driven over stdin/stdout by run.py.

Roles:

* ``prime``: build and step every jit specialization the workload uses
  on a tiny grid, so the disk cache is warm before anything is timed
  (users pay a cold compile once per config per machine);
* ``develop``: save a solver workload's developed flow, the state its
  trials start from, unless the checkout has it already;
* ``probe``: set up, print ``READY``, then shut down on stdin EOF; the
  parent times process start to ``READY`` (the ``setup_s`` samples);
* ``main``: set up, print ``READY``, wait for ``GO``, run for the given
  seconds, check the outputs, print ``RESULT <json>``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def prime() -> None:
    from repro.euler import problems
    from repro.euler.solver import paper_benchmark_config

    config = paper_benchmark_config()
    problems.two_channel(n_cells=8, h=4.0, config=config)[0].step()
    problems.riemann_problem_solver(
        problems.RIEMANN_PROBLEMS["sod"], n_cells=8, config=config
    )[0].step()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--role", choices=("prime", "develop", "probe", "main"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--spans", default=None, help="where a traced run writes its spans")
    options = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if options.role == "prime":
        prime()
        return 0

    from harness import Tracer
    from workloads import WORKLOADS

    if options.role == "develop":
        WORKLOADS[options.workload](options.size, options.seed).develop()
        return 0
    tracer = Tracer() if options.trace else None
    workload = WORKLOADS[options.workload](options.size, options.seed, tracer)
    try:
        workload.setup()
        print("READY", flush=True)
        if options.role == "probe":
            sys.stdin.read()
            return 0
        if sys.stdin.readline().strip() != "GO":
            return 1
        outcome = workload.run(options.seconds)
        outcome.failed, detail = workload.check()
        result = {
            "op_seconds": outcome.op_seconds,
            "ops_per_s": outcome.ops_per_s,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "peak_rss_mb": outcome.peak_rss_mb,
            "named": outcome.named,
            "layers": outcome.layers,
            "record": {**outcome.record, "check": detail},
        }
        if tracer is not None:
            holds, why = workload.premise(outcome.layers)
            result["premise"] = {"holds": holds, "detail": why}
            if options.spans:
                tracer.dump(Path(options.spans))
    finally:
        workload.close()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
