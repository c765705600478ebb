"""Record the Fig. 4 reference results the fig4_model check compares with.

    python3 perfbench/record_reference.py

Writes ``reference/fig4_<grid>x<steps>.json`` for the full and the toy
size.  Run it only when the model is meant to change; the check exists
to catch the model changing when it is not.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import SIZES, Fig4Model, scaling_record  # noqa: E402


def main() -> int:
    for size in ("full", "toy"):
        workload = Fig4Model(size, seed=0)
        params = SIZES[size]["fig4_model"]
        path = HERE / "reference" / f"fig4_{params['grid']}x{params['steps']}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(scaling_record(workload.regenerate()), indent=1) + "\n")
        print(f"wrote {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
