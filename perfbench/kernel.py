"""Fixed calibration kernel: a small batch job shaped like one jjtune call.

    python3 perfbench/kernel.py WORK_FILE OUTPUT

It starts an interpreter and imports numpy, then draws and sorts random
numbers, runs an interpreted float loop and writes pretty-printed JSON and
CSV text to OUTPUT, as a ``jjtune`` command does. It writes the seconds
spent after the imports to WORK_FILE. It never imports jjtune and must not
change: the benchmark times it between passes to measure the host's speed
(see hostspeed.py).
"""

import json
import sys
import time

import numpy as np


def main(path: str) -> None:
    rng = np.random.default_rng(20220607)
    values = np.sort(rng.lognormal(0.0, 0.01, 60000))
    total = 0.0
    for i in range(200000):
        total += (i % 7) * 0.5 - total * 1e-6
    rows = [{"id": f"J{i:05d}", "r": float(v), "d": round(float(v) * 1e3, 3)}
            for i, v in enumerate(values[:15000])]
    text = json.dumps({"total": total, "rows": rows}, indent=2)
    csv = "\n".join(",".join(f"{v:.6g}" for v in values[i:i + 60]) for i in range(0, 30000, 60))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.write(csv)


if __name__ == "__main__":
    start = time.perf_counter()
    main(sys.argv[2])
    with open(sys.argv[1], "w", encoding="utf-8") as timing:
        timing.write(repr(time.perf_counter() - start))
