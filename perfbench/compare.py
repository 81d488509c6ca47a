"""Compare two sets of benchmark results.

Usage:

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the ``<workload>-seed<n>-trace<t>.json`` files that
``run.py`` writes under ``.bench_out/``.  Results are paired by file name,
so by workload, seed and trace mode.  A pair whose fingerprints differ
(Python, numpy, BLAS, CPU, nproc, thread pinning or seed) is flagged as
not comparable and left out of the medians.  For every workload and metric
the script prints the median over the comparable seeds of each side and
their ratio.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(directory: Path) -> dict:
    return {p.name: json.loads(p.read_text()) for p in sorted(directory.glob("*-trace*.json"))}


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (load(Path(a)) for a in argv)
    values = defaultdict(lambda: ([], []))  # (workload, trace, metric) -> (base, new)
    units = {}
    flagged = 0
    for name in sorted(base.keys() & new.keys()):
        a, b = base[name], new[name]
        if a["fingerprint"] != b["fingerprint"]:
            diff = sorted(k for k in a["fingerprint"].keys() | b["fingerprint"].keys()
                          if a["fingerprint"].get(k) != b["fingerprint"].get(k))
            print(f"NOT COMPARABLE {name}: fingerprint differs in {', '.join(diff)}")
            flagged += 1
            continue
        for metric, m in a["metrics"].items():
            if metric in b["metrics"]:
                key = (a["workload"], a["trace"], metric)
                values[key][0].append(m["value"])
                values[key][1].append(b["metrics"][metric]["value"])
                units[key] = m["unit"]
    for name in sorted(base.keys() ^ new.keys()):
        print(f"unpaired {name}")
    print(f"{'workload':<20} {'metric':<40} {'n':>3} {'base':>14} {'new':>14} {'new/base':>9}")
    for key in sorted(values):
        old, cur = values[key]
        mo, mc = statistics.median(old), statistics.median(cur)
        ratio = f"{mc / mo:9.3f}" if mo else "      n/a"
        print(f"{key[0]:<20} {key[2]:<40} {len(old):>3} {mo:>14.6g} {mc:>14.6g} {ratio}"
              f"  {units[key]}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
