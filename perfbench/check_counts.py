"""Traced-run determinism check.

Runs the traced benchmark twice on one seed and once on a second seed for
each workload, and requires every count metric (``*.calls``, ``.cells``,
``.mults``, ``.vectors``, ``.classes``) to be identical across the two runs
of the same seed.  The second seed's counts are printed beside them.

    python3 perfbench/check_counts.py --seed 1 --other-seed 2 [--workload tri-int]

Exits 1 when a count differs between the two same-seed runs.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
COUNT_SUFFIXES = (".calls", ".cells", ".mults", ".vectors", ".classes")


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} trials failed")
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.endswith(COUNT_SUFFIXES)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--other-seed", type=int, default=2)
    ap.add_argument("--workload", action="append",
                    help="workload to check (repeatable; default: all)")
    args = ap.parse_args()
    sys.path.insert(0, str(RUN.parent))
    import workloads
    names = args.workload or list(workloads.BUILDERS)
    ok = True
    for name in names:
        first = traced_counts(name, args.seed)
        second = traced_counts(name, args.seed)
        other = traced_counts(name, args.other_seed)
        differ = [k for k in first if first[k] != second.get(k)]
        ok = ok and not differ
        print(f"{name}: {len(first)} counts, "
              f"{'identical' if not differ else 'DIFFER: ' + ', '.join(differ)} "
              f"across two runs of seed {args.seed}")
        print(f"  {'metric':48s} {'seed ' + str(args.seed):>12s} "
              f"{'seed ' + str(args.other_seed):>12s}")
        for k, v in first.items():
            if v or other.get(k):
                print(f"  {k:48s} {v:>12d} {other.get(k, 0):>12d}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
