"""Run the benchmark once per seed and report how much each metric spreads.

    python3 bench/spread.py --workload drivers-exact --seeds 1-10 [--seconds 20]

For every end-to-end metric it prints the median of the runs and the
distance between the first and third quartile as a share of the median
(`statistics.quantiles(values, n=4)`), next to the metric's bound from
BENCHMARK.json. With --save FILE the raw values are kept as JSON, and with
--compare FILE the medians are also compared with a saved set.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--save", type=Path)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} unexpected failures",
                  file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
            file=sys.stderr)
    base = json.loads(args.compare.read_text()) if args.compare else {}
    print(f"{args.workload}, seeds {args.seeds[0]}-{args.seeds[-1]}, "
          f"{seconds} s runs")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        runs = values[name]
        q1, median, q3 = statistics.quantiles(runs, n=4)
        line = (f"  {name:12s} median {median:12.6g} {metric['unit']:6s} "
                f"spread {(q3 - q1) / median:6.3f}  bound {metric['bound']}")
        if name in base:
            line += (f"  vs saved median: "
                     f"{median / statistics.median(base[name]) - 1:+.3f}")
        print(line)
    if args.save:
        args.save.write_text(json.dumps(values, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
