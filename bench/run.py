"""The lambdatower benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is drivers-exact, tower-walk, query-session, or all. A run does
ceil(S / round time) whole rounds of the workload (see workloads.py), one op
at a time: a closed loop with one client. Every op is a `lambdatower.cli.main`
call in a child process, and its output is checked against bench/golden.json.
With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 every op but the known defects also runs in a traced child, and
the line holds the per-layer metrics. A readable summary goes to stderr.
See bench/README.md.
"""

import argparse
import gzip
import json
import queue
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"
READY_LIMIT_S = 60.0
SETUP_PROBES = 7  # extra cold starts in query-session, which has one process


class BenchError(RuntimeError):
    """The benchmark itself cannot go on; no result is printed."""


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Child:
    """A child.py process; records how long it took to import lambdatower."""

    def __init__(self, trace: bool, errlog):
        self.spawned_at = clock()
        cmd = [sys.executable, str(BENCH / "child.py"), str(SRC)]
        self.proc = subprocess.Popen(
            cmd + (["--trace"] if trace else []), cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=errlog,
            text=True, encoding="utf-8")
        self.lines = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        ready = self._reply(READY_LIMIT_S)
        if not isinstance(ready, dict):
            self.kill()
            raise BenchError("a child process did not start; see "
                             f"{errlog.name}")
        self.setup_s = ready["imported_at"] - self.spawned_at

    def _read(self):
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def _reply(self, limit):
        """The next reply, "timeout" after `limit` seconds, or None at exit."""
        try:
            line = self.lines.get(timeout=limit)
        except queue.Empty:
            return "timeout"
        return None if line is None else json.loads(line)

    def run(self, argv, limit) -> dict:
        sent_at = clock()
        try:
            self.proc.stdin.write(json.dumps({"argv": argv}) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass
        reply = self._reply(limit)
        if isinstance(reply, dict):
            return reply
        waited = clock() - sent_at
        self.kill()
        status = "timeout" if reply == "timeout" else "crash"
        return {"status": status, "waited_s": waited}

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=READY_LIMIT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.reader.join()

    def kill(self):
        self.proc.kill()
        self.proc.wait()
        self.reader.join()


def judge(golden: str, reply: dict) -> str:
    """'ok', or why the op failed. Golden values are 'cert:<content_hash>',
    'stdout:<sha256 prefix>', or 'defect:<what happened at recording>' for
    inputs with no reference output, which pass only as a PASS certificate
    whose hash checks."""
    if "status" in reply:
        return reply["status"]
    if reply["exit"] != 0:
        return f"exit {reply['exit']}"
    kind, _, value = golden.partition(":")
    if kind == "cert":
        good = reply["content_hash"] == value and reply["hash_ok"]
    elif kind == "stdout":
        good = reply["stdout_sha256"].startswith(value)
    else:
        good = reply["verdict"] == "PASS" and bool(reply["hash_ok"])
    return "ok" if good else "mismatch"


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.session = workload == "query-session"
        self.goldens = json.loads(GOLDEN.read_text())["goldens"]
        OUT.mkdir(exist_ok=True)
        self.errlog = open(OUT / "child-stderr.log", "a", encoding="utf-8")
        self.ops = []        # untraced op records
        self.pairs = []      # (untraced, traced) records of the same op
        self.setup = []      # setup_s of every counted cold start
        self.live = {}       # trace flag -> the session's current child
        self.rounds = 0

    def _child(self, trace: bool) -> Child:
        child = Child(trace, self.errlog)
        if not trace:
            self.setup.append(child.setup_s)
        return child

    def _op(self, argv, trace: bool) -> dict:
        """Run one op; twins of a traced run share its op id."""
        if self.session:
            child = self.live.get(trace) or self._child(trace)
            self.live[trace] = child
        else:
            child = self._child(trace)
        limit = workloads.limit(self.workload, argv)
        reply = child.run(argv, limit)
        if "status" in reply:
            self.live.pop(trace, None)
        elif not self.session:
            child.close()
        golden = self.goldens.get(workloads.key(argv))
        if golden is None:
            raise BenchError(f"no golden for {workloads.key(argv)}")
        reply["op"] = len(self.ops)
        reply["argv"] = argv
        reply["result"] = judge(golden, reply)
        reply["known_defect"] = golden.startswith("defect:")
        # a timed-out op took at least its limit: the time until it was stopped
        reply["latency_s"] = reply.get("main_s", reply.get("waited_s"))
        return reply

    def execute(self):
        Child(False, self.errlog).close()  # warm-up: bytecode and file caches
        if self.session:
            for _ in range(SETUP_PROBES):
                self._child(False).close()
        rounds = workloads.Rounds(self.workload, self.seed)
        try:
            for _ in range(workloads.round_count(self.workload, self.seconds)):
                for i, argv in enumerate(rounds.next_round()):
                    if not self.trace or tuple(argv) in workloads.KNOWN_DEFECTS:
                        # a failing op leaves no spans to trace
                        self.ops.append(self._op(argv, False))
                        continue
                    # traced and untraced twins, alternating which goes first
                    order = (False, True) if i % 2 == 0 else (True, False)
                    pair = {t: self._op(argv, t) for t in order}
                    self.ops.append(pair[False])
                    self.pairs.append((pair[False], pair[True]))
                self.rounds += 1
        finally:
            for child in self.live.values():
                child.close()
            self.live.clear()
            self.errlog.close()

    @property
    def traced(self) -> list:
        return [traced for _, traced in self.pairs]

    # -- metrics -----------------------------------------------------------

    def end_to_end(self) -> dict:
        ok = [op for op in self.ops if op["result"] == "ok"]
        latency = [op["latency_s"] for op in self.ops]
        rss_kb = max(op.get("maxrss_kb", 0) for op in self.ops)
        return {
            "setup_s": statistics.median(self.setup),
            "ops_per_s": len(ok) / sum(latency),
            "op_geomean_s": statistics.geometric_mean(latency),
            "peak_rss_mb": rss_kb / 1024.0,
            "ok_frac": len(ok) / len(self.ops),
        }

    def per_layer(self) -> dict:
        summary = tracing.Summary()
        for op in self.traced:
            if "spans" in op:
                summary.add(op["spans"])
        n = self.rounds
        out = {}
        for name, calls in summary.calls.items():
            out[f"{name}.calls"] = calls / n
            out[f"{name}.self_s"] = summary.self_s[name] / n
            out[f"{name}.total_s"] = summary.total_s[name] / n
        counters = summary.counters
        for name in ("cyclo.inverse.degree_max", "covers.top_vertices_max"):
            out[name] = counters.get(name, 0)
        omega = summary.calls.get("seifert.omega_signature", 0)
        out["seifert.omega_signature.reuse_ratio"] = (
            1 - summary.omega_diagonalizations / omega if omega else 0.0)
        lifts = counters.get("infection.lifts", 0)
        out["infection.nonzero_lift_ratio"] = (
            counters.get("infection.nonzero_lifts", 0) / lifts if lifts
            else 0.0)
        out["cli.stdout_bytes"] = sum(op.get("stdout_bytes", 0)
                                      for op in self.traced) / n
        op_time = summary.total_s.get("cli.main", 0.0)
        for layer, value in summary.layer_self_s().items():
            out[f"layer.{layer}.self_frac"] = value / op_time if op_time else 0.0
        both = [(u["main_s"], t["main_s"]) for u, t in self.pairs
                if u["result"] == "ok" and t["result"] == "ok"]
        untraced = sum(u for u, _ in both)
        out["trace.overhead_frac"] = (sum(t for _, t in both) / untraced - 1
                                      if untraced else 0.0)
        out["workload.repeat_frac"] = self.repeat_frac()
        return out

    def repeat_frac(self) -> float:
        seen = set()
        repeats = 0
        for op in self.ops:
            k = workloads.key(op["argv"])
            repeats += k in seen
            seen.add(k)
        return repeats / len(self.ops)

    def write_ops(self) -> Path:
        path = OUT / f"ops-{self.workload}-seed{self.seed}.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for op in self.ops + self.traced:
                record = {k: v for k, v in op.items() if k != "spans"}
                handle.write(json.dumps(record) + "\n")
        return path

    def write_spans(self) -> Path:
        path = OUT / f"spans-{self.workload}-seed{self.seed}.jsonl.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for op in self.traced:
                if "spans" in op:
                    handle.write(json.dumps({"op": op["op"], "argv": op["argv"],
                                             **op["spans"]}) + "\n")
        return path

    def result(self, spec: dict) -> dict:
        """The result line; `spec` is BENCHMARK.json, which names the metrics
        and gives their units."""
        if self.trace:
            values, wanted = self.per_layer(), spec["per_layer"]
        else:
            values, wanted = self.end_to_end(), spec["end_to_end"]
        metrics = {}
        for metric in wanted:
            name = metric["name"]
            if name not in values and name.rsplit(".", 1)[-1] not in (
                    "calls", "self_s", "total_s"):
                raise BenchError(f"metric {name} is not computed")
            metrics[name] = {"value": values.get(name, 0.0),
                             "unit": metric["unit"]}
        everything = self.ops + self.traced
        failed = [op for op in everything
                  if op["result"] != "ok" and not op["known_defect"]]
        return {"correct": not failed, "attempted": len(everything),
                "failed": len(failed), "metrics": metrics}

    def report(self, result: dict) -> None:
        log = sys.stderr
        print(f"== {self.workload} seed {self.seed}: {self.rounds} round(s), "
              f"{len(self.ops)} ops, repeat share "
              f"{self.repeat_frac():.3f}", file=log)
        for op in self.ops + self.traced:
            if op["result"] != "ok":
                tag = "known defect" if op["known_defect"] else "FAILED"
                print(f"   {tag}: {op['result']}: {' '.join(op['argv'])}"
                      f" {op.get('error', '').strip()[-200:]}", file=log)
        for name, metric in result["metrics"].items():
            print(f"   {name:42s} {metric['value']:14.6f} {metric['unit']}",
                  file=log)


def run_one(workload, seed, seconds, trace, spec) -> dict:
    run = Run(workload, seed, seconds, trace)
    run.execute()
    result = run.result(spec)
    run.report(result)
    print(f"   op records written to {run.write_ops()}", file=sys.stderr)
    if trace:
        print(f"   spans written to {run.write_spans()}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lambdatower" / "cli.py").is_file():
        print(f"error: no lambdatower source under {SRC}", file=sys.stderr)
        return 2
    if not GOLDEN.is_file():
        print(f"error: no golden records at {GOLDEN}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_one(name, args.seed, args.seconds,
                                 bool(args.trace), spec) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    line = results if args.workload == "all" else results[args.workload]
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
