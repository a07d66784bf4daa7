"""Record bench/golden.json: the expected outcome of every argv any seed can
generate, from the lambdatower source next to this directory.

    python3 bench/record_golden.py

Certificates are recorded by their content_hash, which leaves out the
timestamp; every other output by a prefix of the SHA-256 of its stdout. The
known defects in workloads.KNOWN_DEFECTS are recorded as what happened to
them. Any other failure, and any certificate whose verdict is not PASS,
stops the recording.
"""

import json
import sys

import run
import workloads

STDOUT_HASH_CHARS = 16


def record(workload: str, errlog) -> dict:
    fresh = workload != "query-session"  # as the benchmark runs them
    goldens = {}
    child = None
    for argv in workloads.universe(workload):
        if child is None:
            child = run.Child(False, errlog)
        reply = child.run(argv, workloads.limit(workload, argv))
        if "status" in reply:
            child = None
        elif fresh:
            child.close()
            child = None
        defect = workloads.KNOWN_DEFECTS.get(tuple(argv))
        if "status" in reply:
            failure = reply["status"]
        else:
            failure = f"exit {reply['exit']}" if reply["exit"] else None
        if failure is not None:
            if failure != defect:
                raise run.BenchError(f"{workloads.key(argv)}: {failure}, "
                                     f"expected {defect or 'success'}")
            value = f"defect:{failure}"
        elif defect is not None:
            raise run.BenchError(f"{workloads.key(argv)} no longer fails; "
                                 "update workloads.KNOWN_DEFECTS")
        elif reply["content_hash"] is not None:
            if reply["verdict"] != "PASS" or not reply["hash_ok"]:
                raise run.BenchError(f"{workloads.key(argv)}: verdict "
                                     f"{reply['verdict']}")
            value = f"cert:{reply['content_hash']}"
        else:
            value = f"stdout:{reply['stdout_sha256'][:STDOUT_HASH_CHARS]}"
        goldens[workloads.key(argv)] = value
        print(f"{workload}: {value[:24]:24s} {' '.join(argv)}", file=sys.stderr)
    if child is not None:
        child.close()
    return goldens


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    goldens = {}
    with open(run.OUT / "child-stderr.log", "a", encoding="utf-8") as errlog:
        for workload in workloads.WORKLOADS:
            goldens.update(record(workload, errlog))
    text = json.dumps({"goldens": goldens}, indent=0, sort_keys=True)
    run.GOLDEN.write_text(text + "\n", encoding="utf-8")
    print(f"{len(goldens)} goldens written to {run.GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
