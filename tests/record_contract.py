"""Record tests/contract.json: every argv of ARGVS with the exit code of
lambdatower.cli.main, the sha256 of its stdout and, for exits 2 and 3, its
stderr text.  tests/test_contract.py replays the file in process.  Record
again only when an output changes on purpose, and say which argvs changed:

    PYTHONPATH=src python tests/record_contract.py
"""
import contextlib
import hashlib
import io
import json
import pathlib

CONTRACT = pathlib.Path(__file__).with_name("contract.json")

# Every level of these towers, with each word of _LIFT_WORDS.
_LIFT_TOWERS = ((2, 1, 4), (2, 2, 3), (3, 2, 4), (2, 3, 4))
_LIFT_WORDS = ("x0", "comm(x0,x1)", "x0^5", "(x0*x1)^-3", "alpha({k})",
               "beta({k})")

# A word of 2,288 compositions (lift_profile's count: 81 pairs of powers
# at 28 and 20 single letters); with one more letter it takes 2,289.  Over
# the 65,536 vertices of level 4 at q = 4 the first is just under
# LIFT_WORK_CAP (1.5e8 vertex steps) and the second just over it.
UNDER_CAP = " ".join(["x0^127 x1^127"] * 81 + ["x0 x1"] * 10)
OVER_CAP = UNDER_CAP + " x0"


def _tower_lift(m, n, q, word, *extra):
    return ["tower", "lift", "--m", str(m), "--n", str(n), "--q", str(q),
            "--word", word, *extra]


def _argvs():
    argvs = []
    for m, n, q in _LIFT_TOWERS:
        for k in range(n + 1):
            argvs += [_tower_lift(m, n, q, word.format(k=k), "--level", str(k))
                      for word in _LIFT_WORDS]
    argvs += [
        # the top level by default, and a level of 531,441 vertices whose
        # level below has long cycles
        _tower_lift(2, 1, 4, "alpha(1)"),
        _tower_lift(2, 2, 27, "x0^5", "--level", "2"),
        # the work cap, counted over the level asked about
        _tower_lift(2, 4, 4, UNDER_CAP, "--level", "4", "--format", "csv"),
        _tower_lift(2, 5, 4, OVER_CAP, "--level", "4"),
        ["lambda", "--tower", "n=4,q=4", "--theta", "f-mod-4", "--word",
         OVER_CAP, "--knot", "trefoil"],
        # exit 2, naming the flag
        _tower_lift(2, 2, 4, "x0", "--level", "3"),
        _tower_lift(2, 2, 4, "comm(x0,x2)", "--level", "1"),
    ]
    return argvs


ARGVS = _argvs()


def run(argv) -> dict:
    """The record of one argv, run in process."""
    from lambdatower import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    record = {"argv": argv, "exit": code,
              "stdout_sha256": hashlib.sha256(
                  out.getvalue().encode("utf-8")).hexdigest()}
    if code in (2, 3):
        record["stderr"] = err.getvalue()
    return record


def main():
    records = [run(argv) for argv in ARGVS]
    CONTRACT.write_text(json.dumps({"records": records}, indent=1) + "\n",
                        encoding="utf-8")
    print(f"recorded {len(records)} argvs in {CONTRACT}")


if __name__ == "__main__":
    main()
