"""One benchmark process: imports `lambdatower`, then runs the ops it is sent.

Usage: python3 child.py SRC_DIR [--trace]

Protocol, one JSON object per line. After `lambdatower.cli` is imported the
child writes {"imported_at": t, "import_s": s}, where t is read from
CLOCK_MONOTONIC, which the parent shares. It then reads ops {"argv": [...]}
from stdin and answers each with the op's record; it exits at end of input.
The op's own stdout is hashed, not passed on, and its stderr is kept only
as an error excerpt.
"""

import time

_STARTED_AT = time.clock_gettime(time.CLOCK_MONOTONIC)

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

_KEEP_BYTES = 1 << 22  # certificates are far smaller; lambda tables are not


class _HashSink(io.RawIOBase):
    """Write-only byte sink: hashes and counts everything, keeps a prefix."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.size = 0
        self.kept = bytearray()

    def writable(self):
        return True

    def write(self, data):
        self.sha.update(data)
        self.size += len(data)
        if self.size <= _KEEP_BYTES:
            self.kept += data
        return len(data)


def _certificate(data: bytes):
    """(content_hash, verdict, hash_ok) of a certificate on stdout, else Nones.

    hash_ok recomputes the hash over the canonical JSON of every field but the
    timestamp and the hash itself, as the certificate format defines it.
    """
    try:
        cert = json.loads(data)
    except ValueError:
        return None, None, None
    if not isinstance(cert, dict) or "content_hash" not in cert:
        return None, None, None
    body = {k: v for k, v in cert.items()
            if k not in ("content_hash", "timestamp")}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"),
                           ensure_ascii=False).encode("utf-8")
    hash_ok = hashlib.sha256(canonical).hexdigest() == cert["content_hash"]
    return cert["content_hash"], cert.get("verdict"), hash_ok


def run_op(cli, argv, recorder) -> dict:
    sink = _HashSink()
    out = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8",
                           newline="\n")
    err = io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    start = time.perf_counter()
    try:
        code = cli.main(argv)
        out.flush()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the CLI would exit 1 with this traceback
        code = 1
        err.write(traceback.format_exc())
    finally:
        main_s = time.perf_counter() - start
        sys.stdout, sys.stderr = saved
    content_hash, verdict, hash_ok = (
        _certificate(bytes(sink.kept)) if sink.size <= _KEEP_BYTES
        else (None, None, None))
    record = {"exit": code, "main_s": main_s,
              "stdout_sha256": sink.sha.hexdigest(),
              "stdout_bytes": sink.size, "content_hash": content_hash,
              "verdict": verdict, "hash_ok": hash_ok,
              "error": err.getvalue()[-400:],
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if recorder is not None:
        record["spans"] = recorder.take()
    return record


def main() -> int:
    src = os.path.abspath(sys.argv[1])
    trace = "--trace" in sys.argv[2:]
    sys.path.insert(0, src)
    import lambdatower.cli as cli

    imported_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"lambdatower was imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    recorder = None
    if trace:
        import tracing

        recorder = tracing.install()
    proto = sys.stdout
    proto.write(json.dumps({"imported_at": imported_at,
                            "import_s": imported_at - _STARTED_AT}) + "\n")
    proto.flush()
    for line in sys.stdin:
        op = json.loads(line)
        proto.write(json.dumps(run_op(cli, op["argv"], recorder)) + "\n")
        proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
