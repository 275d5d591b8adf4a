"""One pass of one workload, in a fresh interpreter so quivlat's caches start empty.

Set-up (interpreter start, importing quivlat, generating this pass's inputs,
and for structure-cli writing the JSON files and expected answers) is timed
from the parent's spawn timestamp.  Each op then runs once under the
workload's deadline; its answer is checked outside the op's timing.  Times
are recorded raw and scaled to a reference machine speed (see REFERENCE_S).
The pass writes one JSON result file; a traced pass also writes its spans.

usage: python3 perfbench/worker.py --workload W --seed N --pass K --t0 T
       --out FILE --workdir DIR [--spans FILE] [--tiny]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


# The host's speed drifts by tens of percent from one minute to the next, so
# every op is bracketed by a fixed pure-Python reference loop and its time is
# also reported scaled to the speed at which that loop takes REFERENCE_S.
REFERENCE_S = 0.0006


def reference_s() -> float:
    """Seconds taken by a fixed reference loop at the machine's current speed."""
    start = time.perf_counter()
    acc, seen = 0, {}
    for i in range(4000):
        acc = (acc * 31 + i) % 1000003
        seen[i & 63] = (acc, i)
    return time.perf_counter() - start


def _scale(before: float, after: float) -> float:
    return 2 * REFERENCE_S / (before + after)


class Deadline(BaseException):
    """Raised by SIGALRM; a BaseException so library handlers cannot absorb it."""


def _on_alarm(signum, frame):
    raise Deadline()


def _in_process(wl, deadline_s, tracer):
    signal.signal(signal.SIGALRM, _on_alarm)
    records = []
    for i, op in enumerate(wl.ops):
        if tracer is not None:
            tracer.begin_op(i)
            tracer.active = True
        status, detail, result = "ok", None, None
        before = reference_s()
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
            try:
                result = wl.run(op)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Deadline:
            status = "timeout"
        except Exception as exc:  # any escape is a failed op, reported by type
            status, detail = "error", "%s: %s" % (type(exc).__name__, exc)
        raw_ms = (time.perf_counter() - start) * 1000.0
        if tracer is not None:
            tracer.active = False
        ms = raw_ms * _scale(before, reference_s())
        answer = None
        if status == "ok":
            ok, answer = wl.check(op, result)
            if not ok:
                status = "wrong"
        records.append({"label": op["label"], "ms": ms, "raw_ms": raw_ms,
                        "status": status, "detail": detail, "answer": answer})
    return records


def _cli(wl, deadline_s, spans_prefix):
    records = []
    driver = os.path.join(HERE, "cli_driver.py")
    for i, op in enumerate(wl.ops):
        spans = "%s-op%02d.bin" % (spans_prefix, i) if spans_prefix else "-"
        cmd = [sys.executable, driver, spans] + op["argv"]
        status, detail, answer = "ok", None, None
        before = reference_s()
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=deadline_s)
        except subprocess.TimeoutExpired:
            proc, status = None, "timeout"
        raw_ms = (time.perf_counter() - start) * 1000.0
        ms = raw_ms * _scale(before, reference_s())
        if proc is not None and proc.returncode != 0:
            status = "error"
            detail = "exit %d: %s" % (proc.returncode, (proc.stdout + proc.stderr)[-300:])
        if status == "ok":
            answer = proc.stdout.strip().splitlines()[-1]
            try:
                ok = wl.check(op, json.loads(answer))
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                ok, detail = False, "%s: %s" % (type(exc).__name__, exc)
            if not ok:
                status = "wrong"
        records.append({"label": op["label"], "ms": ms, "raw_ms": raw_ms,
                        "status": status, "detail": detail, "answer": answer,
                        "spans": spans if spans_prefix else None})
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="pass_index", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    import workloads as W  # imports quivlat, whose cost belongs to set-up

    if args.workload == "homext-sweep":
        wl = W.HomExtSweep(args.seed, args.pass_index)
    elif args.workload == "lattice-orbit":
        wl = W.LatticeOrbit(args.seed, args.pass_index,
                            max_n=1 if args.tiny else W.LATTICE_KRONECKER_MAX_N)
    else:
        wl = W.StructureCli(args.seed, args.pass_index, args.workdir,
                            decompose_total=4 if args.tiny else 12)
    deadline_s = W.DEADLINE_S[args.workload]

    tracer = None
    if args.spans and args.workload != "structure-cli":
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.active = False
    setup_s = time.monotonic() - args.t0
    setup_scale = REFERENCE_S / sorted(reference_s() for _ in range(5))[2]

    if args.workload == "structure-cli":
        records = _cli(wl, deadline_s, args.spans)
        who = resource.RUSAGE_CHILDREN
    else:
        records = _in_process(wl, deadline_s, tracer)
        who = resource.RUSAGE_SELF
    if tracer is not None:
        tracer.dump(args.spans)
    result = {"setup_s": setup_s * setup_scale, "raw_setup_s": setup_s,
              "rss_kb": resource.getrusage(who).ru_maxrss, "ops": records}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
