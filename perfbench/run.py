"""quivlat benchmark: three workloads, end-to-end metrics, and a traced run.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a quivlat checkout (the directory holding
src/quivlat).  Workloads: homext-sweep, lattice-orbit, structure-cli (see
perfbench/README.md).  A run is a closed loop with one client: passes of a
fixed op list, each pass in a fresh interpreter so quivlat's caches start
empty.  A run makes a fixed number of passes, sized so that their ops take
about --seconds on the reference machine, so every run and every commit
measures the same work.  Times in the metrics are scaled to a reference
machine speed (see worker.py); the raw medians are printed beside them.

It prints one "name: value unit" line per metric and, as the last line, one
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones.  With --trace 1 half as many
passes run untraced and then again traced; the metrics are the per-layer
ones from the traced passes, with the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402

WORKLOADS = ("homext-sweep", "lattice-orbit", "structure-cli")
HOMEXT_RING_TAGS = tuple((ring, tracing.ring_tag(ring))
                         for ring in ("F:2", "Zmod:4", "Z", "Feps:2:2", "Q"))
CLI_VERBS = ("decompose", "lift", "basechange", "construct", "ext")
# Mean pass length, in scaled op seconds, on the reference machine.  It fixes
# how many passes a run makes.
NOMINAL_PASS_S = {"homext-sweep": 1.2, "lattice-orbit": 5.0, "structure-cli": 2.0}
# No pass starts after LAUNCH_LIMIT_S; a pass still running at HARD_LIMIT_S
# is killed and the run fails, so every run ends well within 180 s.
LAUNCH_LIMIT_S = 110.0
HARD_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _run_pass(args, k, traced, outdir, started):
    tag = "pass%02d%s" % (k, "-traced" if traced else "")
    out = os.path.join(outdir, tag + ".json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--pass", str(k),
           "--out", out, "--workdir", os.path.join(outdir, tag + "-files")]
    spans = os.path.join(outdir, tag + "-spans") if traced else None
    if spans:
        cmd += ["--spans", spans]
    if args.tiny:
        cmd.append("--tiny")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], env=env, stdout=sys.stderr,
                            start_new_session=True)
    try:
        rc = proc.wait(timeout=max(1.0, started + HARD_LIMIT_S - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError("%s overran the run's time limit" % tag)
    if rc != 0:
        raise BenchError("%s: worker exited with status %d" % (tag, rc))
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    result["spans"] = spans
    return result


def _ok(op) -> bool:
    return op["status"] == "ok"


def _pass_rate(p, key="ms") -> float:
    """Verified ops per second of op time within one pass."""
    secs = sum(op[key] for op in p["ops"]) / 1000.0
    return sum(1 for op in p["ops"] if _ok(op)) / secs if secs else 0.0


def tail_percentile(values):
    """Highest whole percentile with at least ten samples beyond it.

    Returns (percentile, value, samples beyond); below 11 samples there is
    no such percentile and the median is returned with percentile 50.
    """
    v = sorted(values)
    n = len(v)
    for p in range(99, 0, -1):
        idx = max(0, math.ceil(p * n / 100) - 1)
        if n - 1 - idx >= 10:
            return p, v[idx], n - 1 - idx
    return 50, statistics.median(v), n // 2


def _ring_rates(passes):
    """homext_pairs_per_s.<ring>: a ring's verified ops over its op time."""
    out = {}
    ops = [op for p in passes for op in p["ops"]]
    for ring, tag in HOMEXT_RING_TAGS:
        mine = [op for op in ops if op["label"].split("/")[0] == ring]
        secs = sum(op["ms"] for op in mine) / 1000.0
        good = sum(1 for op in mine if _ok(op))
        out["homext_pairs_per_s." + tag] = (good / secs if secs else 0.0, "1/s")
    return out


def end_to_end(args, passes):
    ops = [op for p in passes for op in p["ops"]]
    ms = [op["ms"] for op in ops]
    pct, tail, beyond = tail_percentile(ms)
    failed = sum(1 for op in ops if not _ok(op))
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "ops_per_s": (statistics.median(_pass_rate(p) for p in passes), "1/s"),
        "op_ms.p50": (statistics.median(ms), "ms"),
        "op_ms.tail": (tail, "ms"),
        "peak_rss_mb": (statistics.median(p["rss_kb"] for p in passes) / 1024.0, "MB"),
    }
    extra = {"setup_s.raw": (statistics.median(p["raw_setup_s"] for p in passes), "s"),
             "ops_per_s.raw": (statistics.median(_pass_rate(p, "raw_ms") for p in passes), "1/s"),
             "op_ms.p50.raw": (statistics.median(op["raw_ms"] for op in ops), "ms"),
             "failed_ratio": (failed / len(ops), "ratio"),
             "op_ms.tail.percentile": (pct, "pct"),
             "op_ms.tail.samples_beyond": (beyond, "count"),
             "op_ms.samples": (len(ops), "count"),
             "peak_rss_mb.max": (max(p["rss_kb"] for p in passes) / 1024.0, "MB"),
             "passes": (len(passes), "count")}
    if args.workload == "homext-sweep":
        extra.update(_ring_rates(passes))
    return metrics, extra


def per_layer(args, plain, traced):
    totals = tracing.SpanTotals()
    spawn, imports, main_self = [], [], []
    for p in traced:
        if args.workload != "structure-cli":
            totals.add_file(p["spans"])
            continue
        for op in p["ops"]:
            if op["spans"] is None or not os.path.exists(op["spans"]):
                continue
            ms, self_ms = totals.add_file(op["spans"])
            spawn.append(op["raw_ms"] - ms.get("cli.driver", 0.0))
            imports.append(ms.get("cli.import", 0.0))
            main_self.append(self_ms.get("cli.main", 0.0))
    metrics = tracing.layer_metrics(totals)

    def med(xs):
        return statistics.median(xs) if xs else 0.0

    metrics["cli.spawn_ms"] = (med(spawn), "ms")
    metrics["cli.import_ms"] = (med(imports), "ms")
    metrics["cli.main.self_ms"] = (med(main_self), "ms")
    plain_ops = [op for p in plain for op in p["ops"]]
    for verb in CLI_VERBS:
        metrics["cli.verb_ms.p50." + verb] = (
            med([op["ms"] for op in plain_ops if op["label"] == verb]), "ms")
    if args.workload == "homext-sweep":
        metrics.update(_ring_rates(plain))
    else:
        metrics.update({"homext_pairs_per_s." + tag: (0.0, "1/s")
                        for _, tag in HOMEXT_RING_TAGS})
    untraced = statistics.median(_pass_rate(p) for p in plain)
    traced_rate = statistics.median(_pass_rate(p) for p in traced)
    metrics["trace.ops_per_s.untraced"] = (untraced, "1/s")
    metrics["trace.ops_per_s.traced"] = (traced_rate, "1/s")
    metrics["trace.overhead_ratio"] = (traced_rate / untraced if untraced else 0.0, "ratio")
    return metrics


def _emit(correct, ops, metrics, extra):
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        print("%s: %s %s" % (name, value, unit))
    failures = [op for op in ops if not _ok(op)]
    for op in failures[:5]:
        print("failed op: %s %s after %.1f ms wall %s" % (
            op["label"], op["status"], op["raw_ms"], op.get("detail") or ""))
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def run(args) -> int:
    if not os.path.isfile(os.path.join("src", "quivlat", "__init__.py")):
        raise BenchError("run from the root of a quivlat checkout (src/quivlat not found)")
    started = time.monotonic()
    outdir = os.path.join(HERE, ".out", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(outdir)
    try:
        count = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
        if not args.trace:
            passes = []
            while len(passes) < count and (
                    not passes or time.monotonic() - started < LAUNCH_LIMIT_S):
                passes.append(_run_pass(args, len(passes), False, outdir, started))
            metrics, extra = end_to_end(args, passes)
            ops = [op for p in passes for op in p["ops"]]
            _emit(not any(op["status"] == "wrong" for op in ops), ops, metrics, extra)
            return 0
        count = max(1, round(count / 2))
        plain = [_run_pass(args, k, False, outdir, started) for k in range(count)]
        traced = [_run_pass(args, k, True, outdir, started) for k in range(count)]
        metrics = per_layer(args, plain, traced)
        ops = [op for p in plain + traced for op in p["ops"]]
        same = all(a["answer"] == b["answer"]
                   for p, q in zip(plain, traced) for a, b in zip(p["ops"], q["ops"])
                   if _ok(a) and _ok(b))
        extra = {"trace.answers_identical": (int(same), "bool"),
                 "trace.passes": (count, "count")}
        _emit(same and not any(op["status"] == "wrong" for op in ops), ops, metrics, extra)
        return 0
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the self-test only")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
