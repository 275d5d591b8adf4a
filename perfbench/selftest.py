"""Self-test of the benchmark: tiny runs of every workload, plus check rejections.

usage: python3 perfbench/selftest.py   (from the root of a quivlat checkout)

Asserts that every metric BENCHMARK.json names is printed, by name and
with its unit, on the final JSON line and on its own report line; that op
counts add up and no answer was wrong; that traced and untraced passes gave
identical answers; that each answer check rejects a corrupted answer; and
that the benchmark fails, printing no result, without the quivlat sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))


def _run(workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170)


def check_runs(spec) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            printed = dict(line.split(": ", 1) for line in lines[:-1]
                           if not line.startswith("failed op"))
            for name, unit in want.items():
                assert printed[name].split()[-1] == unit, (name, printed.get(name))
            assert result["attempted"] >= 1
            assert 0 <= result["failed"] <= result["attempted"]
            assert result["correct"] is True, (workload, trace)
            if trace:
                assert printed["trace.answers_identical"].split()[0] == "1", workload
            print("ok: %s --trace %d (%d ops, %d failed)" % (
                workload, trace, result["attempted"], result["failed"]))


def check_rejections() -> None:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, HERE)
    import workloads as W
    from quivlat import ExactMatrix, Quiver, Rep, RingSpec

    sweep = W.HomExtSweep(7, 0)
    for op in sweep.ops:
        if op["label"].endswith("kron34") and op["ring"] in ("Z", "Zmod:4"):
            he = sweep.run(op)
            assert sweep.check(op, he)[0], op["label"]
            swapped = types.SimpleNamespace(hom=he.ext, ext=he.hom)
            assert not sweep.check(op, swapped)[0], op["label"]

    lattice = W.LatticeOrbit(7, 0, max_n=2)
    op = next(o for o in lattice.ops if o["root"] == (1, 2) and o["ring"] == "F:3")
    rep = lattice.run(op)
    assert lattice.check(op, rep)[0]
    ring = RingSpec.parse("F:3")
    zero = Rep(ring, Quiver(*W.KRONECKER), (1, 2), tuple(
        ExactMatrix(ring, 2, 1, ((0,), (0,))) for _ in range(2)))
    assert not lattice.check(op, zero)[0]
    assert not W.residue_rank_check(W.KRONECKER, (1, 2), [[[0], [0]], [[0], [0]]], 3)
    other = next(o for o in lattice.ops if o["root"] == (2, 1) and o["ring"] == "F:3")
    assert not lattice.check(other, rep)[0]

    cli = W.StructureCli(7, 0, os.path.join(HERE, ".out", "selftest-files"), decompose_total=4)
    by_label = {}
    for op in cli.ops:
        by_label.setdefault(op["label"], op)
    dec = by_label["decompose"]
    good = {"summands": [{"dims": d, "multiplicity": m} for d, m in dec["expect"]],
            "verified": True}
    assert cli.check(dec, good)
    bad = {"summands": [{"dims": d, "multiplicity": m + 1} for d, m in dec["expect"]],
           "verified": True}
    assert not cli.check(dec, bad)
    lift = by_label["lift"]
    data = lift["expect"]
    same = dict(data, ring=lift["source"])
    assert cli.check(lift, {"ring": lift["source"], "rep": same})
    if any(data["mats"]):
        flat = [[W.reduce_entry(data["ring"], (v[0] if isinstance(v, list) else v) + 1)
                 for v in m] for m in data["mats"]]
        assert not cli.check(lift, {"ring": lift["source"], "rep": dict(same, mats=flat)})
    assert not cli.check(by_label["basechange"], {"ok": False})
    con = by_label["construct"]
    assert not cli.check(con, {"dims": [d + 1 for d in con["root"]], "exceptional": True,
                               "rep": {}})
    ext = by_label["ext"]
    assert not cli.check(ext, {"homFreeRank": ext["chi"] + 1, "extFreeRank": 0})
    print("ok: every check rejects a corrupted answer")


def check_without_sources() -> None:
    bare = os.path.join(HERE, ".out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
             "homext-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=170, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print("ok: fails without the quivlat sources")


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    check_rejections()
    check_without_sources()
    check_runs(spec)
    shutil.rmtree(os.path.join(HERE, ".out"), ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
