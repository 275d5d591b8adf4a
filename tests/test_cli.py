"""Command-line behavior: verbs, exit codes, and byte-stable JSON."""

import json

import pytest

from quivlat.cli import main
from quivlat.quiver import Quiver, Rep, direct_sum
from quivlat.rings import GF, ZZ
from quivlat.structure import exceptional_lattice

A2 = Quiver(2, ((1, 2),))
K2 = Quiver(2, ((1, 2), (1, 2)))


@pytest.fixture
def files(tmp_path):
    def dump(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    out = {
        "a2": dump("a2.json", A2.to_json()),
        "k2": dump("kronecker.json", K2.to_json()),
        "s1": dump("s1.json", Rep.simple(GF(2), A2, 1).to_json()),
        "s2": dump("s2.json", Rep.simple(GF(2), A2, 2).to_json()),
        "zero": dump("zero.json", Rep.zero(GF(2), A2).to_json()),
        "p1z": dump("p1z.json", Rep.from_matrix_rows(ZZ, A2, (1, 1), [[[1]]]).to_json()),
        "p1f2": dump("p1f2.json", Rep.from_matrix_rows(GF(2), A2, (1, 1), [[[1]]]).to_json()),
        "rigidk": dump("rigidk.json", direct_sum(
            exceptional_lattice(K2, (0, 1)),
            exceptional_lattice(K2, (1, 2))).to_json()),
        "bad": dump("bad.json", {"ring": "Z", "dims": [1, 1]}),
        "notjson": str(tmp_path / "notjson.txt"),
    }
    (tmp_path / "notjson.txt").write_text("} not json {")
    return out


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_ext_report(files, capsys):
    code, rep = run_json(capsys, "ext", "--quiver", files["a2"],
                         "--rep-x", files["s1"], "--rep-y", files["s2"])
    assert code == 0
    assert rep["homInvariants"] == []
    assert rep["extInvariants"] == [0]
    assert rep["extFreeRank"] == 1 and rep["extIsFree"] is True
    assert rep["schema"] == 1 and rep["verb"] == "ext"


def test_hom_verb_same_engine(files, capsys):
    code, rep = run_json(capsys, "hom", "--rep-x", files["s2"], "--rep-y", files["s1"])
    assert code == 0
    assert rep["verb"] == "hom" and rep["homFreeRank"] == 0


def test_ring_override_base_changes_inputs(files, capsys):
    code, rep = run_json(capsys, "ext", "--rep-x", files["p1z"],
                         "--rep-y", files["p1z"], "--ring", "Zmod:4")
    assert code == 0
    assert rep["ring"] == "Zmod:4" and rep["homFreeRank"] == 1


def test_rigid_zero_rep(files, capsys):
    code, rep = run_json(capsys, "rigid", "--rep", files["zero"])
    assert code == 0 and rep["rigid"] is True


def test_exceptional_verb(files, capsys):
    code, rep = run_json(capsys, "exceptional", "--rep", files["zero"])
    assert code == 0 and rep["exceptional"] is False
    code, rep = run_json(capsys, "exceptional", "--rep", files["p1f2"])
    assert code == 0 and rep["exceptional"] is True


def test_schur_exit_codes(files, capsys):
    code, rep = run_json(capsys, "schur", "--quiver", files["k2"], "--dims", "1,1")
    assert code == 1 and rep["error"] == "NotSchurRoot"
    code, rep = run_json(capsys, "schur", "--quiver", files["k2"], "--dims", "2,3")
    assert code == 0 and rep["isRealSchurRoot"] is True
    code, rep = run_json(capsys, "schur", "--quiver", files["k2"],
                         "--dims", "5,6", "--bound", "8")
    assert code == 1 and rep["error"] == "BoundExceeded"


def test_bound_env_override(files, capsys, monkeypatch):
    monkeypatch.setenv("QUIVLAT_BOUND", "8")
    code, rep = run_json(capsys, "schur", "--quiver", files["k2"], "--dims", "5,6")
    assert code == 1 and rep["error"] == "BoundExceeded"
    monkeypatch.setenv("QUIVLAT_BOUND", "14")
    code, rep = run_json(capsys, "schur", "--quiver", files["k2"], "--dims", "5,6")
    assert code == 0


def test_construct_and_roundtrip(files, capsys):
    code, rep = run_json(capsys, "construct", "--quiver", files["k2"],
                         "--dims", "1,2", "--ring", "Zmod:4")
    assert code == 0 and rep["exceptional"] is True
    rebuilt = Rep.from_json(rep["rep"])
    assert rebuilt.dims == (1, 2) and str(rebuilt.ring) == "Zmod:4"


def test_mutate_sides(files, capsys):
    code, rep = run_json(capsys, "mutate", "--rep-x", files["s1"],
                         "--rep-y", files["s2"], "--side", "left")
    assert code == 0
    assert rep["kind"] == "UniversalExtension" and rep["dims"] == [1, 1]
    code, rep = run_json(capsys, "mutate", "--rep-x", files["s1"],
                         "--rep-y", files["s2"], "--side", "right")
    assert code == 0 and rep["kind"] == "UniversalExtension"


def test_mutate_rejects_bad_pair(files, capsys):
    code, rep = run_json(capsys, "mutate", "--rep-x", files["s2"], "--rep-y", files["s1"])
    assert code == 1 and rep["error"] == "PreconditionViolated"


def test_braid_word(files, capsys):
    code, rep = run_json(capsys, "braid", "--quiver", files["a2"], "--word", "1,1,1")
    assert code == 0
    assert rep["dims"] == [[1, 0], [0, 1]]
    code, rep = run_json(capsys, "braid", "--quiver", files["a2"], "--word", "1,-1")
    assert code == 0 and rep["dims"] == [[1, 0], [0, 1]]
    code, rep = run_json(capsys, "braid", "--quiver", files["a2"], "--word", "1,x")
    assert code == 2 and rep["error"] == "ParseError"
    code, rep = run_json(capsys, "braid", "--quiver", files["a2"], "--word", "0")
    assert code == 2
    code, rep = run_json(capsys, "braid", "--quiver", files["a2"], "--word", "2")
    assert code == 1 and rep["error"] == "DimensionMismatch"


def test_decompose_report(files, capsys):
    code, rep = run_json(capsys, "decompose", "--rep", files["rigidk"])
    assert code == 0
    assert rep["summands"] == [{"dims": [0, 1], "multiplicity": 1},
                               {"dims": [1, 2], "multiplicity": 1}]
    assert rep["verified"] is True


def test_lift_report(files, capsys):
    code, rep = run_json(capsys, "lift", "--rep", files["p1f2"], "--ring", "Feps:2:2")
    assert code == 0 and rep["rigid"] is True
    assert rep["rep"]["ring"] == "Feps:2:2"
    code, rep = run_json(capsys, "lift", "--rep", files["p1f2"])
    assert code == 2 and rep["error"] == "ParseError"


def test_basechange_report(files, capsys):
    code, rep = run_json(capsys, "basechange", "--rep-x", files["p1z"],
                         "--rep-y", files["p1z"], "--ring", "F:2")
    assert code == 0 and rep["ok"] is True


def test_verify_verb(files, capsys):
    code, rep = run_json(capsys, "verify", "euler", "--seed", "1", "--size", "5")
    assert code == 0
    assert rep["passes"] == 5 and rep["failures"] == 0
    assert rep["counterexample"] is None


def test_quiver_cross_check(files, capsys):
    code, rep = run_json(capsys, "rigid", "--rep", files["s1"], "--quiver", files["k2"])
    assert code == 1 and rep["error"] == "IncompatibleBase"


def test_parse_failures_exit_two(files, capsys):
    code, rep = run_json(capsys, "ext", "--rep-x", files["s1"], "--rep-y", files["bad"])
    assert code == 2 and rep["error"] == "ParseError"
    code, rep = run_json(capsys, "rigid", "--rep", files["notjson"])
    assert code == 2 and rep["error"] == "ParseError"
    code, rep = run_json(capsys, "rigid", "--rep", files["s1"] + ".missing")
    assert code == 2 and rep["error"] == "FileNotFound"
    code, rep = run_json(capsys, "rigid", "--rep", files["s1"], "--ring", "F:6")
    assert code == 2 and rep["error"] == "ParseError"


def test_unreadable_files_exit_two(files, tmp_path, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00\x81 not utf-8")
    for path in (str(tmp_path), str(binary)):
        code, out = run(capsys, "rigid", "--rep", path, "--format", "json")
        assert code == 2
        assert json.loads(out)["error"] == "ParseError"


def test_argparse_rejections(files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["rigid", "--rep", files["s1"], "--no-such-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nosuite"])
    assert exc.value.code == 2


def test_json_byte_stability(files, capsys):
    argv = ("ext", "--rep-x", files["s1"], "--rep-y", files["s2"], "--format", "json")
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second
    payload = json.loads(first)
    assert list(payload) == sorted(payload)
    argv = ("verify", "theoremA", "--seed", "3", "--size", "4", "--format", "json")
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second


def test_text_format_lines(files, capsys):
    code, out = run(capsys, "rigid", "--rep", files["zero"])
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert lines["rigid"] == "True"
    assert lines["verb"] == "rigid"
