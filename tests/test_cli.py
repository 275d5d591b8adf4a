"""Command-line behavior: verbs, exit codes, and byte-stable JSON."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from quivlat import cli, verify
from quivlat.cli import main
from quivlat.errors import BoundExceeded, ParseError
from quivlat.quiver import Quiver, Rep, direct_sum, projective_rep
from quivlat.rings import Feps, GF, ZZ
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


def test_mutate_and_braid_answer_over_non_domains(files, tmp_path, capsys):
    # Feps:2:2 and Zmod:4 are not domains; mutation answers over them
    ring = Feps(2, 2)
    paths = {}
    for name, rep in (("s1", Rep.simple(ring, A2, 1)), ("s2", Rep.simple(ring, A2, 2)),
                      ("p1", projective_rep(ring, A2, 1))):
        path = tmp_path / ("%s_feps.json" % name)
        path.write_text(json.dumps(rep.to_json()))
        paths[name] = str(path)
    for x, y, side, kind, dims in (
            ("s1", "s2", "left", "UniversalExtension", [1, 1]),
            ("s1", "s2", "right", "UniversalExtension", [1, 1]),
            ("p1", "s1", "left", "KernelOfUniversalMap", [0, 1])):
        code, rep = run_json(capsys, "mutate", "--rep-x", paths[x],
                             "--rep-y", paths[y], "--side", side)
        assert code == 0 and rep["kind"] == kind and rep["dims"] == dims
        assert Rep.from_json(rep["rep"]).ring == ring
    code, rep = run_json(capsys, "braid", "--quiver", files["k2"],
                         "--ring", "Zmod:4", "--word", "1,-1")
    assert code == 0 and rep["ring"] == "Zmod:4"
    assert rep["dims"] == [[1, 0], [0, 1]]
    code, over_z = run_json(capsys, "braid", "--quiver", files["k2"], "--word", "1,1")
    assert code == 0
    code, rep = run_json(capsys, "braid", "--quiver", files["k2"],
                         "--ring", "Zmod:4", "--word", "1,1")
    assert code == 0 and rep["dims"] == over_z["dims"] == [[3, 2], [2, 1]]


def test_decompose_report(files, capsys):
    code, rep = run_json(capsys, "decompose", "--rep", files["rigidk"])
    assert code == 0
    assert rep["summands"] == [{"dims": [0, 1], "multiplicity": 1},
                               {"dims": [1, 2], "multiplicity": 1}]
    assert rep["verified"] is True


def test_decompose_below_a_summand_root_exceeds_the_bound(tmp_path, capsys):
    path = tmp_path / "sum.json"
    path.write_text(json.dumps(direct_sum(
        exceptional_lattice(K2, (1, 2)), exceptional_lattice(K2, (2, 3))).to_json()))
    code, rep = run_json(capsys, "decompose", "--rep", str(path), "--bound", "3")
    assert code == 1 and rep["error"] == "BoundExceeded"
    code, rep = run_json(capsys, "decompose", "--rep", str(path), "--bound", "5")
    assert code == 0 and rep["ordering"] == [[1, 2], [2, 3]]


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


def test_verify_exits_1_when_its_report_counts_a_failure(monkeypatch, capsys):
    # a suite whose second and third cases fail: the report is still printed
    monkeypatch.setitem(verify._RUNNERS, "euler",
                        lambda seed, size: [None, {"case": 1}, {"case": 2}])
    code, rep = run_json(capsys, "verify", "euler", "--size", "3")
    assert code == 1
    assert (rep["cases"], rep["passes"], rep["failures"]) == (3, 1, 2)
    assert rep["counterexample"] == {"case": 1}


def _planted(*args, **kwargs):
    raise BoundExceeded("planted")


# per suite, the one name its cases check against, and a stand-in, made
# from the real one, that answers wrongly or raises a QuivlatError
PLANTED_FAULTS = {
    "euler": ("euler_form", lambda real: lambda q, a, b: real(q, a, b) + 1),
    "basechange": ("check_base_change",
                   lambda real: lambda x, y, hom: dict(real(x, y, hom), ok=False)),
    "braid": ("is_isomorphic_rigid", lambda real: lambda x, y: False),
    "theoremA": ("generic_dims", lambda real: _planted),
    "theoremB": ("orbit_search", lambda real: lambda *args, **kwargs: None),
    "theoremC": ("decompose_rigid", lambda real: _planted),
}


@pytest.mark.parametrize("suite", verify.SUITES)
def test_every_suite_reports_a_failing_case_as_data(monkeypatch, capsys, suite):
    # every case fails, the first counterexample is JSON, and verify exits 1
    name, stand_in = PLANTED_FAULTS[suite]
    monkeypatch.setattr(verify, name, stand_in(getattr(verify, name)))
    report = verify.run_suite(suite, seed=0, size=3)
    assert report["cases"] > 0 and report["failures"] == report["cases"]
    json.dumps(report["counterexample"])
    code, rep = run_json(capsys, "verify", suite, "--size", "3")
    assert code == 1 and rep["failures"] == rep["cases"] == report["cases"]
    assert rep["counterexample"] == report["counterexample"]


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
    code, rep = run_json(capsys, "basechange", "--rep-x", files["p1z"], "--rep-y", files["p1z"])
    assert code == 2 and rep["error"] == "ParseError"
    assert rep["message"].startswith("basechange requires --ring")


def test_unreadable_files_exit_two(files, tmp_path, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00\x81 not utf-8")
    for path in (str(tmp_path), str(binary)):
        code, out = run(capsys, "rigid", "--rep", path, "--format", "json")
        assert code == 2
        assert json.loads(out)["error"] == "ParseError"


def _write(path, text):
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("make", [
    lambda tmp_path, s1: s1 + "/x",
    lambda tmp_path, s1: str(tmp_path / ("x" * 300)),
    lambda tmp_path, s1: _write(tmp_path / "deep.json", "[" * 200000),
    lambda tmp_path, s1: _write(tmp_path / "long.json", "1" * 5000),
], ids=("below-a-file", "name-too-long", "nested-too-deep", "integer-too-long"))
def test_unloadable_files_exit_two(files, tmp_path, capsys, make):
    code, out = run(capsys, "rigid", "--rep", make(tmp_path, files["s1"]),
                    "--format", "json")
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"


def test_permission_denied_exits_two(files, capsys, monkeypatch):
    # the tests may run as root, who can read any file, so open is stubbed
    def denied(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli, "open", denied, raising=False)
    code, rep = run_json(capsys, "rigid", "--rep", files["s1"])
    assert code == 2 and rep["error"] == "ParseError"
    assert "Permission denied" in rep["message"]


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


@pytest.mark.parametrize("argv", [["braid"], ["schur", "--dims", "1,1"],
                                  ["construct", "--dims", "1,2"]])
def test_verbs_without_their_quiver_exit_two(argv):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-m", "quivlat.cli", *argv],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "--quiver" in proc.stderr


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


def _limit_address_space():
    import resource
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("verb", ["rigid", "decompose"])
@pytest.mark.parametrize("dim, code, error, says", [
    pytest.param(2 ** 70, 2, "ParseError", "dimension 1180591620717411303424 at vertex 2 "
                 "exceeds the cap", id="2**70"),
    pytest.param(5000, 1, "NotComputable", "the Hom complex of (0, 5000) and (0, 5000) "
                 "would fill 800000256 cells, above the cap",
                 id="5000")])
def test_oversized_dimensions_exit_with_a_typed_error(tmp_path, verb, dim, code, error, says):
    # A Kronecker record with no entries: 123 bytes at 2**70, which once
    # allocated a row per unit of dimension.  The parse cap refuses it; a
    # dimension below that cap meets hom_ext's cap on the Hom complex.  In a
    # child process under a 1 GiB address-space limit, with a deadline.
    path = tmp_path / "big.json"
    path.write_text('{"ring": "Z", "quiver": {"vertices": 2, "arrows": [[1, 2], [1, 2]]}, '
                    '"dims": [0, %d], "mats": [[], []]}' % dim)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "quivlat.cli", verb, "--rep", str(path), "--format", "json"],
        capture_output=True, text=True, timeout=20, preexec_fn=_limit_address_space,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    report = json.loads(proc.stdout)
    assert report["error"] == error and says in report["message"]


@pytest.mark.parametrize("dims, mats", [([-1, 5], [[], []]), ([-1, -2], [[1, 2], [3, 4]])])
def test_negative_dimension_is_a_parse_error_naming_the_vertex(tmp_path, capsys, dims, mats):
    # refused before any arrow is sized: [-1, 5] once asked arrow 0 for -5
    # entries, and [-1, -2] reached Rep, which raised DimensionMismatch (exit 1)
    record = {"ring": "Z", "quiver": K2.to_json(), "dims": dims, "mats": mats}
    with pytest.raises(ParseError, match="negative dimension -1 at vertex 1$"):
        Rep.from_json(record)
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(record))
    code, report = run_json(capsys, "rigid", "--rep", str(path))
    assert code == 2
    assert report["error"] == "ParseError"
    assert report["message"] == "negative dimension -1 at vertex 1"


@pytest.mark.parametrize("ring", ["Feps:2:65", "Feps:2:300000000"])
def test_oversized_feps_order_exits_without_traceback(files, ring):
    # In a child process under a 1 GiB address-space limit, where building
    # the ring's elements without the bound dies with a MemoryError.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "quivlat.cli", "construct", "--quiver", files["k2"],
         "--ring", ring, "--dims", "1,2", "--format", "json"],
        capture_output=True, text=True, timeout=120, preexec_fn=_limit_address_space,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode in (1, 2), proc.stderr
    assert "Traceback" not in proc.stderr
    report = json.loads(proc.stdout)
    assert report["error"] == "NotComputable"
    assert "order %s exceeds the bound" % ring.split(":")[2] in report["message"]


# Every integer the CLI reads follows one rule, ASCII -?[0-9]+: int() alone
# would also take these.
LOOSE_INTEGERS = ["1_0", " 2", "+3", "٣", "3 ", "0x10", "", "9" * 5000]


@pytest.mark.parametrize("text", LOOSE_INTEGERS)
@pytest.mark.parametrize("flag", ["--bound", "--dims", "--word", "--seed", "--size"])
def test_loose_integers_exit_two(files, capsys, flag, text):
    argv = {
        "--bound": ["schur", "--quiver", files["k2"], "--dims", "1,2", "--bound", text],
        "--dims": ["schur", "--quiver", files["k2"], "--dims", "1,%s" % text],
        "--word": ["braid", "--quiver", files["k2"], "--word", "1,%s" % text],
        "--seed": ["verify", "theoremA", "--seed", text],
        "--size": ["verify", "theoremA", "--size", text],
    }[flag]
    code, rep = run_json(capsys, *argv)
    assert code == 2 and rep["error"] == "ParseError", rep


def test_dims_with_a_digit_separator_are_not_read_as_one_number(files, capsys):
    # int() reads "1_0" as 10, which would classify (10, 11)
    code, rep = run_json(capsys, "schur", "--quiver", files["k2"], "--dims", "1_0,11")
    assert code == 2 and rep["error"] == "ParseError"
    code, rep = run_json(capsys, "schur", "--quiver", files["k2"], "--dims", " 2,+3")
    assert code == 2 and rep["error"] == "ParseError"


def test_strict_integers_still_read_negatives_and_defaults(files, capsys):
    code, rep = run_json(capsys, "braid", "--quiver", files["k2"], "--word", "1,-1")
    assert code == 0 and rep["word"] == [1, -1]
    code, rep = run_json(capsys, "schur", "--quiver", files["k2"], "--dims", "1,2",
                         "--bound", "8")
    assert code == 0 and rep["isRealSchurRoot"]


@pytest.mark.parametrize("argv", [
    ["schur", "--dims", "1,2"],
    ["construct", "--dims", "1,2"],
    ["decompose", "--rep", "REP"],
])
def test_the_bound_environment_variable_is_not_read(files, argv):
    # --bound is the one way to set the walk's bound: QUIVLAT_BOUND, which
    # the verbs that take --bound once read, is ignored, malformed or not
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    argv = [files["rigidk"] if a == "REP" else a for a in argv]
    if argv[0] != "decompose":
        argv += ["--quiver", files["k2"]]
    env = dict(os.environ, PYTHONPATH=src, QUIVLAT_BOUND="abc")
    proc = subprocess.run([sys.executable, "-m", "quivlat.cli", *argv, "--format", "json"],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr and "error" not in json.loads(proc.stdout)


# SHA-256 of `quivlat [verb] --help` at COLUMNS=80, recorded on Python 3.11;
# argparse lays out help differently from one Python minor version to another
HELP_SHA256 = {
    "": "dc8743a43ed4fded98600e71dfdad3478ca5c055fc6b96b1678d038a0b402d14",
    "ext": "dffa5387f0eca87f7dcbf93df058c24ca9d0a3d7ea7eaec9dd562b08d9d38921",
    "hom": "1c12909563d7a650c1ab3961f48e3c56c3cae9d9e82b1a87523e7ccf94332f6a",
    "rigid": "f31734f5824b771e34a44b6f8ebe532e956e28e97fb7cca9ac79f30bbe0361ba",
    "exceptional": "3e538ae924479a6cee4e93508eba48bcafe388d5f2787a8313cf2800ad7212d0",
    "mutate": "ee69f737397c683501debffd470430421a1545bc34b7afc716d6696b853ea7bd",
    "braid": "b22974aef138658116dd148028c7761df7567c0015e42d90b4b49ec2278d238b",
    "schur": "bbb79775551fcb4d92a80ab6073f90ff5da441c61e0a26ade7b1fd392a569eb6",
    "construct": "3a32ff43efabe0139fa68e6893131f317bf97d24902d1332db818a817244301e",
    "decompose": "63f76ed0afe8b7920d175621dcbec69bcd567d9bbcb4df886976ba156df73d41",
    "lift": "5032d5f5eea5d0a94e4a53158a145d747dc60de3bca8c4a9fbbcc0560d373ce2",
    "basechange": "9ff8532295032dbdf9cfa727580eb169a0016e7e07edea4e9706f9546d0e4830",
    "verify": "83bd1ec534a094bea1e17386ae9e521fa312b76baaf4f55e6987ac42e44c5a4b",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="help snapshot recorded with Python 3.11's argparse")
@pytest.mark.parametrize("verb", sorted(HELP_SHA256))
def test_help_text_is_unchanged(verb, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        main(([verb] if verb else []) + ["--help"])
    assert stop.value.code == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == HELP_SHA256[verb], text


# Every verb's stdout on the fixture's files, in both formats: (argv with
# fixture keys for the files, expected exit code).  None of these reports
# prints a file path, so the bytes do not depend on where the files live.
STDOUT_CASES = {
    "ext": (["ext", "--quiver", "a2", "--rep-x", "s1", "--rep-y", "s2"], 0),
    "hom": (["hom", "--rep-x", "s2", "--rep-y", "s1"], 0),
    "hom-ring": (["hom", "--rep-x", "p1z", "--rep-y", "p1z", "--ring", "Zmod:4"], 0),
    "rigid": (["rigid", "--rep", "rigidk"], 0),
    "exceptional": (["exceptional", "--rep", "p1f2"], 0),
    "mutate-left": (["mutate", "--rep-x", "s1", "--rep-y", "s2", "--side", "left"], 0),
    "mutate-right": (["mutate", "--rep-x", "s1", "--rep-y", "s2", "--side", "right"], 0),
    "mutate-bad-pair": (["mutate", "--rep-x", "s2", "--rep-y", "s1"], 1),
    "braid": (["braid", "--quiver", "k2", "--ring", "Zmod:4", "--word", "1,1,-1,1"], 0),
    "schur": (["schur", "--quiver", "k2", "--dims", "2,3"], 0),
    "schur-not-root": (["schur", "--quiver", "k2", "--dims", "1,1"], 1),
    "construct": (["construct", "--quiver", "k2", "--dims", "1,2", "--ring", "Zmod:4"], 0),
    "decompose": (["decompose", "--rep", "rigidk", "--ring", "F:3"], 0),
    "lift": (["lift", "--rep", "p1f2", "--ring", "Feps:2:2"], 0),
    "basechange": (["basechange", "--rep-x", "p1z", "--rep-y", "p1z", "--ring", "F:2"], 0),
    "verify": (["verify", "euler", "--seed", "1", "--size", "5"], 0),
}

# SHA-256 of each case's stdout, "<case>.<format>" -> digest, recorded at
# 4f8bf55.  A change that alters a report on purpose updates it and says so
# in CHANGES.md.
STDOUT_SHA256 = {
    "basechange.json": "904bc174deaf03e881ae7b09d18cbebc2d06df524743b177c1d987f2614374ce",
    "basechange.text": "9f41c4466ace1e2698c7dc74ce3e0b970a65a268d3c904fb5cc1be964eba578b",
    "braid.json": "a7248f5e3a9b3f2afef35e977dbd17c8791debcd2ac90ccfdd9c8a46185870c9",
    "braid.text": "2b8c1f7d2529ce47c9b9a4e7cc92650c67a22e29579bede1bee88dcfa46b1333",
    "construct.json": "c2365b7a3df12751f16979631246f6cc3b9529ac5399a375741323dbed92692b",
    "construct.text": "eed7004ee186b246d55f210593b036041509d2cf696ca2b0b5722a9b9c78beca",
    "decompose.json": "592a044286a13b317c7f0b3c6da5721ed64798f68ca220be8bf334e2bddba596",
    "decompose.text": "a37912d345dc6deb678576e756dc59ab1ff5190a4760d76d1eb7e6558bb2e85f",
    "exceptional.json": "d907ed44c120cb10164ee45439146c62d9cacd1f8c94b32f53555f545321d407",
    "exceptional.text": "7988186afc646d243aff8b2852f681bb9e702bd95fa155828e88989e855acb7c",
    "ext.json": "477847ac3c4bd0b2c9c65eca65012f4c75d2551d382404c4249a388a0c3f795c",
    "ext.text": "dfe1f7653cf234d34a33808ba1529c83cad36370b041eabf6ce765c33a8906a5",
    "hom.json": "eaf59bcf9a2225cf4e480a165a52d12f276edd21c8125a97a1ab4cd6bf406f25",
    "hom.text": "1011b0b1ca6b60512b7bc41b56133ab3e64b5f4e5ae2f1d93ef38faa4867c742",
    "hom-ring.json": "19abb8d356169f68b8e595d36b7811ddd1975015bbfe5083f1ca917338322f1b",
    "hom-ring.text": "6e95f0aa6ef4ea506b3bcbcaa2f39d5fadf43abdae7e99c6704bda8b543b8ac8",
    "lift.json": "0d66dd659bce8e0a087c825fa4196b927f4b47dfc520571ebf32d980cbf1de4e",
    "lift.text": "ce8c0ee110a54cc3b35b5cf8bab260073b8d3da81ac63eacd74e25b4dcacb930",
    "mutate-bad-pair.json": "120e8f5d4025270df215f58cc2acea10f21da474965f2a2fc38bb6bdd1105312",
    "mutate-bad-pair.text": "14a825c2716f383cb68158f24d590d12917116662598c3426714d27915df61cf",
    "mutate-left.json": "fca4d31e14d6c5c2547c230101f4f1fa2c259abbb3d995fd9ca21a04a90350f8",
    "mutate-left.text": "a8e0bb8b30b9e9cdc3a7fad9d21898ea974ee37570d2b0327cf5769a0ebbf194",
    "mutate-right.json": "c5d39cd9b375775fa7daa7e8721aa40e1a80714d72d7d4549bc9061b0ab0ea3c",
    "mutate-right.text": "95f87d10bb2da06f24449e6c28e2f7c37d9b564aceb4081a48f6f8bd94127b10",
    "rigid.json": "bc392e1ec9d6dd9ac4e985e74d7044e903c838ed4afbf38ab3082657aa74fbf0",
    "rigid.text": "549962c860fb34a80fb77cc49337c97f18f6fe258c45b8d9653fdd4d9764dcf4",
    "schur.json": "00f613c637ab103a3c3391597cb4df61569aeb895928d8382d24ffafdc9be201",
    "schur.text": "476277ab648878dbd2b3478becc29471a8b5a2d500a915ac1c1e23e974524b4e",
    "schur-not-root.json": "152edad29dc1646a8fd5b681b4a4909de0115257acab7849bf811386b381fec9",
    "schur-not-root.text": "55156051fece698907f65612f90011c4765001ca4f2dafd4cb3d05d6ee404c9f",
    "verify.json": "2a950aee23e873831b012a8f72a320372f37e176e21ff685881f10080c49a690",
    "verify.text": "71f49503c6649cb615c83fb561d939b3159d76af97f4c34f790c6b3ef1b354a9",
}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("case", sorted(STDOUT_CASES))
def test_stdout_is_unchanged(files, capsys, case, fmt):
    argv, want_code = STDOUT_CASES[case]
    code, out = run(capsys, *(files.get(a, a) for a in argv), "--format", fmt)
    assert code == want_code, out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[case + "." + fmt], out
