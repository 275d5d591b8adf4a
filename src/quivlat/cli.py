"""Command-line front end.

One process runs one verb.  Reports go to standard output as text or as
byte-stable JSON (sorted keys, fixed separators, ``"schema": 1``).  Exit
status: 0 success, 1 domain error (structured record with the error code),
2 parse errors and missing files.

Parsing and every verb share only errors, rings and quiver; each verb
imports the library module it runs when it runs, so ext never compiles
mutation, structure or verify.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import SUITES
from .errors import IncompatibleBase, ParseError, QuivlatError
from .quiver import Quiver, Rep, base_change
from .rings import RingSpec, ZZ, canonical_hom

SCHEMA = 1


def _parse_int(text: str, what: str) -> int:
    """An integer in ASCII decimal digits, -?[0-9]+: the one rule for every
    integer the CLI reads.  int() alone would also take "+3", " 3", "1_0"
    and non-ASCII digits."""
    if re.fullmatch(r"-?[0-9]+", text):
        try:
            return int(text)
        except ValueError:   # more digits than int() converts
            pass
    raise ParseError("%s expects an integer, got %r" % (what, text))


def _bound(args) -> int:
    """--bound, else QUIVLAT_BOUND, else 60."""
    if args.bound is not None:
        return _parse_int(args.bound, "--bound")
    raw = os.environ.get("QUIVLAT_BOUND")
    return 60 if raw is None else _parse_int(raw, "QUIVLAT_BOUND")


def _load_json(path: str):
    # FileNotFoundError is left to main(), which reports it as FileNotFound;
    # any other OSError and anything json refuses (ValueError, or a
    # RecursionError on deep nesting) is a ParseError.
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError("%s: %s" % (path, exc))


def _load_rep(path: str) -> Rep:
    return Rep.from_json(_load_json(path))


def _load_quiver(path: str) -> Quiver:
    return Quiver.from_json(_load_json(path))


def _parse_dims(text: str) -> tuple:
    return tuple(_parse_int(part, "--dims entry") for part in text.split(","))


def _parse_word(text: str) -> tuple:
    word = tuple(_parse_int(part, "--word entry") for part in text.split(","))
    if any(w == 0 for w in word):
        raise ParseError("--word entries must be nonzero")
    return word


def _override_ring(rep: Rep, spec: str | None) -> Rep:
    """Apply --ring by transporting the representation along the canonical map."""
    if spec is None:
        return rep
    target = RingSpec.parse(spec)
    if target == rep.ring:
        return rep
    return base_change(rep, canonical_hom(rep.ring, target))


def _check_quiver(args, *reps) -> None:
    if getattr(args, "quiver", None):
        quiver = _load_quiver(args.quiver)
        for rep in reps:
            if rep.quiver != quiver:
                raise IncompatibleBase("representation does not live on the given quiver")


def _factors_json(pres) -> list:
    return [pres.ring.entry_to_json(d) for d in pres.invariant_factors]


def _cmd_ext(args) -> dict:
    from .homology import hom_ext
    x = _override_ring(_load_rep(args.rep_x), args.ring)
    y = _override_ring(_load_rep(args.rep_y), args.ring)
    _check_quiver(args, x, y)
    he = hom_ext(x, y)
    return {
        "ring": str(x.ring),
        "homInvariants": _factors_json(he.hom),
        "homIsFree": he.hom.is_free,
        "homFreeRank": he.hom.free_rank,
        "extInvariants": _factors_json(he.ext),
        "extIsFree": he.ext.is_free,
        "extFreeRank": he.ext.free_rank,
    }


def _cmd_rigid(args) -> dict:
    from .homology import is_rigid
    x = _override_ring(_load_rep(args.rep), args.ring)
    _check_quiver(args, x)
    return {"ring": str(x.ring), "dims": list(x.dims), "rigid": is_rigid(x)}


def _cmd_exceptional(args) -> dict:
    from .homology import is_exceptional
    x = _override_ring(_load_rep(args.rep), args.ring)
    _check_quiver(args, x)
    return {"ring": str(x.ring), "dims": list(x.dims), "exceptional": is_exceptional(x)}


def _cmd_mutate(args) -> dict:
    from .mutation import left_mutate, right_mutate
    x = _override_ring(_load_rep(args.rep_x), args.ring)
    y = _override_ring(_load_rep(args.rep_y), args.ring)
    _check_quiver(args, x, y)
    mutate = left_mutate if args.side == "left" else right_mutate
    result = mutate(x, y)
    return {"side": args.side, "kind": result.kind, "dims": list(result.rep.dims),
            "rep": result.rep.to_json()}


def _cmd_braid(args) -> dict:
    from .mutation import braid_act, standard_sequence
    quiver = _load_quiver(args.quiver)
    ring = RingSpec.parse(args.ring) if args.ring else ZZ
    seq = standard_sequence(ring, quiver)
    word = _parse_word(args.word)
    for letter in word:
        seq = braid_act(seq, abs(letter), inverse=letter < 0)
    return {"ring": str(ring), "word": list(word),
            "dims": [list(d) for d in seq.dims_tuple()],
            "items": [item.to_json() for item in seq.items]}


def _cmd_schur(args) -> dict:
    from .structure import SCHUR_REAL, _require_real_schur
    quiver = _load_quiver(args.quiver)
    dims = _require_real_schur(quiver, _parse_dims(args.dims), _bound(args))
    return {"dims": list(dims), "isRealSchurRoot": True, "status": SCHUR_REAL}


def _cmd_construct(args) -> dict:
    from .structure import exceptional_lattice
    quiver = _load_quiver(args.quiver)
    dims = _parse_dims(args.dims)
    ring = RingSpec.parse(args.ring) if args.ring else ZZ
    rep = exceptional_lattice(quiver, dims, ring, bound=_bound(args))
    return {"ring": str(ring), "dims": list(dims), "exceptional": True,
            "rep": rep.to_json()}


def _cmd_decompose(args) -> dict:
    from .structure import decompose_rigid
    x = _override_ring(_load_rep(args.rep), args.ring)
    _check_quiver(args, x)
    return dict(decompose_rigid(x, bound=_bound(args)).to_json(), ring=str(x.ring))


def _cmd_lift(args) -> dict:
    from .structure import lift_rigid
    x = _load_rep(args.rep)
    if not args.ring:
        raise ParseError("lift requires --ring with the ring to lift to")
    source = RingSpec.parse(args.ring)
    lifted = lift_rigid(x, canonical_hom(source, x.ring))
    return {"ring": str(source), "dims": list(lifted.dims), "rigid": True,
            "rep": lifted.to_json()}


def _cmd_basechange(args) -> dict:
    from .homology import check_base_change
    x = _load_rep(args.rep_x)
    y = _load_rep(args.rep_y)
    _check_quiver(args, x, y)
    if not args.ring:
        raise ParseError("basechange requires --ring with the target ring")
    target = RingSpec.parse(args.ring)
    report = check_base_change(x, y, canonical_hom(x.ring, target))
    return {"source": str(x.ring), "target": str(target), "ok": report["ok"],
            "transported": _factors_json(report["transported"]),
            "direct": _factors_json(report["direct"])}


def _cmd_verify(args) -> dict:
    from .verify import run_suite
    return run_suite(args.suite, seed=_parse_int(args.seed, "--seed"),
                     size=_parse_int(args.size, "--size"))


# verb -> (help line, handler, common flags for _add_common)
_VERBS = {
    "ext": ("Hom and Ext invariants of a pair", _cmd_ext, ("quiver", "pair", "ring")),
    "hom": ("Hom and Ext invariants of a pair", _cmd_ext, ("quiver", "pair", "ring")),
    "rigid": ("test vanishing of self-extensions", _cmd_rigid, ("quiver", "rep", "ring")),
    "exceptional": ("test rigidity plus trivial endomorphisms", _cmd_exceptional,
                    ("quiver", "rep", "ring")),
    "mutate": ("mutate an exceptional pair", _cmd_mutate, ("quiver", "pair", "ring")),
    "braid": ("act on the standard exceptional sequence", _cmd_braid,
              ("needs-quiver", "ring")),
    "schur": ("classify a dimension vector", _cmd_schur, ("needs-quiver", "dims", "bound")),
    "construct": ("build the exceptional representation of a root", _cmd_construct,
                  ("needs-quiver", "dims", "ring", "bound")),
    "decompose": ("split a rigid representation into exceptional summands", _cmd_decompose,
                  ("quiver", "rep", "ring", "bound")),
    "lift": ("lift a rigid representation along a nilpotent reduction", _cmd_lift,
             ("rep", "ring")),
    "basechange": ("compare transported and recomputed invariants", _cmd_basechange,
                   ("quiver", "pair", "ring")),
    "verify": ("run a randomized self-check suite", _cmd_verify, ()),
}


def _add_common(sub: argparse.ArgumentParser, *names: str) -> None:
    if "quiver" in names:
        sub.add_argument("--quiver", help="quiver JSON file")
    if "needs-quiver" in names:
        sub.add_argument("--quiver", required=True, help="quiver JSON file")
    if "rep" in names:
        sub.add_argument("--rep", required=True, help="representation JSON file")
    if "pair" in names:
        sub.add_argument("--rep-x", required=True, dest="rep_x",
                         help="source representation JSON file")
        sub.add_argument("--rep-y", required=True, dest="rep_y",
                         help="target representation JSON file")
    if "ring" in names:
        sub.add_argument("--ring", help="ring spec, e.g. Z, Q, F:5, Zmod:6, Feps:2:2")
    if "dims" in names:
        sub.add_argument("--dims", required=True, help="dimension vector, e.g. 1,2,1")
    if "bound" in names:
        sub.add_argument("--bound",
                         help="total-dimension search bound (default 60 or QUIVLAT_BOUND)")
    # verify, the one verb with no common flags, has never shown a --format help line
    sub.add_argument("--format", choices=("text", "json"), default="text",
                     help="output format (default text)" if names else None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quivlat",
        description="Homological invariants and structure theory of quiver "
                    "representations over exact rings.")
    verbs = parser.add_subparsers(dest="verb", required=True, metavar="verb")
    for verb, (text, _, names) in _VERBS.items():
        sub = verbs.add_parser(verb, help=text)
        if verb == "verify":
            sub.add_argument("suite", choices=SUITES)
            sub.add_argument("--seed", default="0")
            sub.add_argument("--size", default="20")
        _add_common(sub, *names)
        if verb == "mutate":
            sub.add_argument("--side", choices=("left", "right"), default="left",
                             help="mutation side (default left)")
        elif verb == "braid":
            sub.add_argument("--word", default="1",
                             help="comma-separated braid letters; negative means inverse "
                                  "(default 1)")
    return parser


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
        return
    for key in sorted(report):
        value = report[key]
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True, separators=(",", ":"))
        print("%s: %s" % (key, value))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fmt = getattr(args, "format", "text")
    try:
        report = _VERBS[args.verb][1](args)
    except FileNotFoundError as exc:
        _emit({"schema": SCHEMA, "error": "FileNotFound",
               "message": str(exc)}, fmt)
        return 2
    except ParseError as exc:
        _emit({"schema": SCHEMA, "error": exc.code, "message": str(exc)}, fmt)
        return 2
    except QuivlatError as exc:
        _emit({"schema": SCHEMA, "error": exc.code, "message": str(exc)}, fmt)
        return 1
    _emit(dict(report, schema=SCHEMA, verb=args.verb), fmt)   # one envelope for every verb
    return 0


if __name__ == "__main__":
    sys.exit(main())
