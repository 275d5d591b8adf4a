"""Command-line front end.

One process runs one verb.  Reports go to standard output as text or as
byte-stable JSON (sorted keys, fixed separators, ``"schema": 1``).  Exit
status: 0 success, 1 domain error (structured record with the error code),
2 parse errors and missing files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ParseError, QuivlatError
from .homology import check_base_change, hom_ext, is_exceptional, is_rigid
from .mutation import MutationResult, braid_act, left_mutate, right_mutate, standard_sequence
from .quiver import Quiver, Rep, base_change
from .rings import RingSpec, ZZ, canonical_hom
from .structure import decompose_rigid, exceptional_lattice, lift_rigid, schur_root_status
from .verify import SUITES, run_suite

SCHEMA = 1


def _default_bound() -> int:
    raw = os.environ.get("QUIVLAT_BOUND")
    if raw is None:
        return 60
    try:
        return int(raw)
    except ValueError:
        raise ParseError("QUIVLAT_BOUND must be an integer, got %r" % raw)


def _load_json(path: str):
    # FileNotFoundError is left to main(), which reports it as FileNotFound.
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, IsADirectoryError, PermissionError,
            UnicodeDecodeError) as exc:
        raise ParseError("%s: %s" % (path, exc))


def _load_rep(path: str) -> Rep:
    return Rep.from_json(_load_json(path))


def _load_quiver(path: str) -> Quiver:
    return Quiver.from_json(_load_json(path))


def _parse_dims(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ParseError("--dims expects comma-separated integers, got %r" % text)


def _parse_word(text: str) -> tuple:
    try:
        word = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ParseError("--word expects comma-separated nonzero integers, got %r" % text)
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
                from .errors import IncompatibleBase
                raise IncompatibleBase("representation does not live on the given quiver")


def _factors_json(pres) -> list:
    return [pres.ring.entry_to_json(d) for d in pres.invariant_factors]


def _hom_ext_report(x: Rep, y: Rep) -> dict:
    he = hom_ext(x, y)
    return {
        "schema": SCHEMA,
        "ring": str(x.ring),
        "homInvariants": _factors_json(he.hom),
        "homIsFree": he.hom.is_free,
        "homFreeRank": he.hom.free_rank,
        "extInvariants": _factors_json(he.ext),
        "extIsFree": he.ext.is_free,
        "extFreeRank": he.ext.free_rank,
    }


def _cmd_ext(args) -> dict:
    x = _override_ring(_load_rep(args.rep_x), args.ring)
    y = _override_ring(_load_rep(args.rep_y), args.ring)
    _check_quiver(args, x, y)
    report = _hom_ext_report(x, y)
    report["verb"] = args.verb
    return report


def _cmd_rigid(args) -> dict:
    x = _override_ring(_load_rep(args.rep), args.ring)
    _check_quiver(args, x)
    return {"schema": SCHEMA, "verb": "rigid", "ring": str(x.ring),
            "dims": list(x.dims), "rigid": is_rigid(x)}


def _cmd_exceptional(args) -> dict:
    x = _override_ring(_load_rep(args.rep), args.ring)
    _check_quiver(args, x)
    return {"schema": SCHEMA, "verb": "exceptional", "ring": str(x.ring),
            "dims": list(x.dims), "exceptional": is_exceptional(x)}


def _cmd_mutate(args) -> dict:
    x = _override_ring(_load_rep(args.rep_x), args.ring)
    y = _override_ring(_load_rep(args.rep_y), args.ring)
    _check_quiver(args, x, y)
    mutate = left_mutate if args.side == "left" else right_mutate
    result: MutationResult = mutate(x, y)
    return {"schema": SCHEMA, "verb": "mutate", "side": args.side,
            "kind": result.kind, "dims": list(result.rep.dims),
            "rep": result.rep.to_json()}


def _cmd_braid(args) -> dict:
    quiver = _load_quiver(args.quiver)
    ring = RingSpec.parse(args.ring) if args.ring else ZZ
    seq = standard_sequence(ring, quiver)
    for letter in _parse_word(args.word):
        seq = braid_act(seq, abs(letter), inverse=letter < 0)
    return {"schema": SCHEMA, "verb": "braid", "ring": str(ring),
            "word": list(_parse_word(args.word)),
            "dims": [list(d) for d in seq.dims_tuple()],
            "items": [item.to_json() for item in seq.items]}


def _cmd_schur(args) -> dict:
    quiver = _load_quiver(args.quiver)
    dims = _parse_dims(args.dims)
    status = schur_root_status(quiver, dims, bound=args.bound)
    if status == "prefilter_false":
        from .errors import NotSchurRoot
        raise NotSchurRoot("dimension vector %s fails the unit quadratic-form test" % (dims,))
    if status == "bounded_false":
        from .errors import BoundExceeded
        raise BoundExceeded("no exceptional representation of dimension %s found "
                            "within total dimension %d" % (dims, args.bound))
    return {"schema": SCHEMA, "verb": "schur", "dims": list(dims),
            "isRealSchurRoot": True, "status": status}


def _cmd_construct(args) -> dict:
    quiver = _load_quiver(args.quiver)
    dims = _parse_dims(args.dims)
    ring = RingSpec.parse(args.ring) if args.ring else ZZ
    rep = exceptional_lattice(quiver, dims, ring, bound=args.bound)
    return {"schema": SCHEMA, "verb": "construct", "ring": str(ring),
            "dims": list(dims), "exceptional": True, "rep": rep.to_json()}


def _cmd_decompose(args) -> dict:
    x = _override_ring(_load_rep(args.rep), args.ring)
    _check_quiver(args, x)
    result = decompose_rigid(x, aux_prime=args.prime, bound=args.bound)
    report = result.to_json()
    report.update({"schema": SCHEMA, "verb": "decompose", "ring": str(x.ring)})
    return report


def _cmd_lift(args) -> dict:
    x = _load_rep(args.rep)
    if not args.ring:
        raise ParseError("lift requires --ring with the ring to lift to")
    source = RingSpec.parse(args.ring)
    lifted = lift_rigid(x, canonical_hom(source, x.ring))
    return {"schema": SCHEMA, "verb": "lift", "ring": str(source),
            "dims": list(lifted.dims), "rigid": True, "rep": lifted.to_json()}


def _cmd_basechange(args) -> dict:
    x = _load_rep(args.rep_x)
    y = _load_rep(args.rep_y)
    _check_quiver(args, x, y)
    if not args.ring:
        raise ParseError("basechange requires --ring with the target ring")
    target = RingSpec.parse(args.ring)
    report = check_base_change(x, y, canonical_hom(x.ring, target))
    return {"schema": SCHEMA, "verb": "basechange",
            "source": str(x.ring), "target": str(target), "ok": report["ok"],
            "transported": _factors_json(report["transported"]),
            "direct": _factors_json(report["direct"])}


def _cmd_verify(args) -> dict:
    report = run_suite(args.suite, seed=args.seed, size=args.size)
    report["schema"] = SCHEMA
    report["verb"] = "verify"
    return report


_HANDLERS = {
    "ext": _cmd_ext,
    "hom": _cmd_ext,
    "rigid": _cmd_rigid,
    "exceptional": _cmd_exceptional,
    "mutate": _cmd_mutate,
    "braid": _cmd_braid,
    "schur": _cmd_schur,
    "construct": _cmd_construct,
    "decompose": _cmd_decompose,
    "lift": _cmd_lift,
    "basechange": _cmd_basechange,
    "verify": _cmd_verify,
}


def _add_common(sub: argparse.ArgumentParser, *names: str) -> None:
    if "quiver" in names:
        sub.add_argument("--quiver", help="quiver JSON file")
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
        sub.add_argument("--bound", type=int, default=_default_bound(),
                         help="total-dimension search bound (default 60 or QUIVLAT_BOUND)")
    if "prime" in names:
        sub.add_argument("--prime", type=int, default=2,
                         help="auxiliary prime for decomposition checks (default 2)")
    sub.add_argument("--format", choices=("text", "json"), default="text",
                     help="output format (default text)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quivlat",
        description="Homological invariants and structure theory of quiver "
                    "representations over exact rings.")
    verbs = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    for verb in ("ext", "hom"):
        sub = verbs.add_parser(verb, help="Hom and Ext invariants of a pair")
        _add_common(sub, "quiver", "pair", "ring")
    sub = verbs.add_parser("rigid", help="test vanishing of self-extensions")
    _add_common(sub, "quiver", "rep", "ring")
    sub = verbs.add_parser("exceptional", help="test rigidity plus trivial endomorphisms")
    _add_common(sub, "quiver", "rep", "ring")
    sub = verbs.add_parser("mutate", help="mutate an exceptional pair")
    _add_common(sub, "quiver", "pair", "ring")
    sub.add_argument("--side", choices=("left", "right"), default="left",
                     help="mutation side (default left)")
    sub = verbs.add_parser("braid", help="act on the standard exceptional sequence")
    _add_common(sub, "quiver", "ring")
    sub.add_argument("--word", default="1",
                     help="comma-separated braid letters; negative means inverse (default 1)")
    sub = verbs.add_parser("schur", help="classify a dimension vector")
    _add_common(sub, "quiver", "dims", "bound")
    sub = verbs.add_parser("construct", help="build the exceptional representation of a root")
    _add_common(sub, "quiver", "dims", "ring", "bound")
    sub = verbs.add_parser("decompose", help="split a rigid representation into exceptional summands")
    _add_common(sub, "quiver", "rep", "ring", "prime", "bound")
    sub = verbs.add_parser("lift", help="lift a rigid representation along a nilpotent reduction")
    _add_common(sub, "rep", "ring")
    sub = verbs.add_parser("basechange", help="compare transported and recomputed invariants")
    _add_common(sub, "quiver", "pair", "ring")
    sub = verbs.add_parser("verify", help="run a randomized self-check suite")
    sub.add_argument("suite", choices=SUITES)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--size", type=int, default=20)
    sub.add_argument("--format", choices=("text", "json"), default="text")
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
        report = _HANDLERS[args.verb](args)
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
    _emit(report, fmt)
    return 0


if __name__ == "__main__":
    sys.exit(main())
