"""Command-line front end.

Subcommands: info, ehrhart, wsum, gfun, todd, gpoly, corpus.  Input files
are JSON ({"vertices": [...]} for polytopes, {"vars": n, "terms": [...]}
for weights).  Exit codes: 0 success, 1 validation failure or usage error
with a structured error, 2 invariant violation with both sides printed.
"""
from __future__ import annotations

import argparse
import json
import sys

from .algebra import MultiPoly, WeightPoly, scalar_to_str
from .corpus import random_corpus
from .facepoly import GradedPoset, check_master_duality, dual_g, fg_polynomials, h_polynomial
from .gfun import build_gfun, check_reciprocity, reciprocity_image, y_coefficient_profile
from .polytope import Polytope, build_polytope, volume
from .todd import apply_todd
from .wsum import weighted_sum_poly

#: Largest ``corpus --count`` accepted; 1,000 polytopes take under a second.
MAX_CORPUS_COUNT = 1000


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path!r}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"malformed JSON in {path!r}: {exc.msg} at line {exc.lineno} column {exc.colno}")
    except RecursionError:  # a RuntimeError, which would read as a broken invariant
        raise ValueError(f"malformed JSON in {path!r}: nested too deeply")


def _poly_pretty(poly: MultiPoly) -> str:
    """Lay the terms out by descending y-power, then by descending q-power:
    one chunk of q-terms per power of y, matching the usual display layout."""
    if not set(poly.vars) <= {"q", "y"}:
        return str(poly)
    layers: dict[int, list] = {}
    for exps, c in poly.terms.items():
        power = dict(zip(poly.vars, exps))
        layers.setdefault(power.get("y", 0), []).append((power.get("q", 0), c))
    chunks = []
    for p in sorted(layers, reverse=True):
        terms = []
        for i, c in sorted(layers[p], reverse=True):
            mag = scalar_to_str(abs(c))
            body = "" if i == 0 else ("q" if i == 1 else f"q^{i}")
            piece = mag if not body else body if mag == "1" else f"{mag} {body}"
            terms.append(("- " if c < 0 else "+ ") + piece)
        inner = " ".join(terms)
        inner = inner[2:] if inner.startswith("+ ") else "-" + inner[2:]
        ylabel = "" if p == 0 else ("y" if p == 1 else f"y^{p}")
        chunks.append(f"({inner}) {ylabel}" if ylabel else inner)
    return "  +  ".join(chunks) if chunks else "0"


def _to_json(value):
    """The JSON form of a polynomial (``MultiPoly.to_json``) or a rational."""
    return value.to_json() if isinstance(value, MultiPoly) else scalar_to_str(value)


def _emit(payload: dict, fmt: str) -> None:
    """Print the payload as JSON, its polynomials and rationals by ``_to_json``,
    or one line per key, a top-level polynomial laid out by ``_poly_pretty``."""
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":"), default=_to_json))
        return
    for key, value in payload.items():
        if isinstance(value, MultiPoly):
            print(f"{key}: {_poly_pretty(value)}")
        else:
            print(f"{key}: {json.dumps(value, sort_keys=True, default=_to_json)}")


def _face_from_arg(P: Polytope, arg: str | None):
    if arg is None:
        return P.top_face()
    indices = set()
    for entry in filter(None, arg.split(",")):
        try:
            indices.add(int(entry))
        except ValueError:
            raise ValueError(f"--face entry {entry!r} is not an integer") from None
    lattice = P.face_lattice
    try:
        return lattice.faces[lattice.index_of(indices)]
    except KeyError:
        raise ValueError(f"no face has vertex indices {sorted(indices)}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1 with a JSON error, not 2
        raise ValueError(f"{self.prog}: {message}")


def main(argv=None) -> int:
    # --format is accepted before or after the subcommand; it has no default
    # of its own, so a subcommand never overwrites one given before it
    fmt = _Parser(add_help=False)
    fmt.add_argument("--format", choices=("json", "pretty"), default=argparse.SUPPRESS)
    polytope = _Parser(add_help=False, parents=[fmt])
    polytope.add_argument("--polytope", required=True)
    weighted = _Parser(add_help=False, parents=[polytope])
    weighted.add_argument("--phi")

    parser = _Parser(
        prog="latticegfun", parents=[fmt],
        description="Exact lattice-point generating functions and Todd-operator summation")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("info", parents=[polytope], help="f-vector, simplicity, volume")
    p = sub.add_parser("ehrhart", parents=[polytope],
                       help="closed and interior counting polynomials")
    p.set_defaults(phi=None, face=None)  # wsum of the polytope with weight 1
    p = sub.add_parser("wsum", parents=[weighted], help="weighted sums of one face")
    p.add_argument("--face", help="comma-separated vertex indices; default: the polytope")
    p = sub.add_parser("gfun", parents=[weighted], help="two-variable generating function")
    p.add_argument("--check-reciprocity", action="store_true")
    p.add_argument("--profile", action="store_true")
    p = sub.add_parser("todd", parents=[weighted],
                       help="Todd operator applied to the deformed integral")
    p.add_argument("--verify", action="store_true")
    sub.add_parser("gpoly", parents=[polytope], help="f/g/h polynomials and master duality")
    p = sub.add_parser("corpus", parents=[fmt], help="seeded random lattice polytopes")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--max-coord", type=int, default=3)

    try:
        args = parser.parse_args(argv, argparse.Namespace(format="pretty"))
        payload, status = _dispatch(args)
    except ValueError as exc:
        print(json.dumps({"error": str(exc)}))
        return 1
    except RuntimeError as exc:
        print(json.dumps({"error": str(exc), "kind": "invariant-violation"}))
        return 2
    # exact results may pass CPython's int-to-str limit: lifted for the output only
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        _emit(payload, args.format)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return status


def _dispatch(args) -> tuple[dict, int]:
    """The payload of one parsed call and its exit status."""
    if args.command == "corpus":
        if args.count > MAX_CORPUS_COUNT:
            raise ValueError(f"corpus count must be at most {MAX_CORPUS_COUNT}")
        polys = random_corpus(args.seed, args.count, args.dim, args.max_coord)
        return {"polytopes": [P.to_json() for P in polys]}, 0

    obj = _load_json(args.polytope)
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise ValueError(f"{args.polytope!r} must be a JSON object with a 'vertices' key")
    P = build_polytope(obj["vertices"])
    if args.command == "info":
        return {
            "ambient_dim": P.ambient_dim,
            "vertices": [list(v) for v in P.vertices],
            "facets": [{"normal": list(h.normal), "offset": h.offset} for h in P.halfspaces],
            "f_vector": list(P.face_lattice.f_vector()),
            "simple": P.simple,
            "volume": volume(P),
        }, 0

    if args.command == "gpoly":
        lattice = P.face_lattice
        poset = GradedPoset.from_face_lattice(lattice)
        f, g = fg_polynomials(poset)
        faces = [lattice.faces[i] for i in lattice.nonempty()]
        duals = {",".join(map(str, sorted(F.vertex_indices))): dual_g(P, F) for F in faces}
        return {
            "h_poly": h_polynomial(P),
            "f_poly": f,
            "g_poly": g,
            "dual_g": duals,
            "master_duality": check_master_duality(poset),
        }, 0

    n = P.ambient_dim
    phi = WeightPoly.one(n) if args.phi is None else WeightPoly.from_json(_load_json(args.phi), n)
    if args.command in ("ehrhart", "wsum"):
        face = _face_from_arg(P, args.face)
        wsp = weighted_sum_poly(P, face, phi)[face]
        return {"face": sorted(face.vertex_indices), "closed": wsp.closed, "open": wsp.open}, 0

    if args.command == "todd":
        result = apply_todd(P, phi)
        if not args.verify:
            return {"todd": result}, 0
        G = build_gfun(P, phi)
        ok = result == G.poly
        return {"todd": result, "verified": ok, "gfun": G.poly}, 0 if ok else 2

    G = build_gfun(P, phi)  # gfun
    payload, status = {"gfun": G.poly}, 0
    if args.check_reciprocity:
        payload["reciprocity"] = ok = check_reciprocity(G)
        if not ok:
            payload["transformed"] = reciprocity_image(G)
            status = 2
    if args.profile:
        payload["profile"] = y_coefficient_profile(G)
    return payload, status


if __name__ == "__main__":
    sys.exit(main())
