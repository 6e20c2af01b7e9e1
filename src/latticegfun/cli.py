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

from .algebra import MultiPoly, scalar_to_str
from .corpus import random_corpus
from .facepoly import GradedPoset, check_master_duality, dual_g, fg_polynomials, h_polynomial
from .gfun import build_gfun, check_reciprocity, reciprocity_image, y_coefficient_profile
from .polytope import Polytope, build_polytope, volume
from .todd import apply_todd
from .wsum import WeightPoly, weighted_sum_poly

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


def _load_polytope(path: str) -> Polytope:
    obj = _load_json(path)
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise ValueError(f"{path!r} must be a JSON object with a 'vertices' key")
    return build_polytope(obj["vertices"])


def _load_phi(path: str | None, nvars: int) -> WeightPoly:
    if path is None:
        return WeightPoly.one(nvars)
    return WeightPoly.from_json(_load_json(path), nvars)


def _poly_pretty(poly: MultiPoly) -> str:
    """Group by descending y-power, then print the q-coefficients with
    descending powers, matching the usual display layout."""
    if not set(poly.vars) <= {"q", "y"}:
        return str(poly)
    layers = poly.coefficients_in("y")
    if not layers:
        return "0"
    chunks = []
    for p in sorted(layers, reverse=True):
        layer = layers[p]
        terms = []
        qparts = layer.coefficients_in("q")
        for i in sorted(qparts, reverse=True):
            c = qparts[i].constant_value()
            if not c:
                continue
            mag = scalar_to_str(abs(c))
            body = "" if i == 0 else ("q" if i == 1 else f"q^{i}")
            if body and mag == "1":
                piece = body
            elif body:
                piece = f"{mag} {body}"
            else:
                piece = mag
            terms.append(("- " if c < 0 else "+ ") + piece)
        if not terms:
            continue
        inner = " ".join(terms)
        inner = inner[2:] if inner.startswith("+ ") else "-" + inner[2:]
        if p == 0:
            chunks.append(inner)
        else:
            ylabel = "y" if p == 1 else f"y^{p}"
            chunks.append(f"({inner}) {ylabel}")
    return "  +  ".join(chunks) if chunks else "0"


def _emit(payload: dict, fmt: str, pretty_keys: tuple[str, ...] = ()) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        return
    for key, value in payload.items():
        if key in pretty_keys and isinstance(value, dict) and "vars" in value:
            print(f"{key}: {_poly_pretty(MultiPoly.from_json(value))}")
        else:
            print(f"{key}: {json.dumps(value, sort_keys=True)}")


def _face_from_arg(P: Polytope, arg: str | None):
    if arg is None:
        return P.top_face()
    indices = frozenset(int(x) for x in arg.split(",") if x != "")
    lattice = P.face_lattice
    try:
        return lattice.faces[lattice.index_of(indices)]
    except KeyError:
        raise ValueError(f"no face has vertex indices {sorted(indices)}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1 with a JSON error, not 2
        raise ValueError(f"{self.prog}: {message}")


def main(argv=None) -> int:
    parser = _Parser(
        prog="latticegfun",
        description="Exact lattice-point generating functions and Todd-operator summation")
    parser.add_argument("--format", choices=("json", "pretty"), default="pretty")
    # also accepted after the subcommand
    shared = _Parser(add_help=False)
    shared.add_argument("--format", choices=("json", "pretty"),
                        default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", parents=[shared],
                            help="f-vector, simplicity, volume")
    p_info.add_argument("--polytope", required=True)

    p_ehr = sub.add_parser("ehrhart", parents=[shared],
                           help="closed and interior counting polynomials")
    p_ehr.add_argument("--polytope", required=True)
    p_ehr.set_defaults(phi=None, face=None)  # wsum of the polytope with weight 1

    p_wsum = sub.add_parser("wsum", parents=[shared], help="weighted sums of one face")
    p_wsum.add_argument("--polytope", required=True)
    p_wsum.add_argument("--phi")
    p_wsum.add_argument("--face", help="comma-separated vertex indices; default: the polytope")

    p_gfun = sub.add_parser("gfun", parents=[shared],
                            help="two-variable generating function")
    p_gfun.add_argument("--polytope", required=True)
    p_gfun.add_argument("--phi")
    p_gfun.add_argument("--check-reciprocity", action="store_true")
    p_gfun.add_argument("--profile", action="store_true")

    p_todd = sub.add_parser("todd", parents=[shared],
                            help="Todd operator applied to the deformed integral")
    p_todd.add_argument("--polytope", required=True)
    p_todd.add_argument("--phi")
    p_todd.add_argument("--verify", action="store_true")

    p_gpoly = sub.add_parser("gpoly", parents=[shared],
                             help="f/g/h polynomials and master duality")
    p_gpoly.add_argument("--polytope", required=True)

    p_corpus = sub.add_parser("corpus", parents=[shared],
                              help="seeded random lattice polytopes")
    p_corpus.add_argument("--seed", type=int, required=True)
    p_corpus.add_argument("--count", type=int, required=True)
    p_corpus.add_argument("--dim", type=int, required=True)
    p_corpus.add_argument("--max-coord", type=int, default=3)

    try:
        return _dispatch(parser.parse_args(argv))
    except ValueError as exc:
        print(json.dumps({"error": str(exc)}))
        return 1
    except RuntimeError as exc:
        print(json.dumps({"error": str(exc), "kind": "invariant-violation"}))
        return 2


def _dispatch(args) -> int:
    fmt = args.format
    if args.command == "info":
        P = _load_polytope(args.polytope)
        payload = {
            "ambient_dim": P.ambient_dim,
            "vertices": [list(v) for v in P.vertices],
            "facets": [{"normal": list(h.normal), "offset": h.offset} for h in P.halfspaces],
            "f_vector": list(P.face_lattice.f_vector()),
            "simple": P.simple,
            "volume": scalar_to_str(volume(P)),
        }
        _emit(payload, fmt)
        return 0

    if args.command in ("ehrhart", "wsum"):
        P = _load_polytope(args.polytope)
        phi = _load_phi(args.phi, P.ambient_dim)
        face = _face_from_arg(P, args.face)
        wsp = weighted_sum_poly(P, face, phi)[face]
        payload = {
            "face": sorted(face.vertex_indices),
            "closed": wsp.closed.to_json(),
            "open": wsp.open.to_json(),
        }
        _emit(payload, fmt, pretty_keys=("closed", "open"))
        return 0

    if args.command == "gfun":
        P = _load_polytope(args.polytope)
        phi = _load_phi(args.phi, P.ambient_dim)
        G = build_gfun(P, phi)
        payload = {"gfun": G.poly.to_json()}
        status = 0
        if args.check_reciprocity:
            ok = check_reciprocity(G)
            payload["reciprocity"] = ok
            if not ok:
                payload["transformed"] = reciprocity_image(G).to_json()
                status = 2
        if args.profile:
            payload["profile"] = [layer.to_json() for layer in y_coefficient_profile(G)]
        _emit(payload, fmt, pretty_keys=("gfun", "transformed"))
        return status

    if args.command == "todd":
        P = _load_polytope(args.polytope)
        phi = _load_phi(args.phi, P.ambient_dim)
        result = apply_todd(P, phi)
        payload = {"todd": result.to_json()}
        status = 0
        if args.verify:
            G = build_gfun(P, phi)
            ok = result == G.poly
            payload["verified"] = ok
            payload["gfun"] = G.poly.to_json()
            if not ok:
                status = 2
        _emit(payload, fmt, pretty_keys=("todd", "gfun"))
        return status

    if args.command == "gpoly":
        P = _load_polytope(args.polytope)
        poset = GradedPoset.from_face_lattice(P.face_lattice)
        f, g = fg_polynomials(poset)
        lattice = P.face_lattice
        duals = {}
        for i in lattice.nonempty():
            face = lattice.faces[i]
            duals[",".join(str(v) for v in sorted(face.vertex_indices))] = \
                dual_g(P, face).to_json()
        payload = {
            "h_poly": h_polynomial(P).to_json(),
            "f_poly": f.to_json(),
            "g_poly": g.to_json(),
            "dual_g": duals,
            "master_duality": check_master_duality(poset),
        }
        _emit(payload, fmt, pretty_keys=("h_poly", "f_poly", "g_poly"))
        return 0

    if args.command == "corpus":
        if args.count > MAX_CORPUS_COUNT:
            raise ValueError(f"corpus count must be at most {MAX_CORPUS_COUNT}")
        polys = random_corpus(args.seed, args.count, args.dim, args.max_coord)
        payload = {"polytopes": [P.to_json() for P in polys]}
        _emit(payload, fmt)
        return 0

    raise ValueError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
