"""Command-line front end: JSON in, deterministic JSON out.

Exit codes: 0 success, 2 invalid input (non-convex, non-smooth, bad JSON),
3 certification or derivation failure.

Each command imports the layers it runs: ``analyze`` and ``verdict`` load
only ``geometry`` and ``polygons``, and ``main`` catches the errors of the
others through ``tropmono.errors``, which imports nothing.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import CertificationError, DerivationError, ReplayError, SmoothnessError
from .geometry import LatticePolygon, point_from_json, seg
from .polygons import analyze

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_FAILED = 3


class InputError(ValueError):
    pass


def _read_json(path: str, what: str):
    """The parsed content of a JSON file; InputError if it cannot be read."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {what}: {exc}")


def _load_polygon(path: str) -> LatticePolygon:
    data = _read_json(path, "polygon")
    try:
        raw = [point_from_json(p) for p in data["vertices"]]
        poly = LatticePolygon(raw)
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"cannot read polygon: {exc}")
    hull = set(poly.vertices)
    for p in raw:
        if p not in hull and poly.side(p) != 0:
            raise InputError("vertex list is not convex")
    return poly


def _emit(payload: dict, out: str | None):
    text = json.dumps(payload, sort_keys=True, indent=1)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _parse_segment(spec: str):
    parts = [int(x) for x in spec.split(",")]
    if len(parts) != 4:
        raise InputError("segment must be x1,y1,x2,y2")
    return seg((parts[0], parts[1]), (parts[2], parts[3]))


def cmd_analyze(args) -> int:
    poly = _load_polygon(args.polygon)
    analysis, verdict = analyze(poly)
    out = {"schema": "1"}
    out.update(analysis.to_json())
    out.update(verdict.to_json())
    _emit(out, args.out)
    return EXIT_OK


def cmd_verdict(args) -> int:
    poly = _load_polygon(args.polygon)
    analysis, verdict = analyze(poly)
    out = {"schema": "1", "g": analysis.genus, "d": analysis.d, "n": analysis.n}
    out.update(verdict.to_json())
    _emit(out, args.out)
    return EXIT_OK


def cmd_subdivide(args) -> int:
    from .subdivision import (
        HeightFunction,
        dual_tropical_curve,
        subdivision_from_heights,
        trivial_subdivision,
        unimodular_refinement,
    )

    poly = _load_polygon(args.polygon)
    if args.heights:
        data = _read_json(args.heights, "heights")
        if not isinstance(data, dict) or "heights" not in data:
            raise InputError('height file needs a "heights" entry')
        hf = HeightFunction.from_json(data["heights"])
        sub_div = subdivision_from_heights(poly, hf)
    else:
        sub_div = trivial_subdivision(poly)
    if args.refine:
        sub_div = unimodular_refinement(sub_div)
    out = {"schema": "1", "subdivision": sub_div.to_json(),
           "unimodular": sub_div.is_unimodular()}
    if args.dual:
        out["tropical_curve"] = dual_tropical_curve(sub_div).to_json()
    _emit(out, args.out)
    return EXIT_OK


def cmd_snake(args) -> int:
    from .graphs import build_snake

    poly = _load_polygon(args.polygon)
    analyze(poly)
    sn = build_snake(poly)
    _emit({"schema": "1", "snake": sn.to_json()}, args.out)
    return EXIT_OK


def cmd_graph(args) -> int:
    from . import builders

    poly = _load_polygon(args.polygon)
    analyze(poly)
    fam = args.family
    params = [int(x) for x in args.params.split(",")] if args.params else []

    def num(i):
        if i >= len(params):
            raise InputError(f"family {fam} needs more than {len(params)} --params")
        return params[i]

    def pt(i):
        return (num(i), num(i + 1))

    if fam == "corner":
        res = builders.build_corner_graph(poly, pt(0))
    elif fam == "side":
        res = builders.build_side_graph(poly, (pt(0), pt(2)))
    elif fam == "propagation":
        res = builders.build_propagation_graph(poly, pt(0), pt(2), num(4))
    elif fam == "gcd1":
        res = builders.build_gcd1_graph(poly, pt(0), num(2), num(3), pt(4))
    elif fam == "gcd2":
        first, second = builders.build_gcd2_graphs(poly, pt(0), num(2), pt(3))
        out = {
            "schema": "1",
            "graphs": [first.graph.to_json(), second.graph.to_json()],
            "certificates": [
                first.certificate.to_json(),
                second.certificate.to_json(),
            ],
        }
        _emit(out, args.out)
        return EXIT_OK
    elif fam == "gcdedges":
        res = builders.build_gcdedges_graph(poly, pt(0), pt(2))
    elif fam in ("raysweep", "divisible"):
        orientation = "k'k" if args.swap else "kk'"
        if fam == "raysweep":
            rs = builders.build_ray_sweep(poly, pt(0), pt(2), pt(4), num(6), num(7), orientation)
        else:
            rs = builders.build_divisible_ray_sweep(
                poly, num(0), pt(1), pt(3), pt(5), num(7), num(8), orientation
            )
        cert = builders.certify_flexible(
            rs.graph, poly, [rs], allow_unbalanced_at=frozenset({rs.v})
        )
        out = {"schema": "1", "graph": rs.graph.to_json(),
               "chain": [list(p) for p in rs.chain],
               "certificate": cert.to_json()}
        _emit(out, args.out)
        return EXIT_OK
    elif fam == "interior":
        res = builders.build_interior_graph(poly, seg(pt(0), pt(2)))
    else:
        raise InputError(f"unknown family {fam}")
    out = {"schema": "1", "graph": res.graph.to_json()}
    if res.certificate is not None:
        out["certificate"] = res.certificate.to_json()
    _emit(out, args.out)
    return EXIT_OK


def cmd_derive(args) -> int:
    from .engine import Engine

    poly = _load_polygon(args.polygon)
    _emit(Engine(poly).derive_surjectivity(), args.out)
    return EXIT_OK


def cmd_certify(args) -> int:
    poly = _load_polygon(args.polygon)
    sigma = _parse_segment(args.segment)
    if not poly.contains_segment(sigma):
        raise InputError(f"{sigma} leaves the polygon")
    # no builder reaches the hyperelliptic case: say so before loading them
    if analyze(poly)[0].d == 1:
        raise DerivationError("certify", "hyperelliptic case deferred")
    from .engine import GEOMETRIC, HOMOLOGICAL, Engine

    engine = Engine(poly)
    engine.derive_surjectivity()
    flavor = HOMOLOGICAL if args.homological else GEOMETRIC
    key = engine.key_of(sigma)
    got = engine.fact(flavor, key)
    if got is None:
        try:
            engine.derive_segment(sigma, flavor)
        except DerivationError:
            pass
        got = engine.fact(flavor, key)
    if got is None:
        raise DerivationError("certify", f"no derivable fact for {sigma}")
    exponent, node = got
    if key[0] == "bridge":
        node = engine.bridge_transfer(sigma, flavor)
    out = {
        "schema": "1",
        "segment": [list(sigma[0]), list(sigma[1])],
        "flavor": flavor,
        "exponent": exponent,
        "certificate": engine.minimal_subdag(node),
    }
    _emit(out, args.out)
    return EXIT_OK


def cmd_homology(args) -> int:
    from .homology import Loop, SurfaceModel

    poly = _load_polygon(args.polygon)
    analyze(poly)
    surf = SurfaceModel(poly)
    spec = args.loop
    if spec.startswith("v:"):
        x, y = (int(t) for t in spec[2:].split(","))
        loop = Loop.acycle((x, y))
    elif spec.startswith("s:"):
        loop = Loop.of_segment(_parse_segment(spec[2:]))
    else:
        raise InputError("loop must be v:x,y or s:x1,y1,x2,y2")
    out = {
        "schema": "1",
        "genus": surf.genus,
        "class": surf.loop_class(loop),
        "twist_matrix": surf.dehn_twist_matrix(loop),
    }
    _emit(out, args.out)
    return EXIT_OK


def cmd_replay(args) -> int:
    from .engine import replay_certificate

    data = _read_json(args.certificate, "certificate")
    if isinstance(data, dict) and "certificate" in data and "nodes" not in data:
        data = data["certificate"]
    replay_certificate(data)
    _emit({"schema": "1", "replay": "ok"}, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tropmono",
        description="monodromy surjectivity certificates for curves in toric surfaces",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("polygon", help="polygon JSON file")
        p.add_argument("--out", help="write the JSON report here")

    p = sub.add_parser("analyze", help="polygon analysis and verdicts")
    common(p)
    p.set_defaults(func=cmd_analyze)
    p = sub.add_parser("verdict", help="just the surjectivity verdicts")
    common(p)
    p.set_defaults(func=cmd_verdict)
    p = sub.add_parser("subdivide", help="regular subdivisions and dual curves")
    common(p)
    p.add_argument("--heights", help="height function JSON file")
    p.add_argument("--refine", action="store_true", help="unimodular refinement")
    p.add_argument("--dual", action="store_true", help="emit the dual tropical curve")
    p.set_defaults(func=cmd_subdivide)
    p = sub.add_parser("snake", help="a Humphries snake for the polygon")
    common(p)
    p.set_defaults(func=cmd_snake)
    p = sub.add_parser("graph", help="build a weighted graph family member")
    common(p)
    p.add_argument("--family", required=True,
                   choices=["corner", "side", "propagation", "gcd1", "gcd2",
                            "gcdedges", "raysweep", "divisible", "interior"])
    p.add_argument("--params", default="", help="comma-separated integers")
    p.add_argument("--swap", action="store_true", help="swap sweep orientation")
    p.set_defaults(func=cmd_graph)
    p = sub.add_parser("derive", help="verdict report with its certificate")
    common(p)
    p.set_defaults(func=cmd_derive)
    p = sub.add_parser("certify", help="certificate for a segment twist power")
    common(p)
    p.add_argument("--segment", required=True, help="x1,y1,x2,y2")
    p.add_argument("--homological", action="store_true")
    p.set_defaults(func=cmd_certify)
    p = sub.add_parser("homology", help="loop class and twist matrix")
    common(p)
    p.add_argument("--loop", required=True, help="v:x,y or s:x1,y1,x2,y2")
    p.set_defaults(func=cmd_homology)
    p = sub.add_parser("replay", help="replay a certificate file")
    p.add_argument("certificate", help="certificate JSON file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_replay)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (CertificationError, DerivationError, ReplayError) as exc:
        # before ValueError: CertificationError and ReplayError subclass it
        sys.stderr.write(f"certification failed: {exc}\n")
        return EXIT_FAILED
    except (InputError, SmoothnessError, ValueError) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
