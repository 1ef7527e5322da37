"""Batch command line: scene files in, JSON (or plain tables) out.

Exit codes: 0 success, 1 input error (usage errors too), 2 resource budget
exceeded (the Groebner pair budget or memory), 3 internal invariant violation
(a bug: d∘d != 0 or similar) or any other unexpected exception, reported in
one line without a traceback.
Identical inputs produce byte-identical JSON (sorted keys throughout).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import groebner
from .complexes import (
    build_de_rham,
    build_jet_complex,
    build_koszul,
    homology_table,
)
from .completion import (
    completed_complex,
    derived_completion,
    embedding_independence,
    tower_limit,
)
from .diffops import filtered_spencer, kashiwara_quotient, pushforward_point
from .errors import BudgetExceeded, InternalInvariantError, SpencerlabError
from .homotopy import acyclicity_certificate, cartan_check, euler_derivation
from .invariants import jacobian_smoothness, milnor_tjurina, spencer_h0
from .rings import AffineScene, Ideal, WeightedRing, parse_polynomial
from .scenes import load_scene, scene_json

BUDGET_ENV = "SPENCERLAB_BUDGET"


def _pair_budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return groebner.DEFAULT_PAIR_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise SpencerlabError(f"{BUDGET_ENV} must be an integer, got {raw!r}")


def _ambient(scene: AffineScene) -> AffineScene:
    return AffineScene(scene.ring, Ideal(()))


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    lines = []

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(f"{prefix}{k}.", obj[k])
        elif isinstance(obj, list):
            lines.append(f"{prefix[:-1]}\t{' '.join(str(x) for x in obj)}")
        else:
            lines.append(f"{prefix[:-1]}\t{obj}")

    walk("", payload)
    return "\n".join(lines) + "\n"


def _complex_for(scene: AffineScene, spec: str):
    if spec == "derham":
        return build_de_rham(scene)
    return build_jet_complex(scene, int(spec[3:]))


def cmd_derham(scene, args):
    table = homology_table(build_de_rham(scene), args.degree_bound)
    return {"tables": table.table_json()}

def cmd_jet(scene, args):
    table = homology_table(build_jet_complex(scene, args.r), args.degree_bound)
    return {"r": args.r, "tables": table.table_json()}


def cmd_spencer(scene, args):
    form_degree = {"O": 0, "omega1": 1, "omega-top": scene.ring.nvars}[args.module]
    table = pushforward_point(form_degree, scene, args.degree_bound)
    return {"module": args.module, "tables": table.table_json()}


def cmd_koszul(scene, args):
    elements = [parse_polynomial(e, scene.ring) for e in args.elements]
    table = homology_table(build_koszul(scene, elements), args.degree_bound)
    return {"elements": list(args.elements), "tables": table.table_json()}


def cmd_filtered_spencer(scene, args):
    ring = scene.ring
    if args.n is not None and args.n != ring.nvars:
        ring = WeightedRing(
            tuple(f"x{k+1}" for k in range(args.n)), (1,) * args.n
        )
    cx = filtered_spencer(ring, args.p)
    table = homology_table(cx, args.degree_bound)
    return {"n": ring.nvars, "p": args.p, "tables": table.table_json()}


def cmd_kashiwara(scene, args):
    if scene.ideal.is_trivial:
        raise SpencerlabError("kashiwara needs a scene with a nonempty ideal")
    kq = kashiwara_quotient(scene, args.p, args.degree_bound)
    return {"kashiwara": kq.to_json()}


def cmd_euler_certify(scene, args):
    cx = _complex_for(scene, args.complex)
    xi = euler_derivation(scene)
    report = cartan_check(xi, cx, args.degree_bound)
    cert = acyclicity_certificate(xi, cx, args.degree_bound)
    return {
        "complex": args.complex,
        "cartan": report.to_json(),
        "certificate": cert.to_json(),
    }


def cmd_milnor(scene, args):
    if len(scene.ideal.generators) != 1:
        raise SpencerlabError("milnor needs a hypersurface scene (one generator)")
    mt = milnor_tjurina(scene.ideal.generators[0], pair_budget=_pair_budget())
    return mt.to_json(scene.ring)


def cmd_smooth(scene, args):
    return jacobian_smoothness(scene, pair_budget=_pair_budget()).to_json()


def cmd_spencer_h0(scene, args):
    return {"spencer_h0": spencer_h0(scene, args.degree_bound).to_json()}


def cmd_complete(scene, args):
    if args.along == "self":
        if scene.ideal.is_trivial:
            raise SpencerlabError("complete --along self needs a nonempty ideal")
        ideal = scene.ideal
        base = _ambient(scene)
    else:
        other = load_scene(args.along)
        if other.ring != scene.ring:
            raise SpencerlabError("completion ideal must live in the scene ring")
        ideal = other.ideal
        base = scene
    tower = completed_complex(build_de_rham(base), ideal, args.r_max)
    report = tower_limit(tower, args.degree_bound)
    return {"r_max": args.r_max, "limits": report.to_json()}


def cmd_derived_complete(scene, args):
    if scene.ideal.is_trivial:
        raise SpencerlabError("derived-complete needs a scene with a nonempty ideal")
    base = _ambient(scene) if args.module == "O" else scene
    _tower, report = derived_completion(
        base, scene.ideal, args.r_max, args.degree_bound
    )
    return {"module": args.module, "r_max": args.r_max, "limits": report.to_json()}


def cmd_independence(scene, args):
    big = load_scene(args.extended_scene)
    report = embedding_independence(
        scene, big, args.r_max, args.degree_bound, spencer_order=args.p
    )
    return {"independence": report.to_json()}


COMMANDS = {
    "derham": cmd_derham,
    "jet": cmd_jet,
    "spencer": cmd_spencer,
    "koszul": cmd_koszul,
    "filtered-spencer": cmd_filtered_spencer,
    "kashiwara": cmd_kashiwara,
    "euler-certify": cmd_euler_certify,
    "milnor": cmd_milnor,
    "smooth": cmd_smooth,
    "spencer-h0": cmd_spencer_h0,
    "complete": cmd_complete,
    "derived-complete": cmd_derived_complete,
    "independence": cmd_independence,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is an input error: exit 1, not 2
        raise SpencerlabError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spencerlab",
        description="Exact graded homology of complexes on weighted affine cones.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("scene", help="scene file")
        p.add_argument("--degree-bound", type=int, default=8, metavar="D")
        p.add_argument("--format", choices=("json", "table"), default="json")

    common(sub.add_parser("derham", help="de Rham homology table"))

    p = sub.add_parser("jet", help="jet complex homology table")
    common(p)
    p.add_argument("--r", type=int, default=1, choices=(0, 1, 2))

    p = sub.add_parser("spencer", help="Spencer pushforward table (smooth scenes)")
    common(p)
    p.add_argument("--module", choices=("O", "omega1", "omega-top"), default="O")

    p = sub.add_parser("koszul", help="Koszul homology of given elements")
    common(p)
    p.add_argument("--elements", nargs="+", required=True, metavar="POLY")

    p = sub.add_parser("filtered-spencer", help="truncated Spencer resolution")
    common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=int, required=True)

    p = sub.add_parser("kashiwara", help="F^p D / I F^p D components")
    common(p)
    p.add_argument("--p", type=int, required=True)

    p = sub.add_parser("euler-certify", help="Cartan check plus acyclicity certificate")
    common(p)
    p.add_argument("--complex", choices=("derham", "jet0", "jet1", "jet2"),
                   default="derham")

    common(sub.add_parser("milnor", help="Milnor and Tjurina numbers"))
    common(sub.add_parser("smooth", help="Jacobian smoothness test"))
    common(sub.add_parser("spencer-h0", help="degreewise O_Y/alpha(T_Y)"))

    p = sub.add_parser("complete", help="completed de Rham tower limits")
    common(p)
    p.add_argument("--along", default="self", metavar="IDEAL",
                   help="'self' (scene ideal) or a scene file with the ideal")
    p.add_argument("--r-max", type=int, default=4)

    p = sub.add_parser("derived-complete", help="derived completion limits")
    common(p)
    p.add_argument("--module", choices=("O", "OY"), default="O")
    p.add_argument("--r-max", type=int, default=5)

    p = sub.add_parser("independence", help="embedding independence report")
    common(p)
    p.add_argument("--extended-scene", required=True, metavar="FILE")
    p.add_argument("--r-max", type=int, default=4)
    p.add_argument("--p", type=int, default=None,
                   help="also compare completed filtered Spencer at this order")
    return parser


def _check_args(args):
    """Reject option values that no command can run with (exit 1)."""
    if args.degree_bound < 0:
        raise SpencerlabError(f"--degree-bound must be at least 0, got {args.degree_bound}")
    if getattr(args, "r_max", 1) < 1:
        raise SpencerlabError(f"--r-max must be at least 1, got {args.r_max}")
    if getattr(args, "n", None) is not None and args.n < 1:
        raise SpencerlabError(f"--n must be at least 1, got {args.n}")


def main(argv=None) -> int:
    command = "spencerlab"
    try:
        args = build_parser().parse_args(argv)
        command = args.command
        _check_args(args)
        scene = load_scene(args.scene)
        payload = {
            "command": args.command,
            "scene": scene_json(scene),
            "degree_bound": args.degree_bound,
        }
        payload.update(COMMANDS[args.command](scene, args))
        sys.stdout.write(_render(payload, args.format))
        return 0
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # memory is an exhausted resource, not a bug
        print(f"budget exceeded: memory exhausted during {command}", file=sys.stderr)
        return 2
    except SpencerlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a bug outside the checked invariants
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
