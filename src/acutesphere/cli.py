"""Command-line front end.

Subcommands: check, realize, dual, invariants, construct.  Reports are JSON
on stdout with a one-line human summary on stderr.  Exit codes: 0 success /
realizable, 1 obstruction or certified absence, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import __version__
from . import exports
from .duality import solve_dual_general
from .errors import AcuteSphereError, GeometryError, ParseError, ValidationError
from .klein import beta, build_slanted_cube, volume
from .realization import (CombinatorialRefusal, alpha_estimate, project_euclidean,
                          realize_sphere, verify_coinciding_perpendiculars)
from .spherical import from_angles, from_sides, triangle_pqr
from .triangulation import (EdgeLabeling, acute_obstruction, coxeter_face_finite,
                            coxeter_one_ended, diagonal_flip, double,
                            empty_3cycle_obstruction, has_chordless_square,
                            ideal_allright_conditions, is_flag, is_flag_no_separating_square,
                            is_flag_no_square, itoh_face_predicate,
                            low_degree_interior_vertices, maehara_cap, parse_file,
                            separating_cycles, serialize, square_wheel)

EXIT_OK = 0
EXIT_OBSTRUCTION = 1
EXIT_INPUT = 2


def _report(command, args, verdicts, witnesses=(), metrics=None, notes=()):
    return {
        "tool": "acutesphere",
        "version": __version__,
        "command": command,
        "input": getattr(args, "path", None),
        "seed": getattr(args, "seed", None),
        "tolerances": {"tol": getattr(args, "tol", None)},
        "verdicts": verdicts,
        "witnesses": [w.to_json() for w in witnesses if w is not None],
        "metrics": metrics or {},
        "notes": list(notes),
    }


def _emit(report, summary):
    sys.stdout.write(json.dumps(report, indent=1) + "\n")
    print(summary, file=sys.stderr)


def _load(args):
    try:
        return parse_file(args.path)
    except (ParseError, ValidationError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _out_dir(args):
    """The ``--out`` directory, created if needed; an input error (exit 2)
    when it cannot be, for example because a file has its name."""
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"input error: cannot create output directory {args.out}: {exc}",
              file=sys.stderr)
        raise SystemExit(EXIT_INPUT)
    return outdir


def _write_obstruction_svg(outdir, tri, witness):
    (outdir / "obstruction.svg").write_text(
        exports.graph_svg(tri, witness.cycle if witness else ()))


def cmd_check(args):
    tri, labeling = _load(args)
    verdicts = {
        "closed": tri.is_closed,
        "vertices": len(tri.vertices),
        "edges": len(tri._edge_faces),
        "faces": len(tri.faces),
        "flag": is_flag(tri),
    }
    notes = []
    witnesses = []
    chordless = has_chordless_square(tri)
    verdicts["chordless_square"] = chordless is not None
    if chordless:
        witnesses.append(chordless)
    else:
        notes.append("no chordless 4-cycle (all 4-cycles enumerated)")
    seps = separating_cycles(tri)
    verdicts["separating_cycles"] = len(seps)
    witnesses.extend(seps[:20])
    if not seps:
        notes.append("no separating 3- or 4-cycle (all 3-/4-cycles enumerated)")
    verdicts["empty_3cycle_obstruction"] = empty_3cycle_obstruction(tri)
    if tri.is_closed:
        verdicts["flag_no_square"] = is_flag_no_square(tri)
        verdicts["itoh_face_count"] = itoh_face_predicate(len(tri.faces))
        if verdicts["flag"]:
            verdicts["ideal_allright_conditions"] = ideal_allright_conditions(tri)
    else:
        verdicts["flag_no_separating_square"] = is_flag_no_separating_square(tri)
        low = low_degree_interior_vertices(tri)
        verdicts["low_degree_interior_vertices"] = list(low)
        if low:
            notes.append(
                f"interior vertex {low[0]} of degree {tri.degree(low[0])} forces "
                "a non-acute corner (2 pi angle sum)")
        verdicts["boundary_components"] = [list(c) for c in tri.boundary_cycles]
    if args.labels:
        if labeling is None:
            labeling = EdgeLabeling(tri, {})
            notes.append("no labels in file; all-2 labeling assumed")
        faces_finite = all(coxeter_face_finite(*labeling.face_labels(f)) for f in tri.faces)
        verdicts["faces_induce_finite_groups"] = faces_finite
        if tri.is_closed and faces_finite:
            verdicts["coxeter_one_ended"] = coxeter_one_ended(tri, labeling)
    obstruction = acute_obstruction(tri)
    verdicts["acute_realizable"] = obstruction is None
    reason, witness = obstruction or (None, None)
    if witness:
        witnesses.insert(0, witness)
    report = _report("check", args, verdicts, witnesses, notes=notes)
    where = "S^2" if tri.is_closed else "S^2 (planar input)"
    if obstruction is None:
        _emit(report, f"acute-realizable in {where}")
        return EXIT_OK
    _emit(report, f"obstruction found ({witness.kind if witness else reason}); "
                  "not acute-realizable")
    if args.out:
        _write_obstruction_svg(_out_dir(args), tri, witness)
    return EXIT_OBSTRUCTION


def cmd_realize(args):
    tri, _ = _load(args)
    # made before the solve, so an unusable --out fails before the work
    outdir = _out_dir(args) if args.out else None
    try:
        res = realize_sphere(tri, tol=args.tol)
    except CombinatorialRefusal as exc:
        report = _report("realize", args, {"realized": False, "refusal": str(exc)},
                         [exc.witness] if exc.witness else [])
        _emit(report, f"refused: {exc}")
        if outdir:
            _write_obstruction_svg(outdir, tri, exc.witness)
        return EXIT_OBSTRUCTION
    acute = res.acute
    perp = verify_coinciding_perpendiculars(res.realization)
    residuals = res.pattern_residuals
    metrics = {
        "edge_residual": res.residual,
        "margin": res.margin,
        "max_angle": acute.max_angle,
        "min_angle": acute.min_angle,
        "perpendicular_deviation": perp.max_deviation,
        "max_pattern_residual": residuals.max_edge_residual(),
        "min_nonedge_clearance": residuals.min_clearance(),
    }
    verdicts = {"realized": True, "acute": acute.passed,
                "coinciding_perpendiculars": perp.passed}
    report = _report("realize", args, verdicts, metrics=metrics)
    report["realization"] = res.realization.to_json()
    if outdir:
        stem = Path(args.path).stem
        (outdir / f"{stem}.realization.json").write_text(
            exports.realization_json(res.realization, extra={"metrics": metrics}))
        (outdir / f"{stem}.off").write_text(exports.to_off(res.realization))
        (outdir / f"{stem}.svg").write_text(exports.realization_svg(res.realization))
        if res.capping is not None and res.capping.cap_centers:
            eu = project_euclidean(res)
            (outdir / f"{stem}.euclidean.svg").write_text(exports.euclidean_svg(eu))
    _emit(report, f"realized: max angle {acute.max_angle:.6f} "
                  f"(margin {res.margin:.6f}), residual {res.residual:.2e}")
    return EXIT_OK


def _parse_triple(text, kind=float):
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != 3:
        raise ValidationError(f"expected three comma-separated values, got {text!r}")
    try:
        return tuple(kind(p) for p in parts)
    except ValueError:
        raise ValidationError(
            f"expected three {kind.__name__} values, got {text!r}") from None


def cmd_dual(args):
    try:
        a, b, c = _parse_triple(args.triangle)
        R = from_sides(a, b, c)
        if args.target_triangle is not None:
            target = from_angles(*_parse_triple(args.target_triangle))
        else:
            p, q, r = _parse_triple(args.target, int)
            if not coxeter_face_finite(p, q, r):
                raise GeometryError(f"({p},{q},{r}) is not a spherical triangle")
            target = triangle_pqr(p, q, r)
        result = solve_dual_general(R, target)
    except (GeometryError, ValidationError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    witness, certificate = result.witness, result.certificate
    verdicts = {"dual": witness is not None}
    if witness is not None:
        cube = build_slanted_cube(witness)
        vol = volume(cube)
        metrics = {"max_sigma_residual": max(abs(r) for r in witness.residuals),
                   "cube_volume": vol}
        report = _report("dual", args, verdicts, metrics=metrics)
        report["witness"] = witness.to_json()
        report["cube"] = cube.to_json()
        report["cube"]["volume"] = vol
        _emit(report, f"hyperbolically dual: x={witness.x:.12f} y={witness.y:.12f} "
                      f"z={witness.z:.12f}, volume {vol:.12f}")
        return EXIT_OK
    report = _report("dual", args, verdicts)
    report["absence"] = certificate.to_json()
    _emit(report, f"no duality: certified absence ({certificate.reason})")
    return EXIT_OBSTRUCTION


def cmd_invariants(args):
    tri, _ = _load(args)
    if not tri.is_closed:
        print("input error: invariants require a closed triangulation", file=sys.stderr)
        return EXIT_INPUT
    alpha = alpha_estimate(tri, seed=args.seed, tol=args.tol)
    metrics = {"alpha": alpha.value, "alpha_valid_realization": alpha.valid}
    notes = []
    try:
        # without a seeding realization, solve again for the refusal or SolveError
        res = alpha.seeded_from or realize_sphere(tri, tol=args.tol)
        metrics["beta"] = beta(res.realization)
    except CombinatorialRefusal as exc:
        notes.append(f"beta refused: {exc}")
    verdicts = {"flag_no_square": is_flag_no_square(tri)}
    report = _report("invariants", args, verdicts, metrics=metrics, notes=notes)
    beta_txt = f"beta={metrics['beta']:.12f}" if "beta" in metrics else "beta refused"
    alpha_txt = "" if alpha.valid else " (no valid realization)"
    _emit(report, f"alpha={alpha.value:.6f}{alpha_txt}, {beta_txt}")
    return EXIT_OK


def cmd_construct(args):
    try:
        if args.what == "cap":
            if args.arg is None:
                raise ValidationError("construct cap needs n")
            tri = maehara_cap(int(args.arg))
        elif args.what == "wheel":
            tri = square_wheel()
        elif args.what == "double":
            if args.arg is None:
                raise ValidationError("construct double needs a path")
            base, _ = parse_file(args.arg)
            tri = double(base)
        elif args.what == "flip":
            if args.arg is None or args.edge is None:
                raise ValidationError("construct flip needs a path and --edge u,v")
            base, _ = parse_file(args.arg)
            parts = [p for p in args.edge.replace(",", " ").split() if p]
            if len(parts) != 2:
                raise ValidationError(f"--edge expects two vertices, got {args.edge!r}")
            tri = diagonal_flip(base, tuple(parts))
        else:
            raise ValidationError(f"unknown construction {args.what!r}")
    except (ParseError, ValidationError, OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    text = serialize(tri) + "\n"
    if args.out:
        try:
            Path(args.out).parent.mkdir(parents=True, exist_ok=True)
            Path(args.out).write_text(text)
        except OSError as exc:
            print(f"input error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_INPUT
    else:
        sys.stdout.write(text)
    print(f"constructed: {len(tri.vertices)} vertices, {len(tri.faces)} faces",
          file=sys.stderr)
    return EXIT_OK


def _tolerance(text):
    """A residual bound for ``--tol``: a finite number above zero (NaN and
    inf would let every residual pass)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number above 0, not {text!r}")
    return value


@functools.cache
def build_parser():
    # built once per process: parse_args never mutates it
    ap = argparse.ArgumentParser(prog="acutesphere",
                                 description="Acute geodesic triangulations of the sphere")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, writes_files=True):
        p.add_argument("path", help="triangulation JSON file")
        if writes_files:
            p.add_argument("--out", default=None,
                           help="output directory (obstruction.svg on an obstruction)")

    p = sub.add_parser("check", help="combinatorial battery and realizability verdict")
    common(p)
    p.add_argument("--labels", action="store_true",
                   help="also run the labeled Coxeter analysis")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("realize", help="acute realization via circle patterns")
    common(p)
    p.add_argument("--tol", type=_tolerance, default=1e-11)
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("dual", help="hyperbolic duality solver")
    p.add_argument("--triangle", required=True, help="side lengths a,b,c")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--target", default=None,
                        help="Coxeter labels p,q,r: angles pi/p at A, pi/q at B, pi/r at C")
    target.add_argument("--target-triangle", default=None, help="target angles A,B,C")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("invariants", help="alpha and beta invariants")
    common(p, writes_files=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=_tolerance, default=1e-11)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("construct", help="emit cap/wheel/double/flip constructions")
    p.add_argument("what", choices=("cap", "wheel", "double", "flip"))
    p.add_argument("arg", nargs="?", default=None, help="n for cap, path for double/flip")
    p.add_argument("--edge", default=None, help="u,v edge for flip")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_construct)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AcuteSphereError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
