"""Command-line interface: one subcommand per analysis surface.

Exit codes: 0 on success, 1 on an analysis error (structured JSON on
stderr), 2 on usage errors.  Exact integers are serialised as decimal
strings; identical invocations produce byte-identical output.  Each
subcommand imports the modules it uses, so `group`, `count`, `series`,
`classify`, `singularities`, `kernel branch-points` and `asymptotics` start
without numpy (their roots come from _ratpoly.roots, their fits are pure
Python); `kernel trace`, `bvp` and `check` load it for arrays.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import steps
from .errors import QwalkError, StepFileUnreadable


def _add_step_source(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--steps", help='inline JSON, e.g. \'{"steps": [[1,0],[0,1]]}\'')
    g.add_argument("--preset", choices=sorted(steps.PRESETS), help="named model")
    g.add_argument("--steps-file", help="path to a JSON step-set file")


def _resolve_steps(args) -> steps.StepSet:
    if args.preset:
        return steps.preset(args.preset)
    if args.steps_file:
        try:
            with open(args.steps_file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise StepFileUnreadable(f"cannot read the steps file: {exc}") from None
        return steps.from_json(text)
    return steps.from_json(args.steps)


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _config_echo(s: steps.StepSet, args, fields) -> dict:
    cfg = {"steps": None, "preset": None}
    if args.preset:
        cfg["preset"] = args.preset
    else:
        cfg["steps"] = [list(p) for p in s.sorted_steps()]
    for f in fields:
        cfg[f] = getattr(args, f.replace("-", "_"))
    return cfg


def _cmd_count(s: steps.StepSet, args) -> int:
    from . import counting

    table = counting.count(s, args.n, dense_max=args.n)
    cells = ((n, i, j, q) for n in range(args.n + 1)  # one layer at a time
             for j, row in enumerate(table.layer(n)) for i, q in enumerate(row) if q)
    if args.format == "csv":
        sys.stdout.write("n,i,j,q\n")
        for n, i, j, q in cells:
            sys.stdout.write(f"{n},{i},{j},{q}\n")
        return 0
    layers: dict[str, dict[str, str]] = {str(n): {} for n in range(args.n + 1)}
    for n, i, j, q in cells:
        layers[str(n)][f"{i},{j}"] = str(q)
    _emit({"config": _config_echo(s, args, ["n"]), "layers": layers})
    return 0


def _cmd_series(s: steps.StepSet, args) -> int:
    from . import counting

    table = counting.count(s, args.n, dense_max=0)
    ser = counting.series(table, args.series)
    if args.format == "csv":
        sys.stdout.write("n,coefficient\n")
        for n, c in enumerate(ser.coeffs):
            sys.stdout.write(f"{n},{c}\n")
        return 0
    _emit({
        "config": _config_echo(s, args, ["n", "series"]),
        "label": ser.pretty_label,
        "coefficients": [str(c) for c in ser.coeffs],
    })
    return 0


def _cmd_group(s: steps.StepSet, args) -> int:
    from . import group

    res = group.group_order(s, max_half_order=args.max_half_order)
    if res.finite:
        payload = {"order": res.order}
    else:
        payload = {"order": "exceeds", "bound": 2 * res.half_order_bound}
    payload["config"] = _config_echo(s, args, ["max-half-order"])
    _emit(payload)
    return 0


def _cmd_kernel(s: steps.StepSet, args) -> int:
    import cmath

    from . import kernel

    if args.action == "branch-points":
        bp = kernel.branch_points(s, args.z)

        def fmt(roots):
            return [
                {"re": r.real, "im": r.imag} if cmath.isfinite(r) else "infinity"
                for r in roots
            ]

        _emit({
            "config": _config_echo(s, args, ["z"]),
            "x_roots": fmt(bp.x_roots),
            "y_roots": fmt(bp.y_roots),
            "ordering_asserted": bp.ordering_asserted,
        })
        return 0
    points = kernel.trace_curve_M(s, args.z, m=args.points).points
    sys.stdout.write("re,im\n")
    for t in (*points, points[0]):  # the closed node polygon
        sys.stdout.write(f"{float(t.real)!r},{float(t.imag)!r}\n")
    return 0


def _singularities_payload(s: steps.StepSet, args) -> dict:
    from . import singularities

    payload = asdict(singularities.classify_first_singularities(s))
    payload["critical_point"] = {"alpha": payload.pop("alpha"), "beta": payload.pop("beta")}
    payload["config"] = _config_echo(s, args, [])
    return payload


def _cmd_singularities(s: steps.StepSet, args) -> int:
    _emit(_singularities_payload(s, args))
    return 0


def _cmd_classify(s: steps.StepSet, args) -> int:
    payload = _singularities_payload(s, args)
    keys = ("config", "drift_sign", "cov_sign", "fs_q10", "fs_q01", "fs_q11")
    _emit({k: payload[k] for k in keys})
    return 0


def _cmd_bvp(s: steps.StepSet, args) -> int:
    from . import bvp

    cgf = bvp.circle_cgf()  # the one builtin; user CGFs go through the library
    canon = s.sorted_steps() == steps.preset("simple").sorted_steps()
    if canon and args.target in ("q00", "q10", "q01"):
        gf = bvp.q00_simple(args.z) if args.target == "q00" else bvp.q10_simple(args.z)
    elif args.target == "q00":
        gf = bvp.q00_general(s, args.z, cgf)
    elif args.target == "q10":
        gf = bvp.q10_general(s, args.z, cgf)
    elif args.target == "q01":
        gf = bvp.q01_general(s, args.z, cgf)
    else:
        gf = bvp.q11_general(s, args.z, cgf)
    payload = asdict(gf)
    payload["config"] = _config_echo(s, args, ["z", "target"])
    _emit(payload)
    return 0


def _cmd_asymptotics(s: steps.StepSet, args) -> int:
    from . import asymptotics, counting

    table = counting.count(s, args.n, dense_max=0)
    coeffs = counting.series(table, args.series).coeffs
    an = asymptotics.growth_estimate(coeffs)
    payload = asdict(an)
    payload["config"] = _config_echo(s, args, ["n", "series"])
    _emit(payload)
    return 0


def _cmd_check(s: steps.StepSet, args) -> int:
    from . import asymptotics, bvp, counting, kernel, singularities

    results: list[dict] = []
    skipped: list[dict] = []

    def record(name: str, ok: bool, detail: str = "") -> None:
        results.append({"name": name, "ok": bool(ok), "detail": detail})

    def skip(name: str, reason: str) -> None:
        skipped.append({"name": name, "reason": reason})

    fe = counting.check_functional_equation(s, min(args.n, 20))
    record("functional-equation", fe.holds,
           f"degree {fe.max_degree}" if fe.holds else f"mismatch {fe.first_mismatch}")

    table = counting.count(s, args.n, dense_max=0)
    if s.sorted_steps() == steps.preset("simple").sorted_steps():
        ok = all(
            table.q00[2 * k] == counting.catalan(k) * counting.catalan(k + 1)
            for k in range(min(args.n // 2, 30))
        )
        record("catalan-products", ok)

    genuine = (not steps.is_singular(s)) and steps.origin_in_hull_interior(s)
    if genuine:
        rep = singularities.classify_first_singularities(s)
        record("z_g-method-agreement", rep.method_gap < 1e-9, f"gap {rep.method_gap:.2e}")
        inv = rep.inv_cardinality
        ok = inv - 1e-10 <= rep.z_Y <= rep.z_g + 1e-10 and inv - 1e-10 <= rep.z_X <= rep.z_g + 1e-10
        record("singularity-sandwich", ok)
        if any(not any(map(any, kernel.cleared_disc_int(p)[1::2])) for p in (s, s.mirrored())):
            skip("branch-ordering", "even discriminant: x1 = -x2, the ordering ties")
        else:
            zs = [f * inv for f in (0.3, 0.6, 0.9)]
            ok = all(kernel.branch_points(s, z).ordering_asserted for z in zs)
            record("branch-ordering", ok)
        if args.n >= 80:
            try:
                an = asymptotics.growth_estimate(counting.series(table, "q11").coeffs)
                dev = abs(an.rho - 1.0 / rep.fs_q11.value) * rep.fs_q11.value
                record("growth-vs-first-singularity", dev < 0.05,
                       f"rho {an.rho:.6f} vs 1/fs {1.0/rep.fs_q11.value:.6f}")
            except QwalkError as exc:
                record("growth-vs-first-singularity", False, str(exc))
        else:
            skip("growth-vs-first-singularity", f"n = {args.n} is below 80")
        try:
            trace = kernel.trace_curve_M(s, 0.5 * inv)
            kp = steps.kernel_polys(s)
            x, z = 0.3, trace.z
            got = bvp.cauchy_value(trace, x, bvp.circle_cgf())[0]
            want = steps.poly_eval(kp.c, x) * counting.eval_q_x0(table, x, z) \
                - kp.c[0] * counting.eval_series(counting.series(table, "q00").coeffs, z)
            record("cauchy-integral-vs-series", abs(got - want) < 1e-8,
                   f"difference {abs(got - want):.2e}")
        except QwalkError as exc:
            skip("cauchy-integral-vs-series", f"{type(exc).__name__}: {exc}")
    else:
        for name in ("z_g-method-agreement", "singularity-sandwich", "branch-ordering",
                     "growth-vs-first-singularity", "cauchy-integral-vs-series"):
            skip(name, "singular walk or origin outside the hull interior")

    payload = {"config": _config_echo(s, args, ["n"]), "results": results,
               "skipped": skipped, "ok": all(r["ok"] for r in results)}
    _emit(payload)
    return 0 if payload["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwalk",
        description="Exact enumeration and singularity analysis of quarter-plane walks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="exact counts q(i,j,n)")
    _add_step_source(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("series", help="coefficient sequence of a specialised series")
    _add_step_source(p)
    p.add_argument("--series", choices=("q00", "q10", "q01", "q11"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("group", help="order of the walk group")
    _add_step_source(p)
    p.add_argument("--max-half-order", type=int, default=16)
    p.set_defaults(func=_cmd_group)

    p = sub.add_parser("kernel", help="branch points or the traced curve")
    _add_step_source(p)
    p.add_argument("action", choices=("branch-points", "trace"))
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--points", type=int, default=512,
                   help="contour nodes m (16 to 65536); prints m + 1 rows, "
                        "the first node repeated to close the polygon")
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("singularities", help="z_g, z_X, z_Y, 1/|S| and the classification")
    _add_step_source(p)
    p.set_defaults(func=_cmd_singularities)

    p = sub.add_parser("classify", help="first-singularity labels only")
    _add_step_source(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("bvp", help="generating-function values via quadrature")
    _add_step_source(p)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--target", choices=("q00", "q10", "q01", "q11"), required=True)
    p.set_defaults(func=_cmd_bvp)

    p = sub.add_parser("asymptotics", help="growth estimate of a coefficient sequence")
    _add_step_source(p)
    p.add_argument("--series", choices=("q00", "q10", "q01", "q11"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_asymptotics)

    p = sub.add_parser("check", help="cross-module consistency suite")
    _add_step_source(p)
    p.add_argument("--n", type=int, default=200)
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(_resolve_steps(args), args)
    except QwalkError as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}, sort_keys=True
        ) + "\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
