"""Command-line front end over the JSON interchange formats.

Every subcommand is a pure function of its arguments and input files:
identical invocations produce byte-identical output.  Node sets, polynomials
and curves travel as JSON with rationals encoded as strings, so exactness
survives shell pipelines.

Exit codes: 0 success; 1 parse or precondition failure; 2 when one of the
structure checkers detects an internal inconsistency.  Failures print a
one-line JSON object {"error": ...} to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from . import curves, generators, nodes, verify
from .curves import Curve, LineForm, LineUnion
from .errors import BudgetExceeded, TheoremViolation
from .nodes import NodeSet
from .poly import Poly
from .svg import render_svg


def _dumps(obj) -> str:
    return json.dumps(obj) + "\n"


def _emit_error(message: str) -> None:
    sys.stderr.write(_dumps({"error": message}))


def _load_json(arg: str):
    """Accept a file path, inline JSON, or '-' for standard input."""
    if arg == "-":
        text = sys.stdin.read()
    elif arg.lstrip()[:1] in ("{", "["):
        text = arg
    else:
        with open(arg, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _nodes_arg(args) -> tuple[NodeSet, int]:
    xs, file_n = NodeSet.from_json(_load_json(args.nodes))
    n = args.n if args.n is not None else file_n
    if n is None:
        raise ValueError("degree -n is required (flag or \"n\" field)")
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return xs, n


def _lines_arg(data) -> list[LineForm]:
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list) or not data:
        raise ValueError("expected a line object or a nonempty list of them")
    if not all(isinstance(item, dict) for item in data):
        raise ValueError("every --on-curve line must be a JSON object")
    return [LineForm.from_json(item) for item in data]


def _curve_poly(data) -> Poly:
    # accept a curve, a bare polynomial, or a line coefficient object
    if not isinstance(data, dict):
        raise ValueError("a curve must be a JSON object")
    if "poly" in data:
        return Curve.from_json(data).poly
    if "coeffs" in data:
        return Poly.from_json(data)
    if {"a", "b", "c"} <= data.keys():
        return LineForm.from_json(data).poly()
    raise ValueError("unrecognized curve object")


def _cmd_indep(args) -> str:
    xs, n = _nodes_arg(args)
    h = nodes.hilbert_function(xs, n)
    return _dumps({"independent": h == len(xs), "hilbert": h})


def _cmd_poised(args) -> str:
    xs, n = _nodes_arg(args)
    return _dumps({"poised": nodes.is_poised(xs, n)})


def _cmd_basis(args) -> str:
    xs, n = _nodes_arg(args)
    space = nodes.vanishing_basis(xs, n)
    return _dumps({
        "n": n,
        "dimension": space.dimension,
        "basis": [p.to_json() for p in space.basis],
    })


def _cmd_fund(args) -> str:
    xs, n = _nodes_arg(args)
    if not 0 <= args.node < len(xs):
        raise ValueError("node index out of range")
    p = nodes.fundamental_polynomial(xs[args.node], xs, n)
    return _dumps(None if p is None else p.to_json())


def _cmd_dstar(args) -> str:
    return _dumps({
        "d": curves.max_nodes_on_curve(args.n, args.k),
        "K": curves.uniqueness_threshold(args.n, args.k),
    })


def _cmd_gen(args) -> str:
    n, seed = args.n, args.seed
    if args.kind == "br":
        built = generators.berzolari_radon(n, seed)
        meta = {
            "kind": "br", "seed": seed, "n": n,
            "lines": [[str(l.a), str(l.b), str(l.c)] for l in built.lines],
            "counts": list(built.counts),
        }
        return _dumps(built.nodes.to_json(n, meta))
    if args.kind == "poised":
        xs = generators.random_poised(n, seed)
        return _dumps(xs.to_json(n, {"kind": "poised", "seed": seed, "n": n}))
    if args.k is None:
        raise ValueError("gen defect requires -k")
    cfg = generators.defect_config(n, args.k, seed)
    meta = {
        "kind": "defect", "seed": seed, "n": n, "k": args.k,
        "mu": cfg.mu.to_json(),
        "mu_lines": [[str(l.a), str(l.b), str(l.c)] for l in cfg.mu_lines],
        "outlier_index": cfg.outlier_index,
    }
    return _dumps(cfg.nodes.to_json(n, meta))


def _cmd_extend(args) -> str:
    xs, n = _nodes_arg(args)
    if args.on_curve is None:
        out = nodes.extend_to_poised(xs, n)
    else:
        union = LineUnion.of(_lines_arg(_load_json(args.on_curve)))
        out = curves.extend_on_curve(xs, union, union.curve(), n)
    return _dumps(out.to_json(n))


def _report(theorem: str, params: dict, dim: Optional[int] = None,
            outlier_index: Optional[int] = None, mu: Optional[dict] = None,
            **extra) -> str:
    # a failed check raises TheoremViolation (exit 2), so a report is ok
    data = {"theorem": theorem, "params": params, "dim": dim,
            "outlier_index": outlier_index, "mu": mu, "ok": True}
    data.update(extra)
    return _dumps(data)


def _cmd_verify(args) -> str:
    theorem, k = args.theorem, args.k
    if theorem == "twocurves":
        # the curve degree alone fixes the space, so no -n is read
        xs, _ = NodeSet.from_json(_load_json(args.nodes))
    else:
        xs, n = _nodes_arg(args)
    if k is None and theorem != "lineusage":
        raise ValueError(f"verify {theorem} requires -k")
    if theorem == "uniqueness":
        return _report(theorem, {"n": n, "k": k},
                       dim=verify.verify_uniqueness(xs, n, k))
    if theorem == "defect":
        rep = verify.characterize_defect(xs, n, k)
        mu = rep.mu.to_json() if rep.mu is not None else None
        return _report(theorem, {"n": n, "k": k}, dim=rep.curve_space_dim,
                       outlier_index=rep.outlier_index, mu=mu)
    if theorem == "lineusage":
        reports = verify.line_usage_reports(xs, n)
        return _report(theorem, {"n": n}, reports=[
            {
                "line": r.line.to_json(),
                "nodes_on_line": r.nodes_on_line.to_json()["nodes"],
                "users": r.users.to_json()["nodes"],
                "noncollinear_users": True,
            }
            for r in reports
        ])
    if args.at is None:
        raise ValueError("verify twocurves requires --at x,y")
    parts = args.at.split(",")
    if len(parts) != 2:
        raise ValueError("--at expects two comma-separated rationals")
    a = nodes.node(*parts)
    rep = verify.curve_through_extra_node(xs, k, a)
    return _report(theorem, {"k": k, "at": [str(a.x), str(a.y)]},
                   dim=rep.curve_space_dim, curve=rep.curve.to_json())


def _cmd_render(args) -> str:
    xs, _ = NodeSet.from_json(_load_json(args.nodes))
    polys = [_curve_poly(_load_json(c)) for c in (args.curve or [])]
    return render_svg(xs, polys)


# flags that a subcommand takes for one of its kinds or theorems and that
# the others do not read; each is refused rather than dropped
_UNREAD = {
    ("gen", "br"): ("-k",),
    ("gen", "poised"): ("-k",),
    ("verify", "uniqueness"): ("--at",),
    ("verify", "defect"): ("--at",),
    ("verify", "lineusage"): ("-k", "--at"),
    ("verify", "twocurves"): ("-n",),
}


def _refuse_unread(args) -> None:
    choice = getattr(args, "kind", None) or getattr(args, "theorem", None)
    for flag in _UNREAD.get((args.command, choice), ()):
        if getattr(args, flag.lstrip("-")) is not None:
            raise ValueError(f"{args.command} {choice} does not read {flag}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nodecurves",
        description="Exact interpolation-node analysis, generation, "
                    "verification, and SVG rendering.")
    sub = parser.add_subparsers(dest="command", required=True)
    # one row per subcommand: (name, help, handler, arguments in help
    # order), each argument a (flag, add_argument keywords) pair
    n_opt = ("-n", {"type": int, "help": "total degree bound"})
    n_req = ("-n", {**n_opt[1], "required": True})
    xs = ("nodes", {"help": "node-set JSON: a file path, inline JSON, "
                            "or - for stdin"})
    commands = [
        ("indep", "independence and Hilbert function", _cmd_indep,
         [n_opt, xs]),
        ("poised", "unisolvence check for a set", _cmd_poised, [n_opt, xs]),
        ("basis", "vanishing-space basis of a set", _cmd_basis, [n_opt, xs]),
        ("fund", "fundamental polynomial of one node", _cmd_fund,
         [n_opt, ("--node", {"type": int, "required": True,
                             "help": "node index"}), xs]),
        ("dstar", "on-curve node maximum and the uniqueness threshold",
         _cmd_dstar,
         [n_req, ("-k", {"type": int, "required": True,
                         "help": "curve degree"})]),
        ("gen", "deterministic seeded set generators", _cmd_gen,
         [("kind", {"choices": ["br", "poised", "defect"]}), n_req,
          ("-k", {"type": int, "help": "curve degree (defect only)"}),
          ("--seed", {"type": int, "required": True})]),
        ("extend", "grow a set to a distinguished size", _cmd_extend,
         [n_opt, ("--on-curve", {"metavar": "LINES", "help": "line or "
                                 "line-list JSON; extend along that curve"}),
          xs]),
        ("verify", "structure checks with JSON reports", _cmd_verify,
         [("theorem", {"choices": ["uniqueness", "defect", "lineusage",
                                   "twocurves"]}), n_opt,
          ("-k", {"type": int, "help": "curve degree"}),
          ("--at", {"metavar": "X,Y", "help": "extra point for twocurves"}),
          xs]),
        ("render", "SVG figure of nodes and curves", _cmd_render,
         [("--curve", {"action": "append", "metavar": "CURVE",
                       "help": "curve JSON to draw; may repeat"}), xs]),
    ]
    for name, help_text, func, arguments in commands:
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        # every subcommand writes one output, and -o comes last in its help
        p.add_argument("-o", "--output",
                       help="write output to a file instead of stdout")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):
            return 0
        _emit_error("invalid arguments")
        return 1
    try:
        _refuse_unread(args)
        out = args.func(args)
        if args.output is None:
            sys.stdout.write(out)
        else:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(out)
    except TheoremViolation as exc:
        _emit_error(str(exc))
        return 2
    except (ValueError, KeyError, IndexError, TypeError, OSError,
            ArithmeticError, BudgetExceeded) as exc:
        _emit_error(str(exc) if not isinstance(exc, KeyError)
                    else f"missing field {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
