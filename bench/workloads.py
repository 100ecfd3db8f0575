"""The benchmark's three workloads: their inputs, ops and output checks.

Each workload is a fixed list of ops, a *round*; the timed loop runs whole
rounds.  Inputs are built from the workload seed with the library's own
seeded generators, and an op receives only those inputs.

* ``decide``: ``hilbert_function``, ``is_poised`` and ``is_independent``
  on Berzolari-Radon sets at n in {6, 8, 10} (small coordinates) and on
  random poised sets at n in {6, 8} (35-44-bit collocation entries).  Each
  set runs as built (poised), plus one node (dependent at size N + 1), and
  as N - 1 nodes carrying n + 2 collinear ones (dependent before its last
  row).  The RankTracker rank path does nearly all the work and
  bit-length drives its cost; a full-rank certificate would help only the
  poised verdicts.  Random sets at n = 10 are left out: one rank there
  takes 1.3-2.5 s depending on the seed, which made the workload's spread
  across seeds wider than any bound the benchmark may set.
* ``construct``: the generators and greedy searches (``random_poised``,
  ``defect_config``, ``extend_to_poised`` from half a BR set and from
  empty, ``extend_on_curve`` on a 3-line union at n = 10), which drive the
  kernel as a stream of small incremental adds, and in
  ``extend_to_poised`` a full ``vanishing_basis`` per added node.
* ``cli-verify``: ``nodecurves.cli.main`` in-process on pre-rendered JSON
  (``verify defect|uniqueness|twocurves|lineusage``, ``basis``, ``fund``):
  the solve path, the curve and verify logic, multiplication matrices and
  CLI JSON handling, with RankTracker a minor share.

Checks are written from the definitions in ``checks.py`` and never call
the library.  Every op's first output in a run is checked in full; later
outputs of the same op must be byte-identical to it.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
from dataclasses import dataclass
from typing import Callable, Optional

import checks
from checks import point

WORKLOADS = ("decide", "construct", "cli-verify")

# Per op kind: its parameters, then how many inputs of that kind a round
# holds, each built from its own draw of the seed's generator.  The counts
# put the median and the p75 tail of the per-op latencies inside a block
# of same-kind ops rather than between two kinds, where they would be an
# extreme of one seed's inputs.  Spiral sets and the empty start do not
# depend on the seed and appear once.  The costly kinds appear a few times
# or once, so that a round stays short and a run times each op often.
# In ``construct`` the median falls among the ``defect_config`` n=6 ops and
# the p75 among the n=7 ones, whose typical cost varies little from seed to
# seed; ``random_poised`` n=6, ``defect_config`` n=8 and ``extend_on_curve``
# cost up to twice as much on one input as on another, so they stay few.
SIZES = {
    "decide": {
        "full": {"br": ((6, 5), (8, 5), (10, 6)),
                 "random": ((6, 5), (8, 3))},
        "smoke": {"br": ((3, 1),), "random": ((3, 1),)},
    },
    "construct": {
        "full": {"random_poised": ((6, 4), (8, 1)),
                 "defect_config": ((6, 3, 62), (7, 4, 22), (8, 5, 1)),
                 "extend_half_br": ((5, 2), (6, 1), (7, 1)),
                 "extend_empty": (6,),
                 "on_curve": ((10, 3, 1),)},
        "smoke": {"random_poised": ((3, 1),),
                  "defect_config": ((3, 2, 1),),
                  "extend_half_br": ((3, 1),),
                  "extend_empty": (3,),
                  "on_curve": ((4, 2, 1),)},
    },
    "cli-verify": {
        "full": {"defect": ((5, 3, 15), (6, 4, 8), (7, 4, 1), (8, 5, 1)),
                 "uniqueness": ((6, 3, 2), (8, 4, 1)),
                 "twocurves": ((6, 3, 14),),
                 "lineusage_spiral": (5, 6),
                 "lineusage_br": ((6, 1), (7, 1)),
                 "basis_br": ((8, 1),),
                 "fund_random": ((8, 1),)},
        "smoke": {"defect": ((3, 2, 1),),
                  "uniqueness": ((4, 2, 1),),
                  "twocurves": ((3, 2, 1),),
                  "lineusage_spiral": (3,),
                  "lineusage_br": ((3, 1),),
                  "basis_br": ((3, 1),),
                  "fund_random": ((3, 1),)},
    },
}

# decide: set j of a size runs FUNCS[verdict][j % len], so every function
# meets every verdict; is_poised on a set of the wrong size answers from
# the size alone, so it runs on poised sets only
DECIDE_FUNCS = {
    "poised": ("is_poised", "hilbert_function", "is_independent"),
    "plus1": ("hilbert_function", "is_independent"),
    "collinear": ("is_independent", "hilbert_function"),
}


class CheckFailed(Exception):
    pass


def need(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    kind: str                            # unique within the workload
    func: str                            # what is called, for warm-up
    n: int
    call: Callable[[], object]
    canon: Callable[[object], str]       # canonical text of an output
    check: Callable[[object], None]      # raises CheckFailed when wrong
    describe: Callable[[object], dict]   # input descriptors
    is_cli: bool = False


def _descriptors(n: int, verdict: str, nodes=None, of_output=None,
                 extra: Optional[Callable[[], dict]] = None):
    def describe(out) -> dict:
        pts = nodes if nodes is not None else of_output(out)
        data = {"n": n, "nodes": len(pts),
                "max_bits": checks.max_bits(pts, n), "verdict": verdict}
        if extra is not None:
            data.update(extra())
        return data
    return describe


def _points(xs) -> list:
    return [point(p) for p in xs]


def _nodes_text(xs) -> str:
    return json.dumps([[str(p.x), str(p.y)] for p in xs])


class _Facts:
    """Check-side facts about one input set, computed once."""

    def __init__(self, pts, n: int):
        self.pts = pts
        self.n = n

    @functools.cached_property
    def rank(self) -> int:
        return checks.certified_rank(self.pts, self.n)

    @functools.cached_property
    def collinear(self) -> int:
        return checks.most_collinear(self.pts)


def build(workload: str, lib, seed: int, smoke: bool) -> list[Op]:
    sizes = SIZES[workload]["smoke" if smoke else "full"]
    rng = lib.generators.SplitMix64(seed)
    return _BUILDERS[workload](lib, rng, sizes)


# ---------------------------------------------------------------- decide

def _plus_one(lib, xs):
    extra = next(p for p in lib.nodes.integer_spiral() if p not in xs)
    return xs.with_node(extra)


def _with_collinear(lib, xs, n: int):
    """N - 1 nodes: the first half of xs, then points on the line through
    its first two nodes until that line carries n + 2 nodes, then the rest
    of xs in order."""
    size = len(xs)
    head = [xs[i] for i in range(size // 2)]
    line = lib.curves.LineForm.through(head[0], head[1])
    on = sum(1 for p in head if line.eval(p.x, p.y) == 0)
    new = []
    for p in line.points():
        if len(new) == n + 2 - on:
            break
        if p not in xs:
            new.append(p)
    tail = [xs[i] for i in range(size // 2, size - 1 - len(new))]
    return lib.nodes.NodeSet(head + new + tail)


def _decide_check(func: str, verdict: str, facts: _Facts):
    n = facts.n
    dim = checks.space_dim(n)

    def check(out) -> None:
        if verdict == "collinear":
            need(facts.collinear >= n + 2,
                 "input does not carry n + 2 collinear nodes")
        else:
            need(facts.rank == dim, "input rank is not certified as N")
        if func == "hilbert_function":
            need(type(out) is int, f"hilbert is not an int: {out!r}")
            if verdict == "collinear":
                need(facts.rank <= out <= len(facts.pts) - 1,
                     f"hilbert {out} outside [{facts.rank}, "
                     f"{len(facts.pts) - 1}]")
            else:
                need(out == dim, f"hilbert {out}, expected N = {dim}")
        else:
            need(type(out) is bool, f"verdict is not a bool: {out!r}")
            need(out is (verdict == "poised"),
                 f"{func} gave {out} on a {verdict} set")
    return check


def _build_decide(lib, rng, sizes) -> list[Op]:
    gen = lib.generators
    make = {"br": lambda n, s: gen.berzolari_radon(n, s).nodes,
            "random": gen.random_poised}
    ops = []
    for coord in ("br", "random"):
        for n, j in _copies(sizes[coord]):
            base = make[coord](n, rng.next_u64())
            sets = (("poised", base), ("plus1", _plus_one(lib, base)),
                    ("collinear", _with_collinear(lib, base, n)))
            for verdict, xs in sets:
                funcs = DECIDE_FUNCS[verdict]
                func = funcs[j % len(funcs)]
                pts = _points(xs)
                ops.append(Op(
                    kind=f"{func} {coord} n={n} #{j} {verdict}",
                    func=func, n=n,
                    call=functools.partial(_nodes_call, lib, func, xs, n),
                    canon=json.dumps,
                    check=_decide_check(func, verdict, _Facts(pts, n)),
                    describe=_descriptors(n, f"{coord} {verdict}", pts)))
    return ops


def _nodes_call(lib, func: str, xs, n: int):
    # looked up on each call, so the traced run sees wrapped functions
    return getattr(lib.nodes, func)(xs, n)


# ------------------------------------------------------------- construct

def _check_poised_superset(inputs, n: int):
    def check(out) -> None:
        pts = _points(out)
        need(len(set(pts)) == len(pts), "duplicate nodes")
        need(len(pts) == checks.space_dim(n), f"{len(pts)} nodes, not N")
        need(set(inputs) <= set(pts), "output drops input nodes")
        need(checks.certified_independent(pts, n),
             "output is not certified poised")
    return check


def _check_defect_config(n: int, k: int):
    def check(cfg) -> None:
        pts = _points(cfg.nodes)
        lines = [(l.a, l.b, l.c) for l in cfg.mu_lines]
        need(len(pts) == checks.on_curve_max(n, k - 1) + 1,
             f"{len(pts)} nodes, expected d(n, k-1) + 1")
        need(len(lines) == k - 1, "mu is not a union of k - 1 lines")
        idx = cfg.outlier_index
        need(point(cfg.outlier) == pts[idx], "outlier index mismatch")
        for i, p in enumerate(pts):
            on_mu = any(checks.line_value(l, p) == 0 for l in lines)
            need(on_mu == (i != idx),
                 f"node {i} is {'on' if on_mu else 'off'} mu")
        need(checks.certified_independent(pts, n),
             "configuration is not certified independent")
    return check


def _check_on_curve(lines, n: int):
    k = len(lines)

    def check(out) -> None:
        pts = _points(out)
        need(len(set(pts)) == len(pts), "duplicate nodes")
        need(all(any(checks.line_value(l, p) == 0 for l in lines)
                 for p in pts), "a node is off the curve")
        need(len(pts) == checks.on_curve_max(n, k),
             f"{len(pts)} nodes, expected d(n, k)")
        need(checks.certified_independent(pts, n),
             "output is not certified independent")
    return check


def _defect_canon(cfg) -> str:
    return json.dumps({
        "nodes": json.loads(_nodes_text(cfg.nodes)),
        "outlier_index": cfg.outlier_index,
        "mu_lines": [[str(l.a), str(l.b), str(l.c)] for l in cfg.mu_lines]})


def _build_construct(lib, rng, sizes) -> list[Op]:
    gen = lib.generators
    ops = []
    for n, j in _copies(sizes["random_poised"]):
        s = rng.next_u64()
        ops.append(Op(
            kind=f"random_poised n={n} #{j}", func="random_poised", n=n,
            call=lambda n=n, s=s: lib.generators.random_poised(n, s),
            canon=_nodes_text, check=_check_poised_superset([], n),
            describe=_descriptors(n, "poised", of_output=_points)))
    for n, k, j in _copies(sizes["defect_config"]):
        s = rng.next_u64()
        ops.append(Op(
            kind=f"defect_config n={n} k={k} #{j}", func="defect_config",
            n=n,
            call=lambda n=n, k=k, s=s: lib.generators.defect_config(n, k, s),
            canon=_defect_canon, check=_check_defect_config(n, k),
            describe=_descriptors(n, "defect",
                                  of_output=lambda c: _points(c.nodes))))
    starts = []
    for n, j in _copies(sizes["extend_half_br"]):
        br = gen.berzolari_radon(n, rng.next_u64()).nodes
        starts.append((n, f"half BR #{j}", br.subset(range(len(br) // 2))))
    starts += [(n, "empty", lib.nodes.NodeSet())
               for n in sizes["extend_empty"]]
    for n, label, xs in starts:
        pts = _points(xs)
        ops.append(Op(
            kind=f"extend_to_poised n={n} from {label}",
            func="extend_to_poised", n=n,
            call=lambda xs=xs, n=n: lib.nodes.extend_to_poised(xs, n),
            canon=_nodes_text, check=_check_poised_superset(pts, n),
            describe=_descriptors(n, f"from {label}", of_output=_points)))
    for n, k, j in _copies(sizes["on_curve"]):
        lines = gen.random_lines(gen.SplitMix64(rng.next_u64()), k)
        union = lib.curves.LineUnion.of(lines)
        ops.append(Op(
            kind=f"extend_on_curve n={n} {k} lines #{j}",
            func="extend_on_curve", n=n,
            call=lambda union=union, n=n: lib.curves.extend_on_curve(
                lib.nodes.NodeSet(), union, union.curve(), n),
            canon=_nodes_text,
            check=_check_on_curve([(l.a, l.b, l.c) for l in lines], n),
            describe=_descriptors(n, f"{k}-line union", of_output=_points)))
    return ops


# ------------------------------------------------------------ cli-verify

def _run_cli(lib, argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_canon(out) -> str:
    return f"{out[0]}\n{out[1]}"


def _cli_json(out):
    code, stdout, stderr = out
    need(code == 0, f"exit code {code}: {stderr.strip()}")
    return json.loads(stdout)


def _vanishes(coeffs, n: int, pts) -> bool:
    return all(checks.evaluate(coeffs, n, p) == 0 for p in pts)


def _check_defect_report(pts, planted: int):
    def check(out) -> None:
        data = _cli_json(out)
        need(data["ok"] is True, "report is not ok")
        need(data["outlier_index"] == planted,
             f"outlier {data['outlier_index']}, planted {planted}")
        need(data["dim"] >= 2, f"curve space dimension {data['dim']} < 2")
        bound, mu = checks.poly_from_json(data["mu"]["poly"])
        rest = [p for i, p in enumerate(pts) if i != planted]
        need(_vanishes(mu, bound, rest), "mu misses a node off the outlier")
        need(checks.evaluate(mu, bound, pts[planted]) != 0,
             "mu passes through the outlier")
    return check


def _check_uniqueness(pts, n: int, k: int):
    def check(out) -> None:
        need(len(pts) == checks.uniqueness_size(n, k),
             "input size is not K(n, k)")
        need(checks.certified_independent(pts, n),
             "input is not certified independent")
        data = _cli_json(out)
        need(data["ok"] is True, "more than one curve reported")
        need(data["dim"] == 1, f"curve space dimension {data['dim']} != 1")
    return check


def _check_twocurves(pts, at, k: int):
    def check(out) -> None:
        data = _cli_json(out)
        need(data["ok"] is True, "report is not ok")
        need(data["dim"] >= 2, f"curve space dimension {data['dim']} < 2")
        curve = data["curve"]
        need(1 <= curve["degree"] <= k, f"curve degree {curve['degree']}")
        bound, coeffs = checks.poly_from_json(curve["poly"])
        need(any(coeffs), "zero polynomial")
        need(_vanishes(coeffs, bound, pts + [at]),
             "curve misses a node or the extra point")
    return check


def _check_lineusage(pts):
    def check(out) -> None:
        data = _cli_json(out)
        need(data["ok"] is True, "report is not ok")
        for rep in data["reports"]:
            line = (rep["line"]["a"], rep["line"]["b"], rep["line"]["c"])
            on = [p for p in pts if checks.line_value(line, p) == 0]
            need(len(on) == 3, f"reported line carries {len(on)} nodes")
            need(sorted(map(point, rep["nodes_on_line"])) == sorted(on),
                 "nodes_on_line differ from the nodes on the line")
            users = [point(u) for u in rep["users"]]
            need(len(users) in (1, 3), f"{len(users)} users")
            need(all(u in pts and u not in on for u in users),
                 "a user is not an off-line node of the set")
            need(len(users) == 1 or not checks.collinear(*users),
                 "three collinear users")
    return check


def _check_basis(pts, n: int):
    def check(out) -> None:
        data = _cli_json(out)
        want = checks.space_dim(n) - len(pts)
        need(data["dimension"] == len(data["basis"]) == want,
             f"dimension {data['dimension']}, expected N - |xs| = {want}")
        rows = []
        for poly in data["basis"]:
            bound, coeffs = checks.poly_from_json(poly)
            need(bound == n, "basis element has the wrong degree bound")
            need(_vanishes(coeffs, n, pts), "basis element misses a node")
            rows.append(coeffs)
        need(not rows or checks.rank_lower_bound(rows) == len(rows),
             "basis is not certified linearly independent")
    return check


def _check_fund(pts, idx: int, n: int):
    def check(out) -> None:
        data = _cli_json(out)
        need(data is not None, "no fundamental polynomial")
        bound, coeffs = checks.poly_from_json(data)
        need(bound == n, "wrong degree bound")
        for i, p in enumerate(pts):
            want = 1 if i == idx else 0
            need(checks.evaluate(coeffs, n, p) == want,
                 f"value at node {i} is not {want}")
    return check


def _build_cli(lib, rng, sizes) -> list[Op]:
    gen, nodes = lib.generators, lib.nodes
    ops = []

    def add(kind, n, argv, check, pts, verdict, extra=None):
        ops.append(Op(
            kind=kind, func=" ".join(argv[:2]) if argv[0] == "verify"
            else argv[0], n=n,
            call=functools.partial(_run_cli, lib, argv),
            canon=_cli_canon, check=check,
            describe=_descriptors(n, verdict, pts, extra=extra),
            is_cli=True))

    def doc(xs, n) -> str:
        return json.dumps(xs.to_json(n))

    for n, k, j in _copies(sizes["defect"]):
        cfg = gen.defect_config(n, k, rng.next_u64())
        pts = _points(cfg.nodes)
        add(f"verify defect n={n} k={k} #{j}", n,
            ["verify", "defect", "-n", str(n), "-k", str(k),
             doc(cfg.nodes, n)],
            _check_defect_report(pts, cfg.outlier_index), pts, "defect")
    for n, k, j in _copies(sizes["uniqueness"]):
        # a defect set plus one node keeping independence has K(n, k)
        # nodes, and mu times the line through the outlier and the new
        # node is a curve through all of them
        cfg = gen.defect_config(n, k, rng.next_u64())
        xs = cfg.nodes.with_node(nodes.next_independent_node(cfg.nodes, n))
        pts = _points(xs)
        add(f"verify uniqueness n={n} k={k} #{j}", n,
            ["verify", "uniqueness", "-n", str(n), "-k", str(k), doc(xs, n)],
            _check_uniqueness(pts, n, k), pts, "K(n, k) nodes")
    for n, k, j in _copies(sizes["twocurves"]):
        cfg = gen.defect_config(n, k, rng.next_u64())
        at = next(p for p in nodes.integer_spiral() if p not in cfg.nodes)
        pts = _points(cfg.nodes)
        add(f"verify twocurves n={n} k={k} #{j}", n,
            ["verify", "twocurves", "-k", str(k), f"--at={at.x},{at.y}",
             doc(cfg.nodes, n)],
            _check_twocurves(pts, point(at), k), pts, "defect + point")
    usage_sets = [(n, "spiral", nodes.extend_to_poised(nodes.NodeSet(), n))
                  for n in sizes["lineusage_spiral"]]
    usage_sets += [(n, f"BR #{j}",
                    gen.berzolari_radon(n, rng.next_u64()).nodes)
                   for n, j in _copies(sizes["lineusage_br"])]
    for n, label, xs in usage_sets:
        pts = _points(xs)
        add(f"verify lineusage n={n} {label}", n,
            ["verify", "lineusage", "-n", str(n), doc(xs, n)],
            _check_lineusage(pts), pts, f"{label.split()[0]} poised",
            extra=lambda pts=pts: {
                "three_node_lines": checks.three_node_lines(pts)})
    for n, j in _copies(sizes["basis_br"]):
        br = gen.berzolari_radon(n, rng.next_u64()).nodes
        xs = br.without(br[rng.below(len(br))])
        pts = _points(xs)
        add(f"basis n={n} BR minus one #{j}", n,
            ["basis", "-n", str(n), doc(xs, n)],
            _check_basis(pts, n), pts, "BR minus one")
    for n, j in _copies(sizes["fund_random"]):
        xs = gen.random_poised(n, rng.next_u64())
        idx = rng.below(len(xs))
        pts = _points(xs)
        add(f"fund n={n} random #{j}", n,
            ["fund", "-n", str(n), "--node", str(idx), doc(xs, n)],
            _check_fund(pts, idx, n), pts, "random poised")
    return ops


def _copies(table):
    """(params..., copies) rows to (params..., copy index) rows."""
    for *params, copies in table:
        for j in range(copies):
            yield (*params, j)


_BUILDERS = {
    "decide": _build_decide,
    "construct": _build_construct,
    "cli-verify": _build_cli,
}
