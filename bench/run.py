"""Closed-loop benchmark of nodecurves.

Run from the repository root:

    python3 bench/run.py --workload decide --seed 1 --seconds 50 --trace 0

One caller in one process on one thread: each op starts only after the
previous one returns.  The loop runs whole rounds of the workload's ops
(see ``workloads.py``) until ``--seconds`` have passed, then checks every
output and prints one JSON object as the last line of stdout.

``--trace 0`` reports the end-to-end metrics in reference seconds.  A
shared machine slows a process by up to 90% in phases that last from
seconds to many minutes, often longer than a run.  So a fixed calibration
kernel (``calibration_kernel``) is timed just before every op, each op
time is divided by it and multiplied by ``CAL_REF_S``, and an op's latency
is the median of these over the rounds.  The detail line also gives the
figures as measured: throughput and percentiles over every run, and each
op's best and median seconds.
``--trace 1`` runs rounds in pairs, one plain and one with every public
library function wrapped (see ``tracing.py``), and reports per-layer
numbers per round; the spans go to ``bench/out/``.  ``--smoke`` runs the
smallest sizes.

The library is imported from ``src/`` of the checkout the script sits in;
without it the script exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import workloads
from tracing import FUNCTIONS, LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

DEFAULT_SEED = 1
SETUP_REPEATS = 3
OP_TIMEOUT_S = 30.0
# CPU seconds all set-ups together may take before the run gives up
SETUP_BUDGET_S = 90.0
# once the loop is this far past --seconds, the round in progress stops
GRACE_S = 60.0
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
TAIL_MIN_BEYOND = 10
# calibration: matrix size, about the kernel's median time on the
# reference machine in a quiet stretch (a 2-vCPU VM, Python 3.11.7), and
# kernel runs before and after each set-up
CAL_SIZE = 14
CAL_REF_S = 0.004
CAL_SETUP_REPEATS = 10

END_TO_END = {
    "ops_per_s": "1/s", "latency_p50_s": "s", "latency_tail_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio",
}
PER_LAYER = {
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    **{f"{fn}.calls": "count" for fn in FUNCTIONS},
    **{f"{fn}.share": "ratio" for fn in FUNCTIONS},
    "linalg.RankTracker.add.grew_ratio": "ratio",
    "linalg.input_max_bits": "bits",
    "cli.output_bytes": "bytes",
    "trace.round_s": "s",
    "trace.overhead_s": "s",
}


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op that ran past its timeout; a
    BaseException so library handlers of Exception cannot swallow it."""


class SetupTimeout(BaseException):
    """Raised by SIGVTALRM when set-up overruns SETUP_BUDGET_S."""


class _Alarm:
    armed = False


def _on_alarm(signum, frame):
    if _Alarm.armed:
        _Alarm.armed = False
        raise OpTimeout()


def _on_setup_alarm(signum, frame):
    raise SetupTimeout()


def run_op(op, timeout: float):
    """(seconds, output, error) of one op under its own timer."""
    out = err = None
    start = time.perf_counter()
    try:
        _Alarm.armed = True
        signal.setitimer(signal.ITIMER_REAL, timeout)
        out = op.call()
        _Alarm.armed = False
    except OpTimeout:
        err = f"timeout after {timeout} s"
    except Exception as exc:  # an op that raises is a failed op
        err = f"{type(exc).__name__}: {exc}"
    finally:
        _Alarm.armed = False
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return elapsed, out, err


def calibration_kernel() -> Fraction:
    """Exact forward elimination of the CAL_SIZE x CAL_SIZE Hilbert matrix
    in Fractions.  It is the library's kind of work (big-integer Fraction
    arithmetic and short-lived objects) written with the standard library
    only, so no change to the library moves it, while a slow phase of the
    host slows it by about as much as the ops: on the reference machine,
    over 10 s windows in which the median ``verify defect`` n=5 op took
    12.4 to 14.8 ms, its median time over the kernel's, times CAL_REF_S,
    stayed within 7.45 to 8.0 ms."""
    n = CAL_SIZE
    m = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    for c in range(n):
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return m[-1][-1]


def time_calibration() -> float:
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


def import_library() -> SimpleNamespace:
    """Fresh import of nodecurves from the checkout's src/ directory."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules
                 if m == "nodecurves" or m.startswith("nodecurves.")]:
        del sys.modules[name]
    pkg = importlib.import_module("nodecurves")
    if Path(pkg.__file__).resolve().parent != (src / "nodecurves").resolve():
        raise ImportError(f"nodecurves found outside {src}")
    return SimpleNamespace(**{
        layer: importlib.import_module(f"nodecurves.{layer}")
        for layer in LAYERS})


def setup(args):
    """Import, build the inputs and warm up: one op per function, at its
    smallest size."""
    lib = import_library()
    ops = workloads.build(args.workload, lib, args.seed, args.smoke)
    first = {}
    for op in ops:
        if op.func not in first or op.n < first[op.func].n:
            first[op.func] = op
    for op in first.values():
        run_op(op, args.op_timeout)
    return lib, ops


class Seen(bytes):
    """sha256 of the canonical text of an output that was not kept."""


def fingerprint(op, out) -> tuple:
    """(Seen, error) of an output after the op's first: it is reduced as
    soon as the op returns, so that memory does not grow with the number of
    rounds, and compared with the first after the loop."""
    try:
        return Seen(hashlib.sha256(op.canon(out).encode()).digest()), None
    except Exception as exc:  # an output that cannot be read fails the op
        return None, f"check: {type(exc).__name__}: {exc}"


def run_round(ops, args, records: list, kept: set, hard_stop: float,
              tracer=None, cal=None) -> bool:
    """Runs every op once, appending (op index, seconds, output, error) to
    records, and before each op times the calibration kernel into cal if
    given; False if hard_stop (a perf_counter time) cut the round short.
    Only an op's first output without error is kept whole (its index goes
    into kept); later ones are kept as their Seen fingerprint."""
    for i, op in enumerate(ops):
        if time.perf_counter() > hard_stop:
            return False
        if tracer is not None:
            tracer.op_id = len(records)
        if cal is not None:
            cal.append(time_calibration())
        seconds, out, err = run_op(op, args.op_timeout)
        if err is None and i in kept:
            out, err = fingerprint(op, out)
        elif err is None:
            kept.add(i)
        records.append((i, seconds, out, err))
    return True


def check_records(ops, records) -> tuple[list, list, list]:
    """Per record, True if the op's output is right; the failure reasons;
    and the first output text of each op (None where no run passed)."""
    reference = [None] * len(ops)
    seen = [None] * len(ops)
    verdicts, reasons = [], []
    for i, _, out, err in records:
        op = ops[i]
        if err is None:
            try:
                if isinstance(out, Seen):
                    if out != seen[i]:
                        err = "output differs from the op's checked output"
                else:
                    text = op.canon(out)
                    op.check(out)
                    reference[i] = text
                    seen[i] = fingerprint(op, out)[0]
            except Exception as exc:  # a check that cannot run fails the op
                err = f"check: {type(exc).__name__}: {exc}"
        verdicts.append(err is None)
        if err is not None:
            reasons.append(f"{op.kind}: {err}")
    return verdicts, reasons, reference


def digest_status(args, ops, reference) -> tuple[str, object]:
    """sha256 of the canonical outputs, and whether it matches the value
    recorded for the default seed (None at other seeds)."""
    text = "\n".join(f"{op.kind}\t{ref}" for op, ref in zip(ops, reference))
    digest = hashlib.sha256(text.encode()).hexdigest()
    if args.seed != DEFAULT_SEED:
        return digest, None
    key = args.workload + ("-smoke" if args.smoke else "")
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")).get(key)
    return digest, digest == recorded and None not in reference


def tail_percentile(samples: list) -> tuple[float, float]:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples
    beyond it, and its nearest-rank value."""
    ordered = sorted(samples)
    size = len(ordered)
    chosen = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if size - math.ceil(p / 100 * size) >= TAIL_MIN_BEYOND:
            chosen = p
    rank = max(1, math.ceil(chosen / 100 * size))
    return chosen, ordered[rank - 1]


def per_op_latency(ops, records, verdicts, cal: list,
                   timeout: float) -> list:
    """Each op's median over its runs of seconds / kernel seconds timed just
    before it, times CAL_REF_S; an op that failed in any run, or never ran,
    counts as taking the whole timeout."""
    ratios = [[] for _ in ops]
    failed = [False] * len(ops)
    for (i, seconds, _, _), ok, kernel in zip(records, verdicts, cal):
        ratios[i].append(seconds / kernel)
        failed[i] = failed[i] or not ok
    return [timeout if bad or not r else statistics.median(r) * CAL_REF_S
            for r, bad in zip(ratios, failed)]


def op_table(ops, records, verdicts, latency: list) -> list:
    """Input descriptors of each op next to its latency in reference
    seconds and its best and median seconds as measured."""
    times = [[] for _ in ops]
    first_out = [None] * len(ops)
    for (i, seconds, out, _), ok in zip(records, verdicts):
        times[i].append(seconds)
        if ok and first_out[i] is None:
            first_out[i] = out
    table = []
    for i, op in enumerate(ops):
        row = {"op": op.kind, "runs": len(times[i]),
               "reference_s": latency[i],
               "best_s": min(times[i], default=None),
               "median_s": statistics.median(times[i]) if times[i] else None}
        if first_out[i] is not None:
            row.update(op.describe(first_out[i]))
        table.append(row)
    return table


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, ops, setups: list) -> tuple[dict, dict, int, int]:
    records: list = []
    kept: set = set()
    cal: list = []
    start = time.perf_counter()
    hard_stop = start + args.seconds + GRACE_S
    rounds = 0
    while True:
        rounds += 1
        complete = run_round(ops, args, records, kept, hard_stop, cal=cal)
        if not complete or time.perf_counter() - start >= args.seconds:
            break
    elapsed = time.perf_counter() - start
    verdicts, reasons, reference = check_records(ops, records)
    attempted = len(records)
    failed = verdicts.count(False)
    latency = per_op_latency(ops, records, verdicts, cal, args.op_timeout)
    passed_ops = sum(1 for t in latency if t < args.op_timeout)
    pct, tail = tail_percentile(latency)
    samples = [r[1] for r in records]
    raw_pct, raw_tail = tail_percentile(samples)
    metrics = {
        "ops_per_s": passed_ops / sum(latency),
        "latency_p50_s": statistics.median(latency),
        "latency_tail_s": tail,
        "setup_s": statistics.median(t for t, _ in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "ok_ratio": (attempted - failed) / attempted,
    }
    digest, digest_ok = digest_status(args, ops, reference)
    detail = {
        "rounds": rounds, "elapsed_s": elapsed, "runs": attempted,
        "ops_per_round": len(ops), "latency_tail_percentile": pct,
        "failed_ratio": failed / attempted,
        "calibration_median_s": statistics.median(cal),
        "all_runs": {"ops_per_s": (attempted - failed) / sum(samples),
                     "latency_p50_s": statistics.median(samples),
                     "latency_tail_percentile": raw_pct,
                     "latency_tail_s": raw_tail},
        "setup_runs": [{"reference_s": t, "measured_s": raw}
                       for t, raw in setups],
        "digest": digest, "digest_ok": digest_ok,
        "failures": reasons[:20],
        "ops": op_table(ops, records, verdicts, latency),
    }
    return ({name: metric(metrics[name], unit)
             for name, unit in END_TO_END.items()},
            detail, attempted, failed)


def per_layer(args, lib, ops) -> tuple[dict, dict, int, int]:
    plain: list = []
    traced: list = []
    kept: set = set()
    tracer = Tracer()
    start = time.perf_counter()
    hard_stop = start + args.seconds + GRACE_S
    pairs = 0
    while True:
        pairs += 1
        complete = run_round(ops, args, plain, kept, hard_stop)
        with tracer.install(lib):
            complete = run_round(ops, args, traced, kept, hard_stop,
                                 tracer) and complete
        if not complete or time.perf_counter() - start >= args.seconds:
            break
    records = plain + traced
    verdicts, reasons, reference = check_records(ops, records)
    plain_s = sum(r[1] for r in plain) / pairs
    traced_s = sum(r[1] for r in traced) / pairs
    summary = tracer.summary(pairs)
    values = {f"{layer}.share": summary["layers"][layer] / traced_s
              for layer in LAYERS}
    for fn in FUNCTIONS:
        values[f"{fn}.calls"] = summary["functions"][fn]["calls"]
        values[f"{fn}.share"] = summary["functions"][fn]["self_s"] / traced_s
    values.update({
        "linalg.RankTracker.add.grew_ratio": summary["grew_ratio"],
        "linalg.input_max_bits": tracer.input_max_bits,
        # per round: the kept outputs, as every later one is the same
        "cli.output_bytes": sum(len(r[2][1].encode()) for r in records
                                if ops[r[0]].is_cli and r[3] is None
                                and not isinstance(r[2], Seen)),
        "trace.round_s": traced_s,
        "trace.overhead_s": traced_s - plain_s,
    })
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    digest, digest_ok = digest_status(args, ops, reference)
    detail = {
        "pairs": pairs, "plain_round_s": plain_s, "traced_round_s": traced_s,
        "self_s": {fn: summary["functions"][fn]["self_s"]
                   for fn in FUNCTIONS},
        "layer_self_s": summary["layers"], "spans": str(
            spans_path.relative_to(ROOT)),
        "digest": digest, "digest_ok": digest_ok, "failures": reasons[:20],
    }
    failed = verdicts.count(False)
    return ({name: metric(values[name], unit)
             for name, unit in PER_LAYER.items()},
            detail, len(records), failed)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest sizes, for the benchmark's own test")
    parser.add_argument("--op-timeout", type=float, default=OP_TIMEOUT_S,
                        help="seconds before an op counts as failed")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGVTALRM, _on_setup_alarm)
    try:
        import_library()
    except ImportError as exc:
        sys.stderr.write(f"cannot import nodecurves from src/: {exc}\n")
        return 2
    setups = []
    signal.setitimer(signal.ITIMER_VIRTUAL, SETUP_BUDGET_S)
    try:
        for _ in range(1 if args.trace else SETUP_REPEATS):
            kernel = [time_calibration() for _ in range(CAL_SETUP_REPEATS)]
            start = time.perf_counter()
            lib, ops = setup(args)
            raw = time.perf_counter() - start
            kernel += [time_calibration() for _ in range(CAL_SETUP_REPEATS)]
            # the mean, as a set-up spans many short slow and quick spells
            setups.append((raw / statistics.fmean(kernel) * CAL_REF_S, raw))
    except SetupTimeout:
        sys.stderr.write(f"set-up used more than {SETUP_BUDGET_S} s of CPU\n")
        return 3
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
    if args.trace:
        metrics, detail, attempted, failed = per_layer(args, lib, ops)
    else:
        metrics, detail, attempted, failed = end_to_end(args, ops, setups)
        print(f"{args.workload} seed {args.seed}: {detail['rounds']} rounds "
              f"of {len(ops)} ops in {detail['elapsed_s']:.1f} s; "
              f"latency_tail_s is p{detail['latency_tail_percentile']} of "
              f"the {len(ops)} per-op latencies")
    correct = failed == 0 and detail["digest_ok"] is not False
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
