"""detthick benchmark: run one workload for one seed and print its metrics.

    python3 bench/run.py --workload label_sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ./src.  Each
pass of the op list runs in a fresh interpreter (one caller, no threads), so
a memo the program keeps across calls helps within a pass but never carries
from one pass to the next:

* a check pass runs every op and checks every output (``checks.py``);
* with ``--trace 0``, timed passes repeat until ``--seconds`` of them have
  run (at least three); each op's median time over them gives the
  end-to-end metrics, and ``setup_s`` is the median time fresh interpreters
  take to import ``detthick`` and ``detthick.cli``, timed inside each
  interpreter, a few at a time between the passes;
* with ``--trace 1``, traced passes (``spans.py``) alternate with untraced
  ones; the quickest traced pass gives the per-layer metrics, and its wall
  time over that of the quickest untraced pass gives the tracing overhead.

Every time but the per-layer ones is scaled to nominal host speed by a
calibration loop timed next to it (``calib.py``), which divides out the
drift of a shared host; the raw times are printed beside the scaled ones.

Every pass compares its result digests with the check pass's; with the
default seed they are also compared with ``pinned.json``.  Human-readable
lines come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import socket
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import calib  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
MIN_TIMED_PASSES = 3
MAX_TIMED_PASSES = 25
SETUP_PER_PASS = 4  # imports timed after each timed pass, so they span the run
MIN_SETUP_SAMPLES = 31
TRACE_PAIRS = 2  # untraced and traced passes of a traced run
STOP_STARTING_AFTER_S = 100.0  # no new timed pass after this ...
DEADLINE_S = 170.0  # ... and a pass still running at this point is killed

END_TO_END_UNITS = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(ops: list, trace: bool, check: bool, timeout: float = DEADLINE_S) -> dict:
    """One pass of the op list in a fresh interpreter."""
    req = json.dumps({"ops": ops, "trace": trace, "check": check})
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")],
            input=req, capture_output=True, text=True, env=_child_env(),
            cwd=ROOT, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a pass was killed after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"worker printed no result:\n{proc.stderr.strip()}") from exc


IMPORT_TIMER = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import calib\n"
    "refs = [calib.time_ref() for _ in range(6)][3:]\n"
    "t0 = calib.perf_counter()\n"
    "import detthick, detthick.cli\n"
    "elapsed = calib.perf_counter() - t0\n"
    "refs += [calib.time_ref() for _ in range(3)]\n"
    "print(elapsed, calib.scale(refs))\n"
)


def time_import() -> tuple[float, float]:
    """Time a fresh interpreter takes to import detthick and detthick.cli,
    measured inside it, so the start-up of the interpreter itself and of the
    process do not count; also the calibration scale timed around it."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER, HERE],
        env=_child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise BenchError(f"importing detthick failed:\n{proc.stderr.strip()}")
    elapsed, scale = proc.stdout.split()
    return float(elapsed), float(scale)


def scaled_times(got: dict) -> list:
    """A pass's build time, then its op times, in seconds at nominal host
    speed (``calib.py``)."""
    raw = [got["build_s"], *got["op_s"]]
    return [t * f for t, f in zip(raw, calib.scales(got["ref_s"], len(raw)))]


def _combined_digest(digests: list) -> str:
    return hashlib.sha256(json.dumps(digests).encode()).hexdigest()[:16]


def _compare(reference: list, got: dict, failed: set) -> int:
    """Add to failed every op of one pass that raised, failed a check or whose
    digest differs from the check pass's; return how many did."""
    bad = {int(i) for i in got["failed"]}
    bad.update(i for i, (a, b) in enumerate(zip(reference, got["digests"])) if a != b)
    failed.update(bad)
    return len(bad)


def _git_commit():
    """HEAD of the checkout; None outside a git checkout or without git."""
    # the ceiling keeps git from reporting a repository that encloses ROOT
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _meta(args, n_ops: int) -> dict:
    src_hash = hashlib.sha256()
    pkg = os.path.join(SRC, "detthick")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src_hash.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "ops": n_ops,
        "python": platform.python_version(),
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "src_sha256": src_hash.hexdigest()[:16],
    }


def bench(args) -> tuple[dict, list[str]]:
    """Run the passes; return the result object and the report lines."""
    ops = workloads.generate(args.workload, args.seed)
    started = perf_counter()
    left = lambda: started + DEADLINE_S - perf_counter()
    lines = [f"meta {json.dumps(_meta(args, len(ops)))}"]

    checked = run_pass(ops, trace=False, check=True, timeout=left())
    reference = checked["digests"]
    failed: set = set()
    n_failed = _compare(reference, checked, failed)
    attempted = len(ops)
    for i, msg in sorted((int(i), m) for i, m in checked["failed"].items())[:10]:
        lines.append(f"FAILED op {i} {json.dumps(ops[i])[:200]}: {msg}")

    correct = True
    if args.seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "pinned.json")) as fh:
            pinned = json.load(fh).get(args.workload)
        got = _combined_digest(reference)
        if pinned != got:
            correct = False
            lines.append(f"pinned digest mismatch for seed {DEFAULT_SEED}: {got} != {pinned}")

    metrics: dict[str, dict] = {}
    if args.trace:
        # Untraced and traced passes alternate, and the least scaled wall
        # time of each kind is compared, so that host load drifting between
        # two passes cannot pass for the cost (or a gain) of tracing.
        plain, traced = [], []
        for _ in range(TRACE_PAIRS):
            plain.append(run_pass(ops, trace=False, check=False, timeout=left()))
            traced.append(run_pass(ops, trace=True, check=False, timeout=left()))
        for got in plain + traced:
            n_failed += _compare(reference, got, failed)
        attempted += 2 * TRACE_PAIRS * len(ops)
        wall = lambda got: sum(scaled_times(got))
        plain = min(plain, key=wall)
        traced = min(traced, key=wall)
        layers = traced["layers"]
        layers["trace.overhead_ratio"] = wall(traced) / wall(plain) - 1.0
        for name, value in layers.items():
            metrics[name] = {"value": value, "unit": _layer_unit(name)}
        lines.append(
            f"traced pass {traced['wall_s']:.3f} s, untraced {plain['wall_s']:.3f} s, "
            f"{layers['trace.spans']} spans"
        )
    else:
        timed, setup = [], []
        spent = 0.0
        time_import()  # may compile bytecode; discarded
        while len(timed) < MAX_TIMED_PASSES and (
            len(timed) < MIN_TIMED_PASSES or spent < args.seconds
        ):
            if timed and perf_counter() - started > STOP_STARTING_AFTER_S:
                break
            t0 = perf_counter()
            got = run_pass(ops, trace=False, check=False, timeout=left())
            spent += perf_counter() - t0
            n_failed += _compare(reference, got, failed)
            attempted += len(ops)
            timed.append(got)
            setup += [time_import() for _ in range(SETUP_PER_PASS)]
        while len(setup) < MIN_SETUP_SAMPLES:
            setup.append(time_import())
        # Times are scaled to nominal host speed (calib.py), so the drift of
        # a shared host divides out.  The build and each op then take their
        # median over the timed passes, each pass in a fresh interpreter;
        # wall_s sums these.
        build, *op_med = [statistics.median(ts) for ts in zip(*map(scaled_times, timed))]
        values = {
            "wall_s": build + sum(op_med),
            "op_p50_ms": 1000.0 * statistics.median(op_med),
            "op_p90_ms": 1000.0 * statistics.quantiles(op_med, n=10, method="inclusive")[-1],
            "peak_rss_mb": statistics.median(got["peak_rss_mb"] for got in timed),
            "setup_s": statistics.median(t * f for t, f in setup),
        }
        for name, value in values.items():
            metrics[name] = {"value": value, "unit": END_TO_END_UNITS[name]}
        lines.append(
            f"{len(timed)} timed passes of {len(ops)} ops; an op's latency is its median "
            f"scaled time, {len(ops)} samples ({len(ops) // 10} beyond p90)"
        )
        lines.append("wall_s per pass, raw: " + ", ".join(f"{got['wall_s']:.3f}" for got in timed))
        lines.append("wall_s per pass, scaled: "
                     + ", ".join(f"{sum(scaled_times(got)):.3f}" for got in timed))
        lines.append(f"setup_s over {len(setup)} fresh interpreters, import timed inside "
                     "each, raw: " + ", ".join(f"{t:.4f}" for t, _ in setup))
        lines.append("setup_s scaled: " + ", ".join(f"{t * f:.4f}" for t, f in setup))
    for name, m in metrics.items():
        lines.append(f"{name} = {m['value']:.6g} {m['unit']}")
    lines.append(f"fail_ratio = {n_failed / attempted:.6g} ratio ({n_failed} of {attempted} "
                 f"op runs; {len(failed)} of {len(ops)} distinct ops)")
    result = {
        "correct": correct and not failed,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": metrics,
    }
    return result, lines


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="time the timed passes should fill (at least three run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "detthick", "__init__.py")):
        print(f"error: no detthick package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    try:
        result, lines = bench(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(f"# {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
