"""One pass of a workload's op list in a fresh interpreter.

Reads ``{"ops": [...], "trace": bool, "check": bool}`` as JSON on stdin and
prints one JSON line with the timings, result digests, failures and (when
traced) the per-layer metrics.  The timed region is the building of the
pass's input ideals plus each op's call on its built ideals.  Looking the
ideals up, digests and checks run between ops with the clock stopped, and
the checks that call detthick itself run after the last op, so that they
cannot warm anything an op uses.
"""

from __future__ import annotations

import json
import resource
import sys
from time import perf_counter

import calib
import checks
from spans import Tracer


class Inputs:
    """The ideals named by the ops, built once per pass."""

    def __init__(self, dt) -> None:
        self.dt = dt
        self.built: dict = {}

    def __call__(self, spec: list):
        key = json.dumps(spec)
        got = self.built.get(key)
        if got is None:
            got = self.built[key] = self._build(spec)
        return got

    def _build(self, spec: list):
        dt, kind = self.dt, spec[0]
        if kind == "power":
            return dt.power_gens(*spec[1:])
        if kind == "symbolic":
            return dt.symbolic_gens(*spec[1:])
        if kind == "satpower":
            return dt.saturate(dt.power_gens(*spec[1:]), 1)
        if kind == "minors":
            p, n = spec[1], spec[2]
            return dt.IdealSpec(n, frozenset([dt.Partition([1] * p)]))
        if kind == "gens":
            return dt.IdealSpec(spec[1], frozenset(dt.Partition(g) for g in spec[2]))
        raise ValueError(f"unknown ideal kind {kind!r}")


def ideals_of(op: list) -> list:
    kind = op[0]
    if kind in ("zset", "ext", "reg", "kodaira", "hilbert_dim"):
        return [op[1]]
    if kind == "ext_map":
        return [op[1], op[2]]
    return []


def call(dt, ideals: list, op: list):
    """Run one op on its already built ideals; every entry point is looked up
    at call time, so tracing sees it."""
    kind = op[0]
    if kind == "zset":
        return dt.zset_general(ideals[0])
    if kind == "ext":
        _, _, j, m, n, window = op
        return dt.ext_graded(ideals[0], j, m, n, None if window is None else tuple(window))
    if kind == "ext_map":
        _, _, _, j, m, n = op
        return dt.ext_map_parts(ideals[0], ideals[1], j, m, n)
    if kind == "reg":
        return dt.reg_quotient(ideals[0], op[2], op[3])
    if kind == "kodaira":
        return dt.kodaira_check(ideals[0], op[2], op[3])
    if kind == "cli":
        return dt.cli.run(op[1])
    if kind == "reg_family":
        return dt.reg_power_family(*op[1:])
    if kind == "hilbert_dim":
        _, _, r, m, n = op
        return dt.quotient_graded_dim(ideals[0], r, m, n)
    raise ValueError(f"unknown op kind {kind!r}")


def run_pass(ops: list, trace: bool, check: bool) -> dict:
    import detthick as dt
    import detthick.cli  # noqa: F401  (binds dt.cli)

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    ideal = Inputs(dt)
    for _ in range(3):  # warm-up
        calib.time_ref()
    # the calibration loop runs before the build, between ops and after the
    # last op, so ref_s[k] and ref_s[k + 1] bracket timed stretch k
    ref_s = [calib.time_ref()]
    t0 = perf_counter()
    for op in ops:
        for spec in ideals_of(op):
            ideal(spec)
    build_s = perf_counter() - t0

    ar = checks.Arith()
    op_s, digests, facts = [], [], []
    failed: dict[int, str] = {}
    for i, op in enumerate(ops):
        if tracer:
            tracer.op_id = i
        ideals = [ideal(spec) for spec in ideals_of(op)]
        ref_s.append(calib.time_ref())
        t0 = perf_counter()
        try:
            try:
                result = call(dt, ideals, op)
            finally:
                op_s.append(perf_counter() - t0)
            canon = checks.canonical(op[0], result)
        except Exception as exc:  # an op that raises or returns junk fails, not the pass
            failed[i] = f"{type(exc).__name__}: {exc}"
            digests.append(None)
            facts.append(None)
            continue
        del result
        digests.append(checks.digest(canon))
        fact = None
        if check:
            try:
                fact = checks.inline_check(ar, op, canon)
            except checks.CheckFailure as exc:
                failed[i] = str(exc)
            except Exception as exc:  # a result the check cannot read fails too
                failed[i] = f"check raised {type(exc).__name__}: {exc}"
        facts.append(fact)
    ref_s.append(calib.time_ref())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer:
        tracer.uninstall()
        layers = tracer.layer_metrics()
    if check:
        orc = checks.Oracles(dt, ideal)
        for i, msg in checks.deferred_checks(orc, ops, facts).items():
            failed.setdefault(i, msg)
    return {
        "build_s": build_s,
        "op_s": op_s,
        "ref_s": ref_s,
        "wall_s": build_s + sum(op_s),
        "peak_rss_mb": peak_rss_mb,
        "digests": digests,
        "failed": failed,
        "layers": layers,
    }


def main() -> int:
    req = json.load(sys.stdin)
    out = run_pass(req["ops"], bool(req["trace"]), bool(req["check"]))
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
