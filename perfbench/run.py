"""Benchmark of wdmqkd: three workloads run against its public API.

    python3 perfbench/run.py --workload sweep-8M --seed 1 --seconds 45 --trace 0

One run sets up its workload, runs one warm-up iteration, then repeats
the iteration for ``--seconds`` of wall time, setting up again
``SETUP_REPS`` times spread over that time; ``setup_s`` is the median of
the set-ups.  Every iteration of a run uses the same inputs, made from
``--seed``, so every iteration does the same work and must give the same
output; ``iter_s`` is their median.  The warm-up output is checked
against closed forms computed by ``checks.py``.  The last line of stdout
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``;
with ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones (half the run untraced, half with the
spans of ``spans.py`` installed).

The run imports wdmqkd from ``src/`` next to this directory and exits 2
without a result when that is missing.
"""

from __future__ import annotations

import os

# one process, one thread: keep numpy's BLAS pool from starting threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import dataclasses
import gc
import importlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from spans import Tracer, dump_spans, layer_metrics, note  # noqa: E402

SETUP_REPS = 11
MODULES = ("cli", "netsim", "protocol", "router")

PER_LAYER_UNITS = {
    "sample.s": "s", "sample.gates": "count", "sample.clicks": "count",
    "sample.click_fraction": "fraction",
    "sift.s": "s", "sift.bits": "count",
    "estimate.s": "s", "estimate.sampled_bits": "count",
    "reconcile.s": "s", "reconcile.calls": "count", "reconcile.parity_bits": "count",
    "reconcile.parity_queries": "count", "reconcile.f_ec": "ratio",
    "flipmask.s": "s", "flipmask.flips": "count",
    "transcript.append_s": "s", "transcript.messages": "count",
    "transcript.parity_count_s": "s",
    "session.self_s": "s", "netsim.self_s": "s",
    "eventlog.notify_s": "s", "eventlog.digest_s": "s", "eventlog.lines": "count",
    "eventlog.guard_s": "s",
    "router.build_s": "s", "router.pairs": "count",
    "cli.load_config_s": "s", "cli.self_s": "s", "sweep.points": "count",
    "trace.iter_s": "s", "trace.untraced_iter_s": "s", "trace.overhead_s": "s",
    "trace.coverage": "fraction",
}
# measured over the set-up phases; every other layer over the iterations
SETUP_LAYER = ("router.build_s", "router.pairs", "cli.load_config_s")


def import_wdmqkd() -> dict[str, Any]:
    """Import wdmqkd afresh from the checkout, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "wdmqkd" or n.startswith("wdmqkd.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"wdmqkd.{m}") for m in MODULES}
    origin = Path(sys.modules["wdmqkd"].__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise RuntimeError(f"wdmqkd was imported from {origin}, not from {ROOT / 'src'}")
    return mods


# ---------------------------------------------------------------------------
# Workloads: set-up builds the inputs, iterate times one iteration and
# returns its output, fingerprint must be equal across iterations.


def _load(mods, path: Path, seed: int) -> dict:
    run_cfg = mods["cli"].load_config(path)
    report = mods["router"].verify_assignment(run_cfg.spec.router.assignment)
    if not report.ok:
        raise RuntimeError(f"router assignment fails verification:\n{report}")
    return {
        "config": str(path),
        "seed": seed,
        "spec": run_cfg.spec,
        "session": dataclasses.replace(run_cfg.session, seed=seed),
    }


def sweep_iterate(mods, inp):
    csv_path = OUT / "sweep-8M.csv"
    # the check must read what this iteration wrote, not an earlier run's file
    csv_path.unlink(missing_ok=True)
    argv = ["sweep", "--config", inp["config"], "--seed", str(inp["seed"]),
            "--out", str(csv_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        rc = mods["cli"].main(argv)
        elapsed = time.perf_counter() - t0
    if rc != 0:
        raise RuntimeError(f"wdmqkd sweep exited {rc}")
    return elapsed, csv_path.read_text(encoding="utf-8")


def star_iterate(mods, inp):
    t0 = time.perf_counter()
    run = mods["netsim"].run_network(inp["spec"], inp["session"])
    return time.perf_counter() - t0, run.result


def eventlog_iterate(mods, inp):
    """The quantum phase of a broadcast session (the server's train to every
    client through one ``Network``), then the digest and guard check of its
    log.  The classical phase is left out: at 250k frames ``reconcile``
    fails on about 1% of seeds."""
    ses = inp["session"]
    t0 = time.perf_counter()
    net = mods["netsim"].Network(inp["spec"], seed=ses.seed)
    for client in ses.clients:
        net.transmit_train(ses.server, client, ses.n_frames)
    digest = net.events.digest()
    guard = net.events.guard_violations(inp["spec"].guard_ns)
    return time.perf_counter() - t0, (net.events, digest, guard)


def eventlog_check(out, cfg):
    events, digest, guard = out
    wide = events.guard_violations(cfg["network"]["guard_ns"] * 3 // 2)
    return checks.check_eventlog(events.render_lines(), digest, guard, wide, cfg)


@dataclass(frozen=True)
class Workload:
    iterate: Callable
    fingerprint: Callable
    check: Callable  # (output, config dict) -> list of failures


WORKLOADS = {
    "sweep-8M": Workload(sweep_iterate, lambda csv: csv, checks.check_sweep),
    "star32-bright": Workload(
        star_iterate,
        lambda r: (r.final_key.tobytes(), tuple(l.leaked_bits for l in r.links)),
        checks.check_star,
    ),
    "eventlog-250k": Workload(
        eventlog_iterate, lambda out: (out[1], len(out[2])), eventlog_check
    ),
}


# ---------------------------------------------------------------------------


def probe() -> dict[str, float]:
    """Fixed machine-speed reference, reported next to the metrics only:
    a numpy kernel like the channel sampler's and a pure-Python loop."""
    rng = np.random.default_rng(12345)
    numpy_s, python_s = [], []
    for _ in range(5):
        t0 = time.perf_counter()
        int(np.count_nonzero(rng.random(2_000_000) < 0.3))
        numpy_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        python_s.append(time.perf_counter() - t0)
    return {"numpy_s": statistics.median(numpy_s), "python_s": statistics.median(python_s)}


class Runner:
    """Counts attempted and failed iterations and checks determinism."""

    def __init__(self, workload: Workload, mods, inputs) -> None:
        self.workload, self.mods, self.inputs = workload, mods, inputs
        self.attempted = self.failed = self.mismatched = 0
        self.reference = None

    def once(self, tracer: Tracer | None = None):
        gc.collect()
        self.attempted += 1
        try:
            if tracer is None:
                return self.workload.iterate(self.mods, self.inputs)
            with tracer.phase("iteration"):
                return self.workload.iterate(self.mods, self.inputs)
        except Exception:  # a failed operation is counted, the run goes on
            self.failed += 1
            traceback.print_exc()
            return None

    def loop(self, seconds: float, tracer: Tracer | None = None, set_up=None) -> list[float]:
        """Iterate for ``seconds``; ``set_up``, if given, runs every
        ``seconds / SETUP_REPS`` between iterations, outside their timing."""
        times = []
        now = time.perf_counter()
        end, next_setup = now + seconds, now
        while time.perf_counter() < end:
            if set_up is not None and time.perf_counter() >= next_setup:
                set_up()
                next_setup += seconds / SETUP_REPS
            res = self.once(tracer)
            if res is None:
                continue
            times.append(res[0])
            if self.reference is not None and self.workload.fingerprint(res[1]) != self.reference:
                self.mismatched += 1
        return times


def per_layer(tracer: Tracer, untraced: list[float], traced: list[float]) -> dict:
    def median_over(kind):
        rows = [layer_metrics(p) for p in tracer.phases if p.kind == kind]
        return {k: statistics.median(r[k] for r in rows) for k in rows[0]}

    values = median_over("iteration")
    setup = median_over("setup")
    values.update({k: setup[k] for k in SETUP_LAYER})
    its = [p for p in tracer.phases if p.kind == "iteration"]
    values["trace.iter_s"] = statistics.median(traced)
    values["trace.untraced_iter_s"] = statistics.median(untraced)
    values["trace.overhead_s"] = values["trace.iter_s"] - values["trace.untraced_iter_s"]
    values["trace.coverage"] = statistics.median(p.covered / p.duration for p in its)
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "wdmqkd" / "__init__.py").is_file():
        print(f"error: no wdmqkd sources in {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload]
    cfg_path = HERE / "configs" / f"{args.workload}.yaml"
    cfg = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    probe_start = probe()
    tracer = Tracer() if args.trace else None

    def set_up():
        """One timed set-up; the iterations keep the modules and inputs of the first."""
        t0 = time.perf_counter()
        mods = import_wdmqkd()
        if tracer is None:
            inputs = _load(mods, cfg_path, args.seed)
        else:
            tracer.install(mods)
            with tracer.phase("setup"):
                inputs = _load(mods, cfg_path, args.seed)
            tracer.uninstall()
        setup_s.append(time.perf_counter() - t0)
        return mods, inputs

    setup_s: list[float] = []
    mods, inputs = set_up()
    runner = Runner(workload, mods, inputs)
    warm = runner.once()
    if warm is not None:
        runner.reference = workload.fingerprint(warm[1])
    if tracer is None:
        # set-ups spread over the run, so their median sees the same
        # machine phases as the iterations
        times = untraced = runner.loop(args.seconds, set_up=set_up)
    else:
        for _ in range(SETUP_REPS - 1):
            set_up()
        untraced = runner.loop(args.seconds / 2)
        tracer.install(mods)
        times = runner.loop(args.seconds / 2, tracer)
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe_end = probe()

    failures = workload.check(warm[1], cfg) if warm is not None else []
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    if runner.mismatched:
        print(f"{runner.mismatched} iterations differ from the warm-up output", file=sys.stderr)
    if not times or not untraced:
        print("error: no iteration completed", file=sys.stderr)
        return 1

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "iter_s": times, "setup_s": setup_s,
        "probe_start": probe_start, "probe_end": probe_end,
        "check_failures": len(failures), "mismatched": runner.mismatched,
    }
    if tracer is None:
        metrics = {
            "iter_s": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        note(tracer)
        metrics = per_layer(tracer, untraced, times)
        info["untraced_iter_s"] = untraced
        spans_path = OUT / f"spans-{args.workload}.txt"
        with spans_path.open("w", encoding="utf-8") as fh:
            for kind in ("setup", "iteration"):
                fh.write(f"# last {kind}: index parent name start_s end_s\n")
                dump_spans([p for p in tracer.phases if p.kind == kind][-1], fh)
        info["spans"] = str(spans_path.relative_to(ROOT))
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": not failures and runner.mismatched == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
