"""Tests of the benchmark itself: its correctness checks pass on real
outputs of wdmqkd and fail on corrupted ones, and its tracer skips names
that are gone.

    python3 -m pytest perfbench/test_checks.py -q

The outputs come from the workload configs at fewer frames, so the whole
file runs in a few seconds.
"""

import dataclasses
import json
import sys
import types
from pathlib import Path

import pytest
import yaml

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from wdmqkd import cli, netsim  # noqa: E402


def _config(name: str, n_frames: int) -> dict:
    cfg = yaml.safe_load((HERE / "configs" / f"{name}.yaml").read_text())
    cfg["session"]["n_frames"] = n_frames
    return cfg


def _write(cfg: dict, path: Path) -> Path:
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return path


def _session(cfg: dict, tmp: Path):
    run_cfg = cli.load_config(_write(cfg, tmp / "cfg.yaml"))
    session = dataclasses.replace(run_cfg.session, seed=11)
    return run_cfg.spec, netsim.run_network(run_cfg.spec, session)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    cfg = _config("sweep-8M", 1_000_000)
    out = tmp / "sweep.csv"
    assert cli.main(["sweep", "--config", str(_write(cfg, tmp / "cfg.yaml")),
                     "--seed", "3", "--out", str(out)]) == 0
    return cfg, out.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def star(tmp_path_factory):
    cfg = _config("star32-bright", 20_000)
    _, result = _session(cfg, tmp_path_factory.mktemp("star"))
    return cfg, result.result


@pytest.fixture(scope="module")
def eventlog(tmp_path_factory):
    cfg = _config("eventlog-250k", 20_000)
    tmp = tmp_path_factory.mktemp("eventlog")
    run_cfg = cli.load_config(_write(cfg, tmp / "cfg.yaml"))
    session = dataclasses.replace(run_cfg.session, seed=11)
    inputs = {"spec": run_cfg.spec, "session": session}
    _, (events, digest, guard) = run.eventlog_iterate({"netsim": netsim}, inputs)
    wide = events.guard_violations(run_cfg.spec.guard_ns * 3 // 2)
    return list(events.render_lines()), digest, guard, wide, cfg


def _edit_row(csv: str, row: int, column: int, value: str) -> str:
    lines = csv.splitlines()
    fields = lines[row].split(",")
    fields[column] = value
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_sweep_check_passes(sweep):
    cfg, csv = sweep
    assert checks.check_sweep(csv, cfg) == []


@pytest.mark.parametrize("corrupt", [
    lambda csv: "\n".join(csv.splitlines()[:-1]) + "\n",            # a row missing
    lambda csv: csv.replace("atten_db,", "atten,", 1),               # header
    lambda csv: _edit_row(csv, 4, 5, "26.0"),                        # length_km
    lambda csv: _edit_row(csv, 1, 2, "0.05"),                        # QBER off
    lambda csv: _edit_row(csv, 2, 3, "2000.0"),                      # sift rate off
    lambda csv: _edit_row(csv, 1, 4, "0"),                           # leak on one row
    lambda csv: _edit_row(csv, 1, 1, "1510.0"),                      # wrong channel
], ids=["row", "header", "length", "qber", "sift-rate", "leak", "channel"])
def test_sweep_check_fails_on_corrupt_csv(sweep, corrupt):
    cfg, csv = sweep
    assert checks.check_sweep(corrupt(csv), cfg)


def test_star_check_passes(star):
    cfg, result = star
    assert checks.check_star(result, cfg) == []


def test_star_check_fails_on_flipped_key_bit(star):
    cfg, result = star
    keys = dict(result.client_keys)
    flipped = keys[5].copy()
    flipped[17] ^= 1
    keys[5] = flipped
    fails = checks.check_star(dataclasses.replace(result, client_keys=keys), cfg)
    assert fails == ["client 5 key differs from the final key"]


def test_star_check_fails_on_leak_miscount(star):
    cfg, result = star
    links = tuple(
        dataclasses.replace(l, leaked_bits=l.leaked_bits - 1) if l.client == 9 else l
        for l in result.links
    )
    fails = checks.check_star(dataclasses.replace(result, links=links), cfg)
    assert len(fails) == 1 and fails[0].startswith("link 9: leaked_bits")


def test_eventlog_check_passes(eventlog):
    assert checks.check_eventlog(*eventlog) == []


def _edit_line(lines: list, kind: str, field: int, value: str) -> list:
    """``lines`` with one field of the 1000th ``kind`` line of link A-B
    (channel λ2) replaced."""
    i = [i for i, l in enumerate(lines) if f" {kind} " in l and " λ2 " in l][999]
    fields = lines[i].split(" ", 4)
    fields[field] = value
    return lines[:i] + [" ".join(fields)] + lines[i + 1:]


def test_eventlog_check_fails_on_out_of_order_line(eventlog):
    lines, *rest = eventlog
    i = next(i for i in range(len(lines) - 1)
             if lines[i].split()[0] != lines[i + 1].split()[0])
    swapped = lines[:i] + [lines[i + 1], lines[i]] + lines[i + 2:]
    fails = checks.check_eventlog(swapped, *rest)
    assert any(f.startswith(f"line {i + 2}: time") for f in fails)


@pytest.mark.parametrize("kind, field, value", [
    ("pulse-arrival", 3, "λ1"),                                   # link A-D's channel
    ("pulse-arrival", 2, "B"),                                    # port
    ("pulse-arrival", 4, "dest=B router_db=1.7 eatt_db=0.0 loss_db=1.8"),  # detail
    ("gate-open", 4, "width_ns=2.0"),                             # detail
    ("gate-open", 0, "1"),                                        # time off its slot
], ids=["channel", "port", "pulse-detail", "gate-detail", "time"])
def test_eventlog_check_fails_on_corrupt_train_line(eventlog, kind, field, value):
    lines, *rest = eventlog
    corrupt = _edit_line(lines, kind, field, value)
    assert corrupt != lines
    assert checks.check_eventlog(corrupt, *rest)


def test_eventlog_check_fails_on_missing_line_or_wrong_digest(eventlog):
    lines, digest, *rest = eventlog
    assert checks.check_eventlog(lines[1:], digest, *rest)
    assert checks.check_eventlog(lines, "0" * 64, *rest)


def test_eventlog_check_fails_on_wrong_guard_violations(eventlog):
    lines, digest, guard, wide, cfg = eventlog
    assert wide and not guard
    assert checks.check_eventlog(lines, digest, guard, [], cfg)
    assert checks.check_eventlog(lines, digest, guard, wide[1:], cfg)
    assert checks.check_eventlog(lines, digest, wide[:1], wide, cfg)


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert sorted(m["name"] for m in spec["end_to_end"]) == ["iter_s", "peak_rss_mb", "setup_s"]
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_tracer_skips_names_that_are_gone_and_nests_spans():
    mods = {m: types.SimpleNamespace() for m in ("cli", "netsim", "protocol", "router")}
    mods["protocol"].reconcile = lambda a, b, *rest: mods["protocol"].sift(a, b)
    mods["protocol"].sift = lambda a, b: (a, b)
    tracer = spans.Tracer()
    tracer.install(mods)
    with tracer.phase("iteration") as ph:
        mods["protocol"].reconcile([0], [0], 0.0)
    tracer.uninstall()
    assert "protocol.simulate_gate_array" in tracer.missing
    assert dict(ph.calls) == {"reconcile": 1, "sift": 1}
    assert [s[:2] for s in ph.spans] == [["iteration", -1], ["reconcile", 0], ["sift", 1]]
    assert sum(ph.self_s.values()) == pytest.approx(ph.covered)
    assert mods["protocol"].sift(1, 2) == (1, 2) and tracer.phases[-1] is ph
