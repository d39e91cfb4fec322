"""Command-line front end: router tables, single sessions, attenuation sweeps.

The `simulate` and `sweep` subcommands share one YAML config whose
sections mirror the library dataclasses (``network`` feeds NetworkSpec,
``session`` feeds SessionConfig).  Unknown keys anywhere in the file are
hard errors so a typo in a physics parameter cannot silently fall back
to a default.

Exit codes: 0 success, 2 usage or configuration error, 3 protocol abort.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np
import yaml

from ._numbers import _integer, _keyed, _real
from .netsim import (
    NetworkSpec,
    SweepRow,
    default_client_detectors,
    run_network,
    sweep_attenuation,
    sweep_rows_to_csv,
)
from .photonics import DEFAULT_CLIENT_DARK_RATES_HZ, DetectorModel, SourceModel
from .protocol import SessionConfig, SessionError
from .router import (
    DEFAULT_UNIFORM_LOSS_DB,
    build_assignment,
    export_assignment,
    format_assignment_table,
    fourport_router_spec,
    import_loss_matrix,
    port_label,
    uniform_router_spec,
    wdm_requirements,
)

__all__ = ["ConfigError", "RunConfig", "load_config", "main"]


class ConfigError(ValueError):
    """The config file is missing, malformed, or contains unknown keys."""


EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ABORT = 3

_TOP_KEYS = frozenset({"network", "session", "sweep", "output"})
_ROUTER_KEYS = frozenset({"ports", "uniform_loss_db", "loss_file"})
_SWEEP_KEYS = frozenset({"start_db", "stop_db", "step_db"})
_OUTPUT_KEYS = frozenset({"key_dir", "csv"})


class _YamlLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader, on libyaml's parser where PyYAML has it (the same
    values, about 5x faster), that refuses a mapping naming a key twice."""

    def construct_mapping(self, node, deep=False):
        given = [key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"]
        mapping = super().construct_mapping(node, deep)
        if len(mapping) < len(node.value):  # two equal keys, or a merged key given again
            keys = [self.construct_object(key) for key in given]
            for i, key in enumerate(keys):
                if key in keys[:i]:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"key {key!r} names key {keys[keys.index(key)]!r} again",
                        given[i].start_mark)
        return mapping


# ---------------------------------------------------------------------------
# Config ingestion


def _require_mapping(obj: Any, where: str) -> dict:
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{where} must be a mapping, got {type(obj).__name__}")
    return dict(obj)


def _check_keys(data: Mapping, allowed: frozenset, where: str) -> None:
    unknown = sorted(str(k) for k in data if k not in allowed)
    if unknown:
        raise ConfigError(
            f"unknown key(s) in {where}: {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def _number(value: Any) -> Any:
    """A config value as the number it reads as: text that reads as a number
    (PyYAML reads ``1e6`` as text) becomes that number, an integral float an
    int, and a list is taken element by element.  Anything else is returned
    as given, for the rule that judges it to refuse."""
    if isinstance(value, list):
        return [_number(v) for v in value]
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _judge(rule, value: Any, key: str, *interval, **options) -> Any:
    """The value of config key ``key`` through ``_number``, as ``rule``
    (``_integer``, ``_real`` or ``_keyed``) returns it given the rest; a
    refusal is a ConfigError that names ``key``."""
    try:
        return rule(_number(value), key, *interval, **options)
    except ValueError as err:
        raise ConfigError(str(err)) from None


def _as_str(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    if not value:  # no key takes "": as a path it names the working directory
        raise ConfigError(f"{where} must not be empty")
    return value


def _by_port(data: Any, where: str, n_ports: int, value) -> dict[int, Any]:
    """The port-keyed section ``where`` through ``_keyed``: a key is the port its text reads
    as, so 1 and "1" name one port, and a value what ``value(v, port)`` builds of it."""
    return _judge(_keyed, data, where,
                  lambda key: _integer(_number(key), f"{where} port", 0, n_ports - 1), value)


def _fields(cls) -> frozenset:
    return frozenset(f.name for f in dataclasses.fields(cls))


def _build(cls, section: Mapping, where: str, **given):
    """Instantiate dataclass ``cls`` from the fields ``given``, which the
    caller built, and a config section that may set any other field.  Each
    section value goes through ``_number`` to the field's own rule; fields
    in neither keep the dataclass default."""
    section = _require_mapping(section, where)
    _check_keys(section, _fields(cls) - given.keys(), where)
    try:
        return cls(**given, **{name: _number(value) for name, value in section.items()})
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


def _section(node: Any, where: str) -> dict:
    """An optional config section: absent or null means all defaults."""
    return {} if node is None else _require_mapping(node, where)


def _build_router(node: Any, base_dir: Path):
    if node is None or node == "fourport":
        return fourport_router_spec()
    data = _require_mapping(node, "network.router")
    _check_keys(data, _ROUTER_KEYS, "network.router")
    assignment = build_assignment(_judge(_integer, data.get("ports", 4), "network.router.ports", 2))
    loss = _judge(_real, data.get("uniform_loss_db", DEFAULT_UNIFORM_LOSS_DB),
                  "network.router.uniform_loss_db", 0, unit="dB")
    if "loss_file" in data:
        path = base_dir / _as_str(data["loss_file"], "network.router.loss_file")
        if not path.is_file():
            raise ConfigError(f"network.router.loss_file not found: {path}")
        text = path.read_text(encoding="utf-8")
        try:
            return import_loss_matrix(text, assignment, default_db=loss)
        except ValueError as err:
            raise ConfigError(f"network.router.loss_file {path}: {err}") from err
    return uniform_router_spec(assignment, loss_db=loss)


def _build_detectors(node: Any, n_ports: int, clients: Sequence[int]) -> dict[int, DetectorModel]:
    if node is None:
        if len(clients) != len(DEFAULT_CLIENT_DARK_RATES_HZ):
            raise ConfigError(
                "network.detectors is required unless the router has exactly "
                f"{len(DEFAULT_CLIENT_DARK_RATES_HZ)} clients"
            )
        return default_client_detectors(clients)
    return _by_port(node, "network.detectors", n_ports,
                    lambda value, port: _build(DetectorModel, value, f"network.detectors.{port}"))


def _build_network(node: Any, base_dir: Path) -> NetworkSpec:
    data = _section(node, "network")
    _check_keys(data, _fields(NetworkSpec), "network")
    router = _build_router(data.pop("router", None), base_dir)
    n_ports = router.assignment.n_ports
    # before the detectors, which are built for the other ports
    server = _judge(_integer, data.pop("server", 0), "network.server", 0, n_ports - 1)
    source = _build(
        SourceModel, _section(data.pop("source", None), "network.source"), "network.source"
    )
    clients = tuple(p for p in range(n_ports) if p != server)
    detectors = _build_detectors(data.pop("detectors", None), n_ports, clients)
    eatt = data.pop("eatt_db", 0.0)  # a number for every client, or a mapping
    eatt_db = (_by_port(eatt, "network.eatt_db", n_ports, lambda db, port: _number(db))
               if isinstance(eatt, Mapping) else dict.fromkeys(clients, _number(eatt)))
    return _build(
        NetworkSpec, data, "network",
        router=router, server=server, source=source, detectors=detectors, eatt_db=eatt_db,
    )


def _build_session(node: Any, spec: NetworkSpec) -> SessionConfig:
    data = _section(node, "session")
    data.setdefault("clients", spec.clients)
    return _build(SessionConfig, data, "session", server=spec.server)


def _build_sweep(node: Any) -> tuple[float, float, float] | None:
    if node is None:
        return None
    data = _require_mapping(node, "sweep")
    _check_keys(data, _SWEEP_KEYS, "sweep")
    missing = sorted(_SWEEP_KEYS - set(data))
    if missing:
        raise ConfigError(f"sweep section is missing {', '.join(missing)}")
    start = _judge(_real, data["start_db"], "sweep.start_db", 0, bounds="[)", unit="dB")
    step = _judge(_real, data["step_db"], "sweep.step_db", 0, bounds="()", unit="dB")
    stop = _judge(_real, data["stop_db"], "sweep.stop_db", start, bounds="[)", unit="dB")
    if not math.isfinite((stop - start) / step):  # each value is finite, the quotient may not be
        raise ConfigError(f"sweep: (stop_db - start_db) / step_db must be finite, "
                          f"got ({stop} - {start}) / {step}")
    return start, stop, step


@dataclass(frozen=True)
class RunConfig:
    """A parsed config file: the network, the session, and output plumbing."""

    spec: NetworkSpec
    session: SessionConfig
    sweep_db: tuple[float, float, float] | None
    key_dir: str
    csv_path: str


def load_config(path: str | Path) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        with p.open(encoding="utf-8") as f:  # a file, so error marks name it
            raw = yaml.load(f, Loader=_YamlLoader)
    except (yaml.YAMLError, ValueError) as err:  # ValueError: an int past Python's digit limit
        raise ConfigError(f"cannot parse {p}: {err}") from err
    data = _require_mapping(raw if raw is not None else {}, "config")
    _check_keys(data, _TOP_KEYS, "config")
    spec = _build_network(data.get("network"), p.parent)
    session = _build_session(data.get("session"), spec)
    output = _section(data.get("output"), "output")
    _check_keys(output, _OUTPUT_KEYS, "output")
    return RunConfig(
        spec=spec,
        session=session,
        sweep_db=_build_sweep(data.get("sweep")),
        key_dir=_as_str(output.get("key_dir", "keys"), "output.key_dir"),
        csv_path=_as_str(output.get("csv", "sweep.csv"), "output.csv"),
    )


# ---------------------------------------------------------------------------
# Subcommands


def _warn_low_frames(n_frames: int) -> None:
    if n_frames < 1000:
        print(
            f"warning: n_frames={n_frames} is too small for stable statistics",
            file=sys.stderr,
        )


def _output_path(out: str | None, configured: str = "", key: str = "", *, is_dir: bool) -> Path:
    """``--out``, else ``output.<key>``, refused before any session runs unless it is a
    directory just when ``is_dir`` and its nearest existing ancestor is a directory."""
    where, path = ("--out", Path(out)) if out is not None else (f"output.{key}", Path(configured))
    existing = next(p for p in (path, *path.parents) if p.exists())
    want_dir = is_dir or existing != path
    if existing.is_dir() != want_dir:
        raise ConfigError(f"{where}: {existing} is {'not ' if want_dir else ''}a directory")
    return path


def cmd_router_table(ports: int, out: str | None) -> int:
    """Human table, machine listing, and the WDM count for an N-port router."""
    assignment = build_assignment(ports)
    n_wdms, per_wdm = wdm_requirements(ports)
    text = (
        format_assignment_table(assignment)
        + "\n"
        + export_assignment(assignment)
        + f"\n{n_wdms} WDMs × {per_wdm} channels\n"
    )
    if out is None:
        sys.stdout.write(text)
    else:
        path = _output_path(out, is_dir=False)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return EXIT_OK


def cmd_simulate(run_cfg: RunConfig, out: str | None) -> int:
    """One session over the configured network; keys land in per-client files."""
    out_dir = _output_path(out, run_cfg.key_dir, "key_dir", is_dir=True)
    cfg = run_cfg.session
    _warn_low_frames(cfg.n_frames)
    result = run_network(run_cfg.spec, cfg).result
    clients = ",".join(port_label(c) for c in cfg.clients)
    print(
        f"mode {cfg.mode}  server {port_label(cfg.server)}  clients {clients}  "
        f"seed {cfg.seed}  frames {cfg.n_frames}"
    )
    for link in result.links:
        nm = "" if link.channel.nm is None else f" {link.channel.nm}nm"
        print(
            f"link {port_label(link.server)}-{port_label(link.client)}  "
            f"ch {link.channel.label}{nm}  "
            f"loss_db {link.total_loss_db:.2f}  "
            f"sifted {link.n_sifted}  "
            f"qber {link.qber_measured:.6f}  "
            f"leaked_bits {link.leaked_bits}  "
            f"key_bits {link.final_length}"
        )
    print(
        f"final key: {result.key_length} bits, "
        f"reference client {port_label(result.reference_client)}"
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    for client in sorted(result.client_keys):
        bits = result.client_keys[client]
        path = out_dir / f"key_{port_label(client)}.hex"
        payload = np.packbits(bits).tobytes().hex()
        path.write_text(f"bits {bits.size}\n{payload}\n", encoding="utf-8")
        print(f"wrote {path}")
    return EXIT_OK


def cmd_sweep(run_cfg: RunConfig, out: str | None) -> int:
    """QBER versus eATT sweep; CSV artifact plus a per-channel summary."""
    if run_cfg.sweep_db is None:
        raise ConfigError("the config has no sweep section")
    path = _output_path(out, run_cfg.csv_path, "csv", is_dir=False)
    start, stop, step = run_cfg.sweep_db
    n_points = int(math.floor((stop - start) / step + 1e-9)) + 1
    db_list = [start + i * step for i in range(n_points)]
    _warn_low_frames(run_cfg.session.n_frames)
    rows = sweep_attenuation(run_cfg.spec, run_cfg.session, db_list)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(sweep_rows_to_csv(rows), encoding="utf-8")
    print(
        f"sweep {start:g}..{stop:g} dB step {step:g}: "
        f"{len(rows)} rows -> {path}"
    )
    by_channel: dict[str, list[SweepRow]] = {}
    for r in rows:
        key = f"{r.channel_nm}nm" if r.channel_nm is not None else f"client {r.client}"
        by_channel.setdefault(key, []).append(r)
    for key in sorted(by_channel):
        finite = [r.qber for r in by_channel[key] if not math.isnan(r.qber)]
        statuses = ", ".join(sorted({r.status for r in by_channel[key]}))
        if finite:
            print(f"channel {key}: qber min {min(finite):.6f} max {max(finite):.6f}")
        elif statuses == "no-detections":
            print(f"channel {key}: no detections")
        else:
            print(f"channel {key}: no QBER ({statuses})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wdmqkd",
        description="wavelength-addressed QKD star network simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser(
        "router-table", help="print the wavelength assignment of an N-port router"
    )
    p_table.add_argument("--ports", type=int, default=4, help="number of ports")
    p_table.add_argument("--out", default=None, help="write to a file instead of stdout")

    p_sim = sub.add_parser("simulate", help="run one key-agreement session")
    p_sim.add_argument("--config", required=True, help="YAML config path")
    p_sim.add_argument("--seed", type=int, default=None, help="override session.seed")
    p_sim.add_argument("--out", default=None, help="directory for the key files")

    p_sweep = sub.add_parser("sweep", help="QBER versus attenuation sweep")
    p_sweep.add_argument("--config", required=True, help="YAML config path")
    p_sweep.add_argument("--seed", type=int, default=None, help="override session.seed")
    p_sweep.add_argument("--out", default=None, help="CSV output path")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits itself on --help and usage errors
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        if args.out == "":
            raise ConfigError("--out must not be empty")
        if args.command == "router-table":
            return cmd_router_table(args.ports, args.out)
        run_cfg = load_config(args.config)
        if args.seed is not None:
            run_cfg = dataclasses.replace(
                run_cfg, session=dataclasses.replace(run_cfg.session, seed=args.seed)
            )
        if args.command == "simulate":
            return cmd_simulate(run_cfg, args.out)
        return cmd_sweep(run_cfg, args.out)
    except SessionError as err:
        print(f"abort: {err}", file=sys.stderr)
        for rep in err.diagnostics:
            print(
                f"  link {port_label(rep.server)}-{port_label(rep.client)}  "
                f"qber_estimate {rep.qber_estimate:.6f}  "
                f"qber_measured {rep.qber_measured:.6f}",
                file=sys.stderr,
            )
        return EXIT_ABORT
    except Exception as err:  # exit codes are a contract: anything else is 2
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
