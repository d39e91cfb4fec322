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
import functools
import math
import sys
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np
import yaml

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
_SWEEP_ORDER = ("start_db", "stop_db", "step_db")
_SWEEP_KEYS = frozenset(_SWEEP_ORDER)
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


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            f = float(value)
        except ValueError:
            raise ConfigError(f"{where} must be an integer, got {value!r}") from None
        if f.is_integer():
            return int(f)
    raise ConfigError(f"{where} must be an integer, got {value!r}")


def _as_float(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{where} must be a number, got {value!r}") from None


def _as_str(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    if not value:  # no key takes "": as a path it names the working directory
        raise ConfigError(f"{where} must not be empty")
    return value


def _by_port(data: Mapping, where: str) -> dict[int, Any]:
    """``data`` keyed by port index: two keys naming one port, as 1 and "1" do, are an error."""
    keys: dict[int, Any] = {}
    for key in data:
        port = _as_int(key, f"{where} port key")
        if port in keys:
            raise ConfigError(f"{where} names port {port} twice, as {keys[port]!r} and {key!r}")
        keys[port] = key
    return {port: data[key] for port, key in keys.items()}


def _as_ports(value: Any, where: str) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where} must be a list of port indices")
    return tuple(_as_int(c, f"{where} entry") for c in value)


# parsers of the dataclass fields a config sets directly, by annotation
_PARSERS = {
    int: _as_int,
    float: _as_float,
    str: _as_str,
    tuple[int, ...]: _as_ports,  # session clients
}


@functools.cache
def _field_parsers(cls) -> dict[str, Any]:
    """Each field of dataclass ``cls`` mapped to the parser that
    ``_PARSERS`` holds for its annotation, or to None when the caller must
    parse the field."""
    hints = typing.get_type_hints(cls)
    return {f.name: _PARSERS.get(hints[f.name]) for f in dataclasses.fields(cls)}


def _build(cls, section: Mapping, where: str, fixed: Sequence[str] = (), **given):
    """Instantiate dataclass ``cls`` from a config section keyed by its field names.

    The section may set every field except those named in ``fixed``.  A
    field with a parser that is present in the section is parsed and
    overrides ``given``; any other field comes from ``given`` as the
    caller parsed it.  Fields in neither keep the dataclass default.
    """
    parsers = {k: p for k, p in _field_parsers(cls).items() if k not in fixed}
    _check_keys(section, frozenset(parsers), where)
    kwargs = dict(given)
    for name, parse in parsers.items():
        if parse is not None and name in section:
            kwargs[name] = parse(section[name], f"{where}.{name}")
    try:
        return cls(**kwargs)
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
    ports = _as_int(data.get("ports", 4), "network.router.ports")
    try:
        assignment = build_assignment(ports)
    except ValueError as err:  # fewer than 2 ports
        raise ConfigError(f"network.router.ports: {err}") from err
    loss = _as_float(
        data.get("uniform_loss_db", DEFAULT_UNIFORM_LOSS_DB), "network.router.uniform_loss_db"
    )
    if not loss >= 0:
        raise ConfigError(f"network.router.uniform_loss_db must be >= 0 dB, got {loss}")
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


def _build_detectors(node: Any, clients: Sequence[int]) -> dict[int, DetectorModel]:
    if node is None:
        if len(clients) != len(DEFAULT_CLIENT_DARK_RATES_HZ):
            raise ConfigError(
                "network.detectors is required unless the router has exactly "
                f"{len(DEFAULT_CLIENT_DARK_RATES_HZ)} clients"
            )
        return default_client_detectors(clients)
    data = _by_port(_require_mapping(node, "network.detectors"), "network.detectors")
    out = {}
    for port, value in data.items():
        where = f"network.detectors.{port}"
        out[port] = _build(DetectorModel, _require_mapping(value, where), where)
    return out


def _build_eatt(value: Any, clients: Sequence[int]) -> dict[int, float]:
    if isinstance(value, Mapping):
        return {
            port: _as_float(v, f"network.eatt_db[{port}]")
            for port, v in _by_port(value, "network.eatt_db").items()
        }
    db = _as_float(value, "network.eatt_db")
    return {c: db for c in clients}


def _build_network(node: Any, base_dir: Path) -> NetworkSpec:
    data = _section(node, "network")
    _check_keys(data, frozenset(_field_parsers(NetworkSpec)), "network")
    router = _build_router(data.get("router"), base_dir)
    server = _as_int(data.get("server", 0), "network.server")
    n_ports = router.assignment.n_ports
    if not 0 <= server < n_ports:  # before the detectors, which are built for the other ports
        raise ConfigError(f"network.server must be a router port, 0..{n_ports - 1}, got {server}")
    source = _build(
        SourceModel, _section(data.get("source"), "network.source"), "network.source"
    )
    clients = tuple(p for p in range(n_ports) if p != server)
    return _build(
        NetworkSpec, data, "network",
        router=router,
        server=server,
        source=source,
        detectors=_build_detectors(data.get("detectors"), clients),
        eatt_db=_build_eatt(data.get("eatt_db", 0.0), clients),
    )


def _build_session(node: Any, spec: NetworkSpec) -> SessionConfig:
    return _build(
        SessionConfig, _section(node, "session"), "session", fixed=("server",),
        server=spec.server, clients=spec.clients,
    )


def _build_sweep(node: Any) -> tuple[float, float, float] | None:
    if node is None:
        return None
    data = _require_mapping(node, "sweep")
    _check_keys(data, _SWEEP_KEYS, "sweep")
    missing = sorted(_SWEEP_KEYS - set(data))
    if missing:
        raise ConfigError(f"sweep section is missing {', '.join(missing)}")
    start, stop, step = (_as_float(data[key], f"sweep.{key}") for key in _SWEEP_ORDER)
    for key, value in zip(_SWEEP_ORDER, (start, stop, step)):
        if not math.isfinite(value):
            raise ConfigError(f"sweep.{key} must be finite, got {value}")
    if step <= 0:
        raise ConfigError(f"sweep.step_db must be positive, got {step}")
    if start < 0 or stop < start:
        raise ConfigError(
            f"sweep range must satisfy 0 <= start <= stop, got {start}..{stop}"
        )
    if not math.isfinite((stop - start) / step):
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
    except yaml.YAMLError as err:
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


def _output_path(out: str | None, configured: str, key: str, is_dir: bool) -> Path:
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
        Path(out).write_text(text, encoding="utf-8")
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
        nm = "" if link.channel_nm is None else f" {link.channel_nm}nm"
        print(
            f"link {port_label(link.server)}-{port_label(link.client)}  "
            f"ch λ{link.channel_index + 1}{nm}  "
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
