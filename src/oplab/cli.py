"""Command line front end: run, index, probe, certify, convert.

Exit codes: 0 success, 2 configuration or validation problem, 3 stage
failure inside a construction.
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .errors import ConfigError, OplabError, StageError
from .geometry import Arc, Cone, Direction, Explicit
from .index import (
    _METHODS,
    IndexConfig,
    index_k_projection,
    nontriviality_probe,
    projection_index,
)
from .operators import CircleFunction, Projection, laughlin_operator
from .opmat import load_operator, loads_operator
from .runner import MAX_WINDOW_DIMENSION, OUT_DIR_ENV, _window_too_large, load_config, run
from .windows import TruncationWindow


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opl",
        description="finite-window laboratory for essentially commuting operators",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="execute a configured experiment")
    p_run.add_argument("--config", required=True, help="JSON experiment config")
    p_run.add_argument("--seed", type=int, default=None, help="override config seed")
    p_run.add_argument("--out", default=None, help=f"override output dir (also ${OUT_DIR_ENV})")

    p_index = sub.add_parser("index", help="index of a shift compression")
    p_index.add_argument("--radius", type=int, default=16)
    p_index.add_argument("--k", type=int, default=-1, help="target index")
    p_index.add_argument(
        "--method",
        default="auto",
        choices=("auto", *_METHODS),
    )

    p_probe = sub.add_parser("probe", help="non-triviality probe of a projection")
    p_probe.add_argument("--radius", type=int, default=12)
    p_probe.add_argument(
        "--mode", default="half-line", choices=("half-line", "cone")
    )

    p_cert = sub.add_parser("certify", help="run a path experiment and summarize")
    p_cert.add_argument("--config", required=True, help="theorem1/theorem2 config")
    p_cert.add_argument("--seed", type=int, default=None)
    p_cert.add_argument("--out", default=None)

    p_conv = sub.add_parser("convert", help="convert between opmat and JSON")
    p_conv.add_argument("--in", dest="src", required=True)
    p_conv.add_argument("--out", dest="dst", required=True)
    return parser


def _config_with_overrides(args) -> object:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def _cmd_run(args) -> int:
    config = _config_with_overrides(args)
    manifest = run(config, out_override=args.out)
    for stage in manifest.stages:
        print(f"stage {stage['name']}: {stage['seconds']} s")
    for item in manifest.files:
        print(f"wrote {item['path']}  sha256 {item['sha256'][:12]}")
    return 0


def _window(representation: str, radius: int) -> TruncationWindow:
    """The verb's window, once ``--radius`` passes the checks a config's
    radius gets: at least 1, and at most MAX_WINDOW_DIMENSION sites,
    counted before any window is built."""
    if radius < 1:
        raise ConfigError(f"--radius {radius}: must be an integer >= 1")
    if _window_too_large(representation, radius):
        raise ConfigError(
            f"--radius {radius}: the window would hold more than "
            f"{MAX_WINDOW_DIMENSION} sites, the cap on window dimension"
        )
    return TruncationWindow(representation, radius)


def _cmd_index(args) -> int:
    window = _window("Z", args.radius)
    base, proj = index_k_projection(args.k, window)
    result = projection_index(proj, base, args.method)
    print(f"index = {result.value} (method {result.method})")
    return 0 if result.value == args.k else 3


def _cmd_probe(args) -> int:
    window = _window("Z2", args.radius)
    if args.mode == "half-line":
        region = Explicit(
            frozenset(s for s in window.sites if s[0] >= 1)
        )
        fns = (CircleFunction.monomial(1),)
        probes = ((args.radius // 2, 0), (-(args.radius // 2), 0))
    else:
        arc = Arc(Direction(1, -1), Direction(1, 1))
        region = Cone(arc)
        bump = CircleFunction({0: 0.5, 1: -0.25, -1: -0.25})
        fns = (bump,)
        probes = ((args.radius // 2, 0), (0, args.radius // 2))
    proj = Projection.from_region(region, window)
    report = nontriviality_probe(
        proj, laughlin_operator(window), fns, probes, IndexConfig()
    )
    print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_certify(args) -> int:
    config = _config_with_overrides(args)
    if config.experiment not in ("theorem1", "theorem2"):
        raise ConfigError("certify runs theorem1 or theorem2 configs")
    manifest = run(config, out_override=args.out)
    print(f"experiment {config.experiment} complete; files: {len(manifest.files)}")
    for item in manifest.files:
        print(f"wrote {item['path']}")
    return 0


def _cmd_convert(args) -> int:
    src, dst = Path(args.src), Path(args.dst)
    if src.suffix == ".opmat" and dst.suffix == ".json":
        op = load_operator(src)
        header, body = src.read_text(encoding="ascii").split("\n", 1)
        payload = {
            "format": "opmat-json v1",
            "header": json.loads(header),
            "entries_b64": body.strip(),
        }
        dst.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {dst} ({op.window.dimension} x {op.window.dimension})")
        return 0
    if src.suffix == ".json" and dst.suffix == ".opmat":
        try:
            payload = json.loads(src.read_text(encoding="ascii"))
            if payload.get("format") != "opmat-json v1":
                raise ConfigError("input is not an opmat-json v1 document")
            text = json.dumps(payload["header"], sort_keys=True) + "\n" + payload["entries_b64"] + "\n"
        except (
            UnicodeDecodeError,
            json.JSONDecodeError,
            RecursionError,
            AttributeError,
            KeyError,
            TypeError,
        ) as exc:
            raise ConfigError(f"input is not an opmat-json v1 document: {exc!r}") from exc
        if not text.isascii():
            raise ConfigError("input entries_b64 is not ASCII")
        op = loads_operator(text)
        dst.write_text(text, encoding="ascii")
        print(f"wrote {dst} ({op.window.dimension} x {op.window.dimension})")
        return 0
    raise ConfigError("convert maps .opmat to .json or .json to .opmat")


_COMMANDS = {
    "run": _cmd_run,
    "index": _cmd_index,
    "probe": _cmd_probe,
    "certify": _cmd_certify,
    "convert": _cmd_convert,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.verb](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"stage failure: {exc}", file=sys.stderr)
        return 3
    except OplabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main())
