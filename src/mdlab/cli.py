"""Batch runner: execute selected verification suites and emit reports.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage
error, 3 runtime error while executing checks or writing the report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import sympy as sp

from . import __version__
from .params import check_b
from .report import CheckReport, summarize
from .suites import (
    integrals_suite,
    qdilog_suite,
    representation_suite,
    symbolic_suite,
)

SUITES = ("qdilog", "integrals", "symbolic", "representation")
# The suites whose checks read a tolerance; the symbolic checks are exact.
TOLERANCE_SUITES = ("qdilog", "integrals", "representation")

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


@dataclass
class RunConfig:
    suites: list[str] = field(default_factory=lambda: list(SUITES))
    b: float = 0.83
    omega1: float = 0.83
    omega2: float = 1.0 / 0.83
    seed: int = 42
    trials: int = 20
    tolerances: dict[str, float] = field(default_factory=dict)
    max_N: int = 4
    max_M: int = 4
    gl_rank: int = 3
    report_path: str | None = None


class UsageError(ValueError):
    pass


def _convert(cast, raw: str, where: str):
    """``cast(raw)``, or a UsageError that names where the value came from."""
    try:
        return cast(raw)
    except ValueError:
        raise UsageError(f"{where}: bad value {raw!r}") from None


def _apply_config_file(cfg: RunConfig, path: str) -> None:
    """Flat ``key = value`` file; blank lines and # comments ignored."""
    casts = {
        "b": float, "omega1": float, "omega2": float,
        "seed": int, "trials": int, "max_N": int, "max_M": int,
        "gl_rank": int,
    }
    for lineno, text in enumerate(Path(path).read_text().splitlines(), 1):
        line = text.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key == "suites":
            cfg.suites = [s.strip() for s in raw.split(",") if s.strip()]
        elif key.startswith("tol."):
            cfg.tolerances[key[4:]] = _convert(float, raw, f"{path}: {key}")
        elif key == "report":
            cfg.report_path = raw
        elif key in casts:
            setattr(cfg, key, _convert(casts[key], raw, f"{path}: {key}"))
        else:
            raise UsageError(f"{path}: unknown config key {key!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdlab",
        description="Run verification suites for the quantum-dilogarithm / "
        "quantum-group toolkit.",
    )
    parser.add_argument(
        "--suite", action="append", choices=SUITES, dest="suites", metavar="NAME",
        help="suite to run (repeatable); default: all",
    )
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--b", type=float, help="quantum parameter b (default 0.83)")
    parser.add_argument("--omega1", type=float, help="omega_1 (default 0.83)")
    parser.add_argument("--omega2", type=float, help="omega_2 (default 1/0.83)")
    parser.add_argument("--seed", type=int, help="RNG seed (default 42)")
    parser.add_argument("--trials", type=int, help="trials per relation (default 20)")
    parser.add_argument(
        "--tol", action="append", metavar="SUITE=VAL", dest="tols",
        help="tolerance override for qdilog, integrals or representation, "
        "e.g. --tol integrals=1e-8",
    )
    parser.add_argument("--max-N", type=int, dest="max_N", help="symbolic bound N")
    parser.add_argument("--max-M", type=int, dest="max_M", help="symbolic bound M")
    parser.add_argument("--gl-rank", type=int, dest="gl_rank",
                        help="largest N of gl(N), at least 2 (default 3)")
    parser.add_argument("--report", metavar="PATH", help="report file path")
    return parser


def parse_config(argv: list[str]) -> RunConfig:
    """CLI flags override config-file values override defaults."""
    args = _build_parser().parse_args(argv)
    cfg = RunConfig()
    if args.config:
        _apply_config_file(cfg, args.config)
    for name in ("b", "omega1", "omega2", "seed", "trials", "max_N", "max_M", "gl_rank"):
        value = getattr(args, name)
        if value is not None:
            setattr(cfg, name, value)
    if args.suites:
        cfg.suites = list(dict.fromkeys(args.suites))
    if args.report:
        cfg.report_path = args.report
    for spec in args.tols or ():
        if "=" not in spec:
            raise UsageError(f"--tol expects SUITE=VALUE, got {spec!r}")
        suite, _, raw = spec.partition("=")
        cfg.tolerances[suite] = _convert(float, raw, f"--tol {spec!r}")
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if not cfg.suites:
        raise UsageError("at least one suite must be selected")
    for s in cfg.suites:
        if s not in SUITES:
            raise UsageError(f"unknown suite {s!r}")
    try:
        check_b(cfg.b)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    for name in ("omega1", "omega2"):
        if not 0 < getattr(cfg, name) < math.inf:
            raise UsageError(f"{name} must be positive and finite")
    if cfg.trials < 1:
        raise UsageError("trials must be >= 1")
    if cfg.gl_rank < 2:
        raise UsageError("gl_rank must be >= 2")
    if not (0 <= cfg.max_N and 0 <= cfg.max_M):
        raise UsageError("max_N and max_M must be non-negative")
    if cfg.seed < 0 or cfg.seed >= 2**64:
        raise UsageError("seed must fit in 64 unsigned bits")
    for suite, tol in cfg.tolerances.items():
        if suite not in TOLERANCE_SUITES:
            raise UsageError(f"no tolerance applies to suite {suite!r}")
        if not 0 < tol < math.inf:
            raise UsageError(f"tolerance for {suite} must be positive and finite")


def _report_path(cfg: RunConfig) -> Path:
    if cfg.report_path:
        return Path(cfg.report_path)
    directory = os.environ.get("MDLAB_REPORT_DIR", ".")
    return Path(directory) / "mdlab_report.json"


def run(cfg: RunConfig, out=sys.stdout) -> int:
    start = time.perf_counter()
    reports: list[CheckReport] = []
    # a suite keeps its own default tolerance unless the user set one
    tol = {suite: {"tolerance": t} for suite, t in cfg.tolerances.items()}
    if "qdilog" in cfg.suites:
        reports += qdilog_suite(b=cfg.b, **tol.get("qdilog", {}))
    if "integrals" in cfg.suites:
        reports += integrals_suite(b=cfg.b, **tol.get("integrals", {}))
    if "symbolic" in cfg.suites:
        reports += symbolic_suite(max_N=cfg.max_N, max_M=cfg.max_M)
    if "representation" in cfg.suites:
        reports += representation_suite(
            omega1=cfg.omega1,
            omega2=cfg.omega2,
            gl_rank=cfg.gl_rank,
            trials=cfg.trials,
            seed=cfg.seed,
            **tol.get("representation", {}),
        )

    for r in reports:
        print(r, file=out)
    summary = summarize(reports)
    passed, total = summary["passed"], summary["total"]
    wall = time.perf_counter() - start
    print(f"{passed}/{total} checks passed in {wall:.1f}s", file=out)

    payload = {
        "version": __version__,
        "libraries": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "sympy": sp.__version__,
        },
        "config": asdict(cfg),
        "checks": [r.to_dict() for r in reports],
        "summary": summary,
        "wall_time": wall,
    }
    path = _report_path(cfg)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"report written to {path}", file=out)
    return EXIT_OK if passed == total else EXIT_CHECK_FAILURE


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error reading config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        # argparse exits with 2 on bad flags and 0 on --help
        return int(exc.code or 0)
    try:
        return run(cfg)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # numeric/runtime failures are not check failures
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
