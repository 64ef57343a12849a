"""Command-line entry point: `sim <scenario> [options]` writing CSV tables."""

from __future__ import annotations

import argparse
import sys

from .model import ConfigError
from .scenarios import (
    SCENARIOS,
    config_schema,
    load_config,
    run_scenario,
    window_report,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sim",
        description="Simulate N two-level atoms in a driven dissipative cavity "
                    "and tabulate atomic quantum correlations and field statistics.",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    schema = config_schema()
    for name in SCENARIOS + ("window",):
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="key=value configuration file")
        sp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a single configuration key")
        sp.add_argument("--out", help="output CSV path (defaults to output_path or stdout)")
        sp.add_argument("--workers", type=int, help="concurrent sweep points")
        sp.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp metadata line (byte-reproducible output)")
        for key, kind in schema.items():
            if key in ("scenario", "workers", "timestamp"):
                continue
            sp.add_argument(f"--{key.replace('_', '-')}", dest=f"cfgkey_{key}",
                            metavar=kind.__name__.upper(), help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = [f"scenario={args.scenario if args.scenario != 'window' else 'custom'}"]
    overrides += list(args.set)
    for key in config_schema():
        val = getattr(args, f"cfgkey_{key}", None)
        if val is not None:
            overrides.append(f"{key}={val}")
    if args.workers is not None:
        overrides.append(f"workers={args.workers}")
    if args.no_timestamp:
        overrides.append("timestamp=false")

    try:
        cfg = load_config(args.config, overrides)
        if args.scenario == "window":
            lo, hi = window_report(cfg.system())
            print(f"window_lo = {lo:.6g}  window_hi = {hi:.6g}  (units 1/kappa)")
            if hi <= lo:
                print("window is degenerate: no semiclassical regime at these parameters")
            print("window_hi scales as 1/N at fixed coupling")
            return 0
        table = run_scenario(cfg)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = args.out or cfg.output_path
    if out:
        table.to_csv(out, timestamp=cfg.timestamp)
    else:
        table.to_csv(sys.stdout, timestamp=cfg.timestamp)

    if table.failures:
        print(f"{len(table.failures)} sweep point(s) failed:", file=sys.stderr)
        for point, msg in table.failures:
            print(f"  {point}: {msg}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
