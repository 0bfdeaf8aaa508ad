"""Command line driver: ``kkw <experiment> [--config FILE] [overrides]``.

The subcommand names the experiment; --config points at a flat
``key = value`` file; the remaining flags override individual fields.
Exits 0 on success, nonzero with a one-line diagnostic on any failure.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

from kacwalk import experiments

__all__ = ["build_parser", "main", "run"]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kkw",
        description="Seeded experiments around pairwise row-orthogonalization "
                    "of linear systems.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True,
                                metavar="experiment")
    for name in sorted(experiments.EXPERIMENTS):
        doc = (experiments.EXPERIMENTS[name].run.__doc__ or "").strip()
        summary = doc.splitlines()[0] if doc else None
        sp = sub.add_parser(name, help=summary, description=doc,
                            formatter_class=argparse.RawDescriptionHelpFormatter)
        sp.add_argument("--config", type=Path, default=None,
                        help="flat key = value config file")
        for field, (_, help_text) in experiments.FIELDS.items():
            sp.add_argument("--" + field.replace("_", "-"), type=int,
                            default=None, help=help_text)
        sp.add_argument("--out", type=str, default=None, dest="output_dir",
                        help="output directory (default: current directory)")
        sp.add_argument("-x", "--extra", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="experiment-specific option (repeatable)")
    return parser


def resolve_config(args):
    """Merge defaults, the optional config file, and CLI overrides."""
    if args.config is not None:
        cfg = experiments.parse_config(
            args.config.read_text(encoding="utf-8"))
        if cfg.experiment != args.experiment:
            raise ValueError(
                f"config file is for {cfg.experiment!r}, "
                f"but the command line says {args.experiment!r}"
            )
    else:
        cfg = experiments.default_config(args.experiment)
    extra = dict(cfg.extra)
    for item in args.extra:
        if "=" not in item:
            raise ValueError(f"--extra expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        extra[key.strip()] = value.strip()
    return dataclasses.replace(cfg, extra=extra, **{
        name: getattr(args, name) for name in (*experiments.FIELDS, "output_dir")
        if getattr(args, name) is not None})


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        files = experiments.run_experiment(cfg)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"kkw: error: {exc}", file=sys.stderr)
        return 1
    for path in files:
        print(path)
    return 0


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
