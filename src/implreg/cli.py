"""Command-line entry point.

Subcommands:

- ``implreg matfac --config FILE [--jobs N] [--seed S]``
- ``implreg detsign --samples N --depth L --seed S [--out CSV]``
- ``implreg tenfac --config FILE [--jobs N] [--seed S]``
- ``implreg plot --input CSV [CSV ...] --style {loss-vs-entry,sweep} --out SVG``

Seed precedence is flag > IMPLREG_SEED environment variable > config,
for a config with one seed; ``--seed`` on a config listing several
seeds is an error, and IMPLREG_SEED leaves such a config as it is.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import harness, svgplot
from .matfac import ResampleError
from .tenfac import GenerationError


def _add_seed_jobs(p):
    p.add_argument("--config", required=True, help="path to a JSON config document")
    p.add_argument("--jobs", type=int, default=1, help="run independent cells in N processes")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="implreg", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    _add_seed_jobs(sub.add_parser("matfac", help="matrix-factorization run or sweep"))
    _add_seed_jobs(sub.add_parser("tenfac", help="tensor-factorization sweep"))

    det = sub.add_parser("detsign", help="determinant-sign Monte Carlo")
    det.add_argument("--samples", type=int, default=10_000)
    det.add_argument("--depth", type=int, default=3)
    det.add_argument("--dim", type=int, default=2)
    det.add_argument("--seed", type=int, default=None)
    det.add_argument("--out", default="runs/detsign.csv")

    plot = sub.add_parser("plot", help="render an SVG chart from run CSVs")
    plot.add_argument("--input", nargs="+", required=True)
    plot.add_argument("--style", choices=["loss-vs-entry", "sweep"], required=True)
    plot.add_argument("--out", required=True)
    plot.add_argument("--title", default=None)
    return parser


def _reseed(cfg, seed):
    if hasattr(cfg, "seeds"):
        return dataclasses.replace(cfg, seeds=(seed,))
    return dataclasses.replace(cfg, seed=seed)


_OWNED = {
    "matfac": (harness.MatfacRunConfig, harness.MatfacSweepConfig),
    "tenfac": (harness.TenfacSweepConfig,),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command in _OWNED:
        if args.jobs < 1:
            parser.error(f"--jobs must be >= 1, got {args.jobs}")
        try:
            cfg = harness.load_config(args.config)
        except (ValueError, OSError) as exc:  # JSONDecodeError is a ValueError
            parser.error(f"cannot load {args.config}: {exc}")
        if not isinstance(cfg, _OWNED[args.command]):
            parser.error(f"{args.config} holds a {type(cfg).__name__}, which `{args.command}` does not run")
        seeds = cfg.seeds if hasattr(cfg, "seeds") else (cfg.seed,)
        if len(seeds) > 1 and args.seed is not None:
            parser.error(f"--seed needs a config with one seed; {args.config} lists {len(seeds)}")
        try:
            if len(seeds) == 1:
                seed = harness.resolve_seed(args.seed, seeds[0])
                if seed != seeds[0]:
                    cfg = _reseed(cfg, seed)
            out = harness.run_config(cfg, jobs=args.jobs)
        except (ValueError, ResampleError, GenerationError) as exc:
            parser.error(f"cannot run {args.config}: {exc}")
        if isinstance(out, harness.RunRecord):
            print(f"{out.run_id}: {out.csv_path}")
        elif isinstance(out, list):
            for rec in out:
                print(f"{rec.run_id}: {rec.csv_path}")
        else:
            print(out)
        return 0

    if args.command == "detsign":
        try:
            seed = harness.resolve_seed(args.seed, 0)
            rows = harness.run_detsign(args.samples, args.depth, args.dim, seed, out=args.out)
        except ValueError as exc:
            parser.error(str(exc))
        for r in rows:
            print(
                f"{r['distribution']}: P(det>0) = {r['p_det_pos']:.4f} "
                f"[{r['ci_low']:.4f}, {r['ci_high']:.4f}]  (n={r['n']})"
            )
        print(f"wrote {args.out}")
        return 0

    if args.command == "plot":
        try:
            path = svgplot.emit_plot(args.input, args.style, args.out, title=args.title)
        except (ValueError, OSError) as exc:  # SchemaError is a ValueError
            parser.error(f"cannot plot: {exc}")
        print(f"wrote {path}")
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
