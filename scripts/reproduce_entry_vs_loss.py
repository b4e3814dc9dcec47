#!/usr/bin/env python3
"""Reproduce the |unobserved entry| vs loss curves.

By default runs a quick two-point demonstration (depth 2 and depth 3 at
moderate rate/scale, under a second); pass --full to execute the
complete paired learning-rate/init grids from configs/ (about 2 minutes
with --jobs 1 on a 2-core host).  Each depth gets one SVG under the
output directory.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from implreg import harness, svgplot  # noqa: E402

QUICK = {
    2: [(0.06, 1e-2)],
    3: [(0.03, 1e-3), (0.015, 1e-3)],
}
# the quick demonstration stops at loss 1e-3: deep enough to show the
# entry-vs-loss rise, cheap enough to finish in under a second
QUICK_THRESHOLD = 1e-3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="runs/entry_vs_loss")
    ap.add_argument("--full", action="store_true", help="run the full paired grids (slow)")
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()

    for depth in (2, 3, 4) if args.full else sorted(QUICK):
        if args.full:
            cfg_path = Path(__file__).resolve().parent.parent / "configs" / f"matfac_entry_vs_loss_depth{depth}.json"
            sweep = dataclasses.replace(harness.load_config(cfg_path), out_dir=args.out_dir)
            records = harness.run_matfac_sweep(sweep, jobs=args.jobs)
        else:
            records = []
            for lr, alpha in QUICK[depth]:
                cfg = harness.MatfacRunConfig(
                    task=harness.TaskSpec(kind="base"),
                    depth=depth,
                    learning_rate=lr,
                    init=harness.InitSpec(kind="balanced", alpha=alpha, det_sign=1),
                    loss_threshold=QUICK_THRESHOLD,
                    max_iters=2_000_000,
                    out_dir=args.out_dir,
                )
                rec = harness.run_matfac(cfg)
                print(f"depth {depth} lr {lr:g} init {alpha:g}: {rec.summary['iterations']} iters, "
                      f"loss {rec.summary['final_loss']:.2e}, |w11| {abs(rec.summary['final_w11']):.2f}")
                records.append(rec)
        out = Path(args.out_dir) / f"entry_vs_loss_depth{depth}.svg"
        svgplot.emit_plot([r.csv_path for r in records], "loss-vs-entry", out, title=f"depth {depth}")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
