#!/usr/bin/env python3
"""Reproduce the tensor-completion sweep: reconstruction error and
estimated rank against the number of observations.

The default is a reduced grid (three observation counts, two init
scales, five seeds; 20-30 s on one core).  --config runs a preset
from configs/ instead.  The sweep CSV and its SVG both go under
--out-dir.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from implreg import harness, svgplot  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=None, help="tenfac-sweep JSON preset to run")
    ap.add_argument("--out-dir", default="runs/tenfac")
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()

    if args.config:
        cfg = dataclasses.replace(harness.load_config(args.config), out_dir=args.out_dir)
    else:
        cfg = harness.TenfacSweepConfig(
            dims=(8, 8, 8),
            gt_rank=1,
            n_obs=(100, 300, 511),
            init_stds=(1e-4, 1e-1),
            seeds=(0, 1, 2, 3, 4),
            out_dir=args.out_dir,
        )
    csv_path = harness.run_tenfac_sweep(cfg, jobs=args.jobs)
    print(f"wrote {csv_path}")
    out = Path(args.out_dir) / (Path(csv_path).stem + ".svg")
    svgplot.emit_plot([csv_path], "sweep", out, title=f"rank-{cfg.gt_rank} ground truth")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
