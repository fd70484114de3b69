#!/usr/bin/env python3
"""Wall-clock scaling of the inversion strategies as the image size
doubles: raster back-substitution grows with the pixel count (~4x per
doubling) while the wavefront sweep grows with the diagonal count (~2x).
One measure_scaling pass writes a benchmark CSV plus a gnuplot data file
and prints the growth ratio of every consecutive pair of sizes."""

import argparse
from pathlib import Path

from fincflow.bench import csv_text, measure_scaling, write_gnuplot
from fincflow.cli import parse_sizes


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="16,32,64,128")
    ap.add_argument("--channels", type=int, default=4)
    ap.add_argument("--kernel-size", type=int, default=3)
    ap.add_argument("--out", default="out/scaling")
    args = ap.parse_args()

    sizes = parse_sizes(args.sizes)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    result = measure_scaling(sizes=tuple(sizes), c=args.channels, k=args.kernel_size)
    text = csv_text(result["reports"])
    print(text, end="")
    (out / "bench.csv").write_text(text)
    write_gnuplot(result["reports"], out / "curve.dat")

    print("growth ratios (medians over 10 rounds):")
    for strategy, pairs in result["ratios"].items():
        for pair, value in pairs.items():
            print(f"  {strategy:<9} {pair}: {value:.2f}x")
    print(f"wrote {out}/bench.csv and {out}/curve.dat")


if __name__ == "__main__":
    main()
