#!/usr/bin/env python3
"""Wall-clock scaling of the inversion strategies as the image size
doubles: raster back-substitution grows with the pixel count (~4x per
doubling) while the wavefront sweep grows with the diagonal count (~2x).
Writes a benchmark CSV plus a gnuplot data file."""

import argparse
from pathlib import Path

from fincflow.bench import CSV_HEADER, bench_invert, measure_scaling, write_gnuplot


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="16,32,64,128")
    ap.add_argument("--channels", type=int, default=4)
    ap.add_argument("--kernel-size", type=int, default=3)
    ap.add_argument("--out", default="out/scaling")
    args = ap.parse_args()

    sizes = [int(s) for s in args.sizes.split(",")]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    reports = []
    rows = [CSV_HEADER]
    for n in sizes:
        for strategy in ("reference", "wavefront"):
            rep = bench_invert(n, args.channels, args.kernel_size, 1, strategy)
            reports.append(rep)
            rows.append(rep.csv_row())
            print(f"n={n:4d} {strategy:<9}  mean={rep.mean_s:.5f}s "
                  f"ci95={rep.ci95_s:.5f}s phases={rep.phases}")
    (out / "bench.csv").write_text("\n".join(rows) + "\n")
    write_gnuplot(reports, out / "curve.dat")

    ratios = measure_scaling(sizes=tuple(sizes[-3:]), c=args.channels,
                             k=args.kernel_size)["ratios"]
    print("growth ratios (medians over 10 rounds):")
    for strategy, pairs in ratios.items():
        for pair, value in pairs.items():
            print(f"  {strategy:<9} {pair}: {value:.2f}x")
    print(f"wrote {out}/bench.csv and {out}/curve.dat")


if __name__ == "__main__":
    main()
