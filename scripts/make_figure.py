"""Render the two-panel slit map figure for chosen (r, x)."""

import argparse
import sys

from slitkit.svgfig import plot_map


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--r", type=float, default=0.5)
    ap.add_argument("--x", type=float, default=0.75)
    ap.add_argument("--n-radial", type=int, default=8)
    ap.add_argument("--n-angular", type=int, default=12)
    ap.add_argument("--out", default="fx.svg")
    args = ap.parse_args()

    doc = plot_map(args.r, args.x, grid=(args.n_radial, args.n_angular))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(doc)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
