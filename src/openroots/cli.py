"""Command-line front end: parse a polynomial, find roots, report JSON,
optionally render the boundary-node/arc diagram as SVG."""

import argparse
import json
import math
import sys

from .annulus import P_KIND, node_label
from .descent import all_roots
from .errors import RootFindError
from .matcher import run_pipeline
from .polycore import Poly, eval_poly
from .tracer import FIELD_G


def parse_poly(text):
    """Coefficients in descending powers, whitespace separated.

    Plain reals ("1 0 -2") or re,im pairs ("1,0 0,1") for complex
    coefficients; forms may be mixed.  nan and inf are rejected.
    """
    vals = []
    for tok in text.split():
        if "," in tok:
            re_s, im_s = tok.split(",", 1)
            vals.append(complex(float(re_s), float(im_s)))
        else:
            vals.append(complex(float(tok)))
    if not vals:
        raise ValueError("no coefficients given")
    return Poly(vals[::-1])


def build_parser():
    ap = argparse.ArgumentParser(
        prog="openroots",
        description="Polynomial root finding by descent iteration or by "
                    "harmonic level-curve tracing with sign-certified "
                    "crossing localization.")
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--poly", help="coefficients, descending powers "
                                    "(reals or re,im pairs)")
    src.add_argument("--poly-file", help="file holding the coefficients")
    ap.add_argument("--method", choices=("descent", "gauss"),
                    default="descent")
    ap.add_argument("--tol", type=float, default=1e-9,
                    help="target residual |f(z)| (default 1e-9); internal "
                         "tolerances are fixed ratios of this")
    ap.add_argument("--svg", metavar="PATH",
                    help="write the annulus/arc diagram (gauss only)")
    ap.add_argument("--out", metavar="PATH",
                    help="write the JSON report here instead of stdout")
    ap.add_argument("--verbose", action="store_true",
                    help="include stage timings in the report")
    return ap


def _fmt(x):
    return f"{x:.6f}"


def emit_svg(report, path):
    """Deterministic SVG: disc, asymptote ticks, nodes, arcs, crossing.

    Identical inputs produce byte-identical files; coordinates are
    written at fixed precision and arcs are decimated to at most 512
    points each.
    """
    ns = report.nodes
    R = ns.R
    S = R + 1.0
    n = ns.n
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="640" height="640" '
        f'viewBox="{_fmt(-S)} {_fmt(-S)} {_fmt(2 * S)} {_fmt(2 * S)}">',
        f'<circle class="disc" cx="0" cy="0" r="{_fmt(R)}" fill="none" '
        f'stroke="#888888" stroke-width="{_fmt(R / 200)}"/>',
    ]
    # asymptote ticks just outside the circle
    for i in range(2 * n):
        for kind, ang in ((P_KIND, (2 * i + 1) * math.pi / (2 * n)),
                          ("Q", i * math.pi / n)):
            x0, y0 = R * math.cos(ang), R * math.sin(ang)
            x1, y1 = (R + 0.5) * math.cos(ang), (R + 0.5) * math.sin(ang)
            color = "#d62728" if kind == P_KIND else "#1f77b4"
            lines.append(
                f'<line class="asymptote-{kind}" x1="{_fmt(x0)}" '
                f'y1="{_fmt(-y0)}" x2="{_fmt(x1)}" y2="{_fmt(-y1)}" '
                f'stroke="{color}" stroke-width="{_fmt(R / 400)}"/>')
    for arc in report.arcs:
        pts = arc.samples
        stride = max(1, len(pts) // 512)
        kept = list(pts[::stride]) + [pts[-1]]
        coords = " ".join(f"{_fmt(x)},{_fmt(-y)}" for x, y in kept)
        color = "#d62728" if arc.field == FIELD_G else "#1f77b4"
        lines.append(
            f'<polyline class="arc-{arc.field}" points="{coords}" '
            f'fill="none" stroke="{color}" stroke-width="{_fmt(R / 250)}"/>')
    for nd in ns.nodes:
        pos = ns.position(nd)
        color = "#d62728" if nd.kind == P_KIND else "#1f77b4"
        lines.append(
            f'<circle class="node-{nd.kind}" cx="{_fmt(pos.real)}" '
            f'cy="{_fmt(-pos.imag)}" r="{_fmt(R / 80)}" fill="{color}">'
            f'<title>{nd.kind}{nd.index} [{node_label(nd)}]</title></circle>')
    x, y = report.crossing
    lines.append(
        f'<circle class="crossing" cx="{_fmt(x)}" cy="{_fmt(-y)}" '
        f'r="{_fmt(R / 50)}" fill="none" stroke="#2ca02c" '
        f'stroke-width="{_fmt(R / 150)}"/>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _root_entry(p, z):
    return {"re": z.real, "im": z.imag, "residual": abs(eval_poly(p, z))}


def _cannot_write(path, exc):
    print(f"openroots: cannot write {path}: {exc.strerror or exc}",
          file=sys.stderr)
    return 1


def run(argv):
    """Entry point; returns the process exit code (0 ok, 1 usage, 2 failure)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if not (math.isfinite(args.tol) and args.tol > 0):
        print("openroots: --tol must be a finite number above 0",
              file=sys.stderr)
        return 1

    try:
        if args.poly_file:
            with open(args.poly_file, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = args.poly
        p = parse_poly(text)
    except (OSError, ValueError) as exc:
        print(f"openroots: bad polynomial input: {exc}", file=sys.stderr)
        return 1
    if p.degree < 1:
        print("openroots: degree >= 1 required", file=sys.stderr)
        return 1
    if args.svg and args.method != "gauss":
        print("openroots: --svg needs --method gauss", file=sys.stderr)
        return 1

    report = {"method": args.method, "degree": p.degree}
    try:
        if args.method == "descent":
            roots = all_roots(p, args.tol)
            report["roots"] = [_root_entry(p, z) for z in roots]
        else:
            pipe = run_pipeline(p, tol=args.tol)
            report["roots"] = [_root_entry(p, pipe.root)]
            report["R"] = pipe.nodes.R
            report["eps"] = [pipe.eps1, pipe.eps2]
            if args.verbose:
                report["stages"] = pipe.timings
            if args.svg:
                try:
                    emit_svg(pipe, args.svg)
                except OSError as exc:
                    return _cannot_write(args.svg, exc)
    except RootFindError as exc:
        print(f"openroots: {exc}", file=sys.stderr)
        return 2

    payload = json.dumps(report, indent=2)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            return _cannot_write(args.out, exc)
    else:
        print(payload)
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
