"""Command-line interface.

Conventions shared by all subcommands:

- JSON outputs are written with sorted keys and a trailing newline, and embed
  a run manifest (tool, version, subcommand, argv, input digests) but never
  wall-clock time, so reruns with identical inputs are byte-identical.
  Timing goes to stderr.
- scales accept plain numbers, fractions, and pi expressions: "0.25", "1/6",
  "2pi/21", "pi/4".
- exit codes: 0 done, 2 usage, 3 validation (bad metric, bad action, bad
  arguments), 4 simplex budget exceeded.  The simplex budget defaults to
  10^7, or the ORBITRIPS_BUDGET environment variable, or --budget.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
import time

from . import __version__
from .actions import (GroupClosureError, action_to_dict, antipodal_generator,
                      block_shift_generator, build_quotient,
                      circle_rotation_generator, close_group, load_action,
                      paired_swap_generator, torus_grid_shift_generators,
                      verify_isometric)
from .complexes import (DEFAULT_BUDGET, DEFAULT_DIM_CAP, BudgetExceededError,
                        cech_complex, vr_complex, vr_filtration)
from .persistence import betti_at, format_barcode_tsv, reduce_filtration
from .quotient_iso import iso_check
from .spaces import (ShapeSpec, SpaceValidationError, generate_space,
                     load_space, space_from_csv, space_to_dict,
                     twelve_circles_action_generators, validated)
from .thresholds import (ActionCheckResult, ball_threshold,
                         diameter_action_check, distance_threshold,
                         nerve_action_check, threshold_scan)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_BUDGET = 4

_SHAPE_ALIASES = {
    "circle": "evenly-spaced-circle",
    "sphere": "geodesic-sphere",
    "torus-grid": "flat-torus-grid",
}

_SCALE_RE = re.compile(
    r"^\s*([0-9]*\.?[0-9]*(?:[eE][+-]?[0-9]+)?)\s*\*?\s*(pi|π)?"
    r"\s*(?:/\s*([0-9]*\.?[0-9]+))?\s*$", re.IGNORECASE)


def parse_scale(text: str) -> float:
    """Parse "0.25", "1/6", "2pi/21", "pi", "2*pi/21" into a float scale."""
    m = _SCALE_RE.match(str(text))
    if not m or (not m.group(1) and not m.group(2)):
        raise ValueError(f"cannot parse scale {text!r}")
    value = float(m.group(1)) if m.group(1) else 1.0
    if m.group(2):
        value *= math.pi
    if m.group(3):
        denominator = float(m.group(3))
        if denominator == 0:
            raise ValueError(f"zero denominator in scale {text!r}")
        value /= denominator
    if value < 0:
        raise ValueError(f"scale must be nonnegative, got {text!r}")
    return value


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest(args, inputs: list[str]) -> dict:
    return {
        "tool": "orbitrips",
        "version": __version__,
        "subcommand": args.command,
        "argv": list(args._argv),
        "inputs": {p: _sha256(p) for p in inputs},
    }


def _emit_text(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"wrote {out}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _emit_json(doc: dict, out: str | None) -> None:
    _emit_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", out)


def _load_space_arg(path: str, validate: bool = True):
    if path.endswith(".csv"):
        return space_from_csv(path, validate)
    return load_space(path, validate)


def _space_with_action(path: str, make_action):
    """The space at `path` and the action `make_action(n)` builds for its n
    points, the space validated with the action (an action that preserves
    the matrix exactly narrows the triangle check to orbit representatives).
    A bad metric is reported before a bad action: when the action fails,
    the whole space is validated first."""
    space = _load_space_arg(path, validate=False)
    try:
        action = make_action(space.n)
    except Exception:
        validated(space)
        raise
    return validated(space, action), action


def _budget(args) -> int:
    if getattr(args, "budget", None) is not None:
        return int(args.budget)
    env = os.environ.get("ORBITRIPS_BUDGET")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"ORBITRIPS_BUDGET must be an integer, got {env!r}")
    return DEFAULT_BUDGET


def _parse_params(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValueError(f"--param expects KEY=VALUE, got {pair!r}")
        key, raw = pair.split("=", 1)
        if raw.lower() in ("true", "false"):
            val = raw.lower() == "true"
        else:
            try:
                val = int(raw)
            except ValueError:
                try:
                    val = float(raw)
                except ValueError:
                    val = raw
        out[key] = val
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args) -> int:
    kind = _SHAPE_ALIASES.get(args.shape, args.shape)
    spec = ShapeSpec(kind, _parse_params(args.param), seed=args.seed)
    space = validated(generate_space(spec))
    doc = space_to_dict(space)
    doc["manifest"] = _manifest(args, [])
    _emit_json(doc, args.out)
    print(f"{kind}: {space.n} points", file=sys.stderr)
    return EXIT_OK


def _action_generators(args, n: int) -> list:
    kind = args.kind
    if kind == "rotation":
        if args.steps is None:
            raise ValueError("rotation action needs --steps")
        return [circle_rotation_generator(n, args.steps)]
    if kind == "antipodal":
        return [antipodal_generator(n)]
    if kind == "paired-swap":
        if n % 2:
            raise ValueError("paired-swap needs an even point count")
        return [paired_swap_generator(n // 2)]
    if kind == "block-shift":
        if args.blocks is None:
            raise ValueError("block-shift needs --blocks")
        if args.blocks < 1:
            raise ValueError(f"block-shift needs a positive --blocks, got {args.blocks}")
        if n % args.blocks:
            raise ValueError(f"{args.blocks} blocks do not divide {n} points")
        return [block_shift_generator(args.blocks, n // args.blocks)]
    if kind == "torus-z14":
        k = math.isqrt(n)
        if k * k != n:
            raise ValueError("torus-z14 needs a square point count")
        return torus_grid_shift_generators(k)
    if kind == "twelve-circles":
        if n % 12:
            raise ValueError("twelve-circles action needs 12 | n")
        return twelve_circles_action_generators(n // 12)
    raise ValueError(f"unknown action kind {kind!r}")


def cmd_action(args) -> int:
    """Build the action of --kind for --n points, or for the points of
    --space, which is then validated with it (`_space_with_action`)."""
    def make_action(n: int):
        return close_group(n, _action_generators(args, n))

    if args.space:
        space, action = _space_with_action(args.space, make_action)
        iso = verify_isometric(space, action)
        if not iso.ok:
            raise ValueError(f"action is not isometric: {iso.counterexample}")
    elif args.n:
        action = make_action(args.n)
    else:
        raise ValueError("action: need --space or --n")
    doc = {**action_to_dict(action),
           "group_order": len(action.elements),
           "manifest": _manifest(args, [args.space] if args.space else [])}
    _emit_json(doc, args.out)
    print(f"{args.kind}: group order {len(action.elements)}", file=sys.stderr)
    return EXIT_OK


def cmd_quotient(args) -> int:
    space, action = _space_with_action(args.space, lambda _: load_action(args.action))
    q = build_quotient(space, action)
    if not q.validation.ok:
        print(f"warning: quotient metric has {len(q.validation.violations)} "
              f"triangle violations beyond tolerance", file=sys.stderr)
    doc = space_to_dict(q.space)
    doc["reps"] = [int(i) for i in q.reps]
    doc["proj"] = [int(a) for a in q.proj]
    doc["manifest"] = _manifest(args, [args.space, args.action])
    _emit_json(doc, args.out)
    print(f"{space.n} points -> {q.n_orbits} orbits "
          f"(group order {len(action.elements)})", file=sys.stderr)
    return EXIT_OK


def cmd_check(args) -> int:
    space, action = _space_with_action(args.space, lambda _: load_action(args.action))
    r = parse_scale(args.scale)
    if args.kind in ("distance", "ball"):
        rep = (distance_threshold if args.kind == "distance" else ball_threshold)(space, action)
        ok = rep.vacuous or r <= rep.passes_at
        doc = ActionCheckResult(kind=args.kind, r=r, ok=ok, k_max=0, convention="lt",
                                witness=None if ok else rep.witness).to_dict()
    elif args.kind == "diameter":
        res = diameter_action_check(space, action, r, k_max=args.k_max,
                                    budget=_budget(args))
        doc = res.to_dict()
    else:
        res = nerve_action_check(space, action, r, k_max=args.k_max,
                                 convention=args.convention, budget=_budget(args))
        doc = res.to_dict()
    doc["manifest"] = _manifest(args, [args.space, args.action])
    _emit_json(doc, args.out)
    print(f"{args.kind} at r={r:g}: {'pass' if doc['ok'] else 'FAIL'}", file=sys.stderr)
    return EXIT_OK


def cmd_thresholds(args) -> int:
    space, action = _space_with_action(args.space, lambda _: load_action(args.action))
    rep = threshold_scan(space, action, args.kind, k_max=args.k_max,
                         convention=args.convention, budget=_budget(args))
    doc = rep.to_dict()
    doc["manifest"] = _manifest(args, [args.space, args.action])
    _emit_json(doc, args.out)
    fails = "inf" if math.isinf(rep.fails_at) else f"{rep.fails_at:g}"
    print(f"{args.kind}: passes at {rep.passes_at:g}, fails at {fails}", file=sys.stderr)
    return EXIT_OK


def cmd_complex(args) -> int:
    space = _load_space_arg(args.space)
    r = parse_scale(args.scale)
    build = vr_complex if args.kind == "vr" else cech_complex
    cx = build(space, r, convention=args.convention, dim_cap=args.dim_cap,
               budget=_budget(args))
    doc = cx.to_dict()
    if not args.full:
        del doc["simplices"]
    doc["total"] = cx.total
    doc["manifest"] = _manifest(args, [args.space])
    _emit_json(doc, args.out)
    counts = ", ".join(f"{d}:{len(s)}" for d, s in sorted(cx.simplices.items()))
    print(f"{args.kind} at r={r:g} ({args.convention}): {counts}", file=sys.stderr)
    return EXIT_OK


def cmd_iso_check(args) -> int:
    space, action = _space_with_action(args.space, lambda _: load_action(args.action))
    r = parse_scale(args.scale)
    cert = iso_check(space, action, r, kind=args.kind,
                     convention=args.convention, dim_cap=args.dim_cap,
                     budget=_budget(args))
    doc = cert.to_dict()
    doc["manifest"] = _manifest(args, [args.space, args.action])
    _emit_json(doc, args.out)
    print(f"iso-check {args.kind} at r={r:g} ({args.convention}): {cert.verdict}",
          file=sys.stderr)
    return EXIT_OK


def cmd_persistence(args) -> int:
    space = _load_space_arg(args.space)
    max_scale = None if args.max_scale is None else parse_scale(args.max_scale)
    filt = vr_filtration(space, dim_cap=args.dim_cap, budget=_budget(args),
                         max_scale=max_scale)
    barcode = reduce_filtration(filt)
    manifest_line = json.dumps(_manifest(args, [args.space]), sort_keys=True)
    _emit_text(format_barcode_tsv(barcode, header_lines=[manifest_line]), args.out)
    n_bars = sum(len(v) for v in barcode.intervals.values())
    print(f"{filt.total} simplices -> {n_bars} bars", file=sys.stderr)
    return EXIT_OK


def cmd_betti(args) -> int:
    space = _load_space_arg(args.space)
    r = parse_scale(args.scale)
    bv = betti_at(space, r, convention=args.convention, dim_cap=args.dim_cap,
                  budget=_budget(args))
    doc = {"r": bv.r, "convention": bv.convention, "dim_cap": bv.dim_cap,
           "betti": list(bv.values), "provenance": bv.provenance,
           "manifest": _manifest(args, [args.space])}
    _emit_json(doc, args.out)
    print(f"betti at r={r:g} ({args.convention}): {bv.values}", file=sys.stderr)
    return EXIT_OK


def cmd_report(args) -> int:
    lines: list[str] = []

    def say(text: str) -> None:
        lines.append(text)

    say(f"orbitrips {__version__} demonstration report")
    say("")

    circle6 = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 6}))
    say("evenly-spaced-circle n=6 (circumference 1):")
    for r in (0.1, 1 / 6, 1 / 3, 0.5):
        bv = betti_at(circle6, r, convention="leq", dim_cap=3)
        say(f"  betti at r={r:.4f} (leq): {bv.values}")
    say("")

    circle12 = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 12}))
    act = close_group(12, [antipodal_generator(12)])
    say("evenly-spaced-circle n=12 with the antipodal involution:")
    darep = distance_threshold(circle12, act)
    barep = ball_threshold(circle12, act)
    say(f"  distance property holds up to r = {darep.passes_at:.6f}")
    say(f"  ball property holds up to r = {barep.passes_at:.6f}")
    scan = threshold_scan(circle12, act, "diameter")
    say(f"  diameter property: passes at {scan.passes_at:.6f}, "
        f"fails at {scan.fails_at:.6f} "
        f"({(scan.witness or {}).get('mode', '?')} on orbits "
        f"{(scan.witness or {}).get('orbits')})")
    for r, conv in ((0.16, "lt"), (1 / 6, "leq")):
        cert = iso_check(circle12, act, r, kind="vr", convention=conv)
        say(f"  iso-check vr at r={r:.6f} ({conv}): {cert.verdict}")
    say("")

    circ36 = generate_space(ShapeSpec("evenly-spaced-circle",
                                      {"n": 36, "circumference": 3.0}))
    act3 = close_group(36, [circle_rotation_generator(36, 12)])
    nscan = threshold_scan(circ36, act3, "nerve", convention="lt")
    say("evenly-spaced-circle n=36 (circumference 3) with Z/3 rotation:")
    say(f"  nerve property: passes at {nscan.passes_at:.6f}, "
        f"fails at {nscan.fails_at:.6f}")
    say("")

    six = generate_space(ShapeSpec("six-circles", {"m": 12}))
    act6 = close_group(72, [block_shift_generator(6, 12)])
    # keep clear of r=1.0: the 2-step chord inside each 12-gon is exactly 1
    # in real arithmetic, so the strict complex there is rounding-sensitive
    bv = betti_at(six, 0.9, convention="lt", dim_cap=2)
    cert = iso_check(six, act6, 0.9, kind="vr", convention="lt", dim_cap=2)
    say("six-circles m=12 at r=0.9 (lt):")
    say(f"  betti: {bv.values} (six components, each a loop)")
    say(f"  iso-check vr: {cert.verdict}")

    _emit_text("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


# every argument of every subcommand: name -> (flag, add_argument keywords)
_ARGUMENTS = {
    "shape": ("--shape", dict(required=True,
                              help="circle | sphere | torus-grid | six-circles | "
                                   "twelve-circles (or a full kind name)")),
    "param": ("--param", dict(action="append", default=[], metavar="KEY=VALUE",
                              help="shape parameter, repeatable (e.g. n=12, count=150, "
                                   "paired=true)")),
    "seed": ("--seed", dict(type=int, default=None)),
    "action-kind": ("--kind", dict(required=True,
                                   choices=("rotation", "antipodal", "paired-swap",
                                            "block-shift", "torus-z14", "twelve-circles"))),
    "action-space": ("--space", dict(default=None, help="space to verify the action against")),
    "n": ("--n", dict(type=int, default=None, help="point count (if no --space)")),
    "steps": ("--steps", dict(type=int, default=None, help="rotation step count")),
    "blocks": ("--blocks", dict(type=int, default=None, help="block count for block-shift")),
    "property-kind": ("--kind", dict(required=True,
                                     choices=("distance", "ball", "diameter", "nerve"))),
    "complex-kind": ("--kind", dict(choices=("vr", "cech"), default="vr")),
    "full": ("--full", dict(action="store_true", help="include the simplex lists")),
    "max-scale": ("--max-scale", dict(default=None,
                                      help="keep only simplices of diameter <= this scale; "
                                           "they alone are enumerated and count against "
                                           "the budget")),
    "space": ("--space", dict(required=True, help="space JSON (or lower-triangular CSV)")),
    "action": ("--action", dict(required=True, help="action JSON ({n, generators})")),
    "scale": ("--scale", dict(required=True,
                              help="scale r (accepts pi expressions like 2pi/21)")),
    "convention": ("--convention", dict(choices=("lt", "leq"), default="lt",
                                        help="strict (<) or closed (<=) scale comparison")),
    "dim-cap": ("--dim-cap", dict(type=int, default=DEFAULT_DIM_CAP,
                                  help="largest simplex dimension kept")),
    "k-max": ("--k-max", dict(type=int, default=DEFAULT_DIM_CAP,
                              help="check orbit subsets of size 2..k_max+1; pairs and "
                                   "triples decide every size")),
    "budget": ("--budget", dict(type=int, default=None,
                                help="simplex budget (default ORBITRIPS_BUDGET or 10^7)")),
    "out": ("--out", dict(default=None, help="output path (default: stdout)")),
    "bare-out": ("--out", dict(default=None)),
}

# name -> (help, command, its arguments in order); `build_parser` attaches
# all of them or only the one a command names
_SUBCOMMANDS = {
    "generate": ("generate a built-in sample space", cmd_generate,
                 ("shape", "param", "seed", "out")),
    "action": ("build a canonical action and save its generators", cmd_action,
               ("action-kind", "action-space", "n", "steps", "blocks", "bare-out")),
    "quotient": ("quotient metric space of an action", cmd_quotient,
                 ("space", "action", "out")),
    "check": ("check one action property at one scale", cmd_check,
              ("property-kind", "space", "action", "scale", "convention", "k-max",
               "budget", "out")),
    "thresholds": ("bracket the largest passing scale of a property", cmd_thresholds,
                   ("property-kind", "space", "action", "convention", "k-max", "budget",
                    "out")),
    "complex": ("build a VR or Cech complex at one scale", cmd_complex,
                ("complex-kind", "full", "space", "scale", "convention", "dim-cap",
                 "budget", "out")),
    "iso-check": ("compare complex-of-quotient with quotient-of-complex", cmd_iso_check,
                  ("complex-kind", "space", "action", "scale", "convention", "dim-cap",
                   "budget", "out")),
    "persistence": ("VR persistence barcode as TSV", cmd_persistence,
                    ("max-scale", "space", "dim-cap", "budget", "out")),
    "betti": ("Betti numbers of the VR complex at one scale", cmd_betti,
              ("space", "scale", "convention", "dim-cap", "budget", "out")),
    "report": ("run a small demonstration suite", cmd_report, ("bare-out",)),
}


def _define(p: argparse.ArgumentParser, name: str) -> None:
    _, command, arguments = _SUBCOMMANDS[name]
    for key in arguments:
        flag, options = _ARGUMENTS[key]
        p.add_argument(flag, **options)
    p.set_defaults(func=command)


def build_parser(names=_SUBCOMMANDS) -> argparse.ArgumentParser:
    """The parent parser with the subparsers of the subcommands `names`
    attached, by default all of `_SUBCOMMANDS`.  Under the same parent, one
    subparser parses, and prints help, usage and errors, exactly as it does
    in the full parser.  With fewer subcommands attached, the metavar keeps
    every name in the parent's usage line; the full parser has none, as a
    metavar would also rename the subcommand argument in its errors."""
    parser = argparse.ArgumentParser(
        prog="orbitrips",
        description="Vietoris-Rips and Cech complexes of quotients of finite "
                    "metric spaces by isometric group actions")
    parser.add_argument("--version", action="version", version=f"orbitrips {__version__}")
    metavar = None if len(names) == len(_SUBCOMMANDS) else "{" + ",".join(_SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        _define(sub.add_parser(name, help=_SUBCOMMANDS[name][0]), name)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv as the full parser does, building only the subparser of the
    subcommand argv[0] names, if it names one."""
    names = argv[:1] if argv and argv[0] in _SUBCOMMANDS else _SUBCOMMANDS
    return build_parser(names).parse_args(argv)


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.  `parse_args` builds
    only the named subcommand's parser, under the usual parent parser, so
    every help, usage, version and error message and exit code is the full
    parser's."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = parse_args(argv)
    args._argv = argv
    t0 = time.perf_counter()
    try:
        rc = args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (SpaceValidationError, GroupClosureError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    finally:
        print(f"[orbitrips] completed in {time.perf_counter() - t0:.3f}s",
              file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
