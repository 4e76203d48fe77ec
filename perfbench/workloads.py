"""The four workloads of the orbitrips benchmark.

A workload turns the run's seed into inputs (set-up), lists the timed jobs of
one batch, and checks every job's output afterwards, untimed, by a path that
does not share the timed code.  Calls into orbitrips go through module
attributes (``thresholds.threshold_scan``, never a name imported from it), so
the traced run sees them.

Why these four:

- scan: threshold scans.  Paired 2-spheres are the many-checks-on-a-small-
  space case (the linear scan and the lift searches do the work); the 42x42
  torus mod Z/14 is the few-checks-on-a-big-space case (per-check fixed
  costs).  Sphere(30)'s nerve scan ends in a 1-ulp no_witnessed_lift bracket,
  the tie defect of ROADMAP item 5, and stays in on purpose.
- rp2: certify, then compute downstairs: iso_check on paired sphere(150),
  then Betti numbers of the quotient on a sweep of scales (clique expansion,
  orbit grouping, ranks).  Bypasses the threshold scan.
- barcode: full VR filtration plus column reduction of the quotient of paired
  sphere(60).  Never touches thresholds, lifts or quotient_iso.
- cli: a fixed batch of small commands through ``orbitrips.cli.main``, where
  per-call fixed costs (argparse, validated loads, digests, JSON) dominate.
  The only workload that measures the cli layer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass
from importlib import resources
from typing import Callable

import numpy as np

from orbitrips import (actions, cli, complexes, persistence, quotient_iso,
                       spaces, thresholds)


@dataclass
class Job:
    """One timed unit of work and the untimed check of its output.

    ``check`` returns None when the output is right, else a reason."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Batch:
    """The timed jobs of one workload, plus the digests of their inputs."""

    jobs: list[Job]
    digests: dict[str, str]


# The sphere geometry (ShapeSpec seed) of every workload.  The run seed does
# not pick the geometry: it relabels the points (see paired_sphere).  Taking
# the geometry from the run seed changes the work by up to 2x from seed to
# seed (1.2M against 573k subsets checked on scan), which no bound absorbs.
GEOMETRY = 0


def paired_sphere(count: int, seed: int):
    """Paired 2-sphere sample GEOMETRY, its labels permuted by `seed`.

    The pairs are shuffled and each pair's two points may trade halves, so
    the swap is still i <-> i + count.  Distances are moved, never recomputed:
    every threshold and simplex count is that of the geometry."""
    base = spaces.generate_space(spaces.ShapeSpec(
        "geodesic-sphere", {"dim": 2, "count": count, "paired": True}, seed=GEOMETRY))
    rng = np.random.default_rng([seed, count])
    order = rng.permutation(count)
    flip = rng.integers(0, 2, size=count).astype(bool)
    new_label = np.concatenate([np.where(flip, order + count, order),
                                np.where(flip, order, order + count)])
    old_label = np.argsort(new_label)
    space = spaces.FiniteMetricSpace(base.dist[np.ix_(old_label, old_label)],
                                     provenance={**base.provenance, "relabel_seed": seed})
    action = actions.close_group(2 * count, [actions.paired_swap_generator(count)])
    return space, action


def _record(digests: dict, label: str, space, action) -> None:
    """SHA-256 of a distance matrix and of its action's generator list."""
    gens = np.array([action.elements[i] for i in action.generator_indices], dtype=np.int64)
    digests[f"{label}.dist"] = hashlib.sha256(np.ascontiguousarray(space.dist)).hexdigest()
    digests[f"{label}.generators"] = hashlib.sha256(gens).hexdigest()


# ---------------------------------------------------------------------------
# independent checks shared by several workloads


def components(dist: np.ndarray, r: float) -> int:
    """b_0 of the graph d < r, by union-find."""
    n = dist.shape[0]
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = np.argwhere(np.triu(dist < r, k=1))
    count = n
    for i, j in edges.tolist():
        a, b = find(i), find(j)
        if a != b:
            parent[a] = b
            count -= 1
    return count


def check_quotient(space, action, q) -> str | None:
    """Orbit sizes and quotient distances, recomputed from representatives."""
    order = len(action.elements)
    sizes = np.bincount(q.proj, minlength=len(q.reps))
    # the swap and shift actions used here are free: every orbit is full
    if not np.all(sizes == order):
        return f"orbit sizes {sorted(set(sizes.tolist()))}, expected {order}"
    reps = np.array(q.reps)
    images = action.element_arrays[:, reps]  # images[g, b] = g . rep_b
    expected = np.min(np.stack([space.dist[np.ix_(reps, images[g])]
                                for g in range(order)]), axis=0)
    np.fill_diagonal(expected, 0.0)
    err = float(np.max(np.abs(expected - q.space.dist)))
    if err > 1e-12:
        return f"quotient distance off by {err:g}"
    return None


def check_scan_report(space, action, kind: str, k_max: int, rep) -> str | None:
    """Replay the failure witness, then the implication of criterion 8: a
    pass at passes_at gives an isomorphic iso_check there (VR for diameter,
    Cech for nerve) with one simplex orbit per quotient simplex."""
    if math.isfinite(rep.fails_at):
        if not thresholds.verify_witness(space, action, kind, rep.fails_at,
                                         rep.witness, convention=rep.convention):
            return f"{kind} witness at {rep.fails_at!r} does not replay"
    complex_kind = "vr" if kind == "diameter" else "cech"
    cert = quotient_iso.iso_check(space, action, rep.passes_at, complex_kind,
                                  rep.convention, dim_cap=k_max)
    if cert.verdict != "isomorphic":
        return f"{kind} passes at {rep.passes_at!r} but iso_check says {cert.verdict}"
    if cert.counts_orbits != cert.counts_quotient:
        return f"{kind}: orbit counts {cert.counts_orbits} != {cert.counts_quotient}"
    return None


# ---------------------------------------------------------------------------
# scan

SCAN_K_MAX = 2
TORUS_K_MAX = 3
TORUS_PASSES = 2 * math.pi / 21
TORUS_FAILS = math.sqrt(5) * math.pi / 21


def _scan(space, action, kind, k_max):
    return lambda: thresholds.threshold_scan(space, action, kind, k_max=k_max)


def _scan_check(space, action, kind, k_max):
    return lambda rep: check_scan_report(space, action, kind, k_max, rep)


def _torus_check(space, action):
    def check(rep):
        if abs(rep.passes_at - TORUS_PASSES) > 1e-9 or abs(rep.fails_at - TORUS_FAILS) > 1e-9:
            return (f"torus bracket ({rep.passes_at!r}, {rep.fails_at!r}) is not "
                    f"(2pi/21, sqrt5 pi/21)")
        return check_scan_report(space, action, "diameter", TORUS_K_MAX, rep)
    return check


def setup_scan(seed: int, tiny: bool) -> Batch:
    # the torus job runs first: it sets the memory peak, which after the
    # sphere jobs varied with the allocator's history (302 to 350 MiB)
    torus = spaces.generate_space(spaces.ShapeSpec("flat-torus-grid", {"k": 42}))
    torus_action = actions.close_group(42 * 42, actions.torus_grid_shift_generators(42))
    digests: dict[str, str] = {}
    _record(digests, "torus42", torus, torus_action)
    jobs = [Job("torus42.diameter", _scan(torus, torus_action, "diameter", TORUS_K_MAX),
                _torus_check(torus, torus_action))]
    for c in (8, 10) if tiny else (30, 40):
        space, action = paired_sphere(c, seed)
        _record(digests, f"sphere{c}", space, action)
        for kind in ("diameter", "nerve"):
            jobs.append(Job(f"sphere{c}.{kind}", _scan(space, action, kind, SCAN_K_MAX),
                            _scan_check(space, action, kind, SCAN_K_MAX)))
    return Batch(jobs, digests)


# ---------------------------------------------------------------------------
# rp2

RP2_ISO_SCALE = 0.12
RP2_BETTI_SCALES = (0.08, 0.09, 0.10, 0.11, 0.12, 0.13)
RP2_DIM_CAP = 3


def _rp2_iso_check(space, action):
    def check(cert):
        if cert.verdict != "isomorphic":
            ok = quotient_iso.verify_certificate(space, action, cert)
            return None if ok else f"{cert.verdict} certificate does not replay"
        if cert.counts_orbits != cert.counts_quotient:
            return f"orbit counts {cert.counts_orbits} != {cert.counts_quotient}"
        # the swap moves every point by 1/2 > r, so every simplex orbit has 2 members
        order = len(action.elements)
        if any(cert.counts_base[d] != order * cert.counts_orbits[d] for d in cert.counts_base):
            return f"base counts {cert.counts_base} != {order} x {cert.counts_orbits}"
        return None
    return check


def _betti_check(state, r):
    def check(bv):
        q = state["q"]
        b0 = components(q.space.dist, r)
        if bv.values[0] != b0:
            return f"b0 {bv.values[0]} at {r}, union-find says {b0}"
        if sum(bv.provenance["counts"]) <= persistence.ORACLE_LIMIT:
            cx = complexes.vr_complex(q.space, r, "lt", dim_cap=RP2_DIM_CAP)
            oracle = persistence.homology_oracle(cx)
            if oracle != bv.values:
                return f"betti {bv.values} at {r}, dense oracle says {oracle}"
        return None
    return check


def _certify(state, space, action):
    def run():
        state["q"] = actions.build_quotient(space, action)
        return state["q"], quotient_iso.iso_check(space, action, RP2_ISO_SCALE, "vr", "lt",
                                                  dim_cap=RP2_DIM_CAP)
    return run


def _certify_check(space, action):
    iso = _rp2_iso_check(space, action)
    return lambda out: check_quotient(space, action, out[0]) or iso(out[1])


def setup_rp2(seed: int, tiny: bool) -> Batch:
    size = 40 if tiny else 150
    space, action = paired_sphere(size, seed)
    digests: dict[str, str] = {}
    _record(digests, f"sphere{size}", space, action)
    state: dict = {}
    # one job per command a user would run: certify (quotient plus
    # iso-check), then betti on the quotient at each scale
    jobs = [Job("certify", _certify(state, space, action), _certify_check(space, action))]
    for r in RP2_BETTI_SCALES:
        jobs.append(Job(f"betti@{r}",
                        lambda r=r: persistence.betti_at(state["q"].space, r, "lt",
                                                         dim_cap=RP2_DIM_CAP),
                        _betti_check(state, r)))
    return Batch(jobs, digests)


# ---------------------------------------------------------------------------
# barcode

BARCODE_DIM_CAP = 3
# scales for the barcode-versus-ranks check, as quantiles of the quotient's
# critical values: low enough that the rank path stays cheap
BARCODE_CHECK_QUANTILES = (0.1, 0.2, 0.3, 0.4)


def _barcode_check(state, space, action):
    def check(barcode):
        q = state["q"]
        bad_quotient = check_quotient(space, action, q)
        if bad_quotient:
            return bad_quotient
        n = q.space.n
        expected = sum(math.comb(n, k + 1) for k in range(BARCODE_DIM_CAP + 1))
        if barcode.provenance["n_simplices"] != expected:
            return f"{barcode.provenance['n_simplices']} simplices, expected {expected}"
        essential = sum(1 for _, death in barcode.bars(0) if math.isinf(death))
        if essential != 1:
            return f"{essential} essential H0 bars, expected 1"
        crit = spaces.critical_values(q.space)
        for f in BARCODE_CHECK_QUANTILES:
            r = float(crit[int(f * (len(crit) - 1))])
            alive = barcode.betti_alive_at(r, "leq")
            ranks = persistence.betti_at(q.space, r, "leq", dim_cap=BARCODE_DIM_CAP).values
            if alive != ranks:
                return f"bars alive at {r!r}: {alive}, betti_at: {ranks}"
        return None
    return check


def _persistence(state, space, action):
    def run():
        state["q"] = actions.build_quotient(space, action)
        filtration = complexes.vr_filtration(state["q"].space, dim_cap=BARCODE_DIM_CAP)
        return persistence.reduce_filtration(filtration)
    return run


def setup_barcode(seed: int, tiny: bool) -> Batch:
    size = 10 if tiny else 60
    space, action = paired_sphere(size, seed)
    digests: dict[str, str] = {}
    _record(digests, f"sphere{size}", space, action)
    state: dict = {}
    return Batch([Job("persistence", _persistence(state, space, action),
                      _barcode_check(state, space, action))], digests)


# ---------------------------------------------------------------------------
# cli

# (label, shape kind, shape params, action arguments, group order)
CLI_SHAPES = [
    ("circle12", "evenly-spaced-circle", {"n": 12}, ["--kind", "antipodal"], 2),
    ("circle48", "evenly-spaced-circle", {"n": 48}, ["--kind", "antipodal"], 2),
    ("sphere12", "geodesic-sphere", {"dim": 2, "count": 12, "paired": True},
     ["--kind", "paired-swap"], 2),
    ("sixcircles12", "six-circles", {"m": 12}, ["--kind", "block-shift", "--blocks", "6"], 6),
    ("twelvecircles4", "twelve-circles", {"m": 4}, ["--kind", "twelve-circles"], 12),
    ("torus14", "flat-torus-grid", {"k": 14}, ["--kind", "torus-z14"], 14),
]
# closed forms from the paper's examples: (shape, kind) -> (passes_at, fails_at)
CLI_BRACKETS = {
    ("circle12", "diameter"): (1 / 6, 0.25),
    ("circle48", "nerve"): (6 / 48, 7 / 48),
}
SIX_SCALE = 0.9  # between the 1-step and 2-step chords of a 12-gon of radius 1
CLI_K_MAX = 3
ISO_INSIDE = 1e-6


def _schema(name: str) -> dict:
    path = resources.files("orbitrips") / "schemas" / f"{name}.schema.json"
    return json.loads(path.read_text())


def _passes_at(path: str, inside: float = 0.0) -> str:
    """passes_at of a threshold report as a scale argument, optionally moved
    inside the passing range by a relative margin."""
    with open(path) as fh:
        return repr(float(json.load(fh)["passes_at"]) * (1.0 - inside))


class CliBatch:
    """Input files, commands and checks of the cli workload in one directory."""

    def __init__(self, workdir: str, seed: int):
        import jsonschema  # only the cli checks need it

        self.validate = jsonschema.validate
        self.schemas = {name: _schema(name) for name in
                        ("space", "action", "threshold_report", "iso_certificate", "betti")}
        self.dir = workdir
        self.seed = seed
        self._docs: dict[str, dict] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def write_inputs(self) -> dict[str, str]:
        """Generate each shape and its action with the library and write them."""
        digests: dict[str, str] = {}
        for label, kind, params, act_args, _ in CLI_SHAPES:
            seed = self.seed if kind == "geodesic-sphere" else None
            space = spaces.generate_space(spaces.ShapeSpec(kind, params, seed=seed))
            action = self._library_action(space, act_args)
            spaces.save_space(space, self.path(f"{label}.space.json"))
            actions.save_action(action, self.path(f"{label}.action.json"))
            _record(digests, label, space, action)
        return digests

    @staticmethod
    def _library_action(space, act_args):
        n, kind = space.n, act_args[1]
        if kind == "antipodal":
            gens = [actions.antipodal_generator(n)]
        elif kind == "paired-swap":
            gens = [actions.paired_swap_generator(n // 2)]
        elif kind == "block-shift":
            blocks = int(act_args[3])
            gens = [actions.block_shift_generator(blocks, n // blocks)]
        elif kind == "twelve-circles":
            gens = spaces.twelve_circles_action_generators(n // 12)
        else:
            gens = actions.torus_grid_shift_generators(math.isqrt(n))
        return actions.close_group(n, gens)

    def jobs(self) -> list[Job]:
        out: list[Job] = []
        for shape in CLI_SHAPES:
            out.extend(self._shape_jobs(*shape))
        return out

    def _shape_jobs(self, label, kind, params, act_args, order) -> list[Job]:
        space = self.path(f"{label}.space.json")
        act = self.path(f"{label}.action.json")

        def f(suffix: str) -> str:
            return self.path(f"{label}.{suffix}")

        gen_args = ["--shape", kind]
        for key, value in params.items():
            gen_args += ["--param", f"{key}={str(value).lower()}"]
        if kind == "geodesic-sphere":
            gen_args += ["--seed", str(self.seed)]
        jobs = [
            self._cmd(f"{label}.generate", ["generate", *gen_args, "--out", f("gen.json")],
                      self._same_space(f("gen.json"), space)),
            self._cmd(f"{label}.action", ["action", *act_args, "--space", space,
                                          "--out", f("act.json")],
                      self._group_order(f("act.json"), order)),
            self._cmd(f"{label}.quotient", ["quotient", "--space", space, "--action", act,
                                            "--out", f("q.json")],
                      self._quotient_size(f("q.json"), space, order)),
        ]
        for check_kind in ("diameter", "nerve"):
            jobs.append(self._cmd(
                f"{label}.thresholds.{check_kind}",
                ["thresholds", "--kind", check_kind, "--k-max", str(CLI_K_MAX),
                 "--space", space, "--action", act, "--out", f(f"{check_kind}.json")],
                self._bracket(f(f"{check_kind}.json"), label, check_kind, space, act)))
        # iso-check runs just inside the diameter scan's passing range: at
        # passes_at itself a float-built action (six- and twelve-circles) can
        # leave the base complex non-invariant, which iso-check rejects
        jobs.append(self._cmd(
            f"{label}.iso-check",
            lambda: ["iso-check", "--kind", "vr",
                     "--scale", _passes_at(f("diameter.json"), ISO_INSIDE),
                     "--dim-cap", str(CLI_K_MAX), "--space", space, "--action", act,
                     "--out", f("iso.json")],
            self._implied_iso(f("iso.json"))))
        if kind == "six-circles":
            jobs.append(self._cmd(
                f"{label}.iso-check@{SIX_SCALE}",
                ["iso-check", "--kind", "vr", "--scale", str(SIX_SCALE), "--dim-cap", "2",
                 "--space", space, "--action", act, "--out", f("iso-fixed.json")],
                self._six_counts(f("iso-fixed.json"), params["m"])))
        jobs.append(self._cmd(
            f"{label}.betti",
            lambda: ["betti", "--space", f("q.json"), "--scale", _passes_at(f("diameter.json")),
                     "--convention", "leq", "--dim-cap", "2", "--out", f("betti.json")],
            self._valid(f("betti.json"), "betti")))
        jobs.append(self._cmd(
            f"{label}.persistence",
            ["persistence", "--space", f("q.json"), "--dim-cap", "2", "--out", f("bars.tsv")],
            self._bars_match_betti(f("bars.tsv"), f("betti.json"))))
        return jobs

    def _cmd(self, name: str, argv, check) -> Job:
        def run():
            args = argv() if callable(argv) else argv
            with contextlib.redirect_stderr(io.StringIO()):
                return cli.main(args)
        return Job(name, run, check)

    def _read(self, path):
        if path not in self._docs:
            with open(path) as fh:
                self._docs[path] = json.load(fh)
        return self._docs[path]

    def _load(self, rc, path, schema):
        """An output document, after its exit code and its schema."""
        if rc != 0:
            raise ValueError(f"exit code {rc}")
        doc = self._read(path)
        self.validate(doc, self.schemas[schema])
        return doc

    def _valid(self, out, schema):
        return _memo_check(lambda rc: self._load(rc, out, schema) and None)

    def _same_space(self, out, source):
        def body(rc):
            if self._load(rc, out, "space")["matrix"] != self._read(source)["matrix"]:
                return "generate differs from the library space"
        return _memo_check(body)

    def _group_order(self, out, order):
        def body(rc):
            doc = self._load(rc, out, "action")
            if doc["group_order"] != order:
                return f"group order {doc['group_order']}, expected {order}"
        return _memo_check(body)

    def _quotient_size(self, out, source, order):
        def body(rc):
            n_orbits, n = self._load(rc, out, "space")["n"], self._read(source)["n"]
            if n_orbits * order != n:  # free actions: every orbit is full
                return f"{n_orbits} orbits of {n} points under order {order}"
        return _memo_check(body)

    def _bracket(self, out, label, kind, space_path, action_path):
        def body(rc):
            doc = self._load(rc, out, "threshold_report")
            known = CLI_BRACKETS.get((label, kind))
            if known and (abs(doc["passes_at"] - known[0]) > 1e-12
                          or abs(doc["fails_at"] - known[1]) > 1e-12):
                return f"bracket ({doc['passes_at']}, {doc['fails_at']}), expected {known}"
            if doc["fails_at"] != "inf":
                space = spaces.load_space(space_path)
                action = actions.load_action(action_path)
                if not thresholds.verify_witness(space, action, kind, doc["fails_at"],
                                                 doc["witness"], doc["convention"]):
                    return f"{kind} witness does not replay"
        return _memo_check(body)

    def _implied_iso(self, out):
        def body(rc):
            doc = self._load(rc, out, "iso_certificate")
            if doc["verdict"] != "isomorphic":
                return f"diameter passes but iso-check says {doc['verdict']}"
            if doc["counts_orbits"] != doc["counts_quotient"]:
                return "orbit counts differ from quotient counts"
        return _memo_check(body)

    def _six_counts(self, out, m):
        # one m-cycle per circle: m vertices and m edges, no triangles
        expected = ("isomorphic", {"0": 6 * m, "1": 6 * m, "2": 0}, {"0": m, "1": m, "2": 0})

        def body(rc):
            doc = self._load(rc, out, "iso_certificate")
            got = (doc["verdict"], doc["counts_base"], doc["counts_quotient"])
            if got != expected:
                return f"six-circles at {SIX_SCALE}: {got}, expected {expected}"
        return _memo_check(body)

    def _bars_match_betti(self, tsv, betti_json):
        def body(rc):
            if rc != 0:
                return f"exit code {rc}"
            bars = persistence.read_barcode_tsv(tsv)
            doc = self._load(0, betti_json, "betti")
            r = doc["r"]
            alive = [sum(1 for b, d in bars.get(k, []) if b <= r < d)
                     for k in range(len(doc["betti"]))]
            if alive != doc["betti"]:
                return f"bars alive at {r}: {alive}, betti: {doc['betti']}"
        return _memo_check(body)


def failure_reason(body) -> str | None:
    """Run a check body; an exception is a failed check with its message."""
    try:
        return body()
    except Exception as exc:  # noqa: BLE001 - any error means the output is wrong
        return f"{type(exc).__name__}: {exc}"


def _memo_check(body):
    """A cli check, run once per exit code: every batch rewrites byte-identical
    files and checks run after the last batch."""
    cache: dict[int, str | None] = {}

    def check(rc):
        if rc not in cache:
            cache[rc] = failure_reason(lambda: body(rc))
        return cache[rc]
    return check


def setup_cli(seed: int, workdir: str) -> Batch:
    """Input files in a fresh `workdir`, and the command batch that reads
    them.  The shapes are small in every mode; sphere12 takes the run seed as
    its ShapeSpec seed, as `orbitrips generate --seed` does."""
    if os.path.isdir(workdir):
        shutil.rmtree(workdir)
    os.makedirs(workdir)
    batch = CliBatch(workdir, seed)
    digests = batch.write_inputs()
    return Batch(batch.jobs(), digests)
