"""Seeded inputs for the two workloads.

A workload is a pool of tasks, one per stratum (command, dimension, site
count, radius range).  The seed only moves the points, so every seed gives the
same mix of work and the timings of two seeds are comparable.  Stratum i of
seed s draws from its own generator ``default_rng([s, 0, i])``.  Config files
are written before any timing starts.

The timed workloads hold only inputs on which kpv succeeds.  Inputs that hit
a known defect are probes (``PROBES``): each run writes and runs them once,
outside the timing, so the defects stay visible in every run's output.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

JITTERS = (1e-11, 1e-9, 1e-6)   # lattice jitters that raise the facet-ambiguity error
MIN_SEPARATION = 0.05        # random sites closer than this share of the span are redrawn
# far-field sites are redrawn while the centre of a circle (sphere) through
# three (four) of them lies farther than MAX_BREAKPOINT from some site: kpv
# fits its Laurent coefficients on [10 R, 1000 R], R the outermost breakpoint,
# and the fit's fixed condition bound fails once R passes about 12, whatever
# the size of the configuration (a known defect, see PROBES)
MAX_BREAKPOINT = 6.0


@dataclass
class Task:
    kind: str                       # stratum label, e.g. "verify-csikos/2d/N4"
    command: str
    argv: list                      # CLI arguments without --out
    points: list                    # one array per --config
    claim: str | None = None
    radii: np.ndarray | None = None


def random_points(rng, n: int, N: int, well_shaped: bool = False) -> np.ndarray:
    # well-shaped sets keep one scale: the integration range follows the
    # breakpoints, so the work of a far-field task depends on the scale
    span = 1.0 if well_shaped else rng.uniform(0.5, 2.0)
    while True:
        pts = rng.uniform(-span, span, size=(N, n)) + rng.uniform(-3, 3, size=n)
        d = np.linalg.norm(pts[:, None] - pts[None], axis=2)
        if np.min(d[np.triu_indices(N, 1)]) < MIN_SEPARATION * span:
            continue
        if not well_shaped or is_well_shaped(pts):
            return pts


def diameter(pts: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(pts[:, None] - pts[None], axis=2)))


def circumcentre(simplex: np.ndarray) -> np.ndarray | None:
    """Centre of the smallest sphere through all vertices of a simplex (None if flat)."""
    edges = simplex[1:] - simplex[0]
    gram = edges @ edges.T
    try:
        coef = np.linalg.solve(gram, 0.5 * np.diag(gram))
    except np.linalg.LinAlgError:
        return None
    return simplex[0] + coef @ edges


def is_well_shaped(pts: np.ndarray) -> bool:
    for m in range(3, pts.shape[1] + 2):
        for idx in itertools.combinations(range(len(pts)), m):
            centre = circumcentre(pts[list(idx)])
            if centre is None or np.max(np.linalg.norm(pts - centre, axis=1)) > MAX_BREAKPOINT:
                return False
    return True


def lattice(rng, n: int, side: int, jitter: float) -> np.ndarray:
    grid = np.array(list(itertools.product(range(side), repeat=n)), dtype=float)
    return grid + jitter * rng.standard_normal(grid.shape)


# ---------------------------------------------------------------------------
# strata: each factory returns make(rng) -> Task
# ---------------------------------------------------------------------------

def _verify(claim, n, N):
    def make(rng):
        pts = random_points(rng, n, N, well_shaped=True)
        return Task(f"verify-{claim}/{n}d/N{N}", "verify", ["verify", claim], [pts], claim)
    return make


def _threshold(n, N):
    def make(rng):
        from kpv.configurations import PointConfiguration, random_expansion
        pts = random_points(rng, n, N, well_shaped=True)
        while True:
            q = random_expansion(PointConfiguration(n, pts), seed=int(rng.integers(2**31)),
                                 magnitude=0.1 * diameter(pts))
            if is_well_shaped(np.asarray(q.points)):
                return Task(f"threshold/{n}d/N{N}", "threshold", ["threshold"], [pts, q.points])
    return make


def _scan(command, n, N, fractions):
    """Radii at fixed fractions of the diameter, so every seed costs about the same."""
    def make(rng):
        pts = random_points(rng, n, N)
        radii = np.asarray(fractions) * diameter(pts)
        argv = [command] + [a for r in radii for a in ("--r", repr(float(r)))]
        return Task(f"{command}/{n}d/N{N}", command, argv, [pts], radii=radii)
    return make


CROWD_RADII = (0.1, 0.15)       # shares of the diameter


def build_pool():
    # Few-site sets built out to 1000x their last breakpoint (verify and
    # threshold), where RK45 stepping dominates, beside many-site planar sets
    # (16-20 sites) scanned at small radii, where facet extraction and the
    # max-margin solves outweigh the integrator; random spatial sets of that
    # size take 4-12 s a task and are integrator-bound.  Jittered lattices
    # fail at every jitter tried (1 in 120 even at 1e-3), so they are probes
    far_field = [_verify("capoyleas-pach", 2, 3), _verify("csikos", 2, 4), _threshold(2, 3),
                 _verify("ww", 2, 3), _verify("capoyleas-pach", 2, 5), _threshold(2, 4),
                 _verify("capoyleas-pach", 3, 4), _verify("csikos", 3, 4)]
    crowd = [_scan("volume", 2, 18, CROWD_RADII), _scan("boundary", 2, 16, CROWD_RADII),
             _scan("volume", 2, 20, CROWD_RADII), _scan("boundary", 2, 18, CROWD_RADII),
             _scan("volume", 2, 16, CROWD_RADII), _scan("boundary", 2, 20, CROWD_RADII),
             _scan("volume", 2, 17, CROWD_RADII)]
    return far_field + crowd


def _dense(command, n, N, count):
    def make(rng):
        if N == 2:
            gap = rng.uniform(0.5, 2.0)
            pts = np.array([[0.0] * n, [gap] + [0.0] * (n - 1)])
            theta = rng.uniform(0, 2 * np.pi)
            rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
            pts = pts @ rot.T + rng.uniform(-3, 3, size=n)
        else:
            pts = random_points(rng, n, N)
        d = diameter(pts)
        lo, hi = rng.uniform(0.02, 0.05) * d, rng.uniform(2.5, 3.0) * d
        argv = [command, "--r-grid", f"{lo!r}:{hi!r}:{count}"]
        return Task(f"{command}/{n}d/N{N}", command, argv, [pts], radii=np.geomspace(lo, hi, count))
    return make


def _mc(n, N, count, samples):
    def make(rng):
        pts = random_points(rng, n, N)
        d = diameter(pts)
        lo, hi = rng.uniform(0.3, 0.5) * d, rng.uniform(1.0, 1.5) * d
        argv = ["volume", "--method", "monte_carlo", "--r-grid", f"{lo!r}:{hi!r}:{count}",
                "--samples", str(samples), "--seed", str(int(rng.integers(2**31)))]
        return Task(f"volume-mc/{n}d/N{N}", "volume-mc", argv, [pts], radii=np.geomspace(lo, hi, count))
    return make


def _lift(n, N, samples):
    def make(rng):
        pts = random_points(rng, n, N)
        argv = ["verify", "lift", "--samples", str(samples),
                "--seed", str(int(rng.integers(2**31)))]
        return Task(f"verify-lift/{n}d/N{N}", "verify", argv, [pts], "lift")
    return make


def dense_scan_pool():
    # thousands of radii per build, so evaluation and report writing outweigh
    # the build; the two-disk pair is checked in closed form at every radius.
    # Monte Carlo scans (NumPy hit-or-miss sampling, no ODE) ride along, as
    # they too do many reads per configuration; `verify lift` fails on every
    # input, so it is a probe only
    return [_dense("volume", 2, 2, 8000), _mc(2, 5, 4, 150_000), _dense("boundary", 2, 2, 6000),
            _dense("volume", 2, 4, 6000), _mc(3, 4, 3, 150_000), _dense("boundary", 2, 5, 4000),
            _dense("volume", 3, 3, 5000), _mc(2, 3, 3, 200_000), _dense("boundary", 2, 3, 6000),
            _dense("volume", 2, 6, 4000), _mc(3, 5, 3, 100_000), _dense("boundary", 3, 3, 4000)]


POOLS = {"build": build_pool, "dense-scan": dense_scan_pool}


# ---------------------------------------------------------------------------
# probes: inputs that hit a known defect
# ---------------------------------------------------------------------------

def _flat_verify(claim):
    """Three sites whose circumcircle is about 250 diameters wide."""
    def make(rng):
        theta = rng.uniform(0, 2 * np.pi)
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1e-3]]) @ rot.T + rng.uniform(-3, 3, size=2)
        return Task(f"verify-{claim}/2d/flat3", "verify", ["verify", claim], [pts], claim)
    return make


def _lattice_scan(command, n, side, jitter):
    def make(rng):
        pts = lattice(rng, n, side, jitter)
        radii = np.array([0.1, 0.2]) * diameter(pts)
        argv = [command] + [a for r in radii for a in ("--r", repr(float(r)))]
        return Task(f"{command}/{n}d/lattice{side}/jitter{jitter:g}", command, argv, [pts],
                    radii=radii)
    return make


PROBES = {
    "build": [_flat_verify("capoyleas-pach"), _lattice_scan("volume", 2, 3, JITTERS[0]),
              _lattice_scan("boundary", 2, 4, JITTERS[1]), _lattice_scan("volume", 3, 2, JITTERS[2])],
    "dense-scan": [_lift(2, 3, 100_000)],
}


def _write(task: Task, directory: Path, stem: str) -> Task:
    for j, pts in enumerate(task.points):
        path = directory / f"{stem}-{j}.json"
        path.write_text(json.dumps({"dimension": int(pts.shape[1]),
                                    "points": np.asarray(pts).tolist()}))
        task.argv += ["--config", str(path)]
    return task


def generate(workload: str, seed: int, directory: Path) -> list[Task]:
    """The workload's pool of tasks, with their config files written to directory."""
    directory.mkdir(parents=True, exist_ok=True)
    return [_write(make(np.random.default_rng([seed, 0, s])), directory, f"in-{s}")
            for s, make in enumerate(POOLS[workload]())]


PROBE_STREAM = 10**6          # probes draw from their own seed stream


def generate_probes(workload: str, seed: int, directory: Path) -> list[Task]:
    """The workload's probe tasks, with their config files written to directory."""
    directory.mkdir(parents=True, exist_ok=True)
    return [_write(make(np.random.default_rng([seed, PROBE_STREAM, s])), directory, f"probe-{s}")
            for s, make in enumerate(PROBES[workload])]
