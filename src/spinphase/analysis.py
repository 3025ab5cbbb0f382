"""Parameter sweeps of equal-angle Wigner correlation functions and the
detection of their critical features: first-derivative extrema, and the
symmetry-sector level crossings with the jumps of every label across them."""

import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError
from . import models
from .models import (ModelSpec, pick_sector, sector_levels, xy_factorization_angle,
                     xy_factorization_point)
from .qcore import CHUNK_BYTES, label_name, validate_label, validate_labels
from .wigner import SQRT3, check_angles, phase_point_values

# correlation subsets explored for the 6-site ring: one representative per
# translation/reflection class for each subset size
CANONICAL_LABELS_6 = (
    (1,), (1, 2), (1, 3), (1, 4), (1, 2, 3), (1, 2, 4), (1, 3, 5),
    (1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 4, 5), (1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6),
)

EXTREMUM_NOISE_FLOOR = 1e-8
CROSSING_BRACKET = 1e-8  # absolute tolerance of a sector crossing's root in the parameter


# bytes a sweep grid point holds, besides its labels: the grid, the scalar
# columns, the sector levels, and their CSV cells; and the bytes each label
# adds to a point: its value and derivative, and the CSV rows that hold them.
# About twice the measured peak of a 10^5-point line: 0.8 kB a point with one
# label, 1.3 kB with three.
POINT_BYTES = 1024
LABEL_BYTES = 512


def grid_values(start, stop, step, point_bytes=POINT_BYTES):
    """Sweep grid start + k * step for k = 0, 1, ... up to stop (1e-9 step
    slack), as an array.

    The one rule for every sweep grid: start, stop and step must be finite,
    step > 0 and stop >= start, else ConfigError. The points are counted before
    any is built, and a grid whose points would hold more than physical memory
    at `point_bytes` each raises ConfigError, naming the count and that bound.
    """
    if not np.all(np.isfinite((start, stop, step))) or step <= 0 or stop < start:
        raise ConfigError(f"sweep grid needs finite start <= stop and step > 0, got "
                          f"start {start}, stop {stop}, step {step}")
    count = np.floor((stop - start) / step + 1e-9) + 1  # inf when the span overflows
    limit = models.physical_memory() // point_bytes
    if not count <= limit:
        raise ConfigError(f"sweep grid has {count:.6g} points, above the {limit} points "
                          f"that physical memory holds at {point_bytes} bytes a point")
    return start + np.arange(int(count)) * step


def canonical_labels(n):
    """Default correlation subsets for an n-site ring."""
    if n == 6:
        return [tuple(l) for l in CANONICAL_LABELS_6]
    labels = [(1,), (1, 2), tuple(range(1, n + 1))]
    return list(dict.fromkeys(l for l in labels if len(l) <= n))


@dataclass(frozen=True)
class SweepConfig:
    """One phase-line computation: a model, a parameter grid and label set.
    The grid is built once, as `params`, after its point count is checked."""

    spec: ModelSpec
    start: float
    stop: float
    step: float
    labels: tuple = ()
    policy: str = "symmetric"
    theta: float = 0.0
    phi: float = 0.0

    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_angles(self.theta, self.phi)  # before any grid point is solved
        labels = validate_labels(self.labels, self.spec.n) or \
            tuple(canonical_labels(self.spec.n))
        object.__setattr__(self, "labels", labels)
        params = grid_values(self.start, self.stop, self.step,
                             POINT_BYTES + LABEL_BYTES * len(labels))
        if len(params) < 2:  # the derivative needs two points
            raise ConfigError("a sweep needs at least two grid points")
        object.__setattr__(self, "params", params)


@dataclass
class PhaseLine:
    """Sampled equal-angle values per label plus ground-state metadata."""

    config: SweepConfig
    params: np.ndarray
    values: dict = field(repr=False)
    energy: np.ndarray = field(repr=False)
    degeneracy: np.ndarray = field(repr=False)
    parity: np.ndarray = field(repr=False)  # +-1, or nan when indefinite
    gap: np.ndarray = field(repr=False)
    levels: list = field(repr=False)  # `sector_energies` triple per grid point

    def series(self, label):
        return self.values[validate_label(label, self.config.spec.n)]


@dataclass
class CriticalPoint:
    kind: str  # jump | derivative_extremum | sector_crossing
    location: float
    magnitude: float
    label: str  # label name or "global"
    detail: str | None = None


def sweep(cfg):
    """Phase line over the parameter grid: the ground state of the stacked solve
    `models.ground_states` at each value, and every label at the phase point by
    `phase_point_values`, one pass per batch of at most CHUNK_BYTES of states
    (or one larger state), as the solve yields them. Per point only the label
    values and the scalar columns are kept, not the state."""
    states, held, values, rows = [], 0, [], []
    for gs in models.ground_states(cfg.spec, cfg.params, cfg.policy):
        rows.append((gs.energy, gs.degeneracy, np.nan if gs.parity is None else gs.parity,
                     gs.gap, gs.levels))
        if states and held + gs.state.nbytes > CHUNK_BYTES:
            values.append(phase_point_values(states, cfg.labels, cfg.theta, cfg.phi))
            states, held = [], 0
        states.append(gs.state)
        held += gs.state.nbytes
    if states:
        values.append(phase_point_values(states, cfg.labels, cfg.theta, cfg.phi))
    series = np.concatenate(values).T.copy()  # one contiguous row per label
    energy, degeneracy, parity, gap, levels = zip(*rows)
    return PhaseLine(config=cfg, params=cfg.params, values=dict(zip(cfg.labels, series)),
                     energy=np.array(energy), degeneracy=np.array(degeneracy),
                     parity=np.array(parity, dtype=float), gap=np.array(gap), levels=list(levels))


def first_derivative(line, label):
    """Finite-difference d(value)/d(param): central interior, one-sided ends."""
    y = line.series(label)
    h = line.config.step
    d = np.empty_like(y)
    d[1:-1] = (y[2:] - y[:-2]) / (2 * h)
    d[0] = (y[1] - y[0]) / h
    d[-1] = (y[-1] - y[-2]) / h
    return d


def _parabolic_vertex(x0, x1, x2, y0, y1, y2):
    denom = y0 - 2 * y1 + y2
    if denom == 0:
        return x1, y1
    shift = 0.5 * (y0 - y2) / denom
    xv = x1 + shift * (x1 - x0)
    yv = y1 - 0.25 * (y0 - y2) * shift
    return xv, yv


def _median(values):
    """`np.median` of a series without NaN, bit for bit, without the `numpy.ma`
    import that the first `np.median` call makes."""
    s = np.sort(values)
    k = len(s) // 2
    return float(s[k] if len(s) % 2 else (s[k - 1] + s[k]) / 2)


def find_derivative_extrema(line, label):
    """Interior local extrema of the first-derivative series.

    Neighbouring samples within the noise floor EXTREMUM_NOISE_FLOOR x
    max(1, max|value|) of each other form one run, so rounding cannot split a
    plateau. A run whose two outside neighbours both lie above it (below it) is
    a minimum (maximum), unless its mean is within the floor of the series
    median. A one-sample run is refined by a 3-point parabolic fit, whose vertex
    gives location and magnitude; a longer run reports its centre and its mean.
    """
    y = line.series(label)
    if len(y) < 5:
        raise NumericalError("derivative extrema need a series of at least 5 points")
    d = first_derivative(line, label)
    x = line.params
    med = _median(d)
    floor = EXTREMUM_NOISE_FLOOR * max(1.0, float(np.max(np.abs(y))))
    name = label_name(validate_label(label, line.config.spec.n), line.config.spec.n)
    steps = np.diff(d)
    edges = np.flatnonzero(np.abs(steps) > floor)  # a run ends at each edge
    out = []
    for left, right in zip(edges, edges[1:]):
        if (steps[left] < 0) == (steps[right] < 0):
            continue  # the series rises (or falls) through the run
        lo, hi = left + 1, right  # the run d[lo..hi]
        mean = float(np.mean(d[lo:hi + 1]))
        if abs(mean - med) <= floor:
            continue
        if lo == hi:
            xv, yv = _parabolic_vertex(x[lo - 1], x[lo], x[lo + 1], d[lo - 1], d[lo], d[lo + 1])
        else:
            xv, yv = 0.5 * (x[lo] + x[hi]), mean
        out.append(CriticalPoint(kind="derivative_extremum", location=float(xv),
                                 magnitude=float(yv), label=name,
                                 detail="minimum" if steps[left] < 0 else "maximum"))
    return out


def _brent_root(f, a, b):
    """Root of f between a and b by Brent's method (R. P. Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 4), as scipy's C `brentq`
    does it with xtol CROSSING_BRACKET and its defaults, rtol 4 eps and 100
    iterations: the same float operations in the same order, so the root and
    every point f is evaluated at are that routine's, bit for bit.

    Returns once f is 0 or the bracket's half-width is below
    (xtol + rtol |x|) / 2 about the best point x; a zero at either end returns
    that end. Ends of the same sign raise ValueError, and no convergence in
    100 steps raises RuntimeError.
    """
    xtol, rtol = CROSSING_BRACKET, 4 * sys.float_info.epsilon
    xpre, xcur = float(a), float(b)
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre  # the bracket is [xcur, xblk]
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # xcur is the end with the smaller |f|
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # a short interpolated step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"Brent's method did not converge in 100 iterations, "
                       f"value is {xcur}")


def find_sector_crossings(line):
    """Level crossings between the lowest levels of two symmetry sectors along
    the sweep, and the jump of every label across each of them.

    At each grid point `pick_sector` names the ground sector from the sweep's
    `line.levels`. Where it changes, the crossing is the root of the two
    sectors' level difference E_b - E_a, found by Brent's method (`_brent_root`)
    to CROSSING_BRACKET from the level function `sector_levels`, which the first
    root search builds and the others reuse. If the two sectors tie within the
    tie tolerance at either end of the bracket, that end is an exact hit,
    located at the grid point without a root search, so the sign of rounding
    noise cannot move it. Each crossing gives a
    `sector_crossing` point (label "global", detail "<from> -> <to>",
    magnitude the |slope| of the two sectors' energy difference over the
    bracket). Each label whose value steps across the crossing by more than
    EXTREMUM_NOISE_FLOOR x max(1, max|value|) gets a `jump` at the crossing,
    with the step as its magnitude; for an exact hit the step spans both
    brackets that meet at the grid point.
    """
    spec, x, levels = line.config.spec, line.params, line.levels
    sectors = levels[0][0]
    picked = [pick_sector(*level) for level in levels]
    levels_at, out = None, []
    for i in range(len(x) - 1):
        a, b = picked[i], picked[i + 1]
        if a == b:
            continue
        gaps = [levels[k][1][b] - levels[k][1][a] for k in (i, i + 1)]
        hits = [k for k, gap in zip((i, i + 1), gaps) if abs(gap) <= levels[k][2]]
        if hits:
            loc, lo, hi = x[hits[0]], max(hits[0] - 1, 0), min(hits[0] + 1, len(x) - 1)
        else:  # a is picked at x_i, b at x_{i+1} and neither end ties, so E_b - E_a is > tol
            # at x_i and < -tol at x_{i+1}; at those two ends the root search reads the sweep's levels
            ends = {x[i]: levels[i][1], x[i + 1]: levels[i + 1][1]}
            levels_at = levels_at or sector_levels(spec)
            def gap(value):
                energies = ends[value] if value in ends else levels_at(value)[1]
                return energies[b] - energies[a]
            loc, lo, hi = _brent_root(gap, x[i], x[i + 1]), i, i + 1
        out.append(CriticalPoint(kind="sector_crossing", location=float(loc),
                                 magnitude=float(abs(gaps[1] - gaps[0]) / (x[i + 1] - x[i])),
                                 label="global", detail=f"{sectors[a]:g} -> {sectors[b]:g}"))
        for label in line.config.labels:
            y = line.series(label)
            step = y[hi] - y[lo]
            if abs(step) > EXTREMUM_NOISE_FLOOR * max(1.0, float(np.max(np.abs(y)))):
                out.append(CriticalPoint(kind="jump", location=float(loc),
                                         magnitude=float(step),
                                         label=label_name(label, spec.n)))
    return out


def factorization_value_check(gamma, labels, n=6):
    """Product-state prediction of the correlation values at the xy
    factorization point.

    expected = 2^-k (1 + sqrt(3) cos angle)^k for a label of k sites: the
    (0,0) value of either factorized product state |+-angle>^n, each an exact
    ground-energy eigenvector at the factorization coupling. At finite n the
    ground states on either side are the definite-parity combinations of the
    two product states, whose overlap cos(angle)^n is nonzero, so the mean of
    the values straddling the coupling tends to the mean of the two
    parity-state values (see `acceptance.parity_state_values`), not to
    expected: at gamma = 0.5, n = 6 the limit for the full ring is 0.91346
    while expected is 1.0.
    Returns a list of (label_name, expected) rows.
    """
    if np.isinf(xy_factorization_point(gamma)):
        raise ValueError("factorization point is infinite at gamma = 1")
    base = 1.0 + SQRT3 * np.cos(xy_factorization_angle(gamma))
    return [(label_name(sites, n), (base / 2.0) ** len(sites))
            for sites in (validate_label(l, n) for l in labels)]


def count_sign_changes(values):
    """Number of strict sign flips between consecutive entries, ignoring zeros."""
    signs = [1 if v > 0 else -1 for v in values if abs(v) > 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)
