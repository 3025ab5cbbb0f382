"""Parameter sweeps of equal-angle Wigner correlation functions and the
detection of their critical features: jumps, first-derivative extrema and
parity-level crossings."""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError, PolicyError
from .models import (TIE_TOL_FACTOR, ModelSpec, build_hamiltonian, ground_state,
                     spin_parity_diagonal, xy_factorization_angle, xy_factorization_point)
from .qcore import label_name, validate_label
from .wigner import SQRT3, equal_angle_point

# correlation subsets explored for the 6-site ring: one representative per
# translation/reflection class for each subset size
CANONICAL_LABELS_6 = (
    (1,), (1, 2), (1, 3), (1, 4), (1, 2, 3), (1, 2, 4), (1, 3, 5),
    (1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 4, 5), (1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6),
)

# finite stand-in for the "just above the transition" evaluation point
DEFAULT_EPSILON = 1e-4

JUMP_FACTOR_DEFAULT = 50.0
EXTREMUM_NOISE_FLOOR = 1e-8


def grid_values(start, stop, step):
    """Sweep grid start + k * step for k = 0, 1, ... up to stop (1e-9 step slack).

    The one rule for every sweep grid: start, stop and step must be finite,
    step > 0 and stop >= start, else ConfigError.
    """
    if not np.all(np.isfinite((start, stop, step))) or step <= 0 or stop < start:
        raise ConfigError(f"sweep grid needs finite start <= stop and step > 0, got "
                          f"start {start}, stop {stop}, step {step}")
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    return [start + k * step for k in range(count)]


def canonical_labels(n):
    """Default correlation subsets for an n-site ring."""
    if n == 6:
        return [tuple(l) for l in CANONICAL_LABELS_6]
    labels = [(1,)]
    if n >= 2:
        labels.append((1, 2))
    labels.append(tuple(range(1, n + 1)))
    return labels


@dataclass(frozen=True)
class SweepConfig:
    """One phase-line computation: a model, a parameter grid and label set."""

    spec: ModelSpec
    start: float
    stop: float
    step: float
    labels: tuple = ()
    policy: str = "symmetric"
    theta: float = 0.0
    phi: float = 0.0
    degeneracy_tol: float | None = None

    def __post_init__(self):
        if len(self.params) < 2:  # the derivative needs two points
            raise ConfigError("a sweep needs at least two grid points")
        labels = tuple(validate_label(l, self.spec.n) for l in self.labels) or \
            tuple(canonical_labels(self.spec.n))
        object.__setattr__(self, "labels", labels)

    @property
    def params(self):
        return np.array(grid_values(self.start, self.stop, self.step))


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

    def series(self, label):
        return self.values[validate_label(label, self.config.spec.n)]


@dataclass
class CriticalPoint:
    kind: str  # jump | derivative_extremum | parity_crossing
    location: float
    magnitude: float
    label: str  # label name or "global"
    detail: str | None = None


def sweep(cfg):
    """Phase line over the parameter grid: at each value build the Hamiltonian,
    select the ground state per policy and evaluate every label at the phase
    point. Aborts with the offending parameter value on policy failure."""
    params = cfg.params
    values = {label: np.empty(len(params)) for label in cfg.labels}
    energy = np.empty(len(params))
    degeneracy = np.empty(len(params), dtype=int)
    parity = np.empty(len(params))
    gap = np.empty(len(params))
    for i, value in enumerate(params):
        spec = cfg.spec.with_param(value)
        try:
            gs = ground_state(spec, policy=cfg.policy, degeneracy_tol=cfg.degeneracy_tol)
        except PolicyError as exc:
            raise PolicyError(f"{exc} (at {spec.sweep_param} = {value:.6g})") from exc
        energy[i] = gs.energy
        degeneracy[i] = gs.degeneracy
        parity[i] = np.nan if gs.parity is None else gs.parity
        gap[i] = gs.gap
        for label in cfg.labels:
            values[label][i] = equal_angle_point(gs.state, label, cfg.theta, cfg.phi, n=spec.n)
    return PhaseLine(config=cfg, params=params, values=values, energy=energy,
                     degeneracy=degeneracy, parity=parity, gap=gap)


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


def find_derivative_extrema(line, label, noise_floor=EXTREMUM_NOISE_FLOOR,
                            prominence_iqr=0.0):
    """Interior local extrema of the first-derivative series.

    Each extremum is refined with a 3-point parabolic fit; its magnitude is
    the fitted extremal derivative. Extrema closer to the series median than
    the numerical noise floor are dropped, as are those within
    `prominence_iqr` interquartile ranges of the median when that filter is
    enabled (> 0).
    """
    y = line.series(label)
    if len(y) < 5:
        raise NumericalError("derivative extrema need a series of at least 5 points")
    d = first_derivative(line, label)
    x = line.params
    med = float(np.median(d))
    q1, q3 = np.percentile(d, [25, 75])
    iqr = float(q3 - q1)
    floor = noise_floor * max(1.0, float(np.max(np.abs(y))))
    name = label_name(validate_label(label, line.config.spec.n), line.config.spec.n)
    out = []
    for i in range(1, len(d) - 1):
        is_min = d[i] < d[i - 1] and d[i] < d[i + 1]
        is_max = d[i] > d[i - 1] and d[i] > d[i + 1]
        if not (is_min or is_max):
            continue
        if abs(d[i] - med) <= floor:
            continue
        if prominence_iqr > 0 and abs(d[i] - med) <= prominence_iqr * iqr:
            continue
        xv, yv = _parabolic_vertex(x[i - 1], x[i], x[i + 1], d[i - 1], d[i], d[i + 1])
        out.append(CriticalPoint(kind="derivative_extremum", location=float(xv),
                                 magnitude=float(yv), label=name,
                                 detail="minimum" if is_min else "maximum"))
    return out


def find_jumps(line, label, jump_factor=JUMP_FACTOR_DEFAULT):
    """Discontinuity candidates: successive differences whose magnitude exceeds
    jump_factor times the median of the non-zero absolute successive
    differences, and the numerical noise floor. Exact plateaus therefore do
    not shrink the threshold. Locations are interval midpoints. An all-equal
    series yields no jumps."""
    y = line.series(label)
    x = line.params
    diffs = np.diff(y)
    moving = np.abs(diffs[diffs != 0.0])
    if len(moving) == 0:
        return []
    floor = EXTREMUM_NOISE_FLOOR * max(1.0, float(np.max(np.abs(y))))
    threshold = max(jump_factor * float(np.median(moving)), floor)
    name = label_name(validate_label(label, line.config.spec.n), line.config.spec.n)
    out = []
    for i, dv in enumerate(diffs):
        if abs(dv) > threshold:
            out.append(CriticalPoint(kind="jump", location=float((x[i] + x[i + 1]) / 2),
                                     magnitude=float(dv), label=name))
    return out


def _parity_gap(spec, value):
    """Lowest odd-parity minus lowest even-parity energy at `value` (parity is
    diagonal), and the tie tolerance there: TIE_TOL_FACTOR x max(spectral
    range, 1), as in `ground_state`."""
    H = build_hamiltonian(spec.with_param(value))
    d = spin_parity_diagonal(spec.n)
    even, odd = (np.linalg.eigvalsh(H[np.ix_(d == s, d == s)]) for s in (1.0, -1.0))
    spread = max(even[-1], odd[-1]) - min(even[0], odd[0])
    return float(odd[0] - even[0]), TIE_TOL_FACTOR * max(float(spread), 1.0)


def find_parity_crossings(cfg, bisect_tol=1e-8):
    """Crossings of the two lowest opposite-parity levels along the sweep.

    Scans the grid for sign changes of the sector gap and refines each
    bracket by bisection to `bisect_tol` in the parameter. A gap within the
    tie tolerance is an exact hit: it is reported once, at that grid point,
    by the bracket that ends there, so the sign of rounding noise cannot move
    it. Requires the model to commute with the spin parity operator.
    """
    spec = cfg.spec
    probe = build_hamiltonian(spec.with_param(cfg.start))
    parity_diag = spin_parity_diagonal(spec.n)
    comm = probe * parity_diag[None, :] - parity_diag[:, None] * probe
    if np.max(np.abs(comm)) > 1e-10 * max(1.0, float(np.max(np.abs(probe)))):
        raise ConfigError("model does not commute with the spin parity operator")

    params = cfg.params
    gaps, tols = np.array([_parity_gap(spec, p) for p in params]).T
    gaps[np.abs(gaps) <= tols] = 0.0
    out = []
    for i in range(len(params) - 1):
        if gaps[i] == 0.0 or gaps[i] * gaps[i + 1] > 0:
            continue  # no sign change, or an exact hit the preceding bracket reported
        loc = params[i + 1]  # an exact hit needs no bisection
        if gaps[i + 1] != 0.0:
            a, b, fa = params[i], params[i + 1], gaps[i]
            while b - a > bisect_tol:
                m = 0.5 * (a + b)
                fm = _parity_gap(spec, m)[0]
                if fa * fm <= 0:
                    b = m
                else:
                    a, fa = m, fm
            loc = 0.5 * (a + b)
        slope = (gaps[i + 1] - gaps[i]) / cfg.step
        out.append(CriticalPoint(kind="parity_crossing", location=float(loc),
                                 magnitude=float(abs(slope)), label="global"))
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


def count_sign_changes(values, zero_atol=0.0):
    """Number of strict sign flips between consecutive entries, ignoring
    entries with magnitude <= zero_atol."""
    signs = [1 if v > zero_atol else -1 for v in values if abs(v) > zero_atol]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)
