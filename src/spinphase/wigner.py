"""Displaced-parity Wigner kernel, the batched evaluators and sphere sampling.

The single-qubit kernel at phase point (theta, phi) is the Bloch form
K = (1 + sqrt(3) n.sigma)/2 with n = (sin theta cos phi, sin theta sin phi,
cos theta); `bloch_factors` gives its Pauli components and `kernels` builds K
for a batch of points. A state is a factor A, rho = A A^dagger, whose 2^n rows give n.
A Wigner value W = Tr[rho K_1 x ... x K_k] at given points comes from
`wigner_values`, which stacks consecutive same-shape states in runs and
evaluates each run whole, in the one of two contraction orders of the reduced
factors M (`qcore.reduced_factor`, 2^k x c) that `_factor_order` finds cheaper
for k, c and the number of points: it forms the reduced densities M M^dagger
and contracts each site's kernel into them, one site at a time; or it applies
each site's kernel to M's row axis and sums conj(M) (K_1 x ... x K_k) M. Both
are batched over the run's states and the phase points. `equal_angle_values`
puts every site at one point, and `sphere_field` samples it on a sphere grid
from 2b + 1 phi nodes per theta row, b the highest phi harmonic the reduced
state carries (`_band`). A phase line has every label at one point, so
`phase_point_values` takes them all from one table: K's eigenvalues
(1 -+ sqrt(3))/2 are the same at every point, and each label is a sum of the
state's probabilities in K's eigenbasis (from `eigh` of `kernels`, so the Bloch
form stays the one kernel formula) weighted by products of those eigenvalues;
`equal_angle_values` is its oracle. There is no scalar form: one value is the
[0, 0] entry of a call with one state and one point. Angles are checked in one
place, `check_angles`, which `bloch_factors` runs on every angle it is given,
so a bad angle raises ValueError on every path from angles to values. The
kernel as the rotated parity R (1 + sqrt(3) sigma_z)/2 R^dagger, and the
former Pauli-expectation evaluator, are the independent oracles of the tests.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .qcore import (CHUNK_BYTES, IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, all_up_vector,
                    basis_vector, n_sites, reduced_factor, validate_label)

SQRT3 = np.sqrt(3.0)
PAULI_BASIS = np.array([IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z])

# eigenvalues of the single-qubit kernel at every phase point
KERNEL_EIG_HI = 0.5 * (1.0 + SQRT3)
KERNEL_EIG_LO = 0.5 * (1.0 - SQRT3)

ANGLE_SLACK = 1e-9


def check_angles(theta, phi):
    """The one phase-point rule, for scalar and array angles alike: every angle
    finite, theta in [0, pi] and phi in [0, 2*pi), each within ANGLE_SLACK;
    else ValueError naming the first offending angle."""
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    if not (np.isfinite(theta).all() and np.isfinite(phi).all()):
        raise ValueError("phase point angles must be finite")
    bad = theta[(theta < -ANGLE_SLACK) | (theta > np.pi + ANGLE_SLACK)]
    if bad.size:
        raise ValueError(f"theta={bad[0]} outside [0, pi]")
    bad = phi[(phi < -ANGLE_SLACK) | (phi >= 2 * np.pi + ANGLE_SLACK)]
    if bad.size:
        raise ValueError(f"phi={bad[0]} outside [0, 2*pi)")
    return theta, phi


def bloch_factors(theta, phi):
    """Pauli components Tr[sigma_b K] = (1, sqrt3 nx, sqrt3 ny, sqrt3 nz) of the
    kernel at (theta, phi), after `check_angles`; array angles give one row of
    four per point."""
    theta, phi = check_angles(theta, phi)
    st = np.sin(theta)
    return np.stack([np.ones_like(theta), SQRT3 * st * np.cos(phi), SQRT3 * st * np.sin(phi),
                     SQRT3 * np.cos(theta)], axis=-1)


def _pauli_operator(coeffs):
    """2^-k sum_a coeffs[a] sigma_a1 x ... x sigma_ak for a tensor with k Pauli axes:
    each Pauli axis becomes its site's (row, column) axes, rows then before columns."""
    t, k = np.asarray(coeffs), np.ndim(coeffs)
    for _ in range(k):
        t = np.tensordot(t, PAULI_BASIS, axes=(0, 0))
    return t.transpose([*range(0, 2 * k, 2), *range(1, 2 * k, 2)]).reshape(2**k, 2**k) / 2**k


def kernels(thetas, phis):
    """Single-qubit kernels (1/2) sum_b bloch_factors[b] sigma_b, one (2, 2) per point."""
    return np.tensordot(bloch_factors(thetas, phis), PAULI_BASIS, axes=(-1, 0)) / 2


def wigner_values(states, sites, site_kernels):
    """The Wigner evaluator at given points: Tr[rho (K_1 x ... x K_k)] of every
    state factor in `states` reduced to `sites`, for every row of the per-site
    kernel stacks `site_kernels` ((p, 2, 2) or (2, 2) each, broadcast); shape
    (len(states), p).

    One rule for every state: consecutive same-shape states are stacked in runs
    (`_same_shape_runs`), each run's reduced factors M (s, 2^k, c) are formed by
    one transpose, and the run is evaluated whole in the order `_factor_order`
    finds cheaper for its k sites, c columns and p points: on the density
    (`_density_values`) or on the factor (`_factor_values`). A run holds at most
    about CHUNK_BYTES of what its order keeps per state (at least one state):
    the factor and its 16 x 4^k-byte density, or the factor and K M at each of
    the p points, so states share a factor-order run only while all their
    points fit one chunk.
    """
    sites, site_kernels = tuple(sites), list(map(np.asarray, site_kernels))
    states = [np.asarray(state).reshape(len(state), -1) for state in states]  # 1-D: one column
    k = len(sites)
    if not k:
        raise ValueError("a Wigner value needs at least one site")
    if len(site_kernels) != k:
        raise ValueError(f"expected {k} phase points, got {len(site_kernels)}")
    for kern in site_kernels:
        if kern.ndim not in (2, 3) or kern.shape[-2:] != (2, 2):
            raise ValueError(f"a site's kernels must be (p, 2, 2) or (2, 2), got {kern.shape}")
    kts = np.broadcast_arrays(*(np.swapaxes(kern, -1, -2).reshape(-1, 1, 4)
                                for kern in site_kernels))
    p = len(kts[0])
    values = np.empty((len(states), p))
    on_factor = {sh: _factor_order(k, sh[0] * sh[1] >> k, p) for sh in {s.shape for s in states}}
    for a, b in _same_shape_runs(states, lambda state: 16 * (
            state.size * (1 + p) if on_factor[state.shape] else state.size + 4**k)):
        m = reduced_factor(states[a][None] if b == a + 1 else np.array(states[a:b]), sites)
        (_factor_values if on_factor[states[a].shape] else _density_values)(m, kts, values[a:b])
    return values


def _factor_order(k, columns, points):
    """Whether a run of k-site reduced factors with c = `columns` columns is
    contracted on the factor at p = `points` phase points: when that order,
    k kernels applied to the 2^k x c factor at each point, with a fixed cost
    per point and site as of 150 entries, weighs no more than the density
    order: the product M M^dagger (4^k c), laying out rho (4^k) and
    contracting it at each point (4^k p). The weights (56, 60 and 20 per
    unit of the product) are fitted, by the widest margin of a right choice,
    to both orders timed per run on the grid k = 1..10, c in {1, 2,
    2^(k // 2), 2^k}, p in {1, 181, 181 (2k + 1)}, runs of 1 and 16 states;
    there the choice is at most 1.12 times slower than the faster order."""
    return 56 * points * k * (2**k * columns + 150) <= 4**k * (columns + 60 + 20 * points)


def _density_values(m, kts, out):
    """Tr[M M^dagger (K_1 x ... x K_k)] of a stack of reduced factors M
    (s, 2^k, c) at every point of the transposed kernel rows `kts`, into `out`
    (s, p): rho = M M^dagger is laid out with each site's (row, column) index
    pair adjacent, so one batched matmul per site sums that pair against the
    site's transposed kernel. Points go in chunks whose first-site rest, a
    quarter of the densities per point, is about CHUNK_BYTES (at least one)."""
    k = len(kts)
    order = [1 + axis for i in range(k) for axis in (i, k + i)]
    rho = (m @ m.conj().swapaxes(1, 2)).reshape((len(m),) + (2,) * (2 * k))
    rho = rho.transpose([0, *order]).reshape(len(m), 1, -1)
    step = max(1, CHUNK_BYTES // (rho.nbytes // 4))
    for p0 in range(0, out.shape[1], step):
        t = rho
        for kt in kts:
            t = (kt[p0:p0 + step] @ t.reshape(*t.shape[:2], 4, -1))[..., 0, :]
        out[:, p0:p0 + step] = t[..., 0].real


def _factor_values(m, kts, out):
    """sum conj(M) (K_1 x ... x K_k) M of a stack of reduced factors M
    (s, 2^k, c) at every point of the transposed kernel rows `kts`, into `out`
    (s, p), in chunks of points of about CHUNK_BYTES (at least one point, whose
    K M is the size of the stack).

    Each site's kernel contracts the leading row axis of the work array by one
    batched matmul and appends its output axis last, so after k sites the axes
    are (state, point, column, site 1, ..., site k): the layout of M^T. The
    real part of its sum against conj(M^T) is one batched real matrix-vector
    product over the interleaved (re, im) pairs of both."""
    s, size = len(m), m[0].size
    step = max(1, CHUNK_BYTES // (16 * m.size))
    mt = np.ascontiguousarray(m.swapaxes(1, 2)).reshape(s, size).view(float)[..., None]
    for p0 in range(0, out.shape[1], step):
        t = m
        for kt in kts:
            t = np.swapaxes(t.reshape(s, -1, 2, size // 2), 2, 3) @ kt[p0:p0 + step].reshape(
                -1, 2, 2)
        out[:, p0:p0 + step] = (t.reshape(s, -1, size).view(float) @ mt)[..., 0]


def _same_shape_runs(states, state_bytes=lambda state: 16 * state.size):
    """(a, b) runs of consecutive states of one 2-D shape, each of at most
    CHUNK_BYTES by `state_bytes` of its first state (at least one state); by
    default the states themselves, as complex."""
    a = 0
    while a < len(states):
        shape, b = states[a].shape, a + 1
        per_run = max(1, CHUNK_BYTES // state_bytes(states[a]))
        while b < len(states) and b - a < per_run and states[b].shape == shape:
            b += 1
        yield a, b
        a = b


def equal_angle_values(states, sites, thetas, phis):
    """Values with all k sites at one point, shape (len(states), number of points)."""
    sites = tuple(sites)
    return wigner_values(states, sites, [kernels(thetas, phis)] * len(sites))


def phase_point_values(states, labels, theta, phi):
    """Every label's equal-angle value at one phase point (theta, phi), shape
    (len(states), len(labels)): the phase-point order, which gives what
    `equal_angle_values` gives, label by label, to rounding.

    K = U diag(w) U^dagger by `np.linalg.eigh` of `kernels(theta, phi)`, so
    Tr[rho_S K^(x k)] = sum_x P(x) prod_{i in S} w[x_i], where P is the diagonal
    of the whole state rotated into K's eigenbasis, (U^dagger)^(x n) A A^dagger
    U^(x n): the sites outside S cancel in their partial trace. So each state is
    rotated once, one 2 x 2 product per site, its |entries|^2 are summed over its
    columns, and one (2^n, labels) table of eigenvalue products (a site outside
    the label weighs 1) gives every label by one matrix product. The states (all
    of one n) are stacked in runs of one shape (`_same_shape_runs`); no state
    gives a (0, len(labels)) array, once the angles pass `check_angles`."""
    states = [np.asarray(state, dtype=complex).reshape(len(state), -1) for state in states]
    w, u = np.linalg.eigh(kernels(theta, phi))
    if not states:
        return np.empty((0, len(labels)))
    n = n_sites(len(states[0]))
    digits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1  # column i: site i + 1
    site_weights = w[digits]  # eigenvector j of a site weighs w[j]
    table = np.stack([np.prod(site_weights[:, [s - 1 for s in validate_label(label, n)]], axis=1)
                      for label in labels], axis=1)
    uh = u.conj().T
    values = np.empty((len(states), len(labels)))
    for a, b in _same_shape_runs(states):
        m = np.stack(states[a:b])  # (states, 2^n, columns)
        for i in range(n):  # site i + 1 is the middle axis
            m = uh @ m.reshape((b - a) * 2**i, 2, -1)
        m = m.reshape(b - a, 2**n, -1)
        values[a:b] = (m.real**2 + m.imag**2).sum(axis=2) @ table
    return values


@dataclass(frozen=True)
class SphereGrid:
    """Rectangular sphere sampling: theta in [0, pi] inclusive, phi in [0, 2*pi) exclusive."""

    n_theta: int = 181
    n_phi: int = 360

    def __post_init__(self):
        if self.n_theta < 2 or self.n_phi < 2:
            raise ValueError("SphereGrid needs at least 2 samples per axis")

    @property
    def thetas(self):
        return np.linspace(0.0, np.pi, self.n_theta)

    @property
    def phis(self):
        return np.arange(self.n_phi) * (2 * np.pi / self.n_phi)


def sphere_field(state, sites, grid=SphereGrid()):
    """Sample the equal-angle reduced Wigner function on a sphere grid.

    Returns the (n_theta, n_phi) array of the values at (thetas[i], phis[j]).
    Since K(theta, phi) = R_z(phi) K(theta, 0) R_z(phi)^dagger, the field holds
    phi harmonic m only through the coherences of the reduced state between
    configurations whose down-spin counts differ by m, so it is a trigonometric
    polynomial in phi of degree b = `_band` of the reduced factor (at most k).
    Each theta row is evaluated at 2b + 1 equispaced phi nodes and mapped
    exactly onto the grid's phis by the Dirichlet kernel
    D(x) = (1 + 2 sum_{m=1..b} cos(m x)) / (2b + 1). A state that conserves
    total S_z has b = 0: one node per row, and each row one repeated value.
    """
    sites = tuple(sites)
    band = _band(reduced_factor(state, sites))
    nodes = 2 * band + 1
    node_phis = np.arange(nodes) * (2 * np.pi / nodes)
    tt, pp = np.meshgrid(grid.thetas, node_phis, indexing="ij")
    rows = equal_angle_values([state], sites, tt.ravel(), pp.ravel()).reshape(-1, nodes)
    x = grid.phis - node_phis[:, None]
    interp = 1 + 2 * sum((np.cos(m * x) for m in range(1, band + 1)), np.zeros_like(x))
    return rows @ (interp / nodes)


def _band(m):
    """The highest phi harmonic a reduced factor M (2^k, c) gives its field: the
    largest spread in down-spin count between the nonzero rows of any one
    column, which bounds the count difference of every nonzero entry of
    M M^dagger (0 when M has no nonzero entry)."""
    k = n_sites(len(m))
    down = np.sum((np.arange(2**k)[:, None] >> np.arange(k)) & 1, axis=1)[:, None]
    high = np.where(m != 0, down, -1).max(axis=0)
    low = np.where(m != 0, down, k + 1).min(axis=0)
    return int(np.max(high - low, initial=0))  # a column with no nonzero row gives < 0


# ---------------------------------------------------------------------------
# reference states

_PARAMETRIC_KINDS = {"ghz_plus", "ghz_minus", "ghz_mixture"}

# basis states, and cats (|bits> + sign |flipped bits>)/sqrt2 (ghz: bits (0,) * n)
_BASIS_KINDS = {"up": (0,), "up_up": (0, 0), "up_down": (0, 1)}
_CAT_KINDS = {"bell_psi_plus": ((0, 1), 1.0), "singlet": ((0, 1), -1.0),
              "psi_plus_4": ((0, 0, 1, 1), 1.0), "neel_minus_4": ((0, 1, 0, 1), -1.0),
              "neel_minus_6": ((0, 1, 0, 1, 0, 1), -1.0), "ghz_plus": (None, 1.0),
              "ghz_minus": (None, -1.0)}


def reference_state(kind, n=None):
    """State factor A (rho = A A^dagger) of a named reference state.

    ghz_plus / ghz_minus / ghz_mixture take the qubit count `n`; every other
    kind has a fixed size.
    """
    if kind in _PARAMETRIC_KINDS:
        if n is None or n < 2:
            raise ValueError(f"reference state {kind!r} needs n >= 2")
    elif n is not None:
        raise ValueError(f"reference state {kind!r} does not take n")

    if kind in _BASIS_KINDS:
        return basis_vector(_BASIS_KINDS[kind])[:, None]
    if kind == "mixed_single":
        return IDENTITY_2 / np.sqrt(2.0)
    if kind == "ghz_mixture":
        return np.column_stack([all_up_vector(n), basis_vector([1] * n)]) / np.sqrt(2.0)
    if kind not in _CAT_KINDS:
        raise ValueError(f"unknown reference state kind {kind!r}")
    bits, sign = _CAT_KINDS[kind]
    bits = (0,) * n if bits is None else bits
    cat = basis_vector(bits) + sign * basis_vector([1 - b for b in bits])
    return (cat / np.sqrt(2.0))[:, None]


# ---------------------------------------------------------------------------
# informational-completeness reconstruction


def reconstruct_density(samples, n):
    """Least-squares state reconstruction from Wigner samples.

    `samples` is a sequence of (points, value) pairs where `points` lists one
    (theta, phi) per qubit. The state is parametrized by its Pauli
    expectations with the identity coefficient fixed to 1, so the solution is
    Hermitian with trace 1 by construction. Returns (rho, residual) where
    residual is the root-sum-square misfit of the sampled values.

    Raises NumericalError when fewer than 4^n samples are supplied or the
    induced linear system is rank deficient.
    """
    samples = list(samples)
    n_params = 4**n
    if len(samples) < n_params:
        raise NumericalError(
            f"reconstruction for n={n} needs at least {n_params} samples, got {len(samples)}")
    points = [list(pts) for pts, _ in samples]
    for s, pts in enumerate(points):
        if len(pts) != n:
            raise ValueError(f"sample {s} has {len(pts)} points, expected {n}")
    angles = np.array(points, dtype=float)
    values = np.array([value for _, value in samples], dtype=float)

    # design[s, a]: value of sample s for unit Pauli expectation on string a alone,
    # prod_i bloch_factors(point_i)[a_i] / 2^n with a_1 the slowest index
    factors = bloch_factors(angles[..., 0], angles[..., 1])
    design = factors[:, 0] / 2**n
    for i in range(1, n):
        design = (design[:, :, None] * factors[:, i, None, :]).reshape(len(samples), -1)
    rank = np.linalg.matrix_rank(design)
    if rank < n_params:
        raise NumericalError(
            f"sample set induces a rank-{rank} system; {n_params} independent rows needed")

    # unit trace fixes the identity coefficient to 1
    rhs = values - design[:, 0]
    coeffs, _, _, _ = np.linalg.lstsq(design[:, 1:], rhs, rcond=None)
    rho = _pauli_operator(np.concatenate(([1.0], coeffs)).reshape((4,) * n))
    residual = float(np.linalg.norm(design[:, 1:] @ coeffs - rhs))
    return rho, residual
