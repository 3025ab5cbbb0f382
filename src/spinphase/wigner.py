"""Displaced-parity Wigner kernel, the one batched evaluator and sphere sampling.

The single-qubit kernel at phase point (theta, phi) is the Bloch form
K = (1 + sqrt(3) n.sigma)/2 with n = (sin theta cos phi, sin theta sin phi,
cos theta); `bloch_factors` gives its Pauli components and `kernels` builds K
for a batch of points. A state is a factor A, rho = A A^dagger, whose 2^n rows give n.
Every Wigner value W = Tr[rho K_1 x ... x K_k] comes from one evaluator,
`wigner_values`, in one of two contraction orders of the reduced factor M
(`qcore.reduced_factor`, 2^k x c): it forms the reduced density M M^dagger and
contracts each site's kernel into it, one site at a time, batched over states
or phase points; or, once that 4^k density outgrows one chunk and it is the
cheaper order, it applies each site's kernel to M's row axis and sums
conj(M) (K_1 x ... x K_k) M, batched over phase points. `equal_angle_values`
puts every site at one point, and `sphere_field` samples it on a sphere grid
from 2b + 1 phi nodes per theta row, b the highest phi harmonic the reduced
state carries (`_band`). There is no scalar form: one value is the [0, 0]
entry of a call with one state and one point. Angles are checked in one
place, `check_angles`, which `bloch_factors` runs on every angle it is given,
so a bad angle raises ValueError on every path from angles to values. The
kernel as the rotated parity R (1 + sqrt(3) sigma_z)/2 R^dagger, and the
former Pauli-expectation evaluator, are the independent oracles of the tests.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .qcore import (CHUNK_BYTES, IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, all_up_vector,
                    basis_vector, n_sites, reduced_factor)

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
    """The one Wigner evaluator: Tr[rho (K_1 x ... x K_k)] of every state factor in
    `states` reduced to `sites`, for every row of the per-site kernel stacks
    `site_kernels` ((p, 2, 2) or (2, 2) each, broadcast); shape (len(states), p).

    By default rho = M M^dagger of the reduced factor is laid out with each
    site's (row, column) index pair adjacent, so one matmul per site sums that
    pair against the site's transposed kernel. The densities, and the rest the
    first site leaves of them, are formed in chunks of about CHUNK_BYTES; a
    chunk's consecutive same-shape states are reduced as one stack of at most
    CHUNK_BYTES, by one transpose and one batched matmul. A state whose 4^k
    density does not fit in one chunk (k >= 9) is instead contracted on its
    factor, sum conj(M) (K_1 x ... x K_k) M, when `_factor_order` finds that
    order the cheaper one for its c columns and the p points (`_factor_values`).
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
    order = [axis for i in range(k) for axis in (i, k + i)]
    per_stack = max(1, CHUNK_BYTES // (16 * 4**k))
    values = np.empty((len(states), len(kts[0])))
    for s0 in range(0, len(states), per_stack):
        chunk = states[s0:s0 + per_stack]
        if _factor_order(k, chunk[0].size >> k, values.shape[1]):  # so per_stack is 1
            values[s0] = _factor_values(reduced_factor(chunk[0], sites), kts)
            continue
        rho = np.empty((len(chunk),) + (2,) * (2 * k), dtype=complex)
        for a, b in _same_shape_runs(chunk):
            m = reduced_factor(np.array(chunk[a:b], dtype=complex), sites)
            rho[a:b] = (m @ m.conj().swapaxes(1, 2)).reshape(rho[a:b].shape).transpose(
                [0, *(1 + axis for axis in order)])
        step = max(1, CHUNK_BYTES // (rho.nbytes // 4))
        for p0 in range(0, values.shape[1], step):
            out = rho.reshape(len(chunk), 1, -1)
            for kt in kts:
                out = (kt[p0:p0 + step] @ out.reshape(*out.shape[:2], 4, -1))[..., 0, :]
            values[s0:s0 + len(chunk), p0:p0 + step] = out[..., 0].real
    return values


def _factor_order(k, columns, points):
    """Whether a k-site label of a reduced factor with c = `columns` columns is
    contracted on the factor at p = `points` phase points: only when its
    16 x 4^k-byte density does not fit in one chunk, and when the factor
    order, k kernels applied to the 2^k x c factor at each point (p k 2^k c
    units of about 4.6 ns), costs no more than the density order: M M^dagger
    (4^k c units of about 0.12 ns, one BLAS-3 product), laying out rho (4^k
    of about 21 ns) and contracting it at each point (4^k p of about 1.4 ns).
    The weights are those costs relative to the first density term, fitted to
    both orders timed at k = 9, 10 (2 cores, OpenBLAS); 2^k cancels."""
    return (16 * 4**k > CHUNK_BYTES
            and 40 * points * k * columns <= 2**k * (columns + 180 + 12 * points))


def _factor_values(m, kts):
    """sum conj(M) (K_1 x ... x K_k) M of one reduced factor M (2^k, c) at every
    point of the transposed kernel rows `kts`, in chunks of points of about
    CHUNK_BYTES (at least one point, whose K M is the size of M).

    Each site's kernel contracts the leading row axis of the work array by one
    batched matmul and appends its output axis last, so after k sites the axes
    are (point, column, site 1, ..., site k): the layout of M^T, which one
    matrix-vector product sums against conj(M^T)."""
    step = max(1, CHUNK_BYTES // (16 * m.size))
    mh = m.T.conj().ravel()
    values = np.empty(len(kts[0]))
    for p0 in range(0, len(values), step):
        t = m[None]
        for kt in kts:
            t = np.swapaxes(t.reshape(len(t), 2, -1), 1, 2) @ kt[p0:p0 + step].reshape(-1, 2, 2)
        values[p0:p0 + step] = (t.reshape(len(t), -1) @ mh).real
    return values


def _same_shape_runs(states):
    """(a, b) runs of consecutive states of one 2-D shape, each of at most
    CHUNK_BYTES as complex (at least one state)."""
    a = 0
    while a < len(states):
        shape, b = states[a].shape, a + 1
        per_run = max(1, CHUNK_BYTES // (16 * states[a].size))
        while b < len(states) and b - a < per_run and states[b].shape == shape:
            b += 1
        yield a, b
        a = b


def equal_angle_values(states, sites, thetas, phis):
    """Values with all k sites at one point, shape (len(states), number of points)."""
    sites = tuple(sites)
    return wigner_values(states, sites, [kernels(thetas, phis)] * len(sites))


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
