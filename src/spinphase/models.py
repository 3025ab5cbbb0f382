"""Cyclic spin-1/2 chain Hamiltonians, symmetries and ground-state selection.

Implemented families (periodic boundary, sigma_{N+1} = sigma_1):
  ti   H = -sum_i [lambda sx_i sx_{i+1} + h sz_i]
  xy   H = -sum_i {lambda/2 [(1+gamma) sx_i sx_{i+1} + (1-gamma) sy_i sy_{i+1}] + h sz_i}
  xxz  H = (J/4) sum_i [sx_i sx_{i+1} + sy_i sy_{i+1} + delta sz_i sz_{i+1}]

The xy family reduces to ti at gamma = 1; the xxz spectrum depends only on
the relative sign of J and delta (staggered-flip similarity).

H is a real dense matrix on the basis index. Its symmetry (spin parity for
ti/xy, total S_z for xxz) is held as a diagonal, and each block of it is
solved by one real `eigh`, which gives the sector levels and the whole
spectrum at every n. Up to FULL_SOLVE_MAX_N sites the ground-space vectors
come from the complex solve of the full H, whose rounding the recorded 6-site
outputs pin; longer chains take them from the blocks too.

A sweep is one stacked solve: `ground_states` builds a chunk of grid points'
Hamiltonians as one (p, 2^n, 2^n) stack, with chunks of
max(1, CHUNK_BYTES // (32 x 4^n)) points, and solves every block over the
stack in one call. `ground_state`, `sector_energies` and `build_hamiltonian`
are its one-point case, so there is one solver path.
"""

import math
import numbers
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, PolicyError
from .qcore import CHUNK_BYTES, all_up_vector, herm_eig

FAMILIES = ("ti", "xy", "xxz")
POLICIES = ("symmetric", "mixture", "aligned_up")

# two energies within TIE_TOL_FACTOR x max(spectral range, 1) count as equal: the
# one rule for degenerate ground levels, sector ties and exact crossing hits
TIE_TOL_FACTOR = 1e-12
_ALIGNED_OVERLAP_ATOL = 1e-8
# Largest chain whose ground-space vectors come from the complex solve of the
# full H. Their rounding is pinned by every recorded n <= 6 output; longer
# chains take them from their real symmetry blocks, as every chain its spectrum.
FULL_SOLVE_MAX_N = 6
_LIBRARY_BUFFERS = 16 * 2**20


@dataclass(frozen=True)
class ModelSpec:
    """One chain at fixed parameters. `lam` drives ti/xy, `delta` drives xxz."""

    family: str
    n: int = 6
    lam: float = 0.0
    h: float = 1.0
    gamma: float = 1.0
    j: float = 1.0
    delta: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown model family {self.family!r}, expected one of {FAMILIES}")
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral):
            raise ConfigError(f"chain length n must be an integer, got {self.n!r}")
        if self.n < 2:
            raise ConfigError("chain length n must be at least 2")
        need, have = dense_working_set(self.n), physical_memory()
        if need > have:
            raise ConfigError(f"chain length n={self.n} needs about {need / 2**30:.1f} GiB for "
                              f"the dense ground-state solve, more than the "
                              f"{have / 2**30:.1f} GiB of physical memory")
        for name in ("lam", "h", "gamma", "j", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"parameter {name} must be finite")
        if self.family == "xy" and not -1.0 <= self.gamma <= 1.0:
            raise ConfigError("xy anisotropy gamma must lie in [-1, 1]")

    def with_param(self, value):
        """Copy with the family's sweep parameter (lam or delta) replaced."""
        if self.family == "xxz":
            return replace(self, delta=float(value))
        return replace(self, lam=float(value))

    @property
    def sweep_param(self):
        return "delta" if self.family == "xxz" else "lambda"


def dense_working_set(n):
    """Bytes held while an n-site ground state is solved from its symmetry
    blocks, in units of 4^n bytes summed as if nothing were freed (the
    allocator may keep freed blocks): the real H (8), every block's
    eigenvectors (4; no block has over half the rows), one block's `eigh` as its
    slice, LAPACK's copy, workspace and result (10), and the ground-space factor
    and the state built from it (16 when every level is a ground level); plus an
    allowance for the BLAS and LAPACK buffers, which also holds the complex full
    solve of at most FULL_SOLVE_MAX_N sites (88 x 4^6 bytes, 0.34 MiB).

    A sweep's chunk of p > 1 points (`ground_states`) never exceeds it: p > 1
    only while p x 32 x 4^n <= CHUNK_BYTES (n <= 7), so the whole chunk's
    stacked arrays, at most (38 + 88) x 4^n bytes a point, stay under
    4 x CHUNK_BYTES (4 MiB), inside the allowance; from n = 8 up a chunk is
    one point, solved as `ground_state` solves it, and the previous chunk's
    arrays are freed before the next is built."""
    return 38 * 4**n + _LIBRARY_BUFFERS


def physical_memory():
    """Physical memory of the machine in bytes."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _z_signs(n):
    """Row i - 1 holds the sigma_z eigenvalue of site i on every basis index:
    site i is bit n - i, set (-1) for a down spin."""
    rows = np.arange(2**n)
    return np.array([1.0 - 2.0 * ((rows >> (n - i)) & 1) for i in range(1, n + 1)])


def _sweep_value(spec):
    return spec.delta if spec.family == "xxz" else spec.lam


def _build(spec, values, z):
    """Stack (len(values), 2^n, 2^n) of the real Hamiltonians of `spec` with its
    sweep parameter (lam, or delta for xxz) at each of `values`; `z` is `_z_signs(n)`.

    Built on the basis index: site i (1-based, site 1 the leftmost tensor
    factor) is bit n - i, set for a down spin. Bond (i, j) maps row b to
    column b ^ (1 << (n-i) | 1 << (n-j)); sigma_x sigma_x is +1 there, and
    sigma_y sigma_y is -1 when the two bits are equal and +1 when they differ.
    Every entry gets the same float operations, in the same bond order, as
    the Kronecker-product construction, so each matrix equals that matrix's
    real part bit for bit (its imaginary part is zero).
    """
    n = spec.n
    rows = np.arange(2**n)
    values = np.asarray(values, dtype=float)[:, None]
    H = np.zeros((len(values), 2**n, 2**n))
    diag = np.zeros((len(values), 2**n))
    for i in range(1, n + 1):  # bond (i, j), j = i + 1 on the ring
        j = i % n + 1
        cols = rows ^ (1 << (n - i) | 1 << (n - j))
        zz = z[i - 1] * z[j - 1]
        if spec.family == "ti":
            H[:, rows, cols] -= values
        elif spec.family == "xy":
            H[:, rows, cols] -= values / 2 * (1 + spec.gamma)
            H[:, rows, cols] -= values / 2 * (1 - spec.gamma) * -zz
        else:
            H[:, rows, cols] += spec.j / 4 * (1.0 - zz)
            diag += spec.j / 4 * (0.0 + values * zz)
    if spec.family != "xxz":
        for zi in z:
            diag -= spec.h * zi
    H[:, rows, rows] = diag
    return H


def build_hamiltonian(spec):
    """Dense real Hamiltonian of the chain described by `spec`: the one-point
    stack of `_build`, which a sweep's chunks are built by."""
    return _build(spec, [_sweep_value(spec)], _z_signs(spec.n))[0]


def spin_parity_diagonal(n):
    """Diagonal of the spin parity: (-1)^(number of down spins)."""
    return np.prod(_z_signs(n), axis=0)


def total_sz_diagonal(n):
    """Diagonal of S_T^z = (1/2) sum_l sigma_z_l."""
    return np.sum(_z_signs(n), axis=0) / 2


def staggered_flip_diagonal(n):
    """Diagonal of the product of sigma_z over the even sites; requires even n."""
    if n % 2:
        raise ValueError("staggered flip operator needs an even number of sites")
    return np.prod(_z_signs(n)[1::2], axis=0)


def symmetry_diagonal(spec):
    """Diagonal of the symmetry operator used for ground-state selection."""
    if spec.family == "xxz":
        return total_sz_diagonal(spec.n)
    return spin_parity_diagonal(spec.n)


@dataclass
class GroundStateResult:
    """What `ground_state` returns; see there for `state` and `parity`."""

    energy: float
    degeneracy: int
    state: np.ndarray  # (2^n, c) factor A of the ground state rho = A A^dagger
    parity: int | None
    gap: float
    levels: tuple  # (sectors, energies, tol) of `sector_energies`


@dataclass(frozen=True)
class _Basis:
    """What a sweep computes once: the z signs, the values of
    `symmetry_diagonal` in increasing order (the sectors), each sector's basis
    indices and spin parity, and the position of the all-up state's sector."""

    z: np.ndarray
    sectors: tuple
    index: list
    parity: list
    up: int

    @classmethod
    def of(cls, spec):
        z = _z_signs(spec.n)
        parity = np.prod(z, axis=0)  # spin_parity_diagonal
        sym = np.sum(z, axis=0) / 2 if spec.family == "xxz" else parity  # symmetry_diagonal
        sectors = sorted(set(sym.tolist()))  # np.unique, without its numpy.ma import
        index = [np.flatnonzero(sym == s) for s in sectors]
        return cls(z, tuple(sectors), index, [int(parity[i[0]]) for i in index],
                   sectors.index(sym[0]))


def _solve(spec, values, basis):
    """The stacked H at `values` and the real `eigh` (w, v) of each symmetry
    block, one call per block over the stack."""
    H = _build(spec, values, basis.z)
    return H, [np.linalg.eigh(H[:, i[:, None], i]) for i in basis.index]


def _levels(basis, eigs):
    """Per point of a stacked solve, the (sectors, energies, tol) of `sector_energies`."""
    lows = np.stack([w[:, 0] for w, _ in eigs], axis=1)
    spread = np.max([w[:, -1] for w, _ in eigs], axis=0) - lows.min(axis=1)
    tols = TIE_TOL_FACTOR * np.maximum(spread, 1.0)
    return [(basis.sectors, low, float(tol)) for low, tol in zip(lows, tols)]


def sector_energies(spec):
    """Lowest energy of each block of `symmetry_diagonal(spec)` (spin parity for
    ti/xy, total S_z for xxz) and the tie tolerance TIE_TOL_FACTOR x
    max(spectral range, 1). Returns (sectors, energies, tol) with the sector
    values in increasing order."""
    basis = _Basis.of(spec)
    return _levels(basis, _solve(spec, [_sweep_value(spec)], basis)[1])[0]


def pick_sector(sectors, energies, tol):
    """Index of the ground sector among candidates (sector, energy): the lowest
    energy wins; among candidates within `tol` of it, the most positive sector;
    among equal sectors, the first."""
    low = min(energies)
    best = None
    for k, (sector, energy) in enumerate(zip(sectors, energies)):
        if energy - low <= tol and (best is None or sector > sectors[best]):
            best = k
    return best


def ground_state(spec, policy="symmetric"):
    """Ground state of the chain with a symmetry-respecting degeneracy policy:
    the one-point case of `ground_states`.

    H is built once and each of its real symmetry blocks is solved once; their
    lowest levels are `levels`, the triple of `sector_energies`, and the sorted
    union of their spectra is the spectrum w that gives `energy` and `gap`.
    A level within the tie tolerance `levels[2]` of the lowest is a ground level,
    the rule `pick_sector` applies to sector ties, so `degeneracy` > 1 exactly
    when `gap` <= `levels[2]`; the g of them span the ground space V. Its vectors are
    the first g columns of the complex solve of the full H up to
    FULL_SOLVE_MAX_N sites, and above that each block's ground columns,
    embedded in 2^n rows. A unique ground state is V. Inside a degenerate space:
      symmetric  -- the uniform mixture of the r ground states in the
                    `pick_sector(*levels)` sector: V with the rows outside the
                    sector zeroed, over its Frobenius norm (g columns of rank r),
      mixture    -- V / sqrt(g), the maximally mixed state on the space,
      aligned_up -- the all-up product state, which must lie in the space.
    `parity` is the spin parity shared by the sectors the state lies in (the
    picked one, the all-up one, or each with a ground level), else None.
    """
    return next(ground_states(spec, [_sweep_value(spec)], policy))


def ground_states(spec, values, policy="symmetric"):
    """Yield the `ground_state` of `spec` with its sweep parameter (lam, or delta
    for xxz) at each of `values`, in order, each result as it is reached.

    The grid is built and solved in chunks of max(1, CHUNK_BYTES // (32 x 4^n))
    points (8 at n = 6, 1 from n = 8 up): one stacked H, one `eigh` per symmetry
    block over the stack and, up to FULL_SOLVE_MAX_N sites, one `herm_eig` over
    it, with the same float operations as a one-point solve, so every result
    equals that point's own `ground_state` bit for bit. A chunk's arrays are
    released before the next chunk is built. A policy failure is raised at its
    own point, after the points before it are yielded, and names that point's
    parameter value, e.g. "(at lambda = 0.05)".
    """
    if policy not in POLICIES:
        raise ConfigError(f"unknown ground-state policy {policy!r}, expected one of {POLICIES}")
    basis = _Basis.of(spec)
    values = np.asarray(values, dtype=float)
    size = max(1, CHUNK_BYTES // (32 * 4**spec.n))
    for start in range(0, len(values), size):
        yield from _chunk_ground_states(spec, values[start:start + size], policy, basis)


def _chunk_ground_states(spec, values, policy, basis):
    """`ground_states` of one chunk; its arrays die with this generator."""
    H, eigs = _solve(spec, values, basis)
    spectra = np.sort(np.concatenate([w for w, _ in eigs], axis=1), axis=1)
    levels = _levels(basis, eigs)
    tols = np.array([level[2] for level in levels])[:, None]
    counts = np.stack([np.count_nonzero(w - spectra[:, :1] <= tols, axis=1) for w, _ in eigs],
                      axis=1)
    full = herm_eig(H)[1] if spec.n <= FULL_SOLVE_MAX_N else None  # vectors the 6-site outputs pin
    for p, (value, w, level, count) in enumerate(zip(values, spectra, levels, counts.tolist())):
        g = sum(count)
        if full is not None:
            V = full[p][:, :g]
        else:  # each sector's ground columns, embedded
            V, c = np.zeros((H.shape[1], g)), 0
            for rows, r, (_, vb) in zip(basis.index, count, eigs):
                V[rows, c:c + r] = vb[p][:, :r]
                c += r

        if g == 1 or policy == "mixture":
            state = V / np.sqrt(g)
            held = [b for b, r in enumerate(count) if r]
        elif policy == "aligned_up":
            overlap = float(np.linalg.norm(V[0]))  # basis index 0 is the all-up state
            if overlap < 1.0 - _ALIGNED_OVERLAP_ATOL:
                raise PolicyError(f"aligned_up policy: all-up state not in the ground space "
                                  f"(projection norm {overlap:.6f}) "
                                  f"(at {spec.sweep_param} = {value:.6g})")
            state = all_up_vector(spec.n)[:, None]
            held = [basis.up]
        else:
            k = pick_sector(*level)
            held = [k]
            state = np.zeros_like(V)
            state[basis.index[k]] = V[basis.index[k]]
            state /= np.linalg.norm(state)
        parity = {basis.parity[b] for b in held}
        yield GroundStateResult(float(w[0]), g, state, parity.pop() if len(parity) == 1 else None,
                                float(w[1] - w[0]), level)


# ---------------------------------------------------------------------------
# transverse-Ising analytic references (classical and thermodynamic limit)


def _check_coupling(lam):
    """The domain of every ti formula: lam finite and >= 0, else ValueError."""
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be finite and non-negative, got {lam!r}")


def ti_classical_energy(lam):
    """Classical ground-state energy per spin; breakpoint at lam = 1/2."""
    _check_coupling(lam)
    return -(1 + 4 * lam**2) / (4 * lam) if lam >= 0.5 else -1.0


def ti_classical_mx(lam):
    _check_coupling(lam)
    return 0.5 * math.sqrt(1 - 1 / (4 * lam**2)) if lam >= 0.5 else 0.0


def ti_classical_mz(lam):
    _check_coupling(lam)
    return 1 / (4 * lam) if lam >= 0.5 else 0.5


def _carlson_rd(x, y, z):
    """Carlson's R_D(x, y, z), x, y >= 0 (at most one zero) and z > 0, by duplication
    (DLMF 19.36(i); Carlson, Numer. Algorithms 10, 13 (1995))."""
    a = (x + y + 3 * z) / 5
    q = max(abs(a - x), abs(a - y), abs(a - z)) * (math.ulp(1.0) / 4) ** (-1 / 6)
    total, scale = 0.0, 1.0
    while scale * q >= a:  # until the fifth-order series about the mean a is exact
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sx * sz + sy * sz
        total += 3 * scale / (sz * (z + lam))
        scale /= 4
        x, y, z, a = (x + lam) / 4, (y + lam) / 4, (z + lam) / 4, (a + lam) / 4
    X, Y, Z = 1 - x / a, 1 - y / a, 1 - z / a
    e2, e3 = X * Y - 6 * Z**2, (3 * X * Y - 8 * Z**2) * Z
    e4, e5 = 3 * (X * Y - Z**2) * Z**2, X * Y * Z**3
    return total + scale * a**-1.5 * (1 - 3 * e2 / 14 + e3 / 6 + 9 * e2**2 / 88 - 3 * e4 / 22
                                      - 9 * e2 * e3 / 52 + 3 * e5 / 26)


def _ti_elliptic(lam):
    """(mu, k'^2, B, D): mu = min(lam, 1/lam), k'^2 = (1 - mu)(1 + mu), B = k'^2 R_D(0, 1, k'^2)/3
    and D = R_D(0, k'^2, 1)/3, so E(mu^2) = B + k'^2 D and K(mu^2) = B + D (DLMF 19.25.1)."""
    if lam == 1:  # E(1) = B = 1 and k'^2 D -> 0
        return 1.0, 0.0, 1.0, 0.0
    mu = lam if lam < 1 else 1 / lam
    kp2 = (1 - mu) * (1 + mu)
    return mu, kp2, kp2 * _carlson_rd(0.0, 1.0, kp2) / 3, _carlson_rd(0.0, kp2, 1.0) / 3


def ti_thermo_energy(lam):
    """Infinite-chain ground-state energy per spin, -(1/pi) int_0^pi sqrt(1 + 2 lam cos k +
    lam^2) dk (Pfeuty 1970), in closed form: -(2/pi) max(1, lam) [2E - k'^2 K] (`_ti_elliptic`)."""
    _check_coupling(lam)
    mu, kp2, b, d = _ti_elliptic(lam)
    return -2 / math.pi * max(1.0, lam) * ((1 + mu**2) * b + kp2 * d)


def ti_thermo_mx(lam):
    """Infinite-chain magnetization along the coupling axis (closed form)."""
    _check_coupling(lam)
    return 0.0 if lam < 1.0 else 0.5 * (1 - 1 / lam**2) ** 0.125


def ti_thermo_mz(lam):
    """Infinite-chain magnetization along the field axis, (1/2pi) int_0^pi (1 + lam cos k) /
    sqrt(1 + 2 lam cos k + lam^2) dk, in closed form: E/pi up to lam = 1, B/(pi lam) above it
    (`_ti_elliptic`), where [(1 + lam) E(m) + (1 - lam) K(m)]/2pi, m = 4 lam/(1 + lam)^2, cancels."""
    _check_coupling(lam)
    _, kp2, b, d = _ti_elliptic(lam)
    return (b + kp2 * d) / math.pi if lam <= 1 else b / (math.pi * lam)


# ---------------------------------------------------------------------------
# xy ground-state factorization


def xy_factorization_point(gamma):
    """Coupling at which the xy chain ground space factorizes: 1/sqrt(1-gamma^2).

    Returns math.inf at gamma = 1 (the Ising limit has no finite factorization
    point); callers must branch on isinf instead of doing arithmetic with it.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    if gamma == 1.0:
        return math.inf
    return 1.0 / math.sqrt(1.0 - gamma**2)


def xy_factorization_angle(gamma):
    """Tilt of the factorized product state from the z axis, arccos sqrt((1-g)/(1+g))."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    return math.acos(math.sqrt((1.0 - gamma) / (1.0 + gamma)))


__all__ = [
    "FAMILIES", "POLICIES", "ModelSpec", "GroundStateResult", "build_hamiltonian",
    "spin_parity_diagonal", "staggered_flip_diagonal", "total_sz_diagonal", "symmetry_diagonal",
    "sector_energies", "pick_sector", "ground_state", "ground_states",
    "ti_classical_energy", "ti_classical_mx", "ti_classical_mz", "ti_thermo_energy",
    "ti_thermo_mx", "ti_thermo_mz", "xy_factorization_point", "xy_factorization_angle",
    "TIE_TOL_FACTOR", "dense_working_set", "physical_memory",
]
