"""Cyclic spin-1/2 chain Hamiltonians, symmetries and ground-state selection.

Implemented families (periodic boundary, sigma_{N+1} = sigma_1):
  ti   H = -sum_i [lambda sx_i sx_{i+1} + h sz_i]
  xy   H = -sum_i {lambda/2 [(1+gamma) sx_i sx_{i+1} + (1-gamma) sy_i sy_{i+1}] + h sz_i}
  xxz  H = (J/4) sum_i [sx_i sx_{i+1} + sy_i sy_{i+1} + delta sz_i sz_{i+1}]

The xy family reduces to ti at gamma = 1; the xxz spectrum depends only on
the relative sign of J and delta (staggered-flip similarity).

`build_hamiltonian` gives H as a real dense matrix on the basis index. Its
symmetry (spin parity for ti/xy, total S_z for xxz) is held as a diagonal.
The solver splits each symmetry sector again by the momentum k = 2 pi m / n of
the ring's translations (Sandvik, arXiv:1101.3281, sec. 4): each basis index
has an orbit representative, and each (k, sector) block is built straight from
the representatives, real at k = 0 and pi and complex Hermitian otherwise, with
no 2^n x 2^n array. Only the blocks of 0 <= k <= pi are built: H is real, so
the -k block is the conjugate of the k block, with the same levels and
conjugate eigenvectors, and each such paired block stands for both. The
blocks' levels, by `eigvalsh`, a paired block's read twice, give the sector
levels (the lowest over a sector's blocks), the whole spectrum and the ground
counts at every n. Up to FULL_SOLVE_MAX_N sites the ground-space vectors come
from the complex `eigh` of the full H, whose rounding the recorded 6-site
outputs pin, with the rows outside the sectors that hold a ground level
zeroed, and no block's vectors are computed; longer chains `eigh` only the
blocks that hold a ground level and embed their ground columns in 2^n rows,
with the conjugate columns for -k. Either way every ground state is exactly 0
outside its sectors. Every solve is a bare `eigh`: a column's phase cancels
in rho = A A^dagger, so none is fixed.

A sweep is one stacked solve: `ground_states` solves a chunk of
max(1, CHUNK_BYTES // (32 x 4^n)) grid points at once, each group of blocks
of one width and dtype by one `eigvalsh` over the stack of its blocks at every
point of the chunk. `ground_state` and `sector_energies` are its one-point
case, so there is one solver path; `sector_levels` gives the levels at any
sweep value over one basis.
"""

import math
import numbers
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, PolicyError
from .qcore import CHUNK_BYTES, all_up_vector

FAMILIES = ("ti", "xy", "xxz")
POLICIES = ("symmetric", "mixture", "aligned_up")

# two energies within TIE_TOL_FACTOR x max(spectral range, 1) count as equal: the
# one rule for degenerate ground levels, sector ties and exact crossing hits
TIE_TOL_FACTOR = 1e-12
_ALIGNED_OVERLAP_ATOL = 1e-8
# Largest chain whose ground-space vectors come from the complex `eigh` of the
# full H. Their rounding is pinned by every recorded n <= 6 output; longer
# chains take them from their ground momentum blocks, as every chain its spectrum.
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
    """An upper bound on the bytes held while an n-site ground state is solved:
    38 x 4^n bytes, summed as if nothing were freed (the allocator may keep
    freed blocks), plus 16 MiB for the BLAS and LAPACK buffers. The largest
    arrays are the complex ground-space factor and the state built from it (at
    most 32 x 4^n, when every level is a ground level). The matrices of the
    built momentum blocks (0 <= k <= pi, a little over half of the 2^n levels)
    are about n times narrower, their levels take 8 x 2^n bytes, and
    eigenvectors are computed only for a block that holds a ground level, one
    block at a time. Up to FULL_SOLVE_MAX_N sites the complex `eigh` of the
    full H (88 x 4^6 bytes, 0.34 MiB) fits in the 16 MiB.

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


def _build(spec, values, z, out=None):
    """Stack (len(values), 2^n, 2^n) of the real Hamiltonians of `spec` with its
    sweep parameter (lam, or delta for xxz) at each of `values`; `z` is `_z_signs(n)`.
    It is a new real array, or `out`, zeroed first. A complex `out` (the n <= 6
    solve's one buffer per sweep) is the real stack cast to complex bit for bit:
    the same operations act on its real part (a view), and its imaginary part
    stays +0.

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
    if out is None:
        out = np.zeros((len(values), 2**n, 2**n))
    else:
        out[...] = 0
    H = out.real  # the array itself when real
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
    return out


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


def _orbits(n):
    """Per basis index, its translation orbit: the representative (the smallest
    index reached by rotating the sites), the number of one-site translations
    that take the index to it, and the orbit's period R.

    A translation moves the spin on site i to site i + 1 (site n to site 1),
    which shifts every bit one place down and bit 0 up to bit n - 1."""
    states = np.arange(2**n)
    rep, shift, period = states.copy(), np.zeros_like(states), np.full_like(states, n)
    moved = states
    for l in range(1, n):
        moved = (moved >> 1) | ((moved & 1) << (n - 1))
        smaller = moved < rep
        rep[smaller], shift[smaller] = moved[smaller], l
        period[(moved == states) & (period == n)] = l
    return rep, shift, period


def _phases(m, n, l):
    """exp(-2 pi i m l / n) for integer momenta m and shifts l: exactly +-1 where
    k = 2 pi m / n is 0 or pi."""
    t = m * l % n
    return np.where(2 * m % n == 0, np.where(t == 0, 1.0, -1.0), np.exp(-2j * np.pi * t / n))


def _bond_entries(spec, z, reps):
    """Every nonzero element of H on the representatives `reps`, as (column, image,
    h0, h1): representative reps[column] goes to basis index `image` with amplitude
    h0 + v h1 at sweep value v. The diagonal comes first, then bond (i, i + 1) for
    i = 1..n in turn. Site i is bit n - i, set for a down spin; bond (i, j) flips
    bits n - i and n - j, where sigma_x sigma_x is +1 and sigma_y sigma_y is -1 on
    equal bits and +1 on different ones."""
    n, cols = spec.n, np.arange(len(reps))
    zr = z[:, reps]
    zz = [zr[i] * zr[(i + 1) % n] for i in range(n)]
    if spec.family == "xxz":
        diag = (np.zeros(len(reps)), spec.j / 4 * np.sum(zz, axis=0))
    else:
        diag = (-spec.h * np.sum(zr, axis=0), np.zeros(len(reps)))
    entries = [(cols, reps, *diag)]
    for i in range(1, n + 1):
        image = reps ^ (1 << (n - i) | 1 << (n - i % n - 1))
        if spec.family == "ti":
            h0, h1 = np.zeros(len(reps)), np.full(len(reps), -1.0)
        elif spec.family == "xy":
            h0, h1 = np.zeros(len(reps)), -(1 + spec.gamma) / 2 + (1 - spec.gamma) / 2 * zz[i - 1]
        else:
            h0, h1 = spec.j / 4 * (1.0 - zz[i - 1]), np.zeros(len(reps))
        entries.append((cols, image, h0, h1))
    col, image, h0, h1 = (np.concatenate(e) for e in zip(*entries))
    keep = (h0 != 0) | (h1 != 0)
    return col[keep], image[keep], h0[keep], h1[keep]


@dataclass(frozen=True)
class _Block:
    """One (momentum, symmetry sector) block of H and the representatives it is
    spanned by, in increasing order. `pair` marks a block whose -k partner
    exists (k != 0, pi) and is not built: H is real, so the partner is this
    block's complex conjugate on the same representatives, with the same levels
    and conjugate eigenvectors."""

    sector: int  # position in _Basis.sectors
    m: int  # momentum k = 2 pi m / n, 0 <= m <= n/2
    reps: np.ndarray
    pair: bool


@dataclass(frozen=True)
class _Basis:
    """What a sweep computes once: the z signs, the values of
    `symmetry_diagonal` in increasing order (the sectors), each sector's basis
    indices and spin parity, the position of the all-up state's sector and of
    each basis index's sector, the translation orbits (`_orbits`), the
    momentum x sector blocks of 0 <= k <= pi (`_Block`), and their
    value-independent matrices, stacked in groups of one width and dtype: a
    group (h0, h1) holds the next blocks in order, each block's Hamiltonian at
    sweep value v being h0[i] + v h1[i].

    A stacked solve's levels, each group's (points, blocks, width) flattened and
    concatenated in block order, are indexed by `starts` (each block's first,
    lowest level), `by_sector` (the blocks ordered by sector, the first of
    sector s at `sector_starts[s]`) and `spectrum` (every level once, a paired
    block's twice: the 2^n levels of H); `copies` is 2 for a paired block, else 1."""

    z: np.ndarray
    sectors: tuple
    index: list
    parity: list
    up: int
    sector_of: np.ndarray
    orbits: tuple
    blocks: list
    groups: list
    starts: np.ndarray
    by_sector: np.ndarray
    sector_starts: np.ndarray
    spectrum: np.ndarray
    copies: np.ndarray

    @classmethod
    def of(cls, spec):
        z = _z_signs(spec.n)
        parity, sym = spin_parity_diagonal(spec.n), symmetry_diagonal(spec)
        sectors = sorted(set(sym.tolist()))  # np.unique, without its numpy.ma import
        index = [np.flatnonzero(sym == s) for s in sectors]
        orbits = _orbits(spec.n)
        blocks, groups = _momentum_blocks(spec, z, sym, sectors, orbits)
        widths = np.array([len(b.reps) for b in blocks])
        sector = np.array([b.sector for b in blocks])
        by_sector = np.argsort(sector, kind="stable")  # every sector has its k = 0 block
        copies = np.array([1 + b.pair for b in blocks])
        return cls(z, tuple(sectors), index, [int(parity[i[0]]) for i in index],
                   sectors.index(sym[0]), np.searchsorted(sectors, sym), orbits, blocks, groups,
                   np.cumsum(widths) - widths, by_sector,
                   np.searchsorted(sector[by_sector], np.arange(len(sectors))),
                   np.repeat(np.arange(widths.sum()), np.repeat(copies, widths)), copies)


def _momentum_blocks(spec, z, sym, sectors, orbits):
    """The momentum x sector blocks of `spec` (`_Block`) with 0 <= m <= n/2, ordered
    by group, and the groups: the (h0, h1) stacks of the blocks of one width and
    dtype, whose Hamiltonian at sweep value v is h0 + v h1. The blocks of
    m > n/2 are not built: each is the conjugate of the block of n - m.

    A basis index's representative a spans the momentum state
    |a(k)> = sum_l exp(-ikl) T^l |a> / norm, when its period R carries k (m R = 0
    mod n). A bond takes a to basis index b, whose representative is r = T^l b;
    the element <r(k)|H|a(k)> gains h sqrt(R_a / R_r) exp(-ikl) (Sandvik,
    arXiv:1101.3281, sec. 4)."""
    n, half = spec.n, spec.n // 2 + 1  # momenta m = 0..n/2
    rep, shift, period = orbits
    reps = np.flatnonzero(rep == np.arange(2**n))
    # block key s half + m (sector s, momentum m) holds the representatives of
    # sector s whose period carries k, in increasing order
    sector = np.searchsorted(sectors, sym[reps])
    ms, rs = np.nonzero(np.arange(half)[:, None] * period[reps] % n == 0)
    key = sector[rs] * half + ms
    order = np.argsort(key, kind="stable")
    size = np.bincount(key, minlength=len(sectors) * half)
    at = np.full((half, len(reps)), -1)  # position in its block, -1 if k is not carried
    at[ms[order], rs[order]] = np.arange(len(key)) - (np.cumsum(size) - size)[key[order]]
    col, image, h0, h1 = _bond_entries(spec, z, reps)
    row, l = np.searchsorted(reps, rep[image]), shift[image]
    em, e = np.nonzero((at[:, col] >= 0) & (at[:, row] >= 0))  # entry e in momentum em
    ekey = sector[col[e]] * half + em
    offset = np.cumsum(size**2) - size**2
    flat = offset[ekey] + at[em, row[e]] * size[ekey] + at[em, col[e]]
    weight = np.sqrt(period[reps][col[e]] / period[reps][row[e]]) * _phases(em, n, l[e])
    h0, h1 = (_accumulate(flat, h[e] * weight, int(np.sum(size**2))) for h in (h0, h1))
    members = np.split(reps[rs[order]], np.cumsum(size)[:-1])
    found = {}  # (width, real) -> the blocks of that width and dtype
    for b in np.flatnonzero(size):  # block key b
        d, m = int(size[b]), int(b % half)
        mats = [h[offset[b]:offset[b] + d * d].reshape(d, d) for h in (h0, h1)]
        real = 2 * m % n == 0  # k = 0 or pi, where every phase is +-1
        block = _Block(int(b // half), m, members[b], pair=not real)
        found.setdefault((d, real), []).append((block, [x.real if real else x for x in mats]))
    blocks, groups = [], []
    for group in found.values():
        blocks += [block for block, _ in group]
        groups.append(tuple(np.stack([mats[k] for _, mats in group]) for k in (0, 1)))
    return blocks, groups


def _accumulate(flat, values, size):
    """The flat array of `size` with `values` summed at the positions `flat`, in order."""
    return np.bincount(flat, values.real, size) + 1j * np.bincount(flat, values.imag, size)


def _solve(basis, values):
    """Per group of blocks, the levels (`eigvalsh`) of the stack of its blocks'
    Hamiltonians at `values`, shaped (points, blocks, width): one call per group."""
    v = np.asarray(values, dtype=float)[:, None, None, None]
    return [np.linalg.eigvalsh(h0 + v * h1) for h0, h1 in basis.groups]


def _levels(basis, eigs):
    """The levels of a stacked solve (`_solve`) as arrays over its p points: every
    block's levels, concatenated in block order (`_Basis`), shape (p, levels); the
    sector energies of `sector_energies`, each the lowest level of its sector's
    momentum blocks, (p, sectors); and the tie tolerances, (p,)."""
    levels = np.concatenate([w.reshape(len(w), -1) for w in eigs], axis=1)
    block_lows = levels[:, basis.starts]
    lows = np.minimum.reduceat(block_lows[:, basis.by_sector], basis.sector_starts, axis=1)
    highs = levels[:, np.append(basis.starts[1:], levels.shape[1]) - 1]  # each block's top
    tols = TIE_TOL_FACTOR * np.maximum(highs.max(axis=1) - lows.min(axis=1), 1.0)
    return levels, lows, tols


def _embed(basis, block, c):
    """The columns of `block`'s eigenvectors c (d, r) as 2^n-row states: basis index s
    in the orbit of representative a gets c_a exp(ik shift(s)) / sqrt(R_a)."""
    rep, shift, period = basis.orbits
    rows = basis.index[block.sector]
    at = np.searchsorted(block.reps, rep[rows])
    inside = block.reps[np.minimum(at, len(block.reps) - 1)] == rep[rows]
    rows, at = rows[inside], at[inside]
    amp = _phases(block.m, len(basis.z), -shift[rows]) / np.sqrt(period[rows])
    return rows, amp[:, None] * c[at]


def sector_levels(spec):
    """The function v -> `sector_energies` of `spec` with its sweep parameter (lam,
    or delta for xxz) at v, over one `_Basis` built here, as a sweep's is."""
    basis = _Basis.of(spec)

    def at(value):
        _, lows, tols = _levels(basis, _solve(basis, [value]))
        return basis.sectors, lows[0], float(tols[0])
    return at


def sector_energies(spec):
    """Lowest energy of each sector of `symmetry_diagonal(spec)` (spin parity for
    ti/xy, total S_z for xxz), the lowest over the sector's momentum blocks, and
    the tie tolerance TIE_TOL_FACTOR x max(spectral range, 1). Returns (sectors,
    energies, tol) with the sector values in increasing order."""
    return sector_levels(spec)(_sweep_value(spec))


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

    The levels of each built momentum x sector block (0 <= k <= pi) come from
    one `eigvalsh`; the lowest level of each sector's blocks is `levels`, the
    triple of `sector_energies`, and the sorted union of the block spectra,
    each paired block's (k != 0, pi) twice, once for k and once for -k, is the
    spectrum w of 2^n levels that gives `energy` and `gap`. A level within the
    tie tolerance `levels[2]` of the lowest is a ground level, the rule
    `pick_sector` applies to sector ties, so `degeneracy` > 1 exactly when
    `gap` <= `levels[2]`; the g of them span the ground space V. Its vectors
    are the first g columns of the complex `eigh` of the full H up to
    FULL_SOLVE_MAX_N sites, zeroed outside the sectors that hold a ground
    level (the solve leaves rounding there), and above that the first r
    columns of the `eigh` of each block with r ground levels, embedded in 2^n
    rows (a momentum state's amplitude on basis index s is its
    representative's, times exp(ik shift(s)) / sqrt(R)), followed for a paired block by their
    conjugates, the -k block's columns; no full H is built there. So V, and
    every state below, is exactly 0 outside the sectors that hold a ground
    level at every n. A unique ground state is V. Inside a degenerate space:
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

    The grid is solved in chunks of max(1, CHUNK_BYTES // (32 x 4^n)) points
    (8 at n = 6, 1 from n = 8 up): one `eigvalsh` per group of equal-width
    blocks over the stack of their matrices at every point of the chunk and, up
    to FULL_SOLVE_MAX_N sites, one complex `eigh` over the chunk's stacked full
    H, whose vectors one broadcast multiply zeroes outside each point's ground
    sectors; above that, one `eigh` per point and ground block. Each is the
    same float operations as a one-point solve, so every result equals that
    point's own `ground_state` bit for bit. The basis and the blocks' matrices
    (`_Basis`) are built once per sweep, and so is the complex buffer that each
    chunk's full H is built into (n <= FULL_SOLVE_MAX_N), so a chunk allocates
    only its solve's outputs; the rest of a chunk's arrays are released before
    the next chunk is built. A policy failure is raised at its own point, after
    the points before it are yielded, and names that point's parameter value,
    e.g. "(at lambda = 0.05)".
    """
    if policy not in POLICIES:
        raise ConfigError(f"unknown ground-state policy {policy!r}, expected one of {POLICIES}")
    basis = _Basis.of(spec)
    values = np.asarray(values, dtype=float)
    size = max(1, CHUNK_BYTES // (32 * 4**spec.n))
    stack = np.empty((min(size, len(values)),) + (2**spec.n,) * 2, complex) \
        if spec.n <= FULL_SOLVE_MAX_N else None
    for start in range(0, len(values), size):
        yield from _chunk_ground_states(spec, values[start:start + size], policy, basis, stack)


def _chunk_ground_states(spec, values, policy, basis, stack):
    """`ground_states` of one chunk; its arrays die with this generator, apart
    from `stack`, the sweep's complex buffer for the full H (None above
    FULL_SOLVE_MAX_N sites).

    The bookkeeping of the chunk is a few array operations over its p points at
    once, on the concatenated block levels of `_levels`: the lowest level e0 and
    the next e1 of the 2^n levels (`_Basis.spectrum`), each level's test
    E - e0 <= tol, the ground levels per block (`np.add.reduceat`), g (a paired
    block's count twice), the sectors that hold a ground level and the parity
    those sectors share. Only the vectors and the policy are taken point by
    point."""
    eigs = _solve(basis, values)
    levels, lows, tols = _levels(basis, eigs)
    e0, e1 = np.partition(levels[:, basis.spectrum], 1, axis=1)[:, :2].T
    counts = np.add.reduceat(levels - e0[:, None] <= tols[:, None], basis.starts, axis=1,
                             dtype=int)  # ground levels per built block, (p, blocks)
    gs = counts @ basis.copies
    holds = np.logical_or.reduceat(counts[:, basis.by_sector] > 0, basis.sector_starts, axis=1)
    net = holds @ np.array(basis.parity)  # the parity the ground sectors share, else 0
    shared = np.where(abs(net) == holds.sum(axis=1), np.sign(net), 0).tolist()
    full = None
    if spec.n <= FULL_SOLVE_MAX_N:  # vectors the 6-site outputs pin
        full = np.linalg.eigh(_build(spec, values, basis.z, stack[:len(values)]))[1]
        full *= holds[:, basis.sector_of, None]  # zero the rounding outside the ground sectors
    else:
        matrices = [(h0[i], h1[i]) for h0, h1 in basis.groups for i in range(len(h0))]
    for p, (value, g) in enumerate(zip(values, gs.tolist())):
        level = (basis.sectors, lows[p], float(tols[p]))
        if full is not None:
            V = full[p][:, :g]
        else:  # each ground block's first r columns, embedded, and a pair's conjugates
            V, c = np.zeros((2**spec.n, g), dtype=complex), 0
            for block, r, (h0, h1) in zip(basis.blocks, counts[p].tolist(), matrices):
                if r:
                    rows, columns = _embed(basis, block, np.linalg.eigh(h0 + value * h1)[1][:, :r])
                    V[rows, c:c + r] = columns
                    c += r
                    if block.pair:  # the -k block's embedded columns are the conjugates
                        V[rows, c:c + r] = columns.conj()
                        c += r
        point_parity = shared[p]

        if g == 1 or policy == "mixture":
            state = V / np.sqrt(g)
        elif policy == "aligned_up":
            overlap = float(np.linalg.norm(V[0]))  # basis index 0 is the all-up state
            if overlap < 1.0 - _ALIGNED_OVERLAP_ATOL:
                raise PolicyError(f"aligned_up policy: all-up state not in the ground space "
                                  f"(projection norm {overlap:.6f}) "
                                  f"(at {spec.sweep_param} = {value:.6g})")
            state = all_up_vector(spec.n)[:, None]
            point_parity = basis.parity[basis.up]
        else:
            k = pick_sector(*level)
            state = np.zeros_like(V)
            state[basis.index[k]] = V[basis.index[k]]
            state /= np.linalg.norm(state)
            point_parity = basis.parity[k]
        yield GroundStateResult(float(e0[p]), g, state, point_parity or None,  # 0: none shared
                                float(e1[p] - e0[p]), level)


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
    if lam <= 1:
        return (b + kp2 * d) / math.pi
    # pi lam overflows above lam ~ 5.7e307, where b / pi / lam is still about 1/(4 lam)
    return b / (math.pi * lam) if math.isfinite(math.pi * lam) else b / math.pi / lam


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
    "sector_levels", "sector_energies", "pick_sector", "ground_state", "ground_states",
    "ti_classical_energy", "ti_classical_mx", "ti_classical_mz", "ti_thermo_energy",
    "ti_thermo_mx", "ti_thermo_mz", "xy_factorization_point", "xy_factorization_angle",
    "TIE_TOL_FACTOR", "dense_working_set", "physical_memory",
]
