import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracles import (density, embed, kron_all, momentum_block, sector_block_ground_state,
                           state_parity, symmetric_by_rotation)

from spinphase import models
from spinphase.analysis import grid_values
from spinphase.errors import ConfigError, PolicyError
from spinphase.models import (ModelSpec, build_hamiltonian, dense_working_set, ground_state,
                              pick_sector, sector_energies, spin_parity_diagonal,
                              staggered_flip_diagonal, symmetry_diagonal, ti_classical_energy,
                              ti_classical_mx, ti_classical_mz,
                              ti_thermo_energy, ti_thermo_mx, ti_thermo_mz, total_sz_diagonal,
                              xy_factorization_angle, xy_factorization_point)
from spinphase.qcore import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, all_up_vector, basis_vector
from spinphase.wigner import SphereGrid, equal_angle_values, sphere_field

SQ3 = math.sqrt(3.0)


def max_norm(a):
    return float(np.max(np.abs(a)))


def block_hamiltonians(basis, value):
    """The Hamiltonian of each built momentum x sector block (0 <= m <= n/2) at
    sweep value `value`, in the order of `basis.blocks`, which runs through the
    groups in turn."""
    return [h0[i] + value * h1[i] for h0, h1 in basis.groups for i in range(len(h0))]


def block_spectra(basis, value):
    """The levels of each built momentum x sector block, each by its own `eigvalsh`."""
    return [np.linalg.eigvalsh(h) for h in block_hamiltonians(basis, value)]


def every_block_spectrum(spec, basis):
    """(sector position, m, levels) of every momentum x sector block of `spec`, at
    every 0 <= m < n: the built blocks' levels by `eigvalsh`, and each paired
    block's -k partner (m' = n - m, not built) by `eigvalsh` of the projection
    oracle `momentum_block`, which does not conjugate the k block."""
    value, out = models._sweep_value(spec), []
    for b, w in zip(basis.blocks, block_spectra(basis, value)):
        out.append((b.sector, b.m, w))
        if b.pair:
            reps, h = momentum_block(spec, basis.sectors[b.sector], spec.n - b.m)
            assert np.array_equal(reps, b.reps)
            out.append((b.sector, spec.n - b.m, np.linalg.eigvalsh(h)))
    return out


def group_shapes(basis):
    """(dtype, (blocks, width, width)) of each stacked `eigvalsh` that solves `basis`."""
    return [(h0.dtype, h0.shape) for h0, _ in basis.groups]


def ground_blocks(basis, value):
    """The Hamiltonians of the built blocks that hold a ground level at `value`, by
    the tie rule on the levels of `block_spectra`, each paired block's read twice:
    the matrices whose `eigh` gives the ground vectors above FULL_SOLVE_MAX_N sites."""
    spectra = block_spectra(basis, value)
    w = np.concatenate([wb for b, wb in zip(basis.blocks, spectra) for _ in range(1 + b.pair)])
    tol = models.TIE_TOL_FACTOR * max(float(np.ptp(w)), 1.0)
    return [h for h, wb in zip(block_hamiltonians(basis, value), spectra) if wb[0] - w.min() <= tol]


def recorded(monkeypatch, name):
    """Route `np.linalg.<name>` through a wrapper that appends each input to the list returned."""
    calls, solve = [], getattr(np.linalg, name)
    monkeypatch.setattr(np.linalg, name, lambda a: calls.append(a) or solve(a))
    return calls


def kron_hamiltonian(spec):
    """Oracle: the chain Hamiltonian summed from Kronecker-embedded complex
    Pauli matrices, one matrix product per bond."""
    n = spec.n
    dim = 2**n
    H = np.zeros((dim, dim), dtype=complex)
    sx = [embed(SIGMA_X, i, n) for i in range(1, n + 1)]
    sy = [embed(SIGMA_Y, i, n) for i in range(1, n + 1)]
    sz = [embed(SIGMA_Z, i, n) for i in range(1, n + 1)]
    bonds = [(i, i % n + 1) for i in range(1, n + 1)]
    if spec.family == "ti":
        for i, j in bonds:
            H -= spec.lam * sx[i - 1] @ sx[j - 1]
        for i in range(n):
            H -= spec.h * sz[i]
    elif spec.family == "xy":
        for i, j in bonds:
            H -= spec.lam / 2 * (1 + spec.gamma) * sx[i - 1] @ sx[j - 1]
            H -= spec.lam / 2 * (1 - spec.gamma) * sy[i - 1] @ sy[j - 1]
        for i in range(n):
            H -= spec.h * sz[i]
    else:
        for i, j in bonds:
            H += spec.j / 4 * (sx[i - 1] @ sx[j - 1] + sy[i - 1] @ sy[j - 1]
                               + spec.delta * sz[i - 1] @ sz[j - 1])
    return H


def assert_matches_kron_bitwise(spec):
    h = build_hamiltonian(spec)
    oracle = kron_hamiltonian(spec)
    assert h.dtype == np.float64
    assert np.array_equal(h, oracle.real)
    assert not oracle.imag.any()
    # the complex matrix of the n <= 6 full solve is the oracle, signed zeros included
    assert np.asarray(h, dtype=complex).tobytes() == oracle.tobytes()


unit = st.floats(-1.0, 1.0)
coupling = st.floats(-2.0, 2.0) | st.sampled_from([1.0, -1.0])


@st.composite
def chain_specs(draw):
    family = draw(st.sampled_from(models.FAMILIES))
    n = draw(st.integers(2, 8))
    if family == "xxz":
        return ModelSpec(family="xxz", n=n, j=draw(coupling), delta=draw(st.floats(-10.0, 10.0)))
    return ModelSpec(family=family, n=n, lam=draw(unit), h=draw(coupling), gamma=draw(unit))


class TestBitBuild:
    """The bit-operation build against the Kronecker-product oracle."""

    @settings(max_examples=150, deadline=None)
    @given(chain_specs())
    def test_matches_kron_oracle(self, spec):
        assert_matches_kron_bitwise(spec)

    def test_matches_kron_oracle_on_xxz_benchmark_grid(self):
        for k in range(241):
            assert_matches_kron_bitwise(ModelSpec(family="xxz", n=6, delta=-2 + 0.05 * k))

    def test_real_and_kron_free(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("build_hamiltonian must not build Kronecker products")

        monkeypatch.setattr(np, "kron", forbidden)
        for family in models.FAMILIES:
            h = build_hamiltonian(ModelSpec(family=family, n=5, lam=0.7, gamma=0.3, delta=0.4))
            assert h.dtype == np.float64
            assert h.shape == (32, 32)


class TestHamiltonians:
    def test_ti_field_only_n2(self):
        h = build_hamiltonian(ModelSpec(family="ti", n=2, lam=0.0))
        sz = np.diag([1.0, -1.0]).astype(complex)
        expected = -np.kron(sz, np.eye(2)) - np.kron(np.eye(2), sz)
        assert max_norm(h - expected) < 1e-14

    def test_ti_n2_lowest_eigenvalue(self):
        h = build_hamiltonian(ModelSpec(family="ti", n=2, lam=0.0))
        assert np.linalg.eigvalsh(h)[0] == pytest.approx(-2.0, abs=1e-12)

    @pytest.mark.parametrize("n,lam", [(2, 0.3), (4, 1.7), (6, 0.9)])
    def test_xy_gamma1_equals_ti(self, n, lam):
        h_xy = build_hamiltonian(ModelSpec(family="xy", n=n, lam=lam, gamma=1.0))
        h_ti = build_hamiltonian(ModelSpec(family="ti", n=n, lam=lam))
        assert max_norm(h_xy - h_ti) == 0.0

    def test_xxz_staggered_similarity(self):
        rng = np.random.default_rng(2)
        for _ in range(3):
            delta = rng.uniform(-2, 2)
            jj = rng.uniform(0.5, 1.5)
            h = build_hamiltonian(ModelSpec(family="xxz", n=6, delta=delta, j=jj))
            h_flip = build_hamiltonian(ModelSpec(family="xxz", n=6, delta=-delta, j=-jj))
            uz = np.diag(staggered_flip_diagonal(6))
            assert max_norm(uz.conj().T @ h @ uz - h_flip) < 1e-12

    def test_hermitian(self):
        for spec in (ModelSpec(family="ti", n=4, lam=0.7),
                     ModelSpec(family="xy", n=4, lam=1.2, gamma=0.4),
                     ModelSpec(family="xxz", n=4, delta=-0.5)):
            h = build_hamiltonian(spec)
            assert max_norm(h - h.conj().T) < 1e-12

    def test_invalid_specs(self):
        with pytest.raises(ConfigError):
            ModelSpec(family="tfim", n=6)
        with pytest.raises(ConfigError):
            ModelSpec(family="ti", n=1)
        with pytest.raises(ConfigError):
            ModelSpec(family="xy", n=4, gamma=1.5)
        with pytest.raises(ConfigError):
            ModelSpec(family="ti", n=4, lam=math.nan)

    @pytest.mark.parametrize("n", [6.0, 6.5, "6", True], ids=repr)
    def test_non_integer_n_is_config_error(self, n):
        with pytest.raises(ConfigError, match="integer"):
            ModelSpec(family="ti", n=n)


class TestSymmetryOperators:
    """The symmetry diagonals against dense Kronecker-product operators."""

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 7])
    def test_bit_diagonals_equal_kron_construction(self, n):
        sz = [embed(SIGMA_Z, i, n) for i in range(1, n + 1)]
        assert np.array_equal(np.diag(spin_parity_diagonal(n)), kron_all([SIGMA_Z] * n))
        assert np.array_equal(np.diag(total_sz_diagonal(n)), sum(sz) / 2)
        if n % 2 == 0:
            flip = kron_all([SIGMA_Z if i % 2 == 0 else IDENTITY_2 for i in range(1, n + 1)])
            assert np.array_equal(np.diag(staggered_flip_diagonal(n)), flip)

    @pytest.mark.parametrize("family", ["ti", "xy", "xxz"])
    def test_basis_sectors_are_the_distinct_symmetry_values(self, family):
        # a sweep's sectors come from a sorted set, as np.unique would give them
        for n in range(2, 11):
            spec = ModelSpec(family=family, n=n)
            sym, basis = symmetry_diagonal(spec), models._Basis.of(spec)
            assert basis.sectors == tuple(np.unique(sym).tolist()), n
            assert basis.up == int(np.searchsorted(np.unique(sym), sym[0])), n

    def test_parity_n1_is_sigma_z(self):
        assert np.array_equal(np.diag(spin_parity_diagonal(1)), SIGMA_Z)

    def test_parity_counts_down_spins(self):
        vec = basis_vector([0, 1, 0, 1, 0, 1])  # three down spins
        assert np.allclose(spin_parity_diagonal(6) * vec, -vec)

    def test_parity_commutes_with_xy(self):
        h = build_hamiltonian(ModelSpec(family="xy", n=6, lam=1.3, gamma=0.5))
        pz = kron_all([SIGMA_Z] * 6)
        assert max_norm(h @ pz - pz @ h) < 1e-12

    def test_staggered_flip_n2_and_involution(self):
        assert np.array_equal(np.diag(staggered_flip_diagonal(2)),
                              kron_all([IDENTITY_2, SIGMA_Z]))
        assert np.array_equal(staggered_flip_diagonal(6) ** 2, np.ones(64))
        with pytest.raises(ValueError):
            staggered_flip_diagonal(3)

    def test_total_sz_spectrum_and_action(self):
        assert np.array_equal(np.sort(total_sz_diagonal(2)), [-1.0, 0.0, 0.0, 1.0])
        up6 = all_up_vector(6)
        assert np.allclose(total_sz_diagonal(6) * up6, 3.0 * up6)

    def test_total_sz_commutes_with_xxz(self):
        h = build_hamiltonian(ModelSpec(family="xxz", n=6, delta=0.7))
        stz = sum(embed(SIGMA_Z, i, 6) for i in range(1, 7)) / 2
        assert max_norm(h @ stz - stz @ h) < 1e-12

    def test_rotation_invariance_of_xxz(self):
        rng = np.random.default_rng(9)
        h = build_hamiltonian(ModelSpec(family="xxz", n=6, delta=1.4))
        for _ in range(10):
            phi = rng.uniform(0, 2 * np.pi)
            # exp(i phi S_z) as the kron of the single-site rotations
            rz = kron_all([np.diag([np.exp(0.5j * phi), np.exp(-0.5j * phi)])] * 6)
            assert max_norm(rz.conj().T @ h @ rz - h) < 1e-11
            assert max_norm(np.diag(np.exp(1j * phi * total_sz_diagonal(6))) - rz) < 1e-14


class TestGroundState:
    def test_ti_lambda0_all_up(self):
        gs = ground_state(ModelSpec(family="ti", n=6, lam=0.0))
        assert gs.energy == pytest.approx(-6.0, abs=1e-12)
        assert gs.degeneracy == 1
        assert gs.parity == 1
        assert max_norm(density(gs.state) - density(all_up_vector(6))) < 1e-9

    def test_ti_deep_ising_symmetric_is_ghz_x(self):
        gs = ground_state(ModelSpec(family="ti", n=6, lam=1e3))
        right = np.array([1.0, 1.0]) / np.sqrt(2)
        left = np.array([1.0, -1.0]) / np.sqrt(2)
        ghz = np.zeros(64, dtype=complex)
        r6 = right
        l6 = left
        for _ in range(5):
            r6 = np.kron(r6, right)
            l6 = np.kron(l6, left)
        ghz = (r6 + l6) / np.sqrt(2)
        fidelity = float(np.real(np.vdot(ghz, density(gs.state) @ ghz)))
        assert fidelity > 0.999
        assert gs.parity == 1

    def test_xxz_ferro_aligned_up(self):
        gs = ground_state(ModelSpec(family="xxz", n=6, delta=-2.0), policy="aligned_up")
        assert gs.degeneracy == 2
        assert gs.energy == pytest.approx(-3.0, abs=1e-12)
        assert max_norm(density(gs.state) - density(all_up_vector(6))) == 0.0

    def test_xxz_ferro_mixture(self):
        gs = ground_state(ModelSpec(family="xxz", n=6, delta=-2.0), policy="mixture")
        expected = 0.5 * (density(all_up_vector(6))
                          + density(basis_vector([1] * 6)))
        assert max_norm(density(gs.state) - expected) < 1e-9
        assert gs.parity == 1  # even chain: both aligned states have +1 parity

    def test_aligned_up_rejected_when_not_ground(self):
        # doubly degenerate Ising ground space has no all-up component
        with pytest.raises(PolicyError):
            ground_state(ModelSpec(family="ti", n=6, lam=1e3), policy="aligned_up")

    def test_unique_state_is_pure(self):
        gs = ground_state(ModelSpec(family="xxz", n=6, delta=1.0))
        assert gs.degeneracy == 1
        rho = density(gs.state)
        purity = float(np.real(np.trace(rho @ rho)))
        assert purity == pytest.approx(1.0, abs=1e-9)
        assert gs.gap > 0

    def test_invalid_policy(self):
        with pytest.raises(ConfigError):
            ground_state(ModelSpec(family="ti", n=4, lam=0.5), policy="lowest")

    def test_ti_energy_nonincreasing_in_lambda(self):
        energies = [ground_state(ModelSpec(family="ti", n=6, lam=l)).energy
                    for l in np.linspace(0.0, 2.0, 21)]
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))


class TestSectorExactStates:
    """Each ground state is exactly 0 on every row outside the sectors that hold a
    ground level, from the masked full solve up to FULL_SOLVE_MAX_N sites and
    from the embedded block columns above it."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_rows_outside_the_ground_sectors_are_zero(self, n):
        lam_f = xy_factorization_point(0.5)
        specs = ([ModelSpec("ti", n=n, lam=lam) for lam in (0.5, 1.0, 2.0, 1e3)]
                 + [ModelSpec("xy", n=n, gamma=0.5, lam=lam) for lam in (0.5, lam_f, 1.5)]
                 + [ModelSpec("xxz", n=n, delta=delta) for delta in (-2.0, 0.5, 1.0)])
        checked = 0
        for spec in specs:
            sym = symmetry_diagonal(spec)
            for policy in models.POLICIES:
                try:
                    gs = ground_state(spec, policy)
                except PolicyError:  # aligned_up where the all-up state is not ground
                    continue
                sectors, energies, tol = gs.levels
                held = [s for s, e in zip(sectors, energies) if e - min(energies) <= tol]
                outside = ~np.isin(sym, held)
                assert not np.any(gs.state[outside]), (spec, policy)
                checked += bool(outside.any())
        assert checked >= 20


def translation_classes(n):
    """Every nonempty proper site subset of the n-ring, grouped by translation."""
    classes = {}
    for size in range(1, n):
        for sites in itertools.combinations(range(1, n + 1), size):
            translates = {tuple(sorted((s + k - 1) % n + 1 for s in sites)) for k in range(n)}
            classes[min(translates)] = sorted(translates)
    return list(classes.values())


def degenerate_specs():
    """Chains with a degenerate ground space at some n in 2..8: ti and xy without
    a field, the xx ring in a field, and xxz at and beyond the ferromagnetic point."""
    for n in range(2, 9):
        for lam in (-1.0, 0.5, 2.0):
            yield ModelSpec(family="ti", n=n, lam=lam, h=0.0)
            for gamma in (-0.5, 0.0, 0.5):
                yield ModelSpec(family="xy", n=n, lam=lam, h=0.0, gamma=gamma)
        yield ModelSpec(family="xy", n=n, lam=-1.0, h=1.0, gamma=0.0)
        if n % 2 == 0:
            for delta, j in ((-2.0, 1.0), (-1.0, 1.0), (1.0, -1.0)):
                yield ModelSpec(family="xxz", n=n, delta=delta, j=j)


class TestSymmetricPolicy:
    @pytest.mark.parametrize("n", [3, 5, 7])
    @pytest.mark.parametrize("spec", [
        ModelSpec(family="xxz", delta=-0.7), ModelSpec(family="xxz", delta=0.0),
        ModelSpec(family="xxz", delta=1.0),
        # the frustrated odd rings keep a tie inside the picked parity sector
        ModelSpec(family="ti", lam=-1.0, h=0.0), ModelSpec(family="xy", lam=-1.0, h=0.0, gamma=0.5),
    ], ids=["xxz-0.7", "xxz0", "xxz1", "ti-frustrated", "xy-frustrated"])
    def test_odd_ring_state_is_translation_invariant(self, n, spec):
        # at odd n the top S_z sector of xxz keeps a momentum +-k tie
        state = ground_state(replace(spec, n=n)).state
        for translates in translation_classes(n):
            for theta, phi in ((0.0, 0.0), (0.7, 1.1)):
                values = [equal_angle_values([state], sites, theta, phi)[0, 0]
                          for sites in translates]
                assert np.ptp(values) <= 1e-12, (translates[0], theta, phi)

    def test_degenerate_ground_spaces_match_the_rotation_oracle(self):
        compared = 0
        for spec in degenerate_specs():
            gs = ground_state(spec)
            sectors, energies, tol = sector_energies(spec)
            assert gs.levels[0] == sectors and gs.levels[2] == tol
            assert np.array_equal(gs.levels[1], energies)
            if gs.degeneracy == 1 or np.linalg.matrix_rank(gs.state) > 1:  # a tie is averaged
                continue
            oracle = symmetric_by_rotation(spec)
            n = spec.n
            assert gs.parity == round(float(spin_parity_diagonal(n) @ np.abs(oracle[:, 0]) ** 2))
            labels = [l for l in ((1,), (1, 2), (1, 3)) if max(l) <= n] + [tuple(range(1, n + 1))]
            for sites in labels:
                for theta, phi in ((0.0, 0.0), (0.7, 1.1)):
                    ours, theirs = equal_angle_values([gs.state, oracle], sites, theta, phi)
                    assert ours[0] == pytest.approx(theirs[0], abs=1e-12), spec
            compared += 1
        assert compared >= 50

    def test_one_full_eigensolve(self, monkeypatch):
        # one eigvalsh per group of equal-width momentum x sector blocks with
        # 0 <= k <= pi, real at k = 0 and pi; the complex full solve only up to
        # FULL_SOLVE_MAX_N sites, and no block eigh there; above, one eigh per
        # ground block and none that sees 2^n rows
        levels, vectors = recorded(monkeypatch, "eigvalsh"), recorded(monkeypatch, "eigh")
        cases = [  # (spec, degeneracy, rank under symmetric)
            (ModelSpec(family="xxz", n=5, delta=0.0), 4, 2),  # S_z = +-1/2, each a momentum +-k tie
            (ModelSpec(family="xxz", n=8, delta=-2.0), 2, 1),  # the two aligned states
            (ModelSpec(family="xxz", n=7, delta=0.0), 4, 2),
        ]
        for spec, degeneracy, rank in cases:
            dim, basis = 2**spec.n, models._Basis.of(spec)
            groups = group_shapes(basis)
            assert sum(len(b.reps) * (1 + b.pair) for b in basis.blocks) == dim
            for b, h in zip(basis.blocks, block_hamiltonians(basis, 0.0)):
                real = 2 * b.m % spec.n == 0
                assert 0 <= b.m <= spec.n / 2 and b.pair == (not real)  # no -k block is built
                assert h.dtype == (np.float64 if real else np.complex128)
                assert h.shape == (len(b.reps),) * 2 and len(b.reps) < dim
            full = spec.n <= models.FULL_SOLVE_MAX_N
            ground = ground_blocks(basis, models._sweep_value(spec))
            for policy in models.POLICIES:
                levels.clear()
                vectors.clear()
                if policy == "aligned_up" and spec.delta == 0.0:
                    with pytest.raises(PolicyError):
                        ground_state(spec, policy)
                else:
                    gs = ground_state(spec, policy)
                    assert gs.degeneracy == degeneracy
                    if policy != "aligned_up":
                        assert gs.state.shape[1] == degeneracy
                        assert np.linalg.matrix_rank(gs.state) == (
                            rank if policy == "symmetric" else degeneracy)
                # a stacked input's first axis counts points: its last is the matrix size
                assert [(a.dtype, a.shape[-3:]) for a in levels] == groups, policy
                if full:
                    assert len(vectors) == 1 and vectors[0].dtype == complex
                    assert vectors[0].shape[-2:] == (dim, dim), policy
                else:
                    assert len(vectors) == len(ground), policy
                    assert all(a.tobytes() == h.tobytes() for a, h in zip(vectors, ground)), policy

    def test_zero_hamiltonian_is_the_parity_even_mixture(self):
        gs = ground_state(ModelSpec(family="xy", n=4, lam=0.0, h=0.0, gamma=0.5))
        assert gs.degeneracy == 16 and gs.parity == 1
        even = np.diag((1.0 + spin_parity_diagonal(4)) / 2)
        assert max_norm(density(gs.state) - even / 8) < 1e-15


class TestOneSpectrum:
    """Every scalar of `ground_state` comes from the one `eigvalsh` per built
    momentum x sector block (0 <= k <= pi), at every n: a sector's level is the
    lowest of its blocks, the energy is the lowest sector level, and the gap and
    the degeneracy are read off the sorted union of the block spectra, each
    paired block's (k != 0, pi) twice, for k and -k, bit for bit."""

    @pytest.mark.parametrize("n", range(4, 9))
    @pytest.mark.parametrize("family, params", [
        ("ti", [dict(lam=0.5), dict(lam=1.0), dict(lam=1.0, h=0.0)]),
        ("xy", [dict(lam=1.3, gamma=0.5), dict(lam=xy_factorization_point(0.5), gamma=0.5)]),
        ("xxz", [dict(delta=0.5), dict(delta=-1.0), dict(delta=-2.0)]),
    ], ids=["ti", "xy", "xxz"])
    def test_scalars_come_from_the_block_spectra(self, n, family, params):
        for spec in (ModelSpec(family=family, n=n, **p) for p in params):
            basis, value = models._Basis.of(spec), models._sweep_value(spec)
            blocks = block_spectra(basis, value)
            copies = [1 + b.pair for b in basis.blocks]
            w = np.sort(np.concatenate([wb for c, wb in zip(copies, blocks) for _ in range(c)]))
            assert len(w) == 2**n
            tol = models.TIE_TOL_FACTOR * max(float(w[-1] - w[0]), 1.0)
            g = sum(c * int(np.sum(wb - w[0] <= tol)) for c, wb in zip(copies, blocks))
            lows = [min(wb[0] for b, wb in zip(basis.blocks, blocks) if b.sector == k)
                    for k in range(len(basis.sectors))]
            for policy in models.POLICIES:
                try:
                    gs = ground_state(spec, policy)
                except PolicyError:
                    assert policy == "aligned_up", spec
                    continue
                assert gs.levels[1].tolist() == lows and gs.levels[2] == tol, (spec, policy)
                assert gs.energy == min(gs.levels[1]) == w[0], (spec, policy)
                assert gs.gap == w[1] - w[0], (spec, policy)
                assert gs.degeneracy == g, (spec, policy)

    @pytest.mark.parametrize("n", [6, 7])  # the complex full solve and the block path
    @pytest.mark.parametrize("offset", [0.0, 1e-8, -1e-8, 1e-9, 1e-10])
    def test_degenerate_exactly_when_the_gap_is_a_tie(self, n, offset):
        # next to the first parity crossing the gap is resolved, 4.5e-11 at n = 6 and
        # lambda_f + 1e-10, and one tolerance decides the degeneracy and the sector tie
        spec = ModelSpec(family="xy", n=n, lam=xy_factorization_point(0.5) + offset, gamma=0.5)
        results = {}
        for policy in models.POLICIES:
            try:
                gs = ground_state(spec, policy)
            except PolicyError:
                assert policy == "aligned_up", offset
                continue
            assert (gs.degeneracy > 1) == (gs.gap <= gs.levels[2]), policy
            results[policy] = gs
        sym, mix = results["symmetric"], results["mixture"]
        assert (mix.degeneracy > 1) == (offset == 0.0)
        if mix.degeneracy == 1:  # one unique ground state, whatever the policy
            assert mix.parity == sym.parity is not None
            for sites in ((1,), (1, 2), tuple(range(1, n + 1))):
                values = equal_angle_values([sym.state, mix.state], sites, 0.7, 1.1)
                assert np.array_equal(values[0], values[1]), sites

    @pytest.mark.parametrize("n", range(2, 11))
    def test_exact_degeneracies_count_under_the_tie_tolerance(self, n):
        # exact degeneracies split by rounding alone, far below 1e-12 x range
        assert ground_state(ModelSpec(family="ti", n=n, lam=0.0, h=0.0)).degeneracy == 2**n
        assert ground_state(ModelSpec(family="ti", n=n, lam=1.0, h=0.0)).degeneracy == 2


def block_solve_specs():
    """Chains for the block-path differential tests: ti in a field and without
    one (degenerate), xy at gamma = 0.5 on either side of and at its first parity
    crossing (the factorization point), xxz at the ferromagnetic point
    (degenerate) and on either side of the isotropic one; at n = 7, 8 and 9 (the
    generic ones at 7 and 8), and ti at lambda = 1 at n = 10."""
    lam_f = xy_factorization_point(0.5)
    generic = [ModelSpec(family="ti", lam=0.5), ModelSpec(family="ti", lam=1.0),
               ModelSpec(family="xy", lam=1.15, gamma=0.5),
               ModelSpec(family="xy", lam=1.16, gamma=0.5),
               ModelSpec(family="xxz", delta=0.5), ModelSpec(family="xxz", delta=2.0)]
    degenerate = [ModelSpec(family="ti", lam=1.0, h=0.0),
                  ModelSpec(family="xy", lam=lam_f, gamma=0.5),
                  ModelSpec(family="xxz", delta=-1.0)]
    specs = [replace(spec, n=n) for n in (7, 8) for spec in generic + degenerate]
    specs += [replace(spec, n=9) for spec in degenerate + generic[-1:]]
    return specs + [ModelSpec(family="ti", n=10, lam=1.0)]


def spec_id(spec):
    param = spec.delta if spec.family == "xxz" else spec.lam
    return f"{spec.family}-n{spec.n}-{param:g}" + ("-h0" if spec.h == 0 else "")


class TestBlockSolve:
    """Above FULL_SOLVE_MAX_N sites the ground state comes from the momentum x
    sector blocks alone; the `eigh` of the full H is the oracle."""

    LABELS = ((1,), (1, 2))
    POINTS = ((0.0, 0.0), (0.7, 1.1))

    @pytest.mark.parametrize("spec", block_solve_specs(), ids=spec_id)
    def test_matches_the_full_solve(self, spec, monkeypatch):
        n, dim = spec.n, 2**spec.n
        assert n > models.FULL_SOLVE_MAX_N
        w, v = np.linalg.eigh(build_hamiltonian(spec))
        g = int(np.sum(w - w[0] <= models.TIE_TOL_FACTOR * max(float(w[-1] - w[0]), 1.0)))
        up = all_up_vector(n)
        up_in_space = np.linalg.norm(v[:, :g].conj().T @ up) >= 1.0 - 1e-8
        basis = models._Basis.of(spec)
        groups, ground = group_shapes(basis), ground_blocks(basis, models._sweep_value(spec))
        for policy in models.POLICIES:
            with monkeypatch.context() as m:
                levels, vectors = recorded(m, "eigvalsh"), recorded(m, "eigh")
                try:
                    gs = ground_state(spec, policy)
                except PolicyError:
                    gs = None
            # one eigvalsh per group of equal-width blocks, none 2^n wide, and one
            # eigh per block that holds a ground level, of that block alone
            assert [(a.dtype, a.shape[-3:]) for a in levels] == groups, policy
            assert [a.tobytes() for a in vectors] == [h.tobytes() for h in ground], policy
            if gs is None:
                assert policy == "aligned_up" and not up_in_space, spec
                continue
            assert gs.energy == pytest.approx(w[0], abs=1e-12)
            assert gs.gap == pytest.approx(w[1] - w[0], abs=1e-12)
            assert gs.degeneracy == g
            assert gs.state.shape[1] == (1 if policy == "aligned_up" else g)
            if policy == "mixture" or g == 1:
                oracle = v[:, :g] / np.sqrt(g)
            elif policy == "aligned_up":
                assert up_in_space
                oracle = up
            elif np.linalg.matrix_rank(gs.state) == 1:
                oracle = symmetric_by_rotation(spec)
            else:  # a tie inside the picked sector: V projected onto it, as at n <= 6
                levels = sector_energies(spec)
                inside = symmetry_diagonal(spec) == levels[0][pick_sector(*levels)]
                oracle = np.where(inside[:, None], v[:, :g], 0.0)
                oracle /= np.linalg.norm(oracle)
            assert gs.parity == state_parity(oracle, n), policy
            for sites in (*self.LABELS, tuple(range(1, n + 1))):
                for theta, phi in self.POINTS:
                    ours, theirs = equal_angle_values([gs.state, oracle], sites, theta, phi)
                    assert ours[0] == pytest.approx(theirs[0], abs=1e-12), (policy, sites)
        assert max(shape[-1] for _, shape in groups) < dim


def assert_same_result(got, want):
    """Two ground-state results equal bit for bit, signed zeros included."""
    assert got.state.dtype == want.state.dtype and got.state.shape == want.state.shape
    assert got.state.tobytes() == want.state.tobytes()
    assert (got.energy, got.gap, got.degeneracy, got.parity) == \
        (want.energy, want.gap, want.degeneracy, want.parity)
    assert got.levels[0] == want.levels[0] and got.levels[2] == want.levels[2]
    assert got.levels[1].tobytes() == want.levels[1].tobytes()


STACKED_GRIDS = {  # (spec, start, stop, step, policy)
    # Delta = -1 hits the grid: states of 1, 2 and 7 columns in one sweep
    "xxz-n6-symmetric": (ModelSpec(family="xxz"), -1.5, 1.5, 0.05, "symmetric"),
    "xxz-n6-aligned": (ModelSpec(family="xxz"), -2.0, -0.5, 0.05, "aligned_up"),
    "xy-n6-mixture": (ModelSpec(family="xy", gamma=0.5), 0.0, 2.0, 0.05, "mixture"),
    "ti-n6-h0": (ModelSpec(family="ti", h=0.0), 0.0, 1.0, 0.1, "symmetric"),
    # three parity crossings, the first at the factorization point
    "xy-n9-symmetric": (ModelSpec(family="xy", n=9, gamma=0.5), 1.1, 1.8, 0.05, "symmetric"),
    "xxz-n7-mixture": (ModelSpec(family="xxz", n=7), -2.0, 3.0, 0.25, "mixture"),
}


class TestStackedSolve:
    """A sweep's Hamiltonians are built and solved as stacks, in chunks of
    CHUNK_BYTES // (32 x 4^n) points; every result equals its point's own
    one-point solve bit for bit, whatever the chunk."""

    @pytest.mark.parametrize("name", STACKED_GRIDS)
    def test_grid_matches_the_one_point_solves(self, name, monkeypatch):
        spec, start, stop, step, policy = STACKED_GRIDS[name]
        grid = grid_values(start, stop, step)
        want = [ground_state(spec.with_param(value), policy) for value in grid]
        per_point = 32 * 4**spec.n
        for chunk_bytes in (models.CHUNK_BYTES, 0, per_point * len(grid)):  # default, 1, all
            monkeypatch.setattr(models, "CHUNK_BYTES", chunk_bytes)
            got = list(models.ground_states(spec, grid, policy))
            assert len(got) == len(grid)
            for g, w in zip(got, want):
                assert_same_result(g, w)
        if name == "xxz-n6-symmetric":
            assert {w.state.shape[1] for w in want} == {1, 2, 7}
        if name == "xy-n9-symmetric":
            picked = [pick_sector(*w.levels) for w in want]
            assert sum(a != b for a, b in zip(picked, picked[1:])) == 3

    def test_chunk_sizes(self, monkeypatch):
        sizes = []
        solve = models._solve
        monkeypatch.setattr(models, "_solve", lambda basis, values: sizes.append(len(values))
                            or solve(basis, values))
        for n, chunks in ((6, [8, 8, 4]), (7, [2] * 10), (8, [1] * 20)):
            sizes.clear()
            assert len(list(models.ground_states(ModelSpec(family="ti", n=n),
                                                 np.linspace(0.5, 1.5, 20)))) == 20
            assert sizes == chunks, n

    @pytest.mark.parametrize("spec", [ModelSpec(family="ti", n=8), ModelSpec(family="xxz", n=8),
                                      ModelSpec(family="xy", n=9, gamma=0.5)], ids=spec_id)
    def test_long_chains_form_no_full_matrix(self, spec, monkeypatch):
        # from n = 8 up a sweep builds no 2^n x 2^n H and solves nothing wider than a block
        widest = max(len(b.reps) for b in models._Basis.of(spec).blocks)
        monkeypatch.setattr(models, "_build", lambda *a: pytest.fail("full H built"))
        levels, vectors = recorded(monkeypatch, "eigvalsh"), recorded(monkeypatch, "eigh")
        grid = [-1.0, 0.5, 1.0, 1.5]
        for policy in ("symmetric", "mixture"):
            assert len(list(models.ground_states(spec, grid, policy))) == len(grid)
        assert levels and max(a.shape[-1] for a in levels) == widest < 2**spec.n / 4
        # each eigh is one block at one point
        assert len(vectors) >= 2 * len(grid) and all(a.ndim == 2 for a in vectors)
        assert max(a.shape[-1] for a in vectors) <= widest

    @pytest.mark.parametrize("family", models.FAMILIES)
    @pytest.mark.parametrize("n", [2, 3, 5, 6])
    def test_stacked_build_matches_the_one_point_build_and_the_kron_oracle(self, family, n):
        spec = ModelSpec(family=family, n=n, h=0.3, gamma=0.4, j=-0.7)
        values = [-1.3, 0.0, 0.45, 2.0]
        stack = models._build(spec, values, models._z_signs(n))
        assert stack.shape == (len(values), 2**n, 2**n) and stack.dtype == np.float64
        for h, value in zip(stack, values):
            one = spec.with_param(value)
            assert h.tobytes() == build_hamiltonian(one).tobytes()
            assert np.asarray(h, dtype=complex).tobytes() == kron_hamiltonian(one).tobytes()

    def test_stacked_full_solve_matches_each_matrix(self):
        # the n <= 6 ground vectors: the complex eigh of a chunk's stacked full H gives,
        # matrix by matrix, what each point's own solve gives
        spec = ModelSpec(family="xxz")  # degenerate levels at delta = -1
        values = [-2.0, -1.0, 0.5, 1.0]
        w, v = np.linalg.eigh(np.asarray(models._build(spec, values, models._z_signs(6)),
                                         dtype=complex))
        for k, value in enumerate(values):
            wk, vk = np.linalg.eigh(np.asarray(build_hamiltonian(spec.with_param(value)),
                                               dtype=complex))
            assert w[k].tobytes() == wk.tobytes() and v[k].tobytes() == vk.tobytes()

    def test_policy_failure_is_raised_at_its_own_point(self):
        # at h = 0 the all-up state leaves the ground space once lambda > 0; the
        # three points share one chunk, and the first is yielded before the failure
        spec = ModelSpec(family="ti", n=4, h=0.0)
        results = models.ground_states(spec, [0.0, 0.05, 0.1], "aligned_up")
        assert next(results).degeneracy == 16
        with pytest.raises(PolicyError, match="all-up state not in the ground space"):
            next(results)


PHASE_SPECS = {  # a unique ground state, and three degenerate spaces
    "xy-n6-unique": ModelSpec(family="xy", lam=1.3, gamma=0.5),
    "xxz-n6-ferromagnetic": ModelSpec(family="xxz", delta=-1.0),
    "xy-n6-factorization": ModelSpec(family="xy", lam=xy_factorization_point(0.5), gamma=0.5),
    "ti-n6-h0": ModelSpec(family="ti", lam=1.0, h=0.0),
}


class TestPhaseIndependence:
    """Up to six sites the ground factor is columns of the complex `eigh` of the full
    H, whose phases are LAPACK's choice; they cancel in rho = A A^dagger. With each
    column multiplied by a random unit phase, every value moves by rounding alone."""

    LABELS = ((1,), (1, 2), (1, 3), tuple(range(1, 7)))

    @staticmethod
    def phased_ground_state(spec, policy, rng, monkeypatch):
        """`ground_state`, or the PolicyError it raises, with every column of the
        complex 2^n-wide solve multiplied by a random unit phase."""
        eigh, phased = np.linalg.eigh, []

        def phased_eigh(a):
            w, v = eigh(a)
            if v.dtype == complex and v.shape[-1] == 2**spec.n:
                phased.append(v.shape)
                v = v * np.exp(2j * np.pi * rng.random(v.shape[:-2] + (1, v.shape[-1])))
            return w, v

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigh", phased_eigh)
            try:
                result = ground_state(spec, policy)
            except PolicyError as error:
                result = error
        assert len(phased) == 1
        return result

    @pytest.mark.parametrize("name", PHASE_SPECS)
    def test_column_phases_move_no_value(self, name, monkeypatch):
        spec, rng, grid = PHASE_SPECS[name], np.random.default_rng(29), SphereGrid(7, 12)
        thetas, phis = [0.0, 0.7, 2.0], [0.0, 1.1, 4.0]
        for policy in ("symmetric", "mixture"):
            want = ground_state(spec, policy)
            for _ in range(3):
                got = self.phased_ground_state(spec, policy, rng, monkeypatch)
                assert got.state.tobytes() != want.state.tobytes(), policy
                assert (got.degeneracy, got.parity) == (want.degeneracy, want.parity)
                for sites in self.LABELS:
                    values = equal_angle_values([got.state, want.state], sites, thetas, phis)
                    assert max_norm(values[0] - values[1]) <= 1e-14, (policy, sites)
                    assert max_norm(sphere_field(got.state, sites, grid)
                                    - sphere_field(want.state, sites, grid)) <= 1e-14, sites
                if policy == "mixture":  # the all-up overlap, |P up| = sqrt(g) |A[0]|
                    assert abs(np.linalg.norm(got.state[0]) - np.linalg.norm(want.state[0])) \
                        <= 1e-14 / math.sqrt(want.degeneracy)

    @pytest.mark.parametrize("name", PHASE_SPECS)
    def test_column_phases_keep_the_aligned_up_outcome(self, name, monkeypatch):
        # a unique state is kept as it is; all up lies in the xxz space at Delta = -1 and
        # in neither other degenerate space, whose errors name the projection norm
        spec, rng = PHASE_SPECS[name], np.random.default_rng(31)
        try:
            want = ground_state(spec, "aligned_up")
        except PolicyError as error:
            want = error
        assert isinstance(want, PolicyError) == (name in ("xy-n6-factorization", "ti-n6-h0"))
        for _ in range(3):
            got = self.phased_ground_state(spec, "aligned_up", rng, monkeypatch)
            if isinstance(want, PolicyError):
                assert isinstance(got, PolicyError) and str(got) == str(want)
            else:
                assert (got.degeneracy, got.parity) == (want.degeneracy, want.parity)
                assert max_norm(density(got.state) - density(want.state)) <= 1e-14


def differential_specs():
    """Chains for the momentum-block differential test, n = 2..10: each family at a
    generic point; the degenerate points ti without a field, xxz at the
    ferromagnetic point Delta = -1 and xy at its factorization point; and xxz at
    Delta = 0 on the odd rings, whose ground levels are +-k pairs."""
    lam_f = xy_factorization_point(0.5)
    for n in range(2, 11):
        yield ModelSpec(family="ti", n=n, lam=0.7)
        yield ModelSpec(family="xy", n=n, lam=1.3, gamma=0.5)
        yield ModelSpec(family="xxz", n=n, delta=0.5)
        yield ModelSpec(family="ti", n=n, lam=1.0, h=0.0)
        yield ModelSpec(family="xy", n=n, lam=lam_f, gamma=0.5)
        yield ModelSpec(family="xxz", n=n, delta=-1.0)
        if n % 2:
            yield ModelSpec(family="xxz", n=n, delta=0.0)


class TestMomentumBlocks:
    """The momentum x sector blocks against the sector-block solve they replace
    (`sector_block_ground_state`): the same spectrum, sector levels, ground counts,
    picked sector, parity and ground space, under every policy. The -k blocks
    that the solver does not build come from the projection oracle
    `momentum_block`."""

    LABELS = ((1,), (1, 2))
    POINTS = ((0.0, 0.0), (0.7, 1.1))

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("family", models.FAMILIES)
    def test_built_blocks_match_the_projection_oracle(self, n, family):
        # k and -k from the dense H projected onto momentum states: the built block
        # of 0 <= k <= pi, and the conjugate of it at -k
        spec = ModelSpec(family=family, n=n, lam=1.3, gamma=0.5, delta=0.5)
        basis, value = models._Basis.of(spec), models._sweep_value(spec)
        for b, h in zip(basis.blocks, block_hamiltonians(basis, value)):
            for m, want in ((b.m, h), (n - b.m, h.conj())) if b.pair else ((b.m, h),):
                reps, oracle = momentum_block(spec, basis.sectors[b.sector], m)
                assert np.array_equal(reps, b.reps), (b.sector, m)
                assert max_norm(oracle - want) <= 1e-14 * max(max_norm(h), 1), (b.sector, m)

    @pytest.mark.parametrize("spec", differential_specs(), ids=spec_id)
    def test_matches_the_sector_blocks(self, spec):
        n, value = spec.n, models._sweep_value(spec)
        basis = models._Basis.of(spec)
        for h in block_hamiltonians(basis, value):
            assert np.max(np.abs(h - h.conj().T), initial=0.0) <= 1e-14 * max(np.max(np.abs(h)), 1)
        every = every_block_spectrum(spec, basis)
        union = np.sort(np.concatenate([w for _, _, w in every]))
        assert len(union) == 2**n
        for policy in models.POLICIES:
            want = sector_block_ground_state(spec, policy)
            tol = models.TIE_TOL_FACTOR * max(float(np.ptp(union)), 1.0)
            assert np.max(np.abs(union - np.sort(np.concatenate(want["spectra"])))) <= tol
            try:
                gs = ground_state(spec, policy)
            except PolicyError:
                assert policy == "aligned_up" and want["state"] is None, spec
                continue
            assert gs.levels[0] == want["levels"][0]
            assert np.max(np.abs(gs.levels[1] - want["levels"][1])) <= tol
            assert abs(gs.energy - want["energy"]) <= tol and abs(gs.gap - want["gap"]) <= tol
            counts = [0] * len(basis.sectors)
            for sector, _, w in every:
                counts[sector] += int(np.sum(w - union[0] <= gs.levels[2]))
            assert counts == want["counts"], policy
            assert (gs.degeneracy, gs.parity) == (want["degeneracy"], want["parity"]), policy
            assert pick_sector(*gs.levels) == want["picked"]
            if policy == "mixture":
                projector = gs.degeneracy * density(gs.state)
                assert max_norm(projector - want["projector"]) <= 1e-12, spec
            assert max_norm(density(gs.state) - density(want["state"])) <= 1e-12, policy
            for sites in (*self.LABELS, tuple(range(1, n + 1))):
                if max(sites) > n:
                    continue
                for theta, phi in self.POINTS:
                    ours, theirs = equal_angle_values([gs.state, want["state"]], sites, theta, phi)
                    assert abs(ours[0] - theirs[0]) <= 1e-12, (policy, sites)

    @pytest.mark.parametrize("n", [5, 7])
    def test_odd_xx_ring_ground_levels_are_a_momentum_pair(self, n):
        # xxz at Delta = 0: each S_z = +-1/2 sector's ground level sits at k and -k
        spec = ModelSpec(family="xxz", n=n, delta=0.0)
        basis = models._Basis.of(spec)
        every = every_block_spectrum(spec, basis)
        low = min(w[0] for _, _, w in every)
        tol = models.TIE_TOL_FACTOR * max(max(w[-1] for _, _, w in every) - low, 1.0)
        ground = sorted((basis.sectors[s], m) for s, m, w in every if w[0] - low <= tol)
        assert len(ground) == 4 and all(m != 0 for _, m in ground)
        for sector in (-0.5, 0.5):
            ms = [m for s, m in ground if s == sector]
            assert len(ms) == 2 and sum(ms) == n
        for policy in ("mixture", "symmetric"):
            gs, want = ground_state(spec, policy), sector_block_ground_state(spec, policy)
            # the -k level is the k block's level read again, equal bit for bit
            assert gs.degeneracy == 4 and gs.gap == 0.0, policy
            if policy == "mixture":
                assert max_norm(gs.degeneracy * density(gs.state) - want["projector"]) <= 1e-12
            assert max_norm(density(gs.state) - density(want["state"])) <= 1e-12, policy


class TestParity:
    """`parity` read off the sectors against the parity measured on the state."""

    def test_sector_parity_matches_the_measured_parity(self):
        # ti and xy are gapped here; an odd xxz ring's ground space spans the sectors
        # S_z = +-s, half-integer and of opposite spin parity
        generic = [spec for n in range(3, 9) for spec in (
            ModelSpec(family="ti", n=n, lam=0.7), ModelSpec(family="xy", n=n, lam=1.3, gamma=0.5),
            ModelSpec(family="xxz", n=n, delta=0.5), ModelSpec(family="xxz", n=n, delta=-3.0))]
        seen = set()
        for spec in itertools.chain(degenerate_specs(), generic):
            for policy in models.POLICIES:
                try:
                    gs = ground_state(spec, policy)
                except PolicyError:  # aligned_up, with the all-up state outside the space
                    continue
                assert gs.parity == state_parity(gs.state, spec.n), (spec, policy)
                seen.add((policy, gs.degeneracy > 1, gs.parity))
        for policy in models.POLICIES:
            assert (policy, True, 1) in seen
        assert {("symmetric", True, -1), ("mixture", True, None), ("mixture", False, -1)} <= seen


class TestClassicalForms:
    def test_energy_at_unity(self):
        assert ti_classical_energy(1.0) == -1.25

    def test_mz_below_breakpoint(self):
        assert ti_classical_mz(0.25) == 0.5

    def test_mx_continuous_at_breakpoint(self):
        assert ti_classical_mx(0.5) == 0.0
        assert ti_classical_energy(0.5) == pytest.approx(-1.0, abs=1e-15)
        assert ti_classical_mz(0.5) == 0.5


def thermo_by_quadrature(lam):
    """The two Pfeuty integrals by adaptive quadrature at a tight relative tolerance."""
    from scipy.integrate import quad

    root = lambda k: math.sqrt(1 + 2 * lam * math.cos(k) + lam**2)
    energy = quad(root, 0.0, math.pi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    mz = quad(lambda k: (1 + lam * math.cos(k)) / root(k), 0.0, math.pi, epsabs=0.0,
              epsrel=1e-13, limit=200)[0]
    return -energy / math.pi, mz / (2 * math.pi)


class TestThermodynamicForms:
    def test_energy_at_critical_coupling(self):
        assert ti_thermo_energy(1.0) == -4 / math.pi

    def test_mz_at_critical_coupling(self):
        assert ti_thermo_mz(1.0) == 1 / math.pi

    def test_energy_at_zero(self):
        assert ti_thermo_energy(0.0) == -1.0

    def test_mx_branches(self):
        assert ti_thermo_mx(0.5) == 0.0
        # frozen from the closed form 0.5 * (1 - 1/4)^(1/8)
        assert ti_thermo_mx(2.0) == pytest.approx(0.4823393149801547, abs=1e-15)

    def test_mz_limits(self):
        assert ti_thermo_mz(0.0) == 0.5
        assert ti_thermo_mz(50.0) < 0.02

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("lam", [1e-3, 0.1, 0.5, 0.9, 1.1, 2.0, 5.0, 50.0, 1e3])
    def test_closed_forms_match_the_quadrature(self, lam):
        energy, mz = thermo_by_quadrature(lam)
        assert ti_thermo_energy(lam) == pytest.approx(energy, rel=1e-13, abs=0)
        assert ti_thermo_mz(lam) == pytest.approx(mz, rel=1e-13, abs=0)

    def test_closed_forms_match_a_40_digit_truth(self):
        # E0 = -2 (1 + lam) E(m)/pi and mz = [(1 + lam) E(m) + (1 - lam) K(m)]/2pi with
        # m = 4 lam/(1 + lam)^2, evaluated in 40-digit arithmetic
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        with mpmath.workdps(40):
            for lam in [0.0, 1e-6, 0.3, 0.9, 1 - 1e-6, 1 - 1e-12, 1 + 1e-12, 1 + 1e-6, 1.1,
                        3.0, 1e2, 1e5, 1e6]:
                x = mpmath.mpf(lam)
                m = 4 * x / (1 + x) ** 2
                energy = -2 * (1 + x) * mpmath.ellipe(m) / mpmath.pi
                mz = ((1 + x) * mpmath.ellipe(m) + (1 - x) * mpmath.ellipk(m)) / (2 * mpmath.pi)
                worst = max(worst, float(abs(ti_thermo_energy(lam) / energy - 1)),
                            float(abs(ti_thermo_mz(lam) / mz - 1)))
        assert worst <= 1e-14

    @pytest.mark.parametrize("lam", [1 - 1e-12, 1 + 1e-12, 1 - 1e-6, 1 + 1e-6, 2.0])
    def test_energy_obeys_the_kramers_wannier_duality(self, lam):
        assert ti_thermo_energy(lam) == pytest.approx(lam * ti_thermo_energy(1 / lam),
                                                      rel=1e-15, abs=0)

    @pytest.mark.parametrize("lam", [1e5, 1e6])
    def test_strong_coupling_is_finite(self, lam):
        # the energy tends to -lam and mz to 1/(4 lam)
        assert ti_thermo_energy(lam) == pytest.approx(-lam, rel=1e-9)
        assert ti_thermo_mz(lam) == pytest.approx(1 / (4 * lam), rel=1e-9)

    def test_mz_beyond_the_overflow_of_pi_lam(self):
        # pi lam overflows above lam ~ 5.7e307; mz is still about 1/(4 lam), a subnormal
        lam = 1.7e308
        assert math.isinf(math.pi * lam)
        assert ti_thermo_mz(lam) == pytest.approx(0.25 / lam, rel=1e-12)

    def test_mz_keeps_its_bits_where_pi_lam_is_finite(self):
        # b / (pi lam), as before the overflow branch, at a spread of lam in (1, 1e300]
        for lam in np.geomspace(1 + 1e-12, 1e300, 97).tolist() + [1.5, 2.0, 1e300]:
            _, _, b, _ = models._ti_elliptic(lam)
            assert ti_thermo_mz(lam) == b / (math.pi * lam), lam

    def test_negative_coupling_rejected(self):
        # one domain for all six ti formulas: a finite lam >= 0
        formulas = (ti_classical_energy, ti_classical_mx, ti_classical_mz,
                    ti_thermo_energy, ti_thermo_mx, ti_thermo_mz)
        for formula, lam in itertools.product(formulas, [-0.1, math.nan, math.inf]):
            with pytest.raises(ValueError, match="finite and non-negative"):
                formula(lam)


class TestFactorization:
    def test_point_values(self):
        assert xy_factorization_point(0.5) == pytest.approx(1.1547005383792517, abs=1e-12)
        assert xy_factorization_point(1e-9) == pytest.approx(1.0, abs=1e-9)
        assert math.isinf(xy_factorization_point(1.0))

    def test_point_domain(self):
        with pytest.raises(ValueError):
            xy_factorization_point(0.0)
        with pytest.raises(ValueError):
            xy_factorization_point(1.2)

    def test_angle_values(self):
        assert xy_factorization_angle(0.5) == pytest.approx(math.acos(1 / SQ3), abs=1e-12)
        # vanishes like sqrt(2*gamma) as the anisotropy goes to zero
        assert xy_factorization_angle(1e-12) == pytest.approx(math.sqrt(2e-12), rel=1e-3)
        assert xy_factorization_angle(1e-12) < 1e-5
        assert xy_factorization_angle(1.0) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_product_states_degenerate_at_factorization_point(self):
        # the two lowest opposite-parity levels touch at the factorization coupling
        gamma = 0.5
        lam_f = xy_factorization_point(gamma)
        for n in range(2, 11):
            gs = ground_state(ModelSpec(family="xy", n=n, lam=lam_f, gamma=gamma))
            assert gs.degeneracy == 2, n


class TestMemoryGuard:
    """Chain lengths whose dense build cannot fit in memory are rejected up front.
    The memory figure is monkeypatched; nothing large is allocated."""

    def test_working_set_formula(self):
        assert dense_working_set(6) == 38 * 4**6 + 16 * 2**20

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
    def test_working_set_bounds_measured_peak(self):
        # VmHWM is the child's own peak RSS in KiB; its ru_maxrss would also
        # carry the peak of the process that spawned it. ti at lambda = 1 solves
        # two parity blocks of 2^(n-1) rows; without coupling or field every
        # level is a ground level, so the ground space has 2^n columns.
        code = ("import sys\n"
                "from spinphase import models\n"
                "def peak():\n"
                "    with open('/proc/self/status') as fh:\n"
                "        return next(int(l.split()[1]) for l in fh if l.startswith('VmHWM'))\n"
                "n, lam, h, policy = sys.argv[1:5]\n"
                "spec = models.ModelSpec(family='ti', n=int(n), lam=float(lam), h=float(h))\n"
                "before = peak()\n"
                "if sys.argv[5:]:  # a sweep: kept results, as `sweep` keeps them\n"
                "    kept = list(models.ground_states(spec, [float(v) for v in sys.argv[5:]], policy))\n"
                "else:\n"
                "    models.ground_state(spec, policy)\n"
                "print(peak() - before)\n")
        src = os.path.dirname(os.path.dirname(models.__file__))
        # the 3-point sweep solves one point per chunk at n = 10, and each chunk's
        # arrays must be gone before the next is built
        for n, lam, h, policy, *grid in ((10, 1.0, 1.0, "symmetric"),
                                         (11, 1.0, 1.0, "symmetric"),
                                         (10, 0.0, 0.0, "mixture"),
                                         (10, 1.0, 1.0, "symmetric", 0.95, 1.0, 1.05)):
            argv = [str(a) for a in (n, lam, h, policy, *grid)]
            out = subprocess.run([sys.executable, "-c", code, *argv],
                                 capture_output=True, text=True, check=True,
                                 env=dict(os.environ, PYTHONPATH=src))
            assert 0 < int(out.stdout) * 1024 <= dense_working_set(n), argv

    def test_too_long_chain_is_config_error(self, monkeypatch):
        monkeypatch.setattr(models, "physical_memory", lambda: dense_working_set(6) - 1)
        with pytest.raises(ConfigError, match="physical memory"):
            ModelSpec(family="ti", n=6)
        ModelSpec(family="ti", n=5)

    def test_cli_exits_2(self, monkeypatch, tmp_path):
        from spinphase.cli import main

        monkeypatch.setattr(models, "physical_memory", lambda: dense_working_set(4))
        args = ["phaseline", "--model", "ti", "--n", "5", "--param-start", "0",
                "--param-stop", "0.1", "--out", str(tmp_path / "x")]
        assert main(args) == 2
        assert not (tmp_path / "x" / "phaseline.csv").exists()
