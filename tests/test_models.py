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

from dense_oracles import density, embed, kron_all, symmetric_by_rotation

from spinphase import models
from spinphase.errors import ConfigError, PolicyError
from spinphase.models import (ModelSpec, build_hamiltonian, dense_working_set, ground_state,
                              sector_energies, spin_parity_diagonal, staggered_flip_diagonal,
                              ti_classical_energy, ti_classical_mx, ti_classical_mz,
                              ti_thermo_energy, ti_thermo_mx, ti_thermo_mz, total_sz_diagonal,
                              xy_factorization_angle, xy_factorization_point)
from spinphase.qcore import (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, all_up_vector, basis_vector,
                             herm_eig)
from spinphase.wigner import equal_angle_values

SQ3 = math.sqrt(3.0)


def max_norm(a):
    return float(np.max(np.abs(a)))


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
    # the complex matrix that herm_eig solves is the oracle, signed zeros included
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
                values = [equal_angle_values([state], sites, theta, phi, n=n)[0, 0]
                          for sites in translates]
                assert np.ptp(values) <= 1e-12, (translates[0], theta, phi)

    def test_degenerate_ground_spaces_match_the_rotation_oracle(self):
        compared = 0
        for spec in degenerate_specs():
            gs = ground_state(spec)
            sectors, energies, tol = sector_energies(spec)
            assert gs.levels[0] == sectors and gs.levels[2] == tol
            assert np.array_equal(gs.levels[1], energies)
            if gs.degeneracy == 1 or gs.state.shape[1] > 1:  # a residual tie is averaged
                continue
            oracle = symmetric_by_rotation(spec)
            n = spec.n
            assert gs.parity == round(float(spin_parity_diagonal(n) @ np.abs(oracle[:, 0]) ** 2))
            labels = [l for l in ((1,), (1, 2), (1, 3)) if max(l) <= n] + [tuple(range(1, n + 1))]
            for sites in labels:
                for theta, phi in ((0.0, 0.0), (0.7, 1.1)):
                    ours, theirs = equal_angle_values([gs.state, oracle], sites, theta, phi, n=n)
                    assert ours[0] == pytest.approx(theirs[0], abs=1e-12), spec
            compared += 1
        assert compared >= 50

    def test_one_full_eigensolve(self, monkeypatch):
        calls = []
        monkeypatch.setattr(models, "herm_eig", lambda a: calls.append(a) or herm_eig(a))
        gs = ground_state(ModelSpec(family="xxz", n=5, delta=0.0))
        assert gs.degeneracy == 4 and gs.state.shape[1] == 2
        assert len(calls) == 1

    def test_zero_hamiltonian_is_the_parity_even_mixture(self):
        gs = ground_state(ModelSpec(family="xy", n=4, lam=0.0, h=0.0, gamma=0.5))
        assert gs.degeneracy == 16 and gs.parity == 1
        even = np.diag((1.0 + spin_parity_diagonal(4)) / 2)
        assert max_norm(density(gs.state) - even / 8) < 1e-15


class TestClassicalForms:
    def test_energy_at_unity(self):
        assert ti_classical_energy(1.0) == -1.25

    def test_mz_below_breakpoint(self):
        assert ti_classical_mz(0.25) == 0.5

    def test_mx_continuous_at_breakpoint(self):
        assert ti_classical_mx(0.5) == 0.0
        assert ti_classical_energy(0.5) == pytest.approx(-1.0, abs=1e-15)
        assert ti_classical_mz(0.5) == 0.5


class TestThermodynamicForms:
    def test_energy_at_critical_coupling(self):
        assert ti_thermo_energy(1.0) == pytest.approx(-4 / math.pi, abs=1e-8)

    def test_mz_at_critical_coupling(self):
        assert ti_thermo_mz(1.0) == pytest.approx(1 / math.pi, abs=1e-8)

    def test_energy_at_zero(self):
        assert ti_thermo_energy(0.0) == pytest.approx(-1.0, abs=1e-10)

    def test_mx_branches(self):
        assert ti_thermo_mx(0.5) == 0.0
        # frozen from the closed form 0.5 * (1 - 1/4)^(1/8)
        assert ti_thermo_mx(2.0) == pytest.approx(0.4823393149801547, abs=1e-15)

    def test_mz_limits(self):
        assert ti_thermo_mz(0.0) == pytest.approx(0.5, abs=1e-10)
        assert ti_thermo_mz(50.0) < 0.02

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError):
            ti_thermo_energy(-0.1)


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
        gs = ground_state(ModelSpec(family="xy", n=6, lam=lam_f, gamma=gamma))
        assert gs.degeneracy == 2


class TestMemoryGuard:
    """Chain lengths whose dense build cannot fit in memory are rejected up front.
    The memory figure is monkeypatched; nothing large is allocated."""

    def test_working_set_formula(self):
        assert dense_working_set(6) == 88 * 4**6 + 16 * 2**20

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
    def test_working_set_bounds_measured_peak(self):
        # VmHWM is the child's own peak RSS in KiB; its ru_maxrss would also
        # carry the peak of the process that spawned it
        code = ("from spinphase.models import ModelSpec, ground_state\n"
                "def peak():\n"
                "    with open('/proc/self/status') as fh:\n"
                "        return next(int(l.split()[1]) for l in fh if l.startswith('VmHWM'))\n"
                "before = peak()\n"
                "ground_state(ModelSpec(family='xxz', n=8, delta=0.5))\n"
                "print(peak() - before)\n")
        src = os.path.dirname(os.path.dirname(models.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=dict(os.environ, PYTHONPATH=src))
        assert 0 < int(out.stdout) * 1024 <= dense_working_set(8)

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
