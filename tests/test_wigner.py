import tracemalloc

import numpy as np
import pytest

from dense_oracles import (density, kernel_multi, kron_all, partial_trace, pauli_contract,
                           pauli_expectations)

from spinphase import analysis, models, wigner
from spinphase.analysis import SweepConfig, canonical_labels, sweep
from spinphase.errors import NumericalError
from spinphase.models import ModelSpec, ground_state
from spinphase.qcore import SIGMA_Z, basis_vector, reduced_factor
from spinphase.wigner import (ANGLE_SLACK, CHUNK_BYTES, KERNEL_EIG_HI, KERNEL_EIG_LO, SphereGrid,
                              bloch_factors, equal_angle_values, kernels, phase_point_values,
                              reconstruct_density, reference_state, sphere_field, wigner_values)

SQ3 = np.sqrt(3.0)
HI = 0.5 * (1 + SQ3)
LO = 0.5 * (1 - SQ3)

# Oracle: the kernel as the rotated parity R (1 + sqrt3 sz)/2 R^dagger with
# R = exp(-i sz phi/2) exp(-i sy theta/2) exp(-i sz Phi/2); the third Euler
# angle Phi commutes with the parity operator and drops out.
PARITY_POINT_OP = 0.5 * (np.eye(2) + SQ3 * SIGMA_Z)


def rotation(theta, phi, third_euler=0.0):
    rz = np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)])
    ry = np.array([[np.cos(theta / 2), -np.sin(theta / 2)],
                   [np.sin(theta / 2), np.cos(theta / 2)]], dtype=complex)
    rz2 = np.diag([np.exp(-0.5j * third_euler), np.exp(0.5j * third_euler)])
    return rz @ ry @ rz2


def rotated_parity(theta, phi, third_euler=0.0):
    r = rotation(theta, phi, third_euler)
    return r @ PARITY_POINT_OP @ r.conj().T


def oracle_value(state, points, sites=None):
    """Tr[rho K] with K the kron of rotated-parity kernels, identity off `sites`."""
    rho = density(state)
    n = int(np.log2(rho.shape[0]))
    sites = tuple(range(1, n + 1)) if sites is None else sites
    points = iter(points)
    ops = [rotated_parity(*next(points)) if i in sites else np.eye(2)
           for i in range(1, n + 1)]
    return float(np.real(np.einsum("ij,ji->", rho, kron_all(ops))))


def rand_point(rng):
    return (rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))


def values_at(state, samples):
    """Wigner values of a k-qubit factor at p samples of k points each, by one
    `wigner_values` call; `samples` has shape (p, k, 2)."""
    samples = np.asarray(samples, dtype=float)
    k = samples.shape[1]
    return wigner_values([state], range(1, k + 1),
                         [kernels(samples[:, i, 0], samples[:, i, 1]) for i in range(k)])[0]


def rand_pure(rng, dim):
    psi = rng.normal(size=(dim, 1)) + 1j * rng.normal(size=(dim, 1))
    return psi / np.linalg.norm(psi)


def werner(x):
    """Factor of x |singlet><singlet| + (1 - x) 1/4."""
    return np.hstack([np.sqrt(x) * reference_state("singlet"), np.sqrt(1 - x) * np.eye(4) / 2])


class TestKernelSingle:
    def test_north_pole_diagonal(self):
        k = kernels(0.0, 0.0)
        assert np.max(np.abs(k - np.diag([HI, LO]))) < 1e-14

    def test_south_pole_swaps(self):
        k = kernels(np.pi, 0.0)
        assert np.max(np.abs(k - np.diag([LO, HI]))) < 1e-14

    def test_unit_trace_random(self):
        rng = np.random.default_rng(0)
        k = kernels(*np.transpose([rand_point(rng) for _ in range(50)]))
        assert np.max(np.abs(np.trace(k, axis1=1, axis2=2) - 1.0)) < 1e-13

    def test_spectrum_fixed(self):
        rng = np.random.default_rng(1)
        w = np.linalg.eigvalsh(kernels(*np.transpose([rand_point(rng) for _ in range(50)])))
        assert np.max(np.abs(w[:, 0] - KERNEL_EIG_LO)) < 1e-13
        assert np.max(np.abs(w[:, 1] - KERNEL_EIG_HI)) < 1e-13

    def test_third_euler_angle_has_no_effect(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            theta, phi = rand_point(rng)
            extra = rng.uniform(0, 2 * np.pi)
            with_euler = rotated_parity(theta, phi, third_euler=extra)
            assert np.max(np.abs(with_euler - kernels(theta, phi))) < 1e-13

    def test_batch_matches_rotated_construction(self):
        rng = np.random.default_rng(3)
        thetas = rng.uniform(0, np.pi, 40)
        phis = rng.uniform(0, 2 * np.pi, 40)
        batch, stack = bloch_factors(thetas, phis), kernels(thetas, phis)
        for i in range(40):
            oracle = rotated_parity(thetas[i], phis[i])
            assert np.max(np.abs(stack[i] - oracle)) < 1e-13
            # factors[b] = Tr[sigma_b K]
            assert np.max(np.abs(batch[i] - pauli_expectations(oracle))) < 1e-13

    def test_rejects_bad_angles(self):
        with pytest.raises(ValueError):
            kernels(-0.5, 0.0)
        with pytest.raises(ValueError):
            kernels(0.5, 7.0)
        with pytest.raises(ValueError):
            kernels(np.nan, 0.0)


# NaN, +-inf, theta outside [0, pi] and phi outside [0, 2*pi), past the slack
BAD_POINTS = [(np.nan, 0.0), (0.3, np.nan), (np.inf, 0.0), (-np.inf, 0.0), (0.3, np.inf),
              (0.3, -np.inf), (-1e-6, 0.0), (np.pi + 1e-6, 0.0), (7.0, 0.0), (0.3, -1e-6),
              (0.3, 2 * np.pi + 1e-6), (0.3, 7.0)]


class TestAngleCheck:
    """Every public path checks its angles where the kernel is built."""

    @pytest.mark.parametrize("theta,phi", BAD_POINTS)
    def test_bad_angles_raise_on_every_path(self, theta, phi):
        state = reference_state("up_up")
        with pytest.raises(ValueError):
            kernels(theta, phi)
        with pytest.raises(ValueError):  # one bad point in a batch
            kernels([0.1, theta, 0.2], [0.4, phi, 0.5])
        with pytest.raises(ValueError):
            equal_angle_values([state], (1, 2), theta, phi)
        with pytest.raises(ValueError):
            wigner_values([state], (1, 2), [kernels(0.1, 0.4), kernels(theta, phi)])
        samples = [([(0.5 * i, 1.5 * i)], 0.5) for i in range(4)] + [([(theta, phi)], 0.5)]
        with pytest.raises(ValueError):
            reconstruct_density(samples, 1)
        with pytest.raises(ValueError):
            SweepConfig(spec=ModelSpec("ti", n=2), start=0.0, stop=0.1, step=0.1,
                        theta=theta, phi=phi)

    def test_range_ends_within_the_slack_are_accepted(self):
        thetas = [0.0, np.pi, -0.5 * ANGLE_SLACK, np.pi + 0.5 * ANGLE_SLACK, 1.0]
        phis = [0.0, 2 * np.pi - 1e-12, -0.5 * ANGLE_SLACK, 2 * np.pi, 1.0]
        assert kernels(thetas, phis).shape == (5, 2, 2)
        assert np.isfinite(equal_angle_values([reference_state("up")], (1,), thetas, phis)).all()

    @pytest.mark.parametrize("shape", [(3, 4), (4, 4), (2,), (5, 3, 3), (2, 2, 2, 2)])
    def test_kernel_stack_must_end_in_2_by_2(self, shape):
        with pytest.raises(ValueError):
            wigner_values([reference_state("up")], (1,), [np.ones(shape)])


class TestKernelMulti:
    def test_two_site_pole_leading_entry(self):
        k = kernel_multi([(0.0, 0.0), (0.0, 0.0)])
        assert k[0, 0].real == pytest.approx(1.8660254037844386, abs=1e-14)

    def test_unit_trace_three_sites(self):
        rng = np.random.default_rng(4)
        pts = [rand_point(rng) for _ in range(3)]
        assert abs(np.trace(kernel_multi(pts)) - 1.0) < 1e-12

    def test_permutation_symmetry_for_identical_points(self):
        p = (1.1, 2.3)
        k = kernel_multi([p, p])
        swap = np.zeros((4, 4))
        swap[0, 0] = swap[1, 2] = swap[2, 1] = swap[3, 3] = 1.0
        assert np.max(np.abs(swap @ k @ swap - k)) < 1e-14
        # and swapping two distinct points is the same as conjugating by SWAP
        q = (0.4, 5.1)
        assert np.max(np.abs(kernel_multi([q, p]) - swap @ kernel_multi([p, q]) @ swap)) < 1e-14

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            kernel_multi([(0.0, 0.0)], n=2)


class TestWignerValue:
    def test_up_state_at_pole(self):
        assert values_at(basis_vector([0]), [[(0.0, 0.0)]])[0] == pytest.approx(HI, abs=1e-14)

    def test_maximally_mixed_is_half_everywhere(self):
        rng = np.random.default_rng(5)
        state = np.eye(2, dtype=complex) / np.sqrt(2)
        values = values_at(state, [[rand_point(rng)] for _ in range(10)])
        assert np.max(np.abs(values - 0.5)) < 1e-13

    def test_singlet_is_minus_half_at_equal_points(self):
        state = reference_state("singlet")
        rng = np.random.default_rng(6)
        values = equal_angle_values([state], (1, 2), *np.transpose([rand_point(rng)
                                                                    for _ in range(10)]))
        assert np.max(np.abs(values + 0.5)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            wigner_values([np.eye(4) / 2], (1, 2), [kernels(0.0, 0.0)])

    def test_empty_site_tuple(self):
        state = reference_state("up_up")
        with pytest.raises(ValueError, match="at least one site"):
            wigner_values([state], (), [])
        with pytest.raises(ValueError, match="at least one site"):
            equal_angle_values([state], (), 0.0, 0.0)


class TestEqualAngle:
    def test_product_state_power(self):
        state = basis_vector([0] * 6)
        got = equal_angle_values([state], tuple(range(1, 7)), 0.0, 0.0)[0, 0]
        assert got == pytest.approx(HI**6, abs=1e-12)

    def test_ghz2_single_site_marginal(self):
        state = reference_state("ghz_plus", n=2)
        rng = np.random.default_rng(7)
        values = equal_angle_values([state], (1,), *np.transpose([rand_point(rng)
                                                                 for _ in range(5)]))
        assert np.max(np.abs(values - 0.5)) < 1e-12

    def test_werner_closed_form(self):
        x = 0.7
        state = werner(x)
        rng = np.random.default_rng(8)
        values = equal_angle_values([state], (1, 2), *np.transpose([rand_point(rng)
                                                                    for _ in range(5)]))
        assert np.max(np.abs(values - (1 - 3 * x) / 4)) < 1e-12

    def test_werner_negative_exactly_when_entangled(self):
        xs = (0.2, 1 / 3, 0.34, 0.9)
        values = equal_angle_values([werner(x) for x in xs], (1, 2), 0.3, 1.0)[:, 0]
        for x, value in zip(xs, values):
            assert (value < 0) == (x > 1 / 3 + 1e-12)

    def test_matches_identity_padded_kernel_route(self):
        # independent route: full-space kernel with identity on dropped sites
        rng = np.random.default_rng(9)
        state = rand_pure(rng, 2**4)
        for sites in [(1,), (2, 4), (1, 3, 4)]:
            t, p = rand_point(rng)
            direct = oracle_value(state, [(t, p)] * len(sites), sites)
            got = equal_angle_values([state], sites, t, p)[0, 0]
            assert got == pytest.approx(direct, abs=1e-12)

    def test_cyclic_relabeling_invariance_for_ring_ground_state(self):
        gs = ground_state(ModelSpec(family="xy", n=6, lam=0.8, gamma=0.5))
        rng = np.random.default_rng(10)
        t, p = rand_point(rng)
        a, b = (equal_angle_values([gs.state], sites, t, p)[0, 0]
                for sites in ((1, 2), (2, 3)))
        assert a == pytest.approx(b, abs=1e-10)


def rand_mixed(rng, dim, rank=3):
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    return a / np.linalg.norm(a)


class TestPauliEvaluator:
    """The evaluator against the rotated-parity kron oracle, and the former
    Pauli-coefficient evaluator, now a test oracle."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_pauli_oracle(self, k):
        rng = np.random.default_rng(110 + k)
        state = rand_mixed(rng, 2**k)
        pts = [rand_point(rng) for _ in range(k)]
        pauli = pauli_contract(pauli_expectations(density(state)),
                               [bloch_factors([t], [p]) for t, p in pts])[0]
        assert values_at(state, [pts])[0] == pytest.approx(pauli, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_wigner_value_distinct_points_per_site(self, k):
        rng = np.random.default_rng(100 + k)
        for _ in range(5):
            state = rand_mixed(rng, 2**k)
            pts = [rand_point(rng) for _ in range(k)]
            assert values_at(state, [pts])[0] == pytest.approx(oracle_value(state, pts),
                                                              abs=1e-12)

    @pytest.mark.parametrize("spec", [
        ModelSpec(family="ti", n=6, lam=0.9),
        ModelSpec(family="xy", n=6, lam=1.3, gamma=0.5),
        ModelSpec(family="xxz", n=6, delta=1.0),
    ])
    def test_equal_angle_point_on_ring_ground_states(self, spec):
        state = ground_state(spec).state
        rng = np.random.default_rng(101)
        for sites in [(1,), (1, 3), (1, 2, 4), (1, 2, 3, 5), tuple(range(1, 7))]:
            t, p = rand_point(rng)
            oracle = oracle_value(state, [(t, p)] * len(sites), sites)
            got = equal_angle_values([state], sites, t, p)[0, 0]
            assert got == pytest.approx(oracle, abs=1e-12)

    def test_sphere_field_row(self):
        state = ground_state(ModelSpec(family="xxz", n=6, delta=0.5)).state
        grid = SphereGrid(7, 24)
        sites = (1, 2, 4)
        row = sphere_field(state, sites, grid)[2]
        theta = grid.thetas[2]
        oracle = [oracle_value(state, [(theta, p)] * 3, sites) for p in grid.phis]
        assert np.max(np.abs(row - oracle)) < 1e-12

    def test_expectations_are_pauli_traces(self):
        rng = np.random.default_rng(102)
        rho = density(rand_mixed(rng, 4))
        c = pauli_expectations(rho)
        assert c.shape == (4, 4) and c.dtype == float
        assert c[0, 0] == pytest.approx(1.0, abs=1e-14)
        paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
                  SIGMA_Z]
        for a in range(4):
            for b in range(4):
                direct = np.trace(rho @ np.kron(paulis[a], paulis[b])).real
                assert c[a, b] == pytest.approx(direct, abs=1e-14)

    def test_non_hermitian_state_raises(self):
        rng = np.random.default_rng(103)
        rho = density(rand_mixed(rng, 8))
        rho[0, 2] += 1e-3  # |000><010|: breaks Hermiticity, also of the (1, 2) reduction
        with pytest.raises(NumericalError):
            pauli_expectations(rho)
        with pytest.raises(NumericalError):
            pauli_expectations(partial_trace(rho, (1, 2), 3))


def sweep_oracle(cfg):
    """Per-point rotated-parity values of every label along a sweep."""
    states = [gs.state for gs in models.ground_states(cfg.spec, cfg.params, cfg.policy)]
    point = [(cfg.theta, cfg.phi)]
    return states, {sites: np.array([oracle_value(s, point * len(sites), sites) for s in states])
                    for sites in cfg.labels}


class TestBatchedEvaluator:
    """Sphere rows by phi interpolation and whole-grid sweeps, each against the
    rotated-parity oracle at every output point."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_sphere_rows_match_oracle(self, k):
        rng = np.random.default_rng(120 + k)
        n = max(k, 2)
        state = rand_mixed(rng, 2**n, rank=2)
        sites = tuple(range(n - k + 1, n + 1))
        # 7 theta rows: both poles, and 7 * 13 nodes at k = 6 span two point chunks
        for n_phi in sorted({2, 3, 7, 2 * k, 2 * k + 1}):
            grid = SphereGrid(7, n_phi)
            fld = sphere_field(state, sites, grid)
            oracle = [[oracle_value(state, [(t, p)] * k, sites) for p in grid.phis]
                      for t in grid.thetas]
            assert np.max(np.abs(fld - oracle)) < 1e-12, n_phi

    def test_sweep_across_chunk_boundary(self):
        # the line crosses a ground_states chunk (its 6-site points per stacked
        # solve) and a run of one-column 6-site states in phase_point_values
        chunk = max(1, CHUNK_BYTES // (32 * 4**6))
        run = CHUNK_BYTES // (16 * 2**6)
        cfg = SweepConfig(spec=ModelSpec("ti", n=6), start=0.5, stop=0.5 + 0.01 * (run + 1),
                          step=0.01, labels=((1, 3), tuple(range(1, 7))), theta=0.7, phi=1.9)
        assert len(cfg.params) > run > chunk
        line = sweep(cfg)
        states, oracle = sweep_oracle(cfg)
        for sites in cfg.labels:
            per_point = [equal_angle_values([s], sites, cfg.theta, cfg.phi)[0, 0]
                         for s in states]
            assert np.max(np.abs(line.values[sites] - oracle[sites])) < 1e-12
            assert np.max(np.abs(line.values[sites] - per_point)) < 1e-12

    @pytest.mark.parametrize("spec,start,policy,rank", [
        (ModelSpec("xy", n=6, gamma=0.5), 1.1547005383792517, "mixture", 2),
        (ModelSpec("ti", n=6, h=0.0), 0.0, "symmetric", 32),
    ])
    def test_mixed_rank_sweep(self, spec, start, policy, rank):
        cfg = SweepConfig(spec=spec, start=start, stop=start + 0.04, step=0.01, policy=policy,
                          labels=((1,), (1, 2, 4), tuple(range(1, 7))), theta=1.1, phi=0.4)
        line = sweep(cfg)
        states, oracle = sweep_oracle(cfg)
        ranks = [np.linalg.matrix_rank(s) for s in states]
        assert ranks[0] == rank and ranks[-1] < rank
        for sites in cfg.labels:
            assert np.max(np.abs(line.values[sites] - oracle[sites])) < 1e-12


class TestPhasePointOrder:
    """`phase_point_values`, every label from the probabilities of the state in the
    kernel's eigenbasis, against `equal_angle_values` label by label."""

    @staticmethod
    def factors(rng, n):
        """A 1-D vector, and normalized factors of 1, some and 2^n columns."""
        widths = sorted({1, int(rng.integers(1, 2**n + 1)), 2**n})
        out = [rand_pure(rng, 2**n)[:, 0]] + [rand_mixed(rng, 2**n, rank=c) for c in widths]
        return out

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_equal_angle_values(self, n):
        rng = np.random.default_rng(900 + n)
        states = self.factors(rng, n)
        thetas = np.array([0.0, np.pi, np.pi / 2, rng.uniform(0, np.pi)])  # poles, equator
        phis = np.array([0.0, 0.0, rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)])
        labels = canonical_labels(n)
        got = np.stack([phase_point_values(states, labels, t, p) for t, p in zip(thetas, phis)],
                       axis=2)  # (states, labels, points)
        for i, sites in enumerate(labels):
            want = equal_angle_values(states, sites, thetas, phis)
            assert np.all(np.abs(got[:, i] - want) <= 1e-14 * np.maximum(1.0, np.abs(want))), sites

    def test_pole_values_are_eigenvalue_products(self):
        # at the north pole the eigenbasis is the z basis: |up>^n weighs ((1 + sqrt3)/2)^k
        # and |down>^n ((1 - sqrt3)/2)^k, whatever the order eigh lists them in
        labels = [(1,), (1, 3), (1, 2, 3)]
        up, down = basis_vector([0, 0, 0]), basis_vector([1, 1, 1])
        got = phase_point_values([up, down], labels, 0.0, 0.0)
        assert np.allclose(got, [[HI, HI**2, HI**3], [LO, LO**2, LO**3]], rtol=1e-15, atol=0)

    def test_rejects_bad_angles_and_labels(self):
        state = basis_vector([0, 1])
        with pytest.raises(ValueError):
            phase_point_values([state], [(1,)], np.nan, 0.0)
        with pytest.raises(ValueError):
            phase_point_values([state], [(1, 3)], 0.0, 0.0)

    def test_empty_batch(self):
        # as equal_angle_values: no state gives no row, after the angle check
        got = phase_point_values([], [(1,), (1, 2)], 0.3, 1.2)
        assert got.shape == (0, 2) and got.dtype == float
        assert equal_angle_values([], (1, 2), [0.3], [1.2]).shape == (0, 1)
        with pytest.raises(ValueError):
            phase_point_values([], [(1,)], np.nan, 0.0)

    def test_sweep_batches(self, monkeypatch):
        # a sweep evaluates its labels per batch of at most CHUNK_BYTES of states (or one
        # larger state), as they are solved; any batching gives the same values to rounding
        cfg = SweepConfig(spec=ModelSpec("xy", n=6, gamma=0.5), start=1.0, stop=1.3, step=0.01,
                          labels=((1,), (1, 2, 4), tuple(range(1, 7))), policy="mixture",
                          theta=0.9, phi=2.1)
        calls, evaluate = [], analysis.phase_point_values
        monkeypatch.setattr(analysis, "phase_point_values", lambda states, *a: calls.append(
            [s.nbytes for s in states]) or evaluate(states, *a))
        line = sweep(cfg)
        assert len(calls) == 1 and len(calls[0]) == len(cfg.params)
        for budget in (0, 3 * 16 * 2**6):  # one state per batch; three one-column states
            calls.clear()
            monkeypatch.setattr(analysis, "CHUNK_BYTES", budget)
            other = sweep(cfg)
            assert sum(len(c) for c in calls) == len(cfg.params)
            assert all(len(c) == 1 or sum(c) <= budget for c in calls)
            if budget:  # each batch is closed only by a state that would not fit
                assert all(sum(c) + d[0] > budget for c, d in zip(calls, calls[1:]))
            for sites in cfg.labels:
                assert np.max(np.abs(line.values[sites] - other.values[sites])) <= 1e-14


class TestFactorOrder:
    """The two contraction orders of a run of same-shape states, the density
    M M^dagger and the factor sum conj(M) (K_1 x ... x K_k) M, each forced by
    rebinding `_factor_order`, against each other and the rotated-parity
    oracle; and the cost rule that picks between them."""

    @pytest.fixture
    def factor_calls(self, monkeypatch):
        """The reduced-factor stacks (s, 2^k, c) `wigner_values` contracts on the
        factor side."""
        calls, inner = [], wigner._factor_values

        def spy(m, kts, out):
            calls.append(m.shape)
            return inner(m, kts, out)

        monkeypatch.setattr(wigner, "_factor_values", spy)
        return calls

    @staticmethod
    def force(monkeypatch, factor):
        monkeypatch.setattr(wigner, "_factor_order", lambda k, columns, points: factor)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_both_orders_on_runs_of_two_shapes(self, k, monkeypatch, factor_calls):
        # three pure states, three of two columns and one more pure one: runs of
        # three, three and one, each of which every order must write whole
        rng = np.random.default_rng(170 + k)
        states = [rand_mixed(rng, 2**k, rank) for rank in (1, 1, 1, 2, 2, 2, 1)]
        pts = [[rand_point(rng) for _ in range(k)] for _ in range(3)]
        site_kernels = [kernels(*np.transpose([p[i] for p in pts])) for i in range(k)]
        oracle = np.array([[oracle_value(s, p) for p in pts] for s in states])
        got = {}
        for factor in (False, True):
            self.force(monkeypatch, factor)
            got[factor] = wigner_values(states, range(1, k + 1), site_kernels)
        assert factor_calls == [(3, 2**k, 1), (3, 2**k, 2), (1, 2**k, 1)]
        for values in got.values():
            assert np.max(np.abs(values - oracle)) < 1e-13

    def test_density_run_is_bounded_by_its_densities(self, monkeypatch):
        # 16 pure 8-site states at 181 points: the 1 MiB density of each, not its
        # 4 KiB factor, sizes the density order's runs
        rng = np.random.default_rng(180)
        states = [rand_pure(rng, 2**8) for _ in range(16)]
        thetas, phis = rng.uniform(0, np.pi, 181), rng.uniform(0, 2 * np.pi, 181)
        self.force(monkeypatch, False)
        tracemalloc.start()
        try:
            values = equal_angle_values(states, range(1, 9), thetas, phis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values.shape == (16, 181)
        assert peak < 4 * CHUNK_BYTES + sum(s.nbytes for s in states)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_one_point_distinct_kernel_per_site(self, k, monkeypatch, factor_calls):
        rng = np.random.default_rng(130 + k)
        states = [rand_mixed(rng, 2**k, rank) for rank in (1, 2, 2**k)]
        pts = [rand_point(rng) for _ in range(k)]
        site_kernels = [kernels(t, p) for t, p in pts]
        sites = tuple(range(1, k + 1))
        self.force(monkeypatch, False)
        by_density = wigner_values(states, sites, site_kernels)
        assert not factor_calls
        self.force(monkeypatch, True)
        by_factor = wigner_values(states, sites, site_kernels)
        runs = [(1, 2**k, 1), (1, 2**k, 2), (1, 2**k, 2**k)] if k > 1 else [(1, 2, 1), (2, 2, 2)]
        assert factor_calls == runs
        oracle = [[oracle_value(s, pts)] for s in states]
        assert np.max(np.abs(by_factor - by_density)) < 1e-13
        assert np.max(np.abs(by_factor - oracle)) < 1e-13

    @pytest.mark.parametrize("rank,traced", [(1, 1), (2, 0)])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_sphere_grid_across_point_chunks(self, k, rank, traced, monkeypatch, factor_calls):
        # a pure state with one site traced out, or a rank-2 one with none: two
        # columns either way. Each order is forced, and the budget rebound to
        # split the factor order's points into chunks.
        rng = np.random.default_rng(140 + k)
        state = rand_mixed(rng, 2**(k + traced), rank)
        sites, grid = tuple(range(1 + traced, k + 1 + traced)), SphereGrid(7, 5)
        columns, budget = 2, 16 * 4**k - 16
        assert max(1, budget // (16 * 2**k * columns)) < grid.n_theta * (2 * k + 1)
        self.force(monkeypatch, False)
        by_density = sphere_field(state, sites, grid)
        monkeypatch.setattr(wigner, "CHUNK_BYTES", budget)
        self.force(monkeypatch, True)
        by_factor = sphere_field(state, sites, grid)
        assert factor_calls == [(1, 2**k, columns)]
        oracle = [[oracle_value(state, [(t, p)] * k, sites) for p in grid.phis]
                  for t in grid.thetas]
        assert np.max(np.abs(by_factor - by_density)) < 1e-13
        assert np.max(np.abs(by_factor - oracle)) < 1e-13

    @pytest.mark.parametrize("k", [9, 10])
    def test_default_budget_from_nine_sites(self, k, factor_calls):
        rng = np.random.default_rng(150 + k)
        state = rand_pure(rng, 2**10)
        sites = tuple(range(11 - k, 11))
        samples = [[rand_point(rng) for _ in range(k)] for _ in range(3)]
        got = wigner_values([state], sites, [kernels(*np.transpose([pts[i] for pts in samples]))
                                             for i in range(k)])[0]
        assert factor_calls == [(1, 2**k, 2**(10 - k))]
        oracle = [oracle_value(state, pts, sites) for pts in samples]
        assert np.max(np.abs(got - oracle)) < 1e-13

    def test_order_choice(self):
        # shapes of the fitting grid where, in calls of 1 or of 16 states, one order
        # was at least 1.35 times faster in each of three timings (one BLAS thread),
        # and that order, which the rule must pick
        factor, density = True, False
        for k, columns, points, order in [
                (4, 1, 181, density), (4, 1, 1629, density), (4, 16, 1, density),
                (5, 1, 1, factor), (5, 32, 181, density),
                (6, 1, 181, factor), (6, 2, 2353, density), (6, 8, 1, factor),
                (6, 64, 181, density),
                (7, 1, 2715, factor), (7, 8, 181, density), (7, 128, 1, density),
                (8, 1, 3077, factor), (8, 2, 181, factor), (8, 16, 1, factor),
                (8, 16, 181, density), (8, 256, 3077, density),
                (9, 16, 3439, factor), (9, 512, 181, density),
                (10, 1, 3801, factor), (10, 32, 1, factor), (10, 1024, 1, factor),
                (10, 1024, 181, density)]:
            assert wigner._factor_order(k, columns, points) == order, (k, columns, points)
        # every label of at most four sites keeps the density order on the grid
        assert not any(wigner._factor_order(k, c, p) for k in range(1, 5)
                       for c in (1, 2, 2**(k // 2), 2**k) for p in (1, 181, 181 * (2 * k + 1)))
        # a pure label of seven or more sites takes the factor order at any count
        assert all(wigner._factor_order(k, 1, p) for k in range(7, 13) for p in (1, 10**3, 10**6))

    def test_pure_n12_tot_memory(self):
        # the 4^12 density alone would be 256 MiB; 40 points are three point chunks
        rng = np.random.default_rng(160)
        state = rand_pure(rng, 2**12)
        thetas, phis = rng.uniform(0, np.pi, 40), rng.uniform(0, 2 * np.pi, 40)
        tracemalloc.start()
        try:
            values = equal_angle_values([state], range(1, 13), thetas, phis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values.shape == (1, 40)
        assert peak < 4 * CHUNK_BYTES + state.nbytes


class TestSphereField:
    def test_singlet_field_constant(self):
        fld = sphere_field(reference_state("singlet"), (1, 2), SphereGrid(9, 12))
        assert fld.shape == (9, 12)
        assert np.max(np.abs(fld + 0.5)) < 1e-12

    def test_up_field_maximum_at_north_pole(self):
        fld = sphere_field(reference_state("up"), (1,), SphereGrid(19, 24))
        assert fld[0, 0] == pytest.approx(HI, abs=1e-13)
        assert np.argmax(fld.max(axis=1)) == 0

    def test_matches_pointwise_evaluation(self):
        rng = np.random.default_rng(11)
        state = rand_pure(rng, 2**3)
        grid = SphereGrid(5, 8)
        fld = sphere_field(state, (1, 3), grid)
        tt, pp = np.meshgrid(grid.thetas, grid.phis, indexing="ij")
        pointwise = equal_angle_values([state], (1, 3), tt.ravel(), pp.ravel())
        assert np.max(np.abs(fld - pointwise.reshape(fld.shape))) < 1e-12

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SphereGrid(1, 10)

    def test_default_grid_is_181_by_360(self):
        assert sphere_field(reference_state("up"), (1,)).shape == (181, 360)


def sphere_field_every_harmonic(state, sites, grid):
    """The sphere synthesis before the harmonic band, kept as the oracle: each
    theta row at 2k + 1 equispaced phi nodes, mapped onto the grid's phis by the
    degree-k Dirichlet kernel, whatever harmonics the state carries."""
    k = len(sites)
    node_phis = np.arange(2 * k + 1) * (2 * np.pi / (2 * k + 1))
    tt, pp = np.meshgrid(grid.thetas, node_phis, indexing="ij")
    rows = equal_angle_values([state], sites, tt.ravel(), pp.ravel()).reshape(-1, 2 * k + 1)
    x = grid.phis - node_phis[:, None]
    return rows @ ((1 + 2 * sum(np.cos(m * x) for m in range(1, k + 1))) / (2 * k + 1))


class TestHarmonicBand:
    GRID = SphereGrid(13, 36)
    LABELS_6 = [(1,), (1, 2), (1, 3, 5), (1, 2, 3, 4, 5, 6)]

    def assert_matches_oracle(self, state, labels):
        for sites in labels:
            want = sphere_field_every_harmonic(state, sites, self.GRID)
            got = sphere_field(state, sites, self.GRID)
            assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want))), sites

    def test_dense_factors_carry_every_harmonic(self):
        rng = np.random.default_rng(29)
        for rank in (1, 3):
            state = rand_mixed(rng, 2**4, rank)
            labels = [(2,), (1, 3), (1, 2, 4), (1, 2, 3, 4)]
            assert [wigner._band(reduced_factor(state, sites)) for sites in labels] == [1, 2, 3, 4]
            self.assert_matches_oracle(state, labels)

    @pytest.mark.parametrize("spec, policy, bands", [
        (ModelSpec("ti", lam=0.7), "symmetric", [0, 2, 2, 6]),
        # odd parity: down counts 1, 3 and 5 only
        (ModelSpec("xy", lam=1.3, gamma=0.5), "symmetric", [0, 2, 2, 4]),
        (ModelSpec("xy", lam=models.xy_factorization_point(0.5), gamma=0.5), "mixture",
         [1, 2, 3, 6]),
    ], ids=["ti", "xy", "xy-factorization-mixture"])
    def test_parity_states_match_the_oracle(self, spec, policy, bands):
        state = ground_state(spec, policy).state
        assert [wigner._band(reduced_factor(state, sites)) for sites in self.LABELS_6] == bands
        self.assert_matches_oracle(state, self.LABELS_6)

    @pytest.mark.parametrize("n", [6, 7])
    def test_xxz_rows_are_one_repeated_value(self, n):
        # total S_z is conserved, so every label has band 0: one node per theta row
        state = ground_state(ModelSpec("xxz", n=n, delta=1.0)).state
        labels = [(1, 2), (1, 3, 5), tuple(range(1, n + 1))]
        self.assert_matches_oracle(state, labels)
        for sites in labels:
            assert wigner._band(reduced_factor(state, sites)) == 0
            fld = sphere_field(state, sites, self.GRID)
            assert np.array_equal(fld, np.repeat(fld[:, :1], fld.shape[1], axis=1)), sites

    def test_band_is_the_largest_count_difference_of_the_density(self):
        rng = np.random.default_rng(31)
        for k in (1, 2, 3, 4, 5):
            down = np.array([bin(r).count("1") for r in range(2**k)])
            for density_of_nonzeros in (0.05, 0.2, 0.5):
                for columns in (1, 3):
                    m = rng.normal(size=(2**k, columns)) + 1j * rng.normal(size=(2**k, columns))
                    m[rng.random(m.shape) > density_of_nonzeros] = 0
                    r, s = np.nonzero(m @ m.conj().T)
                    brute = int(np.max(np.abs(down[r] - down[s]), initial=0))
                    assert wigner._band(m) == brute, (k, m)
        assert wigner._band(np.zeros((8, 2))) == 0


class TestReferenceStates:
    @pytest.mark.parametrize("kind,n", [
        ("up", None), ("up_up", None), ("up_down", None), ("bell_psi_plus", None),
        ("singlet", None), ("psi_plus_4", None), ("ghz_plus", 6), ("ghz_minus", 4),
        ("neel_minus_4", None), ("neel_minus_6", None), ("mixed_single", None),
        ("ghz_mixture", 6),
    ])
    def test_all_kinds_are_density_matrices(self, kind, n):
        rho = density(reference_state(kind, n=n))
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho)[0] >= -1e-10

    def test_ghz6_pole_value(self):
        # brute-force oracle: 0.5*(HI^6 + LO^6) = 3.25 exactly
        state = reference_state("ghz_plus", n=6)
        got = equal_angle_values([state], range(1, 7), 0.0, 0.0)[0, 0]
        assert got == pytest.approx(0.5 * (HI**6 + LO**6), abs=1e-12)
        assert got == pytest.approx(3.25, abs=1e-12)

    def test_bell_psi_plus_pole_value(self):
        # direct 4x4 trace oracle
        state = reference_state("bell_psi_plus")
        kernel = np.kron(PARITY_POINT_OP, PARITY_POINT_OP)
        oracle = float(np.real(np.trace(density(state) @ kernel)))
        assert oracle == pytest.approx(-0.5, abs=1e-14)
        got = equal_angle_values([state], (1, 2), 0.0, 0.0)[0, 0]
        assert got == pytest.approx(oracle, abs=1e-14)

    def test_mixed_single_uniform(self):
        rng = np.random.default_rng(12)
        state = reference_state("mixed_single")
        values = values_at(state, [[rand_point(rng)] for _ in range(5)])
        assert np.max(np.abs(values - 0.5)) < 1e-13

    def test_ghz_mixture_equals_ghz_marginals(self):
        # dropping any site from GHZ leaves the coherence-free mixture
        ghz = reference_state("ghz_plus", n=4)
        mix3 = reference_state("ghz_mixture", n=3)
        assert np.max(np.abs(partial_trace(density(ghz), (1, 2, 3), 4) - density(mix3))) < 1e-12

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            reference_state("ghz_plus")
        with pytest.raises(ValueError):
            reference_state("singlet", n=3)
        with pytest.raises(ValueError):
            reference_state("cat")


class TestReconstruction:
    def test_single_qubit_round_trip(self):
        rng = np.random.default_rng(13)
        state = rand_pure(rng, 2)
        points = [[rand_point(rng)] for _ in range(8)]
        rec, residual = reconstruct_density(zip(points, values_at(state, points)), 1)
        assert np.linalg.norm(rec - density(state)) < 1e-8
        assert residual < 1e-10

    def test_werner_parameter_recovery(self):
        rng = np.random.default_rng(14)
        x = 0.7
        singlet = density(reference_state("singlet"))
        state = werner(x)
        points = [[rand_point(rng) for _ in range(2)] for _ in range(32)]
        rec, _ = reconstruct_density(zip(points, values_at(state, points)), 2)
        x_hat = (4 * float(np.real(np.trace(rec @ singlet))) - 1) / 3
        assert abs(x_hat - x) < 1e-6

    def test_too_few_samples_rejected(self):
        rng = np.random.default_rng(15)
        state = rand_pure(rng, 2)
        points = [[rand_point(rng)] for _ in range(3)]
        with pytest.raises(NumericalError):
            reconstruct_density(zip(points, values_at(state, points)), 1)

    def test_rank_deficient_samples_rejected(self):
        # repeating one phase point cannot span the state space
        rng = np.random.default_rng(16)
        state = rand_pure(rng, 2)
        pts = [rand_point(rng)]
        samples = [(pts, values_at(state, [pts])[0])] * 6
        with pytest.raises(NumericalError):
            reconstruct_density(samples, 1)


class TestMarginalQuadrature:
    """Angular-integration route (product Gauss-Legendre) as the oracle for
    the partial-trace reduction."""

    @staticmethod
    def quadrature_marginal(state, retained, n, nodes=64):
        glx, glw = np.polynomial.legendre.leggauss(nodes)
        phis = np.arange(nodes) * (2 * np.pi / nodes)
        total = 0.0
        rho = density(state)
        k_ret = kernel_multi(retained) if retained else np.array([[1.0 + 0j]])
        for u, w in zip(glx, glw):
            theta = float(np.arccos(u))
            for phi in phis:
                kern = np.kron(k_ret, kernels(theta, phi))
                total += w * (2 * np.pi / nodes) * float(np.real(np.trace(rho @ kern)))
        return total / (2 * np.pi)

    def test_marginal_matches_partial_trace_n2(self):
        rng = np.random.default_rng(17)
        state = rand_pure(rng, 4)
        reduced = reduced_factor(state, (1,))
        for _ in range(3):
            p = rand_point(rng)
            got = self.quadrature_marginal(state, [p], 2)
            assert got == pytest.approx(values_at(reduced, [[p]])[0], abs=1e-8)

    def test_iterated_marginal_gives_normalization(self):
        # peel one sphere off at a time; the final integral must be Tr rho = 1
        rng = np.random.default_rng(18)
        for n in (2, 3):
            state = rand_pure(rng, 2**n)
            for k in range(n, 1, -1):
                probe = [rand_point(rng) for _ in range(k - 1)]
                by_quad = self.quadrature_marginal(state, probe, k)
                reduced = reduced_factor(state, tuple(range(1, k)))
                assert by_quad == pytest.approx(values_at(reduced, [probe])[0], abs=1e-8)
                state = reduced
            assert self.quadrature_marginal(state, [], 1) == pytest.approx(1.0, abs=1e-8)
