import itertools

import numpy as np
import pytest

from dense_oracles import density, embed, kron_all, partial_trace

from spinphase.qcore import (SIGMA_X, SIGMA_Y, SIGMA_Z, all_up_vector, basis_vector, label_name,
                             n_sites, parse_label, reduced_factor, validate_label)

SQ3 = np.sqrt(3.0)


def rand_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def rand_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class TestPauli:
    def test_sigma_z_diagonal(self):
        assert np.array_equal(SIGMA_Z, np.diag([1.0 + 0j, -1.0]))

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_involutory_traceless_hermitian(self, axis):
        s = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}[axis]
        assert np.allclose(s @ s, np.eye(2))
        assert np.trace(s) == 0
        assert np.allclose(s, s.conj().T)


class TestEmbed:
    def test_site1_is_leftmost_factor(self):
        assert np.array_equal(embed(SIGMA_Z, 1, 2), np.kron(SIGMA_Z, np.eye(2)))

    def test_eigenaction_on_up_down(self):
        # |up down>: site 2 down picks up -1 from sigma_z there
        vec = basis_vector([0, 1])
        assert np.allclose(embed(SIGMA_Z, 2, 2) @ vec, -vec)

    def test_trace_multiplicativity(self):
        assert abs(np.trace(embed(SIGMA_X, 3, 6))) == 0

    def test_site_out_of_range(self):
        with pytest.raises(ValueError):
            embed(SIGMA_X, 0, 3)
        with pytest.raises(ValueError):
            embed(SIGMA_X, 4, 3)

    def test_disjoint_sites_commute(self):
        rng = np.random.default_rng(11)
        a = rand_hermitian(rng, 2)
        b = rand_hermitian(rng, 2)
        ab = embed(a, 2, 4) @ embed(b, 4, 4)
        ba = embed(b, 4, 4) @ embed(a, 2, 4)
        assert np.max(np.abs(ab - ba)) < 1e-12


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        phi_plus = (basis_vector([0, 0]) + basis_vector([1, 1])) / np.sqrt(2)
        reduced = partial_trace(density(phi_plus), (1,))
        assert np.max(np.abs(reduced - np.eye(2) / 2)) < 1e-12

    def test_product_factor(self):
        reduced = partial_trace(density(basis_vector([0, 0])), (2,))
        assert np.max(np.abs(reduced - density(basis_vector([0])))) < 1e-12

    def test_ghz3_two_site_marginal(self):
        ghz = (basis_vector([0, 0, 0]) + basis_vector([1, 1, 1])) / np.sqrt(2)
        reduced = partial_trace(density(ghz), (1, 2))
        expected = 0.5 * (density(basis_vector([0, 0]))
                          + density(basis_vector([1, 1])))
        assert np.max(np.abs(reduced - expected)) < 1e-12

    def test_nested_labels_consistent(self):
        rng = np.random.default_rng(3)
        rho = rand_density(rng, 2**5)
        # keep {2,4} directly vs via the intermediate subset {2,3,4}
        direct = partial_trace(rho, (2, 4), 5)
        mid = partial_trace(rho, (2, 3, 4), 5)
        nested = partial_trace(mid, (1, 3), 3)  # sites 2,4 relabeled inside {2,3,4}
        assert np.max(np.abs(direct - nested)) < 1e-12

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(4)
        rho = rand_density(rng, 2**4)
        for keep in [(1,), (2, 3), (1, 4), (1, 2, 3, 4)]:
            red = partial_trace(rho, keep, 4)
            assert abs(np.trace(red) - 1.0) < 1e-12
            assert np.max(np.abs(red - red.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(red)[0] >= -1e-10

    def test_dimension_mismatch(self):
        rho = np.eye(8) / 8
        with pytest.raises(ValueError):
            partial_trace(rho, (4,), 3)
        with pytest.raises(ValueError):
            partial_trace(rho, (1,), 4)


class TestReducedFactor:
    """The reshape reduction of a state factor against the dense partial-trace oracle."""

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_matches_partial_trace_oracle_for_every_label(self, rank):
        rng = np.random.default_rng(20 + rank)
        for n in range(1, 6):
            a = rng.normal(size=(2**n, rank)) + 1j * rng.normal(size=(2**n, rank))
            a /= np.linalg.norm(a)
            rho = density(a)
            for k in range(1, n + 1):
                for keep in itertools.combinations(range(1, n + 1), k):
                    m = reduced_factor(a, keep)
                    assert m.shape == (2**k, 2 ** (n - k) * rank)
                    assert np.max(np.abs(m @ m.conj().T - partial_trace(rho, keep, n))) < 1e-14

    def test_vector_is_the_one_column_factor(self):
        rng = np.random.default_rng(24)
        vec = rng.normal(size=16) + 1j * rng.normal(size=16)
        assert np.array_equal(reduced_factor(vec, (2, 4)), reduced_factor(vec[:, None], (2, 4)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            reduced_factor(np.ones((8, 2)), (4,))
        with pytest.raises(ValueError):
            reduced_factor(np.ones((6, 2)), (1,))


class TestLabels:
    def test_validate_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            validate_label((2, 2), 4)
        with pytest.raises(ValueError):
            validate_label((3, 1), 4)
        with pytest.raises(ValueError):
            validate_label((), 4)

    def test_names_round_trip(self):
        assert label_name((1, 3, 5), 6) == "135"
        assert label_name(tuple(range(1, 7)), 6) == "tot"
        assert parse_label("135", 6) == (1, 3, 5)
        assert parse_label("tot", 6) == tuple(range(1, 7))
        assert parse_label("1.3.10", 10) == (1, 3, 10)
        assert label_name((1, 10), 12) == "1.10"

    @pytest.mark.parametrize("n", [10, 11, 12])
    def test_every_label_has_its_own_name_and_reads_back(self, n):
        # a single site above 9 ends in a dot: '12.' is site 12, '12' the sites {1, 2}
        labels = [sites for k in range(1, n + 1)
                  for sites in itertools.combinations(range(1, n + 1), k)]
        names = [label_name(sites, n) for sites in labels]
        assert len(set(names)) == len(labels)
        assert [parse_label(name, n) for name in names] == labels
        assert (label_name((10,), n), parse_label("10.", n)) == ("10.", (10,))

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_label("1a", 6)
        with pytest.raises(ValueError):
            parse_label("17", 6)


def test_n_sites_rejects_non_power_of_two():
    assert n_sites(64) == 6
    with pytest.raises(ValueError):
        n_sites(12)


def test_kron_all_and_up_vector():
    assert np.array_equal(all_up_vector(3), basis_vector([0, 0, 0]))
    ident = kron_all([np.eye(2)] * 3)
    assert np.array_equal(ident, np.eye(8))
