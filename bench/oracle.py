"""Independent dense oracle for spot-checking CLI output at any seed.

Shares no code with the package: the Hamiltonian is assembled from Kronecker
products of real 2x2 matrices (sigma_y sigma_y = -(i sigma_y)(i sigma_y) is
real), diagonalised with numpy's real eigh, reduced by a partial trace of
the ground-state projector, and evaluated against the Bloch-form kernel
(1 + sqrt3 n.sigma)/2. Only meant for rows whose ground state is unique and
gapped, where the eigenvector is well conditioned.
"""

import numpy as np

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
ISY = np.array([[0.0, 1.0], [-1.0, 0.0]])  # i * sigma_y, real
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
SQRT3 = np.sqrt(3.0)


def _site_product(ops, n):
    """Kronecker product over n sites of {site: 2x2 op}, identity elsewhere."""
    out = np.ones((1, 1))
    for site in range(1, n + 1):
        out = np.kron(out, ops.get(site, np.eye(2)))
    return out


def hamiltonian(family, n, param, h=1.0, gamma=1.0, j=1.0):
    """Real dense H of the ti, xy or xxz ring; param is lambda or delta."""
    H = np.zeros((2**n, 2**n))
    bonds = [(i, i % n + 1) for i in range(1, n + 1)]
    for a, b in bonds:
        xx = _site_product({a: SX, b: SX}, n)
        if family == "ti":
            H -= param * xx
            continue
        yy = -_site_product({a: ISY, b: ISY}, n)
        if family == "xy":
            H -= param / 2 * ((1 + gamma) * xx + (1 - gamma) * yy)
        else:
            H += j / 4 * (xx + yy + param * _site_product({a: SZ, b: SZ}, n))
    if family in ("ti", "xy"):
        for site in range(1, n + 1):
            H -= h * _site_product({site: SZ}, n)
    return H


def ground_state(H):
    """(energy, gap, ground-state vector) of a real symmetric matrix."""
    w, v = np.linalg.eigh(H)
    return float(w[0]), float(w[1] - w[0]), v[:, 0]


def reduced_density(psi, sites, n):
    """Partial trace of |psi><psi| onto `sites` (1-based, increasing)."""
    keep = [s - 1 for s in sites]
    rest = [i for i in range(n) if i not in keep]
    m = np.transpose(psi.reshape((2,) * n), keep + rest).reshape(2 ** len(keep), -1)
    return m @ m.conj().T


def kernel(theta, phi):
    """Bloch-form single-qubit kernel (1 + sqrt3 n.sigma)/2."""
    nx, ny, nz = np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)
    return 0.5 * np.array([[1 + SQRT3 * nz, SQRT3 * (nx - 1j * ny)],
                           [SQRT3 * (nx + 1j * ny), 1 - SQRT3 * nz]])


def equal_angle(rho, theta, phi):
    """Tr[rho K^(x)k] with every kept site at (theta, phi)."""
    k = int(np.log2(rho.shape[0]))
    K = np.ones((1, 1))
    for _ in range(k):
        K = np.kron(K, kernel(theta, phi))
    return float(np.real(np.sum(rho * K.T)))


def sites_of(label, n):
    """Sites of a CLI label name: 'tot', '135' or '1.3.10'."""
    if label == "tot":
        return list(range(1, n + 1))
    if "." in label:
        return [int(p) for p in label.split(".")]
    return [int(c) for c in label]
