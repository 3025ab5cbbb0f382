"""Dense operator algebra for small qubit registers.

Conventions used throughout the package:
  * site indices are 1-based; site 1 is the leftmost tensor factor,
  * |up> = (1, 0) is the +1 eigenvector of sigma_z,
  * the Pauli matrices are complex 2 x 2 arrays; a chain Hamiltonian is a
    real dense array of dimension 2^n, a symmetry is its diagonal, and the
    solver works on its momentum x sector blocks (see `models`), each solved by
    a plain `np.linalg.eigh`,
  * a state is a (2^n, r) factor A of its density matrix rho = A A^dagger, and
    n is read off its rows: a pure state is one column (a 1-D vector is the
    r = 1 case), a mixture one column per weighted component,
  * stacked work (a sweep's block solves in `models`, a chunk's densities in
    `wigner`) is sized in chunks from the one budget CHUNK_BYTES.
"""

import numpy as np

from .errors import ConfigError

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

CHUNK_BYTES = 2**20  # working set of one chunk of stacked matrices, in both layers


def n_sites(dim):
    """Number of qubits for a Hilbert-space dimension; rejects non powers of 2."""
    n = int(dim).bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of 2")
    return n


def basis_vector(bits):
    """Product basis vector from iterable of 0 (up) / 1 (down), site 1 first."""
    idx = 0
    for b in bits:
        idx = 2 * idx + int(b)
    vec = np.zeros(2 ** len(bits), dtype=complex)
    vec[idx] = 1.0
    return vec


def all_up_vector(n):
    return basis_vector([0] * n)


def validate_label(sites, n):
    """Validate an ordered site subset (1-based, strictly increasing)."""
    sites = tuple(int(s) for s in sites)
    if not 1 <= len(sites) <= n:
        raise ValueError(f"label {sites} must select between 1 and {n} sites")
    if any(s < 1 or s > n for s in sites):
        raise ValueError(f"label {sites} has indices outside [1, {n}]")
    if any(b <= a for a, b in zip(sites, sites[1:])):
        raise ValueError(f"label {sites} must be strictly increasing")
    return sites


def validate_labels(labels, n):
    """Validate each label of a set; a site subset named twice is a ConfigError."""
    labels = tuple(validate_label(l, n) for l in labels)
    twice = sorted({label_name(l, n) for l in labels if labels.count(l) > 1})
    if twice:
        raise ConfigError(f"the label set names the same site subset twice: {', '.join(twice)}")
    return labels


def label_name(sites, n):
    """Name of a site subset: 'tot' for all sites, '135' if every site is below 10,
    else '1.10', and '12.' for one site above 9, which '12' would read as {1, 2}."""
    sites = tuple(sites)
    if len(sites) == n:
        return "tot"
    if all(s <= 9 for s in sites):
        return "".join(str(s) for s in sites)
    return ".".join(str(s) for s in sites) + "." * (len(sites) == 1)


def parse_label(text, n):
    """Inverse of label_name: 'tot', '135', or dot-separated '1.3.10' or '12.'."""
    text = text.strip()
    if text == "tot":
        return tuple(range(1, n + 1))
    parts = [p for p in text.split(".") if p] if "." in text else list(text)
    if not all(p.isdigit() for p in parts):
        raise ValueError(f"cannot parse correlation label {text!r}")
    return validate_label([int(p) for p in parts], n)


def reduced_factor(state, keep):
    """Factor M, Tr_rest[A A^dagger] = M M^dagger, of the reduced state on the sites
    in `keep` (1-based, increasing) of a factor A whose 2^n rows give n: the kept
    sites' axes of A move to the front and the rest fold into the columns, which
    M M^dagger sums over. A stack (q, 2^n, r) of same-shape factors gives the
    stack (q, 2^k, -1) of their reduced factors, by one transpose."""
    state = np.asarray(state, dtype=complex)
    lead = max(state.ndim - 2, 0)  # a 1-D vector or a (2^n, r) factor has no stack axis
    n = n_sites(state.shape[lead])
    keep = validate_label(keep, n)
    rest = [i for i in range(n + 1) if i + 1 not in keep]  # axis n is the columns
    t = state.reshape(state.shape[:lead] + (2,) * n + (-1,))
    t = t.transpose([*range(lead), *(lead + s - 1 for s in keep), *(lead + i for i in rest)])
    return t.reshape(state.shape[:lead] + (2 ** len(keep), -1))
