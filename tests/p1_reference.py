"""Reference P1 matrices for the tests, assembled independently of plapsys.

Every element matrix is scattered as COO triplets over all nodes and
converted to CSR by scipy, which sums the duplicates; the interior block is
sliced out with np.ix_.  This is the textbook path, kept here as the oracle
that the package's assembly into cached stencil diagonals is checked
against; `densify` turns those diagonals back into a dense matrix.
"""

import numpy as np
from scipy.sparse import csr_matrix

from plapsys.field import element_gradients


def assemble_coo(grid, W, Wp=None, G=None):
    """Full-node matrix sum_e area [W gphi_a.gphi_b + Wp (G.gphi_a)(G.gphi_b)]."""
    gp = grid.grad_phi
    Ke = W[:, None, None] * np.einsum("ead,ebd->eab", gp, gp)
    if Wp is not None:
        t = np.einsum("ed,ead->ea", G, gp)
        Ke = Ke + Wp[:, None, None] * (t[:, :, None] * t[:, None, :])
    Ke = Ke * grid.element_measure
    m = grid.elements.shape[1]
    rows = np.repeat(grid.elements, m, axis=1).ravel()
    cols = np.tile(grid.elements, (1, m)).ravel()
    return csr_matrix((Ke.ravel(), (rows, cols)), shape=(grid.n_nodes, grid.n_nodes))


def stiffness_matrix(grid):
    """P1 Laplace stiffness over all nodes."""
    return assemble_coo(grid, np.ones(grid.n_elements))


def newton_matrix(grid, u, p, reg):
    """Interior block of the Hessian of the regularized p-energy at u, with
    the weights (|G|^2 + reg^2)^((p-2)/2) and (p-2)(|G|^2 + reg^2)^((p-4)/2)."""
    G, G2 = element_gradients(grid, u)
    base = G2 + reg * reg
    W = base ** ((p - 2.0) / 2.0)
    Wp = (p - 2.0) * base ** ((p - 4.0) / 2.0)
    I = grid.interior
    return assemble_coo(grid, W, Wp, G)[np.ix_(I, I)]


def densify(D, offsets):
    """Dense N x N matrix with H[i, i + offsets[k]] = D[k, i], for the
    diagonals D (K, N) of plap._newton_system; an entry whose column falls
    outside 0 .. N-1 must be 0."""
    K, N = D.shape
    H = np.zeros((N, N))
    for d, o in zip(D, offsets):
        i = np.arange(N)
        inside = (i + o >= 0) & (i + o < N)
        assert not d[~inside].any(), f"nonzero entry outside the matrix at offset {o}"
        H[i[inside], i[inside] + o] = d[inside]
    return H
