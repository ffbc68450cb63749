"""Reference P1 kernels for the tests, built independently of plapsys.

The element-major textbook path: basis-function gradients per element,
element gradients gathered through `Grid.elements`, every element matrix
scattered as COO triplets over all nodes and converted to CSR by scipy,
which sums the duplicates; the interior block is sliced out with np.ix_.
This is the oracle that the package's stencil-native kernels, which work
on lattice slices, are checked against; `densify` turns the Newton
matrix's stencil diagonals back into a dense matrix, and `element_order`
turns a lattice-shaped element array into the order of `Grid.elements`.
"""

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import spsolve


def grad_phi(grid):
    """Basis-function gradients (E, d+1, d) of every element, its vertices
    in the order of `Grid.elements`."""
    if grid.d == 1:
        (hx,) = grid.spacing
        return np.broadcast_to([[-1.0 / hx], [1.0 / hx]], (grid.n, 2, 1))
    hx, hy = grid.spacing
    lower = [[-1.0 / hx, 0.0], [1.0 / hx, -1.0 / hy], [0.0, 1.0 / hy]]
    upper = [[0.0, -1.0 / hy], [1.0 / hx, 0.0], [-1.0 / hx, 1.0 / hy]]
    return np.tile(np.array([lower, upper]), (grid.n * grid.n, 1, 1))


def gathered_gradients(grid, values):
    """Element gradients G (E, d) gathered through `Grid.elements`, and |G|^2."""
    G = np.einsum("ev,evd->ed", values[grid.elements], grad_phi(grid))
    return G, np.einsum("ed,ed->e", G, G)


def element_order(grid, A):
    """An array (..., n) in 1-D or (..., 2, n, n) in 2-D of per-element
    values on the lattice, as (..., E) in the order of `Grid.elements`."""
    if grid.d == 1:
        return A
    return np.moveaxis(A, -3, -1).reshape(A.shape[:-3] + (-1,))


def weights(G2, p, reg):
    """(|G|^2 + reg^2)^((p-2)/2), 0 where the base vanishes."""
    base = G2 + reg * reg
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(base > 0.0, base ** ((p - 2.0) / 2.0), 0.0)


def residual(grid, u, p, f, reg):
    """Weak residual sum_e area W_e (G_e . grad phi_i) + m_i f_i at every
    node, scattered element by element with np.add.at."""
    G, G2 = gathered_gradients(grid, u)
    contrib = np.einsum("ed,evd->ev", G, grad_phi(grid)) * weights(G2, p, reg)[:, None]
    out = np.zeros(grid.n_nodes)
    np.add.at(out, grid.elements, contrib * grid.element_measure)
    return out + grid.lumped * f


def energy(grid, u, p, f, reg):
    """sum_e (1/p) (|G_e|^2 + reg^2)^(p/2) area + sum_i m_i f_i u_i."""
    _, G2 = gathered_gradients(grid, u)
    return np.sum((G2 + reg * reg) ** (p / 2.0)) * grid.element_measure / p + np.dot(
        grid.lumped * f, u
    )


def assemble_coo(grid, W, Wp=None, G=None):
    """Full-node matrix sum_e area [W gphi_a.gphi_b + Wp (G.gphi_a)(G.gphi_b)]."""
    gp = grad_phi(grid)
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


def p2_solve(grid, h, f):
    """The p = 2 minimizer with the boundary values of the nodal values h
    and the nodal source f: K_II u_I = -K_IB h_B - m_I f_I by spsolve."""
    A = stiffness_matrix(grid)
    I, B = grid.interior, grid.boundary
    u = np.array(h, dtype=float)
    rhs = -(A[np.ix_(I, B)] @ h[B]) - (grid.lumped * f)[I]
    u[I] = spsolve(A[np.ix_(I, I)].tocsc(), rhs)
    return u


def newton_matrix(grid, u, p, reg):
    """Interior block of the Hessian of the regularized p-energy at u, with
    the weights (|G|^2 + reg^2)^((p-2)/2) and (p-2)(|G|^2 + reg^2)^((p-4)/2)."""
    G, G2 = gathered_gradients(grid, u)
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
