"""Independent reference implementations used to cross-check the library.

Everything here is written against the textbook matrix formulations (explicit
solves, slogdet, eigendecompositions) rather than the SVD fast paths used by
the package, so agreement is meaningful. ``ListAdamW`` is the per-array
optimizer that the package's flat in-place ``AdamW`` must reproduce exactly.
"""

import math

import numpy as np


def direct_log_evidence(phi: np.ndarray, y: np.ndarray, alpha: float, beta: float) -> float:
    """Per-sample Bayesian ridge log evidence from explicit matrices."""
    n, d = phi.shape
    a_mat = alpha * np.eye(d) + beta * (phi.T @ phi)
    m = beta * np.linalg.solve(a_mat, phi.T @ y)
    res = max(float(np.sum((phi @ m - y) ** 2)), 1e-12)
    _, logdet = np.linalg.slogdet(a_mat)
    total = 0.5 * (
        n * math.log(beta)
        + d * math.log(alpha)
        - n * math.log(2.0 * math.pi)
        - beta * res
        - alpha * float(m @ m)
        - logdet
    )
    return total / n


def _grid_evidence_surface(
    phi: np.ndarray, y: np.ndarray, log10_lo=-4.0, log10_hi=4.0, step=0.05
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample evidence on an (alpha, beta) log10 grid.

    Uses an eigendecomposition of phi^T phi, a different matrix route from
    both the package's SVD path and ``direct_log_evidence``. Returns the
    grid values and the (alpha-index, beta-index) evidence surface.
    """
    n, d = phi.shape
    w, q = np.linalg.eigh(phi.T @ phi)
    w = np.maximum(w, 0.0)
    b = q.T @ (phi.T @ y)
    y_sq = float(y @ y)
    grid = 10.0 ** np.arange(log10_lo, log10_hi + step / 2, step)
    surface = np.empty((grid.size, grid.size))
    for i, alpha in enumerate(grid):
        denom = alpha + np.outer(grid, w)  # (G, d)
        m = grid[:, None] * b[None, :] / denom
        res = np.maximum(y_sq - 2.0 * (m @ b) + (m * m) @ w, 1e-12)
        m_sq = np.sum(m * m, axis=1)
        logdet = np.sum(np.log(denom), axis=1)
        surface[i] = 0.5 * (
            n * np.log(grid)
            + d * math.log(alpha)
            - n * math.log(2.0 * math.pi)
            - grid * res
            - alpha * m_sq
            - logdet
        ) / n
    return grid, surface


def grid_argmax_evidence(
    phi: np.ndarray, y: np.ndarray, log10_lo=-4.0, log10_hi=4.0, step=0.05
) -> tuple[float, float, float]:
    """Brute-force (evidence, alpha, beta) maximising on a log10 grid."""
    grid, surface = _grid_evidence_surface(phi, y, log10_lo, log10_hi, step)
    i, j = np.unravel_index(int(np.argmax(surface)), surface.shape)
    return float(surface[i, j]), float(grid[i]), float(grid[j])


def grid_argmax_ties(
    phi: np.ndarray,
    y: np.ndarray,
    tie_tol: float = 1e-9,
    log10_lo=-4.0,
    log10_hi=4.0,
    step=0.05,
) -> list[tuple[float, float]]:
    """All grid points whose evidence ties the grid maximum within tie_tol.

    Flat ridges make the literal argmax arbitrary among near-equal cells;
    a fixed point is considered grid-confirmed when it lands within a cell
    of any tied point.
    """
    grid, surface = _grid_evidence_surface(phi, y, log10_lo, log10_hi, step)
    best = float(surface.max())
    rows, cols = np.nonzero(surface >= best - tie_tol)
    return [(float(grid[i]), float(grid[j])) for i, j in zip(rows, cols)]


def quadratic_hsic(z1: np.ndarray, z2: np.ndarray, g1: float, g2: float) -> float:
    """O(m^2) scalar-loop HSIC via the three-term population expansion."""
    m = z1.shape[0]
    k = np.zeros((m, m))
    l = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            dl = z1[i] - z1[j]
            dk = z2[i] - z2[j]
            l[i, j] = math.exp(-g1 * float(dl @ dl))
            k[i, j] = math.exp(-g2 * float(dk @ dk))
    t1 = sum(k[i, j] * l[i, j] for i in range(m) for j in range(m)) / (m * m)
    t2 = (k.sum() / (m * m)) * (l.sum() / (m * m))
    t3 = 2.0 * sum(k[i].sum() * l[i].sum() for i in range(m)) / (m ** 3)
    return t1 + t2 - t3


class ListAdamW:
    """Adam with bias correction and decoupled weight decay over a list of arrays.

    Plain per-array numpy expressions with fresh temporaries, one array at a
    time.
    """

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params, grads):
        assert len(params) == len(grads) == len(self.m)
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            if self.weight_decay:
                p -= self.lr * self.weight_decay * p
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
