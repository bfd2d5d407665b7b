"""Symmetric eigenvalues by Householder tridiagonalization and Sturm multisection,
plus trace-identity checks.

The matrices are small dense integer matrices and eigenvectors are never
needed, so the solver reduces the matrix once to tridiagonal form T with
n - 2 Householder reflections (Golub & Van Loan, *Matrix Computations*,
section 8.3) and then locates every eigenvalue of T by Sturm counts (section
8.4; Barth, Martin & Wilkinson, Numer. Math. 9, 1967). The counts are taken
for all n eigenvalue indices at once: each step splits every index's bracket
at seven interior points (multisection), one pass over the rows of T for all
7n shifts together. Every operation is elementwise numpy (no BLAS call) in a
fixed order, so repeat solves are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericError
from .graph import DenseSymMatrix, NonPermutabilityGraph

DEFAULT_TOL = 1e-12
MAX_STEPS = 64  # far above need: each step shrinks a bracket eightfold
_POINTS = 7  # interior points per bracket and multisection step
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with multiplicity, ascending.

    `reflections`, `steps` and `width` record the solver's work (Householder
    reflections applied, multisection steps) and its final largest bracket
    width; they take no part in equality and are never printed or cached.
    """

    values: tuple[float, ...]
    reflections: int = field(default=0, compare=False)
    steps: int = field(default=0, compare=False)
    width: float = field(default=0.0, compare=False)

    @property
    def dimension(self) -> int:
        return len(self.values)

    def to_csv(self) -> str:
        return "\n".join(f"{v:.12g}" for v in self.values)

    def rounded(self) -> tuple[int, ...]:
        return tuple(int(round(v)) for v in self.values)


def _tridiagonalize(data: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Diagonal d, off-diagonal e and reflection count of T = Q^T A Q.

    Reflection k maps column k below the diagonal onto its first entry
    alpha = -sign(x0)*||x||; it is skipped when that column is already
    zero below the subdiagonal. The trailing block is updated as
    A - v w^T - w v^T with p = beta A v, w = p - (beta/2)(p.v) v, and the
    rank-2 term is summed as one symmetric matrix, so the block stays
    exactly symmetric.
    """
    n = data.shape[0]
    a = data.copy()
    e = np.empty(n - 1)
    scratch = np.empty(2 * (n - 1) ** 2)
    reflections = 0
    for k in range(n - 2):
        x = a[k + 1:, k]
        sigma = float((x[1:] * x[1:]).sum())
        if sigma == 0.0:
            e[k] = x[0]
            continue
        m = n - 1 - k
        outer = scratch[:m * m].reshape(m, m)
        twice = scratch[m * m:2 * m * m].reshape(m, m)
        x0 = float(x[0])
        alpha = -math.copysign(math.sqrt(x0 * x0 + sigma), x0)
        v = x.copy()
        v[0] = x0 - alpha
        beta = 2.0 / float((v * v).sum())
        block = a[k + 1:, k + 1:]
        np.multiply(block, v, out=outer)
        p = outer.sum(axis=1)
        p *= beta
        w = p - (0.5 * beta * float((p * v).sum())) * v
        np.multiply.outer(v, w, out=outer)
        np.add(outer, outer.T, out=twice)
        block -= twice
        e[k] = alpha
        reflections += 1
    e[n - 2] = a[n - 1, n - 2]
    return np.diag(a).copy(), e, reflections


def _sturm_counts(d: np.ndarray, e2: np.ndarray, pivmin: float, x: np.ndarray) -> np.ndarray:
    """Number of eigenvalues of T below each shift in x.

    These are the negative pivots q_i = (d_i - e_{i-1}^2 / q_{i-1}) - x of
    the LDL^T factorization of T - x, taken row by row for all shifts at
    once. A pivot below pivmin in magnitude, zero included, is replaced by
    -pivmin, so no division overflows (LAPACK dstebz's guard).
    """
    q = np.subtract(d[0], x)
    negative = np.empty(x.size, dtype=bool)
    count = np.zeros(x.size, dtype=np.intp)
    for i in range(d.size):
        if i:
            np.divide(e2[i - 1], q, out=q)
            np.subtract(d[i], q, out=q)
            q -= x
        # a pivot below pivmin is negative once guarded, so the mask is the count
        np.less(q, pivmin, out=negative)
        np.minimum(q, -pivmin, out=q, where=negative)
        count += negative
    return count


def eigenvalues_symmetric(matrix: DenseSymMatrix, tol: float = DEFAULT_TOL) -> Spectrum:
    """All eigenvalues of a real symmetric matrix, ascending.

    Householder reflections reduce the matrix to tridiagonal T. Every
    eigenvalue index starts from T's Gershgorin interval; each multisection
    step splits each bracket into eight equal parts and keeps the one whose
    ends the Sturm counts place the eigenvalue between. Steps continue until
    every bracket is at most

        width = 2 * eps * ||T||_inf * max(1, tol / DEFAULT_TOL) + 4 * pivmin

    wide, where eps is the double-precision machine epsilon and
    pivmin = tiny * max(1, max e_i^2) is the pivot guard. At DEFAULT_TOL this
    is machine-precision width; a looser tol widens it in proportion and a
    tighter one cannot narrow it. Each value is its bracket's midpoint.

    InputError for a non-finite or non-positive tol and for a non-finite or
    non-symmetric matrix; NumericError when the arithmetic overflows or the
    brackets have not closed after MAX_STEPS steps.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise InputError("tolerance must be positive and finite")
    data = np.asarray(matrix.data, dtype=float)
    if not np.isfinite(data).all():
        raise InputError("matrix entries must be finite")
    if data.size and not np.array_equal(data, data.T):
        raise InputError("matrix is not symmetric")
    n = data.shape[0]
    if n <= 1:
        return Spectrum(tuple(float(v) for v in np.diag(data)))

    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            d, e, reflections = _tridiagonalize(data)
            e2 = e * e
            pivmin = _TINY * max(1.0, float(e2.max()))
            abs_e = np.abs(e)
            radius = np.zeros(n)
            radius[:-1] += abs_e
            radius[1:] += abs_e
            norm = float((np.abs(d) + radius).max())
            width = 2.0 * _EPS * norm * max(1.0, tol / DEFAULT_TOL) + 4.0 * pivmin

            index = np.arange(n)
            lo = np.full(n, float((d - radius).min()))
            hi = np.full(n, float((d + radius).max()))
            fractions = np.arange(1, _POINTS + 1) / (_POINTS + 1)
            grid = np.empty((n, _POINTS + 2))
            steps = 0
            while (hi - lo).max() > width:
                if steps == MAX_STEPS:
                    raise NumericError(f"bisection did not converge in {MAX_STEPS} steps")
                steps += 1
                grid[:, 0], grid[:, -1] = lo, hi
                np.multiply.outer(hi - lo, fractions, out=grid[:, 1:-1])
                grid[:, 1:-1] += lo[:, None]
                counts = _sturm_counts(d, e2, pivmin, grid[:, 1:-1].reshape(-1))
                # counts rise with the shift, so the points whose count is at most
                # index j are a prefix; eigenvalue j lies just past the last of them
                below = (counts.reshape(n, _POINTS) <= index[:, None]).sum(axis=1)
                lo, hi = grid[index, below], grid[index, below + 1]
            values = np.sort(0.5 * (lo + hi))
    except FloatingPointError as exc:
        raise NumericError(f"eigenvalue computation overflowed: {exc}") from None
    return Spectrum(tuple(float(v) for v in values), reflections, steps, float((hi - lo).max()))


def spectral_sums(spectrum: Spectrum) -> tuple[float, float]:
    """(sum of values, sum of squared values)."""
    total = math.fsum(spectrum.values)
    squares = math.fsum(v * v for v in spectrum.values)
    return total, squares


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    lhs: float
    rhs: float
    tolerance: float
    passed: bool

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": float(f"{self.lhs:.12g}"),
            "rhs": float(f"{self.rhs:.12g}"),
            "residual": float(f"{self.residual:.6g}"),
            "tolerance": float(f"{self.tolerance:.6g}"),
            "passed": self.passed,
        }


def verify_trace_identities(graph: NonPermutabilityGraph, adj_spectrum: Spectrum,
                            lap_spectrum: Spectrum) -> list[IdentityCheck]:
    """Compare the floating spectra against the exact doubled edge count.

    The Laplacian eigenvalue sum and the squared adjacency eigenvalue sum both
    equal 2|E| exactly; the raw adjacency sum is the zero trace.
    """
    two_e = 2 * graph.edge_count
    tol = 1e-8 * max(1, two_e)
    lap_sum, _ = spectral_sums(lap_spectrum)
    adj_sum, adj_sq = spectral_sums(adj_spectrum)
    checks = [
        ("laplacian_sum_vs_edges", lap_sum, float(two_e)),
        ("adjacency_sum_vs_zero", adj_sum, 0.0),
        ("adjacency_square_sum_vs_edges", adj_sq, float(two_e)),
    ]
    return [
        IdentityCheck(name, lhs, rhs, tol, abs(lhs - rhs) <= tol)
        for name, lhs, rhs in checks
    ]
