"""Symmetric eigenvalues by Householder tridiagonalization and Sturm multisection,
plus trace-identity checks.

The matrices are small dense integer matrices and eigenvectors are never
needed, so the solver reduces the matrix once to tridiagonal form T with
n - 2 Householder reflections (Golub & Van Loan, *Matrix Computations*,
section 8.3) and then locates every eigenvalue of T by Sturm counts (section
8.4; Barth, Martin & Wilkinson, Numer. Math. 9, 1967). The counts are taken
per distinct bracket, as in LAPACK dstebz, so a cluster of equal eigenvalues
is bisected once: each step splits every bracket at seven interior points
(multisection), one pass over the rows of T for all shifts together. Every
operation is elementwise numpy (no BLAS call) in a fixed order, so repeat
solves are bit-identical.
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

    `reflections`, `steps`, `width` and `shifts` record the solver's work
    (Householder reflections applied, multisection steps, the final largest
    bracket width and the Sturm shifts evaluated); they take no part in
    equality and are never printed or cached.
    """

    values: tuple[float, ...]
    reflections: int = field(default=0, compare=False)
    steps: int = field(default=0, compare=False)
    width: float = field(default=0.0, compare=False)
    shifts: int = field(default=0, compare=False)

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

    Householder reflections reduce the matrix to tridiagonal T. One bracket,
    T's Gershgorin interval, starts out holding all n eigenvalue indices.
    Each multisection step splits every bracket into eight equal parts and
    keeps the parts whose end Sturm counts differ; a part holds the indices
    from its left end's count up to its right end's. Steps continue until
    every bracket is at most

        width = 2 * eps * ||T||_inf * max(1, tol / DEFAULT_TOL) + 4 * pivmin

    wide, where eps is the double-precision machine epsilon and
    pivmin = tiny * max(1, max e_i^2) is the pivot guard. At DEFAULT_TOL this
    is machine-precision width; a looser tol widens it in proportion and a
    tighter one cannot narrow it. Each value is its bracket's midpoint,
    repeated once per index the bracket holds.

    InputError for a non-finite or non-positive tol and for a non-finite or
    non-symmetric matrix; NumericError when the arithmetic overflows, when
    the Sturm counts fall as the shift rises, or when the brackets have not
    closed after MAX_STEPS steps.
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

            lo = np.array([float((d - radius).min())])
            hi = np.array([float((d + radius).max())])
            c_lo, c_hi = np.array([0]), np.array([n])  # each bracket holds indices [c_lo, c_hi)
            fractions = np.arange(1, _POINTS + 1) / (_POINTS + 1)
            steps = shifts = 0
            while (hi - lo).max() > width:
                if steps == MAX_STEPS:
                    raise NumericError(f"bisection did not converge in {MAX_STEPS} steps")
                steps += 1
                inner = np.multiply.outer(hi - lo, fractions) + lo[:, None]
                shifts += inner.size
                grid = np.column_stack((lo, inner, hi))
                # the end counts are carried from the step that made each bracket
                counts = np.column_stack((
                    c_lo, _sturm_counts(d, e2, pivmin, inner.ravel()).reshape(inner.shape), c_hi))
                # a part holds the eigenvalues counted at its right end but not its left
                keep = counts[:, 1:] > counts[:, :-1]
                lo, hi = grid[:, :-1][keep], grid[:, 1:][keep]
                c_lo, c_hi = counts[:, :-1][keep], counts[:, 1:][keep]
                if int((c_hi - c_lo).sum()) != n:  # rising counts tile [0, n) exactly
                    raise NumericError("Sturm counts fell as the shift rose")
            values = np.repeat(0.5 * (lo + hi), c_hi - c_lo)
    except FloatingPointError as exc:
        raise NumericError(f"eigenvalue computation overflowed: {exc}") from None
    return Spectrum(tuple(float(v) for v in values), reflections, steps,
                    float((hi - lo).max()), shifts)


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
