"""Cyclic Jacobi eigensolver for real symmetric matrices, plus trace-identity checks.

Jacobi rotations are the right tool here: the matrices are small dense
integer matrices, convergence for symmetric input is guaranteed, and a fixed
cyclic sweep order makes the result deterministic. Eigenvectors are never
needed.

The sweep order is a parallel round-robin ordering in the sense of Brent and
Luk (SIAM J. Sci. Stat. Comput. 1985): each sweep is one round-robin
tournament on the indices (the circle method), n - 1 rounds of n/2 disjoint
pairs; an odd n gets one idle index. The rotations of a round commute, so
they are applied together as whole-array updates. The order is fixed,
so the iteration is still a deterministic cyclic Jacobi method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InputError, NumericError
from .graph import DenseSymMatrix, NonPermutabilityGraph

DEFAULT_TOL = 1e-12
MAX_SWEEPS = 100


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with multiplicity, ascending.

    `sweeps`, `rotations` and `off_norm` record the solver's work and its
    final off-diagonal Frobenius norm; they take no part in equality and are
    never printed or cached.
    """

    values: tuple[float, ...]
    sweeps: int = field(default=0, compare=False)
    rotations: int = field(default=0, compare=False)
    off_norm: float = field(default=0.0, compare=False)

    @property
    def dimension(self) -> int:
        return len(self.values)

    def to_csv(self) -> str:
        return "\n".join(f"{v:.12g}" for v in self.values)

    def rounded(self) -> tuple[int, ...]:
        return tuple(int(round(v)) for v in self.values)


@lru_cache(maxsize=32)
def _round_robin(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Layout and round-to-round permutation of the round-robin tournament on m (even) players.

    Round r pairs player m-1 with r, and r+k with r-k (mod m-1) for
    0 < k < m/2: the circle method. The iterate is stored so that the pairs
    of the current round sit at positions (2k, 2k+1). `layout[x]` is the
    player at position x in round 0, which is also the layout at every sweep
    boundary. Every player but m-1 moves on by one place per round, so the
    next round's layout takes position x from position `source[x]` of the
    current one, the same permutation in every round.
    """
    ring = m - 1
    layout = np.empty(m, dtype=np.intp)
    layout[0], layout[1] = 0, ring
    k = np.arange(1, m // 2)
    layout[2::2] = k
    layout[3::2] = ring - k
    position = np.empty(m, dtype=np.intp)
    position[layout] = np.arange(m)
    source = position[(layout + 1) % ring]
    source[1] = 1
    layout.flags.writeable = source.flags.writeable = False  # shared by the cache
    return layout, source


def _off_norm(a: np.ndarray, scratch: np.ndarray) -> float:
    """Frobenius norm of the off-diagonal part, summed from those entries alone."""
    np.multiply(a, a, out=scratch)
    scratch.reshape(-1)[:: a.shape[0] + 1] = 0.0
    return math.sqrt(float(scratch.sum()))


def _permute(a: np.ndarray, order: np.ndarray, scratch: np.ndarray) -> None:
    """a <- a[order][:, order], in place, through a scratch array of the same shape."""
    np.take(a, order, axis=0, out=scratch, mode="clip")
    np.take(scratch, order, axis=1, out=a, mode="clip")


def _tangents(app: np.ndarray, apq: np.ndarray, aqq: np.ndarray,
              live: np.ndarray) -> np.ndarray:
    """tan of the Jacobi angle that zeroes each live a_pq; 0 (no rotation) elsewhere.

    t = sign(tau) / (|tau| + sqrt(1 + tau^2)) with tau = (a_qq - a_pp) / (2 a_pq),
    where tau = -0.0 counts as tau >= 0, as in the scalar form.
    """
    tau = np.divide(aqq - app, 2.0 * apq, out=np.zeros_like(apq), where=live)
    t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.hypot(1.0, tau))
    t[~live] = 0.0
    return t


def eigenvalues_symmetric(matrix: DenseSymMatrix, tol: float = DEFAULT_TOL) -> Spectrum:
    """Cyclic Jacobi iteration in the round-robin parallel ordering until the
    off-diagonal Frobenius norm drops below tol*(1 + ||M||_F), or NumericError
    after MAX_SWEEPS sweeps.

    A round rotates every pair (p, q) of the round with |a_pq| above
    tol*||M||_F/n. The pairs are disjoint, so the round is one product
    J^T A J with J block diagonal: a complex multiplication rotates all
    column pairs at once, and a transpose turns the row rotations into column
    rotations. Each rotated 2x2 block is then set exactly (diagonal
    a_pp - t*a_pq and a_qq + t*a_pq, off-diagonal 0), and the iterate is kept
    exactly symmetric. The returned diagonal approximates the spectrum within
    the final off-diagonal norm, which the Spectrum records with the sweep
    and rotation counts.
    """
    if tol <= 0:
        raise InputError("tolerance must be positive")
    data = np.asarray(matrix.data, dtype=float)
    if data.size and not np.array_equal(data, data.T):
        raise InputError("matrix is not symmetric")
    n = data.shape[0]
    if n <= 1:
        return Spectrum(tuple(float(v) for v in np.diag(data)))

    norm = math.sqrt(float((data * data).sum()))
    stop = tol * (1.0 + norm)
    # scaled by 1/n so a sweep that skips everything already satisfies the
    # stop criterion (off-norm <= n * floor < stop); otherwise tiny entries
    # sitting just under the floor could stall the iteration above it
    rotate_floor = tol * norm / n

    m = n + (n & 1)  # an odd n gets an idle index: a zero row and column
    layout, source = _round_robin(m)
    a, b = np.zeros((m, m)), np.empty((m, m))
    a[:n, :n] = data
    _permute(a, layout, b)
    a_flat = a.reshape(-1)
    # column pair (2k, 2k+1) of each row read as one complex number, so the
    # rotation of all the round's column pairs is one complex multiplication
    a_pairs, b_pairs = a.view(np.complex128), b.view(np.complex128)
    block = 2 * m + 2  # flat stride between consecutive pairs' 2x2 blocks

    sweeps = rotations = 0
    off = _off_norm(a, b)
    while off >= stop:
        if sweeps == MAX_SWEEPS:
            raise NumericError(f"Jacobi iteration did not converge in {MAX_SWEEPS} sweeps")
        sweeps += 1
        rotated = 0
        for _ in range(m - 1):
            app = a_flat[0::block].copy()
            apq = a_flat[1::block].copy()
            aqq = a_flat[m + 1::block].copy()
            live = np.abs(apq) > rotate_floor
            count = int(np.count_nonzero(live))
            if count:
                rotated += count
                t = _tangents(app, apq, aqq, live)
                c = 1.0 / np.sqrt(1.0 + t * t)
                turn = c + 1j * (t * c)  # (c + is)(x + iy) = (cx - sy) + i(sx + cy)
                # a = A J, b = a^T = J^T A, b = b J / 2 = J^T A J / 2; then
                # a = b^T + b is J^T A J made exactly symmetric
                np.multiply(a_pairs, turn, out=a_pairs)
                np.copyto(b, a.T)
                np.multiply(b_pairs, 0.5 * turn, out=b_pairs)
                np.copyto(a, b.T)
                a += b
                shift = t * apq
                a_flat[0::block] = app - shift
                a_flat[m + 1::block] = aqq + shift
                np.copyto(a_flat[1::block], 0.0, where=live)
                np.copyto(a_flat[m::block], 0.0, where=live)
            _permute(a, source, b)
        rotations += rotated
        off = _off_norm(a, b)
        if not rotated:
            break

    diagonal = np.diag(a)[layout < n]
    return Spectrum(tuple(sorted(float(v) for v in diagonal)), sweeps, rotations, off)


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
                            lap_spectrum: Spectrum,
                            tol: float | None = None) -> list[IdentityCheck]:
    """Compare the floating spectra against the exact doubled edge count.

    The Laplacian eigenvalue sum and the squared adjacency eigenvalue sum both
    equal 2|E| exactly; the raw adjacency sum is the zero trace.
    """
    two_e = 2 * graph.edge_count
    if tol is None:
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
