"""Symmetric and Hermitian eigenvalues by Householder tridiagonalization and
Sturm multisection, plus trace-identity checks.

The matrices are small and dense, real symmetric or complex Hermitian, and
eigenvectors are never needed, so the solver reduces each matrix once to
tridiagonal form T with n - 2 Householder reflections (Golub & Van Loan,
*Matrix Computations*, section 8.3) and then locates every eigenvalue of T by
Sturm counts (section 8.4; Barth, Martin & Wilkinson, Numer. Math. 9, 1967).
One reduction serves both kinds of input; it conjugates only complex ones.
T is diagonally unitarily similar to the real symmetric tridiagonal matrix
with the same diagonal and off-diagonal |e_i|, and the Sturm counts read
only d_i and |e_i|^2, so the reduction keeps those and from there on both
kinds of input take the same path.

The counts are taken per distinct bracket, as in LAPACK dstebz, so a
cluster of equal eigenvalues is bisected once: each step splits every
bracket at seven interior points (multisection). One call solves a batch of
matrices: every bracket carries its matrix, and each step makes one pass
over the rows for the shifts of all brackets together, each shift against
its own matrix's rows, so a small matrix does not pay a pass of numpy calls
per row on its own. Every operation is elementwise numpy (no BLAS call) in
a fixed order, and each shift sees exactly the floats of a solve of its
matrix alone, so a spectrum does not depend on the batch it was solved in
and repeat solves are bit-identical.

The matrices of a call are streamed: each argument's `data` is read once,
in order, checked and reduced, and the dense array is dropped before the
next argument's is read, so a caller may hand in objects that form their
entries only when `data` is read (`degrees` does, one per symmetry block)
and at most one dense matrix is alive at a time. Matrices whose reductions
are byte-equal (diagonal, off-diagonal moduli and reflection count) share
one multisection entry and one Spectrum: everything the multisection reads
is a function of those, so the shared Spectrum is bit-identical to each
one's own solve."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericError
from .graph import DenseSymMatrix

# The relative accuracy of a spectrum at the machine-precision stop width.
DEFAULT_TOL = 1e-12
MAX_STEPS = 64  # far above need: each step shrinks a bracket eightfold
_POINTS = 7  # interior points per bracket and multisection step
_FRACTIONS = np.arange(1, _POINTS + 1) / (_POINTS + 1)
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with multiplicity, ascending.

    `reflections`, `steps`, `width` and `shifts` record the solver's work
    (Householder reflections applied, multisection steps, the final largest
    bracket width and the Sturm shifts evaluated); they take no part in
    equality and are never printed or cached. A graph spectrum solved in
    symmetry-adapted blocks (see `degrees`) holds the blocks' values merged
    in ascending order, each block's repeated its multiplicity times; its
    `reflections` and `shifts` are sums over the blocks solved, and its
    `steps` and `width` their maxima.
    """

    values: tuple[float, ...]
    reflections: int = field(default=0, compare=False)
    steps: int = field(default=0, compare=False)
    width: float = field(default=0.0, compare=False)
    shifts: int = field(default=0, compare=False)

    @property
    def dimension(self) -> int:
        return len(self.values)


def _squared_norm(x: np.ndarray, hermitian: bool) -> float:
    """sum |x_i|^2 of a complex x, or of a real x squared as it is, with no
    imaginary part formed."""
    if hermitian:
        return float((x.real * x.real + x.imag * x.imag).sum())
    return float((x * x).sum())


def _tridiagonalize(data: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Real diagonal d, off-diagonal moduli |e| and reflection count of
    T = Q^H A Q, for A real symmetric or complex Hermitian.

    Reflection k maps column x, below the diagonal of column k, onto its
    first entry alpha = -phase(x0)*||x||, with phase(x0) = sign(x0) (copysign,
    so -0.0 counts as negative) for real A and x0/|x0| (1 when x0 = 0) for
    complex A. It is skipped when sigma, the squared norm of x below x0, is
    below the smallest normal double: x is then zero below x0 to within
    sqrt(tiny) ~ 1.5e-154 per entry, and were x0 as small, v^H v would
    underflow and beta overflow. With
    v = x - alpha e_1, beta = 2/(v^H v), p = beta A v and
    w = p - (beta/2)(v^H p) v, the trailing block is updated as
    A - v w^H - w v^H, the rank-2 term summed as one matrix plus its
    conjugate transpose, so the block stays exactly symmetric or Hermitian
    and its diagonal real. Complex conjugates are taken only for complex A,
    so a real A runs the real arithmetic alone. T is similar, by a diagonal
    unitary matrix, to the real symmetric tridiagonal matrix with
    off-diagonal |e|, which has A's eigenvalues, so only the moduli
    |alpha| = ||x|| are kept.
    """
    hermitian = np.iscomplexobj(data)
    scalar = complex if hermitian else float
    n = data.shape[0]
    a = data.copy()
    e = np.empty(n - 1)
    scratch = np.empty(2 * (n - 1) ** 2, dtype=a.dtype)
    reflections = 0
    for k in range(n - 2):
        x = a[k + 1:, k]
        sigma = _squared_norm(x[1:], hermitian)
        x0 = scalar(x[0])
        if sigma < _TINY:
            e[k] = abs(x0)
            continue
        m = n - 1 - k
        outer = scratch[:m * m].reshape(m, m)
        twice = scratch[m * m:2 * m * m].reshape(m, m)
        norm = math.sqrt(x0.real * x0.real + x0.imag * x0.imag + sigma)
        phase = (x0 / abs(x0) if x0 else 1.0) if hermitian else math.copysign(1.0, x0)
        v = x.copy()
        v[0] = x0 + phase * norm
        beta = 2.0 / _squared_norm(v, hermitian)
        block = a[k + 1:, k + 1:]
        np.multiply(block, v, out=outer)
        p = outer.sum(axis=1)
        p *= beta
        vp = (v.conj() * p).sum().real if hermitian else (v * p).sum()
        w = p - (0.5 * beta * float(vp)) * v
        np.multiply.outer(v, w.conj() if hermitian else w, out=outer)
        if hermitian:  # conj(outer^T) + outer, with no conjugate copy formed
            np.conjugate(outer.T, out=twice)
            twice += outer
        else:
            np.add(outer, outer.T, out=twice)
        block -= twice
        e[k] = norm
        reflections += 1
    e[n - 2] = abs(scalar(a[n - 1, n - 2]))
    return np.diag(a).real.copy(), e, reflections


def _stack(ds: list[np.ndarray], e2s: list[np.ndarray]) -> np.ndarray:
    """rows[i, j] = (d_i, e_{i-1}^2) of tridiagonal matrix j: its diagonal
    entry in row i and the squared coupling into row i; zero past its size."""
    rows = np.zeros((max(d.size for d in ds), len(ds), 2))
    for j, (d, e2) in enumerate(zip(ds, e2s)):
        rows[:d.size, j, 0] = d
        rows[1:d.size, j, 1] = e2
    return rows


def _sturm_counts(rows: np.ndarray, dims: np.ndarray, pivmins: np.ndarray,
                  x: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Number of eigenvalues below each shift x[s] of tridiagonal matrix owner[s].

    Matrix j has dimension dims[j], pivot guard pivmins[j] and its rows in
    rows[:, j] (see `_stack`); `owner` must not decrease, and dims must not
    increase along it. The counts are the negative pivots
    q_i = (d_i - e_{i-1}^2 / q_{i-1}) - x of the LDL^T factorization of T - x,
    taken row by row for every shift at once. A pivot below pivmin in
    magnitude, zero included, is replaced by -pivmin, so no division
    overflows (LAPACK dstebz's guard). Row i gathers each shift's own d_i and
    e_{i-1}^2 into a shift-length buffer and leaves out the shifts of the
    matrices without a row i, which come last, so every shift sees exactly
    the floats of its own matrix counted alone.
    """
    pivmin = pivmins[owner]
    floor = -pivmin
    size = dims[owner]
    q, row = np.empty(x.size), np.empty((x.size, 2))
    negative = np.empty(x.size, dtype=bool)
    count = np.zeros(x.size, dtype=np.intp)
    first = 0
    for last in sorted(set(dims.tolist())):
        k = int(np.count_nonzero(size >= last))  # rows [first, last) hold the first k shifts
        if not k:
            break
        qk, xk, ok, rk, dk, ek = q[:k], x[:k], owner[:k], row[:k], row[:k, 0], row[:k, 1]
        pk, fk, nk, ck = pivmin[:k], floor[:k], negative[:k], count[:k]
        for i in range(first, last):
            rows[i].take(ok, axis=0, out=rk, mode="clip")
            if i:
                np.divide(ek, qk, out=qk)
                np.subtract(dk, qk, out=qk)
                qk -= xk
            else:
                np.subtract(dk, xk, out=qk)
            # a pivot below pivmin is negative once guarded, so the mask is the count
            np.less(qk, pk, out=nk)
            np.minimum(qk, fk, out=qk, where=nk)
            ck += nk
        first = last
    return count


@dataclass(frozen=True)
class _Tridiagonal:
    """One matrix reduced for the multisection: T's diagonal d and squared
    off-diagonal e2, the pivot guard, the stop width and T's Gershgorin
    interval [lo, hi]. `key` is the reduction's bytes (d, the moduli |e| and
    the reflection count), from which every other field follows."""

    position: int
    d: np.ndarray
    e2: np.ndarray
    pivmin: float
    width: float
    lo: float
    hi: float
    reflections: int
    key: tuple[bytes, bytes, int]


def _label(position: int, dimension: int) -> str:
    """How an error names one matrix of a call."""
    return f"matrix {position} (dimension {dimension})"


def _reduce(position: int, data: np.ndarray) -> _Tridiagonal:
    """Householder reduction of `data` and its multisection start."""
    n = data.shape[0]
    d, e, reflections = _tridiagonalize(data)
    e2 = e * e
    pivmin = _TINY * max(1.0, float(e2.max()))
    abs_e = np.abs(e)
    radius = np.zeros(n)
    radius[:-1] += abs_e
    radius[1:] += abs_e
    norm = float((np.abs(d) + radius).max())
    width = 2.0 * _EPS * norm + 4.0 * pivmin
    return _Tridiagonal(position, d, e2, pivmin, width, float((d - radius).min()),
                        float((d + radius).max()), reflections,
                        (d.tobytes(), e.tobytes(), reflections))


def _multisection(batch: list[_Tridiagonal]) -> list[Spectrum]:
    """The spectrum of each matrix of `batch`, which comes largest matrix first.

    The brackets of all matrices sit in one set of arrays, grouped by matrix
    in batch order; `own` is each bracket's matrix. All matrices start
    together, so each one still stepping has taken `step` steps. A matrix
    steps while any of its brackets is wider than its width, and its
    spectrum is read off, and its brackets dropped, once none is.
    """
    m = len(batch)
    if not m:
        return []
    rows = _stack([t.d for t in batch], [t.e2 for t in batch])
    dims = np.array([t.d.size for t in batch])
    pivmins = np.array([t.pivmin for t in batch])
    width = np.array([t.width for t in batch])
    lo, hi = np.array([t.lo for t in batch]), np.array([t.hi for t in batch])
    c_lo, c_hi = np.zeros(m, dtype=np.intp), dims.copy()  # each bracket holds indices [c_lo, c_hi)
    own = np.arange(m)
    brackets = np.zeros(m, dtype=np.intp)  # per matrix, summed over its steps
    spectra: list[Spectrum] = [None] * m
    stepping = np.ones(m, dtype=bool)
    for step in range(MAX_STEPS + 1):
        gap = hi - lo
        wide = np.bincount(own, weights=gap > width[own], minlength=m) > 0
        closed = np.flatnonzero(stepping & ~wide)
        if closed.size:
            for j in closed.tolist():
                mine = own == j
                values = np.repeat(0.5 * (lo[mine] + hi[mine]), c_hi[mine] - c_lo[mine])
                spectra[j] = Spectrum(tuple(values.tolist()), batch[j].reflections,
                                      step, float(gap[mine].max()), _POINTS * int(brackets[j]))
            stepping = wide
            if not stepping.any():
                return spectra
            keep = stepping[own]
            lo, hi, gap, c_lo, c_hi, own = (a[keep] for a in (lo, hi, gap, c_lo, c_hi, own))
        if step == MAX_STEPS:
            t = batch[own[0]]
            raise NumericError(f"{_label(t.position, t.d.size)}: "
                               f"bisection did not converge in {MAX_STEPS} steps")
        inner = np.multiply.outer(gap, _FRACTIONS) + lo[:, None]
        brackets += np.bincount(own, minlength=m)
        counts = _sturm_counts(rows, dims, pivmins, inner.ravel(), np.repeat(own, _POINTS))
        grid = np.concatenate((lo[:, None], inner, hi[:, None]), axis=1)
        # the end counts are carried from the step that made each bracket
        counts = np.concatenate((c_lo[:, None], counts.reshape(inner.shape), c_hi[:, None]), axis=1)
        # a part holds the eigenvalues counted at its right end but not its left
        keep = counts[:, 1:] > counts[:, :-1]
        lo, hi = grid[:, :-1][keep], grid[:, 1:][keep]
        c_lo, c_hi = counts[:, :-1][keep], counts[:, 1:][keep]
        own = np.repeat(own, _POINTS + 1)[keep.ravel()]
        # rising counts tile [0, n) exactly
        fell = np.flatnonzero(stepping & (np.bincount(own, weights=c_hi - c_lo, minlength=m) != dims))
        if fell.size:
            t = batch[fell[0]]
            raise NumericError(f"{_label(t.position, t.d.size)}: Sturm counts fell as the shift rose")


def _read(position: int, matrix: DenseSymMatrix) -> Spectrum | _Tridiagonal:
    """Check one matrix and reduce it: the Spectrum of a matrix of dimension
    0 or 1, else its `_Tridiagonal`. `matrix.data` is read once, and the
    dense array, with its working copies, is dropped when this returns."""
    data = matrix.data
    hermitian = np.iscomplexobj(data)
    data = np.asarray(data, dtype=complex if hermitian else float)
    where = _label(position, data.shape[0])
    if not np.isfinite(data).all():
        raise InputError(f"{where}: matrix entries must be finite")
    if data.size and not np.array_equal(data, data.T.conj()):
        kind = "Hermitian" if hermitian else "symmetric"
        raise InputError(f"{where}: matrix is not {kind}")
    if data.shape[0] <= 1:
        return Spectrum(tuple(float(v) for v in np.diag(data).real))
    try:
        return _reduce(position, data)
    except FloatingPointError as exc:
        raise NumericError(f"{where}: eigenvalue computation overflowed: {exc}") from None


def _overflows_alone(t: _Tridiagonal) -> bool:
    """Whether the multisection of this one matrix overflows."""
    try:
        _multisection([t])
    except FloatingPointError:
        return True
    return False


def eigenvalues_symmetric(*matrices: DenseSymMatrix) -> tuple[Spectrum, ...]:
    """All eigenvalues of each real symmetric or complex Hermitian matrix,
    ascending, one Spectrum per matrix.

    Each argument needs a `data` attribute. The arguments are read in
    order, each `data` once (`_read`): it is checked and reduced, and the
    dense array is dropped before the next argument's is read, so an
    argument may form its entries on that read and only one is held at a
    time. Householder reflections reduce each matrix to tridiagonal T,
    keeping only its real diagonal and off-diagonal moduli (see
    `_tridiagonalize`). A real matrix is reduced in real arithmetic, so its
    Spectrum does not depend on whether complex matrices share its call.
    Matrices whose reductions are byte-equal (d, |e| and the reflection
    count) share one multisection entry and one Spectrum object, which is
    bit for bit each one's own. One bracket, T's Gershgorin
    interval, starts out holding all n eigenvalue indices. Each multisection
    step splits every bracket into eight equal parts and keeps the parts
    whose end Sturm counts differ; a part holds the indices from its left
    end's count up to its right end's. A matrix takes steps until every one
    of its brackets is at most

        width = 2 * eps * ||T||_inf + 4 * pivmin

    wide, where eps is the double-precision machine epsilon and
    pivmin = tiny * max(1, max e_i^2) is the pivot guard: machine-precision
    width. Each value is its bracket's midpoint, repeated once per index the
    bracket holds.

    The matrices share each step's one Sturm pass, and a matrix leaves the
    batch once its own brackets close. Width, step count, MAX_STEPS and the
    multiplicity check are each matrix's own, and every shift is evaluated
    on its own matrix's floats alone, so each Spectrum, counters included,
    is bit-identical to the one a call with that matrix alone returns,
    whatever the other matrices or their order.

    This is the one check of a solver input (`DenseSymMatrix` checks only
    that it is square): InputError for a non-finite, non-symmetric real or
    non-Hermitian complex matrix; NumericError when the arithmetic
    overflows, when the Sturm counts fall as the shift rises, or when a
    matrix's brackets have not closed after MAX_STEPS steps. An error about
    one matrix names its position among the arguments and its dimension.
    """
    read: list[Spectrum | tuple] = []  # per matrix, its Spectrum or its entry's key
    entries: dict[tuple, _Tridiagonal] = {}
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for position, matrix in enumerate(matrices):
            reduced = _read(position, matrix)
            if isinstance(reduced, _Tridiagonal):
                entries.setdefault(reduced.key, reduced)
                reduced = reduced.key
            read.append(reduced)
        # the Sturm pass takes the largest matrix first
        batch = sorted(entries.values(), key=lambda t: -t.d.size)
        try:
            solved = dict(zip((t.key for t in batch), _multisection(batch)))
        except FloatingPointError as exc:
            # each matrix sees the same floats alone, so rerunning them alone finds it
            t = next(t for t in batch if _overflows_alone(t))
            where = _label(t.position, t.d.size)
            raise NumericError(f"{where}: eigenvalue computation overflowed: {exc}") from None
    return tuple(solved[r] if isinstance(r, tuple) else r for r in read)


def spectral_sums(spectrum: Spectrum) -> tuple[float, float]:
    """(sum of values, sum of squared values)."""
    total = math.fsum(spectrum.values)
    squares = math.fsum(v * v for v in spectrum.values)
    return total, squares


def verify_trace_identities(two_e: int, adjacency: Spectrum, laplacian: Spectrum) -> list[dict]:
    """Compare the floating spectra of a graph with the exact doubled edge
    count two_e, one dict per check as the verifier reports it.

    The Laplacian eigenvalue sum and the squared adjacency eigenvalue sum both
    equal 2|E| exactly; the raw adjacency sum is the zero trace. A check
    passes when its residual |lhs - rhs| is at most 1e-8 * max(1, 2|E|);
    lhs and rhs are reported at 12 significant digits, the residual and the
    tolerance at 6.
    """
    tol = 1e-8 * max(1, two_e)
    lap_sum, _ = spectral_sums(laplacian)
    adj_sum, adj_sq = spectral_sums(adjacency)
    checks = [
        ("laplacian_sum_vs_edges", lap_sum, float(two_e)),
        ("adjacency_sum_vs_zero", adj_sum, 0.0),
        ("adjacency_square_sum_vs_edges", adj_sq, float(two_e)),
    ]
    return [
        {"name": name, "lhs": float(f"{lhs:.12g}"), "rhs": float(f"{rhs:.12g}"),
         "residual": float(f"{abs(lhs - rhs):.6g}"), "tolerance": float(f"{tol:.6g}"),
         "passed": abs(lhs - rhs) <= tol}
        for name, lhs, rhs in checks
    ]
