"""Krylov-subspace construction and operator-spreading measures.

Operators live in real coordinates.  A Hermitian X on a d-dimensional
space has d^2 of them: Tr(X)/sqrt(d) along the identity direction
I/sqrt(d), then the Gell-Mann Bloch vector Tr(X E_a), both taken of
V^dag X V, where H = V diag(E) V^dag.  The Hilbert-Schmidt product of
Hermitian operators is the dot product of their coordinates.  Heisenberg
evolution O(t) = e^{iHt} O e^{-iHt} is generated by A: X -> i[H, X], which
maps Hermitian operators to Hermitian operators and is antisymmetric,
(Y | A X) = -(A Y | X): a real antisymmetric d^2 x d^2 matrix.  In the
eigenbasis of H it rotates each off-diagonal Bloch pair at its gap
E_a - E_b, so it is applied elementwise and never formed.

One span count serves both kinds of generator.  A Hamiltonian H and a
fixed unitary U (a Floquet period, or one step dt) are taken to the same
eigenbasis frame, in which each off-diagonal Bloch pair rotates at its
gap: E_a - E_b for A, the eigenphase difference folded into [0, pi] for
the conjugation X -> U^dag X U, since e^{+-i w} form one conjugate pair of
modes.  A pair folded past pi turns the other way round, so its entries
in the frame's rotated rows (J u, below) change sign; without that, pairs
of one gap that turn opposite ways get rows that miss the orbit.  The
exact Krylov span of O is one direction for the part of O that no gap
moves, plus two for each distinct gap O touches; a gap of pi adds one,
since U^dag X U = -X there.  Lanczos with full (doubled
Gram-Schmidt) re-orthogonalization against A runs inside that span, in
real arithmetic.  Plain Lanczos loses orthogonality to rounding within a
few dozen steps; brute-force re-orthogonalization keeps the basis
orthonormal to machine precision, which is what makes the late, tiny
recursion coefficients b_k trustworthy.  For a unitary the frame gives
the dimension of the orbit span{O, U^dag O U, U^dag^2 O U^2, ...}
(:func:`arnoldi_unitary_dim`) and, conjugated back to Gell-Mann Bloch
rows, tomography's measured subspace (:func:`orbit_span`): every row of a
fixed-step record's design lies in the orbit of O's traceless part.

The generator pairs the rows of that frame: it maps each u onto w J u and
J u onto -w u, and annihilates the zero-frequency row.  O lies on the
(zero-frequency, u) rows, so the Lanczos vectors alternate: P_k lies on
those rows for even k and on the J u rows for odd k.  The recursion runs
on these half-length vectors and re-orthogonalizes each against the
earlier vectors of its own parity only, the other parity being
orthogonal by construction; that takes about a quarter of the flops of
full-length vectors.  It is Golub-Kahan bidiagonalization of the diagonal
map u_j -> w_j J u_j, whose two diagonals are b_1, b_3, ... and
b_2, b_4, ....

The basis stays in those frame coordinates.  The frame is stored as its
modes (:class:`_Modes`): the frozen part f, and for each distinct gap
w_j the norm a_j of O's part on the pairs with that gap, and those
pairs' Bloch coordinates (x_p, y_p), from which every row is read:
u_j holds (x_p, y_p) / a_j at each of its pairs, J u_j holds
(-y_p, x_p) / a_j.  That takes O(d^2) numbers, and the Lanczos vectors
two blocks, the even ones over the m + n rows of the first half and the
odd ones over the n rows of the second: (m + n)^2 + n^2 doubles, where
dense operator coordinates take K d^2 for the basis and as much again for
the frame (8.4 MB at d = 32, K = 513).  No Krylov run forms those dense
(K, d^2) coordinates; only the invariant checks (:mod:`chaostomo.checks`)
build them from the blocks.  Tomography forms dense frame rows only
through :func:`orbit_span`, and only for orbits of at most half its
design's size.

Either way the span dimension is capped at d^2 - d + 1: the operators that
commute with the generator form a space of dimension at least d, and the
span meets it in one direction only, O's projection onto it.  Lanczos
raises if it finds more.

The evolved operator O(t) = e^{tA} O stays in the Krylov span, and its
coordinates over the basis are the real amplitudes phi_k(t).  Krylov
complexity is the mean position of the operator weight phi_k^2 over the
ordered basis; Krylov entropy measures how evenly that weight is spread.
In the eigenframe e^{tA} is a rotation of each Bloch pair by
(E_a - E_b) t, so the coordinates of O(t) on the frame rows are closed
form in the modes, for every requested time, and one product with the
basis gives all amplitudes; no matrix exponential is taken per time.  The
rotation uses the exact gaps, not the merged ``pair_gaps``: merging moves
a gap by up to 1e-10 of the spectral width, which is harmless for
counting the span but at t = 60 would turn the phase by about 1e-7, far
above rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .dynamics import TIMELINE_BLOCK, expm_hermitian, unitary_eigh
from .operator_space import HermitianBasis, bloch_encode, bloch_encode_batch, gell_mann_basis

__all__ = [
    "Liouvillian",
    "liouvillian",
    "KrylovBasis",
    "lanczos_full_orth",
    "evolve_operator",
    "krylov_amplitudes",
    "krylov_complexity",
    "krylov_entropy",
    "arnoldi_unitary_dim",
    "orbit_span",
]


def _merge_gaps(gaps: np.ndarray, tol: float) -> np.ndarray:
    """Gaps with every run of values within ``tol`` of its smallest set to that value.

    Gaps that are equal in exact arithmetic (a degenerate spectrum, or the
    additive spectrum of a free model) differ by rounding; they must be
    equal for the Krylov span to have its exact dimension.  Gaps below
    ``tol`` become 0.
    """
    out = np.empty_like(gaps)
    anchor = 0.0
    for i in np.argsort(gaps):
        if gaps[i] - anchor >= tol:
            anchor = gaps[i]
        out[i] = anchor
    return out


@dataclass(frozen=True)
class Liouvillian:
    """Real antisymmetric generator X -> i[H, X] in the eigenbasis of H.

    Coordinates are those of V^dag X V, H = V diag(E) V^dag.  There the
    generator multiplies entry (a, b) by i(E_a - E_b): it rotates the
    symmetric and antisymmetric Bloch coordinates (s, t) of each pair
    a > b into w (-t, s), w = E_a - E_b, and annihilates the identity and
    diagonal coordinates, so it is applied elementwise and never formed.
    """

    eigenvectors: np.ndarray
    operator_basis: HermitianBasis
    pair_gaps: np.ndarray  # w per Bloch pair, in the basis's pair order; merged, for the span
    energies: np.ndarray  # E, unmerged: evolution turns each pair at E_a - E_b

    def coords(self, op: np.ndarray) -> np.ndarray:
        """Coordinates of a Hermitian operator given in the computational basis."""
        x = self.eigenvectors.conj().T @ op @ self.eigenvectors
        trace = np.trace(x).real / np.sqrt(len(x))
        return np.concatenate([[trace], bloch_encode(x, self.operator_basis)])


def liouvillian(h: np.ndarray) -> Liouvillian:
    """Generator i[H, .] of a Hermitian H; gaps within 1e-10 of the spectral width merge."""
    h = np.asarray(h, dtype=complex)
    if np.max(np.abs(h - h.conj().T)) > 1e-10:
        raise ValueError("generator must be Hermitian")
    energies, vecs = np.linalg.eigh(h)
    basis = gell_mann_basis(h.shape[0])
    tol = 1e-10 * max(energies[-1] - energies[0], 1.0)
    gaps = _merge_gaps(energies[basis.rows] - energies[basis.cols], tol)
    return Liouvillian(eigenvectors=vecs, operator_basis=basis, pair_gaps=gaps,
                       energies=energies)


def _observable_coords(liou: Liouvillian, initial: np.ndarray) -> tuple:
    """Coordinates of a nonzero Hermitian observable and its norm.

    Coordinates below 1e-9 of the norm are rounding residue of the basis
    change and are set to zero; left in, they would open directions that
    symmetry or equal gaps keep out of the span.
    """
    op = np.asarray(initial)
    norm0 = np.linalg.norm(op)
    if norm0 == 0.0:
        raise ValueError("initial observable is zero")
    if np.max(np.abs(op - op.conj().T)) > 1e-10 * norm0:
        raise ValueError("initial observable must be Hermitian")
    vec = liou.coords(op)
    vec[np.abs(vec) < 1e-9 * norm0] = 0.0
    return vec, norm0


@dataclass(frozen=True)
class _Modes:
    """Mode table of an invariant frame (:func:`_invariant_frame`).

    The frame's rows are read off it.  The first half is the
    zero-frequency row f / |f| when f is nonzero, then per mode j the row
    u_j, which holds (x_p, y_p) / a_j on the symmetric and antisymmetric
    coordinates of each of its pairs p; ``norms`` holds the norms of the
    part of the vector on each of these rows, (|f|, a_1..a_n).  The second
    half is the row J u_j, which holds turn_p (-y_p, x_p) / a_j, for each
    rotating mode.  Within one half no two rows share a coordinate.
    """

    frozen: np.ndarray  # f: the d^2 coordinates of the part no gap moves
    pairs: np.ndarray  # moving Bloch pairs p, ordered by mode
    mode: np.ndarray  # mode j of each pair
    freqs: np.ndarray  # w_j, one distinct merged gap per mode
    norms: np.ndarray  # |f| if f is nonzero, then a_1..a_n: one per first-half row
    x: np.ndarray  # symmetric Bloch coordinate of each pair
    y: np.ndarray  # antisymmetric Bloch coordinate of each pair
    turn: np.ndarray  # +-1 per pair: -1 where it turns backwards, an orbit pair folded past pi
    rotating: np.ndarray  # per mode: has a J u row, false at an orbit's gap pi

    @property
    def size(self) -> int:
        """Row count: the first half and the J u rows."""
        return len(self.norms) + int(np.count_nonzero(self.rotating))


def _invariant_frame(liou: Liouvillian, vec: np.ndarray) -> _Modes:
    """Mode table of the smallest invariant subspace that holds ``vec``.

    That subspace is the exact Krylov span.  Its zero-frequency part is one
    row, the part f of ``vec`` the generator annihilates.  Each distinct
    nonzero gap w_j adds the part u_j of ``vec`` on the pairs with that
    gap and its rotation J u_j, on which the generator acts as w_j times a
    rotation.  The rows are ordered (zero-frequency, u_1..u_n, J u_1..J u_n);
    the table (:class:`_Modes`) holds f, and the pairs, gap and norm a_j of
    each mode, from which every row is read.
    """
    d, gaps, s = liou.operator_basis.dim, liou.pair_gaps, len(liou.pair_gaps)
    sym, asym = vec[d : d + s], vec[d + s :]
    moving = np.flatnonzero(((sym != 0.0) | (asym != 0.0)) & (gaps > 0.0))
    moving = moving[np.argsort(gaps[moving], kind="stable")]
    freqs, mode = np.unique(gaps[moving], return_inverse=True)
    frozen = vec.copy()
    frozen[d + moving] = frozen[d + s + moving] = 0.0
    x, y = sym[moving], asym[moving]
    lead = np.linalg.norm(frozen, keepdims=True)  # |f|, a row only if f is nonzero
    return _Modes(frozen=frozen, pairs=moving, mode=mode, freqs=freqs,
                  norms=np.concatenate([lead[lead > 0.0], np.sqrt(np.bincount(mode, x**2 + y**2))]),
                  x=x, y=y, turn=np.ones(len(moving)), rotating=np.ones(len(freqs), dtype=bool))


def _frame_rows(frame: _Modes) -> np.ndarray:
    """The frame's rows as one dense (size, d^2) array, in the order of :class:`_Modes`."""
    d, m = math.isqrt(frame.frozen.size), len(frame.norms) - len(frame.freqs)
    at = d + frame.pairs + np.array([[0], [d * (d - 1) // 2]])  # each pair's (x, y) coordinates
    scale, on = frame.norms[m + frame.mode], frame.rotating[frame.mode]
    rows = np.zeros((frame.size, frame.frozen.size))
    rows[:m] = frame.frozen / frame.norms[:m, None]
    rows[m + frame.mode, at] = np.stack([frame.x, frame.y]) / scale
    ju = len(frame.norms) + np.cumsum(frame.rotating)[frame.mode[on]] - 1
    rows[ju, at[:, on]] = frame.turn[on] * np.stack([-frame.y, frame.x])[:, on] / scale[on]
    return rows


@dataclass(frozen=True)
class KrylovBasis:
    """Orthonormal Krylov vectors P_0..P_{K-1} and recursion coefficients b_1..b_{K-1}.

    The vectors are kept in the coordinates of the invariant frame of
    :func:`_invariant_frame`: ``blocks`` holds P_0, P_2, ... over the
    (zero-frequency, u) rows and P_1, P_3, ... over the J u rows, and
    ``frame`` is the mode table those rows are read from.  The blocks take
    (m + n)^2 + n^2 doubles for m + 2n frame rows, and the table O(d^2),
    against K d^2 doubles for the dense vectors.
    """

    blocks: tuple  # ((K + 1) // 2, m + n) and (K // 2, n) frame coordinates
    frame: _Modes
    lanczos_b: np.ndarray  # (K - 1,)
    dim_k: int
    initial_norm: float
    generator: Liouvillian  # in whose coordinates the frame rows are


def lanczos_full_orth(liou: Liouvillian, initial: np.ndarray) -> KrylovBasis:
    """Krylov basis of X -> i[H, X] acting on a Hermitian observable, fully re-orthogonalized.

    The recursion runs in the frame of :func:`_invariant_frame`, which
    holds the exact Krylov span and nothing else.  In the full coordinates
    the recursion amplifies rounding residue, in directions that symmetry
    or equal gaps keep out of the span, into spurious basis vectors, and
    the dimension comes out too large.

    P_k lies on the (zero-frequency, u) rows of the frame for even k and
    on the J u rows for odd k (module docstring), so the recursion runs on
    half-length vectors.  P_0 is the observable itself: (|f|, a_1..a_n)
    normalized.  Each new vector A P_{k-1} is
    Gram-Schmidt-orthogonalized against the previous vectors of its
    parity, twice; the coefficient b_k is the remaining norm and iteration
    stops once it falls below 1e-8 times the observable norm, the
    floating-point stand-in for the exact-arithmetic b_k = 0.  Raises if
    the dimension exceeds the d^2 - d + 1 bound.  The vectors are returned
    in frame coordinates (:class:`KrylovBasis`).
    """
    vec0, norm0 = _observable_coords(liou, initial)
    frame = _invariant_frame(liou, vec0)
    freqs, half = frame.freqs, len(frame.norms)
    m, n = half - len(freqs), len(freqs)
    q = (np.empty((half, half)), np.empty((n, n)))  # rows: P_0, P_2, ... and P_1, P_3, ...
    q[0][0] = frame.norms / np.linalg.norm(frame.norms)
    bs = []
    k = 1
    while k < frame.size:
        par = k % 2
        prev = q[1 - par][(k - 1) // 2]
        # the generator on one parity: u_j -> w_j J u_j, J u_j -> -w_j u_j
        w = freqs * prev[m:] if par else np.concatenate([np.zeros(m), -freqs * prev])
        basis = q[par][: k // 2]
        for _ in range(2):
            w -= basis.T @ (basis @ w)
        b = np.linalg.norm(w)
        if b <= 1e-8 * norm0:
            break
        bs.append(b)
        # cleanup pass on the normalized vector: division by a small b
        # amplifies the orthogonalization error, and that error lies in the
        # accepted span, so one more sweep restores machine orthogonality
        w /= b
        w -= basis.T @ (basis @ w)
        q[par][k // 2] = w / np.linalg.norm(w)
        k += 1
    d = liou.operator_basis.dim
    if k > d * d - d + 1:
        raise ValueError(f"Krylov dimension {k} exceeds the d^2 - d + 1 = {d * d - d + 1} bound")
    return KrylovBasis(blocks=(q[0][: (k + 1) // 2], q[1][: k // 2]), frame=frame,
                       lanczos_b=np.array(bs), dim_k=k, initial_norm=norm0, generator=liou)


def evolve_operator(h: np.ndarray, op: np.ndarray, t: float) -> np.ndarray:
    """Heisenberg evolution e^{iHt} O e^{-iHt} of an observable.

    The step-by-step reference for :func:`krylov_amplitudes`, which evolves
    in the eigenframe instead.
    """
    u = expm_hermitian(np.asarray(h, dtype=complex), scale=-1j * t)
    return u.conj().T @ op @ u


def krylov_amplitudes(basis: KrylovBasis, times) -> np.ndarray:
    """Amplitudes phi_k(t) = (P_k | O(t)) / |O| for each t in ``times``, shape (T, K).

    O(t) = e^{iHt} O e^{-iHt} for the observable O and Hamiltonian that
    generated the basis.  O(t) turns each Bloch pair (x_p, y_p) by w_p t at
    its exact gap w_p (module docstring), so its coordinates on the frame
    rows are closed form, read off the mode table: on u_j the sum over the
    mode's pairs of (x_p^2 + y_p^2) cos(w_p t) / a_j, on J u_j the same sum
    with sin, and on the zero-frequency row f's diagonal weight plus each
    of its pairs' weight times cos(w_p t), over |f|.  One product with each
    block of Lanczos vectors then gives all amplitudes.  O(t) stays inside
    the Krylov span, so sum_k phi_k^2 = 1; weight escaping the span by more
    than 1e-6 at any time signals gaps merged into one mode that drift
    apart in phase.
    """
    liou, frame, f = basis.generator, basis.frame, basis.frame.frozen
    d, rows, cols = liou.operator_basis.dim, liou.operator_basis.rows, liou.operator_basis.cols
    gap = liou.energies[rows] - liou.energies[cols]  # exact, per pair
    m = len(frame.norms) - len(frame.freqs)
    # the zero-frequency row, if any (m = 1): f's diagonal weight, and its pairs turning
    held = f[d : d + len(gap)] ** 2 + f[d + len(gap) :] ** 2
    at = np.flatnonzero(held)
    zero = (f[:d] @ f[:d] + np.cos(np.outer(times, gap[at])) @ held[at])[:, None][:, :m]
    # per mode, sum over its pairs, which lie in one run of frame.pairs
    angle, starts = np.outer(times, gap[frame.pairs]), np.flatnonzero(np.diff(frame.mode, prepend=-1))
    weight = frame.x**2 + frame.y**2
    first = np.hstack([zero, np.add.reduceat(np.cos(angle) * weight, starts, axis=1)]) / frame.norms
    second = np.add.reduceat(np.sin(angle) * weight, starts, axis=1) / frame.norms[m:]
    phi = np.empty((len(times), basis.dim_k))
    phi[:, 0::2] = first @ basis.blocks[0].T
    phi[:, 1::2] = second @ basis.blocks[1].T
    phi /= basis.initial_norm
    deficit = np.abs(np.sum(phi**2, axis=-1) - 1.0)
    if np.any(deficit > 1e-6):
        i = int(np.argmax(deficit))
        raise ValueError(f"operator weight escapes the Krylov span by {deficit[i]:.2e} at "
                         f"t = {times[i]:g}; gaps merged into one mode drift apart in phase")
    return phi


def krylov_complexity(phi: np.ndarray):
    """Mean basis position sum_k k phi_k^2 of the operator weight, over the last axis."""
    return np.sum(np.arange(phi.shape[-1]) * phi**2, axis=-1)


def krylov_entropy(phi: np.ndarray):
    """Spread entropy -sum_k phi_k^2 ln phi_k^2 with 0 ln 0 = 0, over the last axis."""
    p = phi**2
    # 0 - sum, not -sum: +0 where all the weight sits on one vector
    return 0.0 - np.sum(p * np.log(p, where=p > 0.0, out=np.zeros_like(p)), axis=-1)


def _orbit_frame(u: np.ndarray, initial: np.ndarray, traceless: bool = False) -> tuple:
    """Invariant frame of span{O, U^dag O U, U^dag^2 O U^2, ...} in the eigenframe of U.

    In the eigenbasis of U (:func:`~chaostomo.dynamics.unitary_eigh`)
    conjugation turns the Bloch pair of entries (a, b) by the phase
    difference theta_a - theta_b mod 2 pi; folded into [0, pi], that is the
    pair's gap.  Folded gaps merge within 1e-10 * 2 pi, the Hamiltonian
    path's rule.  A pair folded past pi turns the other way, so its J u
    entries change sign (``turn``).  At the gap pi conjugation is -1, not
    a rotation, and the orbit never reaches that gap's J u row, which is
    left out (``rotating``).  With ``traceless`` the frame is that of
    O - Tr(O)/d I.  Returns the mode table (:class:`_Modes`), whose
    ``size`` is the orbit dimension K, and the Gell-Mann basis and
    eigenvectors V of U, in whose coordinates (:meth:`Liouvillian.coords`)
    the rows are.
    """
    phases, vecs = unitary_eigh(u)
    basis = gell_mann_basis(len(phases))
    tol = 1e-10 * 2 * np.pi
    turns = np.mod(phases[basis.rows] - phases[basis.cols], 2 * np.pi)
    gaps = _merge_gaps(np.minimum(turns, 2 * np.pi - turns), tol)
    # the eigenphases stand in for E; the orbit is never evolved
    liou = Liouvillian(vecs, basis, gaps, phases)
    vec = _observable_coords(liou, initial)[0]
    vec[0] = 0.0 if traceless else vec[0]
    frame = _invariant_frame(liou, vec)
    frame = replace(frame, turn=np.where(turns[frame.pairs] > np.pi, -1.0, 1.0),
                    rotating=np.pi - frame.freqs >= tol)
    return frame, basis, vecs


def arnoldi_unitary_dim(u: np.ndarray, initial: np.ndarray) -> int:
    """Dimension of span{O, U^dag O U, U^dag^2 O U^2, ...}, counted from the modes of U.

    The row count of the orbit frame (:func:`_orbit_frame`); no row is formed densely.
    """
    return _orbit_frame(u, initial)[0].size


def orbit_span(u: np.ndarray, op: np.ndarray, max_rows: int) -> Optional[np.ndarray]:
    """Orthonormal Bloch rows spanning every U^dag^n O U^n - Tr(O)/d I, or None.

    The rows are those of the orbit frame of O - Tr(O)/d I
    (:func:`_orbit_frame`), one per orbit dimension, conjugated back by the
    eigenvectors V of U and encoded in the Gell-Mann basis.  Conjugation by
    V is orthogonal on Hermitian operators, so the rows stay orthonormal.
    The elements V E_c V^dag of the frame's support are made and encoded
    in blocks of ``TIMELINE_BLOCK`` to twice that many (one block when the
    support is smaller), so the transient (block, d, d) stacks do not grow
    with it and each element rounds as in one stack
    (:func:`~chaostomo.operator_space.bloch_encode_batch`); then the
    frame's rows (:func:`_frame_rows`) combine them.  Returns None when O
    has no traceless part or the orbit has more than ``max_rows``
    dimensions.
    """
    frame, basis, vecs = _orbit_frame(u, op, traceless=True)
    if not 0 < frame.size <= max_rows:
        return None
    rows = _frame_rows(frame)
    # frame coordinate c > 0 is Bloch element c - 1; the trace coordinate 0 is unused
    support = np.flatnonzero(rows.any(axis=0))
    parts = np.array_split(support - 1, max(1, support.size // TIMELINE_BLOCK))
    return rows[:, support] @ np.concatenate([bloch_encode_batch(
        vecs @ basis.matrices(part) @ vecs.conj().T, basis) for part in parts])
