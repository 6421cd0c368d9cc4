"""The stage block kernel, shared by the stepper and the stability analysis.

Both solve the same stage block S = [[I, -alpha At], [beta AtH, I]] for many
values at once: the stepper's fold (:mod:`symparc.integrator`) with
alpha = h and beta = h omega^2, the stability matrix
(:mod:`symparc.stability`) with alpha = beta = mu.  The kernel factors only
the s2 x s2 Schur complement I + nu G, G = At AtH and nu = alpha beta, whose
determinant is det S (Sylvester).  G is reduced once per scheme to upper
Hessenberg form, G = Q H Q^T, so that the elimination of I + nu H pivots
only between adjacent rows (Laub, IEEE TAC 26, 1981); one step of iterative
refinement against At and AtH themselves restores the accuracy of Gaussian
elimination on S (Skeel, Math. Comp. 35, 1980).  Every operation runs
elementwise over the values, in an (n, k, N) layout with the values last,
and every sum term by term, never through BLAS, so a value's solution is
bitwise the one it gets alone.  A right-hand side that is the same for every
value is passed as (n, k, 1) and broadcasts.  A pivot column whose swap
decisions agree for every value swaps rows by plain assignment, or not at
all, and only a mixed column selects per value; which values are singular
is read off the pivots once the elimination is done.

A caller that reads only some columns of the solution's two blocks asks
:func:`stage_solve` for those alone, and the second pass then completes
only them.  A caller whose G needed no reflection, so that Q is exactly I,
may pass Q = None to skip the products by Q and Q^T; the stability
analysis does, the stepper's fold does not (see :func:`stage_solve`).

Both callers build their right-hand sides with :func:`stage_rhs`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from symparc.tableaux import ArkScheme


def _householder_hessenberg(A):
    """(H, Q) with A = Q H Q^T, H upper Hessenberg and Q orthogonal, by
    Householder reflections (Golub & Van Loan, Matrix Computations, 7.4).
    The entries below the subdiagonal are exactly zero."""
    H = np.array(A, dtype=float)
    n = len(H)
    Q = np.eye(n)
    for k in range(n - 2):
        x = H[k + 1:, k]
        if not np.any(x[1:]):
            continue
        alpha = -math.copysign(float(np.linalg.norm(x)), x[0])
        v = x.copy()
        v[0] -= alpha
        v /= np.linalg.norm(v)
        # H <- P H P and Q <- Q P with the reflection P = I - 2 v v^T
        H[k + 1:, k:] -= 2.0 * np.outer(v, v @ H[k + 1:, k:])
        H[:, k + 1:] -= 2.0 * np.outer(H[:, k + 1:] @ v, v)
        Q[:, k + 1:] -= 2.0 * np.outer(Q[:, k + 1:] @ v, v)
        H[k + 1, k], H[k + 2:, k] = alpha, 0.0
    return H, Q


@functools.lru_cache(maxsize=64)
def _hessenberg(g: bytes, n: int):
    """The read-only :func:`_householder_hessenberg` of the n x n matrix
    G = At AtH given by its bytes ``g``: one reduction per scheme, however
    many calls sample it."""
    reduced = _householder_hessenberg(np.frombuffer(g).reshape(n, n))
    for a in reduced:
        a.setflags(write=False)
    return reduced


def _schur_basis(scheme: ArkScheme):
    """(H, Q) with At AtH = Q H Q^T, H upper Hessenberg; see :func:`_hessenberg`."""
    G = scheme.a_tilde @ scheme.a_tilde_hat
    return _hessenberg(G.tobytes(), len(G))


def lu_factor(H, nu):
    """Row-pivoted LU of I + nu H for every value of the (N,) array nu, with
    H upper Hessenberg.  Returns (factors, singular).

    The factors are the upper triangle U, shape (n, n, N), the swap masks
    and the multipliers: elimination only ever pivots between adjacent rows.
    A column whose swap decisions agree for every value swaps its rows by
    plain assignment, or not at all; only a mixed column selects per value.
    ``singular`` marks the values with a pivot that is NaN or below
    1e-14 max(1, |nu| max|H|), read off the diagonal of U once the
    elimination is done; their factors hold inf or NaN, without a warning.
    """
    n = H.shape[0]
    swaps = np.empty((n - 1, len(nu)), dtype=bool)
    mults = np.empty((n - 1, len(nu)))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        U = H[:, :, None] * nu
        for i in range(n):
            U[i, i] += 1.0
        tol = np.maximum(1e-14, 1e-14 * np.abs(H).max() * np.abs(nu))
        for j in range(n - 1):
            top, low = U[j, j:], U[j + 1, j:]
            swap = np.greater(np.abs(low[0]), np.abs(top[0]), out=swaps[j])
            swapped = np.count_nonzero(swap)
            if swapped == len(swap):
                # the right-hand side is evaluated first: row j is read
                # before either row is written
                np.divide(top[0], low[0], out=mults[j])
                U[j, j:], U[j + 1, j + 1:] = low, top[1:] - mults[j] * low[1:]
            elif not swapped:
                np.divide(low[0], top[0], out=mults[j])
                U[j + 1, j + 1:] -= mults[j] * top[1:]
            else:
                top, low = np.where(swap, low, top), np.where(swap, top, low)
                np.divide(low[0], top[0], out=mults[j])
                U[j, j:] = top
                U[j + 1, j + 1:] = low[1:] - mults[j] * top[1:]
        # the smallest |pivot| of each value, NaN where any pivot is NaN
        singular = ~(np.abs(U.diagonal().T).min(axis=0) >= tol)
    return (U, swaps, mults), singular


def lu_solve(factors, B):
    """Solve (I + nu H) Y = B in place for B of shape (n, k, N), through the
    factors of :func:`lu_factor`; as there, a column whose swap decisions
    agree swaps by plain assignment or not at all."""
    U, swaps, mults = factors
    n = U.shape[0]
    for j in range(n - 1):
        swap = swaps[j]
        swapped = np.count_nonzero(swap)
        if swapped == len(swap):
            # as in lu_factor, row j is read before either row is written
            B[j], B[j + 1] = B[j + 1], B[j] - mults[j] * B[j + 1]
        elif not swapped:
            B[j + 1] -= mults[j] * B[j]
        else:
            top = np.where(swap, B[j + 1], B[j])
            B[j + 1] = np.where(swap, B[j], B[j + 1]) - mults[j] * top
            B[j] = top
    for j in range(n - 1, -1, -1):
        B[j] /= U[j, j]
        B[:j] -= U[:j, j, None] * B[j]
    return B


def _apply(A, X, out=None):
    """A @ X for each value, X of shape (n, k, N), summed term by term over n,
    into ``out`` when given (an array that does not overlap X).

    Plain elementwise accumulation adds in the same order for every batch
    size, where a BLAS product may not.
    """
    out = np.multiply(A[:, 0, None, None], X[0], out=out)
    for j in range(1, A.shape[1]):
        out += A[:, j, None, None] * X[j]
    return out


def stage_solve(scheme: ArkScheme, Q, factors, alpha, beta, R, columns=None):
    """S^{-1} R for the stage blocks S = [[I, -alpha At], [beta AtH, I]] of
    the (N,) values alpha and beta, R with rows (Qt, P) of shape
    (s2 + s1, k, N), or (s2 + s1, k, 1) for a right-hand side that is the
    same for every value (it broadcasts, and is never copied out to N), and
    ``factors`` those of I + alpha beta H from :func:`lu_factor`, in the
    basis Q of :func:`_schur_basis`.  Returns X of shape (s2 + s1, k, N).

    Each pass solves the Schur complement (I + nu G) Qt = R_q + alpha At R_p
    in the Hessenberg basis of G, then sets P = R_p - beta AtH Qt.  The
    second pass solves for the residual R - S X, formed against At and AtH
    themselves rather than the rounded G; its momentum rows reuse the
    first pass's coupling beta AtH Qt.

    ``Q`` may be None where the reduction made no reflection (s2 <= 2), so
    that Q is exactly I: the products by Q and Q^T are then skipped.  A
    product by I adds 0 * X terms, which can turn a -0 into +0 and an inf
    into NaN, so the skip is not bitwise everywhere, and the stepper's fold,
    whose maps keep their signs of zero, passes its Q.  ``columns``, a pair
    (q, p) of column indices (slices or index arrays), asks for the blocks
    (Qt[:, q], P[:, p]) alone, returned as that pair in place of X: once
    the second pass's right-hand side is formed, only those columns of Qt,
    P and the residual are kept, and the second pass's momentum update
    beta AtH Qt, its subtraction and the final adds run on them alone.

    Products and sums are formed in arrays the solve owns, in place where
    the shapes allow: the Schur solve returns in its right-hand side's
    array, the second pass's alpha At P is formed while P is whole, and
    with ``columns`` the residual's rows are formed in the arrays of the
    first pass's Qt and P once their kept columns are copied out.  So a
    solve holds few (s2 + s1, k, N) arrays at once, which bounds the
    memory of a stability chunk; each operation is the one the formulas
    above name, in their order, so every entry is bitwise the same as with
    fresh arrays.
    """
    At, AtH, s2 = scheme.a_tilde, scheme.a_tilde_hat, scheme.s2
    Rq, Rp = R[:s2], R[s2:]
    q, p = (slice(None), slice(None)) if columns is None else columns

    def scaled(c, X):
        """c * X, in X itself where X already spans the values."""
        return np.multiply(c, X, out=X if X.shape[-1] == len(c) else None)

    def schur_solve(rhs):
        """The Schur complement's solution for ``rhs``, in rhs's own array."""
        if Q is None:
            return lu_solve(factors, rhs)
        return _apply(Q, lu_solve(factors, _apply(Q.T, rhs)), out=rhs)

    def kept(X, cols):
        """X's columns ``cols``, copied out when X's array is to be reused."""
        return X if columns is None else X[:, cols].copy()

    # pass 1: Qt for R_q + alpha At R_p, then P = R_p - beta AtH Qt
    rhs = scaled(alpha, _apply(At, Rp))
    Qt = schur_solve(np.add(Rq, rhs, out=rhs))
    coupling = scaled(beta, _apply(AtH, Qt))
    P = np.subtract(Rp, coupling)
    # pass 2: the residual R - S X is (R_q - Qt + alpha At P, dRp) with
    # dRp = R_p - P - coupling; its solution is added to Qt and P
    at_p = scaled(alpha, _apply(At, P))
    P_out = kept(P, p)
    dRp = np.subtract(Rp, P, out=None if columns is None else P)
    dRp -= coupling
    del coupling, P
    Qt_out = kept(Qt, q)
    rhs = np.subtract(Rq, Qt, out=None if columns is None else Qt)
    del Qt
    rhs += at_p
    del at_p
    rhs += scaled(alpha, _apply(At, dRp))
    dRp = kept(dRp, p)
    dQt = schur_solve(rhs)
    dP = scaled(beta, _apply(AtH, dQt[:, p]))
    np.subtract(dRp, dP, out=dP)
    if columns is not None:
        np.add(Qt_out, dQt[:, q], out=Qt_out)
        return Qt_out, np.add(P_out, dP, out=dP)
    X = np.empty((s2 + scheme.s1,) + Qt_out.shape[1:])
    np.add(Qt_out, dQt, out=X[:s2])
    np.add(P_out, dP, out=X[s2:])
    return X


def stage_rhs(scheme: ArkScheme, extra=None):
    """The right-hand side [E | (0; extra)] of the stage block, shape
    (s2 + s1, 2 + k, N): E stacks the all-ones vectors of the two blocks
    (the q0 and p0 columns), followed by a column (0; extra[:, i]) for each
    of the k columns of ``extra``, shape (s1, k, N).  Without ``extra``, or
    with N = 1, it has one entry along the values' axis and the kernel
    broadcasts it."""
    extra = np.empty((scheme.s1, 0, 1)) if extra is None else extra
    E = np.zeros((scheme.s2 + scheme.s1, 2 + extra.shape[1], extra.shape[2]))
    E[:scheme.s2, 0] = 1.0
    E[scheme.s2:, 1] = 1.0
    E[scheme.s2:, 2:] = extra
    return E
