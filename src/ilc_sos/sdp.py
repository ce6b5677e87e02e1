"""Self-contained semidefinite programming for the compiled SOS problems.

Solves

    minimize    c^T y
    subject to  <A_i, G> - d_i^T y = beta_i          (i = 1..p)
                G = blkdiag(G_1..G_B) >= 0,  y free

with a primal-dual interior-point method: Nesterov-Todd scaling, Mehrotra
predictor-corrector, and one infeasible start at SDPT3's data-scaled point
(Toh, Todd & Tutuncu 1999), with no restart.  The dual is

    maximize    beta^T nu
    subject to  D^T nu = -c,    Z = -A*(nu) >= 0.

The program comes as :class:`SdpProblem`'s arrays and is read as they
stand: D is ``free``, beta is ``rhs``, and each row (i, b, p, q) of
``entries`` with its ``weights`` entry w puts w/2 at (p, q) and at (q, p) of
block b of A_i, so <A_i, G> sums w G_b[p, q] over equality i's rows.

The iteration keeps G, Z and every direction in one stacked (B, n, n) array,
n the largest block, so each factorization (Cholesky, the SVD of the NT
scaling, the eigenvalues of the step test) is one batched call, and A and
A* are one bincount each over flat b n^2 + p n + q indices.  Each block is
padded with identity in G and Z, and the pads are invisible: every direction
is zero on them, so they stay exactly I, and they add nothing to mu, the
residuals or the step lengths.  The returned Grams are per-block copies.

The Schur complement M = A(W A*(.) W) is built block by block from the
sparse constraint entries (the sparse Schur build of Fujisawa, Kojima &
Nakata 1997), a chunk of a block's equalities at a time.  The congruences
W K_j W of a chunk's equalities j are one batched product (each equality's
few entries padded to a common length).  Every Gram entry e belongs to
exactly one equality i, and its share of M_ij = <K_i, W K_j W> is
w_e (W K_j W)[p_e, q_e]; np.add.at adds the shares into M in place, over
flat indices i p + j that each chunk builds from the entries' row offsets
i p kept at assembly.  M, one more p x p buffer and the chunks' work
buffers are allocated once per solve.  Each iteration forms K = Q^T M Q
(below) in M's storage and factors its trailing block once (Cholesky, and
once more with one small fixed ridge only when it does not factor as is),
so the factor, and the ridged copy when the ridge is needed, are the only
p x p arrays an iteration allocates.  Every Newton solve of the iteration
is a blocked forward and back substitution with that factor, whose diagonal
blocks alone are inverted.  An iteration runs three KKT solves: the
predictor takes one, since its direction only sets the centering parameter
and Mehrotra's second-order term, and the corrector takes one plus a
refinement pass against the primal and free-variable residuals, measured
against the unridged operators.

The free variables are handled by the null-space method: D = Q [R; 0] is
factored once per solve, and each iteration factors the trailing block of
Q^T M Q (positive definite whenever M is) in place of M.  A free variable
that no equality and no cost touches is fixed at 0; otherwise a column of D
that R's diagonal shows dependent on the columns before it is a numerical
failure.  The Newton directions dG and dZ are symmetrized, so the iterates,
and the returned Gram matrices, are exactly symmetric.  The returned Grams
are the certificate as they stand: nothing re-solves or projects them
afterwards.

No external solver is involved anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .soscompiler import SdpProblem, certificate_from_grams, check_certificate


class SolverFailure(Exception):
    """The interior-point solve, run once from its data-scaled start, found no solution."""


@dataclass
class SdpSolution:
    status: str                  # optimal | infeasible | unbounded | numerical_failure
    objective_value: float
    scalar_values: dict
    gram_values: list
    dual_values: np.ndarray | None = None
    iterations: int = 0
    gap: float = float("nan")
    primal_residual: float = float("nan")
    dual_residual: float = float("nan")
    method: str = "ipm"
    message: str = ""
    trace: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "optimal"

    def report(self) -> str:
        lines = [
            f"status            {self.status}",
            f"method            {self.method}",
            f"objective         {self.objective_value:.12e}",
            f"iterations        {self.iterations}",
            f"duality gap       {self.gap:.3e}",
            f"primal residual   {self.primal_residual:.3e}",
            f"dual residual     {self.dual_residual:.3e}",
        ]
        for k in sorted(self.scalar_values):
            lines.append(f"scalar {k:<12s} {self.scalar_values[k]: .12e}")
        if self.message:
            lines.append(f"note              {self.message}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# assembly

# largest work buffer (in doubles) of the Schur build, 256 KB: a block's
# active equalities are taken in chunks whose work arrays (_chunk_shapes) fit
# this size.  The buffers are allocated once per solve and shared by all
# blocks.
_SCHUR_CHUNK = 1 << 15


def _chunk_shapes(rows: int, n: int, width: int, entries: int) -> tuple:
    """Work arrays of a chunk of ``rows`` equalities of a block: the two
    gathers of rows of W, the congruences, the entry shares and their flat
    indices in M (the last one intp, the others float)."""
    return (rows, width, n), (rows, width, n), (rows, n, n), (rows, entries), (rows, entries)


class _Assembled:
    """An SdpProblem's entries regrouped by block, with the IPM's index maps."""

    def __init__(self, problem: SdpProblem):
        self.dims = list(problem.block_dims)
        self.free_ids = list(problem.free_ids)
        self.beta, self.D = problem.rhs, problem.free
        p = len(self.beta)
        # every Gram entry's equality, block, p, q and weight, by block, then
        # by equality; each block's entries are a slice of these arrays
        order = np.lexsort((problem.entries[:, 0], problem.entries[:, 1]))
        self.eq, blk, pp, qq = np.ascontiguousarray(problem.entries[order].T)
        self.w = problem.weights[order]
        cuts = np.searchsorted(blk, np.arange(1, len(self.dims)))
        self.blocks = list(zip(*(np.split(x, cuts) for x in (self.eq, pp, qq, self.w))))
        # The IPM keeps the blocks in one stacked (B, n, n) array, n the
        # largest block, each padded with identity; an entry's flat index in
        # it is b n^2 + p n + q.  A^*(nu) adds every (p, q) entry, then every
        # (q, p) entry.
        self.n = n = max(self.dims, default=0)
        real = np.arange(n) < np.array(self.dims)[:, None]
        self.mask = (real[:, :, None] & real[:, None, :]).astype(float)
        self.pq = blk * n * n + pp * n + qq
        self.at_idx = np.concatenate([self.pq, blk * n * n + qq * n + pp])
        self.at_eq = np.concatenate([self.eq, self.eq])
        self.at_w = np.concatenate([0.5 * self.w, 0.5 * self.w])

        self.c = np.array([problem.objective.get(k, 0.0) for k in self.free_ids])
        self.p = p
        self.ntot = sum(self.dims)

        # A free scalar that no equality and no cost touches is fixed at 0.
        # The rest must be independent columns of D = Q [R; 0], factored once
        # with q Householder reflectors (LAPACK's geqrf) and kept in compact
        # WY form Q = I - V T V^T (Schreiber & Van Loan 1989).  |R_jj| is
        # column j's distance from the span of the columns before it, so each
        # column is measured against its own norm: a column far smaller than
        # the others is still independent when R keeps most of it.
        self.scalar_ids = self.free_ids
        keep = self.D.any(axis=0) | (self.c != 0)
        self.free_ids = [k for k, kept in zip(self.free_ids, keep) if kept]
        self.D, self.c = self.D[:, keep], self.c[keep]
        self.q = q = len(self.free_ids)
        self.defect = None
        self.V, self.T, self.Rinv = np.zeros((p, 0)), np.zeros((0, 0)), np.zeros((0, 0))
        if q:
            h, tau = np.linalg.qr(self.D, mode="raw")  # h is geqrf's output, transposed
            tiny = max(p, q) * np.finfo(float).eps * np.linalg.norm(self.D, axis=0)
            if q > p or np.any(np.abs(np.diagonal(h)) <= tiny):
                self.defect = "free scalars not determined by the equalities (rank-deficient D)"
            else:
                self.V = (np.triu(h, 1) + np.eye(q, p)).T
                self.T = np.diag(tau)
                for k in range(1, q):
                    self.T[:k, k] = -tau[k] * self.T[:k, :k] @ (self.V[:, :k].T @ self.V[:, k])
                self.Rinv = np.linalg.inv(np.triu(h[:, :q].T))

        # per block, for schur(): each active equality's entries, listed as
        # (p, q) and again as (q, p) and padded to a common width (zero weight
        # in the padding), so that the congruences W K_j W of a chunk of
        # equalities are one batched matmul; every entry's flat index p n + q;
        # every entry's row offset eq_e p in the flat M, to which schur() adds
        # the column j of an active equality to place entry e's share of
        # M[eq_e, j]; and how many equalities a chunk takes.  work_sizes are
        # the largest work arrays a chunk of any block needs.
        self.padded = []
        self.work_sizes = [0] * 5
        for (eq, pp, qq, ww), n in zip(self.blocks, self.dims):
            active, starts, counts = np.unique(eq, return_index=True,
                                               return_counts=True)
            width = int(counts.max()) if len(eq) else 0
            row = np.repeat(np.arange(len(active)), counts)
            slot = np.arange(len(eq)) - np.repeat(starts, counts)
            P = np.zeros((len(active), width), np.intp)
            Q = np.zeros((len(active), width), np.intp)
            Wt = np.zeros((len(active), width))
            P[row, slot], Q[row, slot], Wt[row, slot] = pp, qq, 0.5 * ww
            P, Q, Wt = np.hstack([P, Q]), np.hstack([Q, P]), np.hstack([Wt, Wt])
            rows = min(len(active), _SCHUR_CHUNK // max(1, n * n, len(eq), 2 * width * n))
            rows = max(1, rows)
            self.padded.append((active, P, Q, Wt, pp * n + qq, (eq * p).astype(np.intp), rows))
            if len(active):
                self.work_sizes = [max(k, math.prod(shape)) for k, shape in zip(
                    self.work_sizes, _chunk_shapes(rows, n, 2 * width, len(eq)))]

    # linear operators on the stacked (B, n, n) array ---------------------
    def apply_A(self, G: np.ndarray) -> np.ndarray:
        return np.bincount(self.eq, weights=self.w * np.take(G, self.pq), minlength=self.p)

    def apply_At(self, nu: np.ndarray) -> np.ndarray:
        return np.bincount(self.at_idx, weights=self.at_w * nu[self.at_eq],
                           minlength=self.mask.size).reshape(self.mask.shape)

    def unpad(self, X: np.ndarray) -> list:
        """Per-block copies of a stacked array."""
        return [X[b, :n, :n].copy() for b, n in enumerate(self.dims)]

    def scalars(self, y: np.ndarray) -> dict:
        """Every free scalar by id; the ones fixed at assembly are 0."""
        vals = dict(zip(self.free_ids, y))
        return {k: vals.get(k, 0.0) for k in self.scalar_ids}

    def workspace(self) -> list:
        """Work buffers for schur(), shared by all blocks; see work_sizes."""
        *floats, index = self.work_sizes
        return [np.empty(k) for k in floats] + [np.empty(index, np.intp)]

    def schur(self, Ws: np.ndarray, M: np.ndarray, work: list) -> np.ndarray:
        """M_ij = sum_b tr(A_i W_b A_j W_b) = sum_b <K_i, W_b K_j W_b>,
        for the stacked scalings Ws, written into M (a C-contiguous p x p
        array, returned) with the buffers of workspace(); nothing larger
        than a block's W is allocated besides them."""
        M.fill(0.0)
        Mf = M.reshape(-1)
        for (_, _, _, ww), (active, P, Q, Wt, pq, row_at, rows), Wb, n in zip(
                self.blocks, self.padded, Ws, self.dims):
            W = np.ascontiguousarray(Wb[:n, :n])
            for lo in range(0, len(active), rows):
                sl = slice(lo, lo + rows)
                c = len(active[sl])
                L, R, C, X, I = (b[:math.prod(shape)].reshape(shape) for b, shape in zip(
                    work, _chunk_shapes(c, n, P.shape[1], len(pq))))
                # W K_j W = C_j + C_j^T, C_j = sum_l wt_l W[:, p_l] W[q_l, :], is one
                # sum over the entries as (p, q) and as (q, p); W is symmetric, so
                # both factors are gathers of whole rows (mode "clip" keeps take
                # from buffering its output)
                np.take(W, P[sl], axis=0, out=L, mode="clip")
                L *= Wt[sl, :, None]
                np.take(W, Q[sl], axis=0, out=R, mode="clip")
                np.matmul(L.transpose(0, 2, 1), R, out=C)
                # entry e's share of <K_eq_e, W K_j W> is w_e (W K_j W)[p_e, q_e],
                # added into M[eq_e, j], flat index eq_e p + j, in place
                np.take(C.reshape(c, n * n), pq, axis=1, out=X, mode="clip")
                X *= ww
                np.add(row_at, active[sl, None], out=I)
                np.add.at(Mf, I.ravel(), X.ravel())
        return M


def _chol(M: np.ndarray):
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return None


# width of the diagonal blocks of a Cholesky factor that _tril_solver inverts
_SUBST_BLOCK = 64


def _tril_solver(L: np.ndarray):
    """Return X -> (L L^T)^-1 X for a lower-triangular L, by blocked forward
    and back substitution: only L's diagonal blocks are inverted, and the
    rest of the work is products with L's off-diagonal panels."""
    n = len(L)
    k = min(n, _SUBST_BLOCK)
    blocks = [slice(lo, min(lo + k, n)) for lo in range(0, n, k)]
    # the diagonal blocks are inverted in one batched call, into one array
    # (one small array per block fragmented the heap, and left the
    # benchmark's paper_robust peak RSS about 1 MB higher in most runs); the
    # last block is padded with identity, which leaves its own inverse in the
    # leading corner
    D = np.empty((len(blocks), k, k))
    D[:] = np.eye(k)
    for Db, b in zip(D, blocks):
        Db[:b.stop - b.start, :b.stop - b.start] = L[b, b]
    inv = [Di[:b.stop - b.start, :b.stop - b.start] for Di, b in zip(np.linalg.inv(D), blocks)]

    def solve(B):
        X = np.array(B, dtype=float)
        for b, Di in zip(blocks, inv):  # L Y = B, Y in X
            if b.start:
                X[b] -= L[b, :b.start] @ X[:b.start]
            X[b] = Di @ X[b]
        for b, Di in zip(blocks[::-1], inv[::-1]):  # L^T X = Y
            if b.stop < n:
                X[b] -= L[b.stop:, b].T @ X[b.stop:]
            X[b] = Di.T @ X[b]
        return X

    return solve


# ridge, relative to max(1, largest diagonal entry), for a Schur complement
# that does not factor as is
_RIDGE = 1e-13


def _refined_solver(M: np.ndarray):
    """Return X -> M^-1 X for a symmetric positive (semi)definite M, or None.

    M is factored by plain Cholesky, and only when that fails once more with
    _RIDGE (relative to its largest diagonal entry) on its diagonal; None
    when that fails too.  The solves are the factor's substitutions
    (_tril_solver).  A ridged factor's bias is left to the corrector's
    refinement pass, which measures its residuals against the unridged
    operators.
    """
    L = _chol(M)
    if L is None:  # a copy of M with the ridge on its diagonal
        Mr = M.copy()
        Mr[np.diag_indices_from(Mr)] += _RIDGE * max(1.0, float(M.diagonal().max()))
        L = _chol(Mr)
    return None if L is None else _tril_solver(L)


def _null_space_solver(A: _Assembled, M: np.ndarray, buf: np.ndarray):
    """Return (h, r) -> (dnu, dy) solving M dnu - D dy = h, D^T dnu = r, or None.

    The null-space method (Nocedal & Wright, Numerical Optimization, 16.2):
    with D = Q [R; 0] and dnu = Q [a; b], the second equation gives
    a = R^-T r, the trailing rows of K [a; b] - [R dy; 0] = Q^T h give b, and
    the leading rows give dy.  K = Q^T M Q is M minus a rank-2q update U + U^T
    built from M V (O(q p^2)); it is formed in M's storage, with U in the
    p x p ``buf``, so M holds K afterwards.  K's trailing block, positive
    definite whenever M is, is factored by _refined_solver.
    """
    p, q, V, T = A.p, A.q, A.V, A.T
    W = M @ V
    np.matmul(V, (W @ T - 0.5 * V @ (T.T @ (V.T @ W) @ T)).T, out=buf)
    M -= buf
    M -= buf.T
    K = M  # M holds K from here on
    ksolve = _refined_solver(K[q:, q:]) if p > q else (lambda x: x)
    if ksolve is None:
        return None

    def solve(h, r):
        a = A.Rinv.T @ r
        g = h - V @ (T.T @ (V.T @ h))  # Q^T h
        b = ksolve(g[q:] - K[q:, :q] @ a)
        dy = A.Rinv @ (K[:q, :q] @ a + K[:q, q:] @ b - g[:q])
        x = np.concatenate([a, b])
        return x - V @ (T @ (V.T @ x)), dy  # Q [a; b]

    return solve


def _max_step(Sig_half_inv: np.ndarray, delta_scaled: np.ndarray) -> np.ndarray:
    """Largest alpha with Sigma + alpha*Delta >= 0 in every block (scaled
    coordinates), for each stack (..., B, n, n) of directions Delta."""
    S = Sig_half_inv[:, :, None] * delta_scaled * Sig_half_inv[:, None, :]
    emin = np.linalg.eigvalsh(S)[..., 0].min(axis=-1)
    return np.where(emin >= -1e-14, np.inf, 1.0 / np.maximum(-emin, 1e-14))


# ---------------------------------------------------------------------------
# interior-point solve


def solve(problem: SdpProblem, feas_tol: float = 1e-8, gap_tol: float = 1e-8,
          max_iter: int = 200) -> SdpSolution:
    """Solve the SDP with the interior-point method from the data-scaled start."""
    return _solve_ipm(_Assembled(problem), feas_tol, gap_tol, max_iter)


def _starting_point(A: _Assembled) -> tuple:
    """SDPT3's infeasible start (Toh, Todd & Tutuncu 1999): G_b = xi_b I,
    Z_b = eta_b I from the rhs and each equality's ||A_i^b||_F; stacked,
    with identity in the pads."""
    c_max = float(np.max(np.abs(A.c))) if A.q else 0.0
    scales = []
    for (eq, pp, qq, ww), (active, *_), n in zip(A.blocks, A.padded, A.dims):
        fro = np.sqrt(np.bincount(eq, np.where(pp == qq, 1.0, 0.5) * ww * ww, A.p))[active]
        xi = n * np.max((1.0 + np.abs(A.beta[active])) / (1.0 + fro), initial=0.0)
        scales.append((max(10.0, np.sqrt(n), xi),
                       max(10.0, np.sqrt(n), np.max(fro, initial=0.0), c_max)))
    eye = np.eye(A.n)
    pads = eye * (1.0 - A.mask)
    return tuple(v[:, None, None] * A.mask * eye + pads for v in np.array(scales).T)


def _solve_ipm(A: _Assembled, feas_tol: float, gap_tol: float, max_iter: int) -> SdpSolution:
    dims, p, q = A.dims, A.p, A.q
    trace = []
    fail = lambda msg, it: SdpSolution(
        "numerical_failure", float("nan"), dict.fromkeys(A.scalar_ids, float("nan")),
        [np.full((n, n), np.nan) for n in dims], iterations=it, message=msg, trace=trace)
    if A.defect:
        return fail(A.defect, 0)
    if p == 0:
        return SdpSolution("optimal", 0.0, A.scalars(np.zeros(q)),
                           [np.zeros((n, n)) for n in dims])

    # the stopping tests measure mu against the data, not against the start
    scale0 = max(1.0, float(np.max(np.abs(A.beta))),
                 float(np.max(np.abs(A.c))) if q else 1.0)
    # G and Z are stacked (B, n, n) arrays whose pads stay exactly I: every
    # direction is masked to the blocks' own rows and columns, in the original
    # coordinates (the SVD's sort moves the pads in the scaled ones)
    G, Z = _starting_point(A)
    mask = A.mask
    eye, zeros = np.eye(A.n), np.zeros_like(G)
    tr = lambda X: X.transpose(0, 2, 1)
    y = np.zeros(q)
    nu = np.zeros(p)

    beta_scale = 1.0 + float(np.max(np.abs(A.beta)))
    c_scale = 1.0 + (float(np.max(np.abs(A.c))) if q else 0.0)
    # the Schur complement, the buffer of its rank-2q update (_null_space_solver)
    # and the Schur build's work buffers, rewritten every iteration
    M, buf, work = np.empty((p, p)), np.empty((p, p)), A.workspace()

    # LAPACK can fail to converge on a badly scaled iterate (eigvalsh in
    # _max_step, the SVD of the scaling): that is a failed solve, not an error
    try:
        for it in range(max_iter):
            rp = A.beta - A.apply_A(G) + A.D @ y
            rfree = -A.c - A.D.T @ nu
            Rd = (-A.apply_At(nu) - Z) * mask

            mu = float(np.vdot(G, Z * mask)) / max(A.ntot, 1)
            pobj = float(A.c @ y)
            dobj = float(A.beta @ nu)
            gap = abs(pobj - dobj) / (1.0 + max(abs(pobj), abs(dobj)))
            pinf = float(np.max(np.abs(rp))) / beta_scale
            dinf = max(float(np.max(np.abs(rfree))) / c_scale if q else 0.0,
                       float(np.max(np.abs(Rd))) / c_scale)
            trace.append({"iter": it, "mu": mu, "pinf": pinf, "dinf": dinf, "gap": gap})

            if not np.isfinite(mu) or not np.isfinite(pinf) or not np.isfinite(dinf):
                return fail("non-finite iterate", it)
            if (pinf <= feas_tol and dinf <= feas_tol
                    and (gap <= gap_tol or mu / scale0 <= gap_tol)):
                return SdpSolution("optimal", pobj, A.scalars(y), A.unpad(G),
                                   dual_values=nu, iterations=it, gap=gap,
                                   primal_residual=pinf, dual_residual=dinf, trace=trace)

            if dinf <= 1e-6 and dobj > 1e10 * beta_scale:
                return SdpSolution("infeasible", float("inf"),
                                   dict.fromkeys(A.scalar_ids, float("nan")), A.unpad(G),
                                   dual_values=nu, iterations=it, gap=gap,
                                   primal_residual=pinf, dual_residual=dinf,
                                   message="dual objective diverging", trace=trace)
            if pinf <= 1e-6 and pobj < -1e10 * c_scale:
                return SdpSolution("unbounded", float("-inf"), A.scalars(y), A.unpad(G),
                                   iterations=it, gap=gap, primal_residual=pinf,
                                   dual_residual=dinf, message="primal objective diverging",
                                   trace=trace)

            # Nesterov-Todd scaling: W = R R^T, R^-1 G R^-T = R^T Z R = Sigma, from
            # L_Z^T L_G = U Sigma V^T; R^-1 = Sigma^-1/2 U^T L_Z^T needs no inverse
            LG, LZ = _chol(G), _chol(Z)
            if LG is None or LZ is None:
                return fail("iterate lost positive definiteness", it)
            U, s, Vt = np.linalg.svd(tr(LZ) @ LG)
            if np.min(s) <= 0:
                return fail("iterate lost positive definiteness", it)
            rs = np.sqrt(s)
            R = LG @ tr(Vt) / rs[:, None, :]
            Rinv = tr(U) / rs[:, :, None] @ tr(LZ)
            W = R @ tr(R)

            kkt = _null_space_solver(A, A.schur(W, M, work), buf)
            if kkt is None:
                return fail("Schur complement not PD", it)

            def newton_raw(rp_loc, rfree_loc, Rd_loc, tmp):
                """Direction whose dG is tmp + W A^*(dnu) W; tmp = R V R^T - W Rd W
                for scaled complementarity targets V (= dG~ + dZ~)."""
                dnu, dy = kkt(rp_loc - A.apply_A(tmp), rfree_loc)
                Atdnu = A.apply_At(dnu)
                # symmetric directions: apply_A reads one triangle of dG, so
                # roundoff in the congruences would otherwise drift G off symmetry
                dZ = Rd_loc - Atdnu
                dG = tmp + W @ Atdnu @ W
                return 0.5 * (dG + tr(dG)) * mask, dy, dnu, 0.5 * (dZ + tr(dZ))

            def step_lengths(dG, dZ):
                """Fraction-to-boundary steps (primal, dual) and the scaled directions."""
                dt = np.stack([Rinv @ dG @ tr(Rinv), tr(R) @ dZ @ R])
                ap, ad = np.minimum(1.0, 0.99 * _max_step(1.0 / rs, dt))
                return ap, ad, dt

            # predictor: one KKT solve and no refinement pass, since its direction
            # only sets sigma and the corrector's second-order term
            WRdW = W @ Rd @ W
            dGa, _, _, dZa = newton_raw(rp, rfree, Rd, -(R * s[:, None, :]) @ tr(R) - WRdW)
            ap, ad, (dGt, dZt) = step_lengths(dGa, dZa)

            mu_aff = float(np.vdot(G + ap * dGa, (Z + ad * dZa) * mask)) / max(A.ntot, 1)
            sigma = float(np.clip((max(mu_aff, 0.0) / mu) ** 3, 1e-10, 0.999))

            # corrector, with one KKT-level refinement pass: the complementarity
            # and dual rows are satisfied to roundoff by construction, so only the
            # primal and free-variable residuals need a correction solve
            Rc = (sigma * mu - s * s)[:, :, None] * eye - 0.5 * (dGt @ dZt + dZt @ dGt)
            V = 2.0 * Rc / (s[:, :, None] + s[:, None, :])
            dG, dy, dnu, dZ = newton_raw(rp, rfree, Rd, R @ V @ tr(R) - WRdW)
            cG, cy, cnu, cZ = newton_raw(rp - A.apply_A(dG) + A.D @ dy, rfree - A.D.T @ dnu,
                                         zeros, zeros)
            dG, dy, dnu, dZ = dG + cG, dy + cy, dnu + cnu, dZ + cZ
            ap, ad, _ = step_lengths(dG, dZ)
            if not np.isfinite(ap) or not np.isfinite(ad) or ap <= 1e-12 or ad <= 1e-12:
                return fail("step length collapsed", it)

            G = G + ap * dG
            y = y + ap * dy
            Z = Z + ad * dZ
            nu = nu + ad * dnu
            trace[-1].update(ap=float(ap), ad=float(ad), sigma=sigma)
            del kkt  # free this iteration's factor before the next one is formed
    except np.linalg.LinAlgError as exc:
        return fail(f"linear algebra failure: {exc}", it)

    return fail(f"no convergence in {max_iter} iterations", max_iter)


# ---------------------------------------------------------------------------
# certificate check


def ensure_certified(problem: SdpProblem, target, sol: SdpSolution):
    """Expand a solution's Gram matrices into its SOS certificate and check
    it against ``target``.  Returns ``(solution, certificate, report)``."""
    cert = certificate_from_grams(problem, sol.gram_values)
    return sol, cert, check_certificate(target, sol.scalar_values, cert)


# ---------------------------------------------------------------------------
# file front end


def solve_file(path: str, **kwargs) -> SdpSolution:
    with open(path) as fh:
        problem = SdpProblem.parse(fh.read())
    return solve(problem, **kwargs)
