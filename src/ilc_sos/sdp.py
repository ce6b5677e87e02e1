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

The Schur complement M = A(W A*(.) W) is built block by block from the
sparse constraint entries: the congruences W K_j W of all equalities are one
batched product (each equality's few entries padded to a common length),
and M_ij = <K_i, W K_j W> is read off at equality i's own entries.  M is
factored once per iteration (Cholesky, with a ridge only when it does not
factor as is) and the triangular factor is inverted once, so every Newton
solve of the iteration is matrix products.  Iterative refinement against the
unridged M runs while it lowers the residual.

The free variables are handled by the null-space method: D = Q [R; 0] is
factored once per solve, and each iteration factors the trailing block of
Q^T M Q (positive definite whenever M is) in place of M.  A free variable
that no equality and no cost touches is fixed at 0; otherwise dependent
columns of D are a numerical failure.  The Newton directions dG and dZ are
symmetrized, so the iterates, and the returned Gram matrices, are exactly
symmetric.  The returned Grams are the certificate as they stand: nothing
re-solves or projects them afterwards.

No external solver is involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

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

# largest work array (in doubles) one chunk of the Schur build may allocate
_SCHUR_CHUNK = 1 << 21


class _Assembled:
    """Array form of an SdpProblem: per-block sparse entries + dense D."""

    def __init__(self, problem: SdpProblem):
        self.dims = list(problem.block_dims)
        self.free_ids = list(problem.free_ids)
        p = len(problem.equalities)
        q = len(self.free_ids)
        fidx = {k: j for j, k in enumerate(self.free_ids)}
        self.beta = np.array([eq.rhs for eq in problem.equalities], dtype=float)
        self.D = np.zeros((p, q))
        ent: list[list] = [[] for _ in self.dims]
        for i, eq in enumerate(problem.equalities):
            for k, w in eq.free.items():
                self.D[i, fidx[k]] = w
            for b, r, s, w in eq.gram:
                ent[b].append((i, r, s, w))
        self.blocks = []
        for b, rows in enumerate(ent):
            if rows:
                arr = np.array(rows, dtype=float)
                order = np.argsort(arr[:, 0], kind="stable")
                arr = arr[order]
                self.blocks.append((
                    arr[:, 0].astype(int), arr[:, 1].astype(int),
                    arr[:, 2].astype(int), arr[:, 3].copy(),
                ))
            else:
                self.blocks.append((np.zeros(0, int), np.zeros(0, int),
                                    np.zeros(0, int), np.zeros(0)))
        self.c = np.array([problem.objective.get(k, 0.0) for k in self.free_ids])
        self.p = p
        self.ntot = sum(self.dims)

        # A free scalar that no equality and no cost touches is fixed at 0.
        # The rest must be independent columns of D = Q [R; 0], factored once
        # with q Householder reflectors (LAPACK's geqrf) and kept in compact
        # WY form Q = I - V T V^T (Schreiber & Van Loan 1989).
        self.scalar_ids = self.free_ids
        keep = self.D.any(axis=0) | (self.c != 0)
        self.free_ids = [k for k, kept in zip(self.free_ids, keep) if kept]
        self.D, self.c = self.D[:, keep], self.c[keep]
        self.q = q = len(self.free_ids)
        self.defect = None
        if q and np.linalg.matrix_rank(self.D) < q:
            self.defect = "free scalars not determined by the equalities (rank-deficient D)"
        self.V, self.T, self.Rinv = np.zeros((p, 0)), np.zeros((0, 0)), np.zeros((0, 0))
        if q and not self.defect:
            h, tau = np.linalg.qr(self.D, mode="raw")  # h is geqrf's output, transposed
            self.V = (np.triu(h, 1) + np.eye(q, p)).T
            self.T = np.diag(tau)
            for k in range(1, q):
                self.T[:k, k] = -tau[k] * self.T[:k, :k] @ (self.V[:, :k].T @ self.V[:, k])
            self.Rinv = np.linalg.inv(np.triu(h[:, :q].T))

        # each active equality's entries, padded to a common length per block
        # (zero weight in the padding), so that the congruences W K_i W of
        # all equalities are one batched matmul in schur()
        self.padded = []
        for eq, pp, qq, ww in self.blocks:
            active, starts, counts = np.unique(eq, return_index=True,
                                               return_counts=True)
            width = int(counts.max()) if len(eq) else 0
            row = np.repeat(np.arange(len(active)), counts)
            slot = np.arange(len(eq)) - np.repeat(starts, counts)
            P = np.zeros((len(active), width), int)
            Q = np.zeros((len(active), width), int)
            Wt = np.zeros((len(active), width))
            P[row, slot], Q[row, slot], Wt[row, slot] = pp, qq, 0.5 * ww
            self.padded.append((active, starts, P, Q, Wt))

    # linear operators ---------------------------------------------------
    def apply_A(self, Gs: Sequence[np.ndarray]) -> np.ndarray:
        out = np.zeros(self.p)
        for (eq, pp, qq, ww), G in zip(self.blocks, Gs):
            if len(eq):
                out += np.bincount(eq, weights=ww * G[pp, qq], minlength=self.p)
        return out

    def apply_At(self, nu: np.ndarray) -> list:
        outs = []
        for (eq, pp, qq, ww), n in zip(self.blocks, self.dims):
            M = np.zeros((n, n))
            if len(eq):
                vals = 0.5 * ww * nu[eq]
                np.add.at(M, (pp, qq), vals)
                np.add.at(M, (qq, pp), vals)
            outs.append(M)
        return outs

    def scalars(self, y: np.ndarray) -> dict:
        """Every free scalar by id; the ones fixed at assembly are 0."""
        vals = dict(zip(self.free_ids, y))
        return {k: vals.get(k, 0.0) for k in self.scalar_ids}

    def schur(self, Ws: Sequence[np.ndarray]) -> np.ndarray:
        """M_ij = sum_b tr(A_i W_b A_j W_b) = sum_b <K_i, W_b K_j W_b>."""
        M = np.zeros((self.p, self.p))
        for (eq, pp, qq, ww), (active, starts, P, Q, Wt), W in zip(
                self.blocks, self.padded, Ws):
            if not len(eq):
                continue
            n = W.shape[0]
            pq = pp * n + qq
            # bound the (equalities x n^2) and (equalities x entries) work
            # arrays so that large blocks do not raise peak memory
            chunk = max(1, _SCHUR_CHUNK // max(n * n, len(eq)))
            for lo in range(0, len(active), chunk):
                sl = slice(lo, lo + chunk)
                # H_j = W K_j W = C_j + C_j^T, C_j = sum_l wt_l W[:, p_l] W[q_l, :]
                C = (W[:, P[sl]].transpose(1, 0, 2) * Wt[sl, None, :]) @ W[Q[sl], :]
                H = (C + C.transpose(0, 2, 1)).reshape(len(C), n * n)
                # <K_i, H_j> = sum of w_l (H_j)[p_l, q_l] over the entries of i
                G = np.take(H, pq, axis=1) * ww
                M[np.ix_(active, active[sl])] += np.add.reduceat(G, starts, axis=1).T
        return M


def _chol(M: np.ndarray):
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return None


def _tril_inv(L: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular L by recursive 2x2 blocking, so that
    almost all the work is matrix products (np.linalg.inv would run a full
    LU factorization on the triangle)."""
    n = len(L)
    if n <= 64:
        return np.linalg.inv(L)
    h = n // 2
    A, D = _tril_inv(L[:h, :h]), _tril_inv(L[h:, h:])
    out = np.zeros_like(L)
    out[:h, :h], out[h:, h:] = A, D
    out[h:, :h] = -D @ (L[h:, :h] @ A)
    return out


# ridges tried, in order, when a Schur complement does not factor as is
_RIDGES = (0.0, 1e-13, 1e-8)


def _refined_solver(M: np.ndarray):
    """Return X -> M^-1 X for a symmetric positive (semi)definite M, or None.

    M is factored once: plain Cholesky first, and only when that fails with
    the smallest ridge (relative to its largest diagonal entry) that makes
    it factorable.  The triangular factor is inverted, so each solve is
    matrix products only.  Iterative refinement against the unridged M then
    removes any ridge bias and the rounding of the inverse: a sweep is kept
    while it lowers the residual norm, for at most five sweeps (LAPACK's
    limit in xPORFS).
    """
    scale = max(1.0, float(M.diagonal().max()))
    for ridge in _RIDGES:
        L = _chol(M + np.eye(len(M)) * (ridge * scale) if ridge else M)
        if L is not None:
            break
    else:
        return None
    Li = _tril_inv(L)

    def solve(B):
        X = Li.T @ (Li @ B)
        R = B - M @ X
        res = np.linalg.norm(R)
        for _ in range(5):
            Xc = X + Li.T @ (Li @ R)
            Rc = B - M @ Xc
            res_c = np.linalg.norm(Rc)
            if not res_c < res:
                break
            X, R, res = Xc, Rc, res_c
        return X

    return solve


def _null_space_solver(A: _Assembled, M: np.ndarray):
    """Return (h, r) -> (dnu, dy) solving M dnu - D dy = h, D^T dnu = r, or None.

    The null-space method (Nocedal & Wright, Numerical Optimization, 16.2):
    with D = Q [R; 0] and dnu = Q [a; b], the second equation gives
    a = R^-T r, the trailing rows of K [a; b] - [R dy; 0] = Q^T h give b, and
    the leading rows give dy.  K = Q^T M Q is M minus a rank-2q update built
    from M V (O(q p^2)), and its trailing block, positive definite whenever M
    is, is factored by _refined_solver.
    """
    p, q, V, T = A.p, A.q, A.V, A.T
    W = M @ V
    U = V @ (W @ T - 0.5 * V @ (T.T @ (V.T @ W) @ T)).T
    K = M - (U + U.T)
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


def _max_step(Sig_half_inv: np.ndarray, delta_scaled: np.ndarray) -> float:
    """Largest alpha with Sigma + alpha*Delta >= 0 (scaled coordinates)."""
    S = Sig_half_inv[:, None] * delta_scaled * Sig_half_inv[None, :]
    emin = float(np.linalg.eigvalsh(S)[0])
    if emin >= -1e-14:
        return np.inf
    return -1.0 / emin


# ---------------------------------------------------------------------------
# interior-point solve


def solve(problem: SdpProblem, feas_tol: float = 1e-8, gap_tol: float = 1e-8,
          max_iter: int = 200) -> SdpSolution:
    """Solve the SDP with the interior-point method from the data-scaled start."""
    return _solve_ipm(_Assembled(problem), feas_tol, gap_tol, max_iter)


def _starting_point(A: _Assembled) -> tuple:
    """SDPT3's infeasible start (Toh, Todd & Tutuncu 1999): G_b = xi_b I,
    Z_b = eta_b I from the rhs and each equality's ||A_i^b||_F."""
    c_max = float(np.max(np.abs(A.c))) if A.q else 0.0
    Gs, Zs = [], []
    for (eq, pp, qq, ww), (active, *_), n in zip(A.blocks, A.padded, A.dims):
        fro = np.sqrt(np.bincount(eq, np.where(pp == qq, 1.0, 0.5) * ww * ww, A.p))[active]
        xi = n * np.max((1.0 + np.abs(A.beta[active])) / (1.0 + fro), initial=0.0)
        Gs.append(np.eye(n) * max(10.0, np.sqrt(n), xi))
        Zs.append(np.eye(n) * max(10.0, np.sqrt(n), np.max(fro, initial=0.0), c_max))
    return Gs, Zs


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
    Gs, Zs = _starting_point(A)
    y = np.zeros(q)
    nu = np.zeros(p)

    beta_scale = 1.0 + float(np.max(np.abs(A.beta)))
    c_scale = 1.0 + (float(np.max(np.abs(A.c))) if q else 0.0)

    # Degenerate optima (strict complementarity failing) stall the residuals a
    # hair above tolerance while mu keeps shrinking.  Keep the best iterate and
    # accept it at a relaxed tolerance instead of reporting a hard failure.
    best = None
    no_improve = 0

    reduced_feas = max(1e-6, 100 * feas_tol)
    reduced_gap = max(1e-5, 100 * gap_tol)

    def finish(msg, it):
        if best is not None:
            b_pobj, b_y, b_Gs, b_nu, b_pinf, b_dinf, b_gap, b_mu, b_it = best
            if (b_pinf <= reduced_feas and b_dinf <= reduced_feas
                    and (b_gap <= reduced_gap or b_mu / scale0 <= reduced_gap)):
                return SdpSolution("optimal", b_pobj, A.scalars(b_y), b_Gs,
                                   dual_values=b_nu, iterations=it, gap=b_gap,
                                   primal_residual=b_pinf, dual_residual=b_dinf,
                                   message=f"reduced accuracy ({msg})", trace=trace)
        return fail(msg, it)

    for it in range(max_iter):
        rp = A.beta - A.apply_A(Gs) + A.D @ y
        rfree = -A.c - A.D.T @ nu
        Atnu = A.apply_At(nu)
        Rd = [-At - Z for At, Z in zip(Atnu, Zs)]

        mu = sum(np.sum(G * Z) for G, Z in zip(Gs, Zs)) / max(A.ntot, 1)
        pobj = float(A.c @ y)
        dobj = float(A.beta @ nu)
        gap = abs(pobj - dobj) / (1.0 + max(abs(pobj), abs(dobj)))
        pinf = float(np.max(np.abs(rp))) / beta_scale
        dinf = max([float(np.max(np.abs(rfree))) / c_scale if q else 0.0]
                   + [float(np.max(np.abs(R))) / c_scale for R in Rd])
        trace.append({"iter": it, "mu": mu, "pinf": pinf, "dinf": dinf, "gap": gap})

        if not np.isfinite(mu) or not np.isfinite(pinf) or not np.isfinite(dinf):
            return finish("non-finite iterate", it)
        if pinf <= feas_tol and dinf <= feas_tol and (gap <= gap_tol or mu / scale0 <= gap_tol):
            return SdpSolution("optimal", pobj, A.scalars(y), Gs,
                               dual_values=nu, iterations=it, gap=gap,
                               primal_residual=pinf, dual_residual=dinf, trace=trace)

        score = max(pinf, dinf, min(gap, mu / scale0))
        if best is None or score < 0.9 * best_score:
            best = (pobj, y.copy(), [G.copy() for G in Gs], nu.copy(),
                    pinf, dinf, gap, mu, it)
            best_score = score
            no_improve = 0
        else:
            no_improve += 1
            if no_improve >= 6 and mu / scale0 <= gap_tol:
                return finish("progress stalled near optimum", it)
        if dinf <= 1e-6 and dobj > 1e10 * beta_scale:
            return SdpSolution("infeasible", float("inf"),
                               dict.fromkeys(A.scalar_ids, float("nan")), Gs,
                               dual_values=nu, iterations=it, gap=gap,
                               primal_residual=pinf, dual_residual=dinf,
                               message="dual objective diverging", trace=trace)
        if pinf <= 1e-6 and pobj < -1e10 * c_scale:
            return SdpSolution("unbounded", float("-inf"), A.scalars(y), Gs,
                               iterations=it, gap=gap, primal_residual=pinf,
                               dual_residual=dinf, message="primal objective diverging",
                               trace=trace)

        # Nesterov-Todd scaling per block: W = R R^T, R^-1 G R^-T = R^T Z R = Sigma
        Rs, Rinvs, sigs, Ws = [], [], [], []
        for G, Z in zip(Gs, Zs):
            LG, LZ = _chol(G), _chol(Z)
            if LG is None or LZ is None:
                return finish("iterate lost positive definiteness", it)
            U, s, Vt = np.linalg.svd(LZ.T @ LG)
            if np.min(s) <= 0:
                return finish("iterate lost positive definiteness", it)
            R = LG @ Vt.T / np.sqrt(s)[None, :]
            Rinv = (Vt.T * np.sqrt(s)[None, :]).T @ np.linalg.inv(LG)
            Rs.append(R)
            Rinvs.append(Rinv)
            sigs.append(s)
            Ws.append(R @ R.T)

        kkt = _null_space_solver(A, A.schur(Ws))
        if kkt is None:
            return finish("Schur complement not PD", it)

        def newton_raw(rp_loc, rfree_loc, Rd_loc, Vs):
            """Direction from scaled complementarity targets Vs (= dG~ + dZ~)."""
            h1 = rp_loc.copy()
            for b, (R, W, Rd_b, V) in enumerate(zip(Rs, Ws, Rd_loc, Vs)):
                tmp = R @ V @ R.T - W @ Rd_b @ W
                eqb, ppb, qqb, wwb = A.blocks[b]
                if len(eqb):
                    h1 -= np.bincount(eqb, weights=wwb * tmp[ppb, qqb], minlength=p)
            dnu, dy = kkt(h1, rfree_loc)
            Atdnu = A.apply_At(dnu)
            # symmetric directions: apply_A reads one triangle of dG, so
            # roundoff in the congruences would otherwise drift G off symmetry
            dZs = [Rd_b - At for Rd_b, At in zip(Rd_loc, Atdnu)]
            dGs = [R @ V @ R.T - W @ Rd_b @ W + W @ At @ W
                   for R, W, Rd_b, At, V in zip(Rs, Ws, Rd_loc, Atdnu, Vs)]
            return ([0.5 * (X + X.T) for X in dGs], dy, dnu,
                    [0.5 * (X + X.T) for X in dZs])

        zeros = [np.zeros((n, n)) for n in dims]

        def newton(Vs):
            # one KKT-level refinement pass: the complementarity and dual rows
            # are satisfied to roundoff by construction, so only the primal and
            # free-variable residuals need a correction solve
            dGs, dy, dnu, dZs = newton_raw(rp, rfree, Rd, Vs)
            res_p = rp - A.apply_A(dGs) + A.D @ dy
            res_f = rfree - A.D.T @ dnu
            cG, cy, cnu, cZ = newton_raw(res_p, res_f, zeros, zeros)
            return ([dG + c for dG, c in zip(dGs, cG)], dy + cy,
                    dnu + cnu, [dZ + c for dZ, c in zip(dZs, cZ)])

        def step_lengths(dGs, dZs):
            """Fraction-to-boundary steps (primal, dual) and the scaled directions."""
            dGt = [Rinv @ dG @ Rinv.T for Rinv, dG in zip(Rinvs, dGs)]
            dZt = [R.T @ dZ @ R for R, dZ in zip(Rs, dZs)]
            inv_sqrt = [1.0 / np.sqrt(s) for s in sigs]
            ap = min(1.0, 0.99 * min(map(_max_step, inv_sqrt, dGt)))
            ad = min(1.0, 0.99 * min(map(_max_step, inv_sqrt, dZt)))
            return ap, ad, dGt, dZt

        # predictor
        dGa, dya, dnua, dZa = newton([np.diag(-s) for s in sigs])
        ap, ad, dGt, dZt = step_lengths(dGa, dZa)

        mu_aff = sum(np.sum((G + ap * dG) * (Z + ad * dZ))
                     for G, Z, dG, dZ in zip(Gs, Zs, dGa, dZa)) / max(A.ntot, 1)
        sigma = float(np.clip((max(mu_aff, 0.0) / mu) ** 3, 1e-10, 0.999))

        # corrector
        Vs = []
        for s, dg, dz in zip(sigs, dGt, dZt):
            Rc = -np.diag(s * s) + sigma * mu * np.eye(len(s)) - 0.5 * (dg @ dz + dz @ dg)
            Vs.append(2.0 * Rc / (s[:, None] + s[None, :]))
        dGs, dy, dnu, dZs = newton(Vs)
        ap, ad, _, _ = step_lengths(dGs, dZs)
        if not np.isfinite(ap) or not np.isfinite(ad) or ap <= 1e-12 or ad <= 1e-12:
            return finish("step length collapsed", it)

        Gs = [G + ap * dG for G, dG in zip(Gs, dGs)]
        y = y + ap * dy
        Zs = [Z + ad * dZ for Z, dZ in zip(Zs, dZs)]
        nu = nu + ad * dnu
        trace[-1].update(ap=ap, ad=ad, sigma=sigma)

    return finish(f"no convergence in {max_iter} iterations", max_iter)


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
