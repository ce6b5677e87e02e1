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
unridged M runs while it lowers the residual.  Free variables are eliminated
through a second (tiny) Schur step that is solved the same way.

No external solver is involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .soscompiler import (Equality, SdpProblem, certificate_from_grams,
                          check_certificate)


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
        self.q = q
        self.ntot = sum(self.dims)

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

    def constraint_rows(self) -> np.ndarray:
        """Dense p x sum(n^2) matrix whose row i is vec(A*(e_i)), block by
        block: A(G) = rows @ concat(vec(G_b)) for symmetric G."""
        rows = np.zeros((self.p, sum(n * n for n in self.dims)))
        off = 0
        for (eq, pp, qq, ww), n in zip(self.blocks, self.dims):
            np.add.at(rows, (eq, off + pp * n + qq), 0.5 * ww)
            np.add.at(rows, (eq, off + qq * n + pp), 0.5 * ww)
            off += n * n
        return rows

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
    if p == 0:
        return SdpSolution("optimal", 0.0, {k: 0.0 for k in A.free_ids},
                           [np.zeros((n, n)) for n in dims])

    # the stopping tests measure mu against the data, not against the start
    scale0 = max(1.0, float(np.max(np.abs(A.beta))),
                 float(np.max(np.abs(A.c))) if q else 1.0)
    Gs, Zs = _starting_point(A)
    y = np.zeros(q)
    nu = np.zeros(p)

    beta_scale = 1.0 + float(np.max(np.abs(A.beta)))
    c_scale = 1.0 + (float(np.max(np.abs(A.c))) if q else 0.0)
    trace = []
    fail = lambda msg, it: SdpSolution(
        "numerical_failure", float("nan"), {k: float("nan") for k in A.free_ids},
        [np.full((n, n), np.nan) for n in dims], iterations=it, message=msg, trace=trace)

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
                return SdpSolution("optimal", b_pobj, dict(zip(A.free_ids, b_y)), b_Gs,
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
            return SdpSolution("optimal", pobj, dict(zip(A.free_ids, y)), Gs,
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
            return SdpSolution("infeasible", float("inf"), {k: float("nan") for k in A.free_ids},
                               Gs, dual_values=nu, iterations=it, gap=gap,
                               primal_residual=pinf, dual_residual=dinf,
                               message="dual objective diverging", trace=trace)
        if pinf <= 1e-6 and pobj < -1e10 * c_scale:
            return SdpSolution("unbounded", float("-inf"), dict(zip(A.free_ids, y)), Gs,
                               iterations=it, gap=gap, primal_residual=pinf,
                               dual_residual=dinf, message="primal objective diverging",
                               trace=trace)

        # Nesterov-Todd scaling per block: W = R R^T, R^-1 G R^-T = R^T Z R = Sigma
        Rs, Rinvs, sigs, Ws = [], [], [], []
        bad = False
        for G, Z in zip(Gs, Zs):
            LG, LZ = _chol(G), _chol(Z)
            if LG is None or LZ is None:
                bad = True
                break
            U, s, Vt = np.linalg.svd(LZ.T @ LG)
            if np.min(s) <= 0:
                bad = True
                break
            R = LG @ Vt.T / np.sqrt(s)[None, :]
            Rinv = (Vt.T * np.sqrt(s)[None, :]).T @ np.linalg.inv(LG)
            Rs.append(R)
            Rinvs.append(Rinv)
            sigs.append(s)
            Ws.append(R @ R.T)
        if bad:
            return finish("iterate lost positive definiteness", it)

        M = A.schur(Ws)
        msolve = _refined_solver(M)
        if msolve is None:
            return finish("Schur complement not PD", it)
        MD = msolve(A.D) if q else np.zeros((p, 0))
        if q:
            S2 = A.D.T @ MD
            fsolve = _refined_solver(S2)
            if fsolve is None:
                return finish("free-variable Schur block not PD", it)

        def newton_raw(rp_loc, rfree_loc, Rd_loc, Vs):
            """Direction from scaled complementarity targets Vs (= dG~ + dZ~)."""
            h1 = rp_loc.copy()
            for b, (R, W, Rd_b, V) in enumerate(zip(Rs, Ws, Rd_loc, Vs)):
                tmp = R @ V @ R.T - W @ Rd_b @ W
                eqb, ppb, qqb, wwb = A.blocks[b]
                if len(eqb):
                    h1 -= np.bincount(eqb, weights=wwb * tmp[ppb, qqb], minlength=p)
            m1 = msolve(h1)
            if q:
                # (D^T M^-1 D) dy = rfree - D^T m1, then dnu = m1 + M^-1 D dy
                dy = fsolve(rfree_loc - A.D.T @ m1)
                dnu = m1 + MD @ dy
            else:
                dy = np.zeros(0)
                dnu = m1
            Atdnu = A.apply_At(dnu)
            dZs = [Rd_b - At for Rd_b, At in zip(Rd_loc, Atdnu)]
            dGs = [R @ V @ R.T - W @ Rd_b @ W + W @ At @ W
                   for R, W, Rd_b, At, V in zip(Rs, Ws, Rd_loc, Atdnu, Vs)]
            return dGs, dy, dnu, dZs

        zero_Rd = [np.zeros((n, n)) for n in dims]
        zero_V = [np.zeros((n, n)) for n in dims]

        def newton(Vs):
            # one KKT-level refinement pass: the complementarity and dual rows
            # are satisfied to roundoff by construction, so only the primal and
            # free-variable residuals need a correction solve
            dGs, dy, dnu, dZs = newton_raw(rp, rfree, Rd, Vs)
            res_p = rp - A.apply_A(dGs) + (A.D @ dy if q else 0.0)
            res_f = rfree - A.D.T @ dnu if q else rfree
            cG, cy, cnu, cZ = newton_raw(res_p, res_f, zero_Rd, zero_V)
            return ([dG + c for dG, c in zip(dGs, cG)], dy + cy,
                    dnu + cnu, [dZ + c for dZ, c in zip(dZs, cZ)])

        # predictor
        Vaff = [np.diag(-s) for s in sigs]
        dGa, dya, dnua, dZa = newton(Vaff)

        alphas_p, alphas_d = [], []
        dGt, dZt = [], []
        for R, Rinv, s, dG, dZ in zip(Rs, Rinvs, sigs, dGa, dZa):
            dg = Rinv @ dG @ Rinv.T
            dz = R.T @ dZ @ R
            dGt.append(dg)
            dZt.append(dz)
            inv_sqrt = 1.0 / np.sqrt(s)
            alphas_p.append(_max_step(inv_sqrt, dg))
            alphas_d.append(_max_step(inv_sqrt, dz))
        ap = min(1.0, 0.99 * min(alphas_p))
        ad = min(1.0, 0.99 * min(alphas_d))

        mu_aff = sum(np.sum((G + ap * dG) * (Z + ad * dZ))
                     for G, Z, dG, dZ in zip(Gs, Zs, dGa, dZa)) / max(A.ntot, 1)
        sigma = float(np.clip((max(mu_aff, 0.0) / mu) ** 3, 1e-10, 0.999))

        # corrector
        Vs = []
        for s, dg, dz in zip(sigs, dGt, dZt):
            Rc = -np.diag(s * s) + sigma * mu * np.eye(len(s)) - 0.5 * (dg @ dz + dz @ dg)
            Vs.append(2.0 * Rc / (s[:, None] + s[None, :]))
        dGs, dy, dnu, dZs = newton(Vs)

        alphas_p, alphas_d = [], []
        for R, Rinv, s, dG, dZ in zip(Rs, Rinvs, sigs, dGs, dZs):
            inv_sqrt = 1.0 / np.sqrt(s)
            alphas_p.append(_max_step(inv_sqrt, Rinv @ dG @ Rinv.T))
            alphas_d.append(_max_step(inv_sqrt, R.T @ dZ @ R))
        ap = min(1.0, 0.99 * min(alphas_p))
        ad = min(1.0, 0.99 * min(alphas_d))
        if not np.isfinite(ap) or not np.isfinite(ad) or ap <= 1e-12 or ad <= 1e-12:
            return finish("step length collapsed", it)

        Gs = [G + ap * dG for G, dG in zip(Gs, dGs)]
        y = y + ap * dy
        Zs = [Z + ad * dZ for Z, dZ in zip(Zs, dZs)]
        nu = nu + ad * dnu
        trace[-1]["ap"] = ap
        trace[-1]["ad"] = ad
        trace[-1]["sigma"] = sigma

    return finish(f"no convergence in {max_iter} iterations", max_iter)


# ---------------------------------------------------------------------------
# certificate re-solve


def pin_free(problem: SdpProblem, pins: Mapping[str, float]) -> SdpProblem:
    """Substitute fixed values for some free scalars (fold into the rhs)."""
    eqs = []
    for eq in problem.equalities:
        free = {k: v for k, v in eq.free.items() if k not in pins}
        rhs = eq.rhs + sum(v * pins[k] for k, v in eq.free.items() if k in pins)
        eqs.append(Equality(list(eq.gram), free, rhs, eq.monomial, eq.position))
    return SdpProblem(
        block_dims=list(problem.block_dims),
        free_ids=tuple(k for k in problem.free_ids if k not in pins),
        objective={k: v for k, v in problem.objective.items() if k not in pins},
        equalities=eqs,
        bases=problem.bases,
        matrix_dim=problem.matrix_dim,
        variables=problem.variables,
    )


def _phase1(problem: SdpProblem, t_id: str = "_slack") -> SdpProblem:
    """max t s.t. the pinned equalities hold for G' + t I, G' >= 0."""
    eqs = []
    for eq in problem.equalities:
        diag = sum(w for _, r, s, w in eq.gram if r == s)
        free = dict(eq.free)
        if diag:
            free[t_id] = free.get(t_id, 0.0) - diag
        eqs.append(Equality(list(eq.gram), free, eq.rhs, eq.monomial, eq.position))
    return SdpProblem(
        block_dims=list(problem.block_dims),
        free_ids=tuple(sorted(set(problem.free_ids) | {t_id})),
        objective={t_id: -1.0},
        equalities=eqs,
        bases=problem.bases,
        matrix_dim=problem.matrix_dim,
        variables=problem.variables,
    )


def _project_equalities(assembled: _Assembled, Gs: Sequence[np.ndarray],
                        yvec: np.ndarray) -> list:
    """Min-Frobenius-norm Gram correction that closes the equalities exactly.

    Solves apply_A(delta) = beta - A(G) + D y by least squares on the stacked
    constraint rows; the minimum-norm solution lies in the span of the
    (symmetric) constraint matrices, so the correction stays symmetric.
    """
    rp = assembled.beta - assembled.apply_A(Gs) + assembled.D @ yvec
    delta, *_ = np.linalg.lstsq(assembled.constraint_rows(), rp, rcond=None)
    out = []
    off = 0
    for G, n in zip(Gs, assembled.dims):
        D = delta[off:off + n * n].reshape(n, n)
        out.append(G + 0.5 * (D + D.T))
        off += n * n
    return out


def ensure_certified(problem: SdpProblem, target, sol: SdpSolution,
                     feas_tol: float = 1e-8,
                     backoffs: Sequence[float] = (0.0, 1e-6, 1e-5, 1e-4)):
    """Recheck a solution's Gram certificate, re-solving pinned if it fails.

    A minimizing run that stops at reduced accuracy can leave equality
    residuals right at the certificate checker's tolerance.  Pinning the
    objective scalar at (a hair above) the solved bound turns the program
    into the phase-1 feasibility problem, whose optimum has genuine interior
    slack; the stalled phase-1 iterate is then projected onto the equality
    subspace, which the slack absorbs without losing semidefiniteness.  The
    pin is backed off along ``backoffs`` (relative to the bound's magnitude)
    because the stalled minimizer's objective value may sit slightly below
    the true optimum, i.e. be infeasible as pinned; each candidate is judged
    by the certificate check itself.

    Returns ``(solution, certificate, report)``; the originals come back
    when the first check already passes, the problem does not have a single
    scalar objective, or no pin on the ladder produces a passing Gram.
    """
    cert = certificate_from_grams(problem, sol.gram_values)
    report = check_certificate(target, sol.scalar_values, cert)
    if report.passed or not sol.ok or len(problem.objective) != 1:
        return sol, cert, report
    [obj_id] = problem.objective
    if obj_id not in sol.scalar_values:
        return sol, cert, report
    value = float(sol.scalar_values[obj_id])
    span = max(abs(value), 1.0)
    for backoff in backoffs:
        pinned_val = value + backoff * span
        assembled = _Assembled(_phase1(pin_free(problem, {obj_id: pinned_val})))
        cand = _solve_ipm(assembled, feas_tol, 1e-9, 200)
        if not cand.ok or "_slack" not in cand.scalar_values:
            continue
        t = float(cand.scalar_values["_slack"])
        if t < -feas_tol:
            continue  # pinned below the true optimum; back off further
        yvec = np.array([cand.scalar_values[k] for k in assembled.free_ids])
        projected = _project_equalities(assembled, cand.gram_values, yvec)
        scalars = {k: v for k, v in cand.scalar_values.items() if k != "_slack"}
        scalars[obj_id] = pinned_val
        grams = [G + t * np.eye(G.shape[0]) for G in projected]
        new_cert = certificate_from_grams(problem, grams)
        new_report = check_certificate(target, scalars, new_cert)
        if new_report.passed:
            resolved = SdpSolution(
                "optimal", pinned_val, scalars, grams,
                iterations=cand.iterations, gap=cand.gap,
                primal_residual=cand.primal_residual,
                dual_residual=cand.dual_residual,
                method=sol.method + "+recertify",
                message=f"re-solved with {obj_id} pinned at {pinned_val:.9g}",
                trace=cand.trace)
            return resolved, new_cert, new_report
    return sol, cert, report


# ---------------------------------------------------------------------------
# file front end


def solve_file(path: str, **kwargs) -> SdpSolution:
    with open(path) as fh:
        problem = SdpProblem.parse(fh.read())
    return solve(problem, **kwargs)
