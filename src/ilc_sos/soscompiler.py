"""Compile matrix SOS feasibility conditions into semidefinite programs.

A constraint ``S(x) is SOS`` for a symmetric m x m polynomial matrix S
(entries affine in named decision scalars) is parameterized with Gram
matrices.  A Gram block is a pair of int arrays ``(mono, coord)``: row p
of ``mono`` (n_b x variables) holds the exponents of a monomial m_p and
``coord[p]`` its coordinate c_p.  The block spans the n_b x m matrix V_b(x)
with V_b[p, c_p] = m_p(x) and zeros elsewhere, and

    S(x) = sum_b  V_b(x)^T  G_b  V_b(x),   G_b >= 0,

so S[r, s] = sum_b sum_{c_p = r, c_q = s} G_b[p, q] m_p(x) m_q(x).
Matching coefficients of every product monomial at every matrix position
(upper triangle) that some block can produce yields one linear equality per
(monomial, position) pair.  The result is a block SDP

    minimize    c^T y
    subject to  sum  w * G[p, q]  -  sum  d_j * y_j  =  beta   (per equality)
                G_b  >= 0,   y free,

with the decision scalars y (contraction-rate bound, learning gains, ...)
entering the equalities through the coefficients of S.

Each Gram entry (p, q) contributes to exactly one product monomial
m_p + m_q at exactly one position (c_p, c_q), so the equality system is
always consistent in structure; infeasibility can only come from the PSD
side.

The usual shared basis v(x) (x) I_m is the block ``kron_pairs(v, m)``, with
monomial v_i at coordinate r in row i*m + r.  When the rows of S have very
different degrees (say row 0 carries a high degree polynomial while the rest
is an identity block), a shared basis has no strictly feasible Gram: every basis
monomial of degree >= 1 paired with an identity row is forced to zero on
the diagonal, which stalls interior-point solvers.  Giving each coordinate
its own monomial list instead restores a strictly feasible interior
whenever one exists.

Sign symmetries halve the blocks.  Suppose S is invariant under flipping
the sign of some variables combined with the congruence D S D by a diagonal
sign matrix D.  Then row p (m_p, c_p) picks up the sign chi_p =
(-1)^(flipped exponents of m_p) * D[c_p, c_p], averaging any Gram over the
flip zeroes every entry with chi_p != chi_q, and the blocks split by chi
with no loss of generality (Gatermann & Parrilo 2004, "Symmetry groups,
semidefinite programs, and sums of squares", J. Pure Appl. Algebra 192).
``sign_classes`` applies any number of such flips at once.  If S lacks the
symmetry, some nonzero coefficient of S is unproducible in the split layout
and :func:`compile_sos` raises :class:`BasisDeficiency`.

Both directions work on arrays.  S arrives as its term table (exponent rows
and coefficient rows, one column per decision, each column already pruned
against its own scale; see :mod:`polyalg`).  The compile keys every Gram
entry (b, p <= q) and every coefficient of S's upper triangle by (degree,
monomial, position), encoded as one integer; the sorted distinct keys of the
Gram entries are the equalities, and S's coefficient rows are found among
them by search.  The program stays in array form from there to the solver
(:class:`SdpProblem`): one int row (equality, block, p, q) and one weight per
Gram entry, grouped by equality, a dense equalities x free-scalars matrix of
the decisions' coefficients and one right-hand side per equality.
:func:`check_certificate` rebuilds V^T G V from the certificate's own
blocks and forms the residual S - V^T G V coefficientwise from the same
keys; it reads nothing the compile produced.  Each mismatch is measured
against the coefficient's resolved value c0 + sum_j d_j y_j (floored at 1),
not against the compile's equality scale max(1, |c0|, max_j |d_j|), which
counts a decision weight d_j in full whatever y_j is.  That resolved value
is rounded once from its exact value, however its terms cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .polyalg import PolyMatrix, compositions


class BasisDeficiency(Exception):
    """The monomial basis cannot produce some monomial of S."""


# ---------------------------------------------------------------------------
# monomial bases


def monomial_basis(variables: Sequence[str], groups: Sequence[tuple]) -> np.ndarray:
    """Deterministic monomial basis: an exponent array (monomials x variables).

    ``groups`` is a list of ``(names, mode, degree)`` where mode is

    * ``"graded"``      -- total degree over the group at most ``degree``
    * ``"homogeneous"`` -- total degree over the group exactly ``degree``

    Every variable must appear in exactly one group; the basis is the cross
    product of the group bases, sorted by degree, then lexicographically.
    """
    variables = tuple(variables)
    seen: set = set()
    for names, _, _ in groups:
        for n in names:
            if n in seen or n not in variables:
                raise ValueError(f"bad group variable {n!r}")
            seen.add(n)
    if seen != set(variables):
        raise ValueError("groups must cover all variables")
    basis = np.zeros((1, len(variables)), dtype=np.int64)
    for names, mode, degree in groups:
        # a graded group is a homogeneous one with a slack coordinate dropped
        k = len(names)
        exps = compositions(degree, k) if mode == "homogeneous" else compositions(degree, k + 1)[:, :k]
        tiled = np.tile(exps, (len(basis), 1))
        basis = np.repeat(basis, len(exps), axis=0)
        basis[:, [variables.index(n) for n in names]] = tiled
    # no numpy quicksort here or in sign_classes: its first call (np.unique,
    # a default np.argsort) adds up to 1.5 MB to the peak RSS of a run
    return basis[np.argsort(_codes(np.column_stack([basis.sum(axis=1), basis])), kind="stable")]


def kron_pairs(basis: np.ndarray, m: int) -> tuple:
    """The block ``basis (x) I_m``: monomial basis[i] at coordinate r in row
    i*m + r."""
    return np.repeat(basis, m, axis=0), np.tile(np.arange(m), len(basis))


def sign_classes(block: tuple, flips: Sequence[tuple[Sequence[int], Sequence[int]]]) -> list[tuple]:
    """Split a Gram block by sign symmetries of the matched matrix.

    Each flip ``(var_indices, coords)`` negates the listed variables and
    conjugates S by the sign matrix that is -1 at the listed coordinates.
    Rows go to one block per pattern of their signs under the flips, in
    their input order; the blocks come out sorted by that pattern, the first
    flip most significant.  With S invariant under every flip, the Gram
    matrix decouples into these blocks with no loss of generality.
    """
    mono, coord = block
    key = np.zeros(len(coord), dtype=np.int64)
    for idx, coords in flips:
        negated = (coord[:, None] == np.asarray(coords, dtype=np.int64)).any(axis=1)
        key = 2 * key + (mono[:, list(idx)].sum(axis=1) + negated) % 2
    return [(mono[key == k], coord[key == k]) for k in sorted(set(key.tolist()))]


# ---------------------------------------------------------------------------
# problem containers


@dataclass
class SdpProblem:
    """The compiled program, as arrays.  Equality i reads

        sum_e weights[e] G[b_e][p_e, q_e]  -  sum_j free[i, j] y_j  =  rhs[i]

    over its Gram entries e, the rows (i, b_e, p_e, q_e) of ``entries``,
    which are sorted by equality; y_j is the free scalar ``free_ids[j]``.
    ``bases`` (one (mono, coord) block per Gram block) is kept for the
    certificate and is not serialized.
    """

    block_dims: list
    free_ids: tuple
    objective: dict
    entries: np.ndarray   # int, one row (equality, block, p, q) per Gram entry
    weights: np.ndarray   # float, one per Gram entry
    free: np.ndarray      # float, equalities x free_ids
    rhs: np.ndarray       # float, one per equality
    bases: list | None = None

    @property
    def n_equalities(self) -> int:
        return len(self.rhs)

    def serialize(self) -> str:
        """The program as text, one line per equality:
        ``g <n> (<block> <p> <q> <weight>)*n f <m> (<id> <coeff>)*m r <rhs>``."""
        lines = ["sos-sdp 1",
                 "blocks " + " ".join(str(d) for d in self.block_dims),
                 "free " + " ".join(self.free_ids),
                 "objective " + " ".join(f"{k} {v!r}" for k, v in sorted(self.objective.items())),
                 f"equalities {self.n_equalities}"]
        gram = [f"{b} {p} {q} {w!r}" for (b, p, q), w in zip(self.entries[:, 1:].tolist(),
                                                             self.weights.tolist())]
        bounds = np.searchsorted(self.entries[:, 0], np.arange(self.n_equalities + 1)).tolist()
        for lo, hi, row, rhs in zip(bounds, bounds[1:], self.free.tolist(), self.rhs.tolist()):
            free = [f"{k} {v!r}" for k, v in zip(self.free_ids, row) if v]
            lines.append(" ".join(["g", str(hi - lo), *gram[lo:hi],
                                   "f", str(len(free)), *free, "r", repr(rhs)]))
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "SdpProblem":
        """Read :meth:`serialize`'s text back.  Raises ValueError naming the
        first line that does not read as that format."""
        rows = iter([(no, ln.split()) for no, ln in enumerate(text.splitlines(), 1)
                     if ln.strip()])
        no = 0

        def take(key):
            """The next line's fields, which must start with ``key``."""
            nonlocal no
            no, toks = next(rows, (no + 1, ["(end of text)"]))
            if toks[0] != key:
                raise ValueError(f"expected a {key!r} line, found {toks[0]!r}")
            return toks

        try:
            if take("sos-sdp") != ["sos-sdp", "1"]:
                raise ValueError("unknown format version")
            dims = [int(t) for t in take("blocks")[1:]]
            free_ids = tuple(take("free")[1:])
            obj = take("objective")[1:]
            if len(obj) % 2:
                raise ValueError("objective needs (id, coefficient) pairs")
            objective = {k: float(v) for k, v in zip(obj[::2], obj[1::2])}
            (n_eq,) = (int(t) for t in take("equalities")[1:])
            if n_eq < 0:
                raise ValueError("negative equality count")
            col = {k: j for j, k in enumerate(free_ids)}
            entries, weights, cells, rhs = [], [], [], []
            for i in range(n_eq):
                toks = take("g")
                pos = 2
                for _ in range(int(toks[1])):
                    b, p, q = int(toks[pos]), int(toks[pos + 1]), int(toks[pos + 2])
                    if not (0 <= b < len(dims) and 0 <= p < dims[b] and 0 <= q < dims[b]):
                        raise ValueError(f"Gram entry ({b}, {p}, {q}) lies outside the blocks")
                    entries.append((i, b, p, q))
                    weights.append(float(toks[pos + 3]))
                    pos += 4
                if toks[pos] != "f":
                    raise ValueError("expected 'f' after the Gram entries")
                nf = int(toks[pos + 1])
                for k, v in zip(toks[pos + 2:pos + 2 + 2 * nf:2], toks[pos + 3:pos + 3 + 2 * nf:2]):
                    if k not in col:
                        raise ValueError(f"unknown free scalar {k!r}")
                    cells.append((i, col[k], float(v)))
                pos += 2 + 2 * nf
                if toks[pos:pos + 1] != ["r"] or len(toks) != pos + 2:
                    raise ValueError("expected the line to end with 'r <rhs>'")
                rhs.append(float(toks[pos + 1]))
            for no, _ in rows:
                raise ValueError("text after the last equality")
        except IndexError:
            raise ValueError(f"line {no}: the line ends early") from None
        except ValueError as e:
            raise ValueError(f"line {no}: {e}") from None
        free = np.zeros((n_eq, len(free_ids)))
        for i, j, v in cells:
            free[i, j] = v
        return cls(dims, free_ids, objective, np.array(entries, dtype=np.int64).reshape(-1, 4),
                   np.array(weights, dtype=float), free, np.array(rhs, dtype=float))


@dataclass
class SosCertificate:
    grams: list          # numpy arrays, one per block
    bases: list          # one (mono, coord) block per Gram block


@dataclass
class CertificateReport:
    residual: float
    scale: float
    min_eigs: list
    passed: bool

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"certificate {status}: residual {self.residual:.3e} "
                f"(scale {self.scale:.3e}), min eig {min(self.min_eigs):.3e}")


# ---------------------------------------------------------------------------
# compilation


def _codes(keys: np.ndarray) -> np.ndarray:
    """One int64 per row of the integer array ``keys``, in the rows'
    lexicographic order."""
    keys = keys - keys.min(axis=0, initial=0)
    radix = keys.max(axis=0, initial=0) + 1
    if np.prod(radix.astype(float)) >= 2.0 ** 62:
        raise OverflowError("monomial table too large to index")
    return keys @ np.cumprod(np.append(radix[1:], 1)[::-1])[::-1]


def _upper_terms(S: PolyMatrix) -> tuple:
    """S's upper-triangle terms: (exponents, r, s) rows, their coefficient
    rows and the decision names of the coefficient columns."""
    entry, exps, coeffs, names = S.table()
    r, s = np.divmod(entry, S.cols)
    up = r <= s
    return np.column_stack([exps, r, s])[up], coeffs[up], names


def compile_sos(S: PolyMatrix, objective: Mapping[str, float],
                bases: Sequence[tuple] | None = None) -> SdpProblem:
    """Compile ``S is SOS`` into an :class:`SdpProblem` minimizing ``objective``.

    ``bases`` lists the Gram blocks, each a (mono, coord) pair of arrays;
    when omitted, one block ``v (x) I_m`` with the graded basis v in
    all variables up to half the degree of S is used.  Raises
    :class:`BasisDeficiency` if some nonzero coefficient of S cannot be
    written as a sum of two rows of one block at its position.
    """
    if S.rows != S.cols:
        raise ValueError("S must be square")
    if not S.is_symmetric(1e-9):
        raise ValueError("S must be symmetric")
    m = S.rows
    variables = S.variables
    if bases is None:
        half = (S.degree() + 1) // 2
        bases = [kron_pairs(monomial_basis(variables, [(variables, "graded", half)]), m)]
    bases = list(bases)
    if not all(len(coord) and mono.shape == (len(coord), len(variables))
               and ((0 <= coord) & (coord < m)).all() for mono, coord in bases):
        raise ValueError("every Gram block needs monomial rows over S's variables "
                         "and coordinates in range(m)")

    # every Gram entry (b, p <= q) feeds the monomial m_p + m_q at position
    # (min, max) of its coordinates, with weight 2 when (q, p) feeds it too
    entries, keys, weights = [], [], []
    for b, (mono, coord) in enumerate(bases):
        p, q = np.triu_indices(len(coord))
        entries.append(np.column_stack([np.full(len(p), b), p, q]))
        keys.append(np.column_stack([mono[p] + mono[q], np.minimum(coord[p], coord[q]),
                                     np.maximum(coord[p], coord[q])]))
        weights.append(np.where((p != q) & (coord[p] == coord[q]), 2.0, 1.0))
    keys = np.concatenate(keys)
    s_keys, s_coeffs, names = _upper_terms(S)

    # one equality per producible (monomial, position), by degree, monomial, position
    both = np.concatenate([keys, s_keys])
    codes = _codes(np.column_stack([both[:, :-2].sum(axis=1), both]))
    order = np.argsort(codes[:len(keys)], kind="stable")
    eq_codes, starts = np.unique(codes[order], return_index=True)
    at = np.minimum(np.searchsorted(eq_codes, codes[len(keys):]), len(eq_codes) - 1)
    found = eq_codes[at] == codes[len(keys):]
    missing = np.flatnonzero(~found & (s_coeffs != 0).any(axis=1))
    if missing.size:
        key = s_keys[missing[0]].tolist()
        raise BasisDeficiency(f"monomial {tuple(key[:-2])} at position {tuple(key[-2:])} "
                              "not producible")
    coeff = np.zeros((len(eq_codes), 1 + len(names)))
    coeff[at[found]] = s_coeffs[found]
    # each equality is divided by its coefficient's magnitude, floored at 1
    scale = np.maximum(np.abs(coeff).max(axis=1), 1.0)
    coeff /= scale[:, None]
    counts = np.diff(starts, append=len(order))
    weights = np.concatenate(weights)[order] / np.repeat(scale, counts)
    entries = np.column_stack([np.repeat(np.arange(len(eq_codes)), counts),
                               np.concatenate(entries)[order]])
    # a decision is a free scalar when the objective prices it or some
    # equality carries it; a signed zero is no coefficient
    carried = np.where(coeff[:, 1:] != 0, coeff[:, 1:], 0.0)
    free_ids = tuple(sorted(set(objective).union(
        d for d, col in zip(names, carried.T) if col.any())))
    free = np.zeros((len(coeff), len(free_ids)))
    for d, col in zip(names, carried.T):
        if d in free_ids:
            free[:, free_ids.index(d)] = col

    return SdpProblem(block_dims=[len(coord) for _, coord in bases], free_ids=free_ids,
                      objective=dict(objective), entries=entries, weights=weights,
                      free=free, rhs=coeff[:, 0].copy(), bases=bases)


def certificate_from_grams(problem: SdpProblem, grams: Sequence[np.ndarray]) -> SosCertificate:
    if problem.bases is None:
        raise ValueError("problem lacks basis metadata")
    return SosCertificate(grams=[np.asarray(g, dtype=float) for g in grams],
                          bases=list(problem.bases))


RESIDUAL_TOL = 1e-6  # largest scaled coefficient mismatch of a passing certificate


def _split(m: np.ndarray) -> tuple:
    """m = hi + lo exactly, hi holding m's leading 26 bits (Veltkamp)."""
    c = 134217729.0 * m  # 2^27 + 1
    hi = c - (c - m)
    return hi, m - hi


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple:
    """(hi, lo) with hi = fl(a b) and hi + lo = a b exactly, elementwise
    (Dekker's product).  It splits the mantissas of a and b, which lie in
    [0.5, 1), and scales back by their exponents, so the split cannot
    overflow as a (2^27 + 1) does for |a| > 1.3e300; lo is rounded only
    where it underflows."""
    (ma, ea), (mb, eb) = np.frexp(a), np.frexp(b)
    (ah, al), (bh, bl) = _split(ma), _split(mb)
    p = ma * mb
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return np.ldexp(p, ea + eb), np.ldexp(err, ea + eb)


def _exact_sum(terms: list) -> float:
    """The correctly rounded sum of finite floats (inf past the float
    range): math.fsum, or exact rationals when one of fsum's partial sums
    overflows."""
    try:
        return math.fsum(terms)
    except OverflowError:
        total = sum(map(Fraction, terms))
        try:
            return float(total)
        except OverflowError:
            return math.inf if total > 0 else -math.inf


def _resolved_once(coeffs: np.ndarray, names: tuple,
                   assignment: Mapping[str, float]) -> np.ndarray:
    """Each coefficient row's c0 + sum_j d_j y_j, rounded once.

    Each product is split into fl(d_j y_j) plus its exact rounding error
    (:func:`_two_product`), and a row of several nonzero terms is summed
    exactly and rounded at the end (the error-free transformations of
    Ogita, Rump & Oishi 2005, SIAM J. Sci. Comput. 26(6)).  A plain
    floating-point sum can round a cancelling row to 0: on markov
    [1, 1e15], x l0 + l1 with l0 = 1 - 2^-53 and l1 = -1e15 + 0.125 is
    0.014, and fl(x l0) rounds to -l1.  A non-finite row keeps its
    floating-point sum."""
    if not names:
        return coeffs[:, 0]
    y = np.array([float(assignment[d]) for d in names])
    with np.errstate(over="ignore", invalid="ignore"):
        hi, lo = _two_product(coeffs[:, 1:], y)
        terms = np.column_stack([coeffs[:, 0], hi, lo])
        values = terms.sum(axis=1)
    several = (np.count_nonzero(terms, axis=1) > 1) & np.isfinite(terms).all(axis=1)
    values[several] = [_exact_sum(t) for t in terms[several].tolist()]
    return values


def check_certificate(S: PolyMatrix, assignment: Mapping[str, float],
                      cert: SosCertificate, residual_tol: float = RESIDUAL_TOL,
                      eig_tol: float = -1e-8) -> CertificateReport:
    """Recompute the Gram expansion and compare against S coefficientwise.

    ``assignment`` fixes all decision scalars appearing in S.  Each
    coefficient mismatch is measured relative to that coefficient's resolved
    value, max(1, |c0 + sum_j d_j y_j|), so the certificate must hold for the
    decisions as reported, and is evaluated to within one rounding
    (:func:`_resolved_once`).  A larger scale hides a mismatch: measured against
    the coefficient's size max(1, |c0|, max_j |d_j|) (the compile's equality
    scale), 1e50/(z - 0.5) passes taps of 1e-37 whose rate is 7e14; measured
    against its terms max(1, |c0|, max_j |d_j y_j|), markov [1, 1e30] passes
    a tap one ulp from the cancelling -1e30, whose rate is 1.4e14.  Passes
    when the worst scaled mismatch is at most ``residual_tol`` and every Gram
    block has min eigenvalue at least ``eig_tol``.
    """
    t_keys, t_coeffs, names = _upper_terms(S)
    values = _resolved_once(t_coeffs, names, assignment)

    # the expansion V^T G V at every (monomial, r <= s)
    e_keys, e_vals = [], []
    for G, (mono, coord) in zip(cert.grams, cert.bases):
        p, q = np.nonzero(coord[:, None] <= coord[None, :])
        e_keys.append(np.column_stack([mono[p] + mono[q], coord[p], coord[q]]))
        e_vals.append(np.asarray(G, dtype=float)[p, q])

    codes = _codes(np.concatenate([t_keys] + e_keys))
    uniq, inv = np.unique(codes, return_inverse=True)
    n = len(t_keys)
    target = np.bincount(inv[:n], weights=values, minlength=len(uniq))
    expansion = np.bincount(inv[n:], weights=np.concatenate([[]] + e_vals), minlength=len(uniq))
    scales = np.maximum(np.abs(target), 1.0)
    residual = float((np.abs(target - expansion) / scales).max(initial=0.0))
    scale = float(scales.max(initial=1.0))

    min_eigs = [float(np.linalg.eigvalsh(G)[0]) for G in cert.grams]
    passed = residual <= residual_tol and min(min_eigs, default=0.0) >= eig_tol
    return CertificateReport(residual=residual, scale=scale, min_eigs=min_eigs, passed=passed)
