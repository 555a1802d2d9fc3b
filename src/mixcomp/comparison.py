"""Feasibility conditions and measurement constructions for state comparison.

Everything here works on supports. ``check_conditions`` makes the one
single-copy geometry pass: each candidate's support, the span of the others,
and which of them contains which. It memoizes the result on the candidate
set, per Tolerances, and the conditions, the reduction to survivors and
every constructor read that report instead of recomputing supports. The
explicit constructors turn witnesses of the conditions into projective
operators on the n-fold tensor space; the maximal constructors build the
largest operator compatible with an unambiguity constraint, which turns
existence questions into rank checks. A frozen ``MeasurementOperator``
memoizes in the same way: its Hermitian residual, the bound eps on
||S^2 - S||_F for its Hermitian part S, the residuals and the one spectrum of
the dense check, and, under the oracle's own key, its probability vector.

Every constructed operator is a projector, so its self-check and its rank
need no eigensolve: eps <= tol.neg puts every eigenvalue within eps of 0 or
1, and a small enough eps makes the rank the rounded trace. The explicit
operators (eq. 13, 24 and 27) are Kronecker products of d x d projectors and
keep those factors in their memo, so their POVM's lowest eigenvalue comes
from d x d singular values. Each builder hands its operator the certificate
(eps, Re tr S) it can prove: the explicit operators from d x d work on their
factors, a non-zero maximal operator from N x N work on its span basis plus,
for M2, a row-blocked distance to I - Q Q^dagger, and every zero maximal
operator (0, 0). Any other operator, such as one read from a file, takes eps
from one D x D product S S; a zero matrix needs not even that. Only when eps
proves nothing does the dense check run its eigvalsh. ``residuals``, which
the self-check reads and ``verify`` reports, follows that rule: proven
bounds when eps passes, the one eigvalsh otherwise. The oracle reads only
the matrix.

A maximal operator is the projector onto the complement of the span of its
tuple class's product supports. That span is the range of the class's
generator, Sum_i P_i^(x)n for the identical class and (Sum_i P_i)^(x)n minus
that sum for the different class. When the class offers at least D = d**n
product columns, one Cholesky factorization of the shifted generator can
prove the span full without a span loop. Otherwise the span's orthonormal
basis Q (D x N) is built column by column. A full span, proven or reached,
gives the zero matrix. Otherwise the M1 operator is I - Q Q^dagger, and
the M2 operator keeps the projector of the SVD complement of Q until a tie
rule lands: I - Q Q^dagger, equal up to round-off, moves which
slot-permuted tuples win exact ties in the oracle's reported tuples. The
identical class of M1 has no such ties. Both are certified from Q^dagger Q
(``_span_complement``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    CapExceededError,
    ConditionNotMetError,
    InternalCheckError,
    NotHermitianError,
    ShapeError,
    TupleTooShortError,
)
from .linalg import (
    Tolerances,
    _hermitian_part,
    _kron_each,
    _mgs_span,
    _require_finite,
    dagger,
    herm_residual,
    identity,
    kron_all,
    min_eigenvalue,
)
from .states import CandidateSet
from .subspace import Subspace, complement, contains, projector, subspace_sum, support_of

DEFAULT_CAP = 4096


class OperatorKind(str, Enum):
    M1 = "M1"
    M2 = "M2"


class Provenance(str, Enum):
    """Which construction produced an operator. Values appear in JSON reports."""

    M1_EQ13 = "M1_eq13"
    M2_PRODUCT_EQ27 = "M2_product_eq27"
    M2_PAIR_EQ24 = "M2_pair_eq24"
    M1_MAXIMAL = "M1_maximal"
    M2_MAXIMAL = "M2_maximal"

    @property
    def kind(self) -> OperatorKind:
        """The operator kind; every value starts with it."""
        return OperatorKind(self.value[:2])


def _composite(dim: int, n: int, bound: int) -> int | None:
    """dim**n for n >= 1, or None without forming it when it exceeds ``bound``.

    For dim >= 2, dim**n is at least dim and at least 2**n, which exceeds
    bound once n reaches bound.bit_length(), so a huge dim or n costs nothing.
    """
    return dim**n if dim < 2 or (dim <= bound and n < bound.bit_length()) else None


def _gamma(k: int) -> float:
    """Rounding bound of k complex operations: 4 k u / (1 - 4 k u), u = eps/2.

    Higham's gamma_k with u replaced by 4u: a complex product errs by at most
    sqrt(2) gamma_2 < 4u relative (Higham, Lemma 3.5) and a complex sum by u.
    """
    ku = 2 * k * float(np.finfo(np.float64).eps)
    return ku / (1 - ku)


def _factor_eps(factors: list[np.ndarray]) -> float:
    """eps >= ||S^2 - S||_F for S = fl((K^ + K^dagger)/2), K^ = fl(kron_all(factors)).

    Only d x d work. Let H_j = (F_j + F_j^dagger)/2 and T = (x)_j H_j, all
    exact. Then ||S - T||_F <= delta with
        delta = u ||K^||_F + gamma(n) prod_j ||F_j||_F
                + Sum_j prod_{i<j} ||F_i||_F ||F_j - H_j||_F prod_{i>j} ||H_i||_F,
    since S is within u |(K^ + K^dagger)/2| of the Hermitian part of K^ (one
    complex sum, and the halving is exact); K^ is within gamma(n) |K| of
    K = (x)_j F_j (n - 1 complex products per entry; ``_gamma``), with
    || |K| ||_F = prod_j ||F_j||_F; and the Hermitian part of K - T is no
    larger than K - T = Sum_j (x)_{i<j} F_i (x) (F_j - H_j) (x)_{i>j} H_i.
    Likewise T^2 - T = Sum_j (x)_{i<j} H_i^2 (x) (H_j^2 - H_j) (x)_{i>j} H_i,
    and with S = T + E, S^2 - S = T^2 - T + T E + E T + E^2 - E, so
        ||S^2 - S||_F <= Sum_j prod_{i<j} ||H_i^2||_F ||H_j^2 - H_j||_F
                         prod_{i>j} ||H_i||_F + delta (2 prod_j ||H_j||_F + delta + 1).
    ||K^||_F <= (1 + gamma(n)) prod_j ||F_j||_F, so no D x D norm is read.

    Each d x d norm is rounded up past the rounding of its sum of squares
    and square root, and widened by the rounding of the d x d matrix it is
    taken of: H^ = fl(H) is within e = u h of H, where
    h = ||H^||_F / (1 - u) >= ||H||_F; fl(F - H^) and fl(Q^ - H^) are within
    u of their exact values relative; Q^ = fl(H^ H^) is within
    gamma(d) ||H^||_F^2 of H^2 + (H^ - H) H^ + H (H^ - H), so within
    gamma(d) ||H^||_F^2 + (||H^||_F + h) e of H^2. The scalar sums and
    products above work on non-negative numbers, fewer than 64 (n + 1) real
    roundings in all, and the last factor (``_gamma`` counts 4u per
    operation) covers them. All slots are stacked, so the d x d work is a
    few calls for any n.
    """
    u = float(np.finfo(np.float64).eps) / 2
    n, d = len(factors), len(factors[0])
    fs = np.stack(factors)
    hm = np.conj(fs.transpose(0, 2, 1)) + fs
    hm /= 2
    sq = hm @ hm
    parts = np.stack([fs, hm, fs - hm, sq, sq - hm])
    norms = np.sqrt((parts.real ** 2 + parts.imag ** 2).sum(axis=(2, 3)))
    ff, hf, af, qf, pf = norms * (1 + 2 * _gamma(d * d + 4))
    hn = hf / (1 - u)
    e = u * hn
    # Q^ - H^2 in Frobenius norm: the product's rounding plus H^ against H
    sq_err = _gamma(d) * hf * hf + (hf + hn) * e
    f, a, h, q, p = (x.tolist() for x in (
        ff, af / (1 - u) + e, hn, qf + sq_err, pf / (1 - u) + sq_err + e))
    prod_f = math.prod(f)
    delta = u * (1 + _gamma(n)) * prod_f + _gamma(n) * prod_f + sum(
        math.prod(f[:j]) * a[j] * math.prod(h[j + 1:]) for j in range(n))
    eps = sum(math.prod(q[:j]) * p[j] * math.prod(h[j + 1:]) for j in range(n))
    eps += delta * (2 * math.prod(h) + delta + 1)
    return eps * (1 + 2 * _gamma(16 * (n + 1)))


_BLOCK = 64


def _blocked(length: int) -> float:
    """Rounding bound of an inner product of ``length`` terms summed in blocks of b = 64.

    Any summation order inside each block, then the blocks' partial sums
    one after another in our own order: gamma(min(b, L) + ceil(L / b) - 1)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    ch. 3 and 4), which min(b, L) + floor(L / b) never undercuts.
    """
    return _gamma(min(_BLOCK, length) + length // _BLOCK)


def _span_complement(q: np.ndarray, kept: np.ndarray | None = None
                     ) -> tuple[np.ndarray, tuple[float, float]]:
    """M^ = fl(I - fl(Q Q^dagger)), or ``kept``, and its certificate: eps and Re tr M^.

    eps >= ||S^2 - S||_F for S = fl((M^ + M^dagger)/2). Q is the D x N span
    basis as stored, N < D; beyond forming M^, only N x N work and an O(D)
    trace. Let G = Q^dagger Q and T = I - Q Q^dagger, both exact. Then
    T^2 - T = Q (G - I) Q^dagger, so for any g >= ||G - I||_F
        ||T^2 - T||_F <= ||Q||_2^2 ||G - I||_F <= (1 + g) g,
    as ||Q||_2^2 = ||G||_2 <= 1 + g. T's eigenvalues are 1 and the 1 - sigma_i^2
    of Q's singular values, so ||T||_2 <= 1 + g and ||T||_F <= sqrt(D - N) + g.
    With S = T + E, S^2 - S = T^2 - T + T E + E T + E^2 - E, so
        ||S^2 - S||_F <= (1 + g) g + delta (2 (1 + g) + delta + 1)
    for any delta >= ||E||_F, the E-term algebra of ``_factor_eps``.

    g: G^ sums the products of Q's row blocks of b = 64 rows, so each entry
    is within beta_D |Q^dagger||Q| of G's (beta_L = ``_blocked(L)``), and
    || |Q^dagger||Q| ||_F <= ||Q||_F^2 = tr G <= f = Re tr G^ / (1 - beta_D);
    fl(G^ - I) rounds only the diagonal, within u of its exact value, so
    g = ||fl(G^ - I)||_F / (1 - u) + beta_D f.
    delta: C^ = fl(Q Q^dagger) is within gamma(N) f of Q Q^dagger in
    Frobenius norm, by the same argument; M^ is within u |I - C^| of
    I - C^ (again only the diagonal rounds); S is within u |(M^ + M^dagger)/2|
    of the Hermitian part of M^ (one complex sum; the halving is exact),
    and the Hermitian part of M^ - T is no larger than M^ - T. With
    m = ||T||_F + gamma(N) f >= ||I - C^||_F,
        delta = gamma(N) f + 3 u m >= gamma(N) f + u m + u (1 + u) m.

    ``kept``: a D x D matrix P built otherwise, here the SVD complement's
    projector, takes the place of M^, and S = fl((P + P^dagger)/2). Then
    E = (S - C^_I) + (C^_I - T) with C^_I = fl(I - C^), formed one row
    block at a time. C^ enters only the proof here, so it sums Q's column
    blocks of b columns and gamma(N) above becomes beta_N in m and delta.
    So ||E||_F <= dist + beta_N f + u m, and delta gains
    dist >= ||S - C^_I||_F. fl(S - C^_I) is within u of its exact value
    relative, and its norm is summed over row blocks, each of at most
    b D entries, within gamma(D^2 + 4) relative, so
        dist = ||fl(S - C^_I)||_F (1 + 2 gamma(D^2 + 4)) / (1 - u).
    Each block of S is S's own rows, bit for bit, and no second D x D array
    is formed. The distance is O(D^2 N) work, like forming I - Q Q^dagger.

    The norms read are rounded up past their sums and square roots; the
    scalar operations after them, fewer than 64 on non-negative numbers,
    are covered by the last factor (``_gamma`` counts 4u per operation).
    """
    u = float(np.finfo(np.float64).eps) / 2
    dim, cols = q.shape
    qh = dagger(q)
    gram = qh[:, :_BLOCK] @ q[:_BLOCK]
    for i in range(_BLOCK, dim, _BLOCK):
        gram += qh[:, i:i + _BLOCK] @ q[i:i + _BLOCK]
    f = float(np.trace(gram).real) * (1 + 2 * _gamma(cols + 4)) / (1 - _blocked(dim))
    gram.flat[:: cols + 1] -= 1
    g = float(np.sqrt(np.vdot(gram, gram).real)) * (1 + 2 * _gamma(cols * cols + 4))
    g = g / (1 - u) + _blocked(dim) * f
    formed = (_gamma(cols) if kept is None else _blocked(cols)) * f
    delta = formed + 3 * u * (math.sqrt(dim - cols) + g + formed)
    if kept is None:
        # identity(D) - Q Q^dagger, bit for bit, without a second D x D array
        matrix = q @ qh
        np.subtract(0.0, matrix, out=matrix)
        matrix.flat[:: dim + 1] += 1
    else:
        matrix, dist2 = kept, 0.0
        for i in range(0, dim, _BLOCK):
            rows = q[i:i + _BLOCK, :_BLOCK] @ qh[:_BLOCK]
            for j in range(_BLOCK, cols, _BLOCK):
                rows += q[i:i + _BLOCK, j:j + _BLOCK] @ qh[j:j + _BLOCK]
            np.subtract(0.0, rows, out=rows)
            diag = np.arange(len(rows))
            rows[diag, diag + i] += 1
            sym = dagger(kept[:, i:i + _BLOCK])
            sym += kept[i:i + _BLOCK]
            sym /= 2.0
            sym -= rows
            dist2 += float(np.vdot(sym, sym).real)
        delta += math.sqrt(dist2) * (1 + 2 * _gamma(dim * dim + 4)) / (1 - u)
    eps = (1 + g) * g + delta * (2 * (1 + g) + delta + 1)
    return matrix, (eps * (1 + 2 * _gamma(64)), float(np.trace(matrix).real))


@dataclass(frozen=True)
class MeasurementOperator:
    """A conclusive-outcome operator on the n-fold tensor space.

    ``matrix`` has shape (dim**n, dim**n) and is read-only. The constructors
    in this module always produce projectors; user-supplied operators only
    need 0 <= M <= I. What is derived from the matrix is kept in ``_memo``.
    """

    n: int
    dim: int
    matrix: np.ndarray
    provenance: Provenance
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        side = _composite(self.dim, self.n, max(m.shape, default=0))
        if m.ndim != 2 or side is None or m.shape != (side, side):
            expected = f"{self.dim}**{self.n}" if side is None else side
            raise ShapeError(f"operator shape {m.shape} does not match dim**n = {expected}")
        _require_finite(m, "operator contains NaN or Inf entries")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def kind(self) -> OperatorKind:
        return self.provenance.kind

    def _hermitian(self) -> float:
        if "hermitian" not in self._memo:
            self._memo["hermitian"] = herm_residual(self.matrix)
        return self._memo["hermitian"]

    def require_hermitian(self, tol: Tolerances = Tolerances()) -> None:
        """Raise NotHermitianError when max |M - M^dagger| exceeds tol.sym."""
        herm = self._hermitian()
        if herm > tol.sym:
            raise NotHermitianError(herm, tol.sym)

    def _projector_bound(self) -> tuple[float, float, float]:
        """max |S^2 - S|, eps and Re tr S for S = (M + M^dagger)/2, from one product.

        eps bounds |lambda^2 - lambda| for every exact eigenvalue lambda of
        S: ||S^2 - S||_F is the 2-norm of the vector of lambda^2 - lambda.
        The computed P = fl(fl(S S) - S) differs from S^2 - S by at most
        gamma(D) |S||S| from the product and u |P| from the subtraction
        (``_gamma`` holds the complex-arithmetic constants), and
        || |S||S| ||_F <= ||S||_F^2 <= ||M||_F^2. ||P||_F and ||M||_F^2 come
        from inner products of length D^2, each within gamma(D^2 + 2)
        relative, and the square root adds u. So with eps_hat = fl(||P||_F)
        and fro2 = fl(||M||_F^2),
            ||S^2 - S||_F <= (eps_hat + gamma(D) fro2) (1 + 2 gamma(D^2 + 4)),
        the last factor also covering the few scalar operations that compare
        eps with its cuts. The zero matrix needs no product: all three are 0.
        """
        if "bound" not in self._memo:
            m = self.matrix
            if not m.any():
                self._memo["bound"] = 0.0, 0.0, 0.0
            else:
                sym = _hermitian_part(m)
                p = sym @ sym
                p -= sym
                dim = len(m)
                # M is C-ordered, so vdot reads it in place; S is not
                fro2 = float(np.vdot(m, m).real)
                tr = float(np.trace(sym).real)
                eps = float(np.sqrt(np.vdot(p, p).real)) + _gamma(dim) * fro2
                eps *= 1 + 2 * _gamma(dim * dim + 4)
                # even if every square underflows: eps = 0 is the zero matrix's alone
                eps = max(eps, float(np.finfo(np.float64).tiny))
                # S is spent: its real part takes |P| instead of a new array
                self._memo["bound"] = float(np.max(np.abs(p, out=sym.real))), eps, tr
        return self._memo["bound"]

    def _certificate(self) -> tuple[float, float]:
        """eps >= ||S^2 - S||_F and Re tr S, the inputs of the projector certificates.

        A builder that can prove both stores them at build time: the explicit
        operators from their Kronecker factors (``_factor_eps``), a non-zero
        maximal operator from its span basis (``_span_complement``), and
        every zero maximal operator as (0, 0). Any other operator takes both
        from the one product of ``_projector_bound``.
        """
        if "certificate" not in self._memo:
            self._memo["certificate"] = self._projector_bound()[1:]
        return self._memo["certificate"]

    def _near(self) -> float:
        """How far eps lets any eigenvalue of S lie from 0 or 1; inf when eps >= 1/4.

        |lambda^2 - lambda| <= eps < 1/4 puts every eigenvalue within
        (1 - sqrt(1 - 4 eps))/2 of 0 or of 1, written without cancellation.
        """
        eps = self._certificate()[0]
        return 2 * eps / (1 + math.sqrt(1 - 4 * eps)) if 4 * eps < 1 else math.inf

    def _proven(self, tol: Tolerances) -> bool:
        """Hermitian within tol.sym, and every eigenvalue of S within tol.neg of 0 or 1.

        Then the psd and below_identity residuals are at most near(eps) and
        the projector residual max |S^2 - S| at most eps <= near(eps), so all
        pass tol.neg without an eigensolve.
        """
        return self._hermitian() <= tol.sym and self._near() <= tol.neg

    def _spectrum(self) -> tuple[dict[str, float], np.ndarray]:
        """The residuals and the spectrum of (M + M^dagger)/2, from one eigvalsh.

        The zero matrix never gets here: its eps = 0 proves every residual
        and its rank.
        """
        if "residuals" not in self._memo:
            herm = self._hermitian()
            w = np.linalg.eigvalsh(_hermitian_part(self.matrix))
            self._memo["residuals"] = {
                "hermitian": herm,
                "psd": max(0.0, -float(w[0])),
                "below_identity": max(0.0, float(w[-1]) - 1.0),
                "projector": self._projector_bound()[0],
            }, w
        return self._memo["residuals"]

    def rank(self, tol: Tolerances = Tolerances()) -> int:
        """Eigenvalues above tol.rank times the largest; M must be Hermitian.

        The zero matrix, the one operator with eps = 0, has rank 0 at any
        tolerance. A near-projector's rank is read off its trace when
        ``eps`` proves the count, whatever ran before; otherwise it is
        counted from the one eigvalsh of ``residuals``, run once and kept.
        """
        self.require_hermitian(tol)
        eps, trace = self._certificate()
        if eps == 0:
            return 0
        # Every eigenvalue lies within near of 0 or of 1 (``_near``; near =
        # inf proves nothing). Say c of them lie near 1. Then |tr S - c| <=
        # D near, and fl(tr S) adds at most gamma(D) sum |S_ii| <= 2 D
        # gamma(D), so round(fl(tr S)) = c once the two stay below 1/2. For
        # c >= 1 the largest |lambda| lies in [1 - near, 1 + near]; the c
        # eigenvalues near 1 pass the cut tol.rank * max |lambda| when
        # tol.rank (1 + near) < 1 - near, and the others, at most near, stay
        # at or below it when near < tol.rank (1 - near). The count is then
        # exact for S; eigvalsh would only approximate the same eigenvalues.
        near, count, dim = self._near(), round(trace), len(self.matrix)
        if (
            count >= 1
            and dim * (near + 2 * _gamma(dim)) < 0.5
            and near < tol.rank * (1 - near)
            and tol.rank * (1 + near) < 1 - near
        ):
            return count
        a = np.abs(self._spectrum()[1])
        return int(np.sum(a > tol.rank * a.max()))

    def residuals(self, tol: Tolerances = Tolerances()) -> dict:
        """Deviation of the operator from its invariants, and which path decided it.

        hermitian: max |M - M^dagger|; psd: how far the lowest eigenvalue
        dips below 0; below_identity: same for I - M; projector: max
        |S^2 - S|. All are 0 for an exact projector. When the Hermitian
        residual is within tol.sym and near(eps) within tol.neg
        (``_proven``), psd and below_identity are that proven bound
        near(eps), no eigensolve runs and ``certified`` is True; projector
        is then read from the product that gave eps, or is eps itself, which
        bounds it, when a builder proved eps without one. Otherwise all
        come from the one kept eigvalsh of S and ``certified`` is False. A
        bound is never below the value it bounds, and the dense path decides
        whenever it exceeds tol.neg, so no ``residuals_ok`` verdict moves.
        """
        if not self._proven(tol):
            return {**self._spectrum()[0], "certified": False}
        near, eps = self._near(), self._certificate()[0]
        projector = self._memo["bound"][0] if "bound" in self._memo else eps
        return {"hermitian": self._hermitian(), "psd": near, "below_identity": near,
                "projector": projector, "certified": True}


def residuals_ok(r: dict[str, float], tol: Tolerances, require_projector: bool = False) -> bool:
    """Validity verdict from a ``MeasurementOperator.residuals()`` dict."""
    ok = r["hermitian"] <= tol.sym and r["psd"] <= tol.neg and r["below_identity"] <= tol.neg
    if require_projector:
        ok = ok and r["projector"] <= tol.neg
    return ok


@dataclass(frozen=True)
class ConditionReport:
    """The single-copy geometry of a candidate set and the verdicts on it.

    One pass computes ``supports[i]`` = Supp(sigma_i) and ``others[i]``, the
    span of every other support; ``check_conditions`` keeps the report on the
    set, so the conditions, the reduction and the constructors share it.
    ``escapes_others[i]`` is true when Supp(sigma_i) is not contained in
    ``others[i]``; ``others_escape[i]`` is true when ``others[i]`` is not
    contained in Supp(sigma_i). ``survivors`` are the candidates left by
    support-containment reduction. The verdicts are properties derived from
    those two per-candidate facts on each read; ``m2_structural`` is the
    paper's Corollary 1. All indices are 0-based.
    """

    escapes_others: tuple[bool, ...]
    others_escape: tuple[bool, ...]
    survivors: tuple[int, ...]
    supports: tuple[Subspace, ...] = field(repr=False, compare=False)
    others: tuple[Subspace, ...] = field(repr=False, compare=False)

    @property
    def m1_witnesses(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.escapes_others) if e)

    @property
    def m1_condition(self) -> bool:
        return any(self.escapes_others)

    @property
    def m2_failures(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.others_escape) if not e)

    @property
    def m2_necessary(self) -> bool:
        return all(self.others_escape)

    @property
    def m2_structural(self) -> bool:
        return self.m1_condition and self.m2_necessary

    @property
    def structural_witness(self) -> int | None:
        return self.m1_witnesses[0] if self.m2_structural else None


def check_conditions(cs: CandidateSet, tol: Tolerances = Tolerances()) -> ConditionReport:
    """Evaluate all feasibility conditions in one geometry pass.

    The m1 condition asks for some support escaping the span of the others
    (witnesses reported); the m2 necessary condition asks that no single
    support swallow the span of the others; the structural condition is
    their conjunction, with the smallest escape witness as i0. The same pass
    finds the ``reduce_candidates`` survivors.

    The report is memoized on ``cs`` per Tolerances value; the set is
    frozen, so a kept report never goes stale.
    """
    if tol in cs._conditions:
        return cs._conditions[tol]
    k = cs.k
    supports = tuple(support_of(st, tol) for st in cs.states)
    others = tuple(
        subspace_sum([s for j, s in enumerate(supports) if j != i], tol) for i in range(k)
    )
    escapes = tuple(not contains(others[i], supports[i], tol) for i in range(k))
    others_escape = tuple(not contains(supports[i], others[i], tol) for i in range(k))
    inside = [[contains(supports[j], supports[i], tol) for j in range(k)] for i in range(k)]
    survivors = tuple(
        i for i in range(k)
        if not any(j != i and inside[i][j] and (not inside[j][i] or j < i) for j in range(k))
    )
    cs._conditions[tol] = ConditionReport(escapes, others_escape, survivors, supports, others)
    return cs._conditions[tol]


def reduce_candidates(cs: CandidateSet, tol: Tolerances = Tolerances()) -> tuple[int, ...]:
    """Indices of candidates that survive support-containment reduction.

    A candidate is dropped when its support sits inside another candidate's
    support, keeping only the lowest index among candidates with identical
    supports. Survivors' supports are pairwise incomparable.
    """
    return check_conditions(cs, tol).survivors


def _prepare(cs: CandidateSet, n: int, tol: Tolerances, cap: int) -> ConditionReport:
    """Every builder's preamble: n >= 2, then the cap, then the one geometry pass."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ShapeError(f"tuple size n must be an integer >= 2, got {n!r}")
    composite = _composite(cs.dim, n, cap)
    if composite is None or composite > cap:
        raise CapExceededError(cs.dim, n, cap, composite)
    return check_conditions(cs, tol)


def _self_check(op: MeasurementOperator, tol: Tolerances) -> MeasurementOperator:
    """Hermitian within tol.sym and a projector within tol.neg, or InternalCheckError.

    ``residuals(tol)`` decides: when eps puts every eigenvalue within
    tol.neg of 0 or 1 (``_proven``), the check passes without an eigensolve
    or a D x D product. Otherwise the dense residuals decide, so a bad
    factor or basis still raises.
    """
    r = op.residuals(tol)
    if not residuals_ok(r, tol, require_projector=True):
        raise InternalCheckError(
            f"constructed operator {op.provenance.value} failed its own "
            f"invariants: residuals {r}"
        )
    return op


def _product(cs, n, factors, provenance, tol) -> MeasurementOperator:
    """The self-checked Kronecker product of ``factors``, padded with identities to n slots.

    The padded factors stay in the memo for the POVM, beside the certificate
    they prove with d x d work; the trace is an O(D) read, as S's diagonal is
    exactly the real part of the matrix's. The oracle reads neither.
    """
    factors = factors + [identity(cs.dim)] * (n - len(factors))
    op = MeasurementOperator(n, cs.dim, kron_all(factors), provenance)
    op._memo["factors"] = factors
    op._memo["certificate"] = _factor_eps(factors), float(np.trace(op.matrix).real)
    return _self_check(op, tol)


def build_m1(
    cs: CandidateSet,
    n: int,
    i0: int | None = None,
    tol: Tolerances = Tolerances(),
    cap: int = DEFAULT_CAP,
) -> MeasurementOperator:
    """Identical-outcome operator P tensored n times.

    P projects onto the orthogonal complement of the span of every support
    except the witness i0's. With i0 = None the smallest witness is used.
    Raises ConditionNotMetError when i0 is not a witness or none exists.
    """
    report = _prepare(cs, n, tol, cap)
    witnesses = report.m1_witnesses
    if not witnesses:
        raise ConditionNotMetError(
            "no candidate's support escapes the span of the others; "
            "a non-trivial identical-outcome operator does not exist"
        )
    if i0 is None:
        i0 = witnesses[0]
    elif i0 not in witnesses:
        raise ConditionNotMetError(
            f"index {i0} is not a witness; witnesses are {list(witnesses)}"
        )
    p = projector(complement(report.others[i0]))
    return _product(cs, n, [p] * n, Provenance.M1_EQ13, tol)


def build_m2_product(
    cs: CandidateSet,
    n: int,
    tol: Tolerances = Tolerances(),
    cap: int = DEFAULT_CAP,
) -> MeasurementOperator:
    """Different-outcome operator with one complement projector per survivor.

    Slot i carries the projector onto Supp(sigma'_i)^perp for the i-th
    surviving candidate; remaining slots carry the identity. Needs the
    necessary condition and n at least the survivor count r. Unambiguous
    because any all-identical input meets its own survivor's complement in
    some slot; non-trivial because survivor supports are incomparable.
    """
    report = _prepare(cs, n, tol, cap)
    failures = report.m2_failures
    if failures:
        raise ConditionNotMetError(
            f"the span of the other supports is contained in the support of "
            f"candidate index {failures[0]}; no non-trivial "
            f"different-outcome operator exists"
        )
    r = len(report.survivors)
    if n < r:
        raise TupleTooShortError(n, r)
    factors = [projector(complement(report.supports[i])) for i in report.survivors]
    return _product(cs, n, factors, Provenance.M2_PRODUCT_EQ27, tol)


def build_m2_pair(
    cs: CandidateSet,
    n: int,
    tol: Tolerances = Tolerances(),
    cap: int = DEFAULT_CAP,
) -> MeasurementOperator:
    """Different-outcome operator using only the first two slots.

    Slot one projects onto Supp(sigma_i0)^perp, slot two onto the complement
    of the span of the other supports, the rest are identities. Valid for
    every n >= 2 once the structural condition holds at witness i0.
    """
    report = _prepare(cs, n, tol, cap)
    i0 = report.structural_witness
    if i0 is None:
        raise ConditionNotMetError(
            "structural condition fails: need every support to escape the "
            "others' span collectively and at least one support to escape "
            "it individually"
        )
    factors = [projector(complement(s)) for s in (report.supports[i0], report.others[i0])]
    return _product(cs, n, factors, Provenance.M2_PAIR_EQ24, tol)


def _tuple_span(tuples, supports, threshold, full_dim, offered):
    """Orthonormal basis of the span of the tuples' product supports, in their order.

    One MGS pass over every tuple's Kronecker block, with room for
    min(full_dim, offered) columns, where ``offered`` counts the blocks'
    columns. It stops once the basis is full; a tuple with an empty factor
    adds nothing.
    """
    bases = [s.basis for s in supports]
    kept = (combo for combo in tuples if all(bases[c].shape[1] for c in combo))
    return _mgs_span(_kron_each(bases, kept), threshold, full_dim, min(full_dim, offered))


def _offered_columns(n, supports, which):
    """How many product columns the tuple class of ``which`` offers to its span."""
    ranks = [s.dim for s in supports]
    identical = sum(r**n for r in ranks)
    return identical if which is OperatorKind.M2 else sum(ranks) ** n - identical


def _span_certificate(n, supports, which, threshold, full_dim, count):
    """A proven lower bound on the generator's smallest eigenvalue and the cut it must pass.

    The generator is Sum_i P_i^(x)n for the identical class (M2) and
    (Sum_i P_i)^(x)n - Sum_i P_i^(x)n for the different class (M1); its
    range is the span of the class's ``count`` product columns. One Cholesky
    factorization of G minus a shift on its diagonal proves the bound; when
    it fails, nothing is proven and the bound is -inf. Returns None without
    a factorization when the class offers fewer than ``full_dim`` product
    columns, since such a span cannot be full.
    """
    if count < full_dim:
        return None
    projs = [projector(s) for s in supports]
    total = sum(projs)
    scale = float(np.linalg.norm(total, 2)) ** n
    # each += / -= frees its Kronecker power at once: two D x D arrays live
    if which is OperatorKind.M2:
        g = kron_all([projs[0]] * n)
        for p in projs[1:]:
            g += kron_all([p] * n)
    else:
        g = kron_all([total] * n)
        for p in projs:
            g -= kron_all([p] * n)
    # The cut is a sufficient condition for the span loop to reach full_dim
    # columns. G = Sum_c c c^dagger over the class's ``count`` product
    # columns c. Every column the loop keeps or drops leaves a residual
    # against its final basis Q of at most threshold + slack, where
    # slack = 8 D eps covers the two projection sweeps and the rounding of the
    # Kronecker columns. If the loop ended short of D columns, a unit x
    # orthogonal to Q would give x^dagger G x = Sum_c |c^dagger x|^2
    # <= count (threshold + slack)^2, so lambda_min(G) could not exceed that.
    # The formed G' differs from G by its rounding. With s = ||Sum_i P_i||_2
    # >= 1, every entry of P_i, Sum_i P_i and their n-th powers is bounded by
    # 1, s and s^n, so forming G (P_i = B B^dagger, the sum, n-fold products
    # and k+1 accumulations) errs by at most L eps s^n per entry, with
    # L = n (k (d + k) + 1) + k n (d + 1) + k (k + 1), and by D L eps s^n in
    # 2-norm; the cut adds that, so lambda_min(G') > cut proves the loop full.
    # Cholesky reads one triangle, which is within the same bound of G.
    #
    # A = fl(G' - shift I). A Cholesky factorization that runs to completion
    # gives R^dagger R = A + dA with |dA| <= gamma(D + 1) |R^dagger||R|
    # (Higham, Thm 10.3), and || |R^dagger||R| ||_2 <= D ||R||_2^2, so
    # ||dA||_2 <= c ||A||_2 with c = D gamma / (1 - D gamma); the shift's
    # own rounding adds u ||A||_2. R^dagger R is positive definite, so
    # lambda_min(G') > shift - err with err = (c + u) ||A||_2. Success needs
    # a positive first pivot, so shift < G'_00 <= ||G'||_2, and
    # ||A||_2 <= ||G'||_2 + shift with ||G'||_2 <= s^n (1 + D L eps) since
    # 0 <= G <= (Sum_i P_i)^(x)n. Taking shift = cut + 2 err and solving for
    # err, success proves lambda_min(G') > cut + err, strictly above the cut.
    d, k = supports[0].ambient_dim, len(supports)
    eps = float(np.finfo(np.float64).eps)
    big_l = n * (k * (d + k) + 1) + k * n * (d + 1) + k * (k + 1)
    formed = big_l * full_dim * eps * scale
    cut = count * (threshold + 8 * full_dim * eps) ** 2 + formed
    c = full_dim * _gamma(full_dim + 1)
    c = c / (1 - c) + eps / 2
    err = c * (scale + formed + cut) / (1 - 2 * c)
    g.flat[:: full_dim + 1] -= cut + 2 * err
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return -np.inf, cut
    return cut + err, cut


def build_maximal(
    cs: CandidateSet,
    n: int,
    which: OperatorKind,
    cap: int = DEFAULT_CAP,
    tol: Tolerances = Tolerances(),
) -> MeasurementOperator:
    """Largest operator compatible with the given unambiguity constraint.

    For the different-outcome kind this is the projector onto the orthogonal
    complement of the span of all identical-tuple supports; for the
    identical-outcome kind, of all non-identical-tuple supports. Every valid
    operator of the class has support inside this projector's range, so the
    class admits a non-trivial member iff the returned operator is non-zero.

    The span is first tested for fullness through its generator (see
    ``_span_certificate``): when the class offers at least D product columns
    and one Cholesky factorization proves the generator's smallest
    eigenvalue above a cut, the span loop would reach D columns, so it does
    not run. A factorization that fails proves nothing and falls through to
    the loop, which builds the span's basis Q (D x N) column by column with
    modified Gram-Schmidt. A full span, proven or reached at N = D, gives
    the exact zero matrix with its certificate (0, 0). Otherwise the M1
    operator is I - Q Q^dagger. The M2 operator keeps the projector of the
    SVD complement of Q until a tie rule lands, since I - Q Q^dagger, though
    equal up to round-off, would change which slot-permuted tuples win exact
    ties in the oracle. Both take their certificate from Q^dagger Q
    (``_span_complement``), the M2 one plus its distance to I - Q Q^dagger.
    """
    which = OperatorKind(which)
    supports = _prepare(cs, n, tol, cap).supports
    full_dim = cs.dim ** n
    prov = Provenance.M2_MAXIMAL if which is OperatorKind.M2 else Provenance.M1_MAXIMAL
    offered = _offered_columns(n, supports, which)
    cert = _span_certificate(n, supports, which, tol.rank, full_dim, offered)
    cols = full_dim  # a span proven full needs no loop
    if cert is None or cert[0] <= cert[1]:
        # kron products of orthonormal columns have unit norm, so the MGS
        # drop threshold is the bare relative tolerance
        if which is OperatorKind.M2:
            tuples = [(i,) * n for i in range(cs.k)]
        else:
            tuples = (c for c in itertools.product(range(cs.k), repeat=n) if len(set(c)) > 1)
        q = _tuple_span(tuples, supports, tol.rank, full_dim, offered)
        cols = q.shape[1]
    if cols == full_dim:
        matrix, certificate = np.zeros((full_dim, full_dim)), (0.0, 0.0)
    elif which is OperatorKind.M2:
        # projector(complement(Subspace(q))) bit for bit: the C-ordered copy
        # of the SVD complement columns times its adjoint, without the
        # Subspace orthonormality guard
        vh = np.linalg.svd(dagger(q), full_matrices=True)[2]
        v = np.conjugate(vh[cols:].T, order="C")
        del vh
        kept = v @ dagger(v)
        del v
        matrix, certificate = _span_complement(q, kept)
    else:
        matrix, certificate = _span_complement(q)
    op = MeasurementOperator(n=n, dim=cs.dim, matrix=matrix, provenance=prov)
    op._memo["certificate"] = certificate
    return _self_check(op, tol)


@dataclass(frozen=True)
class PovmAssembly:
    """A completing three-outcome measurement.

    conclusive_identical = alpha * M1, conclusive_different = alpha * M2
    (the paper's beta is alpha), and inconclusive is whatever remains below
    the identity; min_eigenvalue is its lowest eigenvalue. Iterating yields
    the three matrices in that order.
    """

    conclusive_identical: np.ndarray
    conclusive_different: np.ndarray
    inconclusive: np.ndarray
    alpha: float
    min_eigenvalue: float

    def __iter__(self):
        return iter((self.conclusive_identical, self.conclusive_different, self.inconclusive))


def assemble_povm(
    m1: MeasurementOperator,
    m2: MeasurementOperator,
    tol: Tolerances = Tolerances(),
) -> PovmAssembly:
    """Complete two conclusive operators into a POVM.

    Uses the operators unscaled when I - M1 - M2 is already PSD, otherwise
    halves both. Halving always succeeds because each operator is below the
    identity. Scaling by a positive factor preserves which tuples have zero
    and which have positive probability.

    When both operators keep their Kronecker factors, the lowest eigenvalue
    needs no eigensolve. For projectors P and Q, not both zero,
    lambda_max(P + Q) = 1 + ||P Q||_2 (the two-projection theorem), so
    lambda_min(I - s P - s Q) = (1 - s) - s ||P Q||_2, and for products
    ||P Q||_2 = prod_j ||F1_j F2_j||_2, one d x d SVD per slot (an explicit
    operator is never zero: each factor projects onto a non-empty
    complement). Otherwise ``min_eigenvalue`` solves I - sM1 - sM2.
    """
    if m1.n != m2.n or m1.dim != m2.dim:
        raise ShapeError(
            f"operators disagree on geometry: n={m1.n},dim={m1.dim} vs n={m2.n},dim={m2.dim}"
        )
    f1, f2 = m1._memo.get("factors"), m2._memo.get("factors")
    overlap = None if f1 is None or f2 is None else math.prod(
        np.linalg.svd(np.stack(f1) @ np.stack(f2), compute_uv=False)[:, 0].tolist())
    for scale in (1.0, 0.5):
        rest = identity(m1.dim ** m1.n)
        rest -= scale * m1.matrix
        rest -= scale * m2.matrix
        # 0.0 - overlap at s = 1, so a zero overlap gives +0.0, and exactly
        # (1 - overlap) / 2 at s = 1/2
        lowest = min_eigenvalue(rest, tol) if overlap is None else (1.0 - scale) - scale * overlap
        if lowest >= -tol.neg:
            return PovmAssembly(scale * m1.matrix, scale * m2.matrix, rest, scale, lowest)
    raise InternalCheckError(
        "inconclusive operator is not PSD even after halving; "
        "the conclusive operators violate their invariants"
    )
