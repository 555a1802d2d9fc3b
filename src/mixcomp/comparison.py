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
memoizes in the same way: its Hermitian residual, the one product S S of its
Hermitian part S that bounds eps = ||S^2 - S||_F, the residuals and the one
spectrum of the dense check, and, under the oracle's own key, its
probability vector.

Every constructed operator is a projector, so its self-check and its rank
need no eigensolve: eps <= tol.neg puts every eigenvalue within eps of 0 or
1, and a small enough eps makes the rank the rounded trace. The zero matrix
needs not even the product. Only when eps proves nothing does the dense
check run its eigvalsh; ``residuals()``, which ``verify`` reports, stays
dense.

A maximal operator is the projector onto the complement of the span of its
tuple class's product supports. That span is the range of the class's
generator, Sum_i P_i^(x)n for the identical class and (Sum_i P_i)^(x)n minus
that sum for the different class. When the class offers at least D = d**n
product columns, one Cholesky factorization of the shifted generator can
prove the span full, and the operator is then the zero matrix without a span
loop. Otherwise the span is still built column by column: replacing it by
the generator's kernel would move exact ties between tuples, which the
oracle's reported tuples depend on.
"""

from __future__ import annotations

import itertools
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
    _mgs_span,
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
        if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
            raise ShapeError("operator contains NaN or Inf entries")
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

    def require_hermitian(self, tol: Tolerances | None = None) -> None:
        """Raise NotHermitianError when max |M - M^dagger| exceeds tol.sym."""
        t = tol or Tolerances()
        herm = self._hermitian()
        if herm > t.sym:
            raise NotHermitianError(herm, t.sym)

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
                # S is spent: its real part takes |P| instead of a new array
                self._memo["bound"] = float(np.max(np.abs(p, out=sym.real))), eps, tr
        return self._memo["bound"]

    def _spectrum(self) -> tuple[dict[str, float], np.ndarray]:
        """The residuals and the spectrum of (M + M^dagger)/2, from one eigvalsh.

        The zero matrix needs no solve: its spectrum is exact zeros, which
        is what eigvalsh returns for it, and every residual is 0.
        """
        if "residuals" not in self._memo:
            m = self.matrix
            herm = self._hermitian()
            w = np.linalg.eigvalsh(_hermitian_part(m)) if m.any() else np.zeros(len(m))
            self._memo["residuals"] = {
                "hermitian": herm,
                "psd": max(0.0, -float(w[0])),
                "below_identity": max(0.0, float(w[-1]) - 1.0),
                "projector": self._projector_bound()[0],
            }, w
        return self._memo["residuals"]

    def rank(self, tol: Tolerances | None = None) -> int:
        """Eigenvalues above tol.rank times the largest; M must be Hermitian.

        A near-projector's rank is read off its trace when ``eps`` proves
        the count; otherwise, and whenever the spectrum is already kept, it
        is counted from the one eigvalsh of ``residuals``.
        """
        t = tol or Tolerances()
        self.require_hermitian(t)
        if "residuals" not in self._memo:
            # With eps < 1/4, |lambda^2 - lambda| <= eps puts every eigenvalue
            # within near = (1 - sqrt(1 - 4 eps))/2 of 0 or of 1, written
            # without cancellation below. Say c of them lie near 1. Then
            # |tr S - c| <= D near, and fl(tr S) adds at most gamma(D) sum
            # |S_ii| <= 2 D gamma(D), so round(fl(tr S)) = c once the two stay
            # below 1/2. For c >= 1 the largest |lambda| lies in
            # [1 - near, 1 + near]; the c eigenvalues near 1 pass the cut
            # tol.rank * max |lambda| when tol.rank (1 + near) < 1 - near,
            # and the others, at most near, stay at or below it when
            # near < tol.rank (1 - near). The count is then exact for S;
            # eigvalsh would only approximate the same eigenvalues.
            _, eps, tr = self._projector_bound()
            dim = len(self.matrix)
            if 4 * eps < 1:
                near = 2 * eps / (1 + np.sqrt(1 - 4 * eps))
                count = round(tr)
                if (
                    count >= 1
                    and dim * (near + 2 * _gamma(dim)) < 0.5
                    and near < t.rank * (1 - near)
                    and t.rank * (1 + near) < 1 - near
                ):
                    return count
        a = np.abs(self._spectrum()[1])
        return int(np.sum(a > t.rank * a.max()))

    def residuals(self) -> dict[str, float]:
        """Deviation of the operator from its invariants.

        hermitian: max |M - M^dagger|; psd: how far the lowest eigenvalue
        dips below 0; below_identity: same for I - M; projector: max
        |M^2 - M|. All are 0 for an exact projector.
        """
        return dict(self._spectrum()[0])


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


def check_conditions(cs: CandidateSet, tol: Tolerances | None = None) -> ConditionReport:
    """Evaluate all feasibility conditions in one geometry pass.

    The m1 condition asks for some support escaping the span of the others
    (witnesses reported); the m2 necessary condition asks that no single
    support swallow the span of the others; the structural condition is
    their conjunction, with the smallest escape witness as i0. The same pass
    finds the ``reduce_candidates`` survivors.

    The report is memoized on ``cs`` per Tolerances value; the set is
    frozen, so a kept report never goes stale.
    """
    t = tol or Tolerances()
    if t in cs._conditions:
        return cs._conditions[t]
    k = cs.k
    supports = tuple(support_of(st, t) for st in cs.states)
    others = tuple(
        subspace_sum([s for j, s in enumerate(supports) if j != i], t) for i in range(k)
    )
    escapes = tuple(not contains(others[i], supports[i], t) for i in range(k))
    others_escape = tuple(not contains(supports[i], others[i], t) for i in range(k))
    inside = [[contains(supports[j], supports[i], t) for j in range(k)] for i in range(k)]
    survivors = tuple(
        i for i in range(k)
        if not any(j != i and inside[i][j] and (not inside[j][i] or j < i) for j in range(k))
    )
    cs._conditions[t] = ConditionReport(escapes, others_escape, survivors, supports, others)
    return cs._conditions[t]


def reduce_candidates(cs: CandidateSet, tol: Tolerances | None = None) -> tuple[int, ...]:
    """Indices of candidates that survive support-containment reduction.

    A candidate is dropped when its support sits inside another candidate's
    support, keeping only the lowest index among candidates with identical
    supports. Survivors' supports are pairwise incomparable.
    """
    return check_conditions(cs, tol).survivors


def _prepare(
    cs: CandidateSet, n: int, tol: Tolerances | None, cap: int
) -> tuple[Tolerances, ConditionReport]:
    """Every builder's preamble: n >= 2, then the cap, then the one geometry pass."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ShapeError(f"tuple size n must be an integer >= 2, got {n!r}")
    composite = _composite(cs.dim, n, cap)
    if composite is None or composite > cap:
        raise CapExceededError(cs.dim, n, cap, composite)
    t = tol or Tolerances()
    return t, check_conditions(cs, t)


def _self_check(op: MeasurementOperator, tol: Tolerances) -> MeasurementOperator:
    """Hermitian within tol.sym and a projector within tol.neg, or InternalCheckError.

    eps <= tol.neg puts every eigenvalue within eps of 0 or 1, which bounds
    the psd, below_identity and projector residuals by eps: the check then
    passes without an eigensolve. Otherwise the dense residuals decide.
    """
    if op._hermitian() <= tol.sym and op._projector_bound()[1] <= tol.neg:
        return op
    r = op.residuals()
    if not residuals_ok(r, tol, require_projector=True):
        raise InternalCheckError(
            f"constructed operator {op.provenance.value} failed its own "
            f"invariants: residuals {r}"
        )
    return op


def _product(cs, n, factors, provenance, t) -> MeasurementOperator:
    """The self-checked Kronecker product of ``factors``, padded with identities to n slots."""
    factors = factors + [identity(cs.dim)] * (n - len(factors))
    return _self_check(MeasurementOperator(n, cs.dim, kron_all(factors), provenance), t)


def build_m1(
    cs: CandidateSet,
    n: int,
    i0: int | None = None,
    tol: Tolerances | None = None,
    cap: int = DEFAULT_CAP,
) -> MeasurementOperator:
    """Identical-outcome operator P tensored n times.

    P projects onto the orthogonal complement of the span of every support
    except the witness i0's. With i0 = None the smallest witness is used.
    Raises ConditionNotMetError when i0 is not a witness or none exists.
    """
    t, report = _prepare(cs, n, tol, cap)
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
    return _product(cs, n, [p] * n, Provenance.M1_EQ13, t)


def build_m2_product(
    cs: CandidateSet,
    n: int,
    tol: Tolerances | None = None,
    cap: int = DEFAULT_CAP,
) -> MeasurementOperator:
    """Different-outcome operator with one complement projector per survivor.

    Slot i carries the projector onto Supp(sigma'_i)^perp for the i-th
    surviving candidate; remaining slots carry the identity. Needs the
    necessary condition and n at least the survivor count r. Unambiguous
    because any all-identical input meets its own survivor's complement in
    some slot; non-trivial because survivor supports are incomparable.
    """
    t, report = _prepare(cs, n, tol, cap)
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
    return _product(cs, n, factors, Provenance.M2_PRODUCT_EQ27, t)


def build_m2_pair(
    cs: CandidateSet,
    n: int,
    tol: Tolerances | None = None,
    cap: int = DEFAULT_CAP,
) -> MeasurementOperator:
    """Different-outcome operator using only the first two slots.

    Slot one projects onto Supp(sigma_i0)^perp, slot two onto the complement
    of the span of the other supports, the rest are identities. Valid for
    every n >= 2 once the structural condition holds at witness i0.
    """
    t, report = _prepare(cs, n, tol, cap)
    i0 = report.structural_witness
    if i0 is None:
        raise ConditionNotMetError(
            "structural condition fails: need every support to escape the "
            "others' span collectively and at least one support to escape "
            "it individually"
        )
    factors = [projector(complement(s)) for s in (report.supports[i0], report.others[i0])]
    return _product(cs, n, factors, Provenance.M2_PAIR_EQ24, t)


def _tuple_span(tuples, supports, threshold, full_dim, offered):
    """Orthonormal basis of the span of the tuples' product supports, in their order.

    One MGS pass over every tuple's Kronecker block, with room for
    min(full_dim, offered) columns, where ``offered`` counts the blocks'
    columns. It stops once the basis is full; a tuple with an empty factor
    adds nothing.
    """
    blocks = (
        kron_all(factors)
        for factors in ([supports[c].basis for c in combo] for combo in tuples)
        if all(f.shape[1] for f in factors)
    )
    return _mgs_span(blocks, threshold, full_dim, min(full_dim, offered))


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
    tol: Tolerances | None = None,
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
    eigenvalue above a cut, the span loop would reach D columns, so the zero
    matrix is returned without it. A factorization that fails proves
    nothing and falls through to the loop.
    Otherwise the span is built column by column with modified Gram-Schmidt;
    that path stays because the generator's kernel, though equal up to
    round-off, would change which tuples win exact ties in the oracle.
    """
    which = OperatorKind(which)
    t, report = _prepare(cs, n, tol, cap)
    supports = report.supports
    full_dim = cs.dim ** n
    prov = Provenance.M2_MAXIMAL if which is OperatorKind.M2 else Provenance.M1_MAXIMAL
    offered = _offered_columns(n, supports, which)
    cert = _span_certificate(n, supports, which, t.rank, full_dim, offered)
    if cert is not None and cert[0] > cert[1]:
        matrix = np.zeros((full_dim, full_dim))
    else:
        # kron products of orthonormal columns have unit norm, so the MGS
        # drop threshold is the bare relative tolerance
        if which is OperatorKind.M2:
            tuples = [(i,) * n for i in range(cs.k)]
        else:
            tuples = (c for c in itertools.product(range(cs.k), repeat=n) if len(set(c)) > 1)
        q = _tuple_span(tuples, supports, t.rank, full_dim, offered)
        matrix = projector(complement(Subspace(q)))
    return _self_check(MeasurementOperator(n=n, dim=cs.dim, matrix=matrix, provenance=prov), t)


@dataclass(frozen=True)
class PovmAssembly:
    """A completing three-outcome measurement.

    conclusive_identical = alpha * M1, conclusive_different = beta * M2, and
    inconclusive is whatever remains below the identity; min_eigenvalue is
    the inconclusive element's lowest eigenvalue. Iterating yields the three
    matrices in that order.
    """

    n: int
    dim: int
    conclusive_identical: np.ndarray
    conclusive_different: np.ndarray
    inconclusive: np.ndarray
    alpha: float
    beta: float
    min_eigenvalue: float

    def __iter__(self):
        return iter((self.conclusive_identical, self.conclusive_different, self.inconclusive))


def assemble_povm(
    m1: MeasurementOperator,
    m2: MeasurementOperator,
    tol: Tolerances | None = None,
) -> PovmAssembly:
    """Complete two conclusive operators into a POVM.

    Uses the operators unscaled when I - M1 - M2 is already PSD, otherwise
    halves both. Halving always succeeds because each operator is below the
    identity. Scaling by a positive factor preserves which tuples have zero
    and which have positive probability.
    """
    t = tol or Tolerances()
    if m1.n != m2.n or m1.dim != m2.dim:
        raise ShapeError(
            f"operators disagree on geometry: n={m1.n},dim={m1.dim} vs n={m2.n},dim={m2.dim}"
        )
    eye = identity(m1.dim ** m1.n)
    rest = eye - m1.matrix - m2.matrix
    lowest = min_eigenvalue(rest, t)
    if lowest >= -t.neg:
        alpha = beta = 1.0
    else:
        alpha = beta = 0.5
        rest = eye - 0.5 * m1.matrix - 0.5 * m2.matrix
        lowest = min_eigenvalue(rest, t)
        if lowest < -t.neg:
            raise InternalCheckError(
                "inconclusive operator is not PSD even after halving; "
                "the conclusive operators violate their invariants"
            )
    return PovmAssembly(
        n=m1.n,
        dim=m1.dim,
        conclusive_identical=alpha * m1.matrix,
        conclusive_different=beta * m2.matrix,
        inconclusive=rest,
        alpha=alpha,
        beta=beta,
        min_eigenvalue=lowest,
    )
