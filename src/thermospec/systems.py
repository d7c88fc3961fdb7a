"""Branch systems, words, potentials and cylinder geometry.

A branch system models a map of the unit interval that is a bijection from
each of countably many disjoint subintervals I_1, I_2, ... onto [0, 1].
Systems are plain frozen values: equal systems hash equal.  A branch is
linear (its diameter alone) or the Moebius branch y -> 1/(digit + y) of the
continued-fraction map.  Infinite families carry a ``PowerLogTail``,
diam(I_n) = c * n^(-a) * (log(n + b))^(-d), or a ``GaussTail``,
diam(I_n) = 1/(n(n+1)); only this module tells the two families apart.
"""

from __future__ import annotations

import contextlib
import functools
import math
from typing import Sequence

import numpy as np

from ._frozen import frozen, replace
from .errors import (
    InfeasibleModelError,
    InvalidWordError,
    ModelError,
    UnderdeterminedWordError,
    UndeterminedError,
    UnsupportedPotentialError,
)

Word = tuple  # tuple of 1-based branch indices

_EM_HEAD = 1_000  # explicit tail terms before the Euler-Maclaurin remainder
_ROUND = 2.0 ** -53  # unit roundoff
_NORMAL = 2.0 ** -1022  # least normal float
_PACKING_SLACK = 1e-9
_LN2_HI, _LN2_LO = 0.6931471803691238, 1.9082149292705877e-10  # fdlibm's log 2


# ---------------------------------------------------------------------------
# branches


@frozen
class Branch:
    """One inverse branch of the map, as data.

    Every branch carries its ``diameter``.  A Moebius branch also carries
    its physical ``digit`` m: it is the inverse branch y -> 1/(m + y) of the
    continued-fraction map, with diameter 1/(m(m+1)).  A branch without a
    digit is linear.
    """

    diameter: float
    digit: int | None = None

    @staticmethod
    def linear(index: int, diameter: float) -> "Branch":
        if not (0.0 < diameter < 1.0):
            raise ModelError(f"branch {index}: diameter must lie in (0, 1), got {diameter}")
        return Branch(diameter=float(diameter))

    def inverse(self, y: float) -> float:
        """T_i^{-1}(y) for y in [0, 1] (Moebius branches)."""
        return 1.0 / (self.digit + y)

    def log_deriv(self, x: float) -> float:
        """log|T'(x)| at a point x of the branch interval."""
        if self.digit is None:
            return -math.log(self.diameter)
        return -2.0 * math.log(x)


class Tail:
    """Parametric model for branch diameters beyond the explicit head.

    Its subclasses are frozen values with one method set, m being physical
    labels: ``branch(index, m)`` and ``diameters(m)``; the summands of the
    series sum diam^s in two parts, ``base(m)``, which does not depend on
    s, and ``terms(base, s)`` = diam^s from it, both on float arrays;
    ``converges(s)`` and ``s_inf`` for that series, ``_em_terms(s, M)``
    for the shared ``bracket``, and ``terms_to_exceed_log10(s, bound,
    first)``, log10 of a count of terms from the label ``first`` whose
    partial sum provably exceeds ``bound`` where the series diverges.
    """

    def bracket(self, s: float, first: int) -> tuple[float, float]:
        """Bracket for sum_{m >= first} diam(I_m)^s, narrow to rounding.

        The summand f(x) is completely monotone on both tail families, so
        past the ``_EM_HEAD`` terms summed here the remainder from M lies
        between the Euler-Maclaurin truncations

            int_M^inf f + f(M)/2 - sum_{k <= K} B_2k/(2k)! f^(2k-1)(M)

        after K = 2 and K = 3 Bernoulli terms (Olver, Asymptotics and
        Special Functions, 1974, ch. 8).  ``_em_terms(s, M)`` gives a scale
        F, f(M) or a factor of it that keeps every quantity a normal float,
        the Taylor coefficients c_0..c_5 of f(M + h)/F (so f^(n)(M) =
        n! c_n F), the integral over F, and the rounding allowance of the
        float evaluation, in units of 2^-53, that widens both ends.
        """
        if not self.converges(s):
            return math.inf, math.inf
        M = first + _EM_HEAD
        head = float(self.terms(_tail_base(self, first, M), s).sum())
        F, taylor, integral, allowance = self._em_terms(s, M)
        em2 = F * (integral + taylor[0] / 2.0 - taylor[1] / 12.0 + taylor[3] / 120.0)
        em3 = em2 - F * taylor[5] / 252.0
        lo, hi = head + min(em2, em3), head + max(em2, em3)
        slack = allowance * _ROUND * hi
        return lo - slack, hi + slack


@frozen
class PowerLogTail(Tail):
    """diam(I_n) = c * n^(-a) * (log(n + b))^(-d); linear branches."""

    c: float
    a: float
    b: float = 1.0
    d: float = 0.0

    def __post_init__(self):
        if self.c <= 0 or self.a <= 0 or self.d < 0 or self.b < 1:
            raise ModelError("powerlog tail requires c>0, a>0, d>=0, b>=1")

    def diameter(self, m: int) -> float:
        return self.c * m ** (-self.a) * math.log(m + self.b) ** (-self.d)

    def branch(self, index: int, m: int) -> Branch:
        return Branch.linear(index, self.diameter(m))

    def diameters(self, m: np.ndarray) -> np.ndarray:
        return self.c * m ** (-self.a) * np.log(m + self.b) ** (-self.d)

    def base(self, m: np.ndarray) -> np.ndarray:
        return self.diameters(m)

    def terms(self, base: np.ndarray, s: float) -> np.ndarray:
        return base ** s

    def converges(self, s: float) -> bool:
        above = _sign_above_one(self.a, s)
        return above > 0 or (above == 0 and _sign_above_one(self.d, s) > 0)

    @property
    def s_inf(self) -> float:
        return 1.0 / self.a

    def _em_terms(self, s: float, M: int) -> tuple:
        # f(x) = c^s x^(-p) log(x + b)^(-r), with p = a s and r = d s
        x, xb, L, log1p_bx, dM, (an, ad), (dn, dd) = _powerlog_fixed(self, M)
        p, r = self.a * s, self.d * s
        f0 = dM ** s  # f(M), rounded as the head terms are
        # int_M^inf f = f(M) L xb (x/xb)^p sum_k c_k: factoring f(M) out keeps
        # the rounding of p = a s out of x^(-p).  p - 1 is rounded once,
        # because near p = 1 the integral grows like 1/(p - 1)
        sn, sd = s.as_integer_ratio()
        num, den = an * sn, ad * sd
        lam = (num - den) / den
        scale = L * xb * math.exp(-p * log1p_bx)
        integral = scale * _powerlog_integral(lam, (dn * sn, dd * sd), self.b, L, xb)
        taylor, allowance = _powerlog_taylor(p, r, x, xb, L), 12.0 + s * (4.0 + self.d)
        if f0 >= _NORMAL:
            return f0, taylor, integral, allowance
        # f(M) is subnormal while the sum need not be: scale by M f(M) =
        # c^s M^-lam log(M + b)^-r, from logs, and widen by their rounding
        l0, l1, l2 = s * math.log(self.c), -lam * math.log(x), -r * math.log(L)
        return (math.exp(math.fsum((l0, l1, l2))), [t / x for t in taylor], integral / x,
                allowance + 4.0 + 2.0 * (abs(l0) + abs(l1) + abs(l2)))

    def terms_to_exceed_log10(self, s: float, bound: float, first: int) -> float:
        """log10 of K + 1, at least the count of terms m = first..K, where
        that partial sum exceeds ``bound``: f(x) = c^s x^-p log(x + b)^-r
        decreases, so the sum is at least int_N^(K+1) f, N = ``first``.  For
        p < 1, with the log factor frozen at its least value on [N, Y],
        u = log(K + 1) solves (1-p) u = log(N^(1-p) + (1-p) B log(Y + b)^r),
        B = bound/c^s; iterating from u = 0 with Y = e^(u (1 + 1e-9)) stops
        once K + 1 <= Y.  For p = 1, x + b <= (1 + b) x inverts the
        integral in closed form."""
        if self.converges(s):
            return math.inf
        r, need = self.d * s, bound / self.c ** s
        log_first = math.log(first)
        if _sign_above_one(self.a, s) == 0:
            beta = math.log1p(self.b)
            if r < 1.0:
                start = (log_first + beta) ** (1.0 - r)
                top = math.log(start + (1.0 - r) * need) / (1.0 - r)
            else:
                top = math.log(log_first + beta) + need
            return math.inf if top > 709.0 else (math.exp(top) - beta) / math.log(10.0)
        num, den = _exact_product(self.a, s)
        gap = (den - num) / den  # 1 - p, rounded once
        log_need, log_y, log_start = math.log(gap) + math.log(need), 0.0, gap * log_first
        for _ in range(1000):
            t = log_need + r * math.log(log_y + math.log1p(self.b * math.exp(-log_y)))
            u = (max(t, log_start) + math.log1p(math.exp(-abs(t - log_start)))) / gap
            if u <= log_y:
                return u / math.log(10.0)
            log_y = u * (1.0 + 1e-9)
        return math.inf


@frozen
class GaussTail(Tail):
    """diam(I_n) = 1/(n(n+1)); Moebius branches y -> 1/(n + y)."""

    def branch(self, index: int, m: int) -> Branch:
        return Branch(diameter=1.0 / (m * (m + 1.0)), digit=m)

    def diameters(self, m: np.ndarray) -> np.ndarray:
        return 1.0 / (m * (m + 1.0))

    def base(self, m: np.ndarray) -> np.ndarray:
        return m

    def terms(self, base: np.ndarray, s: float) -> np.ndarray:
        # two powers: m (m + 1) overflows past m = 1.3e154
        return base ** (-s) * (base + 1.0) ** (-s)

    def converges(self, s: float) -> bool:
        return s > 0.5

    @property
    def s_inf(self) -> float:
        return 0.5

    def _em_terms(self, s: float, M: int) -> tuple:
        """f(x) = (x (x+1))^(-s) over F = M^(-s), as f(M) underflows where
        the sum need not: f(M + h)/F is (M+1)^(-s) times the binomial series
        of (1 + h/M)^(-s) and (1 + h/(M+1))^(-s).  f = y^(-2s) (1 -
        1/(4 y^2))^(-s), y = x + 1/2, expands binomially, so with Y = M + 1/2
        and z = 1/(4 Y^2), int_M^inf f = Y^(1-2s) sum_k binom(s+k-1, k)
        z^k/(2s - 1 + 2k) and f(M) = Y^(-2s) (1 - z)^(-s)."""
        x = float(M)
        g = (x + 1.0) ** (-s)
        A, B = _binomial_taylor(s, x), _binomial_taylor(s, x + 1.0)
        taylor = [g * c for c in _convolve(A, B)]
        Y = x + 0.5
        z = 1.0 / (4.0 * Y * Y)
        total, coef = 0.0, 1.0
        for k in range(4):  # z s < 1.4e-5 wherever M^(-s) is normal
            total += coef / (2.0 * s - 1.0 + 2.0 * k)
            coef *= z * (s + k) / (k + 1)
        return x ** (-s), taylor, Y * g * (1.0 - z) ** s * total, 12.0 + 4.0 * s

    def terms_to_exceed_log10(self, s: float, bound: float, first: int) -> float:
        p, N = 2.0 * s, float(first)
        if p > 1.0:
            return math.inf
        if p == 1.0:
            # sum_{m=N..K} (m(m+1))^{-1/2} >= sum 1/(m+1) >= log((K+2)/(N+1))
            return (bound + math.log(N + 1.0)) / math.log(10.0)
        # sum_{m=N..K} (m(m+1))^{-s} >= ((K+1)^{1-p} - (N+1)^{1-p}) / ((1-p) 2^s)
        target = bound * (1.0 - p) * 2.0 ** s + (N + 1.0) ** (1.0 - p)
        return math.log10(target) / (1.0 - p)


@frozen
class FlatParams:
    K: float
    C: float
    s_inf: float


@frozen
class BranchSystem:
    """Immutable description of a countable expanding branch family.

    ``offset`` maps the 1-based logical index i used in words to the physical
    label i + offset (restricted subsystems keep their original labels this
    way).  ``xi`` is the uniform bound with diam(I_i) <= 1/xi for all i.
    ``flat`` records the parameters of ``flat_example_system``.
    """

    head: tuple = ()
    tail: Tail | None = None
    xi: float = 2.0
    offset: int = 0
    flat: FlatParams | None = None

    def digit(self, i: int) -> int:
        """Physical branch label for logical index i."""
        return i + self.offset

    def branch_count(self) -> int | None:
        return len(self.head) if self.tail is None else None


def var_log_deriv(system: BranchSystem, n: int) -> float:
    """Certified bound for the oscillation of log|T'| over n-cylinders: zero
    on all-linear systems, the continued-fraction bound otherwise."""
    if n < 1:
        raise ValueError("variation index must be >= 1")
    return 0.0 if is_linear(system) else _gauss_var(n)


@functools.lru_cache(maxsize=256)
def _fib(n: int) -> int:
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def _gauss_var(n: int) -> float:
    # var_1 = sup_k 2 log((k+1)/k) = 2 log 2; for n >= 2 the oscillation of
    # -2 log x over an n-cylinder is at most twice the largest (n-1)-cylinder,
    # which is the all-ones cylinder of size 1/(F_n F_{n+1}).
    if n == 1:
        return 2.0 * math.log(2.0)
    return 2.0 / (_fib(n) * _fib(n + 1))


def branch(system: BranchSystem, i: int) -> Branch:
    """Branch for logical index i, materialized from the tail if needed."""
    if i < 1:
        raise InvalidWordError(f"branch indices are 1-based, got {i}")
    if i <= len(system.head):
        return system.head[i - 1]
    if system.tail is None:
        raise InvalidWordError(f"index {i} exceeds the {len(system.head)} available branches")
    return system.tail.branch(i, system.digit(i))


def branch_diameter(system: BranchSystem, i: int) -> float:
    """Exact diameter of I_i."""
    return branch(system, i).diameter


def diameters(system: BranchSystem, q: int) -> np.ndarray:
    """Diameters of the first q branches as a vector."""
    if q < 1:
        raise ValueError("q must be >= 1")
    return _diameters_at(system, np.arange(1, q + 1))


def _diameters_at(system: BranchSystem, idx: np.ndarray) -> np.ndarray:
    """Diameters of the branches with sorted 1-based indices ``idx``."""
    nh = int(np.searchsorted(idx, len(system.head), side="right"))
    out = np.empty(len(idx), dtype=float)
    out[:nh] = [system.head[i - 1].diameter for i in idx[:nh].tolist()]
    if nh < len(idx):
        if system.tail is None:
            raise InvalidWordError(
                f"truncation {idx[-1]} exceeds the finite system size {len(system.head)}")
        out[nh:] = system.tail.diameters(idx[nh:] + float(system.offset))
    return out


def _log_diameters_at(system: BranchSystem, idx: np.ndarray) -> np.ndarray:
    """log diam(I_i) for each 1-based index i of the int array ``idx``.

    The diameters are evaluated on a table no longer than ``idx``: branches
    1..max(idx) when that fits, else the distinct indices only, so one huge
    digit costs no memory in its size.  Diameters are elementwise in the
    index, so both tables give the same bits.
    """
    top = int(idx.max())
    if top <= idx.size:
        return np.log(diameters(system, top))[idx - 1]
    u, inv = np.unique(idx, return_inverse=True)
    return np.log(_diameters_at(system, u))[inv.reshape(idx.shape)]


def has_gauss_tail(system: BranchSystem) -> bool:
    """True when the tail is the continued-fraction family's."""
    return isinstance(system.tail, GaussTail)


def is_linear(system: BranchSystem) -> bool:
    """True when every branch (head and tail) is linear."""
    return (not isinstance(system.tail, GaussTail)
            and all(b.digit is None for b in system.head))


# ---------------------------------------------------------------------------
# series of diameters: head sums plus certified tail brackets


def _logsumexp(a: np.ndarray | list) -> float:
    """log sum exp(a) of a 1-D float array, bit-identical to scipy's.

    Performs ``scipy.special.logsumexp``'s arithmetic without its
    array-API dispatch, which dominates on few-element arrays: shift by
    the maximum, drop the maximal entries from the sum, divide by their
    count m, and return log1p(s) + log(m) + max, finite with the maximum.
    An empty array gives -inf, and a NaN or infinite maximum scipy's direct
    log(sum(exp(a))).

    ``a`` may also be a short list of at most 7 Python floats, which skips
    numpy's dispatch on tiny arrays.  Below 8 terms numpy's ``sum`` adds
    in sequence (from 8 on it keeps 8 partial sums), so the explicit loop
    adds left to right as it does; builtin ``sum()`` would not, being
    compensated from Python 3.12.  The exponentials and logarithms stay
    numpy's scalar ufuncs, which match the array loops bit for bit where
    the C library's ``math.exp`` and ``math.log1p`` do not.  A list whose
    maximum is not finite, or that holds a NaN, takes the array path.
    """
    if isinstance(a, list):
        if not a:
            return -math.inf
        a_max = max(a)
        if math.isfinite(a_max):
            s = m = 0.0
            for x in a:
                if x == a_max:
                    m += 1.0
                else:
                    s += np.exp(x - a_max)
            if s == s:
                return float(np.log1p(s / m) + np.log(m) + a_max)
        return _logsumexp(np.array(a))
    if not a.size:
        return -math.inf
    a_max = a.max()
    if not math.isfinite(a_max):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return float(np.log(np.exp(a).sum()))
    ismax = a == a_max
    m = float(np.count_nonzero(ismax))
    e = a - a_max
    np.exp(e, out=e)
    e[ismax] = 0.0
    return float(np.log1p(e.sum() / m) + np.log(m) + a_max)


_LOG2 = math.log(2.0)


def _logaddexp(x: float, y: float) -> float:
    """log(e^x + e^y) of two floats, bit-identical to ``np.logaddexp``.

    numpy's scalar arithmetic (``npy_logaddexp``): x + log 2 on a tie,
    which keeps equal infinities, else the larger plus log1p(exp(-|x - y|))
    from the C library, and NaN when x - y is NaN.  ``math`` runs it
    without a ufunc dispatch.
    """
    if x == y:
        return float(x + _LOG2)
    d = x - y
    if d > 0:
        return float(x + math.log1p(math.exp(-d)))
    if d <= 0:
        return float(y + math.log1p(math.exp(d)))
    return float(d)


# cephes' Euler-Maclaurin coefficients (2k)!/B_2k
_ZETA_A = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0,
           -1.8924375803183791606e9, 7.47242496e10, -2.950130727918164224e12,
           1.1646782814350067249e14, -4.5979787224074726105e15,
           1.8152105401943546773e17, -7.1661652561756670113e18)
_ZETA_MACHEP = 1.11022302462515654042e-16  # 2^-53


def hurwitz_zeta(x: float, q: float) -> float:
    """Hurwitz zeta sum_{k >= 0} (k + q)^(-x) for x > 1 and q > 0.

    x = 1 gives inf, and any other x or q outside that domain gives NaN.

    A port of cephes' ``zeta(x, q)`` (S. L. Moshier), which
    ``scipy.special.zeta`` evaluates, operation for operation: the
    asymptotic (1/(x-1) + 1/(2q)) q^(1-x) above q = 1e8 (DLMF 25.11.43),
    else at least nine explicit terms up to k + q > 9, then the integral,
    half the last term and up to twelve Bernoulli corrections of the
    Euler-Maclaurin formula.  Python's float power is the C library's pow,
    so the result matches scipy's bit for bit.
    """
    x, q = float(x), float(q)
    if x == 1.0:
        return math.inf
    if not (x > 1.0 and q > 0.0):
        return math.nan
    if q > 1e8:
        return (1.0 / (x - 1.0) + 1.0 / (2.0 * q)) * q ** (1.0 - x)
    s = q ** -x
    a = q
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a ** -x
        s += b
        if abs(b / s) < _ZETA_MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for coeff in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / coeff
        s += t
        if abs(t / s) < _ZETA_MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


_EULER = 0.57721566490153286061
_ZETA_M1 = tuple((hurwitz_zeta(k, 2.0), k) for k in map(float, range(2, 64)))  # (zeta(k) - 1, k)


def _lgamma1p_over(x: float) -> float:
    """log Gamma(1 + x) / x for -1/2 <= x <= 1, -Euler's constant at 0.

    From -log(1 + x)/x + 1 - gamma + sum_k (-x)^k (zeta(k) - 1)/(k x)
    (Abramowitz & Stegun 6.1.41 with the log(1 + x) part taken out), whose
    terms fall like (x/2)^k and keep the quotient accurate however small
    x is.
    """
    out = (-math.log1p(x) / x if x else -1.0) + 1.0 - _EULER
    xk, nx = -1.0, -x
    for z, k in _ZETA_M1:
        xk *= nx
        term = z * xk / k
        out += term
        if abs(term) <= _ROUND * abs(out):
            break
    return out


def _exact_product(x: float, y: float) -> tuple[int, int]:
    """x y exactly, as integers (numerator, denominator > 0).

    Python's int / int is correctly rounded, so n / d and (n - k d) / d
    round the exact values once, as ``float(Fraction)`` does.
    """
    xn, xd = x.as_integer_ratio()
    yn, yd = y.as_integer_ratio()
    return xn * yn, xd * yd


def _sign_above_one(x: float, y: float) -> int:
    """Sign of x y - 1, exact: rounding is monotone, so only a product
    that rounds to 1 needs the integers."""
    p = x * y
    if p == 1.0:
        num, den = _exact_product(x, y)
        return (num > den) - (num < den)
    return (p > 1.0) - (p < 1.0)


def _expint_scaled(r: tuple[int, int], z: float) -> float:
    """e^z E_r(z), E_r(z) = int_1^inf e^(-zt) t^(-r) dt the generalised
    exponential integral, for r >= 0 and z >= 0, to a few ulps.

    z = 0 gives 1/(r - 1), or inf for r <= 1.  Below z = 1/2 it sums the
    series

        E_r(z) = z^(r-1) Gamma(1-r) - sum_{k >= 0} (-z)^k / (k! (1-r+k)),

    whose term k = m nearest a pole (1 - r + m = delta small) is merged
    with the Gamma term in closed form, (-z)^m/m! (e^E - 1)/delta with
    E = -delta log z + log Gamma(1+delta) - sum_{j <= m} log(1 - delta/j),
    through expm1 while |E| < 1, so r next to an integer loses nothing.
    r comes exact, as integers (numerator, denominator), and delta is
    rounded once from it: E_r(z) grows like z^(r-1) as z -> 0.  From
    z = 1/2 on it evaluates the continued fraction e^z E_r(z) =
    1/(z + r/(1 + 1/(z + (r+1)/(1 + 2/(z + ...))))) (Abramowitz & Stegun
    5.1.22) from the bottom up, at a depth that converges to rounding for
    r <= 40; all its terms are positive.  The scaling leaves e^-z, whose
    argument is rounded, to the caller.
    """
    num, den = r
    if z == 0.0:
        return 1.0 / ((num - den) / den) if num > den else math.inf
    rf = num / den
    if z >= 0.5:
        t, k = z, float(int(3.0 + 60.0 / math.sqrt(z) + 60.0 / z))
        while k >= 0.0:
            t = z + (rf + k) / (1.0 + (k + 1.0) / t)
            k -= 1.0
        return 1.0 / t
    m = max(0, round(rf - 1.0))
    delta = ((1 + m) * den - num) / den
    c_over = _lgamma1p_over(delta)
    for j in range(1, m + 1):
        c_over -= math.log1p(-delta / j) / delta if delta else -1.0 / j
    e = delta * (c_over - math.log(z))
    if abs(e) < 1.0:
        g = (c_over - math.log(z)) * (math.expm1(e) / e if e else 1.0)
    else:  # e^E far from 1: z^-delta straight from pow, not from exp(E)
        g = (z ** -delta * math.exp(delta * c_over) - 1.0) / delta
    out = (-z) ** m / math.factorial(m) * g
    term, k, one_r, nz, mf = 1.0, 0.0, 1.0 - rf, -z, float(m)
    while True:
        if k != mf:
            part = term / (one_r + k)
            out -= part
            if k > mf and abs(part) <= _ROUND * abs(out):
                return out * math.exp(z)
        k += 1.0
        term *= nz / k


def _powerlog_integral(lam: float, r: tuple[int, int], b: float, L: float,
                       xb: float) -> float:
    """sum_k binom(p+k-1, k) (b/xb)^k e^(z_k) E_r(z_k), z_k = (lam + k) L,
    for lam = p - 1 >= 0, xb = M + b and L = log xb.

    Times L^(1-r) xb^(-lam) this is int_M^inf x^(-p) log(x + b)^(-r) dx:
    with u = log(x + b) the integrand is e^(-lam u) (1 - b e^-u)^(-p)
    u^(-r), and expanding the middle factor binomially (b e^-u <= b/xb < 1)
    gives sum_k binom(p+k-1, k) b^k L^(1-r) E_r((lam + k) L).
    """
    total, coef, k = 0.0, 1.0, 0
    while True:
        term = coef * _expint_scaled(r, (lam + k) * L)
        total += term
        if term <= _ROUND * total:
            return total
        k += 1
        coef *= b * (lam + k) / (k * xb)


def _binomial_taylor(p: float, x: float) -> list:
    """Taylor coefficients c_0..c_5 of (1 + h/x)^(-p) in h."""
    A = [1.0]
    for n in range(1, 6):
        A.append(A[-1] * (1.0 - p - n) / (n * x))
    return A


def _convolve(A: list, B: list) -> list:
    """sum_{k <= n} A_k B_(n-k), n < len(A), added left to right from 0.0, uncompensated."""
    out = [0.0] * len(A)
    for k, a in enumerate(A):  # each out[n] takes its terms in the order of k
        for n in range(k, len(A)):
            out[n] += a * B[n - k]
    return out


def _powerlog_taylor(p: float, r: float, x: float, xb: float, L: float) -> list:
    """Taylor coefficients c_0..c_5 of f(x + h)/f(x) in h, where
    f(x) = x^(-p) log(x + b)^(-r), xb = x + b and L = log xb.

    x^(-p) expands binomially; log(xb + h) = L (1 + u(h)) with
    u = log(1 + h/xb)/L, and (1 + u)^(-r) follows J. C. P. Miller's power
    recurrence w_n = sum_{k=1..n} ((1 - r) k - n) u_k w_(n-k) / n.
    """
    u, W = [0.0, 1.0 / (xb * L)], [1.0]
    for n in range(1, 6):
        if n > 1:
            u.append(-u[-1] * (n - 1) / (n * xb))
        w = 0.0
        for k in range(1, n + 1):
            w += ((1.0 - r) * k - n) * u[k] * W[n - k]
        W.append(w / n)
    return _convolve(_binomial_taylor(p, x), W)


@functools.lru_cache(maxsize=8)
def _powerlog_fixed(tail: PowerLogTail, M: int) -> tuple:
    """The s-free inputs of ``PowerLogTail._em_terms`` at M, as it unpacks them."""
    x, xb = float(M), M + tail.b
    L = math.log(xb)
    return (x, xb, L, math.log1p(tail.b / x), tail.diameter(M),
            tail.a.as_integer_ratio(), tail.d.as_integer_ratio())


def series_converges(system: BranchSystem, s: float) -> bool:
    """Does sum_i diam(I_i)^s converge?  Finite systems always converge."""
    return system.tail is None or system.tail.converges(s)


@functools.lru_cache(maxsize=1)
def _tail_base(tail: Tail, first: int, stop: int) -> np.ndarray:
    """Read-only ``tail.base`` of the physical labels first..stop-1.

    The base does not depend on the exponent, so a series solved at many
    exponents builds it once: one slot, the last bracket head.
    """
    base = tail.base(first + np.arange(stop - first, dtype=float))
    base.flags.writeable = False
    return base


@functools.lru_cache(maxsize=16384)
def _diam_series_cached(system: BranchSystem, s: float, start: int) -> tuple[float, float]:
    if s < 0:
        raise ValueError("series exponent must be >= 0")
    n_explicit = len(system.head)
    total = 0.0
    if start <= n_explicit:
        ds = diameters(system, n_explicit)[start - 1:]
        total += float(np.sum(ds ** s))
    if system.tail is None:
        return total, total
    if not series_converges(system, s):
        return math.inf, math.inf
    lo, hi = system.tail.bracket(s, max(start, n_explicit + 1) + system.offset)
    return total + lo, total + hi


def diam_series(system: BranchSystem, s: float, *, start: int = 1) -> tuple[float, float]:
    """Certified bracket for sum_{i >= start} diam(I_i)^s (logical indices).

    The explicit head is summed and the tail's ``bracket`` covers the rest:
    an Euler-Maclaurin bracket past a 1e3-term head on both tail families,
    whose relative width is about 1e-14 or less.
    """
    return _diam_series_cached(system, float(s), int(start))


def s_inf_exact(system: BranchSystem) -> float:
    """Critical exponent of the diameter series.

    Equals 0 for finite systems, 1/a for power-log tails and 1/2 for the
    continued-fraction tail.
    """
    return 0.0 if system.tail is None else system.tail.s_inf


# ---------------------------------------------------------------------------
# constructors


def _check_packing(system: BranchSystem) -> None:
    lo, hi = diam_series(system, 1.0)
    if lo > 1.0 + _PACKING_SLACK:
        raise InfeasibleModelError(f"branch diameters sum to at least {lo:.6g} > 1")
    for i in range(1, len(system.head) + 1):
        if branch_diameter(system, i) > 1.0 / system.xi + 1e-12:
            raise ModelError(f"branch {i} larger than 1/xi")


def linear_system(diams: Sequence[float], xi: float | None = None) -> BranchSystem:
    """Finite all-linear system with the given branch diameters."""
    ds = [float(d) for d in diams]
    if not ds:
        raise ModelError("at least one branch is required")
    head = tuple(Branch.linear(i + 1, d) for i, d in enumerate(ds))
    if xi is None:
        xi = 1.0 / max(ds)
    sys_ = BranchSystem(head=head, tail=None, xi=float(xi))
    _check_packing(sys_)
    return sys_


def gauss_system() -> BranchSystem:
    """Continued-fraction map x -> 1/x mod 1 with branches I_n = (1/(n+1), 1/n)."""
    return BranchSystem(head=(), tail=GaussTail(), xi=2.0)


def powerlog_system(head_diams: Sequence[float], c: float, a: float, b: float = 1.0,
                    d: float = 0.0, xi: float | None = None) -> BranchSystem:
    """All-linear system with explicit head and power-log tail."""
    head = tuple(Branch.linear(i + 1, float(dd)) for i, dd in enumerate(head_diams))
    tail = PowerLogTail(c=float(c), a=float(a), b=float(b), d=float(d))
    first_tail = tail.diameter(len(head) + 1)
    biggest = max([b_.diameter for b_ in head] + [first_tail])
    if xi is None:
        xi = 1.0 / biggest
    sys_ = BranchSystem(head=head, tail=tail, xi=float(xi))
    _check_packing(sys_)
    return sys_


def flat_example_system(K: float = 0.55, C: float = 0.6, s_inf: float = 0.5) -> BranchSystem:
    """Linear system whose critical exponent s_inf is attained with a finite
    critical series.

    diam(I_1) = K^(1/s_inf) so that diam(I_1)^s_inf = K, and the tail
    diam(I_n) = c n^(-1/s_inf) log(n+1)^(-2/s_inf) for n >= 2 is calibrated so
    that sum_{n>=2} diam(I_n)^s_inf = C: c comes from the midpoint of the
    ``diam_series`` bracket of the c = 1 series, which is narrow to
    rounding, so the realised sum is C to within about 1e-15.  The critical
    series converges at s_inf itself while diverging below it, so the
    computed critical exponent equals the target exactly.
    """
    if not (0.0 < s_inf < 1.0):
        raise ModelError("target exponent must lie in (0, 1)")
    if not (0.0 < C < 1.0 and K > 0.0 and K + C > 1.0):
        raise InfeasibleModelError("flat construction requires 0 < C < 1 and K + C > 1")
    d1 = K ** (1.0 / s_inf)
    if d1 >= 1.0:
        raise InfeasibleModelError("head diameter K^(1/s_inf) must be < 1")
    a = 1.0 / s_inf
    d = 2.0 / s_inf
    # calibrate: (c^s_inf) * sum_{n>=2} n^-1 log(n+1)^-2 = C
    probe = BranchSystem(head=(Branch.linear(1, d1),),
                         tail=PowerLogTail(c=1.0, a=a, b=1.0, d=d), xi=1.0 / d1)
    s_lo, s_hi = diam_series(probe, s_inf, start=2)
    s0 = 0.5 * (s_lo + s_hi)
    c = (C / s0) ** (1.0 / s_inf)
    tail = PowerLogTail(c=c, a=a, b=1.0, d=d)
    xi = 1.0 / max(d1, tail.diameter(2))
    sys_ = BranchSystem(head=(Branch.linear(1, d1),), tail=tail,
                        xi=xi, flat=FlatParams(K=float(K), C=float(C), s_inf=float(s_inf)))
    _check_packing(sys_)
    return sys_


def doubling_system() -> BranchSystem:
    return linear_system([0.5, 0.5])


def truncate(system: BranchSystem, q: int) -> BranchSystem:
    """Finite subsystem on the first q branches (without the parent's
    ``flat`` parameters, which describe the parent's window constants)."""
    if q < 1:
        raise ModelError("truncation must keep at least one branch")
    if system.tail is None and q > len(system.head):
        raise InvalidWordError(f"cannot truncate to {q} branches, only {len(system.head)} exist")
    head = tuple(branch(system, i) for i in range(1, q + 1))
    return replace(system, head=head, tail=None, flat=None)


def restricted_system(system: BranchSystem, N: int) -> BranchSystem:
    """Subsystem on branches {N, N+1, ...}, reindexed from 1 (for N > 1
    without the parent's ``flat`` parameters)."""
    if N < 1:
        raise ModelError("restriction start must be >= 1")
    if system.tail is None and N > len(system.head):
        raise ModelError("restriction removes every branch")
    return replace(system, head=system.head[N - 1:], offset=system.offset + N - 1,
                   flat=system.flat if N == 1 else None)


# ---------------------------------------------------------------------------
# words and cylinders


def _decode_words(q: int, n: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Symbols (1-based) of the words over {1..q} of length n with
    lexicographic indices [start, stop), one row per word."""
    idx = np.arange(start, q ** n if stop is None else stop, dtype=np.int64)
    arr = np.empty((len(idx), n), dtype=np.int64)
    for j in range(n - 1, -1, -1):  # last symbol first: one divmod per column
        np.divmod(idx, q, out=(idx, arr[:, j]))
    arr += 1
    return arr


def check_word(system: BranchSystem, word: Sequence[int]) -> Word:
    w = tuple(int(s) for s in word)
    if not w:
        raise InvalidWordError("empty word")
    n_head = len(system.head)
    for s in w:
        if s < 1:
            raise InvalidWordError(f"branch indices are 1-based, got {s}")
        if s > n_head and system.tail is None:
            raise InvalidWordError(f"index {s} exceeds the {n_head} available branches")
    return w


def cylinder_diameter(system: BranchSystem, word: Sequence[int]) -> float:
    """Diameter of the cylinder set C_n(word).

    Linear systems: exact product of branch diameters.  Continued-fraction
    systems: the continuant formula of ``_cf_log_cylinder_diams``.
    """
    w = check_word(system, word)
    if is_linear(system):
        out = 0.0
        for s in w:
            out += math.log(branch_diameter(system, s))
        return math.exp(out)
    return math.exp(_cf_log_cylinder_diams(np.array([w], dtype=float) + system.offset)[0])


def _cf_log_cylinder_diams(digits: np.ndarray) -> np.ndarray:
    """log diam of continued-fraction cylinders, one per row of physical digits.

    With continuant ratios r_k = q_k/q_{k-1} = a_k + 1/r_{k-1} (r_1 = a_1),
    the cylinder 1/(q_n (q_n + q_{n-1})) has log diam = -2 sum log r_k -
    log1p(1/r_n): no endpoints are subtracted, so no digit cancels.
    """
    r = digits[:, 0]
    total = np.log(r)
    for j in range(1, digits.shape[1]):
        r = digits[:, j] + 1.0 / r
        total += np.log(r)
    return -2.0 * total - np.log1p(1.0 / r)


def cylinder_diameter_bracket(system: BranchSystem, word: Sequence[int]) -> tuple[float, float]:
    """Interval certain to contain the cylinder diameter.

    The log-width of the interval never exceeds the cumulative variation
    sum_{j<=n} var_j(log|T'|); for the product and continuant formulas used
    here it is bounded by floating-point roundoff alone.
    """
    w = check_word(system, word)
    d = cylinder_diameter(system, w)
    fuzz = 64.0 * len(w) * np.finfo(float).eps
    return d * (1.0 - fuzz), d * (1.0 + fuzz)


def _compose_inverse(system: BranchSystem, word: Word, y: float) -> float:
    x = y
    for s in reversed(word):
        b = branch(system, s)
        if b.digit is None:
            raise ModelError("inverse composition requires analytic branches")
        x = b.inverse(x)
    return x


def periodic_points(system: BranchSystem, word: Sequence[int]) -> list[float]:
    """Orbit z_0, ..., z_{n-1} of the periodic point coded by word^infinity.

    z_j is the projection of the j-th shift of the periodic sequence; it
    satisfies z_j = T_{w_j}^{-1}(z_{j+1}) cyclically.
    """
    w = check_word(system, word)
    x = 0.5
    for _ in range(200):
        x_prev = x
        x = _compose_inverse(system, w, x)
        if abs(x - x_prev) <= 1e-16:
            break
    n = len(w)
    zs = [0.0] * n
    zs[0] = x
    z = x
    for j in range(n - 1, 0, -1):
        z = branch(system, w[j]).inverse(z)
        zs[j] = z
    return zs


# ---------------------------------------------------------------------------
# potentials


def _zeroed(cols, out):
    """``out``, or a new array of the columns' broadcast shape, set to 0."""
    if out is None:
        return np.zeros(np.broadcast_shapes(*(np.shape(c) for c in cols)))
    out.fill(0.0)
    return out


class Potential:
    """Observable evaluated along symbol sequences.

    Its subclasses are frozen values with one method set, the indices being
    logical: ``values(system, idx)`` on branches (level 1), ``value(system,
    window)`` on one window of ``level`` symbols, ``birkhoff_sums(system,
    cols, out=None)`` along the periodic orbits of the words whose j-th
    symbols are ``cols[j]``, arrays that broadcast together (written into
    ``out`` when it is given, of their shape), ``tail_bounds(system,
    after)`` over the branches past ``after``, ``var(system, n)`` over
    n-cylinders, and ``dump()``.  ``level`` is the dependence length: the
    value on a point depends only on its first ``level`` symbols.
    ``lower``/``upper`` bound the potential over the whole system when it
    is bounded, and ``tail_inf_attained`` says whether the tail infimum is
    taken on a digit.
    """

    level = 1
    lower = None
    upper = None
    tail_inf_attained = True

    @property
    def bounded(self) -> bool:
        return self.lower is not None and self.upper is not None

    def birkhoff_sums(self, system: BranchSystem, cols, out=None) -> np.ndarray:
        total = _zeroed(cols, out)
        for c in cols:
            total += self.values(system, c)
        return total

    def tail_bounds(self, system: BranchSystem, after: int) -> tuple[float, float]:
        if self.bounded:
            return self.lower, self.upper
        raise UndeterminedError("potential lacks tail bounds")

    def var(self, system: BranchSystem, n: int) -> float:
        if n >= self.level:
            return 0.0
        if self.bounded:
            return self.upper - self.lower
        raise UndeterminedError("unbounded potential lacks a variation bound")


@frozen
class IndicatorPotential(Potential):
    """1 on branch ``index``, 0 elsewhere."""

    index: int
    lower = 0.0
    upper = 1.0

    def values(self, system, idx):
        return (idx == self.index).astype(float)

    def value(self, system, window):
        return 1.0 if window[0] == self.index else 0.0

    def tail_bounds(self, system, after):
        return (0.0, 0.0) if self.index <= after else (0.0, 1.0)

    def dump(self) -> dict:
        return {"kind": "indicator", "index": self.index}


@frozen
class HarmonicPotential(Potential):
    """1 / physical digit; its tail infimum 0 is a limit only."""

    lower = 0.0
    upper = 1.0
    tail_inf_attained = False

    def values(self, system, idx):
        return 1.0 / (idx + system.offset)

    def value(self, system, window):
        return 1.0 / system.digit(window[0])

    def tail_bounds(self, system, after):
        return 0.0, 1.0 / system.digit(after + 1)

    def dump(self) -> dict:
        return {"kind": "harmonic"}


@frozen
class ConstantPotential(Potential):
    """A fixed value."""

    value_c: float

    lower = property(lambda self: self.value_c)
    upper = property(lambda self: self.value_c)

    def values(self, system, idx):
        return np.full(np.shape(idx), self.value_c)

    def value(self, system, window):
        return self.value_c

    def dump(self) -> dict:
        return {"kind": "constant", "value": self.value_c}


@frozen
class TablePotential(Potential):
    """Explicit values on words of length ``level``: sorted (word, value) pairs."""

    level: int  # takes Potential.level = 1 as its default
    table: tuple = ()

    lower = property(lambda self: min(v for _, v in self.table))
    upper = property(lambda self: max(v for _, v in self.table))

    def values(self, system, idx):
        return np.array([self.value(system, (int(i),)) for i in idx])

    def value(self, system, window):
        w = tuple(window[:self.level])
        for k, v in self.table:
            if k == w:
                return v
        raise ModelError("table potential lacks values for some windows")

    def tail_bounds(self, system, after):
        # a finite table lists no digit of an infinite tail
        raise ModelError("table potential lacks values for some windows")

    def birkhoff_sums(self, system, cols, out=None):
        """Sum over cyclic windows, each found one symbol at a time by its rank
        among the keys' distinct prefixes: memory grows with the table only."""
        keys, vals = (np.array(x) for x in zip(*self.table))
        steps, rank = [], 0
        for k in range(self.level):
            syms = np.unique(keys[:, k])
            code = rank * len(syms) + np.searchsorted(syms, keys[:, k])
            prefixes, rank = np.unique(code, return_inverse=True)
            steps.append((syms, prefixes))
        n, total = len(cols), _zeroed(cols, out)
        for j in range(n):
            rank, found = 0, True
            for k, (syms, prefixes) in enumerate(steps):
                s = cols[(j + k) % n]
                r = np.minimum(np.searchsorted(syms, s), len(syms) - 1)
                code = rank * len(syms) + r
                rank = np.minimum(np.searchsorted(prefixes, code), len(prefixes) - 1)
                found = found & (syms[r] == s) & (prefixes[rank] == code)
            if not np.all(found):
                raise ModelError("table potential lacks values for some windows")
            total += vals[rank]
        return total

    def dump(self) -> dict:
        return {"kind": "table", "level": self.level,
                "values": {",".join(str(s) for s in k): v for k, v in self.table}}


@frozen
class LogDerivPotential(Potential):
    """log|T'|, evaluated through the branch data: locally constant on
    all-linear systems only, and unbounded."""

    def values(self, system, idx):
        if not is_linear(system):
            raise UnsupportedPotentialError(
                "log|T'| is not locally constant on analytic systems")
        return -_log_diameters_at(system, idx)

    def value(self, system, window):
        b = branch(system, window[0])
        if b.digit is not None:
            raise UnsupportedPotentialError(
                "log|T'| is not locally constant on analytic systems")
        return -math.log(b.diameter)

    def birkhoff_sums(self, system, cols, out=None):
        """On analytic systems, log|(T^n)'| at each word's periodic point in
        closed form (Jenkinson & Pollicott, ETDS 21, 2001): 2 log mu, with
        mu = T/2 + sqrt(T^2/4 - (-1)^n) the expanding eigenvalue of the
        product of [[0, 1], [1, m_j]] over the physical digits and T =
        K(m_1..m_n) + K(m_2..m_{n-1}) its continuant trace.  The product
        [[a, b], [c, d]] of all digits but the last is scaled by exact powers
        of two, 2^-e in all, at each step where some d reaches 2^128 (below
        it the scaling would be an exact ldexp by 0, so it is skipped); the
        last digit closes the half trace y = (b + c + d m_n) 2^-e / 2.  Where
        y^2 overflows (digits above about 1e154) mu is 2y, which it equals in
        floats there.  Columns may broadcast, as prefix digits (P, 1) against
        last digits (1, q): every step before the trace runs on P elements.
        y is the one temporary of the full shape; mu and its logarithm are
        written into ``out`` when it is given (it must have that shape).

        T is invariant under rotation and reversal of the word, and for
        n <= 3 every permutation is one of those: T is m, m_1 m_2 + 2 and
        m_1 m_2 m_3 + m_1 + m_2 + m_3.  So up to length 3 the sum depends
        only on the multiset of digits, and where the continuants are exact
        integers (below 2^53) every ordering gives the same bits.
        """
        if is_linear(system):
            return super().birkhoff_sums(system, cols, out)
        *head, last = [c + float(system.offset) for c in cols]
        a, b, c, d, e = 1.0, 0.0, 0.0, 1.0, None  # e: None until a scaling
        for m in head:
            a, b, c, d = b, a + b * m, d, c + d * m
            if d.max() >= 2.0 ** 128:  # below, the scaling is ldexp by 0
                k = np.where(d < 2.0 ** 128, 0, np.frexp(d)[1])
                a, b, c, d = (np.ldexp(x, -k) for x in (a, b, c, d))
                e = k if e is None else e + k
        y = 0.5 * d * last
        y += 0.5 * (b + c)
        big = np.max(d) * last.max() + np.max(b + c) > 2.0 ** 512  # y^2 may overflow
        with np.errstate(over="ignore") if big else contextlib.nullcontext():
            mu = np.multiply(y, y, out=out)
        sign = (-1.0) ** len(cols)
        mu -= sign if e is None else np.ldexp(sign, -2 * e)
        np.sqrt(mu, out=mu)
        mu += y
        if big:
            np.multiply(y, 2.0, out=mu, where=np.isinf(mu))
        np.log(mu, out=mu)
        mu *= 2.0
        if e is not None:  # some d was scaled, so some e > 0
            mu += 2 * e * _LN2_LO  # e log 2 in two parts, the larger one exact
            mu += 2 * e * _LN2_HI
        return mu

    def var(self, system, n):
        return var_log_deriv(system, n)

    def dump(self) -> dict:
        return {"kind": "log_deriv"}


def indicator_potential(index: int) -> IndicatorPotential:
    if index < 1:
        raise ModelError("indicator index must be >= 1")
    return IndicatorPotential(index)


def harmonic_potential() -> HarmonicPotential:
    return HarmonicPotential()


def constant_potential(value: float) -> ConstantPotential:
    value = float(value)
    if not math.isfinite(value):
        raise ModelError(f"constant potential value must be finite, got {value}")
    return ConstantPotential(value)


def table_potential(level: int, values: dict) -> TablePotential:
    if level < 1:
        raise ModelError("potential level must be >= 1")
    items = tuple(sorted((tuple(k), float(v)) for k, v in values.items()))
    for k, v in items:
        if len(k) != level:
            raise ModelError("table keys must be words of the stated level")
        if not math.isfinite(v):
            raise ModelError(f"table potential values must be finite, got {v} at {k}")
    if not items:
        raise ModelError("table potential needs at least one value")
    return TablePotential(level, items)


def log_deriv_potential() -> LogDerivPotential:
    return LogDerivPotential()


def potential_value(system: BranchSystem, potential: Potential, window: Sequence[int]) -> float:
    """Value of a locally constant potential on the cylinder of ``window``."""
    return potential.value(system, tuple(window))


def level1_values(system: BranchSystem, potential: Potential, q: int) -> np.ndarray:
    """Vector of values of a level-1 potential on branches 1..q."""
    if potential.level != 1:
        raise UnsupportedPotentialError("vectorized values require a level-1 potential")
    return potential.values(system, np.arange(1, q + 1))


def birkhoff_sum(system: BranchSystem, potential: Potential, word: Sequence[int]) -> float:
    """Sum of the potential along the periodic orbit coded by ``word``.

    Exact for locally constant potentials (cyclic windows of symbols); for
    log|T'| on analytic systems the periodic orbit is computed and the
    log-derivative evaluated at each point.  This per-word path is kept
    apart from ``Potential.birkhoff_sums`` as its reference.
    """
    w = check_word(system, word)
    n = len(w)
    if potential == log_deriv_potential() and not is_linear(system):
        zs = periodic_points(system, w)
        total = 0.0
        for s, z in zip(w, zs):
            total += branch(system, s).log_deriv(z)
        return total
    m = potential.level
    if n < m:
        raise UnderdeterminedWordError(f"word of length {n} cannot carry a level-{m} potential")
    total = 0.0
    for j in range(n):
        total += potential.value(system, tuple(w[(j + k) % n] for k in range(m)))
    return total


# ---------------------------------------------------------------------------
# model serialization


def _read_json_source(source) -> dict:
    """A parsed dict as is, JSON text starting with '{', or a JSON file path."""
    if isinstance(source, dict):
        return source
    import json  # here alone, so that importing the package does not load it
    text = str(source)
    if text.lstrip().startswith("{"):
        return json.loads(text)
    with open(text, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_model(source) -> BranchSystem:
    """Build a system from a JSON file path, JSON text, or a parsed dict."""
    data = _read_json_source(source)
    kind = data.get("kind")
    if kind == "gauss":
        return gauss_system()
    if kind == "flat_example":
        return flat_example_system(K=float(data.get("K", 0.55)),
                                   C=float(data.get("C", 0.6)),
                                   s_inf=float(data.get("s_inf", 0.5)))
    if kind == "linear":
        head = data.get("head")
        if not head:
            raise ModelError("linear model requires a nonempty head")
        return linear_system([float(d) for d in head], xi=data.get("xi"))
    if kind == "custom":
        head = [float(d) for d in data.get("head", [])]
        tail = data.get("tail")
        if tail is None:
            if not head:
                raise ModelError("custom model requires a head or a tail")
            return linear_system(head, xi=data.get("xi"))
        return powerlog_system(head, c=float(tail["c"]), a=float(tail["a"]),
                               b=float(tail.get("b", 1.0)), d=float(tail.get("d", 0.0)),
                               xi=data.get("xi"))
    raise ModelError(f"unknown model kind {kind!r}")


def dump_model(system: BranchSystem) -> dict:
    """JSON-serializable description; inverse of load_model.

    Built-in names stand only for systems equal to the built-in ones, so a
    truncation or restriction never loads back as the full model.  Other
    systems must be all-linear with offset 0, or ModelError is raised.
    """
    if system == gauss_system():
        return {"kind": "gauss"}
    fp = system.flat
    if fp is not None and system == flat_example_system(fp.K, fp.C, fp.s_inf):
        t = system.tail
        return {"kind": "flat_example", "K": fp.K, "C": fp.C, "s_inf": fp.s_inf,
                "head": [branch_diameter(system, 1)],
                "tail": {"c": t.c, "a": t.a, "b": t.b, "d": t.d}, "xi": system.xi}
    if not is_linear(system):
        raise ModelError("only linear and built-in systems serialize to JSON")
    if system.offset != 0:
        raise ModelError("restricted systems (offset != 0) do not serialize to JSON")
    out = {"kind": "custom" if system.tail is not None else "linear",
           "head": [b.diameter for b in system.head]}
    if system.tail is not None:
        t = system.tail
        out["tail"] = {"c": t.c, "a": t.a, "b": t.b, "d": t.d}
    out["xi"] = system.xi
    return out


def load_potential(source) -> Potential:
    data = _read_json_source(source)
    kind = data.get("kind")
    if kind == "indicator":
        return indicator_potential(int(data["index"]))
    if kind == "harmonic":
        return harmonic_potential()
    if kind == "constant":
        return constant_potential(float(data["value"]))
    if kind == "log_deriv":
        return log_deriv_potential()
    if kind == "table":
        values = {tuple(int(s) for s in k.split(",")): float(v)
                  for k, v in data["values"].items()}
        return table_potential(int(data["level"]), values)
    raise ModelError(f"unknown potential kind {kind!r}")


def dump_potential(potential: Potential) -> dict:
    return potential.dump()
