"""Level 3 of the continued-fraction family, summed in rows.

With no potential, a level-3 word adds mu^(-2t), where mu = T/2 + sqrt(T^2/4
+ 1) and T is the continuant trace of its physical digits
(``LogDerivPotential.birkhoff_sums``).  T depends on the digit multiset
alone and is linear in its largest digit b: the multiset {a, m, b} with
a <= m < b has T = (a m + 1) b + a + m.  So past the digit H =
``thermo._ROWS_FROM`` the multisets {a, m, b} with a fixed (a, m) form a
row, a sum over b of a smooth function, and Euler-Maclaurin closes it in a
few terms.  ``thermo._level_log_partition`` imports this module on the
first level 3 it sums this way.
"""

from __future__ import annotations

import functools
import math
import numpy as np

from .systems import _ZETA_A
from .thermo import _LOG_DERIV, _ROWS_FROM, _TILE, _level_sums, _tiles, _with_minima

_EM_ORDER = 4  # orders kept in a row's corrections; the next bounds the rest
_EM_TOL = 2.0 ** -56  # a remainder bound above this share of Z_3 fails
_EM_B = tuple(1.0 / a for a in _ZETA_A)  # B_2k / (2k)!, k = 1, 2, ...


@functools.lru_cache(maxsize=4)
def _row_data(system, q):
    """(top, rows, rho_max, w_max): the t-independent data of level 3 of the
    digits 1..q (q >= H) past digit H, on a Moebius system.

    ``top`` is L of the multisets {b, b, b} and {a, b, b}, a < b, b >= H, a
    ``_LevelArray`` of multiplicities 1 and 3.  ``rows`` holds one column
    per row of multisets {a, m, b}, a <= m, b from A = max(m + 1, H) to B =
    q, over the physical digits (offset added): the q - 1 columns of the
    rows {v, v, b}, multiplicity 3, come first, and those of the rows
    a < m, multiplicity 6, follow.  With alpha = a m + 1, T_X the trace and
    mu_X its eigenvalue at the end X, rho_X = alpha / T_X, its entries are
    log mu_A, log mu_B, D = log(mu_B / mu_A), mu_A / alpha, mu_A^-2,
    rho_A^2, rho_B^2 and w = 1 / alpha^2.  ``rho_max`` and ``w_max`` are
    the largest rho_A and w.

    D is formed without cancellation: mu_B - mu_A = (y_B - y_A)(1 + (y_A +
    y_B) / (h_A + h_B)), with y = T / 2, h = sqrt(y^2 + 1) and y_B - y_A =
    alpha (B - A) / 2, and D = log1p((mu_B - mu_A) / mu_A)."""
    H, off = _ROWS_FROM, float(system.offset)
    b = np.arange(H, q + 1)
    a = np.arange(b.sum() - len(b)) - np.repeat(np.cumsum(b - 1) - (b - 1), b - 1) + 1
    ab = np.repeat(b, b - 1)
    top = np.concatenate([_LOG_DERIV.birkhoff_sums(system, [b, b, b]),
                          _LOG_DERIV.birkhoff_sums(system, [a, ab, ab])])
    top = _with_minima(top, ((1, 0, len(b)), (3, len(b), len(top))))

    v, counts = np.arange(1, q), np.arange(1, q - 1)
    m = np.concatenate([v, np.repeat(np.arange(2, q), counts)])  # rows a <= m
    a = np.arange(len(m) - len(v)) - np.repeat(np.cumsum(counts) - counts, counts) + 1
    a = np.concatenate([v, a]) + off
    A = np.maximum(m + 1, H)
    alpha = m + off
    alpha *= a
    alpha += 1.0
    beta = a + m
    beta += off
    del a, m
    # the rows' own entries hold y_A, y_B, h_A, h_B and mu_B on the way
    rows = np.empty((8, len(A)))
    lm_A, lm_B, D, c_A, i_A, r_A, r_B, w = rows
    for y, end in ((r_A, A + off), (r_B, q + off)):
        np.multiply(alpha, end, out=y)
        y += beta
        y *= 0.5
    del beta
    np.hypot(r_A, 1.0, out=i_A)
    np.hypot(r_B, 1.0, out=w)
    np.add(r_A, i_A, out=c_A)  # mu_A, divided by alpha at the end
    np.add(r_B, w, out=lm_B)
    np.add(i_A, w, out=lm_A)
    np.add(r_A, r_B, out=D)
    D /= lm_A
    D += 1.0
    D /= c_A
    D *= alpha
    D *= q - A
    D *= 0.5
    np.log1p(D, out=D)
    np.log(c_A, out=lm_A)
    np.log(lm_B, out=lm_B)
    np.multiply(c_A, c_A, out=i_A)
    np.divide(1.0, i_A, out=i_A)
    c_A /= alpha
    for r in (r_A, r_B):
        np.divide(alpha, r, out=r)
        r *= 0.5
    rho_max = float(r_A.max())
    r_A *= r_A
    r_B *= r_B
    np.multiply(alpha, alpha, out=w)
    np.divide(1.0, w, out=w)
    return top, rows, rho_max, float(w.max())


def _em_polynomials(s, order):
    """Coefficients of the row corrections at exponent s = 2t, order 1 to
    ``order``.

    A row's summand is f(b) = mu^-s with T = alpha b + beta.  With u = 1 /
    T^2, mu^-s = T^-s C(-u)^s, C the Catalan generating function, whose
    powers expand as C(x)^s = sum_j s / (s + 2j) binom(s + 2j, j) x^j.  So
    f^(k)(b) = (-alpha / T)^k f R_k(u), where R_k = sum_j c_j (s + 2j)_k u^j
    / sum_j c_j u^j, with c_j the coefficients of C(-u)^s and (x)_k the
    rising factorial.  The Euler-Maclaurin term of B_2k / (2k)! then
    contributes f rho^(2k-1) R_(2k-1)(u) at each end, rho = alpha / T, and
    with u = rho^2 w, w = 1 / alpha^2, its u^j part has order n = k + j:
    rho (rho^2)^(n-1) w^j.  Returns, for n = 1..order, the coefficients of
    G_n(w) = sum_(k + j = n) B_2k / (2k)! [R_(2k-1)]_j w^j in ascending
    powers of w.
    """
    c = [1.0]
    for j in range(1, order):
        c.append(-c[-1] * (s + 2 * j - 1) * (s + 2 * j - 2) / ((s + j) * j))
    polys = [[] for _ in range(order)]
    for k in range(1, order + 1):
        num = []  # sum_j c_j (s + 2j)_(2k-1) u^j
        for j in range(order - k + 1):
            rising = 1.0
            for i in range(2 * k - 1):
                rising *= s + 2 * j + i
            num.append(c[j] * rising)
        R = []  # the series quotient num / sum_j c_j u^j
        for j, x in enumerate(num):
            R.append(x - math.fsum(c[i] * R[j - i] for i in range(1, j + 1)))
        for j, x in enumerate(R):
            polys[k + j - 1].insert(0, _EM_B[k - 1] * x)  # k ascends, so j descends
    return polys


def log_partition(system, q, t, workers):
    """log Z_3(t) of the digits 1..q, for t > 0 and q >= H, or None where
    the remainder bound fails: the sum of three parts, the level's
    multiset array below H (``_level_sums``, cached), and the top
    multisets and the Euler-Maclaurin rows of ``_row_data``.

    A row sums f(b) = mu^(-2t) over b = A..B:

        sum f = integral + (f(A) + f(B)) / 2
                + sum_k B_2k / (2k)! (f^(2k-1)(B) - f^(2k-1)(A)) + remainder.

    The integral is closed: T = mu - 1/mu, so dT = (1 + mu^-2) d mu and
    alpha times the integral is [mu^(1-2t) / (1-2t) - mu^(-1-2t) / (1+2t)]
    between the ends, that is mu_A^(1-2t) (E(1-2t) + mu_A^-2 E'(1+2t)) with
    E(x) = expm1(x D) / x (D at x = 0) and E'(x) = -expm1(-x D) / x, two
    positive terms.  The corrections keep the orders n <= ``_EM_ORDER`` of
    ``_em_polynomials`` at both ends, in Horner form in rho^2.  For t > 0 a
    row's summand is completely monotone, so the first omitted term bounds
    the remainder: the order n + 1 adds at most rho_max^(2n+1)
    G+_(n+1)(w_max) f(A) to a row, G+ with its coefficients' absolute
    values.  Twice its sum over the rows, each counted 6 times, must stay
    within ``_EM_TOL`` of Z_3.

    Every term is scaled by the level's largest exponent c = -t L of the
    multiset {1, 1, 1}; the arrays stream a ``_TILE`` at a time and the rows
    through ``_TILE``-column tiles, in scratch made once a pass, and the
    tiles' sums are added exactly rounded (``math.fsum``).  log Z_3 is then
    c + log S, with log S in two parts, l = log S and S e^-l - 1, so that
    the rounding of l, up to eps |c| where c and l cancel, is not kept.
    """
    top, rows, rho_max, w_max = _row_data(system, q)
    head = _level_sums(system, _LOG_DERIV, _ROWS_FROM - 1, 3, True, workers)
    s = 2.0 * t
    c = min(head.minima) * -t
    polys = _em_polynomials(s, _EM_ORDER + 1)
    if not all(map(math.isfinite, (cf for poly in polys for cf in poly))):
        return None
    last = polys.pop()
    n_rows = rows.shape[1]
    width = min(n_rows, _TILE)
    scratch = np.empty(max(6 * width, _TILE))
    parts, f_A_sums = {1: [], 3: [], 6: []}, []
    for L in (head, top):
        for mult, tiles in _tiles(L):
            for sl in tiles:
                e = np.multiply(L[sl], -t, out=scratch[:sl.stop - sl.start])
                e -= c
                parts[mult].append(float(np.exp(e, out=e).sum()))
    for i in range(0, n_rows, _TILE):
        k = min(i + _TILE, n_rows) - i
        lm_A, lm_B, D, c_A, i_A, r_A, r_B, w = rows[:, i:i + k]
        f_A, f_B, x, y, acc_A, acc_B = (scratch[j * width:j * width + k] for j in range(6))
        for f, lm in ((f_A, lm_A), (f_B, lm_B)):
            np.multiply(lm, -s, out=f)
            f -= c
            np.exp(f, out=f)
        # the integral, (mu_A / alpha) f(A) (E(1 - 2t) + mu_A^-2 E'(1 + 2t))
        if s == 1.0:
            x[...] = D
        else:
            np.multiply(D, 1.0 - s, out=x)
            np.expm1(x, out=x)
            x *= 1.0 / (1.0 - s)
        np.multiply(D, -1.0 - s, out=y)
        np.expm1(y, out=y)
        y *= -1.0 / (1.0 + s)
        y *= i_A
        x += y
        x *= c_A
        x *= f_A
        # the corrections: G_n(w) in Horner form, then each end in rho^2
        for n in range(len(polys) - 1, -1, -1):
            coeffs = polys[n]
            G = coeffs[0]
            if len(coeffs) > 1:
                G = np.multiply(w, coeffs[-1], out=y)
                G += coeffs[-2]
                for cf in coeffs[-3::-1]:
                    G *= w
                    G += cf
            for acc, r in ((acc_A, r_A), (acc_B, r_B)):
                if n == len(polys) - 1:
                    acc[...] = G
                else:
                    acc *= r
                    acc += G
        for acc, r, f in ((acc_A, r_A, f_A), (acc_B, r_B, f_B)):
            acc *= np.sqrt(r, out=y)
            acc *= f
        x += acc_A
        x -= acc_B
        f_A_sums.append(float(f_A.sum()))
        f_A += f_B
        f_A *= 0.5
        x += f_A
        split = min(max(q - 1 - i, 0), k)  # the rows {v, v, b} first
        parts[3].append(float(x[:split].sum()))
        parts[6].append(float(x[split:].sum()))
    S = math.fsum(mult * math.fsum(sums) for mult, sums in parts.items())
    bound = 12.0 * math.fsum(f_A_sums) * rho_max ** (2 * _EM_ORDER + 1) * math.fsum(
        abs(cf) * w_max ** j for j, cf in enumerate(last))
    if not bound <= _EM_TOL * S:
        return None
    l = math.log(S)
    return (c + l) + (S * math.exp(-l) - 1.0)
