"""Reference answers for the benchmark, computed with the standard library only.

Nothing here imports exactcomb: every answer the benchmark checks is
compared with an independent route (closed forms through math.comb,
math.factorial and Fraction, or a different recursion), never with a
second call into the library under test.  Results are memoised because
the same arguments recur often in the session workloads; oracles run
after the timed region ends, so their cost never enters a measurement.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, perm


def multiset(n: int, k: int) -> int:
    if n == 0:
        return 1 if k == 0 else 0
    return comb(n + k - 1, k)


@lru_cache(maxsize=4096)
def gentile(p: int, n: int, k: int) -> int:
    """Inclusion-exclusion over the boxes forced above the bound p."""
    if n == 0:
        return 1 if k == 0 else 0
    total = 0
    for j in range(n + 1):
        rest = k - j * (p + 1)
        if rest < 0:
            break
        term = comb(n, j) * comb(rest + n - 1, n - 1)
        total += -term if j % 2 else term
    return total


_BELL_ROW = [1]
_BELLS = [1]


def bell(n: int) -> int:
    """Bell triangle: each row starts with the last entry of the previous
    row, and each entry adds its left and upper-left neighbours."""
    global _BELL_ROW
    while len(_BELLS) <= n:
        row = [_BELL_ROW[-1]]
        for v in _BELL_ROW:
            row.append(row[-1] + v)
        _BELL_ROW = row
        _BELLS.append(row[0])
    return _BELLS[n]


@lru_cache(maxsize=65536)
def stirling2(n: int, k: int) -> int:
    """Explicit alternating sum S(n,k) = sum_j (-1)^(k-j) C(k,j) j^n / k!."""
    if k > n:
        return 0
    if n == 0:
        return 1
    total = sum((-1) ** (k - j) * comb(k, j) * j**n for j in range(k + 1))
    return total // factorial(k)


@lru_cache(maxsize=64)
def _rising_poly(n: int) -> tuple[int, ...]:
    # coefficients of x (x+1) ... (x+n-1), low degree first
    poly = [1]
    for i in range(n):
        nxt = [0] * (len(poly) + 1)
        for d, c in enumerate(poly):
            nxt[d + 1] += c
            nxt[d] += i * c
        poly = nxt
    return tuple(poly)


def cycles(n: int, k: int) -> int:
    """Unsigned Stirling numbers of the first kind, read off the
    rising-factorial polynomial."""
    poly = _rising_poly(n)
    return poly[k] if k < len(poly) else 0


def stirling1_signed(n: int, k: int) -> int:
    value = cycles(n, k)
    return -value if (n - k) % 2 else value


_SUBFACTORIALS = [1]


def derangement(n: int) -> int:
    """Subfactorial recursion D(n) = n D(n-1) + (-1)^n."""
    while len(_SUBFACTORIALS) <= n:
        m = len(_SUBFACTORIALS)
        _SUBFACTORIALS.append(m * _SUBFACTORIALS[-1] + (-1) ** m)
    return _SUBFACTORIALS[n]


def derangement_fixed(n: int, k: int) -> int:
    return comb(n, k) * derangement(n - k) if k <= n else 0


@lru_cache(maxsize=4096)
def surjections(k: int, n: int) -> int:
    """n! S(k, n), with S from the explicit alternating sum."""
    return factorial(n) * stirling2(k, n)


def touchard(n: int) -> int:
    """Closed form U_n = sum_k (-1)^k 2n/(2n-k) C(2n-k, k) (n-k)!."""
    total = 0
    for k in range(n + 1):
        term = 2 * n * comb(2 * n - k, k) // (2 * n - k) * factorial(n - k)
        total += -term if k % 2 else term
    return total


def menage(n: int) -> int:
    return 2 * factorial(n) * touchard(n)


def gergonne(n: int, k: int, m: int, circular: bool) -> tuple[int, Fraction]:
    if circular:
        count = int(Fraction(n, n - k) * comb(n - k, k)) if k < n else 0
    else:
        top = n - m * k + m
        count = comb(top, k) if top >= 0 else 0
    total = comb(n, k)
    return count, Fraction(count, total) if total else Fraction(0)


def alternating_convolution(n: int, m: int, k: int) -> int:
    """[t^k] (1-t)^n / (1-t)^m in closed form."""
    if n > m:
        return (-1) ** k * comb(n - m, k)
    if n == m:
        return 1 if k == 0 else 0
    return multiset(m - n, k)


def graph(kind: str, n: int, k: int | None) -> int:
    slots = {
        "graph": comb(n, 2),
        "multigraph": comb(n, 2),
        "digraph": n * n,
        "multidigraph": n * n,
        "loopless_digraph": n * (n - 1),
        "loopless_multidigraph": n * (n - 1),
    }[kind]
    if "multi" in kind:
        return multiset(slots, k)
    return 2**slots if k is None else comb(slots, k)


def multinomial(n: int, parts: list[int]) -> int:
    if sum(parts) != n:
        return 0
    out = factorial(n)
    for h in parts:
        out //= factorial(h)
    return out


def faa(n: int, nu: list[int]) -> int:
    den = 1
    for i, v in enumerate(nu, start=1):
        den *= factorial(i) ** v * factorial(v)
    return factorial(n) // den


def cauchy(n: int, nu: list[int]) -> int:
    den = 1
    for i, v in enumerate(nu, start=1):
        den *= i**v * factorial(v)
    return factorial(n) // den


def birthday(k: int, days: int) -> Fraction:
    return 1 - Fraction(perm(days, k), days**k)


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def phi(n: int) -> int:
    out = n
    for p in factorize(n):
        out = out // p * (p - 1)
    return out


def mobius_classical(n: int) -> int:
    f = factorize(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def exp_power(order: int, power: int) -> list[Fraction]:
    """exp(t)^power = exp(power t): coefficients power^k / k!."""
    return [Fraction(power**k, factorial(k)) for k in range(order + 1)]


def exp_times_geometric(order: int) -> list[Fraction]:
    """exp(t) / (1 - t): partial sums of 1/i!."""
    out, acc = [], Fraction(0)
    for k in range(order + 1):
        acc += Fraction(1, factorial(k))
        out.append(acc)
    return out


@lru_cache(maxsize=None)
def fubini(n: int) -> int:
    """Ordered Bell numbers by a(n) = sum_{i>=1} C(n,i) a(n-i)."""
    if n == 0:
        return 1
    return sum(comb(n, i) * fubini(n - i) for i in range(1, n + 1))


def geometric_of_exp(order: int) -> list[Fraction]:
    """1 / (2 - e^t), i.e. the geometric series composed with e^t - 1."""
    return [Fraction(fubini(k), factorial(k)) for k in range(order + 1)]


def exp_of_geometric(order: int) -> list[Fraction]:
    """exp(t / (1 - t)): k! [t^k] = sum_j C(k-1, j-1) k! / j! (Lah sums)."""
    out = [Fraction(1)]
    for k in range(1, order + 1):
        lah = sum(comb(k - 1, j - 1) * factorial(k) // factorial(j) for j in range(1, k + 1))
        out.append(Fraction(lah, factorial(k)))
    return out


def sylvester(universe: int, sets: list[list[int]]) -> tuple[list[int], list[int]]:
    """Sylvester numbers S_k = sum_x C(c(x), k) and the exactly-m counts,
    both from the number c(x) of sets holding each point x."""
    hold = [0] * universe
    for s in sets:
        for x in s:
            hold[x] += 1
    n = len(sets)
    exactly = [0] * (n + 1)
    for c in hold:
        exactly[c] += 1
    numbers = [sum(comb(c, k) * e for c, e in enumerate(exactly)) for k in range(n + 1)]
    return numbers, exactly
