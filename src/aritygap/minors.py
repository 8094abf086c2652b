"""Simple variable substitutions: sigma-minors, identification minors and the diagonal."""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .core import FiniteFunction, _check_shape, _values


@dataclass(frozen=True)
class MinorMap:
    """A substitution sigma: {1..m} -> {1..n} feeding target slot sigma(i) to source slot i."""

    m: int
    n: int
    sigma: tuple[int, ...]

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("arities must be >= 1")
        if not isinstance(self.sigma, tuple):
            object.__setattr__(self, "sigma", tuple(self.sigma))
        if len(self.sigma) != self.m:
            raise ValueError(f"sigma must have {self.m} entries, got {len(self.sigma)}")
        for s in self.sigma:
            if not 1 <= s <= self.n:
                raise ValueError(f"sigma entry {s} not in 1..{self.n}")


def _sigma_gather(k: int, m: int, n: int, sigma: tuple[int, ...]) -> itemgetter:
    # The gather of the minor's table from g's: target index t reads the
    # source index of (t_sigma(1), ..., t_sigma(m)).
    # Source slot l reads target slot sigma(l), so the source index of t is
    # sum_s t_s * w_s with w_s = sum of k^(m-l) over the l with sigma(l) = s;
    # expanding the target slots in order keeps the list in table-index order.
    weights = [0] * n
    for l, s in enumerate(sigma, start=1):
        weights[s - 1] += k ** (m - l)
    out = [0]
    for w in weights:
        out = [x + a * w for x in out for a in range(k)]
    return itemgetter(*out)


def _substitute(g: FiniteFunction, n: int, sigma: tuple[int, ...]) -> FiniteFunction:
    # The arity-n minor of g under an already valid sigma (g.n entries in 1..n).
    # A minor no wider than g fits the table limit because g does.
    if n > g.n:
        _check_shape(g.k, n, g.b)
    return FiniteFunction._valid(g.k, n, g.b, _sigma_gather(g.k, g.n, n, sigma)(_values(g)))


def simple_minor(g: FiniteFunction, sigma: MinorMap) -> FiniteFunction:
    """The minor of g under sigma: result(t) = g(t_sigma(1), ..., t_sigma(m))."""
    if sigma.m != g.n:
        raise ValueError(f"sigma has source arity {sigma.m}, function has arity {g.n}")
    return _substitute(g, sigma.n, sigma.sigma)


def identification_minor(f: FiniteFunction, i: int, j: int) -> FiniteFunction:
    """Feed slot i from slot j; arity is preserved and slot i becomes inessential."""
    if not (1 <= i <= f.n and 1 <= j <= f.n):
        raise ValueError(f"slots ({i}, {j}) not in 1..{f.n}")
    if i == j:
        raise ValueError("identification needs two distinct slots")
    return _substitute(f, f.n, tuple(j if s == i else s for s in range(1, f.n + 1)))


def diagonal(f: FiniteFunction) -> FiniteFunction:
    """The unary function a -> f(a, ..., a)."""
    step = (f.k**f.n - 1) // (f.k - 1)  # index of (a,...,a) is a * step
    return FiniteFunction._valid(f.k, 1, f.b, tuple(_values(f)[::step]))
