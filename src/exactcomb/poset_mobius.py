"""Finite posets, their Mobius functions, inversion, and sieve counting.

A `FinitePoset` is an explicit element list plus an order relation that
is validated eagerly (reflexive closure is applied for convenience, but
antisymmetry and transitivity violations are reported with a witness).
The order is stored as int bitsets over element indices: one up-mask and
one down-mask per element, so an interval [x, y] is one AND and the
order-reversed poset swaps the two lists.  `up`, `down` and `interval`
build frozensets from the masks when asked.

One builder, `_labelled_product`, makes every product: each pair of
factor elements gets a label, and the sorted labels are the elements.
`product_poset(P, Q)` labels (a, b) by itself, in pair order;
`boolean_lattice(n)` is the product of the lattices on the first
ceil(n/2) atoms and on the rest, so of n 2-chains, labelled by unions;
`divisor_poset(n)` is the product of the divisor lattices of two coprime
parts of n, so of chains of prime powers, labelled by products.  The
masks come from the factors' cover relations, with no pair list: the
up-mask of (a, b) is its own bit OR'd with the up-masks of the pairs one
cover step above it.  A product remembers its factors and the index of
each pair of factor indices among its elements.  JSON is imported only
by the functions that read or write it.

The Mobius function is computed once per poset and kept on it (posets
are immutable; a race between threads can only compute it twice).  It
is stored by rows: for each x, the indices of the y >= x and the values
mu(x, y).  Columns (the x <= y and mu(x, y)) are kept the same way once
asked for.  There are three routes:

* a product: each row (column) is the outer product of the factors'
  rows (columns), as mu((a, b), (a', b')) = mu_P(a, a') mu_Q(b, b')
  (Rota 1964; Stanley, EC1, Prop. 3.8.2);
* an order-reversed poset: its rows are the columns of the original and
  its columns the rows, as mu_{P^op}(x, y) = mu_P(y, x);
* any other poset: the interval recursion along a linear extension.  For
  a fixed x, the values mu(x, y) found so far are kept as bit planes: for
  each binary digit k of |mu|, one mask of the y with that digit set and
  mu(x, y) > 0 and one for mu(x, y) < 0.  The sum over an interval I is
  then sum_k 2^k (popcount(I & pos_k) - popcount(I & neg_k)).  Columns
  are the transposed rows.

`_mobius_bitplane` runs the recursion on any poset, products included:
it is the reference the tests and `verify` check the product route
against, as `_mobius_reference`, the plain recursion over frozensets, is
for the bit planes.  `delta_check` runs the bit-plane kernel down the
columns.  `IncidenceFunction.table` is a read-only mapping view of the
rows.

Inversion and accumulation write the values as integer numerators over
their least common denominator, sum integers along the stored columns
(or the down-masks), and build one `Fraction` per output; integer values
give integer results.  `_invert_reference` keeps the `Fraction` sum.
Dual inversion is inversion on the reversed order, so there is a single
proof obligation.

Sieve counting (Sylvester's alternating sum and Jordan's exactly-m
formula) lives here too, over explicit subset families.  A family keeps
each set as an int bitset over the universe, so an intersection is one
AND and its size a popcount; no set is built while counting.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from operator import mul
from typing import Callable, Hashable, Iterable, Optional, Sequence, Union

from .counting import binomial
from .exact_core import Record, agree, guard, integer_form
from .number_theory import factorize

Element = Hashable
Rational = Union[int, Fraction]
# one row (or column) of an incidence function: element indices and values
Row = tuple[list[int], list[int]]

# Poset plus Mobius table, peak RSS of a fresh process (about 17 MB at
# start), CPython 3.11 on one x86-64 core: boolean_lattice(12) 0.12 s and
# 32 MB, (13) 0.32 s and 64 MB, (14) 0.66 s and 163 MB, the masks and the
# table each about 3x per atom; 13 is the last within 100 MB.
MAX_BOOLEAN_GROUND = 13
# divisor_poset(963761198400), whose 6720 divisors are the most of any n
# that factorize accepts (n <= 10**12), takes 0.04 s to build and 0.29 s
# with its Mobius table, at a 57 MB peak; the cap admits exactly that range.
MAX_DIVISOR_COUNT = 6720


class PosetError(ValueError):
    """The given relation is not a partial order; carries a witness."""

    def __init__(self, message: str, witness: tuple):
        super().__init__(message)
        self.witness = witness


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of `mask`, lowest first."""
    digits = bin(mask)[:1:-1]  # the binary digits, least significant first
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


class FinitePoset:
    """Explicit finite poset: elements plus a reflexive, antisymmetric,
    transitive relation (checked at construction)."""

    # a product's factors, and a * len(Q) + b -> the index of (a, b)
    _factors: Optional[tuple[FinitePoset, FinitePoset]] = None
    _pair_index: Optional[list[int]] = None
    # the poset this one is the order-reversal of
    _dual_of: Optional[FinitePoset] = None
    # filled on first use: upper covers, Mobius rows and columns
    _covers: Optional[list[list[int]]] = None
    _mobius_rows: Optional[list[Row]] = None
    _mobius_columns: Optional[list[Row]] = None

    def __init__(self, elements: Sequence[Element],
                 relation: Iterable[tuple[Element, Element]]):
        self.elements: tuple[Element, ...] = tuple(elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise ValueError("duplicate elements")
        # bit j of _up[i] (and bit i of _down[j]) says elements[i] <= elements[j]
        self._up = [1 << i for i in range(len(self.elements))]
        self._down = self._up.copy()
        for x, y in relation:
            if x not in self._index or y not in self._index:
                raise ValueError(f"relation pair ({x!r}, {y!r}) outside element set")
            i, j = self._index[x], self._index[y]
            self._up[i] |= 1 << j
            self._down[j] |= 1 << i
        self._validate()
        self._sort_extension()

    @classmethod
    def _from_masks(cls, elements: tuple, index: dict, up: list[int],
                    down: list[int]) -> "FinitePoset":
        """A poset over already-closed masks, with no validation."""
        P = cls.__new__(cls)
        P.elements, P._index, P._up, P._down = elements, index, up, down
        P._sort_extension()
        return P

    def _sort_extension(self):
        # any order sorted by down-set size is a linear extension,
        # since x < y forces down(x) to be strictly inside down(y);
        # the sort is stable, so ties stay in index order
        sizes = [mask.bit_count() for mask in self._down]
        order = sorted(range(len(self.elements)), key=sizes.__getitem__)
        self._order = order
        self._extension = tuple(self.elements[i] for i in order)
        self._rank = [0] * len(order)
        for position, i in enumerate(order):
            self._rank[i] = position

    def _validate(self):
        up, name = self._up, self.elements
        for i, x in enumerate(name):
            for j in _bits(up[i]):
                y = name[j]
                if j != i and up[j] >> i & 1:
                    raise PosetError(
                        f"antisymmetry violated: {x!r} <= {y!r} and {y!r} <= {x!r}",
                        (x, y),
                    )
                missing = up[j] & ~up[i]
                if missing:
                    z = name[(missing & -missing).bit_length() - 1]
                    raise PosetError(
                        f"transitivity violated: {x!r} <= {y!r} <= {z!r} "
                        f"but not {x!r} <= {z!r}",
                        (x, y, z),
                    )

    def _members(self, mask: int) -> list[Element]:
        return [self.elements[i] for i in _bits(mask)]

    def _upper_covers(self) -> list[list[int]]:
        """For each element, the indices of the elements covering it."""
        if self._covers is None:
            covers = []
            for i, mask in enumerate(self._up):
                above = mask ^ 1 << i
                covers.append([j for j in _bits(above) if self._down[j] & above == 1 << j])
            self._covers = covers
        return self._covers

    # -- queries -------------------------------------------------------

    def leq(self, x: Element, y: Element) -> bool:
        up = self._up[self._index[x]]
        j = self._index.get(y)
        return j is not None and bool(up >> j & 1)

    def up(self, x: Element) -> frozenset[Element]:
        return frozenset(self._members(self._up[self._index[x]]))

    def down(self, y: Element) -> frozenset[Element]:
        return frozenset(self._members(self._down[self._index[y]]))

    def interval(self, x: Element, y: Element) -> frozenset[Element]:
        mask = self._up[self._index[x]] & self._down[self._index[y]]
        return frozenset(self._members(mask))

    def linear_extension(self) -> tuple[Element, ...]:
        return self._extension

    def reversed(self) -> "FinitePoset":
        """The order-reversed poset; reversing that gives back this one."""
        if self._dual_of is not None:
            return self._dual_of
        R = FinitePoset._from_masks(self.elements, self._index, self._down, self._up)
        R._dual_of = self
        return R

    def __len__(self) -> int:
        return len(self.elements)

    # -- JSON ------------------------------------------------------------

    def to_json(self) -> str:
        import json

        pairs = sorted(
            ((x, y) for i, x in enumerate(self.elements)
             for y in self._members(self._up[i] & ~(1 << i))),
            key=lambda p: (str(p[0]), str(p[1])),
        )
        return json.dumps({"elements": list(self.elements), "leq": pairs})

    @classmethod
    def from_json(cls, text: str) -> "FinitePoset":
        data = _json_object(text, "poset", "elements")
        elements, leq = data["elements"], data.get("leq", [])
        if not isinstance(elements, list) or not all(map(_is_scalar, elements)):
            raise ValueError("elements must be a list of strings or numbers")
        if not isinstance(leq, list) or not all(
            isinstance(pair, list) and len(pair) == 2 and all(map(_is_scalar, pair))
            for pair in leq
        ):
            raise ValueError("leq must be a list of [x, y] pairs of elements")
        P = cls(elements, [tuple(pair) for pair in leq])
        # every output, and the keys of a values file, name an element by its text
        texts = set()
        for text in map(str, P.elements):
            if text in texts:
                raise ValueError(f"two elements have the text {text!r}")
            texts.add(text)
        return P


def _json_object(text: str, kind: str, *keys: str) -> dict:
    """The JSON object of a `kind` file; ValueError naming the first of
    `keys` that it lacks."""
    import json

    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    for key in keys:
        if key not in data:
            raise ValueError(f"missing key {key!r} in a {kind} file")
    return data


def _is_scalar(value) -> bool:
    """A JSON string or number, so hashable and usable as an element; not
    a JSON true or false, which Python reads as a bool, a kind of int."""
    return type(value) in (str, int, float)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def _cover_closure(at: list[int], nb: int, covers_a: list[list[int]],
                   covers_b: list[list[int]], order_a: list[int],
                   order_b: list[int]) -> list[int]:
    """The masks of a product, pair by pair: each is the pair's own bit OR'd
    with the masks of the pairs one cover step away in either factor.  The
    orders must visit those neighbours before the pair itself."""
    masks = [0] * len(at)
    for a in order_a:
        row = a * nb
        steps = [c * nb for c in covers_a[a]]
        for b in order_b:
            mask = 1 << at[row + b]
            for step in steps:
                mask |= masks[at[step + b]]
            for c in covers_b[b]:
                mask |= masks[at[row + c]]
            masks[at[row + b]] = mask
    return masks


def _lower_covers(upper: list[list[int]]) -> list[list[int]]:
    """For each element, the indices of the elements it covers."""
    lower: list[list[int]] = [[] for _ in upper]
    for i, above in enumerate(upper):
        for j in above:
            lower[j].append(i)
    return lower


def _labelled_product(P: FinitePoset, Q: FinitePoset, label: Callable,
                      key: Optional[Callable] = None) -> FinitePoset:
    """P x Q ordered componentwise, the pair of P's element a and Q's
    element b standing for label(a, b): the labels, which must be distinct,
    sorted by `key` are the elements."""
    labels = [label(a, b) for a in P.elements for b in Q.elements]
    elements = tuple(sorted(labels, key=key))
    index = {e: i for i, e in enumerate(elements)}
    at = [index[e] for e in labels]  # a * len(Q) + b -> the index of (a, b)
    nb = len(Q)
    above_p, above_q = P._upper_covers(), Q._upper_covers()
    up = _cover_closure(at, nb, above_p, above_q, P._order[::-1], Q._order[::-1])
    down = _cover_closure(at, nb, _lower_covers(above_p), _lower_covers(above_q),
                          P._order, Q._order)
    R = FinitePoset._from_masks(elements, index, up, down)
    R._factors, R._pair_index = (P, Q), at
    return R


def product_poset(P: FinitePoset, Q: FinitePoset) -> FinitePoset:
    """The pairs (a, b) of P x Q, ordered componentwise
    ((a, b) <= (a', b') when a <= a' and b <= b') and listed P-major."""
    return _labelled_product(P, Q, lambda a, b: (a, b),
                             key=lambda pair: (P._index[pair[0]], Q._index[pair[1]]))


# ---------------------------------------------------------------------------
# incidence functions
# ---------------------------------------------------------------------------


class IncidenceFunction:
    """A function on comparable pairs of a poset; incomparable pairs
    evaluate to 0 (as for zeta, delta and the Mobius function).  Values are
    kept by rows, one (indices of the y, values f(x, y)) pair of lists per
    element x; `table` is a read-only view of them as {(x, y): value}."""

    def __init__(self, poset: FinitePoset, table: Mapping[tuple, Rational]):
        rows: list[Row] = [([], []) for _ in poset.elements]
        index = poset._index
        for (x, y), value in table.items():
            cols, vals = rows[index[x]]
            cols.append(index[y])
            vals.append(value)
        self.poset, self._rows, self._maps = poset, rows, [None] * len(rows)

    @classmethod
    def _from_rows(cls, poset: FinitePoset, rows: list[Row]) -> "IncidenceFunction":
        f = cls.__new__(cls)
        f.poset, f._rows, f._maps = poset, rows, [None] * len(rows)
        return f

    def _row_map(self, i: int) -> dict:
        """Row i as {index of y: value}, built on first lookup."""
        found = self._maps[i]
        if found is None:
            found = self._maps[i] = dict(zip(*self._rows[i]))
        return found

    @property
    def table(self) -> "_IncidenceTable":
        return _IncidenceTable(self)

    def __call__(self, x: Element, y: Element) -> Rational:
        index = self.poset._index
        i, j = index.get(x), index.get(y)
        if i is None or j is None:
            return 0
        return self._row_map(i).get(j, 0)

    def items(self):
        return self.table.items()


class _IncidenceTable(Mapping):
    """The values of an incidence function as a read-only mapping
    {(x, y): f(x, y)}: x in element order, and the y of each x in
    linear-extension order, as the recursion for mu visits them."""

    __slots__ = ("_f",)

    def __init__(self, f: IncidenceFunction):
        self._f = f

    def __len__(self) -> int:
        return sum(len(cols) for cols, _ in self._f._rows)

    def __iter__(self):
        elements, rank = self._f.poset.elements, self._f.poset._rank
        for x, (cols, _) in zip(elements, self._f._rows):
            for j in sorted(cols, key=rank.__getitem__):
                yield x, elements[j]

    def __getitem__(self, key) -> Rational:
        index = self._f.poset._index
        if isinstance(key, tuple) and len(key) == 2 and key[0] in index and key[1] in index:
            row = self._f._row_map(index[key[0]])
            j = index[key[1]]
            if j in row:
                return row[j]
        raise KeyError(key)


def _plane_add(planes: list[list[int]], bit: int, value: int) -> None:
    """Record `value` at the index whose mask is `bit`: set that bit in the
    positive (or negative) plane of each binary digit of |value|."""
    side, size = (0, value) if value > 0 else (1, -value)
    for k in range(size.bit_length()):
        if k == len(planes):
            planes.append([0, 0])
        if size >> k & 1:
            planes[k][side] |= bit


def _plane_sum(mask: int, planes: list[list[int]]) -> int:
    """The sum of the recorded values over the indices in `mask`."""
    total = 0
    for k, (pos, neg) in enumerate(planes):
        total += ((mask & pos).bit_count() - (mask & neg).bit_count()) << k
    return total


def _plane_rows(P: FinitePoset) -> list[Row]:
    """The Mobius rows by the interval recursion along a linear extension,
    with the row of values for x kept as bit planes."""
    up, down, rank = P._up, P._down, P._rank
    rows = []
    for i, mask in enumerate(up):
        cols, vals = [i], [1]
        planes = [[1 << i, 0]]
        for j in sorted(_bits(mask ^ 1 << i), key=rank.__getitem__):
            # the planes hold only elements above x, and none is y yet,
            # so the AND with down(y) alone picks out [x, y)
            value = -_plane_sum(down[j], planes)
            if value == 1:  # the common case in lattices, done inline
                planes[0][0] |= 1 << j
            elif value == -1:
                planes[0][1] |= 1 << j
            elif value:
                _plane_add(planes, 1 << j, value)
            cols.append(j)
            vals.append(value)
        rows.append((cols, vals))
    return rows


def _transpose(rows: list[Row]) -> list[Row]:
    """The columns of a table given by its rows."""
    columns: list[Row] = [([], []) for _ in rows]
    for i, (cols, vals) in enumerate(rows):
        for j, value in zip(cols, vals):
            xs, column = columns[j]
            xs.append(i)
            column.append(value)
    return columns


def _outer(P: FinitePoset, columns: bool) -> list[Row]:
    """The rows (or columns) of a product's Mobius table: the outer
    products of its factors' rows (columns)."""
    (A, B), at = P._factors, P._pair_index
    nb, rows_b = len(B), _table(B, columns)
    out: list[Row] = [([], [])] * len(at)
    for a, (cols_a, vals_a) in enumerate(_table(A, columns)):
        steps = [c * nb for c in cols_a]
        row = a * nb
        for b, (cols_b, vals_b) in enumerate(rows_b):
            out[at[row + b]] = ([at[s + c] for s in steps for c in cols_b],
                                [v * w for v in vals_a for w in vals_b])
    return out


def _table(P: FinitePoset, columns: bool = False) -> list[Row]:
    """P's Mobius rows (or columns), computed on first use by the route that
    fits P and kept on it whole, so a racing thread sees none or all."""
    table = P._mobius_columns if columns else P._mobius_rows
    if table is None:
        if P._factors:
            table = _outer(P, columns)
        elif P._dual_of is not None:
            table = _table(P._dual_of, not columns)
        elif columns:
            table = _transpose(_table(P))
        else:
            table = _plane_rows(P)
        if columns:
            P._mobius_columns = table
        else:
            P._mobius_rows = table
    return table


def mobius(P: FinitePoset) -> IncidenceFunction:
    """The Mobius function: mu(x,x) = 1 and, below y, the values on
    [x, y) sum to -mu(x,y); computed once per poset, by the product
    theorem on a product and by the bit-plane recursion otherwise."""
    return IncidenceFunction._from_rows(P, _table(P))


def _mobius_bitplane(P: FinitePoset) -> IncidenceFunction:
    """The bit-plane recursion on any poset, products included: the route
    the product theorem is checked against."""
    return IncidenceFunction._from_rows(P, _plane_rows(P))


def _mobius_reference(P: FinitePoset) -> IncidenceFunction:
    """The same recursion as `mobius`, summed over frozenset intervals:
    the reference route that tests and `verify` compare it with."""
    rank = {e: i for i, e in enumerate(P.linear_extension())}
    table: dict[tuple, int] = {}
    for x in P.elements:
        row: dict[Element, int] = {x: 1}
        table[(x, x)] = 1
        for y in sorted(P.up(x) - {x}, key=rank.__getitem__):
            value = -sum(row[z] for z in P.interval(x, y) if z != y)
            row[y] = value
            table[(x, y)] = value
    return IncidenceFunction(P, table)


def zeta(P: FinitePoset) -> IncidenceFunction:
    return IncidenceFunction._from_rows(
        P, [(cols, [1] * len(cols)) for cols in map(_bits, P._up)])


def delta_check(P: FinitePoset) -> bool:
    """Verify sum_{x: z <= x <= y} mu(x, y) = delta(z, y) on all
    comparable pairs (the zeta * mu = delta identity), with the column
    of values below y kept as bit planes."""
    up, down = P._up, P._down
    for j, (xs, vals) in enumerate(_table(P, columns=True)):
        planes = [[0, 0]]
        for i, value in zip(xs, vals):
            if value == 1:  # the common case in lattices, done inline
                planes[0][0] |= 1 << i
            elif value == -1:
                planes[0][1] |= 1 << i
            elif value:
                _plane_add(planes, 1 << i, value)
        for i in xs:
            if _plane_sum(up[i] & down[j], planes) != (1 if i == j else 0):
                return False
    return True


def _numerators(P: FinitePoset, g: Mapping[Element, Rational]) -> tuple[list[int], int, bool]:
    """g's values in element order as integer numerators over the lcm of
    their denominators, and whether every value was an int."""
    values = [g[x] for x in P.elements]
    if not all(isinstance(v, (int, Fraction)) for v in values):
        raise TypeError("values must be ints or Fractions")
    nums, den = integer_form(values)
    return nums, den, all(isinstance(v, int) for v in values)


def _quotients(P: FinitePoset, sums: list[int], den: int, ints: bool) -> dict:
    """{element: sum / den}, as ints when the values were (den is then 1)."""
    if ints:
        return dict(zip(P.elements, sums))
    return {e: Fraction(s, den) for e, s in zip(P.elements, sums)}


def accumulate(P: FinitePoset, f: Mapping[Element, Rational]) -> dict:
    """g(y) = sum_{x <= y} f(x), summed on integer numerators."""
    nums, den, ints = _numerators(P, f)
    sums = [sum(map(nums.__getitem__, _bits(mask))) for mask in P._down]
    return _quotients(P, sums, den, ints)


def invert(P: FinitePoset, g: Mapping[Element, Rational]) -> dict:
    """The unique f with sum_{x <= y} f(x) = g(y), via
    f(y) = sum_{x <= y} mu(x, y) g(x): each Mobius column dotted with the
    integer numerators of g."""
    nums, den, ints = _numerators(P, g)
    sums = [sum(map(mul, vals, map(nums.__getitem__, xs)))
            for xs, vals in _table(P, columns=True)]
    return _quotients(P, sums, den, ints)


def _invert_reference(P: FinitePoset, g: Mapping[Element, Rational]) -> dict:
    """`invert` as a plain `Fraction` sum over each down-set: the reference
    route for the integer kernel."""
    mu = mobius(P)
    return {
        y: sum(mu(x, y) * g[x] for x in P._members(P._down[j]))
        for j, y in enumerate(P.elements)
    }


def accumulate_dual(P: FinitePoset, f: Mapping[Element, Rational]) -> dict:
    """g(y) = sum_{x >= y} f(x)."""
    return accumulate(P.reversed(), f)


def invert_dual(P: FinitePoset, g: Mapping[Element, Rational]) -> dict:
    """The unique f with sum_{x >= y} f(x) = g(y); this is plain
    inversion on the order-reversed poset."""
    return invert(P.reversed(), g)


# ---------------------------------------------------------------------------
# the two concrete lattices
# ---------------------------------------------------------------------------


def _chain(elements: tuple) -> FinitePoset:
    """elements[0] < elements[1] < ... as a poset."""
    n = len(elements)
    full = (1 << n) - 1
    up = [full >> i << i for i in range(n)]
    down = [(2 << i) - 1 for i in range(n)]
    index = {e: i for i, e in enumerate(elements)}
    return FinitePoset._from_masks(elements, index, up, down)


def boolean_lattice(n: int) -> FinitePoset:
    """Subsets of {1..n} ordered by inclusion, smaller subsets first; the
    product of the lattices on the first ceil(n/2) atoms and on the rest."""
    guard(0 <= n <= MAX_BOOLEAN_GROUND, f"boolean lattice capped at n <= {MAX_BOOLEAN_GROUND}")
    return _subset_lattice(tuple(range(1, n + 1)))


def _subset_lattice(atoms: tuple[int, ...]) -> FinitePoset:
    """The subsets of the ascending `atoms` by inclusion, listed by size and
    then lexicographically, halved as in `boolean_lattice`."""
    if len(atoms) < 2:
        return _chain((frozenset(),) + tuple(frozenset([a]) for a in atoms))
    k = (len(atoms) + 1) // 2
    return _labelled_product(_subset_lattice(atoms[:k]), _subset_lattice(atoms[k:]),
                             frozenset.union, key=lambda s: (len(s), sorted(s)))


def divisor_poset(n: int) -> FinitePoset:
    """The divisors of n ordered by divisibility (the interval [1, n])."""
    factors = factorize(n)
    count = 1
    for _, e in factors:
        count *= e + 1
    guard(count <= MAX_DIVISOR_COUNT, "too many divisors")
    return _divisor_lattice(factors, count)


def _divisor_lattice(factors: tuple[tuple[int, int], ...], count: int) -> FinitePoset:
    """The divisors of prod p^e ordered by divisibility: a chain for one prime,
    else the product of the lattices of two coprime parts, split where the
    first part's divisor count reaches sqrt(count) so both stay small."""
    if len(factors) < 2:
        return _chain(tuple(p**i for p, e in factors for i in range(e + 1)) or (1,))
    cut, size = 1, factors[0][1] + 1
    while cut < len(factors) - 1 and size * size < count:
        size *= factors[cut][1] + 1
        cut += 1
    return _labelled_product(_divisor_lattice(factors[:cut], size),
                             _divisor_lattice(factors[cut:], count // size), mul)


# ---------------------------------------------------------------------------
# sieve counting over explicit families
# ---------------------------------------------------------------------------

MAX_FAMILY_SETS = 20
MAX_FAMILY_UNIVERSE = 10**5


def _bitset(members: Iterable[int], size: int) -> int:
    """The int with bit x set for each member x, which must be an int in
    range(size), and not a bool."""
    digits = bytearray(b"0") * size  # digit x, read as binary once reversed
    for x in members:
        if not (type(x) is int and 0 <= x < size):
            raise ValueError("set member outside the universe")
        digits[x] = 49  # ord("1")
    digits.reverse()
    return int(digits, 2) if size else 0


class SubsetFamily(Record):
    """Subsets A_1..A_n of the universe {0 .. universe-1}, kept as int
    bitsets: bit x of masks[i] says x is in A_(i+1).  `sets` gives them
    as frozensets."""

    __slots__ = ("universe", "masks")

    def __init__(self, universe: int, sets: Iterable[Iterable[int]]):
        guard(0 <= universe <= MAX_FAMILY_UNIVERSE, "universe size out of range")
        sets = tuple(sets)
        guard(len(sets) <= MAX_FAMILY_SETS, f"at most {MAX_FAMILY_SETS} sets supported")
        super().__init__(universe, tuple(_bitset(s, universe) for s in sets))

    @property
    def sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(_bits(mask)) for mask in self.masks)

    def to_json(self) -> str:
        import json

        return json.dumps(
            {"universe": self.universe, "sets": [sorted(s) for s in self.sets]}
        )

    @classmethod
    def from_json(cls, text: str) -> "SubsetFamily":
        data = _json_object(text, "subset family", "universe", "sets")
        universe, sets = data["universe"], data["sets"]
        if type(universe) is not int:
            raise ValueError("universe must be an integer")
        if not isinstance(sets, list) or not all(
            isinstance(s, list) and all(type(x) is int for x in s) for s in sets
        ):
            raise ValueError("sets must be a list of lists of integers")
        return cls(universe, sets)


def sylvester_numbers(fam: SubsetFamily) -> list[int]:
    """S_k = sum over k-element index sets of the intersection sizes;
    S_0 is the universe size.  An intersection is an AND of bitsets."""
    masks = fam.masks
    n = len(masks)
    out = [0] * (n + 1)
    out[0] = fam.universe

    def rec(start: int, current: int, depth: int):
        for i in range(start, n):
            nxt = current & masks[i]
            out[depth + 1] += nxt.bit_count()
            if nxt:  # empty intersections only breed empty ones
                rec(i + 1, nxt, depth + 1)

    rec(0, (1 << fam.universe) - 1, 0)
    return out


def sylvester_count(fam: SubsetFamily) -> int:
    """|universe minus the union| by the alternating Sylvester sum: e_0 of
    `sieve_counts`, checked there against a direct membership scan."""
    return sieve_counts(fam)[1][0]


def sieve_counts(fam: SubsetFamily) -> tuple[list[int], list[int]]:
    """The Sylvester numbers S_k and the Jordan counts e_m (universe
    elements lying in exactly m of the sets), from one computation of the
    S_k.  The e_m must sum to the universe size, and e_0, which is term
    for term the alternating Sylvester sum, must agree with a direct
    membership scan."""
    n = len(fam.masks)
    s = sylvester_numbers(fam)
    out = []
    for m in range(n + 1):
        e = 0
        for k in range(m, n + 1):
            term = binomial(k, m) * s[k]
            e += -term if (k - m) % 2 else term
        out.append(e)
    agree("Jordan counts summed against the universe", sum(out), fam.universe)
    union = 0
    for mask in fam.masks:
        union |= mask
    agree("sieve e_0 against a membership scan", out[0], fam.universe - union.bit_count())
    return s, out


def jordan_counts(fam: SubsetFamily) -> list[int]:
    """e_m = number of universe elements lying in exactly m of the sets,
    checked as in `sieve_counts`."""
    return sieve_counts(fam)[1]
