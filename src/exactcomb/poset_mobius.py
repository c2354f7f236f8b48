"""Finite posets, their Mobius functions, inversion, and sieve counting.

A `FinitePoset` is an explicit element list plus an order relation that
is validated eagerly (reflexive closure is applied for convenience, but
antisymmetry and transitivity violations are reported with a witness).
The order is stored as int bitsets over element indices: one up-mask and
one down-mask per element, so an interval [x, y] is one AND.  `up`,
`down` and `interval` build frozensets from the masks when asked.

Every product is a `_Product`, a `FinitePoset` made from its two factors:
each pair of factor elements gets a label, and the labels, sorted unless
they already come in order, are the elements.  `product_poset(P, Q)`
labels (a, b) by itself, already in pair order, so it sorts nothing;
`boolean_lattice(n)` is the product of the lattices on the first
ceil(n/2) atoms and on the rest, so of n 2-chains, labelled by unions;
`divisor_poset(n)` is the product of the divisor lattices of two coprime
parts of n, so of chains of prime powers, labelled by products and
sorted as ints.  A union is sorted by one int key, (size << top) minus
the sum of 1 << (top - x) over its atoms x (top the largest atom), which
orders by size and then lexicographically; a | b has the sum of the keys
of its disjoint parts, each computed once per factor element.

A product builds no mask until a query reads one.  Its linear extension
sorts by down-set sizes, the products of its factors' sizes, and its
covers are its factors' covers, so building it, `mobius`, `invert` and
`invert_dual` read none.  `up`, `down`, `interval`, `delta_check`,
`accumulate`, `accumulate_dual` and the reference routes build both
lists on first use from the factors' cover relations, with no pair list:
the up-mask of (a, b) is its own bit OR'd with the up-masks of the pairs
one cover step above it.  JSON is imported only by the functions that
read it.

Posets are immutable; each derived field is an `exact_core.once`, built
once per poset on first read and kept: `_covers`, `_down_sizes`, `_order`
(a linear extension), `_rank` (each index's place in it), the Mobius
table's `_mobius_rows` (for each x, the indices of the y >= x and the
values mu(x, y)) and `_mobius_columns` (the x <= y and mu(x, y)), and on
a `_Product` `_masks`, which an explicit poset sets at construction.  A
field reads only its poset's and its factors' fields.  Mobius has two routes:

* a `_Product`: each row (column) is the outer product of the factors'
  rows (columns), as mu((a, b), (a', b')) = mu_P(a, a') mu_Q(b, b')
  (Rota 1964; Stanley, EC1, Prop. 3.8.2).  Its indices are joined from
  blocks built once per product, not entry by entry: for each element c
  of P and row b of Q, the indices of the pairs (c, d) for d in that
  row, and the row of (a, b) is one block per entry of P's row a, in the
  order of the entry-by-entry product.  Its values depend only on the
  value sequences of P's row a and Q's row b, so each distinct pair of
  sequences gets one list, shared by every row with that pair (36 lists
  for the 1024 rows of `boolean_lattice(10)`).  No code changes a row
  once it is built;
* an explicit poset: the interval recursion along a linear extension.  For
  a fixed x, the values mu(x, y) found so far are kept as bit planes: for
  each binary digit k of |mu|, one mask of the y with that digit set and
  mu(x, y) > 0 and one for mu(x, y) < 0.  The sum over an interval I is
  then sum_k 2^k (popcount(I & pos_k) - popcount(I & neg_k)).  Columns
  are the transposed rows.

`_mobius_bitplane` runs the recursion on any poset, products included:
it is the reference the tests and `verify` check the product route
against, as `_mobius_reference`, the plain recursion over frozensets, is
for the bit planes.  `delta_check` runs the bit-plane kernel down the
columns.  An `IncidenceFunction` is itself a read-only mapping over the
rows; its `table` is the function.

Inversion and accumulation write the values as integer numerators over
their least common denominator, sum integers along the stored columns
(or the down-masks), and build one `Fraction` per output; integer values
give integer results, and only values that are not all ints load
`fractions`, so `poset mobius` and `poset sieve` never do.
`_invert_reference` keeps the `Fraction` sum.
The dual Mobius function is the transpose, mu_{P^op}(x, y) = mu_P(y, x),
so dual inversion f(y) = sum_{x >= y} mu(y, x) g(x) runs the same kernel
along the stored rows, and dual accumulation along the up-masks.

Sieve counting lives here too, over explicit subset families, each set
an int bitset over the universe.  `sieve_counts` adds the bitsets into
bit planes with a ripple carry, so plane k holds bit k of every
element's count of sets; no intersection is walked and no set is built.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import product
from operator import mul
from typing import TYPE_CHECKING, Hashable, Iterable, Sequence, Union

from .counting import binomial
from .exact_core import Record, agree, guard, integer_form, once

if TYPE_CHECKING:
    from fractions import Fraction

Element = Hashable
Rational = Union[int, "Fraction"]
# one row (or column) of an incidence function: element indices and values
Row = tuple[list[int], list[int]]

# Poset plus Mobius table, peak RSS of a fresh process (about 16 MB at
# start), CPython 3.11 on one x86-64 core: boolean_lattice(12) 0.02 s and
# 22 MB, (13) 0.05-0.06 s and 35 MB, (14) 0.13-0.15 s and 70 MB, the table
# about 3x per atom.  `delta_check`, which also builds the masks, takes
# that to (12) 0.4 s and 31 MB, (13) 1.8-2.0 s and 63 MB, (14) 10.9-11.6 s
# and 165 MB.  13 is the last within 100 MB with the check.
MAX_BOOLEAN_GROUND = 13
# divisor_poset(963761198400), whose 6720 divisors are the most of any n
# that factorize accepts (n <= 10**12), takes 0.004 s to build and 0.05 s
# with its Mobius table, at a 34 MB peak (2.0-2.2 s and 62 MB with
# `delta_check`); the cap admits exactly that range.
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

    def __init__(self, elements: Sequence[Element],
                 relation: Iterable[tuple[Element, Element]]):
        self.elements: tuple[Element, ...] = tuple(elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise ValueError("duplicate elements")
        up = [1 << i for i in range(len(self.elements))]
        down = up.copy()
        for x, y in relation:
            if x not in self._index or y not in self._index:
                raise ValueError(f"relation pair ({x!r}, {y!r}) outside element set")
            i, j = self._index[x], self._index[y]
            up[i] |= 1 << j
            down[j] |= 1 << i
        self._masks = (up, down)
        self._validate()

    @property
    def _up(self) -> list[int]:
        """Bit j of _up[i] says elements[i] <= elements[j]."""
        return self._masks[0]

    @property
    def _down(self) -> list[int]:
        """Bit i of _down[j] says elements[i] <= elements[j]."""
        return self._masks[1]

    @once
    def _down_sizes(self) -> list[int]:
        """The size of each down-set."""
        return [mask.bit_count() for mask in self._down]

    @once
    def _order(self) -> list[int]:
        """The indices in a linear extension: any order sorted by down-set
        size is one, since x < y forces down(x) to be strictly inside
        down(y); the sort is stable, so ties stay in index order."""
        return sorted(range(len(self.elements)), key=self._down_sizes.__getitem__)

    @once
    def _rank(self) -> list[int]:
        """Each index's position in `_order`."""
        rank = [0] * len(self.elements)
        for position, i in enumerate(self._order):
            rank[i] = position
        return rank

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

    @once
    def _covers(self) -> list[list[int]]:
        """For each element, the indices of the elements covering it."""
        up, down = self._masks
        covers = []
        for i, mask in enumerate(up):
            above = mask ^ 1 << i
            covers.append([j for j in _bits(above) if down[j] & above == 1 << j])
        return covers

    @once
    def _mobius_rows(self) -> list[Row]:
        """For each x, the indices of the y >= x and mu(x, y), by the
        bit-plane recursion."""
        return _plane_rows(self)

    @once
    def _mobius_columns(self) -> list[Row]:
        """For each y, the indices of the x <= y and mu(x, y)."""
        return _transpose(self._mobius_rows)

    # -- queries -------------------------------------------------------

    def up(self, x: Element) -> frozenset[Element]:
        return frozenset(self._members(self._up[self._index[x]]))

    def down(self, y: Element) -> frozenset[Element]:
        return frozenset(self._members(self._down[self._index[y]]))

    def interval(self, x: Element, y: Element) -> frozenset[Element]:
        mask = self._up[self._index[x]] & self._down[self._index[y]]
        return frozenset(self._members(mask))

    def linear_extension(self) -> tuple[Element, ...]:
        return tuple(map(self.elements.__getitem__, self._order))

    def __len__(self) -> int:
        return len(self.elements)

    # -- JSON ------------------------------------------------------------

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


class _Product(FinitePoset):
    """P x Q ordered componentwise, labels[a * len(Q) + b] standing for the
    pair of P's a-th and Q's b-th elements; `elements` lists the labels,
    which must be distinct, in the product's order.  No mask is built."""

    def __init__(self, P: FinitePoset, Q: FinitePoset, labels: list,
                 elements: Iterable[Element]):
        elements = tuple(elements)
        index = {e: i for i, e in enumerate(elements)}
        self.elements, self._index, self._factors = elements, index, (P, Q)
        self._pair_index = [index[e] for e in labels]  # a * len(Q) + b -> the index of (a, b)

    @once
    def _masks(self) -> tuple[list[int], list[int]]:
        """(up-masks, down-masks), closed over the factors' covers."""
        (A, B), at = self._factors, self._pair_index
        nb = len(B)
        above_a, above_b = A._covers, B._covers
        up = _cover_closure(at, nb, above_a, above_b, A._order[::-1], B._order[::-1])
        down = _cover_closure(at, nb, _lower_covers(above_a), _lower_covers(above_b),
                              A._order, B._order)
        return up, down

    @once
    def _down_sizes(self) -> list[int]:
        """The products of the factors' down-set sizes, so no mask is read."""
        A, B = self._factors
        sizes = [0] * len(self.elements)
        pairs = [x * y for x in A._down_sizes for y in B._down_sizes]
        for i, size in zip(self._pair_index, pairs):
            sizes[i] = size
        return sizes

    @once
    def _covers(self) -> list[list[int]]:
        """(a, b) is covered by (c, b) for each c covering a and by (a, d)
        for each d covering b."""
        (A, B), at = self._factors, self._pair_index
        nb = len(B)
        above_b = B._covers
        covers: list[list[int]] = [[]] * len(at)
        for a, above_a in enumerate(A._covers):
            row = a * nb
            for b, over in enumerate(above_b):
                covers[at[row + b]] = ([at[c * nb + b] for c in above_a]
                                       + [at[row + d] for d in over])
        return covers

    @once
    def _mobius_rows(self) -> list[Row]:
        """By the product theorem, from the factors' rows."""
        return _outer(self, "_mobius_rows")

    @once
    def _mobius_columns(self) -> list[Row]:
        """By the product theorem, from the factors' columns."""
        return _outer(self, "_mobius_columns")


def product_poset(P: FinitePoset, Q: FinitePoset) -> FinitePoset:
    """The pairs (a, b) of P x Q, ordered componentwise
    ((a, b) <= (a', b') when a <= a' and b <= b') and listed P-major."""
    pairs = list(product(P.elements, Q.elements))
    return _Product(P, Q, pairs, pairs)


# ---------------------------------------------------------------------------
# incidence functions
# ---------------------------------------------------------------------------


class IncidenceFunction(Mapping):
    """A function on comparable pairs of a poset; incomparable pairs
    evaluate to 0 (as for delta and the Mobius function).  Values are kept
    by rows, one (indices of the y, values f(x, y)) pair of lists per
    element x, and read as a read-only mapping {(x, y): f(x, y)}: x in
    element order, and the y of each x in linear-extension order, as the
    recursion for mu visits them."""

    def __init__(self, poset: FinitePoset, table: Mapping[tuple, Rational]):
        rows: list[Row] = [([], []) for _ in poset.elements]
        index, up = poset._index, poset._up
        for (x, y), value in table.items():
            i, j = index[x], index[y]
            if not up[i] >> j & 1:
                raise ValueError(f"value on ({x!r}, {y!r}), but not {x!r} <= {y!r}")
            cols, vals = rows[i]
            cols.append(j)
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
    def table(self) -> "IncidenceFunction":
        return self

    def __call__(self, x: Element, y: Element) -> Rational:
        index = self.poset._index
        i, j = index.get(x), index.get(y)
        if i is None or j is None:
            return 0
        return self._row_map(i).get(j, 0)

    def __len__(self) -> int:
        return sum(len(cols) for cols, _ in self._rows)

    def __iter__(self):
        return (pair for pair, _ in self.items())

    def __getitem__(self, key) -> Rational:
        index = self.poset._index
        if isinstance(key, tuple) and len(key) == 2 and key[0] in index and key[1] in index:
            row = self._row_map(index[key[0]])
            j = index[key[1]]
            if j in row:
                return row[j]
        raise KeyError(key)

    def items(self):
        """An iterator over ((x, y), f(x, y)) in the order of iteration,
        each row read once through its dict."""
        elements, rank = self.poset.elements, self.poset._rank
        for i, (x, (cols, _)) in enumerate(zip(elements, self._rows)):
            row = self._row_map(i)
            for j in sorted(cols, key=rank.__getitem__):
                yield (x, elements[j]), row[j]


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
    (up, down), rank = P._masks, P._rank
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


def _outer(P: _Product, field: str) -> list[Row]:
    """The rows (`field` "_mobius_rows") or columns ("_mobius_columns") of
    a product's Mobius table, the outer products of that field of its
    factors, joined from blocks built once: block[b][c] holds the indices
    of the pairs (c, d) for d in B's row b.  The row of (a, b) is
    block[b][c] for each entry (c, v) of A's row a in turn, so its entries
    come in the order of the pair-by-pair product, and its values are v * w
    for each such v and each w of B's row b.  Those depend only on the two
    factor rows' value sequences, so each factor row's sequence is keyed
    once, the list is built once per distinct pair of sequences, and every
    row with that pair holds that same list.  Rows are read-only: a poset
    also shares them with each `IncidenceFunction` made from it."""
    (A, B), at = P._factors, P._pair_index
    nb, rows_a, rows_b = len(B), getattr(A, field), getattr(B, field)
    pairs = [at[a * nb:(a + 1) * nb].__getitem__ for a in range(len(A))]
    block = [[list(map(pair, cols_b)) for pair in pairs] for cols_b, _ in rows_b]
    patterns: dict[tuple, int] = {}  # a value sequence of B -> its id
    pattern_b = [patterns.setdefault(tuple(vals_b), len(patterns)) for _, vals_b in rows_b]
    built: dict[tuple, list[list[int]]] = {}  # a value sequence of A -> its lists by id
    out: list[Row] = [([], [])] * len(at)
    for a, (cols_a, vals_a) in enumerate(rows_a):
        key = tuple(vals_a)
        values = built.get(key)
        if values is None:
            values = built[key] = []
            for vals_b in patterns:
                values.append([v * w for v in vals_a for w in vals_b])
        row = a * nb
        for b, blocks in enumerate(block):
            cols: list[int] = []
            for c in cols_a:
                cols += blocks[c]
            out[at[row + b]] = (cols, values[pattern_b[b]])
    return out


def mobius(P: FinitePoset) -> IncidenceFunction:
    """The Mobius function: mu(x,x) = 1 and, below y, the values on
    [x, y) sum to -mu(x,y); computed once per poset, by the product
    theorem on a `_Product` and by the bit-plane recursion otherwise."""
    return IncidenceFunction._from_rows(P, P._mobius_rows)


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


def delta_check(P: FinitePoset) -> bool:
    """Verify sum_{x: z <= x <= y} mu(x, y) = delta(z, y) on all
    comparable pairs (the zeta * mu = delta identity), with the column
    of values below y kept as bit planes.  The planes hold only x <= y,
    so the AND with up(z) alone picks out [z, y]."""
    up = P._masks[0]
    for j, (xs, vals) in enumerate(P._mobius_columns):
        planes = [[0, 0]]
        for i, value in zip(xs, vals):
            if value == 1:  # the common case in lattices, done inline
                planes[0][0] |= 1 << i
            elif value == -1:
                planes[0][1] |= 1 << i
            elif value:
                _plane_add(planes, 1 << i, value)
        if len(planes) == 1:  # every value in {-1, 0, 1}: two popcounts a pair
            pos, neg = planes[0]
            for i in xs:
                if (up[i] & pos).bit_count() - (up[i] & neg).bit_count() != (i == j):
                    return False
        else:
            for i in xs:
                if _plane_sum(up[i], planes) != (i == j):
                    return False
    return True


def _numerators(P: FinitePoset, g: Mapping[Element, Rational]) -> tuple[list[int], int, bool]:
    """g's values in element order as integer numerators over the lcm of
    their denominators, and whether every value was an int."""
    values = [g[x] for x in P.elements]
    ints = all(isinstance(v, int) for v in values)
    if not ints:
        from fractions import Fraction

        if not all(isinstance(v, (int, Fraction)) for v in values):
            raise TypeError("values must be ints or Fractions")
    nums, den = integer_form(values)
    return nums, den, ints


def _quotients(P: FinitePoset, sums: list[int], den: int, ints: bool) -> dict:
    """{element: sum / den}, as ints when the values were (den is then 1)."""
    if ints:
        return dict(zip(P.elements, sums))
    from fractions import Fraction  # once, not a call of exact_core.fraction per element

    return {e: Fraction(s, den) for e, s in zip(P.elements, sums)}


def _sum_over(P: FinitePoset, f: Mapping[Element, Rational], masks: list[int]) -> dict:
    """The sum of f's integer numerators over each mask."""
    nums, den, ints = _numerators(P, f)
    sums = [sum(map(nums.__getitem__, _bits(mask))) for mask in masks]
    return _quotients(P, sums, den, ints)


def _dot(P: FinitePoset, g: Mapping[Element, Rational], table: list[Row]) -> dict:
    """Each row of `table` dotted with g's integer numerators."""
    nums, den, ints = _numerators(P, g)
    sums = [sum(map(mul, vals, map(nums.__getitem__, js))) for js, vals in table]
    return _quotients(P, sums, den, ints)


def accumulate(P: FinitePoset, f: Mapping[Element, Rational]) -> dict:
    """g(y) = sum_{x <= y} f(x), summed on integer numerators."""
    return _sum_over(P, f, P._down)


def invert(P: FinitePoset, g: Mapping[Element, Rational]) -> dict:
    """The unique f with sum_{x <= y} f(x) = g(y), via
    f(y) = sum_{x <= y} mu(x, y) g(x): each Mobius column dotted with the
    integer numerators of g."""
    return _dot(P, g, P._mobius_columns)


def _invert_reference(P: FinitePoset, g: Mapping[Element, Rational]) -> dict:
    """`invert` as a plain `Fraction` sum over each down-set: the reference
    route for the integer kernel."""
    mu = mobius(P)
    return {
        y: sum(mu(x, y) * g[x] for x in P._members(P._down[j]))
        for j, y in enumerate(P.elements)
    }


def accumulate_dual(P: FinitePoset, f: Mapping[Element, Rational]) -> dict:
    """g(y) = sum_{x >= y} f(x), summed over the up-masks."""
    return _sum_over(P, f, P._up)


def invert_dual(P: FinitePoset, g: Mapping[Element, Rational]) -> dict:
    """The unique f with sum_{x >= y} f(x) = g(y), via
    f(y) = sum_{x >= y} mu(y, x) g(x): each Mobius row dotted with the
    integer numerators of g."""
    return _dot(P, g, P._mobius_rows)


# ---------------------------------------------------------------------------
# the two concrete lattices
# ---------------------------------------------------------------------------


def _chain(elements: tuple) -> FinitePoset:
    """elements[0] < elements[1] < ... as a poset."""
    n = len(elements)
    full = (1 << n) - 1
    up = [full >> i << i for i in range(n)]
    down = [(2 << i) - 1 for i in range(n)]
    P = FinitePoset.__new__(FinitePoset)
    P.elements, P._index = elements, {e: i for i, e in enumerate(elements)}
    P._masks = (up, down)
    return P


def boolean_lattice(n: int) -> FinitePoset:
    """Subsets of {1..n} ordered by inclusion, smaller subsets first; the
    product of the lattices on the first ceil(n/2) atoms and on the rest."""
    guard(0 <= n <= MAX_BOOLEAN_GROUND, f"boolean lattice capped at n <= {MAX_BOOLEAN_GROUND}")
    return _subset_lattice(tuple(range(1, n + 1)))


def _subset_lattice(atoms: tuple[int, ...]) -> FinitePoset:
    """The subsets of the ascending positive `atoms` by inclusion, listed by
    size and then lexicographically, halved as in `boolean_lattice`."""
    if len(atoms) < 2:
        return _chain((frozenset(),) + tuple(frozenset([a]) for a in atoms))
    k = (len(atoms) + 1) // 2
    P, Q = _subset_lattice(atoms[:k]), _subset_lattice(atoms[k:])
    # (size << top) minus the bits 1 << (top - x) of the atoms x sorts by
    # size, then lexicographically: each bit is below 1 << top, and the
    # smallest atom in which two sets differ sets the highest differing bit.
    # A union of disjoint parts sums their keys.
    top = atoms[-1]

    def key(s: frozenset) -> int:
        return (len(s) << top) - sum(1 << top - x for x in s)

    keys_q = list(map(key, Q.elements))
    keys = [p + q for p in map(key, P.elements) for q in keys_q]
    labels = [a | b for a in P.elements for b in Q.elements]
    order = sorted(range(len(labels)), key=keys.__getitem__)
    return _Product(P, Q, labels, map(labels.__getitem__, order))


def divisor_poset(n: int) -> FinitePoset:
    """The divisors of n ordered by divisibility (the interval [1, n])."""
    from .number_theory import factorize  # loaded only where a poset is factored

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
    P = _divisor_lattice(factors[:cut], size)
    Q = _divisor_lattice(factors[cut:], count // size)
    labels = [a * b for a in P.elements for b in Q.elements]
    return _Product(P, Q, labels, sorted(labels))


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
    bitsets: bit x of masks[i] says x is in A_(i+1)."""

    __slots__ = ("universe", "masks")

    def __init__(self, universe: int, sets: Iterable[Iterable[int]]):
        guard(0 <= universe <= MAX_FAMILY_UNIVERSE, "universe size out of range")
        sets = tuple(sets)
        guard(len(sets) <= MAX_FAMILY_SETS, f"at most {MAX_FAMILY_SETS} sets supported")
        super().__init__(universe, tuple(_bitset(s, universe) for s in sets))

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
    """S_k = sum over k-element index sets of the intersection sizes (S_0
    is the universe size), from `sieve_counts` and checked there."""
    return sieve_counts(fam)[0]


def sylvester_count(fam: SubsetFamily) -> int:
    """|universe minus the union|: e_0 of `sieve_counts`, checked there
    against a direct membership scan."""
    return sieve_counts(fam)[1][0]


def sieve_counts(fam: SubsetFamily) -> tuple[list[int], list[int]]:
    """The Sylvester numbers S_k and the Jordan counts e_m (universe
    elements in exactly m of the sets).  e_m is the popcount of the
    elements whose bit planes spell m; an element in m sets lies in C(m, k)
    k-fold intersections, so S_k = sum_m C(m, k) e_m (Comtet, Advanced
    Combinatorics, Ch. IV).  The e_m must sum to the universe size, S_1
    must equal the sum of the set sizes, and e_0 must agree with a direct
    membership scan."""
    n = len(fam.masks)
    planes = [0] * n.bit_length()  # a count of at most n sets fits
    for mask in fam.masks:
        carry = mask
        for k, plane in enumerate(planes):
            planes[k], carry = plane ^ carry, plane & carry
    everything = (1 << fam.universe) - 1
    exactly = []
    for m in range(n + 1):
        chosen = everything
        for k, plane in enumerate(planes):
            chosen &= plane if m >> k & 1 else ~plane
        exactly.append(chosen.bit_count())
    s = [sum(binomial(m, k) * e for m, e in enumerate(exactly[k:], k))
         for k in range(n + 1)]
    agree("Jordan counts summed against the universe", sum(exactly), fam.universe)
    agree("sieve S_1 against the set sizes", s[1] if n else 0,
          sum(mask.bit_count() for mask in fam.masks))
    union = 0
    for mask in fam.masks:
        union |= mask
    agree("sieve e_0 against a membership scan", exactly[0],
          fam.universe - union.bit_count())
    return s, exactly


def jordan_counts(fam: SubsetFamily) -> list[int]:
    """e_m = number of universe elements lying in exactly m of the sets,
    checked as in `sieve_counts`."""
    return sieve_counts(fam)[1]
