"""exactcomb: exact enumerative combinatorics with built-in cross-checks.

Counting formulas and recursions, truncated generating series,
row-recursive matrices, polynomial bases, Mobius inversion on finite
posets, sieve counting, elementary number theory with a toy RSA cycle,
and brute-force enumerators that everything is validated against.

Importing the package loads none of its modules: each name below is
imported from its home module on first access (PEP 562) and then kept
here, so `exactcomb.binomial is exactcomb.counting.binomial`.  A command
line run therefore compiles only the modules its command uses.
"""

__version__ = "0.1.0"

# home module -> the names it exports here, in the order of __all__
_EXPORTS = {
    "exact_core": ("factorial", "gcd"),
    "series": ("FormalSeries", "geometric_series", "exp_series"),
    "recursive_matrix": (
        "RecursiveMatrix",
        "binomial_matrix",
        "multiset_matrix",
        "gentile_matrix",
    ),
    "counting": (
        "TypeVector",
        "GergonneQuery",
        "binomial",
        "falling_factorial",
        "rising_factorial",
        "multiset_coeff",
        "gentile_coeff",
        "multinomial",
        "stirling2",
        "bell",
        "faa_di_bruno",
        "cycle_count",
        "stirling1_signed",
        "cauchy_count",
        "derangement",
        "derangement_fixed",
        "surjection_count",
        "lower_bound_solutions",
        "gergonne",
        "touchard",
        "menage_count",
        "birthday_probability",
        "graph_count",
        "alternating_convolution",
        "iter_type_vectors",
    ),
    "poset_mobius": (
        "FinitePoset",
        "IncidenceFunction",
        "PosetError",
        "SubsetFamily",
        "mobius",
        "delta_check",
        "accumulate",
        "accumulate_dual",
        "invert",
        "invert_dual",
        "boolean_lattice",
        "divisor_poset",
        "product_poset",
        "sylvester_numbers",
        "sylvester_count",
        "jordan_counts",
        "sieve_counts",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# the modules that importing every export loads, listed by dir() as before
_MODULES = (*_EXPORTS, "number_theory")

__all__ = list(_HOME)


def __getattr__(name: str):
    # a relative __import__, which `-X importtime` times (import_module is not)
    if name in _MODULES:
        return __import__(name, globals(), None, (), 1)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__import__(_HOME[name], globals(), None, (), 1), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    public = (n for n in globals() if not n.startswith("_") or n.startswith("__"))
    return sorted({*public, *__all__, *_MODULES} - {"__getattr__", "__dir__"})
