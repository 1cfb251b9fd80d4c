"""The size cap of every entry point, the one range check that enforces them,
and the value types every layer shares: the value-class base `Record`, the
`Sentinel` markers `NEG_INF` and `OMEGA`, `LeafFunction` and `CatSeq`."""

from enum import Enum
from functools import partial

# the most vertices of any graph; the tree DP is O(n^2) and takes about 0.1 s
# on a 1,000-vertex chain (one core of a 2-vCPU VM, Python 3.11)
GRAPH_MAX_N = 1000
# each generator's cap on its parameter: its largest graph has at most
# GRAPH_MAX_N vertices, and so has a caterpillar_graph
CHAIN_MAX_N = GRAPH_MAX_N
STAR_MAX_M = WHEEL_MAX_N = GRAPH_MAX_N - 1
FK_MAX_K = (GRAPH_MAX_N - 7) // 6

# brute force's default size bound, and the ceiling of that bound
DEFAULT_MAX_N = 20
BRUTEFORCE_MAX_N = 25
# the most vertices of the trees enumerate_free_trees lists
FREE_TREE_MAX_N = 14

# the longest words enumerate_pnw lists
ENUM_MAX_LEN = 22
# the longest word a public function takes; F1 profiles are O(n^2), and pnf
# takes 0.6 to 0.9 s at this length (one core of a 2-vCPU VM, Python 3.11)
WORD_MAX_LEN = 5000
# the largest k of is_k_prefix_normal; no factor of a word of at most
# WORD_MAX_LEN letters has more ones than that
K_MAX = WORD_MAX_LEN

# the largest sequence size of all_sequences, and of hasse_covers and hasse_dot
SEQUENCES_MAX_SIZE, HASSE_MAX_SIZE = 20, 12

# verify suite name -> the range of its bound
SUITE_BOUNDS = {
    "poset": (0, 9),
    "morphism": (0, 10),
    "roundtrip": (0, 12),
    "leaf-equivalence": (0, 8),
    "trees": (3, 13),
}
# accepted alternate spellings for the suite selector
SUITE_ALIASES = {"theorem53": "roundtrip", "theorem61": "leaf-equivalence"}


def check_range(name: str, value: int, low: int, high: int) -> None:
    """Reject `value` outside low..high, or not an int, by name, before any work starts."""
    if type(value) is not int:  # bool is an int subclass
        raise ValueError(f"{name}={value!r} is not an integer")
    if not low <= value <= high:
        raise ValueError(f"{name}={value} outside {low}..{high}")


class Record:
    """An immutable value.  A subclass names its fields in `_fields`, passes
    them by keyword to `Record.__init__` once, and keeps only its validation.

    Records are equal, and hash alike, when their classes are the same and
    their field values are, compared as one tuple stored at construction; an
    attribute a subclass caches in `__dict__` does not count."""

    _fields: tuple[str, ...] = ()

    def __init__(self, **fields):
        fields["_key"] = tuple(fields.values())
        # one dict merged into the empty __dict__ is copied whole; filling
        # __dict__ key by key left attribute reads about twice as slow
        self.__dict__.update(fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({fields})"


class Sentinel(Enum):
    """The two marker values, compared by identity.  Not numbers on purpose:
    arithmetic with them must be handled explicitly, never silently."""

    NEG_INF = "-inf"  # the value of an empty maximum
    OMEGA = "w"  # a leaf-word letter next to an empty maximum

    def __repr__(self):
        return self.value

    __str__ = __repr__


NEG_INF = Sentinel.NEG_INF


class LeafFunction(Record):
    """Values of L_G: max leaves over induced subtrees of each size 0..n.

    Immutable; equal, and hashed alike, when n and the values are."""

    _fields = ("n", "values")

    def __init__(self, n: int, values: tuple):
        if type(n) is not int:  # bool is an int subclass
            raise ValueError(f"n={n!r} is not an integer")
        if n < 0:
            raise ValueError(f"n={n} is negative")
        if not isinstance(values, tuple):  # a list would leave the value unhashable
            raise ValueError(f"values must be a tuple, got {type(values).__name__}")
        if len(values) != n + 1:
            raise ValueError(f"expected {n + 1} values, got {len(values)}")
        if values[0] != 0:
            raise ValueError("L(0) must be 0")
        if n >= 1 and values[1] != 0:
            raise ValueError("L(1) must be 0")
        seen_inf = False
        for v in values:
            if v is NEG_INF:
                seen_inf = True
            elif seen_inf:
                raise ValueError("-inf entries must form a suffix")
            elif type(v) is not int or v < 0:  # bool is an int subclass
                raise ValueError(f"bad leaf-function value {v!r}")
        super().__init__(n=n, values=values)


def check_sequence(s) -> None:
    if type(s) is CatSeq:  # checked when it was built
        return
    if not isinstance(s, tuple) or len(s) == 0:
        raise ValueError(f"not a caterpillar sequence: {s!r}")
    if any(type(x) is not int or x < 0 for x in s):  # bool is an int subclass
        raise ValueError(f"entries must be non-negative integers: {s!r}")
    if s[0] < 1 or s[-1] < 1:
        raise ValueError(f"first and last entries must be >= 1: {s!r}")
    if len(s) == 1 and s[0] < 2:
        raise ValueError(f"a length-1 sequence needs s_1 >= 2: {s!r}")


class CatSeq(tuple):
    """A caterpillar sequence checked by its constructor, or built by `_trusted` from checked
    input.  Repr, equality and hash are tuple's; a slice or a sum of one is a plain tuple."""

    __slots__ = ()

    def __new__(cls, s):
        check_sequence(s)
        return tuple.__new__(cls, s)


_trusted = partial(tuple.__new__, CatSeq)


def parse_sequence(text: str) -> CatSeq:
    try:
        s = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad caterpillar sequence: {text!r}") from exc
    return CatSeq(s)


def format_sequence(s: CatSeq) -> str:
    return ",".join(str(x) for x in s)
