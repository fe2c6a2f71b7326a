"""Dynamically tagged values.

Every answer an environment can give, every argument an event can carry, and
every result a tree can return is a :class:`UValue`.  Tags replace the static
typing a dependently typed host would provide; misuse surfaces as
:class:`AnswerTagMismatch` at the point a continuation is applied.

Code here reads tags through module-level aliases (``_NAT`` for
``Tag.NAT`` and so on), never through the ``Tag`` class.  The interpreters
build and test values for every event they answer, and on CPython reading
a member off an ``Enum`` class is a Python-level attribute lookup that
costs about ten times a global name read.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

NAT_BITS = 64
NAT_MASK = (1 << NAT_BITS) - 1


class Tag(Enum):
    UNIT = "unit"
    NAT = "nat"
    BOOL = "bool"
    LABEL = "label"
    PAIR = "pair"
    SYM = "sym"
    MAP = "map"
    EMPTY = "empty"


_UNIT = Tag.UNIT
_NAT = Tag.NAT
_BOOL = Tag.BOOL
_LABEL = Tag.LABEL
_PAIR = Tag.PAIR
_SYM = Tag.SYM
_MAP = Tag.MAP
_EMPTY = Tag.EMPTY


class AnswerTagMismatch(TypeError):
    """A value with the wrong tag reached a tagged continuation or port."""


@dataclass(slots=True, unsafe_hash=True)
class UValue:
    """A tagged runtime value.

    payload depends on the tag:
      UNIT  -> None
      NAT   -> int in [0, 2**64)
      BOOL  -> bool
      LABEL -> int index, with ``bound`` giving the finite domain size
      PAIR  -> (UValue, UValue)
      SYM   -> nonempty identifier string
      MAP   -> tuple of (key, UValue) pairs sorted by key; keys are str or int
      EMPTY -> never constructed (answer tag of halting events only)

    Values compare and hash by (tag, payload, bound) and are never assigned
    to after construction.
    """

    tag: Tag
    payload: object = None
    bound: int | None = None

    def __repr__(self):
        return f"UValue<{render_value(self)}>"


UNIT = UValue(_UNIT)
TRUE = UValue(_BOOL, True)
FALSE = UValue(_BOOL, False)


def unit() -> UValue:
    return UNIT


def nat(n: int) -> UValue:
    if type(n) is int and 0 <= n <= NAT_MASK:
        return UValue(_NAT, n)
    if not isinstance(n, int) or isinstance(n, bool) or not 0 <= n <= NAT_MASK:
        raise AnswerTagMismatch(f"not a 64-bit natural: {n!r}")
    return UValue(_NAT, n)


def boolean(b: bool) -> UValue:
    return TRUE if b else FALSE


def label(index: int, bound: int) -> UValue:
    if not 0 <= index < bound:
        raise AnswerTagMismatch(f"label {index} out of bound {bound}")
    return UValue(_LABEL, index, bound)


def pair(a: UValue, b: UValue) -> UValue:
    if not (isinstance(a, UValue) and isinstance(b, UValue)):
        raise AnswerTagMismatch("pair components must be UValues")
    return UValue(_PAIR, (a, b))


def sym(name: str) -> UValue:
    if not isinstance(name, str) or not name:
        raise AnswerTagMismatch(f"not an identifier: {name!r}")
    return UValue(_SYM, name)


def fst(v: UValue) -> UValue:
    if v.tag is not _PAIR:
        raise AnswerTagMismatch(f"fst of non-pair {v!r}")
    return v.payload[0]


def snd(v: UValue) -> UValue:
    if v.tag is not _PAIR:
        raise AnswerTagMismatch(f"snd of non-pair {v!r}")
    return v.payload[1]


# Sums are encoded as Pair(Bool is_left, payload); no dedicated tag.

def inl(v: UValue) -> UValue:
    return pair(TRUE, v)


def inr(v: UValue) -> UValue:
    return pair(FALSE, v)


def un_sum(v: UValue) -> tuple[bool, UValue]:
    """Split a sum-encoded value into (is_left, payload)."""
    if v.tag is not _PAIR:
        raise AnswerTagMismatch(f"not a sum value: {v!r}")
    side, payload = v.payload
    if side.tag is not _BOOL:
        raise AnswerTagMismatch(f"not a sum value: {v!r}")
    return side.payload, payload


# Saturating/wrapping 64-bit arithmetic, shared by both language semantics.

def nat_add(a: int, b: int) -> int:
    return (a + b) & NAT_MASK


def nat_sub(a: int, b: int) -> int:
    return a - b if a >= b else 0


def nat_mul(a: int, b: int) -> int:
    return (a * b) & NAT_MASK


# Finite maps: ordered association tuples inside a MAP UValue.  Absent keys
# are the concern of the map-event handlers (which carry a default); map
# equality is key set plus per-key values, which UValue equality gives us
# for free on the sorted representation.

def umap(items=()) -> UValue:
    entries = dict(items)
    for k, v in entries.items():
        if not isinstance(k, (str, int)) or isinstance(k, bool):
            raise AnswerTagMismatch(f"bad map key: {k!r}")
        if not isinstance(v, UValue):
            raise AnswerTagMismatch(f"bad map value: {v!r}")
    return UValue(_MAP, tuple(sorted(entries.items())))


def map_items(m: UValue):
    if m.tag is not _MAP:
        raise AnswerTagMismatch(f"not a map: {m!r}")
    return m.payload


def map_get(m: UValue, key, default: UValue) -> UValue:
    for k, v in map_items(m):
        if k == key:
            return v
    return default


def map_set(m: UValue, key, value: UValue) -> UValue:
    rest = tuple((k, v) for k, v in map_items(m) if k != key)
    return UValue(_MAP, tuple(sorted(rest + ((key, value),))))


def map_remove(m: UValue, key) -> UValue:
    return UValue(_MAP, tuple((k, v) for k, v in map_items(m) if k != key))


@dataclass(frozen=True)
class VType:
    """Shape of a value slot: a tag plus, for labels, the finite bound."""

    tag: Tag
    bound: int | None = None

    def accepts(self, v: UValue) -> bool:
        tag = self.tag
        if v.tag is not tag or tag is _EMPTY:
            return False
        return tag is not _LABEL or self.bound is None or v.bound == self.bound

    def sole_tag(self):
        """The tag whose test alone decides ``accepts``, or None when the
        bound counts too or nothing is accepted: no value carries None, so
        a test against it always fails."""
        tag = self.tag
        if tag is _EMPTY or (tag is _LABEL and self.bound is not None):
            return None
        return tag

    def check(self, v: UValue, what: str = "value") -> UValue:
        if not self.accepts(v):
            raise AnswerTagMismatch(f"{what} {v!r} does not fit {self}")
        return v

    def __repr__(self):
        if self.tag is _LABEL and self.bound is not None:
            return f"label<{self.bound}>"
        return self.tag.value


UNIT_T = VType(_UNIT)
NAT_T = VType(_NAT)
BOOL_T = VType(_BOOL)
SYM_T = VType(_SYM)
MAP_T = VType(_MAP)
EMPTY_T = VType(_EMPTY)


def label_t(bound: int) -> VType:
    return VType(_LABEL, bound)


def render_value(v: UValue) -> str:
    """Stable textual form used by trace printing and the command line."""
    if v.tag is _UNIT:
        return "()"
    if v.tag is _NAT:
        return str(v.payload)
    if v.tag is _BOOL:
        return "true" if v.payload else "false"
    if v.tag is _LABEL:
        return f"L{v.payload}/{v.bound}"
    if v.tag is _PAIR:
        a, b = v.payload
        return f"({render_value(a)},{render_value(b)})"
    if v.tag is _SYM:
        return str(v.payload)
    if v.tag is _MAP:
        inside = ",".join(f"{k}={render_value(x)}" for k, x in v.payload)
        return "{" + inside + "}"
    return "<empty>"
