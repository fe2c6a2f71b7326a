"""The value layer's constructors and shape checks.

The interpreters build and test values for every event they answer, so
these functions take fast paths; the cases here pin down that the values
they accept and refuse stay exactly the documented ones.
"""

import pytest

from itrees.values import (
    BOOL_T,
    EMPTY_T,
    FALSE,
    MAP_T,
    NAT_MASK,
    NAT_T,
    SHARED_NATS,
    SYM_T,
    TRUE,
    UNIT,
    UNIT_T,
    AnswerTagMismatch,
    Tag,
    UValue,
    fst,
    inl,
    inr,
    label,
    label_t,
    map_items,
    map_set,
    nat,
    pair,
    snd,
    sym,
    umap,
    un_sum,
)


class Small(int):
    """An int subclass, which ``nat`` accepts as it accepts any int."""


@pytest.mark.parametrize("n", [True, False, -1, 2**64, 1.5, "3", None, Small(-1)])
def test_nat_refuses_what_is_not_a_64_bit_natural(n):
    with pytest.raises(AnswerTagMismatch, match="not a 64-bit natural"):
        nat(n)


@pytest.mark.parametrize("n", [0, 1, 2**64 - 1, Small(7)])
def test_nat_accepts_every_64_bit_natural(n):
    v = nat(n)
    assert v.tag is Tag.NAT and v.payload == n and v.bound is None
    assert v == UValue(Tag.NAT, n)


def test_small_naturals_are_shared():
    for n in range(SHARED_NATS):
        v = nat(n)
        assert v is nat(n)
        direct = UValue(Tag.NAT, n)
        assert v is not direct and v == direct and hash(v) == hash(direct)
        assert v.payload == n and type(v.payload) is int
    assert SHARED_NATS == 256


@pytest.mark.parametrize("n", [SHARED_NATS, SHARED_NATS + 1, 10**6, NAT_MASK])
def test_naturals_above_the_table_are_built_fresh(n):
    v = nat(n)
    assert v == UValue(Tag.NAT, n) and v.payload == n and v is not nat(n)


def test_an_int_subclass_below_the_table_keeps_its_payload():
    # accepted as any int is (see the tests above), but not shared
    v = nat(Small(7))
    assert v == nat(7) and type(v.payload) is Small


@pytest.mark.parametrize("index, bound", [(-1, 3), (3, 3), (4, 3), (0, 0)])
def test_label_refuses_an_index_out_of_its_bound(index, bound):
    with pytest.raises(AnswerTagMismatch, match="out of bound"):
        label(index, bound)


def test_label_keeps_index_and_bound():
    v = label(2, 3)
    assert (v.tag, v.payload, v.bound) == (Tag.LABEL, 2, 3)
    assert label(0, 1) != label(0, 2)


def test_pairs_take_apart_and_refuse_non_pairs():
    p = pair(nat(1), TRUE)
    assert (fst(p), snd(p)) == (nat(1), TRUE)
    with pytest.raises(AnswerTagMismatch):
        pair(nat(1), 2)
    for take in (fst, snd):
        with pytest.raises(AnswerTagMismatch):
            take(nat(1))


def test_un_sum_splits_both_sides():
    assert un_sum(inl(nat(4))) == (True, nat(4))
    assert un_sum(inr(UNIT)) == (False, UNIT)


@pytest.mark.parametrize("v", [nat(1), UNIT, TRUE, label(0, 1), sym("x"), umap()])
def test_un_sum_refuses_a_non_pair(v):
    with pytest.raises(AnswerTagMismatch, match="not a sum value"):
        un_sum(v)


@pytest.mark.parametrize("side", [nat(1), UNIT, label(1, 2), pair(TRUE, FALSE)])
def test_un_sum_refuses_a_pair_whose_first_component_is_not_a_bool(side):
    with pytest.raises(AnswerTagMismatch, match="not a sum value"):
        un_sum(pair(side, nat(0)))


ALL_VALUES = [UNIT, nat(0), nat(NAT_MASK), TRUE, FALSE, label(0, 1), label(1, 2),
              pair(nat(1), nat(2)), sym("x"), umap({"a": nat(1)})]


def test_empty_type_accepts_nothing():
    assert not any(EMPTY_T.accepts(v) for v in ALL_VALUES)
    # not even a value built with its tag by hand
    assert not EMPTY_T.accepts(UValue(Tag.EMPTY))


def test_each_type_accepts_exactly_its_tag():
    for vt in (UNIT_T, NAT_T, BOOL_T, SYM_T, MAP_T):
        assert [v for v in ALL_VALUES if vt.accepts(v)] == [
            v for v in ALL_VALUES if v.tag is vt.tag]


def test_types_refuse_what_is_not_a_value():
    # a raw payload fits no type, so a check raises AnswerTagMismatch
    for vt in (UNIT_T, NAT_T, BOOL_T, SYM_T, MAP_T, EMPTY_T, label_t(2)):
        assert not any(vt.accepts(raw) for raw in ("x", 3, None, (nat(1),)))
    assert NAT_T.accepts("x") is False
    with pytest.raises(AnswerTagMismatch, match="'x' does not fit nat"):
        NAT_T.check("x")


def test_a_label_type_refuses_a_label_of_another_bound():
    assert label_t(2).accepts(label(1, 2))
    assert not label_t(2).accepts(label(0, 1))
    assert not label_t(1).accepts(label(0, 2))
    assert not label_t(2).accepts(nat(1))
    with pytest.raises(AnswerTagMismatch, match="does not fit label<3>"):
        label_t(3).check(label(0, 2))


def test_map_items_refuses_a_non_map():
    assert map_items(umap({"b": nat(2), "a": nat(1)})) == (("a", nat(1)), ("b", nat(2)))
    with pytest.raises(AnswerTagMismatch, match="not a map"):
        map_items(nat(0))


def test_a_map_whose_keys_mix_str_and_int_puts_int_keys_first():
    # keys of one kind keep their own order; mixed, ints sort before strs
    mixed = umap({"b": nat(1), 10: nat(2), "a": nat(3), 2: nat(4)})
    assert map_items(mixed) == ((2, nat(4)), (10, nat(2)), ("a", nat(3)), ("b", nat(1)))
    assert map_set(umap({"a": nat(1)}), 2, nat(2)) == umap({"a": nat(1), 2: nat(2)})
    assert map_set(umap({2: nat(2)}), "a", nat(1)) == umap({"a": nat(1), 2: nat(2)})
    assert map_items(umap({10: nat(0), 9: nat(0)})) == ((9, nat(0)), (10, nat(0)))
