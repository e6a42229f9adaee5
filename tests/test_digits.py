"""Exact base-m counting vectors: arithmetic, encoding, and injectivity,
and the digit oracle's row keys checked against the codes."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from digit_codes import DIGIT_OVERFLOW, DigitVector, _count, _vector, encode_multiset
from wlsim.errors import INVALID_SCHEMA, ValidationError
from wlsim.simulate import _row_keys


# Code arithmetic that only these tests use: the code of one element, the
# digit-wise sum and the shift. ``encode_multiset`` codes a multiset in one
# pass; this is the algebra behind that pass.

# The error code of a sum of two codes in different bases.
BASE_MISMATCH = "BASE_MISMATCH"


def code_of(position: int, base: int) -> DigitVector:
    """The code of a single element at ``position`` (>= 1): one count at that depth."""
    return encode_multiset((position,), base)


def add(a: DigitVector, b: DigitVector) -> DigitVector:
    """Digit-wise sum. Raises DIGIT_OVERFLOW if any digit would reach the base."""
    if a.base != b.base:
        raise ValidationError(BASE_MISMATCH, f"bases differ: {a.base} vs {b.base}")
    counts = dict(a.pairs)
    for depth, count in b.pairs:
        _count(counts, depth, count, a.base)
    return _vector(a.base, counts)


def shift(a: DigitVector, offset: int) -> DigitVector:
    """Move every digit ``offset`` positions deeper (multiply by base^-offset)."""
    if offset < 0:
        raise ValidationError(INVALID_SCHEMA, f"offset must be >= 0, got {offset}")
    return _vector(a.base, {depth + offset: c for depth, c in a.pairs})


def multisets_up_to(max_position, max_order):
    """Every multiset over positions 1..max_position with order <= max_order.

    This enumeration is the independent ground truth for the injectivity
    tests: distinct tuples from combinations_with_replacement are distinct
    multisets by construction.
    """
    out = []
    for order in range(max_order + 1):
        out.extend(itertools.combinations_with_replacement(range(1, max_position + 1), order))
    return out


def test_code_of_places_a_single_count():
    assert code_of(1, 3).digits == (1,)
    assert code_of(3, 5).digits == (0, 0, 1)


def test_code_of_rejects_position_zero():
    with pytest.raises(ValidationError) as exc:
        code_of(0, 3)
    assert exc.value.code == INVALID_SCHEMA


def test_double_count_at_one_position():
    c = code_of(2, 3)
    assert add(c, c).digits == (0, 2)


def test_add_matches_hand_arithmetic():
    # 0.12 + 0.10 = 0.22 in base 3
    assert add(DigitVector(3, (1, 2)), DigitVector(3, (1, 0))) == DigitVector(3, (2, 2))


def test_add_refuses_to_carry():
    # 0.2 + 0.1 would need a carry in base 3
    with pytest.raises(ValidationError) as exc:
        add(DigitVector(3, (2,)), DigitVector(3, (1,)))
    assert exc.value.code == DIGIT_OVERFLOW


def test_base_mismatch_is_an_error():
    with pytest.raises(ValidationError) as exc:
        add(code_of(1, 3), code_of(1, 4))
    assert exc.value.code == BASE_MISMATCH


def test_trailing_zeros_do_not_affect_equality():
    assert DigitVector(4, (1, 0, 0)) == DigitVector(4, (1,))
    assert DigitVector(4, ()) == DigitVector(4)


def test_digit_at_base_is_rejected_at_construction():
    with pytest.raises(ValidationError) as exc:
        DigitVector(3, (3,))
    assert exc.value.code == DIGIT_OVERFLOW


def test_negative_digit_rejected():
    with pytest.raises(ValidationError) as exc:
        DigitVector(3, (-1,))
    assert exc.value.code == INVALID_SCHEMA


def test_base_below_two_rejected():
    with pytest.raises(ValidationError) as exc:
        DigitVector(1, (0,))
    assert exc.value.code == INVALID_SCHEMA


def test_shift_identity_and_deepening():
    v = code_of(1, 3)
    assert shift(v, 0) == v
    assert shift(v, 2).digits == (0, 0, 1)


def test_shift_rejects_negative_offset():
    with pytest.raises(ValidationError) as exc:
        shift(code_of(1, 3), -1)
    assert exc.value.code == INVALID_SCHEMA


@st.composite
def overflow_free_pairs(draw):
    """Two same-base vectors whose digit-wise sum stays below the base."""
    base = draw(st.integers(2, 7))
    size = draw(st.integers(0, 8))
    a = [draw(st.integers(0, base - 1)) for _ in range(size)]
    b = [draw(st.integers(0, base - 1 - x)) for x in a]
    return DigitVector(base, tuple(a)), DigitVector(base, tuple(b))


@given(overflow_free_pairs())
def test_add_commutes(pair):
    a, b = pair
    assert add(a, b) == add(b, a)


@given(overflow_free_pairs())
def test_adding_zero_changes_nothing(pair):
    a, _ = pair
    assert add(a, DigitVector(a.base)) == a


@given(overflow_free_pairs(), st.integers(0, 5))
def test_shift_distributes_over_add(pair, offset):
    a, b = pair
    assert shift(add(a, b), offset) == add(shift(a, offset), shift(b, offset))


@st.composite
def addable_triples(draw):
    base = draw(st.integers(3, 7))
    size = draw(st.integers(0, 6))
    cap = (base - 1) // 3
    rows = [
        tuple(draw(st.integers(0, cap)) for _ in range(size)) for _ in range(3)
    ]
    return tuple(DigitVector(base, row) for row in rows)


@given(addable_triples())
def test_add_associates(triple):
    a, b, c = triple
    assert add(add(a, b), c) == add(a, add(b, c))


def test_encode_empty_multiset_is_zero():
    assert not encode_multiset((), 5).pairs


def test_encode_example_two_ones_and_a_three():
    # {1, 1, 3} in base 4 reads 0.201
    assert encode_multiset((1, 1, 3), 4).digits == (2, 0, 1)


def test_encode_rejects_order_at_base():
    with pytest.raises(ValidationError) as exc:
        encode_multiset((1, 1, 1), 3)
    assert exc.value.code == DIGIT_OVERFLOW


@pytest.mark.parametrize(
    "base,max_position,expected_count",
    [(3, 3, 10), (4, 4, 35), (5, 3, 35)],
)
def test_encoding_is_injective_exhaustively(base, max_position, expected_count):
    sets = multisets_up_to(max_position, base - 1)
    assert len(sets) == expected_count
    codes = {encode_multiset(ms, base).digits for ms in sets}
    assert len(codes) == expected_count


def test_block_packing_recovers_each_multiset():
    """Shifting by multiples of the block width keeps codes disjoint, so a
    sum of shifted blocks can be read back segment by segment."""
    base = 5
    block = 4
    parts = [(1, 1), (2, 4), (), (3, 3, 3, 3)]
    total = DigitVector(base)
    for j, ms in enumerate(parts):
        total = add(total, shift(encode_multiset(ms, base), block * j))
    padded = total.digits + (0,) * (block * len(parts) - len(total.digits))
    for j, ms in enumerate(parts):
        segment = padded[block * j : block * j + block]
        want = encode_multiset(ms, base).digits
        assert segment == want + (0,) * (block - len(want))


@given(st.integers(2, 6), st.lists(st.integers(1, 6), max_size=5))
def test_encode_is_order_independent(base, positions):
    from collections import Counter

    counts = Counter(positions)
    if max(counts.values(), default=0) >= base:
        with pytest.raises(ValidationError):
            encode_multiset(positions, base)
        return
    assert encode_multiset(positions, base) == encode_multiset(sorted(positions), base)


@given(st.integers(2, 6), st.lists(st.integers(1, 8), max_size=12))
def test_encode_equals_the_fold_of_single_codes(base, positions):
    """The one-pass counter agrees with summing one code per element, the
    overflow included, and its digits match a dense count made here."""

    def fold():
        acc = DigitVector(base)
        for p in positions:
            acc = add(acc, code_of(p, base))
        return acc

    outcomes = []
    for build in (lambda: encode_multiset(positions, base), fold):
        try:
            outcomes.append(build())
        except ValidationError as exc:
            outcomes.append(exc.code)
    assert outcomes[0] == outcomes[1]
    dense = [0] * max(positions, default=0)
    for p in positions:
        dense[p - 1] += 1
    if max(dense, default=0) >= base:
        assert outcomes[0] == DIGIT_OVERFLOW
        return
    v = outcomes[0]
    assert DigitVector(base, v.digits) == v
    assert list(v.digits) + [0] * (len(dense) - len(v.digits)) == dense


@st.composite
def plan_blocks(draw):
    """Colors in 0..t-1 and a (rows, width) block of an oracle plan: the row
    each depth reads and its base, 0 for a depth that the rule skips."""
    t = draw(st.integers(1, 4))
    rows, width = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    colors = np.array(draw(st.lists(st.integers(0, t - 1), min_size=t, max_size=t)), np.int64)
    cells = st.tuples(st.integers(0, t - 1), st.integers(0, 4))
    block = draw(st.lists(st.lists(cells, min_size=width, max_size=width), min_size=rows, max_size=rows))
    index = np.array([[i for i, _ in row] for row in block], dtype=np.int32)
    base = np.array([[b for _, b in row] for row in block], dtype=np.int32)
    return colors, index, base


@given(plan_blocks())
def test_row_keys_are_equal_exactly_when_codes_are(case):
    """No depth is counted more often than a row is wide, so in base width + 1
    every row has a code, and two keys are equal exactly when the codes of
    the counted depths are."""
    colors, index, base = case
    depths = (colors[index] + base).tolist()
    codes = [
        encode_multiset([d for d, b in zip(row, bases) if b], index.shape[1] + 1)
        for row, bases in zip(depths, base.tolist())
    ]
    keys = _row_keys(colors, index, base)
    assert keys.shape == index.shape
    for (a, ka), (b, kb) in itertools.combinations(zip(codes, keys.tolist()), 2):
        assert (ka == kb) == (a == b)


def test_row_keys_sort_the_counted_depths_after_a_zero_per_skipped_one():
    colors = np.array([2, 0, 1], dtype=np.int64)
    index = np.array([[0, 1, 2, 1]], dtype=np.int32)
    base = np.array([[1, 0, 4, 4]], dtype=np.int32)
    assert _row_keys(colors, index, base).tolist() == [[0, 3, 4, 5]]
