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
def plan_rows(draw):
    """Colors in 0..t-1, an order k, a width n and rows of an oracle plan:
    the own row, then k blocks of n entries in -1..2t-1, where t + i reads
    color i in the adjacent group and -1 is a skipped substitution."""
    t, k, n = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    colors = np.array(draw(st.lists(st.integers(0, t - 1), min_size=t, max_size=t)), np.int64)
    row = st.tuples(
        st.integers(0, t - 1), st.lists(st.integers(-1, 2 * t - 1), min_size=k * n, max_size=k * n)
    )
    rows = [[own, *subs] for own, subs in draw(st.lists(row, min_size=1, max_size=6))]
    # A row with each block permuted has the same code; add some.
    for own, *subs in list(rows):
        if draw(st.booleans()):
            blocks = [subs[j * n : (j + 1) * n] for j in range(k)]
            rows.append([own, *(b[i] for b in blocks for i in draw(st.permutations(range(n))))])
    return colors, np.array(rows, dtype=np.int32), k


def depth_code(colors, plan_row, k):
    """The row's digit code in the depth layout of the code under
    ``delta_kwl``: the own color c at depth c + 1, and at position j a color
    c at depth t (2j + 1) + c + 1 in the adjacent group and t (2j + 2) + c
    + 1 otherwise, with the skipped substitutions left out. No depth is
    counted more often than a row is wide, so base 1 + (1 + k n) never
    overflows."""
    t, n = len(colors), (len(plan_row) - 1) // k
    depths = [int(colors[plan_row[0]]) + 1]
    for column, entry in enumerate(plan_row[1:]):
        if entry >= 0:
            group = 2 * (column // n) + (1 if entry >= t else 2)
            depths.append(t * group + int(colors[entry % t]) + 1)
    return encode_multiset(depths, 1 + len(plan_row))


@given(plan_rows())
def test_row_keys_are_equal_exactly_when_codes_are(case):
    colors, plan, k = case
    codes = [depth_code(colors, row, k) for row in plan.tolist()]
    keys = _row_keys(colors, plan, k)
    assert keys.dtype == np.int32 and keys.shape == plan.shape
    for (a, ka), (b, kb) in itertools.combinations(zip(codes, keys.tolist()), 2):
        assert (ka == kb) == (a == b)


def test_row_keys_sort_each_block_with_skips_first_and_groups_apart():
    """Color 1 read adjacent (plan entry t + 2) and read non-adjacent (entry
    2) land in different groups, and a skipped node (-1) sorts first."""
    colors = np.array([2, 0, 1], dtype=np.int64)
    plan = np.array([[0, 5, -1, 2, 2, 1, -1]], dtype=np.int32)
    assert _row_keys(colors, plan, 2).tolist() == [[2, -1, 1, 4, -1, 0, 1]]
