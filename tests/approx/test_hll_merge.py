"""HLL register merge against the element-wise loop it replaces."""

import random

from repro.approx.sketch import HllSketch, sketch_from_bytes, sketch_to_bytes


def reference_merge(mine: bytearray, theirs: bytearray) -> bytearray:
    merged = bytearray(mine)
    for index in range(len(merged)):
        if theirs[index] > merged[index]:
            merged[index] = theirs[index]
    return merged


def filled(precision: int, values) -> HllSketch:
    sketch = HllSketch(precision=precision)
    for value in values:
        sketch.add(value)
    return sketch


def test_merge_equals_the_register_loop():
    rng = random.Random(5)
    for precision in (4, 10, 12, 16):
        left = filled(precision, (rng.random() for _ in range(3_000)))
        right = filled(precision, (rng.random() for _ in range(700)))
        expected = reference_merge(left._registers, right._registers)
        right_before = bytes(right._registers)
        left.merge(right)
        assert left._registers == expected
        assert isinstance(left._registers, bytearray)
        assert bytes(right._registers) == right_before  # other untouched
        assert left.items_added == 3_700


def test_merged_sketch_keeps_its_wire_bytes_and_growth():
    left = filled(12, range(2_000))
    left.merge(filled(12, range(1_000, 4_000)))
    clone = sketch_from_bytes(sketch_to_bytes(left))
    assert clone._registers == left._registers
    before = left.cardinality()
    left.add("one more")  # registers stay writable after a merge
    assert left.cardinality() >= before
