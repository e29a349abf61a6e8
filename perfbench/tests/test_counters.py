"""The hardware counters count this process's work, and repeat."""

import pytest

import counters


def _loop():
    s = 0
    for i in range(200_000):
        s += i * i
    return s


def test_instructions_repeat_and_scale():
    try:
        instr = counters.Counter(counters.INSTRUCTIONS)
    except OSError as exc:
        pytest.skip(f"no hardware counters here: {exc}")
    try:
        counts = []
        for repeats in (1, 1, 2):
            before = instr.read()
            for _ in range(repeats):
                _loop()
            counts.append(instr.read() - before)
    finally:
        instr.close()
    once, again, twice = counts
    assert once > 1_000_000
    assert abs(again - once) < 0.01 * once
    assert abs(twice - 2 * once) < 0.02 * once
