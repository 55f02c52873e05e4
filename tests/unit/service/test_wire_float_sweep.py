"""A seeded sweep: the vectorised float text is ``float.__repr__``'s, value by value.

``repro.service.numtext`` writes a response's floats as the shortest decimal
that round-trips, in numpy passes, and falls back to ``float.__repr__`` one
value at a time only where it cannot certify the digits.  This sweep checks
more than a million values against ``json.dumps``: correlations (uniform on
[-1, 1]), random bit patterns (every exponent, subnormals, NaN and
infinities), the neighbours of every power of ten and of two the fast path
meets, exact decimal ties (``x.25``, which ``repr`` rounds half-even), and
integers a 16-digit candidate sits exactly half an ulp from.  Plain pytest
on the stdlib plus numpy: CI's numpy-only service job runs this file.
"""

import json

import numpy as np
import pytest

from repro.service.numtext import array_texts, float_tokens

SEED = 20261019


def _neighbours(centres, steps=3):
    """``centres`` and their ``steps`` nearest doubles on each side."""
    out = [centres]
    up = down = centres
    for _ in range(steps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def _sweeps():
    rng = np.random.default_rng(SEED)
    powers = np.arange(-30, 31)
    # Odd m in [2**52, 2**53) over 4: x.25 and x.75 with 16 integer digits,
    # exact ties between two 17-digit candidates.
    ties = (rng.integers(2 ** 51, 2 ** 52, 100_000) * 2 + 1) / 4.0
    # Multiples of 8 in [2**54, 2**55) ending in 2 or 8: the 16-digit
    # candidate is exactly half an ulp away and the mantissa is even.
    on_bound = (rng.integers(2 ** 51, 2 ** 52, 100_000) * 8).astype(np.float64)
    return {
        "uniform": rng.uniform(-1.0, 1.0, 400_000),
        "bit patterns": rng.integers(0, 2 ** 64, 400_000, dtype=np.uint64).view(np.float64),
        "powers of ten": _neighbours(10.0 ** powers, steps=8),
        "powers of two": _neighbours(np.ldexp(1.0, np.arange(-60, 60)), steps=8),
        "decimal ties": ties,
        "half-ulp bound": on_bound[np.isin(on_bound % 10, (2, 8))],
        "signed": -rng.uniform(0.0, 1e6, 100_000) * 10.0 ** rng.integers(-7, 12, 100_000),
    }


SWEEPS = _sweeps()


def test_the_sweep_covers_a_million_values():
    assert sum(len(values) for values in SWEEPS.values()) >= 1_000_000


@pytest.mark.parametrize("name", list(SWEEPS))
def test_every_value_reads_as_json_dumps_writes_it(name):
    values = SWEEPS[name]
    (text,), _ = array_texts([values])
    expected = json.dumps(values.tolist())
    if text.decode() != expected:
        got = text.decode()[1:-1].split(", ")
        wrong = [
            (value, mine, json.dumps(value))
            for value, mine in zip(values.tolist(), got)
            if mine != json.dumps(value)
        ]
        pytest.fail(f"{len(wrong)} values differ, first: {wrong[:5]}")


def test_the_vectorised_path_takes_nearly_every_correlation():
    counts = {}
    float_tokens(SWEEPS["uniform"], counts)
    assert counts["rendered_floats"] == len(SWEEPS["uniform"])
    # Only magnitudes below 1e-6 (and powers of two) leave the fast path.
    values = SWEEPS["uniform"]
    mantissa = values.view(np.uint64) & np.uint64((1 << 52) - 1)
    assert counts["fallback_floats"] == int(
        np.count_nonzero((np.abs(values) < 1e-6) | (mantissa == 0))
    )


def test_powers_of_two_are_spelled_one_at_a_time():
    # Their rounding interval is lopsided (the next double down is half as
    # far), which the symmetric round-trip test does not model: every power
    # of two inside the fast path's range [1e-6, 1e17) takes the fallback.
    values = np.ldexp(1.0, np.arange(-19, 57))
    assert values.min() >= 1e-6 and values.max() < 1e17
    counts = {}
    float_tokens(np.concatenate([values, -values]), counts)
    assert counts == {"rendered_floats": 2 * len(values), "fallback_floats": 2 * len(values)}
