"""CSV cells from the array kernel: the bytes of '%.17g' % x, value for value.

dephasing.write_csv hands a chunk of at least _CSV_KERNEL_ROWS rows to
_format_cells, which forms each cell's 17 digits with double-double
arithmetic and lays them out with %g's rules.  The '%' line it replaces is
the oracle here, over more than a million values of every class where a
printer can go wrong, and rational arithmetic checks the digits directly.
"""

import functools
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import sidephase
from sidephase import dephasing
from sidephase.dephasing import write_csv

SRC = os.path.dirname(os.path.dirname(os.path.abspath(sidephase.__file__)))
HEADER = ("a", "b", "c")


def percent_line(columns) -> str:
    """The table as the '%' line writes it, cell by cell."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    cells = np.column_stack(columns)
    return ",".join(HEADER[: len(columns)]) + "\n" + row * len(cells) % tuple(cells.ravel().tolist())


def written(columns) -> str:
    buf = io.StringIO()
    write_csv(buf, HEADER[: len(columns)], *columns)
    return buf.getvalue()


def convergents(a: Fraction):
    """The continued-fraction convergents (num, den) of a > 0."""
    h0, h1, k0, k1 = 0, 1, 1, 0
    while True:
        q = math.floor(a)
        h0, h1 = h1, q * h1 + h0
        k0, k1 = k1, q * k1 + k0
        yield h1, k1
        if a == q:
            return
        a = 1 / (a - q)


def near_ties(exponents) -> list[float]:
    """x with |x| 10^(16 - e) within 1e-15 of a half-integer, not on it.

    x = M 2^s with a 53-bit M; M 2^(s+1) 10^p near an odd integer comes
    from a convergent of 2^(s+1) 10^p with an odd numerator.
    """
    ties = []
    for e in exponents:
        s = math.floor((e + 0.5) * math.log2(10)) - 52
        ratio = Fraction(2) ** (s + 1) * Fraction(10) ** (16 - e)
        for num, den in convergents(ratio):
            if den >= 2 ** 53:
                break
            j = -(-(2 ** 52) // den) | 1
            if num % 2 == 0 or j * den >= 2 ** 53:
                continue
            x = math.ldexp(j * den, s)
            scaled = Fraction(x) * Fraction(10) ** (16 - e)
            if abs(scaled - math.floor(scaled) - Fraction(1, 2)) < Fraction(1, 10 ** 15):
                ties.append(x)
    return ties


NEAR_TIES = near_ties(list(range(-260, -6, 3)) + list(range(17, 260, 3)))
CLASSES = ("bits", "magnitudes", "integers", "eighths", "profile", "powers", "ties")
POWERS = np.array([float(f"1e{k}") for k in range(-300, 300)])


@functools.cache
def value_classes() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(20261018)
    t = np.linspace(0.0, 4e-3, 100_001)
    gamma = 0.5 * 1.227826056654865e6 * t * t
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 1234567890123456.75, 1234567890123456.25]
    return {
        # Every bit pattern: subnormals, NaNs and infinities included.
        "bits": rng.integers(0, 2 ** 64 - 1, 450_000, dtype=np.uint64, endpoint=True).view(np.float64),
        "magnitudes": rng.choice([-1.0, 1.0], 240_000) * 2.0 ** rng.uniform(-1074, 1024, 240_000),
        "integers": rng.integers(0, 10 ** 17, 120_000, endpoint=True).astype(np.float64),
        "eighths": rng.integers(-(2 ** 40), 2 ** 40, 120_000) / 8.0,
        "profile": np.concatenate([t, gamma, np.exp(-gamma), t * 2.5, t * 1e-3]),
        "powers": np.concatenate([POWERS, np.nextafter(POWERS, 0.0), np.nextafter(POWERS, math.inf)]),
        # Repeated to fill a table of more than _CSV_KERNEL_ROWS rows.
        "ties": np.resize(np.array(NEAR_TIES + special), 3000),
    }


def test_value_classes_cover_a_million_values():
    classes = value_classes()
    assert tuple(classes) == CLASSES
    assert sum(values.size for values in classes.values()) > 1_000_000
    assert len(NEAR_TIES) > 100


@pytest.mark.parametrize("name", CLASSES)
def test_cells_are_the_percent_line(name):
    values = value_classes()[name]
    values = values[: values.size // 3 * 3].reshape(3, -1)
    assert values.shape[1] >= dephasing._CSV_KERNEL_ROWS
    assert written(list(values)) == percent_line(list(values))


def exact_digits(x: float) -> tuple[int, int, Fraction]:
    """D = round(|x| 10^(16 - e)) half to even, e, and the scaled value."""
    value = abs(Fraction(x))
    e = math.floor(math.log10(abs(x)))
    while value >= Fraction(10) ** (e + 1):
        e += 1
    while value < Fraction(10) ** e:
        e -= 1
    scaled = value * Fraction(10) ** (16 - e)
    return round(scaled), e, scaled


def test_significands_are_correctly_rounded():
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2 ** 63, 4000, dtype=np.uint64).view(np.float64)
    sample = np.concatenate([
        bits[np.isfinite(bits) & (bits != 0.0)],
        10.0 ** rng.uniform(-20, 20, 2000),
        POWERS, np.nextafter(POWERS, 0.0), np.nextafter(POWERS, math.inf),
        np.array(NEAR_TIES), np.array([1234567890123456.75, 1234567890123456.25]),
    ])
    d, e, exact = dephasing._significands(sample)
    for x, got_d, got_e, got_exact in zip(sample.tolist(), d.tolist(), e.tolist(), exact.tolist()):
        true_d, true_e, scaled = exact_digits(x)
        if got_exact:
            assert (got_d, got_e) == (true_d, true_e), x
            continue
        # Only these may be left to '%': outside the kernel's range, within
        # twice the margin of a tie, or with D near 10^16 or 10^17.
        tie = abs(scaled - math.floor(scaled) - Fraction(1, 2)) < 2 * dephasing._HALF_MARGIN
        edge = not 10 ** 16 < true_d < 10 ** 17 - 8
        assert not 1e-270 <= x < 1e270 or tie or edge, x
    assert exact.sum() > 0.8 * sample.size


def test_log10_off_by_one_is_corrected():
    # One ulp below 10^k, log10 rounds up to k in most cases; the kernel
    # must still form those digits itself, not hand them to '%'.
    below = np.nextafter(POWERS[(POWERS >= 1e-269) & (POWERS < 1e269)], 0.0)
    rounded_up = np.floor(np.log10(below)) != [exact_digits(x)[1] for x in below.tolist()]
    assert rounded_up.sum() > 400
    d, e, exact = dephasing._significands(below[rounded_up])
    ties = [exact_digits(x)[2].denominator == 2 for x in below[rounded_up].tolist()]
    assert (exact | ties).all()


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_tables_at_the_crossover(monkeypatch, offset):
    rows = dephasing._CSV_KERNEL_ROWS + offset
    calls = []
    kernel = dephasing._format_cells
    monkeypatch.setattr(dephasing, "_format_cells", lambda cells: calls.append(len(cells)) or kernel(cells))
    rng = np.random.default_rng(rows)
    columns = [np.linspace(0.0, 1e-3, rows), rng.standard_normal(rows), 10.0 ** rng.uniform(-9, 9, rows)]
    assert written(columns) == percent_line(columns)
    assert calls == ([rows] if offset >= 0 else [])


def test_chunks_on_both_paths():
    # A first chunk through the kernel, a last one below the crossover.
    rows = dephasing._CSV_CHUNK + dephasing._CSV_KERNEL_ROWS - 1
    t = np.linspace(0.0, 2e-3, rows)
    columns = [t, 3000.0 * t * t, np.exp(-3000.0 * t * t)]
    assert written(columns) == percent_line(columns)


@pytest.mark.parametrize(
    "rows",
    [
        dephasing._CSV_CHUNK + 1,
        dephasing._CSV_CHUNK + dephasing._CSV_KERNEL_ROWS,
        3 * dephasing._CSV_CHUNK - 1,
    ],
)
def test_short_last_chunk_holds_no_stale_row(rows):
    # Every column changes from chunk to chunk, so a row left over from the
    # chunk before would show in the last, shorter one.
    chunk = np.arange(rows) // dephasing._CSV_CHUNK
    t = np.linspace(0.0, 1e-3, rows)
    columns = [t, chunk * 1e3 + np.random.default_rng(rows).standard_normal(rows), -t]
    assert written(columns) == percent_line(columns)


RUN = """\
import contextlib, io, json, sys
from sidephase import cli, dephasing
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, dephasing._cell_tables.cache_info().currsize]))
"""


@pytest.mark.parametrize(
    "argv,built",
    [
        (["sweep", "--channel", "hyperfine", "--param", "tau1", "--grid", "1:1e4:48:log"], 0),
        (["channel", "hyperfine"], 0),
        (["channel", "hyperfine", "--t-max", "0.004", "--t-points", "20001"], 1),
    ],
)
def test_tables_are_built_only_for_a_large_table(tmp_path, argv, built):
    out = str(tmp_path / "out.csv")
    argv = argv + (["--out", out] if argv[0] == "sweep" else [])
    if "--t-points" in argv:
        argv += ["--profile-out", out]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", RUN, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, built]


def slot_counts(monkeypatch) -> list[int]:
    """Record the slots per cell of each chunk _format_cells lays out.

    The kernel's text array is a uint8 np.empty of one row per slot; its
    other uint8 np.empty, of 17 rows, holds the digits.
    """
    counts = []
    empty = np.empty

    def spy(shape, dtype=float, *args, **kwargs):
        if np.dtype(dtype) == np.uint8 and len(shape) == 2 and shape[0] != 17:
            counts.append(shape[0])
        return empty(shape, dtype, *args, **kwargs)

    monkeypatch.setattr(np, "empty", spy)
    return counts


FIXED = np.linspace(1e-3, 2e-3, 300)  # no cell in scientific notation


def test_chunk_without_exponents_holds_the_longest_fallbacks(monkeypatch):
    # 24 characters, the longest '%.17g' string, fit the 25-slot layout.
    longest = [-1.7976931348623157e308, -2.2250738585072014e-308, -0.0, math.nan]
    column = FIXED.copy()
    column[::7] = np.resize(longest, column[::7].size)
    columns = [FIXED, column, -FIXED]
    counts = slot_counts(monkeypatch)
    assert written(columns) == percent_line(columns)
    assert counts == [dephasing._CELL_WIDTH - 5]


def test_chunk_whose_last_cell_alone_is_scientific(monkeypatch):
    last = FIXED.copy()
    last[-1] = -1.25e-200
    assert dephasing._significands(np.abs(last))[2][-1]  # not left to '%'
    columns = [FIXED, 2.0 * FIXED, last]
    counts = slot_counts(monkeypatch)
    text = written(columns)
    assert text == percent_line(columns)
    assert text.endswith(",-1.25e-200\n")
    assert counts == [dephasing._CELL_WIDTH]


def test_slots_per_cell_change_from_chunk_to_chunk(monkeypatch):
    rows = 3 * dephasing._CSV_CHUNK
    t = np.linspace(0.1, 0.2, rows)
    middle = t.copy()
    middle[dephasing._CSV_CHUNK + 5::97][:20] = 1.5 * 10.0 ** np.arange(17, 37)
    columns = [t, middle, 1.0 - t]
    counts = slot_counts(monkeypatch)
    assert written(columns) == percent_line(columns)
    wide, narrow = dephasing._CELL_WIDTH, dephasing._CELL_WIDTH - 5
    assert counts == [narrow, wide, narrow]


def test_dot_at_every_position():
    # Decimal exponent e from -4 (0.000ddd, point -1) to 16 (point 16):
    # without a fraction (d 10^e), and with one where 17 digits allow it.
    values = []
    for e in range(-4, 17):
        power = float(f"1e{e}")
        values += [power, 7.0 * power, 1.25 * power, np.nextafter(power, math.inf)]
        if 0 <= e <= 15:
            values += [power + 0.5, 3.0 * power + 0.25]
    values = np.array(values + [-v for v in values])
    table = np.resize(values, (3, 3 * values.size))
    exponents = dephasing._significands(np.abs(values))[1]
    assert set(exponents.tolist()) == set(range(-4, 17))
    assert written(list(table)) == percent_line(list(table))


def test_digits_ending_in_zero_groups():
    # Integers of 1 to 13 significant digits, times powers of ten or
    # halved: D ends in exactly one, two, three or four 4-digit groups 0000.
    digits = "12345678901234567"
    values = []
    for width in (13, 12, 9, 8, 5, 4, 1):
        for lead in (digits, digits[::-1], "9" * 17):
            whole = int(lead[:width])
            values += [float(whole * 10 ** k) for k in range(0, 17 - width)]
            values += [whole / 2.0 ** k for k in (1, 3, 10)]
    values = np.array(values + [-v for v in values])
    d, _, exact = dephasing._significands(np.abs(values))
    zero_groups = {max(k for k in range(5) if v % 10 ** (4 * k) == 0) for v in d[exact].tolist()}
    assert zero_groups == {0, 1, 2, 3, 4}
    table = np.resize(values, (3, max(values.size, dephasing._CSV_KERNEL_ROWS)))
    assert written(list(table)) == percent_line(list(table))
