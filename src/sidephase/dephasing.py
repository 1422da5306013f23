"""Dephasing functional for Gaussian noise with exponential correlation.

For frequency noise with autocorrelation <dw(0) dw(t)> = variance *
exp(-|t|/tau_c), the coherence envelope is exp(-Gamma(t)) with

    Gamma(t) = variance * tau_c^2 * (t/tau_c - 1 + exp(-t/tau_c)).

The static limit (tau_c -> inf) is Gamma = variance t^2 / 2 and the
motional-narrowing limit is Gamma = variance tau_c t.

gamma_exact, coherence_envelope and the profile writer also take float64
arrays and give the same bits as the float path element by element:
numpy's + - * / round exactly as Python floats do, and the libm calls
(exp, expm1) go through math, because numpy's own versions differ
from them in the last bit.  Only a positive normal scale variance*tau_c^2
is vectorized; other scales run the float path.  Both paths sum the
kernel's small-x series in one function, _series.  numpy is imported where
arrays are first made, so the float path, and the closed-form reports built
on it, run without it.

The unit-gamma time solves Gamma(t) = 1, whose root has a closed form
through the Lambert W function (Corless et al., Adv. Comput. Math. 5, 329
(1996)).  decoherence_time finds it by Newton's method, then replays its
1e-9 bisection against it: the bisection's bits, with Gamma evaluated only
where rounding could decide a step.

write_csv writes every CSV table, each cell as '%.17g' % x.  A chunk of at
least _CSV_KERNEL_ROWS rows gets those bytes from array arithmetic instead
(_format_cells): each 17-digit significand round(|x| 10^(16 - e)) comes
from Dekker's error-free product (Numer. Math. 18, 224 (1971)) with a
double-double table of powers of ten, as fixed-precision printers such as
Ryu printf form them with wide integers (Adams, OOPSLA 2019), and is laid
out in fixed ASCII slots by %g's rules: 30 per cell, or 25 in a chunk with
no cell in scientific notation, which needs no 'e+NNN' slots.  A cell
whose rounding the kernel cannot decide exactly is formatted by '%'
itself, so the bytes are those of '%' by construction.  The kernel's
tables are built on its first call.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence, TextIO

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ExponentialCorrelation",
    "DecoherenceProfile",
    "gamma_exact",
    "gamma_static",
    "coherence_envelope",
    "decoherence_time",
    "build_profile",
    "bisect_increasing",
    "bisect_from",
    "check_profile",
    "write_csv",
    "write_profile_csv",
    "CONVENTIONS",
]

# Decoherence-time conventions, see decoherence_time.
CONVENTIONS = ("static", "markovian", "unit-gamma")

# Below this x = t/tau_c, where x^2 may underflow, an overflowing scale's
# Gamma is formed as variance t^2 (1/2 - x/6 + x^2/24); its truncation
# error there is ~1e-20 relative.
_SERIES_SWITCH = 1e-6
# Below this x the kernel x - 1 + exp(-x) is summed as a series.
_KERNEL_SWITCH = 0.05
# The series' divisors -n for terms n = 3..11, as floats: x / -n has the
# bits of -x / n without an int conversion or a negation per term.
_SERIES_DIVISORS = tuple(-float(n) for n in range(3, 12))
# The unit-gamma Newton run stops once a step moves x by at most this
# (relative), and gives up after this many steps.  Near x = 0.05 the
# kernel's rounding alone moves steps by ~2e-15, so a tighter stop could
# cycle; the step after one this small leaves the root good to ~1e-15.
_NEWTON_RTOL = 1e-13
_NEWTON_STEPS = 40
# Within this relative distance of the Newton root the bisection evaluates
# Gamma; farther out its rounding (~1e-15) cannot flip the sign of Gamma - 1.
_ROOT_BAND = 1e-11
# CSV rows formatted per write; bounds the text held at once.
_CSV_CHUNK = 4096
# Chunks of at least this many rows are formatted by _format_cells; below
# it, building the kernel's arrays costs more than '%.17g' cell by cell.
_CSV_KERNEL_ROWS = 256
# Dekker's splitter 2^27 + 1, the decimal exponents _format_cells handles
# (|x| in [1e-270, 1e270), with one step of log10 correction either way),
# and its margin around a rounding tie, far above the ~2e-15 error of the
# double-double tail.
_SPLITTER = 134217729.0
_CELL_E_MIN, _CELL_E_MAX = -272, 271
_HALF_MARGIN = 2.0 ** -30
# Slots per cell: sign, '0.000', 17 digits and a dot, 'e+NNN', terminator.
# A chunk with no scientific cell leaves out the 5 exponent slots: the
# longest '%.17g' string, such as -1.7976931348623157e+308, is 24
# characters, so a cell written by '%' still fits before the terminator.
_CELL_WIDTH = 30


@dataclass(frozen=True)
class ExponentialCorrelation:
    """Noise spectrum: variance in (rad/s)^2, correlation time in s.

    tau_c = math.inf flags static (frozen) noise and routes the functional
    to the quadratic closed form, avoiding inf arithmetic.
    """

    variance: float
    tau_c: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.variance < math.inf:
            raise ValueError("variance must be finite and nonnegative")
        if not self.tau_c > 0.0:
            raise ValueError("tau_c must be positive (math.inf for static noise)")

    @property
    def is_static(self) -> bool:
        return math.isinf(self.tau_c)


def _gamma_kernel(x):
    """x - 1 + exp(-x), accurate to ~1e-15 relative for all x >= 0.

    Plain x + expm1(-x) keeps only ~x/eps digits once x is small, so
    below 0.05 the series of _series is summed instead.
    """
    if x < _KERNEL_SWITCH:
        return _series(x)
    return x + math.expm1(-x)


def _series(x):
    """sum_{n>=2} (-x)^n/n! for 0 <= x < 0.05, a float or an array.

    Terms n = 2..11 are summed with no convergence test.  A stop at the
    first term within 1e-17 of the total gives the same bits: such a term,
    and every smaller one after it, is under half an ulp of the total and
    leaves the rounded sum unchanged; and at x < 0.05 term 11 is already
    below 1e-19 of the total, so every x reaches that stop by n = 11.

    The first term is x * x / 2.0, rounded as in the quartic
    x^2/2 - x^3/6 + x^4/24, so below x = 1e-6 the sum gives the quartic's
    bits.  0.5 * x * x rounds alike while x^2 is a normal float, but where
    x^2 is subnormal (x below ~1.5e-154, where the later terms vanish) it
    rounds once, not twice, and can differ from the quartic by an ulp.
    """
    term = x * x / 2.0
    total = term
    for n in _SERIES_DIVISORS:
        term = term * (x / n)
        total = total + term
    return total


def _is_normal(value: float) -> bool:
    """Whether value is a positive normal float."""
    return sys.float_info.min <= value < math.inf


def _reciprocal(*factors: float) -> float:
    """1/(f1 f2 ...) of positive finite floats, rounded once.

    The quotient of the factors' exact integer ratios, so no product of
    the factors under- or overflows on the way: inf where it exceeds the
    largest float.
    """
    ratios = [factor.as_integer_ratio() for factor in factors]
    try:
        return math.prod(d for _, d in ratios) / math.prod(n for n, _ in ratios)
    except OverflowError:
        return math.inf


def _is_array(value) -> bool:
    """Whether value is an ndarray; none can exist before numpy is loaded."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(value, np.ndarray)


def _libm(func, values: np.ndarray) -> np.ndarray:
    """func from math applied element by element, for float-path bits."""
    import numpy as np

    flat = map(func, values.ravel().tolist())
    return np.fromiter(flat, np.float64, values.size).reshape(values.shape)


def _gamma_array(correlation: ExponentialCorrelation, t: np.ndarray) -> np.ndarray:
    """gamma_exact for each element of t, vectorized for a normal scale.

    The kernel's series takes the whole array when every t/tau_c is below
    _KERNEL_SWITCH; otherwise masks split it from the closed form.
    Static noise and a zero, subnormal or overflowing scale take the float path.
    """
    import numpy as np

    if not (t >= 0.0).all():  # NaN too
        raise ValueError("t must be nonnegative")
    shape = t.shape
    t = np.asarray(t, dtype=np.float64).ravel()
    scale = correlation.variance * correlation.tau_c * correlation.tau_c
    if not _is_normal(scale):
        return _libm(lambda v: gamma_exact(correlation, v), t).reshape(shape)
    with np.errstate(over="ignore", invalid="ignore"):
        x = t / correlation.tau_c
        if not x.size or x.max() < _KERNEL_SWITCH:
            kernel = _series(x)
        else:
            kernel = np.empty_like(x)
            small = x < _KERNEL_SWITCH
            closed = ~small
            kernel[small] = _series(x[small])
            xc = x[closed]
            kernel[closed] = xc + _libm(math.expm1, -xc)
        if scale > 2.0:
            # As in the float path; only the lost cells are formed from x.
            lost = np.flatnonzero(kernel < sys.float_info.min)
            kernel *= scale
            kernel[lost] = 0.5 * scale * x[lost] * x[lost]
        else:
            kernel *= scale
        return kernel.reshape(shape)


def gamma_static(correlation: ExponentialCorrelation, t: float) -> float:
    """Frozen-noise limit: variance * t^2 / 2."""
    if not t >= 0.0:  # NaN too
        raise ValueError("t must be nonnegative")
    return 0.5 * correlation.variance * t * t


def gamma_exact(correlation: ExponentialCorrelation, t):
    """Dephasing exponent Gamma(t) for the exponential correlation.

    t is a float, or an array evaluated element by element with the float
    path's bits.  Where the kernel x - 1 + exp(-x) of x = t/tau_c falls
    below the normal float range (x below about 2e-154) under a normal
    scale above 2, Gamma is formed as scale x^2 / 2, which keeps the
    digits the kernel loses (all of them below x ~ 1e-162); a scale of at
    most 2 cannot magnify that loss past an ulp of Gamma.  Where the scale
    variance * tau_c^2 is not a positive normal float, Gamma is formed
    without it, and so is never NaN:
    - if it overflows and x = t/tau_c < 1e-6 (the quasi-static side, where
      x^2 may underflow), as variance t^2 (1/2 - x/6 + x^2/24);
    - if x overflows (tau_c far below t), as
      (variance tau_c) (t - tau_c), the kernel's limit x - 1;
    - otherwise as (variance tau_c) (tau_c kernel(x)), which keeps the
      digits that a zero or subnormal scale loses.
    Where the rate variance * tau_c is itself below the normal range, its
    significands are multiplied with the last factor and its exponents
    applied at the end, so Gamma keeps its digits there too.
    Gamma(0) is 0.
    """
    # A Python float, as in the unit-gamma bisection's calls, skips
    # the slower array test.
    if type(t) is not float and _is_array(t):
        return _gamma_array(correlation, t)
    if not t >= 0.0:  # NaN too
        raise ValueError("t must be nonnegative")
    if correlation.is_static:
        return gamma_static(correlation, t)
    tau_c = correlation.tau_c
    x = t / tau_c
    scale = correlation.variance * tau_c * tau_c
    if _is_normal(scale):
        kernel = _gamma_kernel(x)
        # A kernel below the normal range has lost digits, which a scale
        # above 2 would magnify past an ulp of Gamma; there the x^3 term is
        # nil and Gamma is formed as scale x^2 / 2.
        return scale * kernel if _is_normal(kernel) or scale <= 2.0 else 0.5 * scale * x * x
    if scale == math.inf and x < _SERIES_SWITCH:
        return correlation.variance * t * t * (0.5 - x / 6.0 + x * x / 24.0)
    factor = t - tau_c if x == math.inf else tau_c * _gamma_kernel(x)
    rate = correlation.variance * tau_c
    if rate >= sys.float_info.min:
        return rate * factor
    # The rate has lost digits below the normal range; its factors' have not.
    (m_variance, e_variance), (m_tau, e_tau) = math.frexp(correlation.variance), math.frexp(tau_c)
    return math.ldexp(m_variance * m_tau * factor, e_variance + e_tau)


def coherence_envelope(correlation: ExponentialCorrelation, t):
    """exp(-Gamma(t)), for a float or an array as in gamma_exact."""
    if _is_array(t):
        return _libm(math.exp, -gamma_exact(correlation, t))
    return math.exp(-gamma_exact(correlation, t))


def bisect_increasing(func, lo: float, hi: float, rtol: float) -> float:
    """Root of an increasing func on [lo, hi] by bisection.

    Requires func(lo) <= 0 <= func(hi), which a NaN at either end fails;
    converges to rtol relative width, or stops after 200 halvings.
    """
    return _bisect(func, lo, hi, rtol, -math.inf, math.inf, grow=False)


def bisect_from(func, start: float, rtol: float) -> float:
    """Root of an increasing func on [0, inf) with func(0) <= 0.

    start is doubled until func >= 0 there (a NaN also stops it), and
    bisect_increasing runs on [0, that point].  A doubling that reaches inf
    returns inf: the root is beyond float range.
    """
    return _bisect(func, 0.0, start, rtol, -math.inf, math.inf, grow=True)


def _bisect(func, lo, hi, rtol, below, above, grow):
    """bisect_increasing on [lo, hi], after bisect_from's doubling of hi if grow.

    Every step at t < below is taken as func(t) < 0, and every step at
    t > above as func(t) > 0; func is called only between the edges, or
    at every step where they are -inf and inf, or NaN.  A NaN from func
    counts as func >= 0.
    """
    while grow and (hi < below or not hi > above and func(hi) < 0.0):
        hi *= 2.0
    if grow and hi == math.inf:
        return math.inf
    lo_ok = lo < below or not lo > above and func(lo) <= 0.0
    hi_ok = hi > above or not hi < below and func(hi) >= 0.0
    if not (lo_ok and hi_ok):
        raise ValueError("root is not bracketed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= rtol * mid:
            return mid
        if mid < below or not mid > above and func(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def decoherence_time(
    correlation: ExponentialCorrelation,
    convention: str = "static",
) -> float:
    """Decoherence time under one of three conventions.

    static      : variance^(-1/2)
    markovian   : (variance * tau_c)^(-1), rounded once also where the
                  rate is subnormal, or above 1/sys.float_info.min
                  (about 4.49e307, where the time is subnormal) up to
                  inf; rejected for static noise
    unit-gamma  : the t solving Gamma(t) = 1, bisected to 1e-9 relative

    Zero variance returns math.inf under every convention, and so does a
    rate variance * tau_c that underflows to 0 (markovian and unit-gamma).

    unit-gamma returns the 1e-9 bisection's result: bisect_from on
    Gamma(t) - 1 from t = variance^(-1/2) with rtol 1e-9, replayed by the
    same loop against root, a Newton root of Gamma = 1.  A step at t below
    root - 1e-11 root is short and one above root + 1e-11 root is long,
    decided with no call; only between those edges, where Gamma's rounding
    could decide the step, is Gamma evaluated.  The steps, and so the
    result, are those of a bisection that evaluates Gamma at every step;
    Gamma is evaluated about 1.1 times in ten solves (306 times in the
    2,697 solves of the benchmark's sweep iteration) instead of ~35 times
    per solve.  Where _unit_gamma_root finds none (a variance or, unless
    the noise is static, a scale variance tau_c^2 that is not a positive
    normal float, or a Newton run that does not settle), root and the
    edges are NaN and Gamma is evaluated at every step.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention: {convention!r}")
    if correlation.variance == 0.0:
        return math.inf
    if convention == "static":
        return correlation.variance ** -0.5
    rate = correlation.variance * correlation.tau_c
    if convention == "markovian":
        if correlation.is_static:
            raise ValueError("markovian convention is undefined for static noise")
        if sys.float_info.min <= rate <= 1.0 / sys.float_info.min:
            return 1.0 / rate
        # The rate has lost digits below the normal range, or its reciprocal
        # would lose them there; the factors' exact ratios have not.
        return _reciprocal(correlation.variance, correlation.tau_c)
    if rate == 0.0:
        # Gamma(t) < variance tau_c t, below 5e-324 t, is under 1 at every finite t.
        return math.inf
    # unit-gamma: Gamma is strictly increasing and unbounded, so a bracket
    # always exists; start from the static-limit guess and expand.
    root = _unit_gamma_root(correlation)
    if root is None:
        # No comparison with NaN is true, so every step evaluates Gamma:
        # those are the plain bisection's steps.
        root = math.nan
    # Farther from the root than Gamma's rounding can move it, the sign of
    # Gamma(t) - 1 is the sign of t - root.
    edges = root - _ROOT_BAND * root, root + _ROOT_BAND * root
    start = correlation.variance ** -0.5
    return _bisect(lambda t: gamma_exact(correlation, t) - 1.0, 0.0, start, 1e-9, *edges, grow=True)


def _unit_gamma_root(correlation: ExponentialCorrelation) -> float | None:
    """The t solving Gamma(t) = 1 to about 1e-15 relative, or None.

    Static noise has the root sqrt(2/variance).  Otherwise Newton solves
    log kernel(x) = -log(variance tau_c^2) in log x, where x = t/tau_c.
    log kernel is concave in log x, so the steps climb monotonically from
    the lower bound x = sqrt(2/(variance tau_c^2)), from kernel(x) <= x^2/2.
    None (plain bisection) for a variance or, unless the noise is static,
    a scale variance tau_c^2 that is not a positive normal float, and
    for a Newton run that does not settle.
    """
    variance = correlation.variance
    if not _is_normal(variance):
        return None
    if correlation.is_static:
        return math.sqrt(2.0 / variance)
    tau_c = correlation.tau_c
    scale = variance * tau_c * tau_c
    if not _is_normal(scale):
        return None
    x = math.sqrt(2.0 / scale)
    for _ in range(_NEWTON_STEPS):
        kernel = _gamma_kernel(x)
        slope = x * -math.expm1(-x) / kernel
        step = x * (scale * kernel) ** (-1.0 / slope) - x
        x += step
        if abs(step) <= _NEWTON_RTOL * x:
            root = x * tau_c
            return root if math.isfinite(root) else None
    return None


def check_profile(times: np.ndarray, gamma_values: np.ndarray) -> None:
    """Reject a Gamma(t) profile that is not a valid table.

    Times must be nonnegative and increasing, and Gamma nonnegative and
    nondecreasing to within 1e-15; NaN in either is rejected.
    """
    import numpy as np

    if times.shape != gamma_values.shape:
        raise ValueError("times and gamma_values must have equal length")
    if np.isnan(times).any() or np.isnan(gamma_values).any():
        raise ValueError("times and gamma_values must not be NaN")
    if (times < 0.0).any() or (times[1:] <= times[:-1]).any():
        raise ValueError("times must be nonnegative and increasing")
    if (gamma_values < 0.0).any():
        raise ValueError("gamma_values must be nonnegative")
    if (gamma_values[1:] < gamma_values[:-1] - 1e-15).any():
        raise ValueError("gamma_values must be nondecreasing")


def write_csv(stream: TextIO, header: Sequence[str], *columns) -> None:
    """Write the header, then rows of one %.17g cell per column, by chunks.

    Every CSV table is written here: bools are written as 1/0, infinities as inf.
    A chunk of at least _CSV_KERNEL_ROWS rows takes its cells from
    _format_cells, which gives the bytes of '%.17g' % x with array
    arithmetic; a smaller chunk is formatted by '%' cell by cell.
    """
    import numpy as np

    stream.write(",".join(header) + "\n")
    columns = [np.asarray(column, dtype=np.float64) for column in columns]
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    for lo in range(0, len(columns[0]), _CSV_CHUNK):
        cells = np.column_stack([column[lo:lo + _CSV_CHUNK] for column in columns])
        if len(cells) >= _CSV_KERNEL_ROWS:
            stream.write(_format_cells(cells))
        else:
            stream.write(row * len(cells) % tuple(cells.ravel().tolist()))


@functools.cache
def _cell_tables() -> tuple[np.ndarray, ...]:
    """The read-only tables of _format_cells, built on its first call.

    For each decimal exponent e of the kernel (index e - _CELL_E_MIN), 10^p
    with p = 16 - e as a double-double hi + lo (hi correctly rounded, lo the
    correctly rounded remainder), and hi's Dekker halves; the ASCII of
    0000..9999 as one uint32 each; and the number of trailing zeros of each
    4-digit group (4 for 0000).
    """
    import numpy as np

    hi, lo = [], []
    for e in range(_CELL_E_MIN, _CELL_E_MAX + 1):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        head = num / den
        n, d = head.as_integer_ratio()
        hi.append(head)
        lo.append((num * d - n * den) / (den * d))
    hi, lo = np.array(hi), np.array(lo)
    hi_head = _SPLITTER * hi - (_SPLITTER * hi - hi)
    group = np.arange(10000, dtype=np.int16)
    ascii_groups = np.empty((10000, 4), np.uint8)
    zeros = np.zeros(10000, np.int8)
    for k in range(4):
        ascii_groups[:, 3 - k] = group // 10 ** k % 10 + ord("0")
        zeros += group % 10 ** (k + 1) == 0
    tables = (hi, lo, hi_head, hi - hi_head, ascii_groups.view(np.uint32).ravel(), zeros)
    for table in tables:
        table.setflags(write=False)
    return tables


def _scaled(m: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """m 10^(16 - e) rounded to an integer d, and the fraction that decided it.

    Dekker's two-product (Numer. Math. 18, 224 (1971)) gives the error of
    head = fl(m hi) exactly, and m lo adds the table's remainder, so
    head + tail is m 10^p to within about 2e-15 once it is near 10^16 to
    10^17.  There head is an integer (10^16 > 2^53), and d rounds the tail
    up where its fraction is above 1/2.
    """
    import numpy as np

    row = e - _CELL_E_MIN
    hi, lo, hi_head, hi_tail = (table[row] for table in _cell_tables()[:4])
    head = m * hi
    split = _SPLITTER * m
    m_head = split - (split - m)
    m_tail = m - m_head
    error = ((m_head * hi_head - head) + m_head * hi_tail + m_tail * hi_head) + m_tail * hi_tail
    tail = error + m * lo
    whole = np.floor(tail)
    fraction = tail - whole
    d = head.astype(np.int64) + whole.astype(np.int64) + (fraction > 0.5)
    return d, fraction


def _significands(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D = round(m 10^(16 - e)) and the decimal exponent e of each m >= 0.

    e comes from log10, corrected by one where D lands outside
    [10^16, 10^17), as it can near a power of ten.  The rounding of
    _scaled is exact wherever its fraction is not within _HALF_MARGIN of
    1/2.  exact marks the cells where D is then the correctly rounded
    significand with 10^16 < D < 10^17; it is False for m = 0, inf or NaN,
    m outside [1e-270, 1e270), a near tie, and D at 10^16 or 10^17, where
    rounding may have crossed a power of ten.  There D is 10^16 + 1, a
    placeholder.
    """
    import numpy as np

    exact = (m >= 1e-270) & (m < 1e270)
    m = np.where(exact, m, 1.0)
    e = np.floor(np.log10(m)).astype(np.int64)
    d, fraction = _scaled(m, e)
    off = (d >= 10**17).astype(np.int64) - (d < 10**16)
    redo = np.flatnonzero(off)
    if redo.size:
        e[redo] += off[redo]
        d[redo], fraction[redo] = _scaled(m[redo], e[redo])
    exact &= (np.abs(fraction - 0.5) >= _HALF_MARGIN) & (d > 10**16) & (d < 10**17)
    d[~exact] = 10**16 + 1
    return d, e, exact


def _format_cells(cells: np.ndarray) -> str:
    """The rows of cells as CSV text, each cell the bytes of '%.17g' % x.

    _significands gives each cell's 17 digits and decimal exponent e.  The
    ASCII goes into fixed slots per cell (sign, the '0.000' of
    1e-4 <= |x| < 1, 17 digits and one dot slot, 'e+NNN', terminator),
    laid out by %g's rules: fixed notation for -4 <= e < 17, trailing
    fraction zeros and a bare dot dropped, two exponent digits at least.
    Work that only some cells need is done for those cells alone: the
    trailing-zero walk past a last digit group of 0000, the dot, and the
    exponent, whose 5 slots a chunk with no scientific cell leaves out
    (25 slots per cell instead of 30).  Unused slots hold NUL, which one
    bytes.translate deletes.  A cell whose digits are not exact is written
    by '%.17g' % x itself, in the slots before the terminator.
    """
    import numpy as np

    groups, group_zeros = _cell_tables()[4:]
    x = cells.ravel()
    n = x.size
    d, e, exact = _significands(np.abs(x))
    lead = d // 10**16
    rest = d - lead * 10**16
    high = rest // 10**8
    # Four groups of four digits; int32 division is far faster than int64.
    halves = np.stack([high, rest - high * 10**8]).astype(np.int32)
    quads = np.empty((4, n), np.int32)
    quads[::2] = halves // 10**4
    quads[1::2] = halves - quads[::2] * 10**4
    # Trailing zeros of D: the last group's, and only where that group is
    # 0000, 4 plus those of the groups before it, walked back the same way.
    zeros = group_zeros[quads[3]]
    walk = np.flatnonzero(quads[3] == 0)
    if walk.size:
        earlier = quads[:3, walk]
        walked = group_zeros[earlier[0]]
        for quad in earlier[1:]:
            walked = np.where(quad == 0, walked + 4, group_zeros[quad])
        zeros[walk] = walked + 4

    sci = (e < -4) | (e > 16)
    # Index of the last digit before the dot; -1 for 0.000ddd.
    point = np.where(sci, 0, np.maximum(e, -1)).astype(np.int8)
    shown = np.maximum(17 - zeros, point + 1)
    has_fraction = shown > point + 1
    end = shown + has_fraction
    # One row per slot, one column per cell: the rows are long and contiguous.
    # The exponent's 5 slots are laid out only in a chunk that has one.
    scientific = np.flatnonzero(sci)
    width = _CELL_WIDTH if scientific.size else _CELL_WIDTH - 5
    text = np.empty((width, n), np.uint8)
    text[0] = (x < 0) * np.uint8(ord("-"))
    prefix = np.where(sci | (e >= 0), 0, 1 - e)
    text[1:6] = np.frombuffer(b"0.000", np.uint8)[:, None] * (np.arange(5)[:, None] < prefix)
    digits = np.empty((17, n), np.uint8)
    digits[0] = lead + ord("0")
    digits[1:].reshape(4, 4, n)[:] = groups[quads].view(np.uint8).reshape(4, n, 4).transpose(0, 2, 1)
    # Area slot j holds digit j up to the dot, the dot, then digit j - 1.
    slot = np.arange(18, dtype=np.int8)[:, None]
    area = text[6:24]
    np.multiply(digits, slot[:17] <= point, out=area[:17])
    area[17] = 0
    area[1:] += digits * ((slot[1:] > point + 1) & (slot[1:] < end))
    dots = np.flatnonzero(has_fraction & (point >= 0))
    area[point[dots] + 1, dots] = ord(".")
    if scientific.size:
        text[24:29] = 0
        power = e[scientific]
        exponent = np.abs(power)
        text[24, scientific] = ord("e")
        text[25, scientific] = np.where(power < 0, ord("-"), ord("+"))
        # The exponent's digits are the last three of its 4-digit group.
        three = groups[exponent].view(np.uint8).reshape(-1, 4).T[1:]
        three[0] *= exponent >= 100
        text[26:29, scientific] = three
    text[width - 1].reshape(cells.shape)[:] = [ord(",")] * (cells.shape[1] - 1) + [ord("\n")]
    slow = np.flatnonzero(~exact)
    if slow.size:
        strings = "".join([("%.17g" % v).ljust(width - 1, "\0") for v in x[slow].tolist()])
        text[: width - 1, slow] = np.frombuffer(strings.encode(), np.uint8).reshape(-1, width - 1).T
    return text.T.tobytes().translate(None, b"\0").decode()


def write_profile_csv(stream: TextIO, times: np.ndarray, gamma_values: np.ndarray) -> None:
    """Write t, Gamma and exp(-Gamma) as in write_csv."""
    header = ("t_seconds", "gamma", "envelope")
    write_csv(stream, header, times, gamma_values, _libm(math.exp, -gamma_values))


@dataclass(frozen=True, eq=False)
class DecoherenceProfile:
    """Sampled Gamma(t): paired time and exponent sequences."""

    times: tuple[float, ...]
    gamma_values: tuple[float, ...]

    def __post_init__(self) -> None:
        check_profile(*self._arrays())

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        import numpy as np

        return (
            np.asarray(self.times, dtype=np.float64),
            np.asarray(self.gamma_values, dtype=np.float64),
        )

    def envelopes(self) -> tuple[float, ...]:
        return tuple(math.exp(-g) for g in self.gamma_values)

    def write_csv(self, stream: TextIO) -> None:
        write_profile_csv(stream, *self._arrays())


def build_profile(
    correlation: ExponentialCorrelation,
    times: Sequence[float] | Iterable[float],
) -> DecoherenceProfile:
    import numpy as np

    ts = np.fromiter(map(float, times), np.float64)
    return DecoherenceProfile(
        times=tuple(ts.tolist()),
        gamma_values=tuple(gamma_exact(correlation, ts).tolist()),
    )
