"""Explicit arbitrary-precision contexts.

Every numeric operation in the lab takes a ``PrecisionContext`` rather than
relying on a process-global precision setting.  Each precision has its own
mpmath context object, so two contexts with different precision coexist
without interfering; results are a deterministic function of the inputs and
the context.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath.ctx_mp import MPContext

from .errors import EILabError

MIN_DIGITS = 50

# Raw mpmath contexts are shared process-wide per dps value.  The lab never
# sets their precision again, but ``mp.quad`` raises it by 20 bits while it
# integrates, so a context is not safe across threads, and a cache keyed on
# one must also key on its current ``prec``.
_RAW_CACHE: dict[int, MPContext] = {}


def raw_context(dps: int) -> MPContext:
    """Return a cached mpmath context fixed at ``dps`` decimal digits."""
    ctx = _RAW_CACHE.get(dps)
    if ctx is None:
        ctx = MPContext()
        ctx.dps = dps
        _RAW_CACHE[dps] = ctx
    return ctx


# A kept raw mpf value is one int: the signed mantissa above the low
# PACKED_EXP_BITS bits (PACKED_EXP_MASK), which hold the binary exponent
# plus PACKED_EXP_OFFSET.  It takes about 55 % of the memory of the raw
# (sign, man, exp, bc) tuple, and unpacks to that tuple exactly for any
# finite normalized mpf (bc is the mantissa's bit length).  A value whose
# exponent does not fit those bits (below 2^-(2^63), such as exp(-x^2/4a)
# at a tiny a) is kept as the tuple itself.
PACKED_EXP_BITS = 64
PACKED_EXP_OFFSET = 1 << (PACKED_EXP_BITS - 1)
PACKED_EXP_MASK = (1 << PACKED_EXP_BITS) - 1


def pack(raw):
    """The raw mpf tuple ``raw`` as one int, or as itself when its exponent
    does not fit (see ``unpack``).

    Every per-candidate value a ``posterior.CandidatePosterior`` keeps is
    stored so (its covariance column, forward-substitution entries,
    variance, mean and exact reads), as are the Gaussian decay factors
    ``kernels.covariance_column`` keeps and the entries
    ``linalg.forward_substitution`` has solved;
    ``linalg.substitution_entry`` reads packed entries without unpacking
    them.
    """
    sign, man, exp, _ = raw
    biased = exp + PACKED_EXP_OFFSET
    if biased >> PACKED_EXP_BITS:
        return raw
    return ((-man if sign else man) << PACKED_EXP_BITS) | biased


def unpack(packed):
    """The raw mpf tuple that ``pack`` stored."""
    try:
        man = packed >> PACKED_EXP_BITS
    except TypeError:
        return packed
    if man < 0:
        man = -man
        return (1, man, (packed & PACKED_EXP_MASK) - PACKED_EXP_OFFSET, man.bit_length())
    return (0, man, (packed & PACKED_EXP_MASK) - PACKED_EXP_OFFSET, man.bit_length())


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision for a run.

    ``digits`` is the number of decimal digits the caller trusts in results;
    ``guard_digits`` is the extra cushion consumed by intermediate
    computation.  All arithmetic runs at ``digits + guard_digits`` decimal
    digits.  ``digits`` must be at least 50: below that the headline
    experiment is numerically meaningless.
    """

    digits: int = 300
    guard_digits: int = 20

    def __post_init__(self):
        if self.digits < MIN_DIGITS:
            raise EILabError(
                f"digits must be >= {MIN_DIGITS}, got {self.digits}"
            )
        if self.guard_digits < 1:
            raise EILabError("guard_digits must be positive")

    @property
    def working_dps(self) -> int:
        return self.digits + self.guard_digits

    @property
    def mp(self) -> MPContext:
        """The mpmath context carrying out arithmetic for this precision."""
        return raw_context(self.working_dps)

    def mpf(self, value):
        """Convert ``value`` to a working-precision real.

        Strings are parsed as decimal literals; mpf inputs are binary
        rationals and convert exactly.
        """
        return self.mp.mpf(value)

    def tol(self, exponent: int):
        """10**exponent as a working-precision real (for thresholds)."""
        return self.mp.mpf(10) ** exponent

    def to_str(self, value, sig: int | None = None) -> str:
        """Render a value as a decimal string with ``sig`` significant digits
        (defaults to ``digits``).  This is the only sanctioned way numbers
        cross the package boundary."""
        n = self.digits if sig is None else sig
        return self.mp.nstr(value, n)
