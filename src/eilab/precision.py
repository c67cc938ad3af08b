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

    def eps(self, drop: int = 0):
        """10**-(working_dps - drop), the roundoff scale of this context."""
        return self.mp.mpf(10) ** (-(self.working_dps - drop))

    def tol(self, exponent: int):
        """10**exponent as a working-precision real (for thresholds)."""
        return self.mp.mpf(10) ** exponent

    def to_str(self, value, sig: int | None = None) -> str:
        """Render a value as a decimal string with ``sig`` significant digits
        (defaults to ``digits``).  This is the only sanctioned way numbers
        cross the package boundary."""
        n = self.digits if sig is None else sig
        return self.mp.nstr(value, n)
