"""Oracle checks and the gate that counts failed operations.

An operation is a named call into the library whose outputs are checked
against independent oracles.  It fails when it raises, when the CLI exits
with an unexpected code, or when any check misses its bound.  Failures are
never skipped: they are counted, printed by operation and check name, and
reported in ``fail_frac``.

``KNOWN_DEFECTS`` names the (operation, check) pairs that fail on the
current program because of a recorded correctness fault (the genus-2 psi
equation residual and the genus-2 second variation against its
finite-difference oracle).  They still count as failed.  They only keep the
run's ``correct`` flag, which flags a regression, from tripping on a fault
that is already recorded; any other failure makes the run incorrect.
"""

from __future__ import annotations

import time
import traceback
from typing import Callable, NamedTuple


class Check(NamedTuple):
    name: str
    value: object
    bound: object
    ok: bool


def below(name, value, bound):
    """value < bound; NaN fails."""
    value = float(value)
    return Check(name, value, f"< {bound:g}", bool(value < bound))


def above(name, value, bound):
    value = float(value)
    return Check(name, value, f"> {bound:g}", bool(value > bound))


def equal(name, value, expected):
    return Check(name, value, f"== {expected!r}", bool(value == expected))


def rel_close(name, value, reference, rtol):
    """|value - reference| / |reference| < rtol."""
    value = float(value)
    err = abs(value - reference) / abs(reference)
    return Check(name, err, f"< {rtol:g} (rel. to {reference!r})",
                 bool(err < rtol))


def residuals_below(prefix, residuals, bound):
    return [below(f"{prefix}{key}", val, bound)
            for key, val in sorted(residuals.items())]


class Op(NamedTuple):
    """A timed operation: ``run()`` returns outputs, ``check(outputs)``
    returns the oracle checks on them."""
    name: str
    run: Callable[[], dict]
    check: Callable[[dict], list]


# (operation name, check name) pairs failing on the parent program because
# of the recorded genus-2 defect: solve_psi leaves d psi + [omega, omega]
# of order 10 on the octagon mesh, and the analytic second variation there
# disagrees with its finite-difference oracle.
KNOWN_DEFECTS = frozenset({
    ("g2.second_order.bend_real", "d_psi_plus_wedge"),
    ("g2.second_order.bend_imag", "d_psi_plus_wedge"),
    ("g2.validate_pair.bend_real", "d_psi_plus_wedge"),
    ("g2.validate_pair.bend_imag", "d_psi_plus_wedge"),
    ("g2.psh.bend_real", "residual.d_psi_plus_wedge"),
    ("g2.psh.bend_imag", "residual.d_psi_plus_wedge"),
    ("cli.variation.g2_bend_real", "second_rel_err"),
    ("cli.variation.g2_bend_real", "psi_residual.d_psi_plus_wedge"),
    ("cli.psh.g2_bend_imag", "residual.d_psi_plus_wedge"),
})


class OpResult(NamedTuple):
    name: str
    seconds: float
    checks: list
    error: str | None
    outputs: dict

    @property
    def failed_checks(self):
        out = [c.name for c in self.checks if not c.ok]
        if self.error is not None:
            out.append("exception")
        return out

    @property
    def ok(self):
        return not self.failed_checks


class Gate:
    """Runs operations, applies their oracles and keeps the tally."""

    def __init__(self):
        self.results = []

    def run(self, op):
        t0 = time.perf_counter()
        error = None
        outputs = {}
        checks = []
        try:
            outputs = op.run()
        except Exception:  # an operation that raises is a failed operation
            error = traceback.format_exc(limit=4)
        seconds = time.perf_counter() - t0
        if error is None:
            try:
                checks = op.check(outputs)
            except Exception:
                error = traceback.format_exc(limit=4)
        res = OpResult(op.name, seconds, checks, error, outputs)
        self.results.append(res)
        return res

    def record(self, name, outputs, checks):
        """Tally a check made outside ``run`` (set-up operations)."""
        res = OpResult(name, 0.0, checks, None, outputs)
        self.results.append(res)
        return res

    @property
    def attempted(self):
        return len(self.results)

    @property
    def failed(self):
        return sum(not r.ok for r in self.results)

    def failures(self):
        """Distinct (operation, check) pairs that failed, in run order."""
        seen = {}
        for r in self.results:
            for check in r.failed_checks:
                seen.setdefault((r.name, check), r)
        return list(seen)

    def unexpected_failures(self):
        return [f for f in self.failures() if f not in KNOWN_DEFECTS]
