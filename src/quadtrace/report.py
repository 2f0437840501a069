"""Structured record of one identity check, with stable serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp


def fmt_exact(x) -> str:
    """Render an exact rational (or integer) as 'p/q' or 'p'."""
    fr = Fraction(x)
    return str(fr.numerator) if fr.denominator == 1 else f"{fr.numerator}/{fr.denominator}"


def fmt_hp(x, digits: int = 30) -> str:
    """Deterministic decimal rendering of an mpf/mpc value."""
    return mp.nstr(x, digits)


@dataclass
class VerificationReport:
    check: str
    params: dict
    lhs: str
    rhs: str
    abs_err: str
    rel_err: str
    passed: bool
    detail: str = ""
    flags: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "check": self.check,
            **{k: self.params[k] for k in sorted(self.params)},
            "lhs": self.lhs,
            "rhs": self.rhs,
            "abs_err": self.abs_err,
            "rel_err": self.rel_err,
            "pass": self.passed,
        }
        if self.detail:
            payload["detail"] = self.detail
        if self.flags:
            payload["flags"] = {k: self.flags[k] for k in sorted(self.flags)}
        return json.dumps(payload, separators=(",", ":"))


def exact_report(check, params, lhs, rhs) -> VerificationReport:
    """Build a report from two exact rationals that must be equal."""
    return VerificationReport(
        check=check,
        params=params,
        lhs=fmt_exact(lhs),
        rhs=fmt_exact(rhs),
        abs_err="0" if lhs == rhs else fmt_exact(abs(lhs - rhs)),
        rel_err="0" if lhs == rhs else "1",
        passed=lhs == rhs,
    )


def tail_bound_report(check, params, lhs, rhs, tail_bound) -> VerificationReport:
    """Build a report from a truncated series value and its closed form.

    It passes when |lhs - rhs| is within the series' tail bound.  Both sides
    are printed as computed: an mpf closed form keeps its mpf rendering.
    """
    diff = abs(lhs - complex(rhs))
    return VerificationReport(
        check=check,
        params=params,
        lhs=fmt_hp(lhs),
        rhs=fmt_hp(rhs),
        abs_err=f"{diff:.3e}",
        rel_err=f"{diff / abs(complex(rhs)):.3e}",
        passed=bool(diff <= tail_bound),
        detail=f"tail_bound={tail_bound:.3e}",
    )


def numeric_report(check, params, lhs, rhs, tol, scale_floor="1e-30", detail=""):
    """Build a report from two high-precision numbers and a relative tolerance.

    The relative error uses max(|lhs|, |rhs|, scale_floor) so that identities
    whose both sides vanish (empty form sets and the like) pass cleanly.  The
    residual is formed at the caller's precision; in the CLI sweeps that is
    mpmath's ambient 15 digits.
    """
    labs = abs(mp.mpc(lhs))
    rabs = abs(mp.mpc(rhs))
    aerr = abs(mp.mpc(lhs) - mp.mpc(rhs))
    scale = max(labs, rabs, mp.mpf(scale_floor))
    rerr = aerr / scale
    return VerificationReport(
        check=check,
        params=params,
        lhs=fmt_hp(lhs),
        rhs=fmt_hp(rhs),
        abs_err=fmt_hp(aerr, 8),
        rel_err=fmt_hp(rerr, 8),
        passed=bool(rerr <= mp.mpf(tol)),
        detail=detail,
    )
