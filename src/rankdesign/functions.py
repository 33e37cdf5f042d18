"""Parametric monotone scalar functions.

Three roles appear throughout the library: a skill quantile on [0, 1],
a concave effort-to-score transfer on [0, inf), and a convex effort cost
on [0, inf).  All are represented by :class:`FunctionSpec` subclasses that
support evaluation, exact inversion and exact definite integrals.
``evaluate`` and ``invert`` take a number or a numpy array of numbers; an
array is checked and mapped as a whole.  Parameters must be finite; a
non-finite one is rejected when the object is built.

Each family also has two unchecked reads, ``_map`` (``evaluate`` of an
array) and ``_integral`` (``integral`` without its domain checks), for the
batch pricer's own rank arrays: band ends, quadrature nodes and integral
limits that it builds inside [0, 1] from policies already validated.  They
give the checked reads' bits.  Every read of a value that can fail as a
model error (a score target, a derived effort, a cost) stays checked.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, ModelError, RangeError


class Role(enum.Enum):
    SKILL_QUANTILE = "skill_quantile"
    EFFORT_TRANSFER = "effort_transfer"
    COST_FUNCTION = "cost_function"


@dataclass(frozen=True)
class FunctionSpec:
    """Strictly increasing scalar function from a small parametric family."""

    role: Role | None = field(default=None, kw_only=True)

    # subclasses must call _set_domain when built and define: evaluate,
    # invert, to_json, and the unchecked reads _map (evaluate of an array
    # inside the domain) and _integral (integral between limits inside it)

    def _set_domain(self, lo: float, hi: float) -> None:
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_hi", hi)

    @property
    def domain(self) -> tuple[float, float]:
        return (self._lo, self._hi)

    @property
    def kinks(self) -> tuple[float, ...]:
        """Interior points of the domain where the function is not smooth."""
        return ()

    def _check_domain(self, x) -> None:
        if not _inside(x, self._lo, self._hi):
            raise DomainError(f"x={x!r} outside domain [{self._lo}, {self._hi}] of {self!r}")

    def integral(self, a, b):
        """Exact integral from a to b, numbers or arrays of them; negative where b < a."""
        self._check_domain(a)
        self._check_domain(b)
        return self._integral(a, b)


# One dispatch rule: an argument whose exact class is np.ndarray is an array
# (of any shape, empty and 0-d included), checked value by value; a subclass
# (a masked array, np.matrix) is refused, since mapping it as a plain array
# would drop its mask; anything else is a number and keeps its plain
# comparisons, which cost it less than an array check.  A Python float, the
# common case, is told by one class test and pays for no subclass test.  NaN
# is outside.  One pass (seed 1) of the benchmark's design workload makes
# 2,582 number evaluate and invert calls (the group audits' single-rank and
# mixed-quantile reads, and each solve's two reads at e0) against 2,421 array
# calls, all checked; the pricer's 1,530 further array reads of f, at band
# ends, floor ends and quadrature nodes, go through the unchecked _map, as
# it builds those ranks inside [0, 1] itself.  Its oracle workload makes 87
# checked and 4 unchecked array calls, and 17 number calls from the effort
# caps and spec construction.
_ndarray = np.ndarray


def _inside(v, lo: float, hi: float) -> bool:
    if v.__class__ is not float:
        if v.__class__ is _ndarray:
            inside = lo <= v if hi == math.inf else (lo <= v) & (v <= hi)  # count_nonzero: the cheapest reduction
            return np.count_nonzero(inside) == v.size
        if isinstance(v, _ndarray):
            raise _subclass_error(v)
    return lo <= v <= hi


def _below(v, bound: float) -> bool:
    if v.__class__ is not float:
        if v.__class__ is _ndarray:
            return np.count_nonzero(v < bound) > 0
        if isinstance(v, _ndarray):
            raise _subclass_error(v)
    return v < bound


def _subclass_error(v) -> DomainError:
    return DomainError(f"{v.__class__.__name__} is a subclass of numpy.ndarray; pass a plain ndarray or a number")


def _require_finite(name: str, *values: float) -> None:
    if not all(math.isfinite(v) for v in values):
        raise DomainError(f"{name} parameters must be finite, got {values!r}")


@dataclass(frozen=True)
class Power(FunctionSpec):
    """f(x) = scale * x**exponent on [0, inf)."""

    scale: float
    exponent: float

    def __post_init__(self):
        _require_finite("Power", self.scale, self.exponent)
        if self.scale <= 0 or self.exponent <= 0:
            raise DomainError("Power requires scale > 0 and exponent > 0")
        self._set_domain(0.0, math.inf)
        _check_role_curvature(self)

    def evaluate(self, x: float) -> float:
        self._check_domain(x)
        return self.scale * x**self.exponent

    def _map(self, x: np.ndarray) -> np.ndarray:
        return self.scale * x**self.exponent

    def invert(self, y: float) -> float:
        if _below(y, 0.0):
            raise RangeError(f"y={y!r} below image of {self!r}")
        return (y / self.scale) ** (1.0 / self.exponent)

    def _integral(self, a, b):
        k = self.exponent + 1.0
        return self.scale * (b**k - a**k) / k

    def to_json(self) -> dict:
        return {"family": "power", "scale": self.scale, "exponent": self.exponent}


@dataclass(frozen=True)
class AffinePower(FunctionSpec):
    """f(x) = scale * x**exponent + offset on [0, inf)."""

    scale: float
    exponent: float
    offset: float

    def __post_init__(self):
        _require_finite("AffinePower", self.scale, self.exponent, self.offset)
        if self.scale <= 0 or self.exponent <= 0:
            raise DomainError("AffinePower requires scale > 0 and exponent > 0")
        self._set_domain(0.0, math.inf)
        _check_role_curvature(self)

    def evaluate(self, x: float) -> float:
        self._check_domain(x)
        return self.scale * x**self.exponent + self.offset

    def _map(self, x: np.ndarray) -> np.ndarray:
        return self.scale * x**self.exponent + self.offset

    def invert(self, y: float) -> float:
        if _below(y, self.offset):
            raise RangeError(f"y={y!r} below image of {self!r}")
        return ((y - self.offset) / self.scale) ** (1.0 / self.exponent)

    def _integral(self, a, b):
        k = self.exponent + 1.0
        return self.scale * (b**k - a**k) / k + self.offset * (b - a)

    def to_json(self) -> dict:
        return {
            "family": "affine_power",
            "scale": self.scale,
            "exponent": self.exponent,
            "offset": self.offset,
        }


@dataclass(frozen=True)
class PiecewiseMonotone(FunctionSpec):
    """Linear interpolation through finite knots with strictly increasing y.

    Evaluation and inversion locate the segment by binary search over the
    knot xs (or ys) and interpolate linearly, so the inverse is exact; a knot
    x maps to its knot y and a knot y to its knot x exactly.  Arrays go
    through ``np.interp``, which also returns knot values exactly and agrees
    with the scalar formula elsewhere to rounding.  The integral is the exact
    trapezoid sum over the knots; arrays of limits read the whole segments
    from cumulative knot areas and agree with it to rounding.
    """

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        knots = tuple((float(x), float(y)) for x, y in self.knots)
        object.__setattr__(self, "knots", knots)
        if len(knots) < 2:
            raise DomainError("PiecewiseMonotone needs at least two knots")
        xs = tuple(x for x, _ in knots)
        ys = tuple(y for _, y in knots)
        _require_finite("PiecewiseMonotone", *xs, *ys)
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise DomainError("knot x values must be strictly increasing")
        if any(b <= a for a, b in zip(ys, ys[1:])):
            raise DomainError("knot y values must be strictly increasing")
        object.__setattr__(self, "_xs", xs)
        object.__setattr__(self, "_ys", ys)
        object.__setattr__(self, "_x_array", np.array(xs))
        object.__setattr__(self, "_y_array", np.array(ys))
        # trapezoid area from the first knot to each knot, for array integrals
        segments = 0.5 * (self._y_array[1:] + self._y_array[:-1]) * np.diff(self._x_array)
        object.__setattr__(self, "_areas", np.concatenate(([0.0], np.cumsum(segments))))
        self._set_domain(xs[0], xs[-1])
        _check_role_curvature(self)

    @property
    def kinks(self) -> tuple[float, ...]:
        return self._xs[1:-1]

    def _slopes(self) -> list[float]:
        return [
            (y1 - y0) / (x1 - x0)
            for (x0, y0), (x1, y1) in zip(self.knots, self.knots[1:])
        ]

    def evaluate(self, x: float) -> float:
        self._check_domain(x)
        if x.__class__ is _ndarray:
            return self._map(x)
        xs, ys = self._xs, self._ys
        i = bisect_left(xs, x, 1, len(xs) - 1)
        if x == xs[i]:
            return ys[i]
        x0, y0 = xs[i - 1], ys[i - 1]
        return y0 + (ys[i] - y0) * (x - x0) / (xs[i] - x0)

    def _map(self, x: np.ndarray) -> np.ndarray:
        return np.interp(x, self._x_array, self._y_array)

    def invert(self, y: float) -> float:
        xs, ys = self._xs, self._ys
        if not _inside(y, ys[0], ys[-1]):
            raise RangeError(f"y={y!r} outside image [{ys[0]}, {ys[-1]}] of piecewise spec")
        if y.__class__ is _ndarray:
            return np.interp(y, self._y_array, self._x_array)
        i = bisect_left(ys, y, 1, len(ys) - 1)
        if y == ys[i]:
            return xs[i]
        x0, y0 = xs[i - 1], ys[i - 1]
        return x0 + (xs[i] - x0) * (y - y0) / (ys[i] - y0)

    def _integral(self, a, b):
        if a.__class__ is _ndarray or b.__class__ is _ndarray:
            return self._integral_array(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
        if b < a:
            return -self._integral(b, a)
        i, j = bisect_right(self._xs, a), bisect_left(self._xs, b)
        xs = (a, *self._xs[i:j], b)
        ys = (self.evaluate(a), *self._ys[i:j], self.evaluate(b))
        return sum(0.5 * (y0 + y1) * (x1 - x0) for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]))

    def _integral_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The scalar trapezoid sum per element: two partial segments and the whole ones between."""
        xs, ys, areas = self._x_array, self._y_array, self._areas
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        f_lo, f_hi = self._map(lo), self._map(hi)
        # knots i .. j-1 lie strictly inside (lo, hi), as in the scalar path
        i, j = xs.searchsorted(lo, "right"), xs.searchsorted(hi)
        first, last = np.minimum(i, len(xs) - 1), np.maximum(j - 1, 0)
        spans = (
            0.5 * (f_lo + ys[first]) * (xs[first] - lo)
            + (areas[last] - areas[first])
            + 0.5 * (ys[last] + f_hi) * (hi - xs[last])
        )
        total = np.where(i < j, spans, 0.5 * (f_lo + f_hi) * (hi - lo))
        return np.negative(total, out=total, where=b < a)

    def to_json(self) -> dict:
        return {"family": "piecewise_monotone", "knots": [list(k) for k in self.knots]}


def _check_role_curvature(spec: FunctionSpec) -> None:
    """Enforce concavity of transfers and convexity of costs at build time."""
    role = spec.role
    if role is None:
        return
    if isinstance(spec, (Power, AffinePower)):
        if role is Role.EFFORT_TRANSFER and spec.exponent > 1.0:
            raise ModelError("effort transfer must be concave (exponent <= 1)")
        if role is Role.COST_FUNCTION and spec.exponent <= 1.0:
            raise ModelError("cost function must be strictly convex (exponent > 1)")
    elif isinstance(spec, PiecewiseMonotone):
        slopes = spec._slopes()
        if role is Role.EFFORT_TRANSFER:
            if any(b > a + 1e-15 for a, b in zip(slopes, slopes[1:])):
                raise ModelError("effort transfer must have non-increasing slopes")
        if role is Role.COST_FUNCTION:
            if any(b <= a for a, b in zip(slopes, slopes[1:])):
                raise ModelError("cost function must have strictly increasing slopes")


_FAMILIES = {"power": Power, "affine_power": AffinePower, "piecewise_monotone": PiecewiseMonotone}


def function_from_json(obj: dict, role: Role | None = None) -> FunctionSpec:
    """Build a FunctionSpec from its JSON object form.

    Accepts {"family": "power", "scale": .., "exponent": ..} and the
    analogous forms for the other families.
    """
    if not isinstance(obj, dict) or "family" not in obj:
        raise DomainError(f"function spec must be an object with a 'family' field, got {obj!r}")
    family = obj["family"]
    if not isinstance(family, str) or family not in _FAMILIES:
        raise DomainError(f"unknown function family {family!r}")
    try:
        if family == "power":
            return Power(float(obj["scale"]), float(obj["exponent"]), role=role)
        if family == "affine_power":
            return AffinePower(float(obj["scale"]), float(obj["exponent"]), float(obj["offset"]), role=role)
        knots = tuple((float(x), float(y)) for x, y in obj["knots"])
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{family} parameters must be numbers: {exc}") from exc
    return PiecewiseMonotone(knots, role=role)


@dataclass(frozen=True)
class PopulationSpec:
    """Skill quantile f, effort transfer g, effort cost p, baseline effort e0.

    A score is g(e) * f(theta), so f is finite and nonnegative on [0, 1]:
    since it increases, f(0) >= 0 and a finite f(1) suffice.
    The cost is normalized so p(e0) = 0; everything downstream relies on it.
    g(e0) may be positive, in which case zero-cost effort already produces
    score and equilibrium schedules acquire within-band switch points.
    """

    f: FunctionSpec
    g: FunctionSpec
    p: FunctionSpec
    e0: float = 0.0

    def __post_init__(self):
        if self.e0 < 0:
            raise DomainError("e0 must be nonnegative")
        lo, hi = self.p.domain
        if not (lo <= self.e0 <= hi):
            raise DomainError("e0 outside the cost function domain")
        if abs(self.p.evaluate(self.e0)) > 1e-12:
            raise ModelError(f"cost normalization violated: p(e0) = {self.p.evaluate(self.e0)!r} != 0")
        f0, f1 = self.f.evaluate(0.0), self.f.evaluate(1.0)
        if not (math.isfinite(f0) and math.isfinite(f1)):
            raise ModelError("skill quantile must be finite on [0, 1]")
        if f0 < 0:
            raise ModelError(f"skill quantile must be nonnegative on [0, 1], got f(0) = {f0!r}")
        object.__setattr__(self, "_skill_range", (f0, f1))

    @cached_property
    def _kink_transfers(self) -> np.ndarray:
        """g at the kinks of g and p inside g's domain, where positive: the transfers at which an
        effort crosses a kink of g or p.  Read once per population object, on first use."""
        kinks = np.array(self.g.kinks + self.p.kinks)
        lo, hi = self.g.domain
        transfer = self.g.evaluate(kinks[(lo <= kinks) & (kinks <= hi)])
        return transfer[transfer > 0.0]

    def cost_inverse(self, y: float) -> float:
        """Inverse of the cost on its increasing branch [e0, inf), a number or an array."""
        if _below(y, 0.0):
            raise RangeError("cost values are nonnegative")
        try:
            return self.p.invert(y)
        except RangeError as exc:
            raise ModelError(f"cost function cannot absorb a reward jump of {y!r}") from exc

    def to_json(self) -> dict:
        return {
            "f": self.f.to_json(),
            "g": self.g.to_json(),
            "p": self.p.to_json(),
            "e0": self.e0,
        }

    @staticmethod
    def from_json(obj: dict) -> "PopulationSpec":
        if not isinstance(obj, dict):
            raise DomainError(f"population spec must be an object, got {obj!r}")
        try:
            e0 = float(obj.get("e0", 0.0))
        except (TypeError, ValueError) as exc:
            raise DomainError(f"population spec e0 must be a number: {exc}") from exc
        try:
            return PopulationSpec(
                f=function_from_json(obj["f"], Role.SKILL_QUANTILE),
                g=function_from_json(obj["g"], Role.EFFORT_TRANSFER),
                p=function_from_json(obj["p"], Role.COST_FUNCTION),
                e0=e0,
            )
        except KeyError as exc:
            raise DomainError(f"population spec missing field {exc.args[0]!r}") from exc
