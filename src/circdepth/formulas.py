"""Closed-form depth, Stanley depth and projective dimension values.

Every function returns exact integers or explicit bounds as pure ceiling /
floor arithmetic; no floating point anywhere.  Each report carries a source
tag naming the family, the branch key it selected (n mod 4, parity of 2n/t)
and the formula, so any value can be traced to the rule that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .graphs import (
    CirculantSpec,
    CompleteSpec,
    CubicCirculantSpec,
    CycleSpec,
    GraphSpec,
    LadderSpec,
    PathSpec,
    StarSpec,
    UnionSpec,
)


class FormulaUnavailable(ValueError):
    """No closed-form invariant is claimed for this graph."""


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True)
class FormulaValue:
    """An exact value (lo == hi), a two-sided bound, or a lower bound (hi None)."""

    lo: int
    hi: int | None

    def __post_init__(self) -> None:
        if self.lo < 0:
            raise ValueError("invariant values are nonnegative")
        if self.hi is not None and self.hi < self.lo:
            raise ValueError("upper bound below lower bound")

    @classmethod
    def exact(cls, v: int) -> "FormulaValue":
        return cls(v, v)

    @classmethod
    def bounds(cls, lo: int, hi: int) -> "FormulaValue":
        return cls(lo, hi)

    @classmethod
    def at_least(cls, lo: int) -> "FormulaValue":
        return cls(lo, None)

    @property
    def is_exact(self) -> bool:
        return self.hi == self.lo

    @property
    def value(self) -> int:
        if not self.is_exact:
            raise ValueError(f"no exact value: {self}")
        return self.lo

    def contains(self, v: int) -> bool:
        return v >= self.lo and (self.hi is None or v <= self.hi)

    def __str__(self) -> str:
        if self.is_exact:
            return str(self.lo)
        if self.hi is None:
            return f">={self.lo}"
        return f"[{self.lo},{self.hi}]"


@dataclass(frozen=True)
class FormulaReport:
    depth: FormulaValue
    sdepth: FormulaValue
    pdim: FormulaValue
    source: str
    ambient_vars: int

    def __post_init__(self) -> None:
        if self.depth.is_exact and self.pdim.is_exact:
            if self.depth.value + self.pdim.value != self.ambient_vars:
                raise ValueError("exact depth and pdim must sum to the variable count")


def _from_depth(
    nv: int, depth: int, source: str, sdepth: FormulaValue | None = None
) -> FormulaReport:
    """Exact depth and pdim = nv - depth (Auslander-Buchsbaum) on nv variables.

    Stanley depth is ``sdepth`` when given, else exactly the depth.
    """
    return FormulaReport(
        depth=FormulaValue.exact(depth),
        sdepth=FormulaValue.exact(depth) if sdepth is None else sdepth,
        pdim=FormulaValue.exact(nv - depth),
        source=source,
        ambient_vars=nv,
    )


def base_family_invariants(
    spec: PathSpec | CycleSpec | StarSpec | CompleteSpec,
) -> FormulaReport:
    """Exact values for paths, cycles, stars and complete graphs."""
    if isinstance(spec, PathSpec):
        q = spec.q
        if q < 2:
            raise FormulaUnavailable("path formula needs q >= 2")
        d = ceil_div(q, 3)
        return _from_depth(q, d, f"path q={q}: depth=sdepth=ceil(q/3)={d}")
    if isinstance(spec, CycleSpec):
        q = spec.q
        d = ceil_div(q - 1, 3)
        if q % 3 == 1:
            sdepth = FormulaValue.bounds(d, ceil_div(q, 3))
            tag = f"cycle q={q} [q%3=1]: depth=ceil((q-1)/3)={d}; sdepth in [{d},{ceil_div(q,3)}]"
        else:
            sdepth = FormulaValue.exact(d)
            tag = f"cycle q={q} [q%3={q % 3}]: depth=sdepth=ceil((q-1)/3)={d}"
        return _from_depth(q, d, tag, sdepth)
    if isinstance(spec, (StarSpec, CompleteSpec)):
        q = spec.q
        if q < 2:
            raise FormulaUnavailable("needs q >= 2")
        return _from_depth(q, 1, f"{spec.kind} q={q}: depth=sdepth=1")
    raise FormulaUnavailable(f"no base-family formula for {spec!r}")


def ladder_invariants(family: str, n: int) -> FormulaReport:
    """Exact values for the ladder A_n and its supergraphs B_n, C_n, D_n.

    The closed forms below also reproduce the degenerate members (B_0 a
    point, A_1 = P_2, B_1 = P_3, C_1 = S_4, D_1 = P_4), so no special
    casing is needed.
    """
    if family == "A":
        if n < 1:
            raise FormulaUnavailable("ladder A needs n >= 1")
        d = ceil_div(n, 2)
        if n % 2 == 1:
            sdepth = FormulaValue.exact(d)
            stag = f"sdepth={d}"
        else:
            sdepth = FormulaValue.bounds(d, ceil_div(n + 1, 2))
            stag = f"sdepth in [{d},{ceil_div(n + 1, 2)}] (two-valued for even n)"
        # pdim = 2n - ceil(n/2) = floor(3n/2)
        source = f"ladder-A n={n}: depth=ceil(n/2)={d}; pdim=floor(3n/2); {stag}"
        return _from_depth(2 * n, d, source, sdepth)
    if family == "B":
        if n < 0:
            raise FormulaUnavailable("ladder B needs n >= 0")
        d = ceil_div(n + 1, 2)
        return _from_depth(2 * n + 1, d, f"ladder-B n={n}: depth=sdepth=ceil((n+1)/2)={d}")
    if family == "C":
        if n < 1:
            raise FormulaUnavailable("ladder C needs n >= 1")
        r = n % 4
        if r in (0, 3):
            d = ceil_div(n, 2) + 1
            rule = "ceil(n/2)+1"
        elif r == 1:
            d = ceil_div(n + 1, 2)
            rule = "ceil((n+1)/2)"
        else:
            d = ceil_div(n + 1, 2) + 1
            rule = "ceil((n+1)/2)+1"
        return _from_depth(2 * n + 2, d, f"ladder-C n={n} [n%4={r}]: depth=sdepth={rule}={d}")
    if family == "D":
        if n < 1:
            raise FormulaUnavailable("ladder D needs n >= 1")
        r = n % 4
        if r in (0, 1):
            d = ceil_div(n + 1, 2) + 1
            rule = "ceil((n+1)/2)+1"
        else:
            d = ceil_div(n + 1, 2)
            rule = "ceil((n+1)/2)"
        return _from_depth(2 * n + 2, d, f"ladder-D n={n} [n%4={r}]: depth=sdepth={rule}={d}")
    raise FormulaUnavailable(f"unknown ladder family {family!r}")


def cubic_connected_invariants(chord: int, n: int) -> FormulaReport:
    """Exact depth/pdim and sdepth values or bounds for the two connected
    cubic circulants: chord=1 is C_{2n}(1,n) (n >= 2), chord=2 is C_{2n}(2,n)
    (odd n >= 3; even n gives a disconnected graph, go through
    cubic_general_invariants instead)."""
    r = n % 4
    if chord == 1:
        if n < 2:
            raise FormulaUnavailable("C_{2n}(1,n) needs n >= 2")
        if r == 1:
            d = ceil_div(n, 2)
            rule = "ceil(n/2)"
        else:
            d = ceil_div(n - 1, 2)
            rule = "ceil((n-1)/2)"
        if r in (1, 2):
            sdepth = FormulaValue.exact(d)
            stag = f"sdepth={d}"
        else:
            hi = ceil_div(n, 2) + 1
            sdepth = FormulaValue.bounds(d, hi)
            stag = f"sdepth in [{d},{hi}]"
        tag = f"cubic-1n n={n} [n%4={r}]: depth={rule}={d}; {stag}"
    elif chord == 2:
        if n < 3 or n % 2 == 0:
            raise FormulaUnavailable("C_{2n}(2,n) formula needs odd n >= 3")
        if r == 1:
            d = ceil_div(n - 1, 2)
            rule = "ceil((n-1)/2)"
        else:
            d = ceil_div(n, 2)
            rule = "ceil(n/2)"
        if r == 3:
            sdepth = FormulaValue.exact(ceil_div(n, 2))
            stag = f"sdepth={ceil_div(n, 2)}"
        else:  # r == 1 for odd n
            hi = ceil_div(n, 2) + 1
            sdepth = FormulaValue.bounds(d, hi)
            stag = f"sdepth in [{d},{hi}]"
        tag = f"cubic-2n n={n} [n%4={r}]: depth={rule}={d}; {stag}"
    else:
        raise FormulaUnavailable("chord must be 1 or 2")
    return _from_depth(2 * n, d, tag, sdepth)


def cubic_general_invariants(n: int, a: int) -> FormulaReport:
    """Invariants of any cubic circulant C_{2n}(a,n), 1 <= a < n.

    With t = gcd(2n, a) the graph splits into isomorphic connected copies;
    depth adds over copies, so the exact depth follows from the connected
    values.  Stanley depth only superadditive over disjoint pieces, so for
    more than one copy the report carries a lower bound; for a single copy
    the connected value or bound is passed through.
    """
    if n < 2 or not 1 <= a < n:
        raise FormulaUnavailable("cubic circulant needs n >= 2 and 1 <= a < n")
    t = gcd(2 * n, a)
    m = 2 * n // t
    if m % 2 == 0:
        copies = t
        nt = n // t
        rt = nt % 4
        if rt == 1:
            depth = ceil_div(n, 2 * t) * t
            rule = "ceil(n/2t)*t"
        else:
            depth = ceil_div(n - t, 2 * t) * t
            rule = "ceil((n-t)/2t)*t"
        branch = f"t={t}, 2n/t even, (n/t)%4={rt}"
        connected = cubic_connected_invariants(1, nt) if copies == 1 else None
    else:
        copies = t // 2
        rm = m % 4
        if rm == 1:
            depth = ceil_div(2 * n - t, 2 * t) * copies
            rule = "ceil((2n-t)/2t)*(t/2)"
        else:
            depth = ceil_div(n, t) * copies
            rule = "ceil(n/t)*(t/2)"
        branch = f"t={t}, 2n/t odd, (2n/t)%4={rm}"
        connected = cubic_connected_invariants(2, m) if copies == 1 else None

    if connected is not None:
        sdepth = connected.sdepth
        stag = "sdepth from the connected form"
    else:
        sdepth = FormulaValue.at_least(depth)
        stag = f"sdepth>={depth} (depth lower bound; additivity over {copies} copies)"
    source = f"cubic n={n},a={a} [{branch}]: depth={rule}={depth}; {stag}"
    return _from_depth(2 * n, depth, source, sdepth)


def formula_for_spec(spec: GraphSpec) -> FormulaReport:
    """Dispatch a graph spec to the closed form that covers it.

    Circulants are recognized when they are cycles (single shift 1), paths
    in disguise (C_2(1)) or cubic; disjoint unions compose by depth
    additivity, with Stanley depth kept as a lower bound.
    """
    if isinstance(spec, (PathSpec, CycleSpec, StarSpec, CompleteSpec)):
        return base_family_invariants(spec)
    if isinstance(spec, LadderSpec):
        return ladder_invariants(spec.family, spec.n)
    if isinstance(spec, CubicCirculantSpec):
        return cubic_general_invariants(spec.n, spec.a)
    if isinstance(spec, CirculantSpec):
        q, shifts = spec.q, spec.shifts
        if shifts == (1,):
            if q == 2:
                return base_family_invariants(PathSpec(2))
            return base_family_invariants(CycleSpec(q))
        if len(shifts) == 2 and q == 2 * shifts[1] and shifts[0] < shifts[1]:
            return cubic_general_invariants(shifts[1], shifts[0])
        raise FormulaUnavailable(
            f"no closed form for circulant q={q}, shifts={shifts}"
        )
    if isinstance(spec, UnionSpec):
        parts = [formula_for_spec(p) for p in spec.parts]
        if len(parts) == 1:
            return parts[0]
        nv = sum(p.ambient_vars for p in parts)
        depth = sum(p.depth.value for p in parts)
        return FormulaReport(
            depth=FormulaValue.exact(depth),
            sdepth=FormulaValue.at_least(sum(p.sdepth.lo for p in parts)),
            pdim=FormulaValue.exact(nv - depth),
            source=f"disjoint union of {len(parts)} parts: depth additive, "
            "sdepth superadditive",
            ambient_vars=nv,
        )
    raise FormulaUnavailable(f"no closed form for {spec!r}")
