"""Closed-form depth, Stanley depth and projective dimension values.

Every function returns exact integers or explicit bounds as pure ceiling /
floor arithmetic; no floating point anywhere.  Each report carries a source
tag naming the family, the branch key it selected (n mod 4, parity of 2n/t)
and the formula, so any value can be traced to the rule that produced it.
formula_for_spec is the one entry: it reads the spec kind and passes the
validated spec to one private closed form.  A general cubic circulant is
read through CubicCirculantSpec.split: its depth is the copy count times
the depth of the connected component, so the gcd split is computed in
``graphs`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def meets(self, other: "FormulaValue") -> bool:
        """Whether some value lies in both ranges: the higher lower end lies in both."""
        return self.contains(other.lo) or other.contains(self.lo)

    def __str__(self) -> str:
        if self.is_exact:
            return str(self.lo)
        if self.hi is None:
            return f">={self.lo}"
        return f"[{self.lo},{self.hi}]"


@dataclass(frozen=True)
class FormulaReport:
    """The closed form of S/I(G) on ``ambient_vars`` variables.

    ``depth`` is stored and exact for every closed form; ``pdim`` is derived
    from it by Auslander-Buchsbaum, pdim = ambient_vars - depth, so the two
    cannot disagree.
    """

    depth: FormulaValue
    sdepth: FormulaValue
    source: str
    ambient_vars: int

    @property
    def pdim(self) -> FormulaValue:
        return FormulaValue.exact(self.ambient_vars - self.depth.value)


def _from_depth(
    spec: GraphSpec, depth: int, source: str, sdepth: FormulaValue | None = None
) -> FormulaReport:
    """Exact depth on the spec's vertex count of variables; Stanley depth is
    ``sdepth`` when given, else exactly the depth."""
    return FormulaReport(
        depth=FormulaValue.exact(depth),
        sdepth=FormulaValue.exact(depth) if sdepth is None else sdepth,
        source=source,
        ambient_vars=spec.num_vertices,
    )


def _path(spec: PathSpec) -> FormulaReport:
    q = spec.q
    d = ceil_div(q, 3)
    return _from_depth(spec, d, f"path q={q}: depth=sdepth=ceil(q/3)={d}")


def _cycle(spec: CycleSpec) -> FormulaReport:
    q = spec.q
    d = ceil_div(q - 1, 3)
    if q % 3 == 1:
        sdepth = FormulaValue(d, ceil_div(q, 3))
        tag = f"cycle q={q} [q%3=1]: depth=ceil((q-1)/3)={d}; sdepth in [{d},{ceil_div(q,3)}]"
    else:
        sdepth = FormulaValue.exact(d)
        tag = f"cycle q={q} [q%3={q % 3}]: depth=sdepth=ceil((q-1)/3)={d}"
    return _from_depth(spec, d, tag, sdepth)


def _ladder(spec: LadderSpec) -> FormulaReport:
    """The ladder A_n and its supergraphs B_n, C_n, D_n.

    The closed forms below also reproduce the degenerate members (B_0 a
    point, A_1 = P_2, B_1 = P_3, C_1 = S_4, D_1 = P_4), so no special
    casing is needed.
    """
    family, n = spec.family, spec.n
    if family == "A":
        d = ceil_div(n, 2)
        if n % 2 == 1:
            sdepth = FormulaValue.exact(d)
            stag = f"sdepth={d}"
        else:
            sdepth = FormulaValue(d, ceil_div(n + 1, 2))
            stag = f"sdepth in [{d},{ceil_div(n + 1, 2)}] (two-valued for even n)"
        # pdim = 2n - ceil(n/2) = floor(3n/2)
        source = f"ladder-A n={n}: depth=ceil(n/2)={d}; pdim=floor(3n/2); {stag}"
        return _from_depth(spec, d, source, sdepth)
    if family == "B":
        d = ceil_div(n + 1, 2)
        return _from_depth(spec, d, f"ladder-B n={n}: depth=sdepth=ceil((n+1)/2)={d}")
    r = n % 4
    if (family, r) in (("C", 0), ("C", 3)):
        d = ceil_div(n, 2) + 1
        rule = "ceil(n/2)+1"
    elif (family, r) in (("C", 2), ("D", 0), ("D", 1)):
        d = ceil_div(n + 1, 2) + 1
        rule = "ceil((n+1)/2)+1"
    else:
        d = ceil_div(n + 1, 2)
        rule = "ceil((n+1)/2)"
    return _from_depth(spec, d, f"ladder-{family} n={n} [n%4={r}]: depth=sdepth={rule}={d}")


def _cubic_connected(chord: int, n: int) -> tuple[int, FormulaValue]:
    """Depth and Stanley depth of the connected component C_{2n}(chord, n) of
    a gcd split: C_{2n}(1, n) for n >= 2, or C_{2n}(2, n) for odd n >= 3."""
    r = n % 4
    if chord == 1:
        d = ceil_div(n, 2) if r == 1 else ceil_div(n - 1, 2)
        exact = r in (1, 2)
    else:
        d = ceil_div(n - 1, 2) if r == 1 else ceil_div(n, 2)
        exact = r == 3
    return d, FormulaValue.exact(d) if exact else FormulaValue(d, ceil_div(n, 2) + 1)


# The paper's depth rule for each parity of 2n/t and whether the component's
# second shift (n/t or 2n/t) is 1 mod 4: copies times the connected depth.
_CUBIC_RULES = {
    ("even", True): "ceil(n/2t)*t",
    ("even", False): "ceil((n-t)/2t)*t",
    ("odd", True): "ceil((2n-t)/2t)*(t/2)",
    ("odd", False): "ceil(n/t)*(t/2)",
}


def _cubic(spec: CubicCirculantSpec) -> FormulaReport:
    """Any cubic circulant C_{2n}(a,n), 1 <= a < n.

    CubicCirculantSpec.split gives the isomorphic connected copies; depth
    adds over copies, so the exact depth is the copy count times the
    connected depth.  Stanley depth only superadditive over disjoint pieces,
    so for more than one copy the report carries a lower bound; for a single
    copy the connected value or bound is passed through.
    """
    n, a = spec.n, spec.a
    t, parity, copies, component = spec.split()
    chord, m = component.shifts
    connected_depth, connected_sdepth = _cubic_connected(chord, m)
    depth = copies * connected_depth
    rule = _CUBIC_RULES[parity, m % 4 == 1]
    quotient = "n/t" if chord == 1 else "2n/t"
    branch = f"t={t}, 2n/t {parity}, ({quotient})%4={m % 4}"
    if copies == 1:
        sdepth = connected_sdepth
        stag = "sdepth from the connected form"
    else:
        sdepth = FormulaValue.at_least(depth)
        stag = f"sdepth>={depth} (depth lower bound; additivity over {copies} copies)"
    source = f"cubic n={n},a={a} [{branch}]: depth={rule}={depth}; {stag}"
    return _from_depth(spec, depth, source, sdepth)


def formula_for_spec(spec: GraphSpec) -> FormulaReport:
    """The closed form that covers a graph spec: the one entry to this module.

    This is the one place a spec kind is read; the helpers above take specs
    their constructors have already validated.  Circulants are recognized
    when they are cycles (single shift 1), paths in disguise (C_2(1)) or
    cubic; disjoint unions compose by depth additivity, with Stanley depth
    kept as a lower bound.
    """
    if isinstance(spec, PathSpec):
        if spec.q < 2:
            raise FormulaUnavailable("path formula needs q >= 2")
        return _path(spec)
    if isinstance(spec, CycleSpec):
        return _cycle(spec)
    if isinstance(spec, (StarSpec, CompleteSpec)):
        if spec.q < 2:
            raise FormulaUnavailable("needs q >= 2")
        return _from_depth(spec, 1, f"{spec.kind} q={spec.q}: depth=sdepth=1")
    if isinstance(spec, LadderSpec):
        return _ladder(spec)
    if isinstance(spec, CubicCirculantSpec):
        return _cubic(spec)
    if isinstance(spec, CirculantSpec):
        q, shifts = spec.q, spec.shifts
        if shifts == (1,):
            return _path(PathSpec(2)) if q == 2 else _cycle(CycleSpec(q))
        # shifts are sorted and distinct, so this is C_q(a, q/2) with a < q/2
        if len(shifts) == 2 and q == 2 * shifts[1]:
            return _cubic(CubicCirculantSpec(shifts[1], shifts[0]))
        raise FormulaUnavailable(
            f"no closed form for circulant q={q}, shifts={shifts}"
        )
    if isinstance(spec, UnionSpec):
        parts = [formula_for_spec(p) for p in spec.parts]
        if len(parts) == 1:
            return parts[0]
        return _from_depth(
            spec,
            sum(p.depth.value for p in parts),
            f"disjoint union of {len(parts)} parts: depth additive, sdepth superadditive",
            FormulaValue.at_least(sum(p.sdepth.lo for p in parts)),
        )
    raise FormulaUnavailable(f"no closed form for {spec!r}")
