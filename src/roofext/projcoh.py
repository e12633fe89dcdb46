"""Closed-form sheaf-cohomology dimensions on projective spaces.

Everything here is dimension bookkeeping with exact integers: line bundles
on P^n, twisted differential forms via the Bott formula, products of
projective lines via Kunneth, and pushforwards along the Segre embedding
P1 x P1 -> P3 via the projection formula.  An independent Euler-sequence
chase cross-checks the Bott closed form, and a two-chain consistency
report recomputes a published-style isomorphism chain step by step,
flagging where the dimensions do and do not line up.

The convention C(x, k) = 0 whenever x < k or k < 0 makes every formula a
single expression with no case analysis beyond the classical ones.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field as dc_field

from .errors import AmbiguousChaseError, SchemaError

__all__ = [
    "binom",
    "h_line",
    "h_omega",
    "euler_chase",
    "chi_line",
    "kunneth",
    "serre_dual_check",
    "dim_graded_piece",
    "SheafDescriptor",
    "parse_sheaf",
    "CohTable",
    "cohomology_table",
    "segre_push_table",
    "prop2_report",
]


def binom(x: int, k: int) -> int:
    """Binomial coefficient with C(x, k) = 0 for x < k or k < 0."""
    if k < 0 or x < k:
        return 0
    return math.comb(x, k)


def h_line(n: int, m: int, q: int) -> int:
    """dim H^q(P^n, O(m)): nonzero only at q = 0 (m >= 0) and q = n (m <= -n-1)."""
    if n < 1:
        raise ValueError("projective space dimension must be at least 1")
    if q == 0:
        return binom(n + m, n)
    if q == n:
        return binom(-m - 1, n)
    return 0


def chi_line(n: int, m: int) -> int:
    """Euler characteristic of O(m) on P^n."""
    return sum((-1) ** q * h_line(n, m, q) for q in range(n + 1))


def h_omega(n: int, p: int, m: int, q: int) -> int:
    """dim H^q(P^n, Omega^p(m)) by the Bott formula.

    Nonzero only in three cases: q = 0 with m > p, the Hodge diagonal
    q = p with m = 0 (value 1), and q = n with m < p - n.
    """
    if not 0 <= p <= n:
        raise ValueError(f"form degree {p} out of range for P^{n}")
    if q == 0 and m > p:
        return binom(m + n - p, m) * binom(m - 1, p)
    if q == p and m == 0:
        return 1
    if q == n and m < p - n:
        return binom(p - m, -m) * binom(-m - 1, n - p)
    return 0


def _sections(n: int, d: int) -> int:
    return binom(d + n, n)


def euler_chase(n: int, p: int, m: int) -> list[int]:
    """[h^q(Omega^p(m)) for q = 0..n], chased through Euler sequences.

    Independent of the Bott closed form: recursion on p via
    0 -> Omega^p(m) -> O(m-p)^C(n+1,p) -> Omega^(p-1)(m) -> 0, with
    degree 0 anchored by the global-section count of the long Koszul tail
    (whose middle cohomology vanishes, so the alternating sum is exact).
    Raises AmbiguousChaseError if the chase produces an inconsistent
    column; that is an internal-consistency failure, never expected on
    the supported grid.
    """
    if not 0 <= p <= n:
        raise ValueError(f"form degree {p} out of range for P^{n}")
    if p == 0:
        return [h_line(n, m, q) for q in range(n + 1)]
    prev = euler_chase(n, p - 1, m)
    r = binom(n + 1, p)
    mid = [r * h_line(n, m - p, q) for q in range(n + 1)]
    w0 = 0
    for t in range(1, n + 2 - p):
        w0 += (-1) ** (t + 1) * binom(n + 1, p + t) * _sections(n, m - p - t)
    col = [0] * (n + 1)
    col[0] = w0
    if n == 1:
        # the six-term sequence is the whole story on the line
        col[1] = w0 - mid[0] + prev[0] + mid[1] - prev[1]
    else:
        col[1] = w0 + prev[0] - mid[0]
        for q in range(2, n):
            col[q] = prev[q - 1]
        col[n] = prev[n - 1] + mid[n] - prev[n]
    if any(v < 0 for v in col):
        raise AmbiguousChaseError(
            f"negative dimension in the chase for Omega^{p}({m}) on P^{n}: {col}")
    chi_w = sum((-1) ** q * col[q] for q in range(n + 1))
    chi_mid = sum((-1) ** q * mid[q] for q in range(n + 1))
    chi_prev = sum((-1) ** q * prev[q] for q in range(n + 1))
    if chi_w != chi_mid - chi_prev:
        raise AmbiguousChaseError(
            f"Euler characteristic mismatch in the chase for Omega^{p}({m}) on P^{n}")
    return col


def kunneth(a: int, b: int, m1: int, m2: int, q: int) -> int:
    """dim H^q(P^a x P^b, O(m1, m2)) as the Kunneth convolution."""
    return sum(h_line(a, m1, i) * h_line(b, m2, q - i) for i in range(q + 1))


def serre_dual_check(n: int, m: int) -> bool:
    """Dimension shadow of Serre duality for O(m) on P^n (omega = O(-n-1))."""
    return all(h_line(n, m, q) == h_line(n, -m - n - 1, n - q) for q in range(n + 1))


def dim_graded_piece(nvars: int, d: int) -> int:
    """Dimension of the degree-d part of a polynomial ring in nvars variables."""
    return binom(d + nvars - 1, nvars - 1)


# -- sheaf descriptors -------------------------------------------------------


@dataclass(frozen=True)
class SheafDescriptor:
    """Normal form of a parsed sheaf expression.

    kind is one of "line" (O(m) on P^n), "forms" (Omega^p(m) on P^n),
    "biline" (O(a,b) on P1xP1), "push" (Segre pushforward of O(a,b),
    twisted by push_twist on P3).
    """

    space: str
    kind: str
    twist: tuple[int, ...]
    form_degree: int = 0
    push_twist: int = 0

    def describe(self) -> str:
        if self.kind == "line":
            return f"O({self.twist[0]})"
        if self.kind == "forms":
            return f"Omega^{self.form_degree}({self.twist[0]})"
        if self.kind == "biline":
            return f"O({self.twist[0]},{self.twist[1]})"
        inner = f"O({self.twist[0]},{self.twist[1]})"
        out = f"push({inner})"
        if self.push_twist:
            out += f"({self.push_twist})"
        return out


_TOKEN = re.compile(r"\s*(Omega|O|dual|push|\^|\(|\)|,|\*|-?\d+)")


def _tokenize(text: str) -> list[str]:
    text = text.strip()
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise SchemaError(f"cannot read sheaf expression at ...{text[pos:pos + 12]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def space_dim(space: str) -> int:
    if space == "P1xP1":
        return 2
    m = re.fullmatch(r"P(\d+)", space)
    if not m or int(m.group(1)) < 1:
        raise SchemaError(f"unknown space {space!r} (expected Pn or P1xP1)")
    return int(m.group(1))


class _Parser:
    def __init__(self, space: str, tokens: list[str]):
        self.space = space
        self.toks = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise SchemaError(f"sheaf expression ended unexpectedly (wanted {expected!r})")
        self.pos += 1
        return tok

    def take_int(self) -> int:
        tok = self.take()
        try:
            return int(tok)
        except ValueError:
            raise SchemaError(f"expected an integer in sheaf expression, got {tok!r}") from None

    def parse(self) -> SheafDescriptor:
        node = self.factor()
        while self.peek() == "*":
            self.take("*")
            node = _tensor(node, self.factor())
        if self.peek() is not None:
            raise SchemaError(f"trailing tokens in sheaf expression: {self.toks[self.pos:]}")
        return node

    def factor(self) -> SheafDescriptor:
        tok = self.take()
        if tok == "dual":
            self.take("(")
            inner = self.factor()
            while self.peek() == "*":
                self.take("*")
                inner = _tensor(inner, self.factor())
            self.take(")")
            return _dual(inner)
        if tok == "push":
            if self.space != "P3":
                raise SchemaError("push(...) lands on P3; use it with space P3")
            self.take("(")
            inner = _Parser("P1xP1", self.toks[self.pos:])
            node = inner.factor()
            while inner.peek() == "*":
                inner.take("*")
                node = _tensor(node, inner.factor())
            self.pos += inner.pos
            self.take(")")
            if node.kind != "biline":
                raise SchemaError("push(...) takes a sheaf on P1xP1")
            pushed = SheafDescriptor("P3", "push", node.twist)
            return _maybe_twist(self, pushed)
        if tok == "O":
            return _maybe_twist(self, _plain_o(self.space))
        if tok == "Omega":
            self.take("^")
            p = self.take_int()
            if self.space == "P1xP1":
                raise SchemaError("Omega^p terms are supported on P^n only")
            n = space_dim(self.space)
            if not 0 <= p <= n:
                raise SchemaError(f"form degree {p} out of range for {self.space}")
            if p == 0:  # Omega^0 = O
                return _maybe_twist(self, _plain_o(self.space))
            return _maybe_twist(self, SheafDescriptor(self.space, "forms", (0,), form_degree=p))
        raise SchemaError(f"unexpected token {tok!r} in sheaf expression")


def _plain_o(space: str) -> SheafDescriptor:
    if space == "P1xP1":
        return SheafDescriptor(space, "biline", (0, 0))
    space_dim(space)
    return SheafDescriptor(space, "line", (0,))


def _maybe_twist(p: _Parser, node: SheafDescriptor) -> SheafDescriptor:
    while p.peek() == "(":
        p.take("(")
        first = p.take_int()
        if p.peek() == ",":
            p.take(",")
            second = p.take_int()
            p.take(")")
            if node.space == "P1xP1" or node.kind == "biline":
                node = _tensor(node, SheafDescriptor(node.space, "biline", (first, second)))
            else:
                raise SchemaError("bidegree twist on a single projective space")
        else:
            p.take(")")
            node = _twist_by(node, first)
    return node


def _twist_by(node: SheafDescriptor, m: int) -> SheafDescriptor:
    if node.kind == "line":
        return SheafDescriptor(node.space, "line", (node.twist[0] + m,))
    if node.kind == "forms":
        return SheafDescriptor(node.space, "forms", (node.twist[0] + m,),
                               form_degree=node.form_degree)
    if node.kind == "biline":
        return SheafDescriptor(node.space, "biline",
                               (node.twist[0] + m, node.twist[1] + m))
    return SheafDescriptor(node.space, "push", node.twist,
                           push_twist=node.push_twist + m)


def _tensor(x: SheafDescriptor, y: SheafDescriptor) -> SheafDescriptor:
    if x.space != y.space:
        raise SchemaError("tensor factors live on different spaces")
    for a, b in ((x, y), (y, x)):
        if b.kind == "line":
            return _twist_by(a, b.twist[0])
        if b.kind == "biline" and a.kind == "biline":
            return SheafDescriptor(a.space, "biline",
                                   (a.twist[0] + b.twist[0], a.twist[1] + b.twist[1]))
    raise SchemaError("tensor is only supported when one factor is a line bundle")


def _dual(node: SheafDescriptor) -> SheafDescriptor:
    if node.kind == "line":
        return SheafDescriptor(node.space, "line", (-node.twist[0],))
    if node.kind == "biline":
        return SheafDescriptor(node.space, "biline", (-node.twist[0], -node.twist[1]))
    raise SchemaError("dual(...) is only defined for line-bundle terms here")


def parse_sheaf(space: str, text: str) -> SheafDescriptor:
    """Parse a sheaf expression (see docs/sheaf-grammar.md) to normal form."""
    space_dim(space)  # validates the space name
    return _Parser(space, _tokenize(text)).parse()


# -- cohomology tables -------------------------------------------------------


@dataclass
class CohTable:
    """h^q values for a descriptor, each with the rule that produced it."""

    descriptor: SheafDescriptor
    entries: dict[int, tuple[int, str]] = dc_field(default_factory=dict)

    def dim(self, q: int) -> int:
        if q < 0 or q > space_dim(self.descriptor.space):
            return 0
        return self.entries[q][0]

    def dims(self) -> list[int]:
        return [self.entries[q][0] for q in sorted(self.entries)]

    def chi(self) -> int:
        return sum((-1) ** q * v for q, (v, _) in sorted(self.entries.items()))


def cohomology_table(desc: SheafDescriptor) -> CohTable:
    """Evaluate a descriptor to its full h^q column with rule traces."""
    table = CohTable(desc)
    if desc.kind == "line":
        n = space_dim(desc.space)
        for q in range(n + 1):
            table.entries[q] = (h_line(n, desc.twist[0], q), f"line bundle on P^{n}")
    elif desc.kind == "forms":
        n = space_dim(desc.space)
        for q in range(n + 1):
            table.entries[q] = (h_omega(n, desc.form_degree, desc.twist[0], q),
                                "Bott formula")
    elif desc.kind == "biline":
        for q in range(3):
            table.entries[q] = (kunneth(1, 1, desc.twist[0], desc.twist[1], q),
                                "Kunneth on P1xP1")
    elif desc.kind == "push":
        a, b = desc.twist
        m = desc.push_twist
        for q in range(4):
            table.entries[q] = (
                kunneth(1, 1, a + m, b + m, q),
                "projection formula along the Segre embedding + Kunneth")
    else:  # pragma: no cover - normal forms are closed under the parser
        raise SchemaError(f"unknown descriptor kind {desc.kind!r}")
    return table


def segre_push_table(a: int, b: int, m: int) -> CohTable:
    """Cohomology on P3 of the pushed-forward O(a,b), twisted by m."""
    return cohomology_table(SheafDescriptor("P3", "push", (a, b), push_twist=m))


# -- the two-chain consistency report ----------------------------------------


def _step(node: str, dim: int | None, rule: str, note: str | None = None) -> dict:
    out: dict = {"node": node, "dim": dim, "rule": rule}
    if note:
        out["note"] = note
    return out


def _link(steps: list[dict]) -> list[dict]:
    """Mark each step MATCH/MISMATCH against the previous evaluable one."""
    prev_dim = None
    for s in steps:
        if s["dim"] is None:
            s["vs_prev"] = "not comparable"
            continue
        if prev_dim is None:
            s["vs_prev"] = "first evaluable step"
        else:
            s["vs_prev"] = "MATCH" if s["dim"] == prev_dim else "MISMATCH"
        prev_dim = s["dim"]
    return steps


def prop2_report() -> dict:
    """Recompute both isomorphism chains of the quadric-on-P3 computation.

    Every node that the line-bundle calculus can evaluate gets a dimension
    and the rule used; consecutive evaluable dimensions are compared and
    mismatches flagged.  Where a step dualizes a pushforward (not a line
    bundle), both readings are reported.  Nothing external is assumed
    correct: the report asserts only the consistency of its own rules.
    """
    quadric = segre_push_table(0, 0, -6)
    on_product = cohomology_table(parse_sheaf("P1xP1", "O(-6,-6)"))
    claimed_sections = cohomology_table(parse_sheaf("P1xP1", "O(3,3)"))
    serre_dual_sections = cohomology_table(parse_sheaf("P1xP1", "O(4,4)"))
    s10 = dim_graded_piece(4, 10)

    chain1 = _link([
        _step("Ext^1(push(O), O(-2)) on P3", None,
              "not evaluable: Ext between non-line-bundle coherent sheaves "
              "is outside the dimension calculus"),
        _step("Ext^2(O, push(O)(-6)) on P3", quadric.dim(2),
              "Ext^i(O, F) = H^i(F), then " + quadric.entries[2][1]),
        _step("H^2(P3, push(O)(-6))", quadric.dim(2), quadric.entries[2][1]),
        _step("H^2(P1xP1, O(-6,-6))", on_product.dim(2), on_product.entries[2][1]),
        _step("H^0(P1xP1, O(3,3))", claimed_sections.dim(0),
              claimed_sections.entries[0][1],
              note="the Serre dual of the previous group is "
                   f"H^0(O(4,4)) = {serre_dual_sections.dim(0)}, "
                   "so the (3,3) twist does not follow from duality"),
        _step("S_10, the degree-10 graded piece of k[x0..x3]", s10,
              "stars and bars: C(13, 3)"),
    ])

    both_readings = {
        "naive dual (termwise)": (
            "dual(push(O)) read as push(dual(O)) = push(O); "
            "the remaining factor has rank 3, still not evaluable"),
        "derived dual (adjoint along the embedding)": (
            "dual(push(F)) = push(dual(F)(2,2)) shifted one degree right, "
            "because the quadric's dualizing twist relative to P3 is O(2,2); "
            "the rank-3 factor still blocks a dimension"),
    }
    chain2 = _link([
        _step("Ext^1(T, push(O)) on P3", None,
              "not evaluable: tangent sheaf has rank 3"),
        _step("Ext^2(O, T * dual(push(O))(-4)) on P3", None,
              "not evaluable: dualizes a pushforward and keeps a rank-3 factor",
              note="; ".join(f"{k}: {v}" for k, v in both_readings.items())),
        _step("H^1(P3, dual(Omega^1(-4) * push(O)))", None,
              "not evaluable for the same reason; the projection formula "
              "rewrites the inner tensor as push(pullback(Omega^1(-4))), "
              "making this node definitionally equal to the next"),
        _step("H^1(P3, dual(push(pullback(Omega^1(-4)))))", None,
              "not evaluable: restricted cotangent bundle on the quadric "
              "does not split into line bundles in this calculus"),
    ])

    omega_m5 = euler_chase(3, 1, -5)
    bott_m5 = [h_omega(3, 1, -5, q) for q in range(4)]
    ext2_shadow = h_omega(3, 1, -2, 2)
    terminal = {
        "receiving_group_h1": omega_m5[1],
        "receiving_group_h2": omega_m5[2],
        "full_column_Omega^1(-5)": omega_m5,
        "bott_agrees_with_chase": bott_m5 == omega_m5,
        "statement": (
            "the product lands in H^1(P3, Omega^1(-5)) by one reading and "
            "H^2 by the other; both compute to 0, so the product vanishes "
            "in the strongest possible form: the receiving group is zero"),
        "ext2_tangent_rewrite": {
            "node": "Ext^2(T, O(-2)) = H^2(P3, Omega^1(-2))",
            "dim": ext2_shadow,
            "rule": "Ext^i(E, L) = H^i(dual(E) * L) for a vector bundle E",
            "consistent_with_zero_receiving_group": ext2_shadow == 0,
        },
    }

    # Euler-characteristic additivity of the two defining sequences,
    # checked on a twist grid: chi is additive on exact sequences.
    alpha1_additivity = all(
        chi_line(3, t) - chi_line(3, t - 2) == segre_push_table(0, 0, t).chi()
        for t in range(-8, 9))
    chi_tangent = 4 * chi_line(3, 1) - chi_line(3, 0)
    chi_mid = 4 * chi_line(3, 1) - chi_line(3, -2)
    alpha2_additivity = chi_mid == segre_push_table(0, 0, 0).chi() + chi_tangent

    mismatches = sum(1 for s in chain1 if s.get("vs_prev") == "MISMATCH")
    report = {
        "chain1": chain1,
        "chain2": chain2,
        "terminal": terminal,
        "sequence_chi_checks": {
            "quadric_structure_sequence_additive_on_grid": alpha1_additivity,
            "euler_quotient_sequence_additive": alpha2_additivity,
        },
        "summary": {
            "chain1_mismatches": mismatches,
            "verdict": (
                f"chain 1 carries {mismatches} dimension mismatch(es) between "
                "consecutive evaluable steps; the terminal vanishing claim "
                "holds regardless because the receiving group is zero"),
        },
    }
    return report
