"""Independent oracles for the workloads' outputs.

Each function returns an error string, or None when the output agrees with
the closed form.  None of them reuses the code path it checks: report checks
parse the TSV text, and the module checks compare the straightening route
with a closed form or with the Dunkl route.
"""

from __future__ import annotations

import math
from fractions import Fraction

from cherednik.scalars import ONE, Scalar


def report_rows(text: str) -> list:
    """Data rows of a TSV report (header comments and the column line dropped)."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return [line.split("\t") for line in lines[1:]]


def verma_dims(text: str, rank: int, irrep_dims: dict) -> str | None:
    """`verma-weights`: dim of degree n is comb(n + rank - 1, rank - 1) * dim W."""
    rows = report_rows(text)
    if not rows:
        return "verma-weights report has no rows"
    for label, degree, _weight, dim in rows:
        n = int(degree)
        want = math.comb(n + rank - 1, rank - 1) * irrep_dims[label]
        if int(dim) != want:
            return f"verma-weights {label} degree {n}: dim {dim}, expected {want}"
    return None


def rank_one_law(text: str, k: int, cutoff: int) -> str | None:
    """`singular` on cyclic:2 with c = k/2 (k odd): the trivial Verma module
    has singular vectors only at degree k, one of them."""
    found = {}
    for label, degree, _isotype, dim in report_rows(text):
        if label == "triv" and int(degree) > 0:
            found[int(degree)] = found.get(int(degree), 0) + int(dim)
    want = {k: 1} if k <= cutoff else {}
    if found != want:
        return f"rank-one law, c = {k}/2: singular dims {found}, expected {want}"
    return None


def y1_xn_terms(n: int, c: Fraction) -> dict:
    """y1 * x1^N = x1^N*y1 + N*x1^(N-1) - 2c*[N odd]*x1^(N-1)*g1 on cyclic:2,
    as {(x-degree, group index, y-degree): coefficient}."""
    terms = {(n, 0, 1): Fraction(1), (n - 1, 0, 0): Fraction(n)}
    if n % 2 and c:
        terms[(n - 1, 1, 0)] = -2 * c
    return terms


def y1_xn_law(element, n: int, c: Fraction) -> str | None:
    """Compare a PBW element of the cyclic:2 algebra with `y1_xn_terms`."""
    got = {}
    for (i, g, j), coef in element.terms.items():
        got[(i[0], g, j[0])] = coef.as_fraction()
    want = y1_xn_terms(n, c)
    if got != want:
        return f"y1*x1^{n}: got {got}, expected {want}"
    return None


def _format_y1_xn(n: int, c: Fraction) -> str:
    """The canonical text of y1 * x1^N, written out independently of pbw."""
    def mono(e):
        return "x1" if e == 1 else f"x1^{e}"

    parts = [f"{n}*{mono(n - 1)}" if n > 1 else str(n)]
    if n % 2 and c:
        coef = 2 * c
        body = f"{mono(n - 1)}*g1" if n > 1 else "g1"
        parts.append(f"- {body}" if coef == 1 else f"- {coef}*{body}")
    parts.append(f"+ {mono(n)}*y1")
    return " ".join(parts)


def deep_ws_report(text: str, n: int, c: Fraction) -> str | None:
    """`ws-decompose` of y1*x1^N at level 0: one component of weight N - 1
    holding the whole product."""
    rows = report_rows(text)
    want = _format_y1_xn(n, c)
    if len(rows) != 1 or rows[0][0] != str(n - 1) or rows[0][2] != want:
        return f"ws-decompose y1*x1^{n}: rows {rows[:2]}, expected weight {n - 1} and {want!r}"
    return None


def euler_eigenvalue(algebra, irrep) -> object:
    """c_W = dim/2 - sum_s kappa_s chi_W(s) / dim W, computed from the group
    layer's reflection data and character table only."""
    total = Scalar.rational(algebra.dim) / 2
    for r in algebra.reflections:
        kappa = Scalar.rational(2) * algebra.c(r.index) / (ONE - r.eigenvalue.inverse())
        total = total - kappa * irrep.character[r.index] / irrep.dim
    return total
