"""The rational recursion for the coefficients of `kernels.qj_table`, kept as
a test oracle for the graded-basis form.

d/dlam [lam^a u^{-p}] = a lam^{a-1} u^{-p} - 2 p lam^{a+1} u^{-(p+1)} with
u = lam^2 + |z|^2 and p = (s+1)/2 + j, applied n - 1 times to lam u^{-(s+1)/2}
in exact `Fraction` arithmetic.
"""
from fractions import Fraction


def qj_fractions(n: int, s: int) -> dict:
    """{(a, j): c} of d^{n-1}/dlam^{n-1} [lam u^{-(s+1)/2}] = sum c lam^a u^{-((s+1)/2 + j)}."""
    terms = {(1, 0): Fraction(1)}
    for _ in range(n - 1):
        new: dict = {}
        for (a, j), c in terms.items():
            if a > 0:
                new[a - 1, j] = new.get((a - 1, j), Fraction(0)) + c * a
            p = Fraction(s + 1, 2) + j
            new[a + 1, j + 1] = new.get((a + 1, j + 1), Fraction(0)) - 2 * p * c
        terms = new
    return {k: c for k, c in terms.items() if c != 0}
