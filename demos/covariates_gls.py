"""
Group effects plus a fixed covariate
====================================
"""

from fractions import Fraction as F

from exactvc import covariates, oneway
from exactvc.covariates import DesignProblem, ml_equation
from exactvc.stats import GroupedData, summarize

# Three groups, a shared intercept, and one slope. Rows are
# (response, covariate row); group_sizes gives the block structure.
y = (F(3), F(5), F(4), F(9), F(11), F(10), F(2), F(1))
x = ((F(1), F(0)), (F(1), F(1)), (F(1), F(2)),
     (F(1), F(0)), (F(1), F(1)), (F(1), F(2)),
     (F(1), F(0)), (F(1), F(1)))
design = DesignProblem(y, x, group_sizes=(3, 3, 2))

eq = ml_equation(design)
print("ML equation degree with intercept + slope:", eq.observed_degree)

# Dropping the covariate down to the all-ones column recovers the plain
# one-way equation exactly, coefficient for coefficient.
ones = DesignProblem(y, tuple((F(1),) for _ in y), (3, 3, 2))
plain = summarize(GroupedData(((F(3), F(5), F(4)),
                               (F(9), F(11), F(10)),
                               (F(2), F(1)))))
print("all-ones numerator == plain one-way numerator:",
      ml_equation(ones).numerator == oneway.ml_equation(plain).numerator)

rep = covariates.ml_fit(design)
g = rep.global_estimates
print("\nglobal fit:")
print("  theta ~", float(g.theta.midpoint())
      if not g.theta.is_exact else f"{g.theta.lo} (boundary)")
for j, b in enumerate(g.beta):
    print(f"  beta[{j}] ~ {float(b.midpoint()):.6f}")
