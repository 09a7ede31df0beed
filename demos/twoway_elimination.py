"""
Two-way layout: elimination down to a quartic
=============================================

For a balanced crossed layout with two random effects the stationarity
system is rational in (omega, tau1, tau2). Its first equation fixes
c = omega + qn tau1 + rn tau2 as a function of omega; then
a = omega + qn tau1 satisfies two quadratics over Q[omega]. Their
resultant, with the known clearing factors stripped, is a polynomial in
omega of degree four, and each tau is recovered from omega by a linear
relation modulo that quartic.
"""

from fractions import Fraction

from exactvc.twoway import (
    TwoWayStats,
    eliminate_to_quartic,
    fit_twoway,
    ml_system,
)

# A 24 x 6 layout with one observation per cell, summarized by its
# exact sums of squares.
stats = TwoWayStats(r=24, q=6, n=1,
                    SSA=Fraction(953, 9), SSB=Fraction(4043, 9),
                    SSAB=Fraction(313, 9), SSE=Fraction(0))

sk = eliminate_to_quartic(ml_system(stats))
print("eliminated polynomial (degree %d in %s):"
      % (sk.eliminated.degree, sk.eliminated.var))
print(" ", sk.eliminated.integer_coeffs())
print("tau1 = -(omega part)/%d mod quartic, omega part coefficients:"
      % sk.tau1_relation.den)
print(" ", [-c for c in sk.tau1_relation.ints])

# The full fit isolates all four real roots, decides feasibility of
# each candidate (omega > 0, both taus >= 0) by certified interval
# refinement, and ranks the survivors by rigorous log-likelihood
# brackets.
rep = fit_twoway(stats)
print("\ncandidate stationary points:", len(rep.solutions))
for s in rep.solutions:
    om = float((s.var_value.lo + s.var_value.hi) / 2)
    print(f"  omega ~ {om:9.6f}   feasible: {s.feasible}")

g = rep.global_solution
print("\ncertified global maximum:")
print("  omega ~", round(float(g.omega.midpoint()), 6))
print("  tau1  ~", round(float(g.tau1.midpoint()), 6))
print("  tau2  ~", round(float(g.tau2.midpoint()), 6))

# With replication (n >= 2) the residual variance separates out exactly
# and the same machinery runs on the interaction component.
rep2 = fit_twoway(TwoWayStats(r=3, q=4, n=2,
                              SSA=Fraction(50), SSB=Fraction(70),
                              SSAB=Fraction(30), SSE=Fraction(24)),
                  model="interaction")
print("\ninteraction model on a replicated 3 x 4 layout:")
print("  omega_hat =", rep2.omega_hat, "(exact)")
print("  quartic variable:", rep2.quartic.var)
