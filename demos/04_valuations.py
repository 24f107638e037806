"""Level-volume profiles and exact integral valuations, cross-checked by
Monte Carlo."""

from fractions import Fraction as F

import convval as cv

zeta0 = cv.make_growth([0, 2], [[2, -1]], require_nonnegative=True)
zetan = cv.make_growth([0, 1], [[1]], require_nonnegative=True)

# The level-volume profile V(t) = vol{u <= t} of the l1 norm in R^2 is the
# polynomial 2 t^2; the library derives it exactly from one triangulation of
# the epigraph capped above its highest vertex.
u = cv.make([((1, 1), 0), ((1, -1), 0), ((-1, 1), 0), ((-1, -1), 0)], n=2)
prof = cv.level_volume_profile(u)
print("V(t) on the final ray:", prof.final_poly, " (coefficients, ascending)")
print("V(3/2) =", prof.value(F(3, 2)))
print("V is certified monotone:", prof.verify_monotone())

# The valuation Z(u) = zeta0(min u) + Integral zetan(u(x)) dx is exact.
val = cv.combined_valuation(zeta0, zetan, u)
print("\nZ(u) =", val)

# For cone functions the integral collapses to a moment identity.
body = cv.random_body(4, 2)
g = cv.cone_function(body)
print("Z_int(cone of K) =", cv.integral_valuation(zetan, g))
print("vol(K) * n * moment:", cv.volume(body) * 2 * cv.moment(zetan, 1))

# Tail mass and truncation: how much of the integral lives above level t.
print("\ntail above t = 1/2:", cv.tail_mass(zetan, u, F(1, 2)))
print("truncation level for 1e-4:", cv.truncation_level(zetan, u, 1e-4))

# An independent Monte Carlo oracle agrees within its standard error.
caged = cv.sup(u, cv.indicator_function(cv.Polyhedron.box([(-2, 2), (-2, 2)])))
exact = float(cv.integral_valuation(zetan, caged))
est, err = cv.mc_oracle(zetan, caged, samples=200000, seed=0)
print(f"\nexact = {exact:.6f}, MC = {est:.6f} +- {err:.6f}")

# Probing an opaque valuation with standard inputs recovers its two growth
# functions (the minimum weight and the integral weight profile).
zfn = lambda f: cv.combined_valuation(zeta0, zetan, f)
psi0, psin = cv.extract_growth(zfn, 2, [F(0), F(1, 2), F(1)])
print("\nsampled psi0:", [str(x) for x in psi0])
print("sampled psi2:", [str(x) for x in psin])
