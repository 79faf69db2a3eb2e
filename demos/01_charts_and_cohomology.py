"""Charts on Z_k(tau) and exact Cech cohomology of line bundles.

The local surface Z_k is glued from two coordinate charts U = {(z, u)} and
V = {(xi, v)} along (xi, v) = (z^-1, z^k u); the deformation Z_k(tau) bends
the glue to (xi, v) = (z^-1, z^k u + tau) with tau = t_1 z + ... +
t_{k-1} z^{k-1}.  Everything below is computed in exact rational arithmetic.

Run:  python demos/01_charts_and_cohomology.py
"""

from localsurfaces import (
    h0_basis,
    h1_dimension_formula,
    h1_line_bundle,
    is_V_holomorphic,
    parse_poly,
    surface,
    to_U_coords,
    to_V_coords,
)

P = parse_poly

print("=== chart rewrites ===")
s2 = surface(2)                       # Z_2
s2z = surface(2, [1])                 # Z_2(z), the deformed surface
print("on Z_2:        xi*v      ->", to_U_coords(P("xi*v"), s2))
print("on Z_2(z):     v         ->", to_U_coords(P("v"), s2z))
print("on Z_2(z):     u         ->", to_V_coords(P("u"), s2z))
print("on Z_2:        z^3*u     ->", to_V_coords(P("z^3*u"), s2))

print()
print("=== V-holomorphy: z^m u^n extends over V iff m <= n*k (tau = 0) ===")
for mono in ("z^4*u^2", "z^5*u^2", "z^2*u", "z^-1"):
    print(f"  {mono:8s} on Z_2 ->", is_V_holomorphic(P(mono), s2))

print()
print("=== H^1(Z_k, O(-n)): computed dimension vs closed form ===")
print("k\\n " + " ".join(f"{n:3d}" for n in range(0, 9)))
for k in range(1, 5):
    row = []
    for n in range(0, 9):
        result = h1_line_bundle(surface(k), n)
        formula = h1_dimension_formula(k, n)
        assert result.dimension == formula
        row.append(f"{result.dimension:3d}")
    print(f" {k}  " + " ".join(row))

print()
print("=== monomial bases of H^1 (the window normal form) ===")
for k, n in [(2, 4), (3, 5), (1, 3)]:
    result = h1_line_bundle(surface(k), n)
    basis = ", ".join(str(p) for p in result.basis)
    print(f"  H^1(Z_{k}, O(-{n})) = span {{ {basis} }}")

print()
print("=== window sections of O(n) (H^0) ===")
result = h0_basis(surface(1), 0)
print("  global functions on Z_1 (window cut):",
      ", ".join(str(p) for p in result.basis[:8]), "...")
result = h0_basis(surface(2, [1]), 0)
names = [str(p) for p in result.basis]
print("  on Z_2(z) the fibre coordinate u is globally defined:",
      "u" in names)
