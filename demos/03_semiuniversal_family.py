"""From tangent cohomology to the semiuniversal family of Z_k.

The classification pipeline: H^1(Z_k, T) has dimension k-1; candidate
deformations of the tangent bundle are classes in Ext^1(O(2), O(-k)); each
direction either fails to be a Jacobian, hits the logarithm obstruction,
integrates to a trivial family, or produces a genuine deformation Z_k(tau).
The nontrivial directions assemble into a (k-1)-parameter family whose
Kodaira-Spencer map is the identity on basis vectors.

Run:  python demos/03_semiuniversal_family.py
"""

from fractions import Fraction as Q

from localsurfaces import (
    TangentExtensionClass,
    deform_by_cocycle,
    ext_basis_tangent,
    family_and_ks,
    integrability_analysis,
    normalization_residual,
    surface,
    tangent_h1,
)

K = 4

print(f"=== tangent cohomology of Z_{K} ===")
result = tangent_h1(K)
print(f"  dim H^1(Z_{K}, T) = {result.dimension}")
for vec in result.basis:
    print(f"  basis vector ({vec[0]}, {vec[1]})^t")

print()
print(f"=== integrability of every extension direction (k = {K}) ===")
ext, h1b = ext_basis_tangent(K)
print("  Ext^1(O(2), O(-k)) basis:", ", ".join(str(p) for p in ext))
for sigma in ext:
    cls = TangentExtensionClass.from_poly(K, sigma)
    rep = integrability_analysis(K, cls)
    tau = " + ".join(
        f"{t}*z^{i}" for i, t in enumerate(rep.tau, start=1) if t
    ) or "0"
    print(f"  {str(sigma):8s} -> {rep.verdict.value:22s} tau = {tau},"
          f" t_k = {rep.t_k}")

print()
print("=== normalization: the integration constants do not matter ===")
residual = normalization_residual(K, [1, 0, 0])
print(f"  Z_k(tau, tK, C, 0) ~ {surface(K, [1, 0, 0])} via u -> u + tK,"
      f" v -> v - C: residual over formal (tK, C) = {residual}")

print()
print(f"=== the family over C^{K-1} and its Kodaira-Spencer map ===")
fam, ks = family_and_ks(K)
print("  glue matrix on (z, u, t)^t:")
for row in fam.transition:
    print("   [" + ", ".join(str(p) for p in row) + "]")
for i in sorted(ks):
    print(f"  KS(d/dt_{i}) = ({ks[i][0]}, {ks[i][1]})^t")

print()
print("=== fibres agree with the cocycle construction ===")
tvals = [Q(1, 2), Q(0), Q(-3)]
fibre, corner = fam.fiber(tvals)
rebuilt = deform_by_cocycle(K, fibre.tau_poly())
print(f"  fibre at t = {tvals}: {fibre}")
print(f"  rebuilt from the cocycle (0, z^-k*tau)^t: {rebuilt}")
assert fibre == rebuilt
print("  fibre at t = 0 is the undeformed surface:",
      fam.fiber([0] * (K - 1))[0] == surface(K))
