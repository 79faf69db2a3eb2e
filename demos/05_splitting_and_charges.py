"""Rank-2 bundles: splitting types, split certificates, instanton charges.

A rank-2 bundle on Z_k with vanishing first Chern class and splitting type
j is an extension with transition [[z^j, z^j sigma], [0, z^-j]].  On Z_k
the classes sigma form nontrivial moduli; on a deformed surface every such
bundle splits, certified here by explicit matrices, and the charge
component h^0(R^1 pi_* E) drops to zero -- the instanton moduli empty out.
charge_report(s, e) computes that component exactly from the extension
sequence 0 -> O(-j) -> E -> O(j) -> 0: h^1(O(-j)) minus the rank of the
connecting map t -> [sigma * t].

Run:  python demos/05_splitting_and_charges.py
"""

from localsurfaces import (
    DISCRETE_ZERO_DIMENSIONAL,
    ExtensionClass,
    charge_report,
    extension_parameter_count,
    extension_to_transition,
    h1_line_bundle,
    moduli_dimension,
    parse_poly,
    restrict_to_zero_section,
    split_certificate,
    splitting_type_p1,
    surface,
    to_U_coords,
)

P = parse_poly

print("=== splitting types on the zero section of Z_2 ===")
for j, sigma_text in [(2, "z^-1*u"), (1, "0"), (3, "z^-2*u")]:
    e = ExtensionClass(j, P(sigma_text))
    T = extension_to_transition(e)
    restricted = restrict_to_zero_section(T, surface(2))
    print(f"  j={j}, sigma={sigma_text:8s}: T = {T}"
          f"  restricts to type {splitting_type_p1(restricted)}")

print()
print("=== a balanced extension: O(1) and O(-1) glue to the trivial bundle ===")
T = extension_to_transition(ExtensionClass(1, P("z^-1")))
print(f"  {T} has splitting type {splitting_type_p1(T)}")

print()
print("=== split certificates on the deformed surface Z_2(z) ===")
s = surface(2, [1])
for sigma in h1_line_bundle(surface(2), 4).basis:
    e = ExtensionClass(2, sigma)
    cert = split_certificate(s, e)
    a_v_u = cert.a_v.map_entries(lambda p: to_U_coords(p, s))
    product = (a_v_u @ extension_to_transition(e)) @ cert.a_u.inverse()
    assert product == cert.target
    print(f"  sigma = {str(sigma):8s}:  A_U = {cert.a_u},  A_V = {cert.a_v}")
print("  every class splits: A_V * T * A_U^-1 = diag(z^2, z^-2), checked "
      "by exact multiplication")

print()
print("=== charge bookkeeping ===")
# sigma = 0 is the split bundle O(-2) + O(2), with h^1 = h^1(O(-2)) = 1
plain = charge_report(surface(1), ExtensionClass(2, P("0")))
print(f"  Z_1, O(-2)+O(2): r1_dim = {plain.r1_dim}, "
      f"splitting divisible by k: {plain.splitting_ok}, "
      f"skyscraper component: {plain.q_dim}")
for sigma_text in ("0", "z^-1", "z^-1*u"):
    rep = charge_report(surface(2), ExtensionClass(2, P(sigma_text)))
    print(f"  Z_2, j=2, sigma={sigma_text:7s}: r1_dim = {rep.r1_dim} "
          f"(h^1(O(-2)) = 1 minus the rank of t -> [sigma * t])")
for sigma in h1_line_bundle(surface(2), 4).basis:
    e = ExtensionClass(2, sigma)
    rep = charge_report(s, e)
    assert rep.r1_dim == 0
print("  on Z_2(z) every tested bundle has r1_dim = 0: no charge is left "
      "to hold an instanton")

print()
print("=== moduli bookkeeping ===")
print(f"  splitting type 3 on Z_2: moduli dimension {moduli_dimension(3, 2)}"
      f" (raw parameter count {extension_parameter_count(2, 3)})")
print(f"  splitting type 2 on Z_2: moduli dimension {moduli_dimension(2, 2)}")
print(f"  any type on a deformed surface: "
      f"{moduli_dimension(2, 2, deformed=True)}")
assert moduli_dimension(2, 2, deformed=True) is DISCRETE_ZERO_DIMENSIONAL
