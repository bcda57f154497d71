"""Conway polynomials two ways: Fox calculus and the Seifert oracle.

The Fox path reads the Alexander matrix of a knot group presentation
(every meridian acts by t) and takes over Z[t, 1/t] the determinant
that the torsion of its twisted complex reduces to, (t - 1) / torsion =
+- t^k Delta(t); it normalizes that Alexander polynomial, and the
oracle rewrites det(s V - (1/s) V^T) in z = s - 1/s.  They agree
exactly, sign and all.
"""

from torsionfam import (
    alexander_from_fox,
    bundled_knots,
    conway_from_seifert,
    conway_normalize,
)
from torsionfam.groupring import Word
from torsionfam.knots import KnotPresentation, SeifertMatrix

for name, (presentation, seifert) in bundled_knots().items():
    delta = alexander_from_fox(presentation)
    nabla = conway_normalize(delta)
    oracle = conway_from_seifert(seifert)
    marker = "==" if nabla == oracle else "!="
    print(f"{name:8s}  Delta = {delta!r:28s}  Conway = {nabla!r:18s} {marker} oracle")

# The trefoil by hand: relator x y x y^-1 x^-1 y^-1.
x, y = Word.generator(0), Word.generator(1)
relator = x * y * x * y.inverse() * x.inverse() * y.inverse()
trefoil = KnotPresentation(strands=2, wirtinger_relators=(relator,))
print("\ntrefoil Alexander polynomial:", alexander_from_fox(trefoil))

# Mirror images share a Conway polynomial: the oracle on the
# transposed Seifert matrix returns the same answer.
v = SeifertMatrix(((-1, 1), (0, -1)))
print("trefoil vs mirror:",
      conway_from_seifert(v), "vs", conway_from_seifert(v.transpose()))
