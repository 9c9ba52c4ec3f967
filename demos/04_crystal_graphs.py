"""Crystal graphs: connected components, B(lambda), and decompositions."""

from gallery_crystals import (
    DominantWeight,
    canonical_dominant_gallery,
    connected_component,
    decompose,
    format_gallery,
    highest_weight_crystal,
    highest_weight_vertex,
    is_isomorphic,
    parse_gallery,
    weyl_dimension,
)
from gallery_crystals.emit import graph_document, graph_dot

lam = DominantWeight((1, 1))
print("lambda =", lam, " dominant tableau:", format_gallery(canonical_dominant_gallery(lam)))
crystal = highest_weight_crystal(lam)
print("B(lambda) size:", len(crystal), " Weyl dimension:", weyl_dimension(lam))

print("\nedges (canonical order):")
document = graph_document(crystal)
names = document["vertices"]
for edge in document["edges"]:
    print(f"  {names[edge['from']]:8} --{edge['i']}--> {names[edge['to']]}")

lowest = parse_gallery("2,3|3", 3)
print("\nhighest weight vertex above 2,3|3:", format_gallery(highest_weight_vertex(lowest)))

other = connected_component(parse_gallery("1|1,2", 3))
ok, _ = is_isomorphic(crystal, other)
print("isomorphic to the mirrored-shape component:", ok)

print("\ndecomposition of the shape (1,1,1) crystal, rank 3:")
for entry in decompose((1, 1, 1), 3).entries:
    reps = ", ".join(format_gallery(g) or "(empty)" for g in entry.representatives)
    print(f"  lambda {str(entry.lam):5} multiplicity {entry.multiplicity}   heads: {reps}")

print("\nDOT output of B(omega_1), rank 3:")
dot = graph_dot(graph_document(highest_weight_crystal(DominantWeight((1, 0)))))
print(*dot, sep="\n", end="\n\n")
