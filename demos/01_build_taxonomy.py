"""Build a universal taxonomy for the truck/car/van mini-collection.

Three datasets each label one vehicle class, and the classes overlap: the
pickup region is claimed by all three.  Grouping atoms by membership
signature yields four disjoint universal classes, and every dataset class
becomes a union of them.
"""

from unitax import problems
from unitax.resolve import initial_state, resolve_fixpoint, resolve_step
from unitax.taxonomy import build_universal_from_atoms, collection_from_dict

col = collection_from_dict(problems.vehicle_mini_collection())

print("dataset classes:")
for ds in col.datasets:
    for cls in ds.classes:
        names = sorted(col.atoms[a] for a in cls.atoms)
        print(f"  {ds.name}.{cls.name} = {{{', '.join(names)}}}")

tax, maps = build_universal_from_atoms(col)
print("\nuniversal classes (signature grouping):")
for u in tax.classes:
    names = sorted(col.atoms[a] for a in u.atoms)
    print(f"  u{u.id} {u.display_name} = {{{', '.join(names)}}}")

print("\nmappings (dataset class -> universal classes):")
for ds in col.datasets:
    for cls in ds.classes:
        mapped = ", ".join(tax.classes[u].display_name
                           for u in maps.mapped(ds.name, cls.name))
        print(f"  {ds.name}.{cls.name} -> {{{mapped}}}")

# the rewrite rules reach the same partition step by step
state = initial_state(col)
step = 0
while True:
    state, applied = resolve_step(state)
    if applied is None:
        break
    step += 1
    print(f"\nrule {applied.rule} applied at step {step}")

final, steps = resolve_fixpoint(col)
print(f"\nfixpoint after {len(steps)} rule applications; "
      f"{len(tax.classes)} universal classes either way")
