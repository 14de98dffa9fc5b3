"""Classes as atom sets, universal taxonomy construction and filtering.

A collection models every dataset-specific class as a finite set of
indivisible concept atoms.  Universal classes are the groups of atoms that
share an identical membership signature over all dataset classes; each
dataset class then maps to the set of universal classes it contains.
"""

from __future__ import annotations

import enum
import functools
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (InvalidClass, NotFound, UnmappedLabel, ValidationError, load_json,
                     require_field, require_list)

VOID = "__void__"


class Relation(enum.Enum):
    EQUAL = "equal"
    SUBSET = "subset"
    SUPERSET = "superset"
    OVERLAP = "overlap"
    DISJOINT = "disjoint"


def classify_relation(a: frozenset, b: frozenset) -> Relation:
    """Classify the set-theoretic relation of ``a`` with respect to ``b``.

    Overlap means neither contains the other and the intersection is
    non-empty.  Both sets must be non-empty.
    """
    if not a or not b:
        raise InvalidClass("classify_relation requires non-empty atom sets")
    if a == b:
        return Relation.EQUAL
    if a < b:
        return Relation.SUBSET
    if a > b:
        return Relation.SUPERSET
    if a & b:
        return Relation.OVERLAP
    return Relation.DISJOINT


@dataclass(frozen=True)
class DatasetClass:
    name: str
    atoms: frozenset  # of atom ids


@dataclass(frozen=True)
class DatasetTaxonomy:
    name: str
    classes: tuple  # of DatasetClass

    @functools.cached_property
    def class_names(self) -> frozenset:
        return frozenset(c.name for c in self.classes)


@dataclass(frozen=True)
class Collection:
    """Atoms and dataset taxonomies over them.  Making one runs
    validate_collection, so every Collection holds its invariants."""

    atoms: tuple  # of atom names (str); an atom's id is its position
    datasets: tuple  # of DatasetTaxonomy

    def __post_init__(self):
        validate_collection(self)

    def atom_names(self, ids) -> list:
        return [self.atoms[i] for i in sorted(ids)]

    @functools.cached_property
    def _by_name(self) -> dict:
        return {ds.name: ds for ds in self.datasets}

    def dataset(self, name: str) -> DatasetTaxonomy:
        try:
            return self._by_name[name]
        except (KeyError, TypeError):
            raise NotFound(f"unknown dataset {name!r}") from None


@dataclass(frozen=True)
class UniversalClass:
    id: int
    atoms: frozenset  # of atom ids
    signature: frozenset  # of (dataset index, class index) pairs
    display_name: str


@dataclass(frozen=True)
class UniversalTaxonomy:
    classes: tuple  # of UniversalClass
    dominators: dict = field(default_factory=dict)  # untrainable id -> dominator id

    @property
    def trainable(self) -> tuple:
        """Per class, whether it is trainable: whether it has no dominator."""
        return tuple(u.id not in self.dominators for u in self.classes)


@dataclass(frozen=True)
class MappingSet:
    """Per dataset, per class name: ordered tuple of universal class ids."""

    by_dataset: dict  # dataset name -> {class name -> tuple of universal ids}

    def mapped(self, dataset: str, cls: str) -> tuple:
        """The universal ids of class ``cls`` of ``dataset``; UnmappedLabel
        when there are none."""
        try:
            per_class = self.by_dataset[dataset]
        except KeyError:
            raise NotFound(f"unknown dataset {dataset!r}")
        try:
            uids = per_class[cls]
        except KeyError:
            raise NotFound(f"unknown class {dataset!r}.{cls!r}")
        if not uids:
            raise UnmappedLabel(f"label {dataset}.{cls} maps to no universal class")
        return uids

    def class_of(self, dataset: str, classes) -> dict:
        """Universal id -> index in ``classes``, the DatasetClass tuple of
        ``dataset``, of the class whose mapped set holds it.  The classes of
        a dataset are disjoint, so at most one does."""
        return {u: c for c, cls in enumerate(classes) for u in self.mapped(dataset, cls.name)}


def validate_collection(col: Collection) -> None:
    """Check all structural invariants, raising ValidationError on the first
    violation with a message naming the invariant."""
    names = col.atoms
    if not all(names):
        raise ValidationError("atom names must be non-empty")
    if len(set(names)) != len(names):
        dup = sorted({n for n in names if names.count(n) > 1})
        raise ValidationError(f"atom names must be unique, duplicated: {dup}")
    ds_names = [ds.name for ds in col.datasets]
    if len(set(ds_names)) != len(ds_names):
        raise ValidationError("dataset names must be unique")
    referenced = set()
    for d, ds in enumerate(col.datasets):
        if not ds.classes:
            raise ValidationError(f"field 'datasets[{d}].classes' is empty: dataset "
                                  f"{ds.name!r} must have at least one class")
        cls_names = [c.name for c in ds.classes]
        if len(set(cls_names)) != len(cls_names):
            raise ValidationError(f"class names must be unique within dataset {ds.name!r}")
        atoms = [c.atoms for c in ds.classes]
        held = set().union(*atoms)
        # One pass over the dataset decides; the class loops only name the fault.
        if not all(atoms) or min(held) < 0 or max(held) >= len(names):
            for c in ds.classes:
                if not c.atoms:
                    raise InvalidClass(f"class {ds.name}.{c.name} has an empty atom set")
                bad = [i for i in c.atoms if not 0 <= i < len(names)]
                if bad:
                    raise ValidationError(
                        f"class {ds.name}.{c.name} references unknown atoms {bad}")
        if len(held) != sum(map(len, atoms)):
            x, y = next((x, y) for x, y in itertools.combinations(ds.classes, 2)
                        if x.atoms & y.atoms)
            raise ValidationError(f"classes within a dataset must be pairwise disjoint: "
                                  f"{ds.name}.{x.name} intersects {ds.name}.{y.name}")
        referenced |= held
    orphans = set(range(len(col.atoms))) - referenced
    if orphans:
        i = min(orphans)
        raise ValidationError(f"field 'atoms[{i}]' ({names[i]!r}) is in no class: every atom "
                              f"must be referenced by at least one class")


def build_universal_from_atoms(col: Collection):
    """Group atoms by membership signature into disjoint universal classes.

    Returns (UniversalTaxonomy, MappingSet).  Class order is deterministic:
    sorted by signature, then atom ids.  Display names join atom names
    with "+".
    """
    # Each atom's (dataset index, class index) pairs, ascending as the loops run
    signature_of_atom = [[] for _ in col.atoms]
    for d, ds in enumerate(col.datasets):
        for c, cls in enumerate(ds.classes):
            pair = (d, c)
            for a in cls.atoms:
                signature_of_atom[a].append(pair)
    groups = {}  # signature -> atom ids, ascending
    for a, sig in enumerate(signature_of_atom):
        groups.setdefault(tuple(sig), []).append(a)
    ordered = sorted(groups.items())  # the signatures differ, so the ids never compare
    holders = {}  # (dataset index, class index) -> ids of the classes inside it
    for uid, (sig, _) in enumerate(ordered):
        for pair in sig:
            holders.setdefault(pair, []).append(uid)
    by_dataset = {
        ds.name: {cls.name: tuple(holders[d, c]) for c, cls in enumerate(ds.classes)}
        for d, ds in enumerate(col.datasets)
    }
    classes = tuple(UniversalClass(uid, frozenset(ids), frozenset(sig),
                                   "+".join([col.atoms[a] for a in ids]))
                    for uid, (sig, ids) in enumerate(ordered))
    return UniversalTaxonomy(classes), MappingSet(by_dataset)


def filter_untrainable(tax: UniversalTaxonomy, maps: MappingSet):
    """Drop universal classes whose signature is contained in a sibling's.

    A class u is untrainable iff some other class u' is a subset of every
    dataset class that u is a subset of, i.e. signature(u) <= signature(u').
    The dominator reported for u is such a u' with the largest signature
    (ties broken by lowest id).  Returns (taxonomy, mappings, report) where
    the report is a list of (untrainable id, dominator id) pairs.
    """
    signatures = [u.signature for u in tax.classes]
    dominators = {}
    for u, sig in enumerate(signatures):
        candidates = [v for v, other in enumerate(signatures) if v != u and sig <= other]
        if candidates:
            dominators[u] = max(candidates, key=lambda v: (len(signatures[v]), -v))
    by_dataset = {
        ds: {cls: tuple([u for u in uids if u not in dominators]) for cls, uids in per.items()}
        for ds, per in maps.by_dataset.items()
    }
    filtered = UniversalTaxonomy(tax.classes, dominators)
    return filtered, MappingSet(by_dataset), sorted(dominators.items())


def projection(sources, targets, void: bool = False) -> np.ndarray:
    """0/1 float matrix of which sources meet which targets.

    ``W[s, t]`` is 1 when ``sources[s]`` and ``targets[t]`` share an
    element: atoms, universal ids or (dataset, class) pairs.  With
    ``void``, a last column marks the sources that meet no target.

    Meeting is the only rule needed: a universal class lies either inside
    or outside each dataset class (build_universal_from_atoms groups atoms
    so, and validate_universal holds files to it), so for them meeting a
    class and lying in it are the same.
    """
    width = len(targets) + void
    holders = {}  # element -> where the rows of the sources holding it start in w
    for i, s in enumerate(sources):
        for e in s:
            holders.setdefault(e, []).append(i * width)
    w = [0.0] * (len(sources) * width)  # row-major
    for j, t in enumerate(targets):
        for e in t:
            for row in holders.get(e, ()):
                w[row + j] = 1.0
    if void:
        for start in range(0, len(w), width):
            w[start + width - 1] = 0.0 if 1.0 in w[start:start + width - 1] else 1.0
    return np.array(w, dtype=np.float64).reshape(len(sources), width)


def mapping_matrix(dataset: str, col: Collection, tax: UniversalTaxonomy,
                   maps: MappingSet, include_void: bool = False):
    """Binary matrix mapping dataset classes to trainable universal classes.

    Returns (row_names, column_names, rows) where rows is a list of lists of
    0/1 ints.  The optional final "__void__" row marks universal classes
    absent from every class of the dataset.
    """
    ds = col.dataset(dataset)
    columns = [u for u in tax.classes if u.id not in tax.dominators]
    w = projection([(u.id,) for u in columns],
                   [maps.mapped(dataset, c.name) for c in ds.classes], include_void)
    row_names = [c.name for c in ds.classes] + ([VOID] if include_void else [])
    return row_names, [u.display_name for u in columns], w.T.astype(int).tolist()


def matrix_csv(row_names, column_names, rows) -> str:
    lines = ["," + ",".join(column_names)]
    for name, row in zip(row_names, rows):
        lines.append(name + "," + ",".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON serialization


def collection_from_dict(data: dict) -> Collection:
    """Read a collection, raising ValidationError naming the first missing
    or mistyped field."""
    atom_names = require_list(require_field(data, "atoms", list), str, "atoms")
    index = {name: i for i, name in enumerate(atom_names)}
    taxonomies = []
    for d, ds in enumerate(require_field(data, "datasets", list)):
        where = f"datasets[{d}]."
        name = require_field(ds, "name", str, where)
        classes = []
        for c, cls in enumerate(require_field(ds, "classes", list, where)):
            at = f"{where}classes[{c}]."
            cls_name = require_field(cls, "name", str, at)
            members = require_field(cls, "atoms", list, at)
            try:
                atoms = frozenset([index[a] for a in members])
            except (KeyError, TypeError):  # an unknown name, or not a name at all
                unknown = [a for a in members if not isinstance(a, str) or a not in index]
                raise ValidationError(f"field {at + 'atoms'!r}: class {name}.{cls_name} "
                                      f"references unknown atoms {unknown}") from None
            classes.append(DatasetClass(cls_name, atoms))
        taxonomies.append(DatasetTaxonomy(name, tuple(classes)))
    return Collection(tuple(atom_names), tuple(taxonomies))


def collection_to_dict(col: Collection) -> dict:
    return {
        "atoms": list(col.atoms),
        "datasets": [
            {
                "name": ds.name,
                "classes": [
                    {"name": c.name, "atoms": col.atom_names(c.atoms)} for c in ds.classes
                ],
            }
            for ds in col.datasets
        ],
    }


def load_collection(path) -> Collection:
    return load_json(path, collection_from_dict)


def taxonomy_to_dict(col: Collection, tax: UniversalTaxonomy, maps: MappingSet) -> dict:
    data = collection_to_dict(col)
    datasets, dominators = col.datasets, tax.dominators
    data["universal"] = [
        {
            "id": u.id,
            "display_name": u.display_name,
            "atoms": col.atom_names(u.atoms),
            "signature": [[datasets[d].name, datasets[d].classes[c].name]
                          for d, c in sorted(u.signature)],
            "trainable": u.id not in dominators,
            "dominator": dominators.get(u.id),
        }
        for u in tax.classes
    ]
    data["mappings"] = {
        ds: {cls: list(uids) for cls, uids in per.items()}
        for ds, per in maps.by_dataset.items()
    }
    return data


def taxonomy_from_dict(data: dict):
    """Re-read a built taxonomy file.  Returns (Collection, UniversalTaxonomy,
    MappingSet); validate_universal reads and checks the universal classes
    and the mappings.  A missing, mistyped or wrong field raises
    ValidationError naming it."""
    col = collection_from_dict(data)
    return (col, *validate_universal(col, data))


def validate_universal(col: Collection, data: dict):
    """Read the ``universal`` and ``mappings`` sections of a taxonomy file
    over ``col``, checking each entry as it is read against what
    build_universal_from_atoms and filter_untrainable derive from ``col``:
    the same signature grouping and dominators, without display names.
    Returns (UniversalTaxonomy, MappingSet) with the file's display names
    and mapping order.

    The classes are the built ones in the built order (display names are
    free).  The dominators are either none, as in an unfiltered build, or
    exactly the filter's.  Each mapping holds, in any order, the universal
    classes the dataset class contains, either all of them or the trainable
    ones, and there is one mapping for each class of the collection.  The
    universal entries are read before the mappings, each section in file
    order, and a ValidationError names the first field that is wrong.
    """
    tax, maps = build_universal_from_atoms(col)
    filtered, kept_maps, _ = filter_untrainable(tax, maps)
    built, built_maps, derived = tax.classes, maps.by_dataset, filtered.dominators
    index = {name: i for i, name in enumerate(col.atoms)}
    pair_index = {(ds.name, c.name): (d, ci)
                  for d, ds in enumerate(col.datasets) for ci, c in enumerate(ds.classes)}
    entries = require_field(data, "universal", list)
    classes = []
    dominators = {}
    differs = None  # the first class whose dominator is not the derived one
    for i, (entry, u) in enumerate(zip(entries, built)):
        where = f"universal[{i}]."
        if require_field(entry, "id", int, where) != i:
            raise ValidationError(f"field {where + 'id'!r} must be {i}")
        atoms = require_field(entry, "atoms", list, where)
        pairs = require_field(entry, "signature", list, where)
        display = require_field(entry, "display_name", str, where)
        try:
            atoms = frozenset([index[a] for a in atoms])
        except (KeyError, TypeError):  # an unknown name, or not a name at all
            bad = next(a for a in atoms if not isinstance(a, str) or a not in index)
            raise ValidationError(
                f"field {where + 'atoms'!r} names an unknown atom: {bad!r}") from None
        signature = []
        for pair in pairs:
            try:
                d, c = pair
                signature.append(pair_index[d, c])
            except (KeyError, TypeError, ValueError):
                raise ValidationError(f"field {where + 'signature'!r} holds a malformed or "
                                      f"unknown [dataset, class] pair: {pair!r}") from None
        signature = frozenset(signature)
        dominator = entry.get("dominator")
        if dominator is not None:
            dominators[i] = require_field(entry, "dominator", int, where)
        if "trainable" in entry:
            trainable = require_field(entry, "trainable", bool, where)
            if trainable != (dominator is None):
                raise ValidationError(
                    f"field {where + 'trainable'!r} is {json.dumps(trainable)} but "
                    f"{where + 'dominator'!r} is {json.dumps(dominator)}: a class is "
                    f"trainable exactly when it has no dominator")
        if atoms != u.atoms or signature != u.signature:
            raise ValidationError(f"field 'universal[{i}]' must hold the atoms "
                                  f"{col.atom_names(u.atoms)} and the classes containing them")
        # The dominators are all null (an unfiltered file) or all derived:
        # a class that differs is wrong once some class has a dominator.
        if differs is None and dominator != derived.get(i):
            differs = i
        if dominators and differs is not None:
            raise ValidationError(f"field 'universal[{differs}].dominator' must be "
                                  f"{json.dumps(derived.get(differs))}, the class filter "
                                  f"derives")
        classes.append(u if display == u.display_name
                       else UniversalClass(i, atoms, signature, display))
    if len(entries) != len(built):
        raise ValidationError(f"field 'universal' must list the {len(built)} "
                              f"universal classes of the collection, not {len(entries)}")
    mappings = require_field(data, "mappings", dict)
    by_dataset = {}
    for ds in mappings:
        if ds not in built_maps:
            raise ValidationError(f"field 'mappings.{ds}' names nothing in the collection")
        per_class = require_field(mappings, ds, dict, "mappings.")
        built_classes, kept_classes = built_maps[ds], kept_maps.by_dataset[ds]
        by_dataset[ds] = {}
        for cls, uids in per_class.items():
            if cls not in built_classes:
                raise ValidationError(f"field 'mappings.{ds}.{cls}' names nothing in "
                                      f"the collection")
            uids = tuple(require_list(uids, int, f"mappings.{ds}.{cls}"))
            contained = built_classes[cls]
            # the file's dominators are none or, checked above, the derived ones
            kept = kept_classes[cls] if dominators else contained
            if tuple(sorted(uids)) not in (contained, kept):
                raise ValidationError(
                    f"field 'mappings.{ds}.{cls}' must list the universal classes "
                    f"{list(contained)} it contains, or the trainable ones {list(kept)}")
            by_dataset[ds][cls] = uids
        _missing(built_classes, per_class, f"mappings.{ds}")
    _missing(built_maps, mappings, "mappings")
    return UniversalTaxonomy(tuple(classes), dominators), MappingSet(by_dataset)


def _missing(built: dict, found: dict, where: str) -> None:
    """Raise a ValidationError naming the first key of ``built`` that
    ``found`` lacks."""
    for key in built:
        if key not in found:
            raise ValidationError(f"field '{where}.{key}' is missing")
