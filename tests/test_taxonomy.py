import json
import random
from dataclasses import replace

import numpy as np
import pytest

from unitax import problems, taxonomy
from unitax.cli import run
from unitax.errors import InvalidClass, NotFound, ValidationError
from unitax.toyproblem import problem_from_dict
from unitax.taxonomy import (
    Collection,
    DatasetClass,
    DatasetTaxonomy,
    Relation,
    UniversalTaxonomy,
    build_universal_from_atoms,
    classify_relation,
    collection_from_dict,
    collection_to_dict,
    filter_untrainable,
    mapping_matrix,
    matrix_csv,
    projection,
    taxonomy_from_dict,
    taxonomy_to_dict,
    validate_collection,
    validate_universal,
)

from helpers import random_collection


def vehicles():
    return collection_from_dict(problems.vehicle_mini_collection())


def test_classify_relation_all_cases():
    a = frozenset({1, 2})
    assert classify_relation(a, frozenset({1, 2})) is Relation.EQUAL
    assert classify_relation(frozenset({1}), a) is Relation.SUBSET
    assert classify_relation(a, frozenset({1})) is Relation.SUPERSET
    assert classify_relation(a, frozenset({2, 3})) is Relation.OVERLAP
    assert classify_relation(a, frozenset({3, 4})) is Relation.DISJOINT


def test_classify_relation_rejects_empty():
    with pytest.raises(InvalidClass):
        classify_relation(frozenset(), frozenset({1}))


def test_vehicle_mini_collection_mappings():
    col = vehicles()
    tax, maps = build_universal_from_atoms(col)
    names = {u.display_name for u in tax.classes}
    assert names == {"truck", "pickup", "car", "van"}
    by_name = {u.display_name: u.id for u in tax.classes}

    def mapped_names(ds, cls):
        return {tax.classes[u].display_name for u in maps.mapped(ds, cls)}

    assert mapped_names("VIPER", "truck") == {"truck", "pickup"}
    assert mapped_names("Vistas", "car") == {"car", "van", "pickup"}
    assert mapped_names("ADE20k", "van") == {"van", "pickup"}
    # every universal class is a subset of at most one class per dataset
    for u in tax.classes:
        for ds in col.datasets:
            holders = [c for c in ds.classes if u.atoms <= c.atoms]
            assert len(holders) <= 1
    assert by_name["pickup"] in maps.mapped("VIPER", "truck")


def test_universal_classes_partition_the_atoms():
    col = vehicles()
    tax, _ = build_universal_from_atoms(col)
    seen = set()
    for u in tax.classes:
        assert not (seen & u.atoms)
        seen |= u.atoms
    assert seen == {0, 1, 2, 3}


def test_build_is_deterministic():
    col = vehicles()
    tax1, maps1 = build_universal_from_atoms(col)
    tax2, maps2 = build_universal_from_atoms(col)
    assert [u.display_name for u in tax1.classes] == [u.display_name for u in tax2.classes]
    assert maps1.by_dataset == maps2.by_dataset


def test_validate_collection_rejects_overlapping_classes():
    data = {
        "atoms": ["a", "b"],
        "datasets": [
            {"name": "D", "classes": [
                {"name": "x", "atoms": ["a", "b"]},
                {"name": "y", "atoms": ["b"]},
            ]}
        ],
    }
    with pytest.raises(ValidationError):
        validate_collection(collection_from_dict(data))


def test_validate_collection_rejects_orphan_atoms():
    data = {
        "atoms": ["a", "b"],
        "datasets": [
            {"name": "D", "classes": [{"name": "x", "atoms": ["a"]}]}
        ],
    }
    with pytest.raises(ValidationError):
        validate_collection(collection_from_dict(data))


def made(atoms, datasets):
    """A Collection made directly from atom names and (dataset name,
    [(class name, atom ids)]) pairs."""
    return Collection(
        tuple(atoms),
        tuple(DatasetTaxonomy(name, tuple(DatasetClass(c, frozenset(ids)) for c, ids in classes))
              for name, classes in datasets))


BROKEN_COLLECTIONS = {
    "empty-atom-name": (["", "b"], [("D", [("x", [0]), ("y", [1])])]),
    "duplicate-atom-name": (["a", "a"], [("D", [("x", [0]), ("y", [1])])]),
    "duplicate-dataset": (["a"], [("D", [("x", [0])]), ("D", [("x", [0])])]),
    "duplicate-class": (["a", "b"], [("D", [("x", [0]), ("x", [1])])]),
    "empty-class": (["a"], [("D", [("x", [0]), ("y", [])])]),
    "atom-out-of-range": (["a"], [("D", [("x", [0, 1])])]),
    "overlapping-classes": (["a", "b"], [("D", [("x", [0, 1]), ("y", [1])])]),
    "orphan-atom": (["a", "b"], [("D", [("x", [0])])]),
    "dataset-without-classes": (["a"], [("D", [("x", [0])]), ("E", [])]),
}


def _message(make, *args):
    with pytest.raises(ValidationError) as exc:
        make(*args)
    return str(exc.value)


def test_the_first_intersecting_pair_in_class_order_is_named():
    # x-y, x-z and the later w-z intersect
    datasets = [("D", [("v", [0]), ("x", [1, 2, 3]), ("y", [2]), ("w", [4]), ("z", [3, 4])])]
    assert _message(made, ["a", "b", "c", "d", "e"], datasets) == (
        "classes within a dataset must be pairwise disjoint: D.x intersects D.y")
    # a later dataset's empty class does not come first
    datasets = [("D", [("x", [0, 1]), ("y", [1])]), ("E", [("x", [0]), ("y", [])])]
    assert _message(made, ["a", "b"], datasets) == (
        "classes within a dataset must be pairwise disjoint: D.x intersects D.y")
    # within a dataset, an empty class or unknown atom comes before an intersection
    datasets = [("D", [("x", [0, 1]), ("y", [1]), ("z", [])])]
    assert _message(made, ["a", "b"], datasets) == "class D.z has an empty atom set"
    datasets = [("D", [("x", [0, 1]), ("y", [1]), ("z", [7, 5])])]
    assert _message(made, ["a", "b"], datasets) == "class D.z references unknown atoms [5, 7]"


def test_the_orphan_message_names_the_lowest_orphan():
    assert _message(made, ["a", "b", "c", "d"], [("D", [("x", [0, 2])])]) == (
        "field 'atoms[1]' ('b') is in no class: every atom must be referenced by at least "
        "one class")


def test_a_class_read_from_a_file_lists_every_unknown_member_in_order():
    members = ["a", "zz", 3, None, ["a"], True, "b", {"a": 1}, "yy"]
    data = {"atoms": ["a", "b"], "datasets": [{"name": "D", "classes": [
        {"name": "x", "atoms": ["a", "b"]}, {"name": "y", "atoms": members}]}]}
    assert _message(collection_from_dict, data) == (
        "field 'datasets[0].classes[1].atoms': class D.y references unknown atoms "
        "['zz', 3, None, ['a'], True, {'a': 1}, 'yy']")


@pytest.mark.parametrize("case", sorted(BROKEN_COLLECTIONS))
def test_a_collection_cannot_be_made_broken(case):
    made(["a", "b"], [("D", [("x", [0]), ("y", [1])]), ("E", [("x", [0, 1])])])
    with pytest.raises(ValidationError):  # InvalidClass is a ValidationError
        made(*BROKEN_COLLECTIONS[case])


def _read_taxonomy(tmp_path):
    col = vehicles()
    tax, maps = build_universal_from_atoms(col)
    data = taxonomy_to_dict(col, *filter_untrainable(tax, maps)[:2])
    return lambda: taxonomy_from_dict(data)


def _build_command(tmp_path):
    source = tmp_path / "vehicles.json"
    source.write_text(json.dumps(problems.vehicle_mini_collection()))
    argv = ["build", "--atoms", str(source), "--out", str(tmp_path / "tax.json")]

    def build():
        assert run(argv) == 0
    return build


READERS = {
    "taxonomy_from_dict": _read_taxonomy,
    "problem_from_dict": lambda tmp_path: lambda: problem_from_dict(
        problems.intersection_problem()),
    "build --atoms": _build_command,
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_each_reader_checks_its_collection_once(reader, tmp_path, monkeypatch):
    read = READERS[reader](tmp_path)
    checked = []
    original = taxonomy.validate_collection
    monkeypatch.setattr(taxonomy, "validate_collection",
                        lambda col: checked.append(col) or original(col))
    read()
    assert len(checked) == 1


def test_the_checker_derives_through_the_shipped_builder(monkeypatch):
    read = _read_taxonomy(None)
    calls = []
    for name in ("build_universal_from_atoms", "filter_untrainable"):
        original = getattr(taxonomy, name)
        monkeypatch.setattr(taxonomy, name,
                            lambda *args, _name=name, _original=original:
                            calls.append(_name) or _original(*args))
    read()
    assert sorted(calls) == ["build_universal_from_atoms", "filter_untrainable"]


def test_filter_untrainable_rider():
    col = collection_from_dict(problems.rider_collection())
    tax, maps = build_universal_from_atoms(col)
    filtered, fmaps, report = filter_untrainable(tax, maps)
    survivors = [u.display_name for u in filtered.classes if filtered.trainable[u.id]]
    assert survivors == ["rider"]
    rider = next(u.id for u in tax.classes if u.display_name == "rider")
    assert all(dom == rider for _, dom in report)
    assert fmaps.mapped("CamVid", "bicycle") == (rider,)
    assert fmaps.mapped("Pascal", "person") == (rider,)


def test_filter_keeps_all_nineteen_city_classes():
    col = collection_from_dict(problems.relabeled_city_collection())
    tax, maps = build_universal_from_atoms(col)
    filtered, _, report = filter_untrainable(tax, maps)
    assert len(tax.classes) == 19
    assert report == []
    assert all(filtered.trainable)


def test_mapping_matrix_with_void_row():
    col = vehicles()
    tax, maps = build_universal_from_atoms(col)
    rows, cols, matrix = mapping_matrix("VIPER", col, tax, maps, include_void=True)
    assert rows == ["truck", "__void__"]
    truck_row = dict(zip(cols, matrix[0]))
    void_row = dict(zip(cols, matrix[1]))
    assert truck_row == {"truck": 1, "pickup": 1, "car": 0, "van": 0}
    # void marks universal classes no VIPER class covers
    assert void_row == {"truck": 0, "pickup": 0, "car": 1, "van": 1}
    csv = matrix_csv(rows, cols, matrix)
    assert csv.splitlines()[0] == "," + ",".join(cols)
    assert csv == matrix_csv(rows, cols, matrix)


def _normalized(data):
    return {
        "atoms": data["atoms"],
        "datasets": [
            {
                "name": ds["name"],
                "classes": [
                    {"name": c["name"], "atoms": sorted(c["atoms"])}
                    for c in ds["classes"]
                ],
            }
            for ds in data["datasets"]
        ],
    }


def test_collection_round_trip():
    data = problems.vehicle_mini_collection()
    col = collection_from_dict(data)
    assert _normalized(collection_to_dict(col)) == _normalized(data)


def test_taxonomy_round_trip_and_validation():
    col = vehicles()
    tax, maps = build_universal_from_atoms(col)
    col2, tax2, maps2 = taxonomy_from_dict(taxonomy_to_dict(col, tax, maps))
    assert [u.display_name for u in tax2.classes] == [u.display_name for u in tax.classes]
    assert maps2.by_dataset == maps.by_dataset
    assert validate_universal(col2, taxonomy_to_dict(col2, tax2, maps2)) == (tax2, maps2)


def test_an_unknown_signature_pair_is_named():
    col = vehicles()
    data = taxonomy_to_dict(col, *build_universal_from_atoms(col))
    for pairs, named in [
            ([["ADE20k", "van"], ["ADE20k", "vans"], ["Nope", "van"]], "['ADE20k', 'vans']"),
            ([["VIPER", "truck"], ["VIPER"]], "['VIPER']"),
            ([["VIPER", "truck", "car"]], "['VIPER', 'truck', 'car']"),
            ([["VIPER", ["truck"]]], "['VIPER', ['truck']]"),
            ([5], "5"), ([None, ["ADE20k", "vans"]], "None")]:
        data["universal"][1]["signature"] = pairs
        assert _message(taxonomy_from_dict, data) == (
            "field 'universal[1].signature' holds a malformed or unknown [dataset, class] "
            f"pair: {named}")


def test_an_unknown_universal_atom_is_named():
    col = vehicles()
    data = taxonomy_to_dict(col, *build_universal_from_atoms(col))
    for atoms, named in [(["pickup", "pick-up", "vans"], "'pick-up'"),
                         (["car", 3, "nope"], "3"), ([["car"]], "['car']"), ([None], "None")]:
        data["universal"][2]["atoms"] = atoms
        assert _message(taxonomy_from_dict, data) == (
            f"field 'universal[2].atoms' names an unknown atom: {named}")


@pytest.mark.parametrize("filtered", [False, True])
def test_taxonomy_files_of_random_collections_read_back_as_written(filtered):
    rng = random.Random(25)
    for _ in range(40):
        col = random_collection(rng)
        tax, maps = build_universal_from_atoms(col)
        if filtered:
            tax, maps, _ = filter_untrainable(tax, maps)
        data = json.loads(json.dumps(taxonomy_to_dict(col, tax, maps)))
        assert taxonomy_from_dict(data) == (col, tax, maps)
        # a renamed class comes back under the file's name, the others as built
        u = rng.randrange(len(tax.classes))
        data["universal"][u]["display_name"] = "renamed"
        _, renamed, renamed_maps = taxonomy_from_dict(data)
        assert renamed == UniversalTaxonomy(
            tax.classes[:u] + (replace(tax.classes[u], display_name="renamed"),)
            + tax.classes[u + 1:], tax.dominators)
        assert renamed_maps == maps


def test_unknown_dataset_raises():
    col = vehicles()
    with pytest.raises(NotFound):
        col.dataset("nope")


def test_projection_marks_meeting_sets_and_void():
    rng = random.Random(3)
    for _ in range(200):
        sources = [set(rng.sample(range(12), rng.randint(1, 4))) for _ in range(rng.randint(0, 6))]
        targets = [tuple(rng.sample(range(12), rng.randint(1, 4)))
                   for _ in range(rng.randint(0, 6))]
        w = projection(sources, targets)
        assert w.shape == (len(sources), len(targets)) and w.dtype == np.float64
        assert w.tolist() == [[float(bool(s & set(t))) for t in targets] for s in sources]
        v = projection(sources, targets, void=True)
        assert np.array_equal(v[:, :-1], w)
        assert v[:, -1].tolist() == [float(not row.any()) for row in w]
