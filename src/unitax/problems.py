"""Built-in toy problems mirroring the qualitative 2D experiments.

Each factory returns a problem dict in the toy-problem JSON schema
(collection + concepts + seed); geometry and sample counts are calibrated
for the acceptance thresholds.
"""

from __future__ import annotations


def _collection(atoms, datasets):
    return {
        "atoms": atoms,
        "datasets": [
            {"name": name, "classes": [{"name": c, "atoms": a} for c, a in classes]}
            for name, classes in datasets
        ],
    }


def _problem(atoms, datasets, concepts, seed):
    return {
        **_collection(atoms, datasets),
        "concepts": [
            {"atom": atom, "center": [float(x), float(y)], "std": std, "count": count}
            for atom, (x, y), std, count in concepts
        ],
        "seed": seed,
    }


def intersection_problem(seed: int = 0) -> dict:
    """Never-standalone concept at the intersection of two labels.

    The pickup region is labeled truck by D1 and car by D2; no dataset
    labels pickups standalone.  NLL+ should still learn the pickup class.
    """
    return _problem(
        ["truck", "pickup", "car"],
        [
            ("D1", [("truck", ["truck", "pickup"]), ("car", ["car"])]),
            ("D2", [("car", ["car", "pickup"]), ("truck", ["truck"])]),
        ],
        [
            ("truck", (-2.0, 0.0), 0.4, 200),
            ("pickup", (0.0, 0.0), 0.4, 200),
            ("car", (2.0, 0.0), 0.4, 200),
        ],
        seed,
    )


def collapse_problem(seed: int = 0) -> dict:
    """Always-co-labeled siblings: rider/pedestrian/bicycle.

    CamVid labels bicycles and riders jointly, Pascal labels riders and
    pedestrians jointly; rider is the only class receiving signal from both
    sides, so the bicycle and pedestrian logits die off under NLL+.
    """
    return _problem(
        ["bike", "rider", "ped"],
        [
            ("CamVid", [("bicycle", ["bike", "rider"])]),
            ("Pascal", [("person", ["rider", "ped"])]),
        ],
        [
            ("bike", (-1.2, 0.0), 0.8, 200),
            ("rider", (0.0, 0.0), 0.8, 200),
            ("ped", (1.2, 0.0), 0.8, 200),
        ],
        seed,
    )


# Standalone classes present in both splits of the relabeled-city analog.
_SHARED = ["road", "sky", "person", "vegetation",
           "building", "sidewalk", "terrain", "pole"]

# The shared ring sits close enough to the vehicles that shared/vehicle
# boundaries are contested; that is where merging equal classes pays off
# over naive concatenation (merged logits carry full posterior mass).
_SHARED_GEOMETRY = {
    "road": (0.0, 1.6),
    "sky": (0.0, -1.6),
    "person": (-1.9, 0.0),
    "vegetation": (1.9, 0.0),
    "building": (-1.35, 1.35),
    "sidewalk": (1.35, 1.35),
    "terrain": (-1.35, -1.35),
    "pole": (1.35, -1.35),
}


def _two_splits(first, second, standalone):
    """Atoms and datasets of the two-split design.  Both splits keep the
    ``standalone`` classes; ``first`` adds bicycle, motorcycle and
    four-wheel-vehicle (car, bus, truck), ``second`` adds bus, truck and
    personal-vehicle (car, bicycle, motorcycle)."""
    shared = [(name, [name]) for name in standalone]
    return standalone + ["car", "bus", "truck", "bicycle", "motorcycle"], [
        (first, shared + [("bicycle", ["bicycle"]), ("motorcycle", ["motorcycle"]),
                          ("four-wheel-vehicle", ["car", "bus", "truck"])]),
        (second, shared + [("bus", ["bus"]), ("truck", ["truck"]),
                           ("personal-vehicle", ["car", "bicycle", "motorcycle"])]),
    ]


def two_split_problem(seed: int = 0) -> dict:
    """Relabeled-city analog: two splits with overlapping vehicle groups.

    Split A groups car/bus/truck into four-wheel-vehicle and keeps bicycle
    and motorcycle standalone; split B groups car/bicycle/motorcycle into
    personal-vehicle and keeps bus and truck standalone.  Cars are never
    labeled standalone.
    """
    # The car sits between vehicle classes that receive standalone
    # supervision from one of the splits; cars themselves are only ever
    # labeled through the composite classes.
    vehicles = {
        "car": (0.0, 0.0),
        "bus": (-1.2, 0.6),
        "truck": (-1.2, -0.6),
        "bicycle": (1.2, 0.6),
        "motorcycle": (1.2, -0.6),
    }
    concepts = [
        (name, center, 0.55, 150)
        for name, center in {**vehicles, **_SHARED_GEOMETRY}.items()
    ]
    return _problem(*_two_splits("CityA", "CityB", _SHARED), concepts, seed)


def cross_eval_problem(seed: int = 0) -> dict:
    """Two datasets with one 1:1 match, one 2:1 match, and one unique class
    each; used to compare default scoring against post-inference mapping
    when evaluating a naive-concatenation model on D2.
    """
    return _problem(
        ["x1", "x2", "x3", "x4", "x5"],
        [
            ("D1", [("a1", ["x1"]), ("a2", ["x2"]), ("a3", ["x3"]), ("a4", ["x4"])]),
            ("D2", [("b1", ["x1"]), ("b23", ["x2", "x3"]), ("b5", ["x5"])]),
        ],
        [
            ("x1", (-2.0, 0.0), 0.7, 200),
            ("x2", (0.0, 1.2), 0.7, 200),
            ("x3", (0.0, -1.2), 0.7, 200),
            ("x4", (2.0, 1.2), 0.7, 200),
            ("x5", (2.0, -1.2), 0.7, 200),
        ],
        seed,
    )


_CITY_COMMON = [
    "road", "sidewalk", "building", "wall", "fence", "pole",
    "traffic-light", "traffic-sign", "vegetation", "terrain", "sky",
    "person", "rider", "train",
]


def relabeled_city_collection() -> dict:
    """Structural two-split design over all 19 urban classes.

    Each split keeps 16 standalone classes (14 common to both splits plus
    the two vehicle classes grouped by the other split) and one composite
    vehicle class; the universal taxonomy recovers all 19 classes and every
    one of them is trainable.
    """
    return _collection(*_two_splits("City-4wheel", "City-personal", _CITY_COMMON))


def vehicle_mini_collection() -> dict:
    """The truck/car/van mini-collection with the pickup at the triple
    intersection."""
    return _collection(
        ["truck", "pickup", "car", "van"],
        [
            ("VIPER", [("truck", ["truck", "pickup"])]),
            ("Vistas", [("car", ["car", "van", "pickup"])]),
            ("ADE20k", [("van", ["van", "pickup"])]),
        ],
    )


def rider_collection() -> dict:
    """Collection form of the collapse problem (for the trainability filter)."""
    problem = collapse_problem()
    return {"atoms": problem["atoms"], "datasets": problem["datasets"]}
