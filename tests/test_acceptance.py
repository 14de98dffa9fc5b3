"""End-to-end acceptance checks.

Each test prints a single ``criterion N: PASS`` line once its assertions
hold, so the suite output doubles as a capability checklist.
"""

import json
import random
import time

import numpy as np

from unitax import problems
from unitax.cli import run
from unitax.evaluation import VOID, ConfusionAccumulator
from unitax.losses import (
    dataset_posterior,
    nll_plus,
    nll_plus_grad,
    universal_posteriors,
)
from unitax.pseudolabel import ForeignPrediction, conditional_score, ensemble_pseudo_label
from unitax.resolve import fixpoint_partition
from unitax.rng import SplitMix64
from unitax.taxonomy import (
    MappingSet,
    build_universal_from_atoms,
    collection_from_dict,
    filter_untrainable,
)
from unitax.training import (
    dataset_scores,
    dead_logit_report,
    per_class_accuracy,
    universal_accuracy,
)

from helpers import random_collection, train_problem


def uid_of(tax, name):
    return next(u.id for u in tax.classes if u.display_name == name)


def test_criterion_1_construction_oracle_equivalence():
    rng = random.Random(2024)
    start = time.perf_counter()
    for _ in range(200):
        col = random_collection(rng)
        tax, maps = build_universal_from_atoms(col)
        parts, mappings = fixpoint_partition(col)
        assert sorted(parts, key=sorted) == sorted(
            (u.atoms for u in tax.classes), key=sorted
        )
        for ds in col.datasets:
            for cls in ds.classes:
                got = sorted(mappings[(ds.name, cls.name)], key=sorted)
                want = sorted(
                    (tax.classes[u].atoms for u in maps.mapped(ds.name, cls.name)),
                    key=sorted,
                )
                assert got == want
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 1 (construction-oracle equivalence, {elapsed:.1f}s): PASS")


def test_criterion_2_reference_mappings():
    col = collection_from_dict(problems.vehicle_mini_collection())
    tax, maps = build_universal_from_atoms(col)
    atom_names = {u.id: frozenset(col.atoms[a] for a in u.atoms)
                  for u in tax.classes}
    expected = {
        ("VIPER", "truck"): {frozenset({"truck"}), frozenset({"pickup"})},
        ("Vistas", "car"): {frozenset({"car"}), frozenset({"van"}), frozenset({"pickup"})},
        ("ADE20k", "van"): {frozenset({"van"}), frozenset({"pickup"})},
    }
    for (ds, cls), want in expected.items():
        got = {atom_names[u] for u in maps.mapped(ds, cls)}
        assert got == want

    # equal classes merge into one part with a shared mapping
    sky = collection_from_dict({
        "atoms": ["sky"],
        "datasets": [
            {"name": "WD", "classes": [{"name": "sky", "atoms": ["sky"]}]},
            {"name": "City", "classes": [{"name": "sky", "atoms": ["sky"]}]},
        ],
    })
    parts, mappings = fixpoint_partition(sky)
    assert parts == {frozenset({0})}
    assert mappings[("WD", "sky")] == mappings[("City", "sky")]

    # a strict superset splits into the common part plus the remainder
    cars = collection_from_dict({
        "atoms": ["car", "van"],
        "datasets": [
            {"name": "KITTI", "classes": [{"name": "car", "atoms": ["car", "van"]}]},
            {"name": "ADE20k", "classes": [{"name": "car", "atoms": ["car"]}]},
        ],
    })
    parts, mappings = fixpoint_partition(cars)
    assert sorted(parts, key=sorted) == [
        frozenset({0}), frozenset({1}),
    ]
    assert set(mappings[("ADE20k", "car")]) < set(mappings[("KITTI", "car")])

    # a proper overlap becomes three parts with exactly one shared
    trucks = collection_from_dict({
        "atoms": ["truck", "pickup", "trailer"],
        "datasets": [
            {"name": "VIPER", "classes": [{"name": "truck", "atoms": ["truck", "pickup"]}]},
            {"name": "ADE20k", "classes": [{"name": "truck", "atoms": ["truck", "trailer"]}]},
        ],
    })
    parts, mappings = fixpoint_partition(trucks)
    assert len(parts) == 3
    viper = set(mappings[("VIPER", "truck")])
    ade = set(mappings[("ADE20k", "truck")])
    assert len(viper) == 2 and len(ade) == 2 and len(viper & ade) == 1
    print("criterion 2 (reference mapping reproduction): PASS")


def brute_force_filter(tax):
    out = {}
    for u in tax.classes:
        doms = [v for v in tax.classes if v.id != u.id and u.signature <= v.signature]
        if doms:
            out[u.id] = max(doms, key=lambda v: (len(v.signature), -v.id)).id
    return out


def test_criterion_3_filter_equals_brute_force():
    rng = random.Random(99)
    for _ in range(200):
        col = random_collection(rng)
        tax, maps = build_universal_from_atoms(col)
        filtered, _, report = filter_untrainable(tax, maps)
        assert dict(report) == brute_force_filter(tax)
        assert filtered.dominators == brute_force_filter(tax)

    col = collection_from_dict(problems.rider_collection())
    tax, maps = build_universal_from_atoms(col)
    filtered, _, report = filter_untrainable(tax, maps)
    survivors = {filtered.classes[u.id].display_name
                 for u, t in zip(filtered.classes, filtered.trainable) if t}
    assert survivors == {"rider"}

    col = collection_from_dict(problems.relabeled_city_collection())
    tax, maps = build_universal_from_atoms(col)
    filtered, _, report = filter_untrainable(tax, maps)
    assert len(filtered.classes) == 19
    assert all(filtered.trainable)
    assert report == []
    print("criterion 3 (trainability filter vs brute force): PASS")


def test_criterion_4_gradient_fidelity():
    rng = SplitMix64(31)
    start = time.perf_counter()
    h = 1e-5
    for _ in range(1000):
        k = 2 + rng.next_u64() % 9
        logits = np.array([rng.normal() for _ in range(k)])
        m = 1 + rng.next_u64() % k
        mapped = sorted(random.Random(rng.next_u64()).sample(range(k), int(m)))
        maps = MappingSet({"D": {"c": tuple(mapped)}})
        label = ("D", "c")
        grad = nll_plus_grad(logits, label, maps)
        fd = np.zeros(int(k))
        for i in range(int(k)):
            plus = logits.copy()
            minus = logits.copy()
            plus[i] += h
            minus[i] -= h
            fd[i] = (nll_plus(plus, label, maps) - nll_plus(minus, label, maps)) / (2 * h)
        rel = np.linalg.norm(fd - grad) / max(np.linalg.norm(fd), 1e-9)
        assert rel < 1e-6
        assert all(grad[i] <= 1e-12 for i in mapped)
        assert all(grad[i] > 0 for i in range(int(k)) if i not in mapped)
        assert abs(float(np.sum(grad))) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 4 (gradient fidelity, {elapsed:.1f}s): PASS")


def test_criterion_5_reduction_identities():
    rng = SplitMix64(8)
    for _ in range(200):
        k = 2 + rng.next_u64() % 9
        logits = np.array([2.0 * rng.normal() for _ in range(k)])
        target = int(rng.next_u64() % k)
        maps = MappingSet({"D": {"c": (target,), "all": tuple(range(int(k)))}})
        standard = -float(np.log(universal_posteriors(logits)[target]))
        assert abs(nll_plus(logits, ("D", "c"), maps) - standard) < 1e-12
        assert abs(nll_plus(logits, ("D", "all"), maps)) < 1e-12

    col = collection_from_dict(problems.vehicle_mini_collection())
    tax, maps = build_universal_from_atoms(col)
    for _ in range(200):
        logits = np.array([2.0 * rng.normal() for _ in range(len(tax.classes))])
        post = universal_posteriors(logits)
        for ds in col.datasets:
            mass = sum(dataset_posterior(post, (ds.name, c.name), maps)
                       for c in ds.classes)
            covered = {u for c in ds.classes for u in maps.mapped(ds.name, c.name)}
            void = float(np.sum(post[[u for u in range(len(post)) if u not in covered]]))
            assert abs(mass + void - 1.0) < 1e-9
    print("criterion 5 (reduction identities): PASS")


def test_criterion_6_intersection_learning():
    start = time.perf_counter()
    accs = []
    for seed in range(5):
        result, spec, tax, maps, data = train_problem(
            problems.intersection_problem(seed), "universal-nll-plus", 2000, seed
        )
        per_class = per_class_accuracy(
            result.space, result.model, data.test_points, data.test_universal
        )
        accs.append(per_class[uid_of(tax, "pickup")])
    elapsed = time.perf_counter() - start
    assert all(a >= 0.90 for a in accs), accs
    assert elapsed < 60.0
    print(f"criterion 6 (intersection learning {min(accs):.3f}..{max(accs):.3f}, "
          f"{elapsed:.1f}s): PASS")


def test_criterion_7_sibling_collapse():
    result, spec, tax, maps, data = train_problem(
        problems.collapse_problem(0), "universal-nll-plus", 800, 0
    )
    report = dead_logit_report(result.space, result.model, data.test_points)
    rider = uid_of(tax, "rider")
    bike = uid_of(tax, "bike")
    ped = uid_of(tax, "ped")
    freqs = report["frequencies"]
    # rider dominates both co-labeled superclasses and the siblings die
    assert freqs[rider] >= 0.95 * (freqs[rider] + freqs[bike])
    assert freqs[rider] >= 0.95 * (freqs[rider] + freqs[ped])
    assert report["dead"][bike] and report["dead"][ped]
    assert not report["dead"][rider]
    print("criterion 7 (sibling collapse and dead logits): PASS")


def test_criterion_8_mode_ordering():
    seeds = range(5)
    accs = {mode: [] for mode in
            ("universal-nll-plus", "partial-merge", "naive-concat", "universal-nll-max")}
    car_accs = []
    for seed in seeds:
        problem = problems.two_split_problem(seed)
        for mode in accs:
            result, spec, tax, maps, data = train_problem(problem, mode, 600, seed)
            accs[mode].append(universal_accuracy(
                result.space, result.model, data.test_points, data.test_universal
            ))
            if mode == "universal-nll-max":
                per_class = per_class_accuracy(
                    result.space, result.model, data.test_points, data.test_universal
                )
                car_accs.append(per_class[uid_of(tax, "car")])
    means = {mode: float(np.mean(vals)) for mode, vals in accs.items()}
    car_mean = float(np.mean(car_accs))
    assert means["universal-nll-plus"] >= means["partial-merge"] + 0.02, means
    assert means["partial-merge"] >= means["naive-concat"] + 0.02, means
    assert car_mean <= 0.05, car_accs
    print("criterion 8 (mode ordering "
          f"nll+ {means['universal-nll-plus']:.3f} > "
          f"pm {means['partial-merge']:.3f} > "
          f"nc {means['naive-concat']:.3f}; nll-max car {car_mean:.3f}): PASS")


def test_criterion_9_post_inference_helps():
    for seed in range(5):
        result, spec, tax, maps, data = train_problem(
            problems.cross_eval_problem(seed), "naive-concat", 400, seed
        )
        label_of = {}
        for cls in spec.collection.dataset("D2").classes:
            for u in maps.mapped("D2", cls.name):
                label_of[u] = cls.name
        keep = [i for i, u in enumerate(data.test_universal) if int(u) in label_of]
        points = data.test_points[keep]
        truths = [label_of[int(data.test_universal[i])] for i in keep]
        stats = {}
        for post in (False, True):
            names, scores = dataset_scores(
                result.space, result.model, points, "D2", maps,
                spec.collection, post_inference=post,
            )
            preds = [names[int(i)] for i in np.argmax(scores, axis=1)]
            void = sum(p == VOID for p in preds) / len(preds)
            acc = sum(p == gt for p, gt in zip(preds, truths)) / len(preds)
            stats[post] = (void, acc)
        assert stats[True][0] < stats[False][0], stats
        assert stats[True][1] >= stats[False][1], stats
    print("criterion 9 (post-inference mapping helps): PASS")


def test_criterion_10_evaluation_semantics():
    acc = ConfusionAccumulator(["a", "b", "c"])
    for gt, pred in [("a", "a"), ("a", "b"), ("b", "b"), ("b", "b"),
                     ("c", VOID), ("c", "c")]:
        acc.update(gt, pred)
    iou = acc.iou()
    # void predictions add false negatives only: no class pays a false positive
    assert iou == {"a": 1 / 2, "b": 2 / 3, "c": 1 / 2}
    assert acc.miou() == (1 / 2 + 2 / 3 + 1 / 2) / 3

    classes = ["a", "b", "c"]
    rng = random.Random(5)
    whole = ConfusionAccumulator(classes)
    left = ConfusionAccumulator(classes)
    right = ConfusionAccumulator(classes)
    for i in range(500):
        gt = classes[rng.randrange(3)]
        pred = (classes + [VOID])[rng.randrange(4)]
        whole.update(gt, pred)
        (left if i % 2 else right).update(gt, pred)
    merged = left.merge(right)
    assert np.array_equal(merged.counts, whole.counts)
    assert merged.iou() == whole.iou()
    print("criterion 10 (void convention and merge): PASS")


def test_criterion_11_pseudo_labeler():
    col = collection_from_dict({
        "atoms": ["truck", "pickup", "car", "van"],
        "datasets": [
            {"name": "VIPER", "classes": [
                {"name": "truck", "atoms": ["truck", "pickup"]},
                {"name": "car", "atoms": ["car"]},
                {"name": "van", "atoms": ["van"]},
            ]},
            {"name": "Vistas", "classes": [
                {"name": "car", "atoms": ["car", "van", "pickup"]},
            ]},
        ],
    })
    tax, maps = build_universal_from_atoms(col)
    foreign = ForeignPrediction("VIPER", {"truck": 0.5, "van": 0.3, "car": 0.2})
    score = conditional_score(foreign, ("Vistas", "car"), uid_of(tax, "pickup"),
                              col, maps)
    assert score == 0.5

    spec = problems.two_split_problem(seed=0)
    col = collection_from_dict({"atoms": spec["atoms"], "datasets": spec["datasets"]})
    tax, maps = build_universal_from_atoms(col)
    rng = SplitMix64(17)
    labels = [(ds.name, c.name) for ds in col.datasets for c in ds.classes]
    for _ in range(10000):
        gt = labels[rng.next_u64() % len(labels)]
        foreign_ds = "CityB" if gt[0] == "CityA" else "CityA"
        classes = [c.name for c in col.dataset(foreign_ds).classes]
        weights = [rng.uniform() for _ in classes]
        total = sum(weights)
        foreign = ForeignPrediction(
            foreign_ds, {c: w / total for c, w in zip(classes, weights)}
        )
        label, scores, _ = ensemble_pseudo_label([foreign], gt, col, maps)
        assert label in maps.mapped(*gt)
    print("criterion 11 (pseudo-labeler worked example and mapped-set property): PASS")


def test_criterion_12_cli_determinism(tmp_path, capsys):
    vehicles = tmp_path / "vehicles.json"
    vehicles.write_text(json.dumps(problems.vehicle_mini_collection()) + "\n")
    spec = tmp_path / "collapse.json"
    spec.write_text(json.dumps(problems.collapse_problem(seed=0)) + "\n")
    decls = tmp_path / "prog.decl"
    decls.write_text("dataset A: sky ground\ndataset B: sky terrain\nequiv A.sky B.sky\n")
    records = tmp_path / "in.jsonl"
    records.write_text(json.dumps({
        "sample_id": 1, "gt_dataset": "Vistas", "gt_class": "car",
        "foreign": {"VIPER": {"truck": 1.0}},
    }) + "\n")

    def render(tag):
        base = tmp_path / tag
        base.mkdir()
        v = str(vehicles)
        outputs = {}
        assert run(["build", "--atoms", v, "--out", str(base / "tax.json")]) == 0
        assert run(["build", "--decls", str(decls), "--out", str(base / "decl.json")]) == 0
        assert run(["check", "--in", str(base / "tax.json")]) == 0
        outputs["check.stdout"] = capsys.readouterr().out.split(":", 1)[1]
        assert run(["filter", "--atoms", v, "--out", str(base / "filtered.json")]) == 0
        assert run(["export-matrix", "--atoms", v, "--dataset", "VIPER",
                    "--include-void", "--out", str(base / "matrix.csv")]) == 0
        assert run(["toy-train", "--spec", str(spec), "--mode", "universal-nll-plus",
                    "--epochs", "60", "--seed", "3", "--out", str(base / "run")]) == 0
        assert run(["eval", "--model", str(base / "run" / "model.json"),
                    "--spec", str(spec), "--dataset", "CamVid",
                    "--out", str(base / "eval.json")]) == 0
        assert run(["surface", "--model", str(base / "run" / "model.json"),
                    "--grid=-3,3,-3,3,8,8", "--out", str(base / "surface.csv")]) == 0
        assert run(["pseudo-label", "--atoms", v, "--in", str(records),
                    "--out", str(base / "pseudo.jsonl")]) == 0
        for rel in ("tax.json", "decl.json", "filtered.json", "matrix.csv",
                    "run/model.json", "run/trace.csv", "run/report.json",
                    "eval.json", "surface.csv", "pseudo.jsonl"):
            outputs[rel] = (base / rel).read_bytes()
        return outputs

    first = render("first")
    second = render("second")
    assert first == second
    print("criterion 12 (CLI determinism): PASS")
