"""Evaluate a concatenated-space model inside one dataset's taxonomy, and
derive universal pseudo-labels from foreign-model predictions.

A naive-concatenation model spends posterior mass on duplicate foreign
classes; scored naively, much of it lands in the synthetic void class.
Post-inference mapping credits that mass back to intersecting native
classes and recovers most of the accuracy.
"""

import numpy as np

from unitax import problems
from unitax.evaluation import VOID
from unitax.pseudolabel import ForeignPrediction, ensemble_pseudo_label
from unitax.taxonomy import build_universal_from_atoms, collection_from_dict
from unitax.toyproblem import generate_toy, problem_from_dict
from unitax.training import TrainConfig, dataset_scores, train

print("=== default scoring vs post-inference mapping ===")
spec, tax, maps = problem_from_dict(problems.cross_eval_problem(0))
data = generate_toy(spec, maps)
result = train(TrainConfig(mode="naive-concat", epochs=400, seed=0),
               spec, tax, maps, data)

d2 = spec.collection.dataset("D2").classes
class_of = maps.class_of("D2", d2)
keep = [i for i, u in enumerate(data.test_universal) if int(u) in class_of]
points = data.test_points[keep]
truths = [d2[class_of[int(data.test_universal[i])]].name for i in keep]

for post_inference in (False, True):
    names, scores = dataset_scores(result.space, result.model, points, "D2",
                                   maps, spec.collection,
                                   post_inference=post_inference)
    preds = [names[int(i)] for i in np.argmax(scores, axis=1)]
    void = sum(p == VOID for p in preds) / len(preds)
    acc = sum(p == gt for p, gt in zip(preds, truths)) / len(preds)
    tag = "post-inference" if post_inference else "default       "
    print(f"  {tag} scoring: accuracy {acc:.3f}, void fraction {void:.3f}")

print("\n=== pseudo-labels from foreign predictions ===")
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

# the Vistas ground truth only says "car, van, or pickup"; a model trained
# on VIPER votes among its own classes and refines the label
foreign = ForeignPrediction("VIPER", {"truck": 0.5, "van": 0.3, "car": 0.2})
label, scores, flags = ensemble_pseudo_label([foreign], ("Vistas", "car"), col, maps)
print("  candidate scores:")
for u, s in sorted(scores.items()):
    print(f"    {tax.classes[u].display_name:7s} {s:.2f}")
print(f"  pseudo-label: {tax.classes[label].display_name} (flags: {flags or 'none'})")
