"""Universal pseudo-labels from native ground truth and foreign
dataset-specific posteriors.

The candidate universal classes are those the ground-truth label maps to.
Each foreign dataset scores a candidate u by the posterior of its (unique)
class mapping to u, renormalized over the foreign classes that intersect
the ground truth; the ensemble sums scores over foreign datasets and takes
the argmax (ties and all-zero ensembles fall back to the lowest id).
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

from .errors import NotFound, OrthogonalDataset, ValidationError, require_field
from .taxonomy import Collection, MappingSet, UniversalTaxonomy


@dataclass(frozen=True)
class ForeignPrediction:
    dataset: str
    posterior: dict  # class name -> probability, sums to 1

    def validate(self, col: Collection):
        known = col.dataset(self.dataset).class_names
        if not known.issuperset(self.posterior):
            unknown = sorted(set(self.posterior) - known)
            raise ValidationError(
                f"foreign posterior for {self.dataset!r} names unknown classes {unknown}"
            )
        # Sum, minimum and the type scan run in C on the per-record path: a
        # NaN or an infinity makes the sum miss 1, a non-number makes either
        # raise, and a boolean is found among the types.  Only a posterior
        # that fails is walked in Python to name the class.
        values = self.posterior.values()
        try:
            if (abs(sum(values) - 1.0) <= 1e-9 and min(values) >= 0.0
                    and bool not in map(type, values)):
                return
        except (TypeError, ArithmeticError):
            pass
        total = 0.0
        for cls, p in self.posterior.items():
            if (isinstance(p, bool) or not isinstance(p, numbers.Real)
                    or not 0.0 <= p <= 1.0):
                raise ValidationError(
                    f"foreign posterior for {self.dataset!r} gives class {cls!r} "
                    f"the probability {p!r}, not a number in [0, 1]"
                )
            total += p
        raise ValidationError(
            f"foreign posterior for {self.dataset!r} sums to {total}, not 1"
        )


def _plan(gt_label, dataset: str, col: Collection, maps: MappingSet) -> tuple:
    """What scoring a ground-truth label against one foreign dataset reads
    of the posterior: (the names of the foreign classes that meet the
    ground truth, in class order; for each sorted candidate of the label,
    the name of the foreign class whose mapped set holds it, or None).

    A universal class lies inside or outside each dataset class, so two
    classes meet exactly when their mapped sets share an id.  That holds
    for filtered mappings too: every class holding an untrainable class
    also holds its dominator, which is trainable."""
    classes = col.dataset(dataset).classes
    class_of = maps.class_of(dataset, classes)
    owners = tuple(classes[class_of[u]].name if u in class_of else None
                   for u in sorted(maps.mapped(*gt_label)))
    return tuple(c.name for c in classes if c.name in owners), owners


def _mass(posterior: dict, names) -> float:
    """The probability ``posterior`` puts on ``names``, summed left to right
    from 0.0 (the order fixes every bit of the sum)."""
    total = 0.0
    for name in names:
        total += float(posterior.get(name, 0.0))
    return total


def conditional_score(foreign: ForeignPrediction, gt_label, u: int,
                      col: Collection, tax: UniversalTaxonomy,
                      maps: MappingSet) -> float:
    """Score of universal class u from one foreign dataset, in [0, 1].

    Zero when the ground truth does not map to u or the foreign dataset has
    no class mapping to u, as when no foreign class meets the ground truth.
    Raises OrthogonalDataset when a foreign class maps to u but the foreign
    classes that meet the ground truth carry no probability mass.
    """
    gt_dataset, gt_class = gt_label
    candidates = sorted(maps.mapped(gt_dataset, gt_class))
    if u not in candidates:
        return 0.0
    meeting, owners = _plan(gt_label, foreign.dataset, col, maps)
    owner = owners[candidates.index(u)]
    if owner is None:
        return 0.0
    denominator = _mass(foreign.posterior, meeting)
    if denominator == 0.0:
        raise OrthogonalDataset(
            f"the classes of {foreign.dataset!r} that meet {gt_dataset}.{gt_class} "
            f"carry no probability mass"
        )
    return float(foreign.posterior.get(owner, 0.0)) / denominator


def ensemble_pseudo_label(foreign_predictions, gt_label, col: Collection,
                          tax: UniversalTaxonomy, maps: MappingSet, plans=None):
    """Universal pseudo-label for one sample.

    Returns (universal id, per-candidate score dict, flags).  Flags record
    the foreign datasets that put no mass on their classes meeting the
    ground truth ("orthogonal:<dataset>") and the all-zero fallback to the
    lowest candidate id.  A foreign dataset with no class meeting the
    ground truth scores zero and is not flagged.

    ``plans`` memoises the scan of the foreign classes per (ground-truth
    label, foreign dataset); one dict serves every call on the same
    collection, taxonomy and mappings.
    """
    gt_dataset, gt_class = gt_label
    candidates = sorted(maps.mapped(gt_dataset, gt_class))
    if plans is None:
        plans = {}
    scores = dict.fromkeys(candidates, 0.0)
    flags = []
    for foreign in foreign_predictions:
        if foreign.dataset == gt_dataset:
            continue
        foreign.validate(col)
        key = (gt_dataset, gt_class, foreign.dataset)
        plan = plans.get(key)
        if plan is None:
            plan = plans[key] = _plan(gt_label, foreign.dataset, col, maps)
        meeting, owners = plan
        if not meeting:
            continue
        denominator = _mass(foreign.posterior, meeting)
        if denominator == 0.0:
            flags.append(f"orthogonal:{foreign.dataset}")
            continue
        for u, owner in zip(candidates, owners):
            if owner is not None:
                scores[u] += float(foreign.posterior.get(owner, 0.0)) / denominator
    best = max(candidates, key=lambda u: (scores[u], -u))
    if all(s == 0.0 for s in scores.values()):
        flags.append("all-zero-fallback")
        best = candidates[0]
    return best, scores, sorted(set(flags))


def _foreign_predictions(foreign) -> list:
    """One ForeignPrediction per dataset of a record's "foreign" field,
    which maps dataset names to objects of class probabilities.  The
    probabilities are checked by ForeignPrediction.validate."""
    if not isinstance(foreign, dict):
        raise ValidationError("field 'foreign' must map dataset names to class posteriors")
    out = []
    for ds, post in foreign.items():
        if not isinstance(post, dict):
            raise ValidationError(f"field 'foreign.{ds}' must map class names to probabilities")
        out.append(ForeignPrediction(ds, post))
    return out


def relabel_stream(lines, col: Collection, tax: UniversalTaxonomy,
                   maps: MappingSet):
    """Process JSON-lines records.

    Input lines: {"sample_id", "gt_dataset", "gt_class",
    "foreign": {dataset: {class: prob}}}.  Yields output dicts with the
    pseudo-label, per-candidate scores, and flags.  A record of another
    shape raises a ValidationError naming its line and field.
    """
    plans = {}
    for lineno, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"line {lineno}: not valid JSON ({exc.msg})")
        try:
            gt = (require_field(record, "gt_dataset", str),
                  require_field(record, "gt_class", str))
            foreign = _foreign_predictions(record.get("foreign", {}))
            label, scores, flags = ensemble_pseudo_label(foreign, gt, col, tax, maps, plans)
        except (ValidationError, NotFound) as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
        yield {
            "sample_id": record.get("sample_id", lineno),
            "pseudo_label": label,
            "display_name": tax.classes[label].display_name,
            "scores": {str(u): s for u, s in sorted(scores.items())},
            "flags": flags,
        }
