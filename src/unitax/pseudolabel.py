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

# json.loads(s) for a str is this decoder's raw_decode plus a BOM check and
# an "Extra data" check, which relabel_stream makes itself on each line.
_raw_decode = json.JSONDecoder().raw_decode


@dataclass(frozen=True)
class ForeignPrediction:
    dataset: str
    posterior: dict  # class name -> probability, sums to 1

    def validate(self, col: Collection):
        _check_posterior(self.dataset, self.posterior, col.dataset(self.dataset).class_names)


def _check_posterior(dataset: str, posterior: dict, known: frozenset) -> None:
    """Raise ValidationError unless ``posterior`` gives classes among
    ``known`` (the class names of ``dataset``) probabilities that are
    numbers in [0, 1] and sum to 1."""
    if not known.issuperset(posterior):
        unknown = sorted(set(posterior) - known)
        raise ValidationError(
            f"foreign posterior for {dataset!r} names unknown classes {unknown}"
        )
    # Sum, minimum and the type scan run in C on the per-record path: a
    # NaN or an infinity makes the sum miss 1, a non-number makes either
    # raise, and a boolean is found among the types.  Only a posterior
    # that fails is walked in Python to name the class.
    values = posterior.values()
    try:
        if (abs(sum(values) - 1.0) <= 1e-9 and min(values) >= 0.0
                and bool not in map(type, values)):
            return
    except (TypeError, ArithmeticError):
        pass
    total = 0.0
    for cls, p in posterior.items():
        if (isinstance(p, bool) or not isinstance(p, numbers.Real)
                or not 0.0 <= p <= 1.0):
            raise ValidationError(
                f"foreign posterior for {dataset!r} gives class {cls!r} "
                f"the probability {p!r}, not a number in [0, 1]"
            )
        total += p
    raise ValidationError(
        f"foreign posterior for {dataset!r} sums to {total}, not 1"
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
                      col: Collection, maps: MappingSet) -> float:
    """Score of universal class u from one foreign dataset, in [0, 1].

    Zero when the ground truth does not map to u or the foreign dataset has
    no class mapping to u, as when no foreign class meets the ground truth.
    Raises ValidationError for a posterior ForeignPrediction.validate
    rejects, and OrthogonalDataset when a foreign class maps to u but the
    foreign classes that meet the ground truth carry no probability mass.
    """
    foreign.validate(col)
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
                          maps: MappingSet, plans=None):
    """Universal pseudo-label for one sample.

    Returns (universal id, per-candidate score dict, flags).  Flags record
    the foreign datasets that put no mass on their classes meeting the
    ground truth ("orthogonal:<dataset>") and the all-zero fallback to the
    lowest candidate id.  A foreign dataset with no class meeting the
    ground truth scores zero and is not flagged.  Every posterior is
    checked as ForeignPrediction.validate checks it, that of the ground
    truth's own dataset too, which is then skipped.

    ``plans`` memoises what a record's ground-truth label fixes: per label,
    its sorted candidates and their output keys (the ids as str), and per
    (label, foreign dataset) the scan of the foreign classes.  One dict
    serves every call on the same collection and mappings.
    """
    return _ensemble(((f.dataset, f.posterior) for f in foreign_predictions), gt_label,
                     col, maps, {} if plans is None else plans)


def _ensemble(foreign, gt_label, col: Collection, maps: MappingSet, plans: dict):
    """ensemble_pseudo_label over ``foreign``, an iterable of (dataset name,
    posterior) pairs: the one scoring core of the ensemble and the stream.
    The ground-truth label is resolved before the first pair is read."""
    gt_dataset, gt_class = gt_label
    label_plan = plans.get((gt_dataset, gt_class))
    if label_plan is None:
        candidates = tuple(sorted(maps.mapped(gt_dataset, gt_class)))
        label_plan = plans[gt_dataset, gt_class] = (
            candidates, tuple(map(str, candidates)), {})
    candidates, _, foreign_plans = label_plan
    scores = dict.fromkeys(candidates, 0.0)
    orthogonal = []
    for dataset, posterior in foreign:
        _check_posterior(dataset, posterior, col.dataset(dataset).class_names)
        if dataset == gt_dataset:
            continue
        plan = foreign_plans.get(dataset)
        if plan is None:
            plan = foreign_plans[dataset] = _plan(gt_label, dataset, col, maps)
        meeting, owners = plan
        if not meeting:
            continue
        denominator = _mass(posterior, meeting)
        if denominator == 0.0:
            orthogonal.append(f"orthogonal:{dataset}")
            continue
        for u, owner in zip(candidates, owners):
            if owner is not None:
                scores[u] += float(posterior.get(owner, 0.0)) / denominator
    best = candidates[0]
    if len(candidates) > 1:
        best = max(candidates, key=lambda u: (scores[u], -u))
    flags = sorted(set(orthogonal)) if orthogonal else []
    # Scores are sums of non-negative terms, so the best is 0.0 only when
    # all are, and max then picks the lowest id; "all-zero-fallback" sorts
    # before every "orthogonal:" flag.
    if scores[best] == 0.0:
        flags.insert(0, "all-zero-fallback")
    return best, scores, flags


def relabel_stream(lines, col: Collection, tax: UniversalTaxonomy,
                   maps: MappingSet):
    """Process JSON-lines records.

    Input lines: {"sample_id", "gt_dataset", "gt_class",
    "foreign": {dataset: {class: prob}}}.  Yields output dicts with the
    pseudo-label, per-candidate scores, and flags.  A record of another
    shape raises a ValidationError naming its line and field.  A record is
    checked in this order: the ground-truth fields, the shape of
    "foreign" and of each of its entries, the ground-truth label, then
    each posterior in record order, as ForeignPrediction.validate checks
    it.  The decoded posteriors are scored as they are, by the core of
    ensemble_pseudo_label, with no ForeignPrediction built.

    Each line is stripped of whitespace (str.strip) and, unless empty,
    decoded as ``json.loads`` decodes a str: a leading U+FEFF (BOM) and
    any text after the first JSON value are errors.  A blank line is
    skipped but still counted in the line numbers.
    """
    plans = {}
    names = [u.display_name for u in tax.classes]
    for lineno, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            if raw[0] == "\ufeff":
                raise json.JSONDecodeError(
                    "Unexpected UTF-8 BOM (decode using utf-8-sig)", raw, 0)
            record, end = _raw_decode(raw)
            if end != len(raw):
                raise json.JSONDecodeError("Extra data", raw, end)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"line {lineno}: not valid JSON ({exc.msg})")
        try:
            gt = (require_field(record, "gt_dataset", str),
                  require_field(record, "gt_class", str))
            foreign = record.get("foreign", {})
            if not isinstance(foreign, dict):
                raise ValidationError(
                    "field 'foreign' must map dataset names to class posteriors")
            for ds, post in foreign.items():
                if not isinstance(post, dict):
                    raise ValidationError(
                        f"field 'foreign.{ds}' must map class names to probabilities")
            label, scores, flags = _ensemble(foreign.items(), gt, col, maps, plans)
        except (ValidationError, NotFound) as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
        yield {
            "sample_id": record.get("sample_id", lineno),
            "pseudo_label": label,
            "display_name": names[label],
            "scores": dict(zip(plans[gt][1], scores.values())),
            "flags": flags,
        }
