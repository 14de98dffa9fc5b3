"""Command-line front end.

Every subcommand is a pure function of its input files, flags, and seed;
identical invocations produce byte-identical outputs, at any BLAS thread
count.  Exit codes: 0 on success; 1 when an input fails validation or is
not UTF-8 text; 2 on usage errors and on paths that cannot be read or
written.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import evaluation, pseudolabel, training, toyproblem
from .errors import InvalidLogit, UnitaxError, ValidationError, load_json, read_text, write_json
from .resolve import build_universal_from_declarations, parse_declarations
from .taxonomy import (
    build_universal_from_atoms,
    collection_from_dict,
    filter_untrainable,
    load_collection,
    mapping_matrix,
    matrix_csv,
    taxonomy_from_dict,
    taxonomy_to_dict,
)


def _open_text(path):
    """``path`` opened to write UTF-8 text with "\\n" line ends."""
    return open(path, "w", encoding="utf-8", newline="\n")


def _write_text(path, text) -> None:
    with _open_text(path) as fh:
        fh.write(text)


def _build_artifacts(args):
    """(collection, taxonomy, mappings) from --atoms or --decls, of which
    argparse admits exactly one."""
    if args.atoms is not None:
        col = load_collection(args.atoms)
        tax, maps = build_universal_from_atoms(col)
        return col, tax, maps
    text = read_text(args.decls)
    try:
        program = parse_declarations(text)
        return build_universal_from_declarations(program)
    except UnitaxError as exc:
        raise type(exc)(f"{args.decls}: {exc}")


def _cmd_build(args):
    col, tax, maps = _build_artifacts(args)
    tax, _, _ = filter_untrainable(tax, maps)  # annotate trainability
    write_json(args.out, taxonomy_to_dict(col, tax, maps))
    return 0


def _cmd_check(args):
    load_json(args.input, lambda data: taxonomy_from_dict(data)
              if isinstance(data, dict) and "universal" in data else collection_from_dict(data))
    print(f"{args.input}: OK")
    return 0


def _cmd_filter(args):
    col, tax, maps = _build_artifacts(args)
    tax, filtered_maps, report = filter_untrainable(tax, maps)
    data = taxonomy_to_dict(col, tax, filtered_maps)
    data["filter_report"] = [
        {
            "untrainable": u,
            "untrainable_name": tax.classes[u].display_name,
            "dominator": dom,
            "dominator_name": tax.classes[dom].display_name,
        }
        for u, dom in report
    ]
    write_json(args.out, data)
    return 0


def _cmd_export_matrix(args):
    if args.input is not None:
        col, tax, maps = load_json(args.input, taxonomy_from_dict)
    else:
        col, tax, maps = _build_artifacts(args)
        tax, maps, _ = filter_untrainable(tax, maps)
    rows, cols, matrix = mapping_matrix(args.dataset, col, tax, maps,
                                        include_void=args.include_void)
    _write_text(args.out, matrix_csv(rows, cols, matrix))
    return 0


def _load_problem(args):
    spec, tax, maps = toyproblem.load_problem(args.spec)
    if args.seed is not None:
        spec = toyproblem.ToyProblemSpec(spec.collection, spec.concepts, args.seed)
    return spec, tax, maps


def _cmd_toy_train(args):
    spec, tax, maps = _load_problem(args)
    config = training.TrainConfig(args.mode, epochs=args.epochs, lr=args.lr,
                                  seed=spec.seed)
    data = toyproblem.generate_toy(spec, maps)
    result = training.train(config, spec, tax, maps, data)
    os.makedirs(args.out, exist_ok=True)
    training.save_model(os.path.join(args.out, "model.json"), result)
    trace = "epoch,loss\n" + "".join(
        f"{i},{loss!r}\n" for i, loss in enumerate(result.loss_trace)
    )
    _write_text(os.path.join(args.out, "trace.csv"), trace)
    report = {
        "mode": args.mode,
        "seed": spec.seed,
        "epochs": args.epochs,
        "lr": args.lr,
        "final_loss": result.loss_trace[-1],
        "universal_accuracy": training.universal_accuracy(
            result.space, result.model, data.test_points, data.test_universal
        ),
        "per_class_accuracy": training.per_class_accuracy(
            result.space, result.model, data.test_points, data.test_universal
        ),
        "dead_logits": training.dead_logit_report(
            result.space, result.model, data.test_points
        ),
    }
    write_json(os.path.join(args.out, "report.json"), report)
    return 0


def _inference(args, fn, *fn_args, **kwargs):
    """``fn(*fn_args, **kwargs)`` on the model read from ``args.model``,
    with non-finite logits a ValidationError naming that file in place of
    numpy's overflow warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return fn(*fn_args, **kwargs)
        except InvalidLogit:
            raise ValidationError(f"{args.model}: field 'model' gives non-finite logits "
                                  f"on these inputs") from None


def _first_difference(space, built) -> str:
    """The first field of a model file's ``space`` that differs from the
    space ``built``, of the same mode, whose entries fix its datasets."""
    for field, mine, theirs in (("universal_atoms", space.universal, built.universal),
                                ("entries", space.entries, built.entries)):
        i = next((i for i, (a, b) in enumerate(zip(mine, theirs)) if a != b),
                 min(len(mine), len(theirs)))
        if i < max(len(mine), len(theirs)):
            return f"space.{field}[{i}]"


def _cmd_eval(args):
    result = training.load_model(args.model)
    if args.post_inference and not result.space.entries:
        raise ValidationError("--post-inference requires a concatenated-space model")
    spec, tax, maps = _load_problem(args)
    mode = result.space.mode
    built = training.build_space(mode, spec.collection, tax)
    if result.space != built:
        raise ValidationError(f"{args.model}: field 'space' is not the {mode} space "
                              f"of the problem in {args.spec}: "
                              f"{_first_difference(result.space, built)!r} differs")
    points, universal = toyproblem.held_out_points(spec)
    ds = spec.collection.dataset(args.dataset)
    # each universal id's class in the dataset, or -1 for a foreign one
    class_of = np.full(len(tax.classes), -1)
    owner = maps.class_of(args.dataset, ds.classes)
    class_of[list(owner)] = list(owner.values())
    truths = class_of[universal]
    keep = truths >= 0
    truths = truths[keep]
    # the score columns are the dataset's classes, then void
    _, scores = _inference(args, training.dataset_scores,
                           result.space, result.model, points[keep], args.dataset,
                           maps, spec.collection, post_inference=bool(args.post_inference))
    acc = evaluation.ConfusionAccumulator([c.name for c in ds.classes])
    acc.add(truths, np.argmax(scores, axis=1))
    report = acc.report()
    report["dataset"] = args.dataset
    report["post_inference"] = bool(args.post_inference)
    report["samples"] = len(truths)
    write_json(args.out, report)
    return 0


def _cmd_pseudo_label(args):
    col, tax, maps = _build_artifacts(args)
    lines = read_text(args.input).split("\n")
    try:
        out_lines = [
            json.dumps(record, sort_keys=True)
            for record in pseudolabel.relabel_stream(lines, col, tax, maps)
        ]
    except UnitaxError as exc:
        raise type(exc)(f"{args.input}: {exc}")
    _write_text(args.out, "\n".join(out_lines) + ("\n" if out_lines else ""))
    return 0


# points per grid axis that `surface` accepts at most
GRID_MAX = 1000


def _parse_grid(text):
    """(xmin, xmax, ymin, ymax, nx, ny) from --grid: finite bounds and
    counts from 1 to GRID_MAX."""
    try:
        xmin, xmax, ymin, ymax, nx, ny = text.split(",")
        grid = (float(xmin), float(xmax), float(ymin), float(ymax), int(nx), int(ny))
    except ValueError:
        raise ValidationError("--grid expects xmin,xmax,ymin,ymax,nx,ny")
    for name, value in zip(("xmin", "xmax", "ymin", "ymax"), grid):
        if not np.isfinite(value):
            raise ValidationError(f"--grid {name} must be finite, not {value}")
    for name, value in zip(("nx", "ny"), grid[4:]):
        if not 1 <= value <= GRID_MAX:
            raise ValidationError(f"--grid {name} must lie in 1..{GRID_MAX}, not {value}")
    return grid


def _cmd_surface(args):
    grid = _parse_grid(args.grid)
    result = training.load_model(args.model)
    surface = _inference(args, training.decision_surface, result.space, result.model, *grid)
    # opened only now, so that a model or grid that fails leaves no file
    with _open_text(args.out) as fh:
        training.surface_csv(*surface, fh)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    later call: parse_args returns a fresh Namespace each time, so no
    call sees another's arguments.  Each subcommand ``name`` runs
    ``_cmd_<name>`` with dashes as underscores."""
    parser = argparse.ArgumentParser(
        prog="unitax",
        description="Universal taxonomies over multi-dataset label spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_inputs(p):
        """Exactly one input, --atoms or --decls; returns the group, to
        which a command may add another input."""
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--atoms", help="collection JSON (atoms inventory)")
        group.add_argument("--decls", help="declaration program file")
        return group

    p = sub.add_parser("build", help="construct taxonomy and mappings")
    add_inputs(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("check", help="validate invariants of a taxonomy file")
    p.add_argument("--in", dest="input", required=True)

    p = sub.add_parser("filter", help="trainability report")
    add_inputs(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("export-matrix", help="mapping matrix CSV")
    add_inputs(p).add_argument("--in", dest="input", help="built taxonomy JSON")
    p.add_argument("--dataset", required=True)
    p.add_argument("--include-void", action="store_true")
    p.add_argument("--out", required=True)

    p = sub.add_parser("toy-train", help="train a toy model")
    p.add_argument("--spec", required=True, help="toy problem JSON")
    p.add_argument("--mode", required=True, choices=training.MODES)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=training.TrainConfig.epochs)
    p.add_argument("--lr", type=float, default=training.TrainConfig.lr)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("eval", help="dataset-space evaluation of a trained model")
    p.add_argument("--model", required=True, help="model.json from toy-train")
    p.add_argument("--spec", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--post-inference", action="store_true",
                   help="score with post-inference mapping instead of void projection")
    p.add_argument("--out", required=True)

    p = sub.add_parser("pseudo-label", help="universal pseudo-labels from JSONL")
    add_inputs(p)
    p.add_argument("--in", dest="input", required=True, help="JSON-lines input")
    p.add_argument("--out", required=True)

    p = sub.add_parser("surface", help="decision surface CSV over a grid")
    p.add_argument("--model", required=True)
    p.add_argument("--grid", required=True, help="xmin,xmax,ymin,ymax,nx,ny")
    p.add_argument("--out", required=True)
    return parser


def run(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # looked up on each call rather than bound into the shared parser, so a
    # wrapper put in place of a command function (by a profiler) is the one run
    command = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except OSError as exc:
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except UnitaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
