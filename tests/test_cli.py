import copy
import json
import os
import random
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from unitax import cli, problems
from unitax.cli import _parser, run
from unitax.mlp import MlpModel
from unitax.rng import SplitMix64
from unitax.toyproblem import problem_from_dict
from unitax.training import HIDDEN, TrainResult, build_space, save_model

from test_golden import DECLARATIONS

ROOT = Path(__file__).resolve().parents[1]


def write_json(path, data):
    path.write_text(json.dumps(data) + "\n")
    return str(path)


@pytest.fixture
def vehicle_file(tmp_path):
    return write_json(tmp_path / "vehicles.json", problems.vehicle_mini_collection())


@pytest.fixture
def collapse_spec(tmp_path):
    return write_json(tmp_path / "collapse.json", problems.collapse_problem(seed=0))


def test_build_then_check_round_trip(tmp_path, vehicle_file, capsys):
    out = tmp_path / "tax.json"
    assert run(["build", "--atoms", vehicle_file, "--out", str(out)]) == 0
    assert run(["check", "--in", str(out)]) == 0
    assert "OK" in capsys.readouterr().out
    data = json.loads(out.read_text())
    assert "universal" in data
    names = {u["display_name"] for u in data["universal"]}
    assert "pickup" in names


def test_build_outputs_are_byte_identical(tmp_path, vehicle_file):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert run(["build", "--atoms", vehicle_file, "--out", str(first)]) == 0
    assert run(["build", "--atoms", vehicle_file, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_build_from_declarations(tmp_path):
    decls = tmp_path / "prog.decl"
    decls.write_text(
        "dataset A: sky ground\n"
        "dataset B: sky terrain\n"
        "equiv A.sky B.sky\n"
    )
    out = tmp_path / "tax.json"
    assert run(["build", "--decls", str(decls), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert any(u["display_name"] == "sky" for u in data["universal"])


def test_check_rejects_broken_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["check", "--in", str(bad)]) == 1
    missing_atoms = write_json(tmp_path / "inconsistent.json", {
        "atoms": ["a"],
        "datasets": [{"name": "D", "classes": [{"name": "x", "atoms": ["zzz"]}]}],
    })
    assert run(["check", "--in", missing_atoms]) == 1


def test_filter_reports_untrainable_classes(tmp_path):
    rider = write_json(tmp_path / "rider.json", problems.rider_collection())
    out = tmp_path / "filtered.json"
    assert run(["filter", "--atoms", rider, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    names = {e["untrainable_name"] for e in data["filter_report"]}
    assert names == {"bike", "ped"}


def test_export_matrix_csv(tmp_path, vehicle_file):
    out = tmp_path / "matrix.csv"
    assert run(["export-matrix", "--atoms", vehicle_file, "--dataset", "VIPER",
                "--include-void", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == ""
    assert "truck" in lines[1]


def test_missing_file_is_usage_error(tmp_path):
    assert run(["check", "--in", str(tmp_path / "nope.json")]) == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def test_toy_train_writes_artifacts(tmp_path, collapse_spec):
    out = tmp_path / "run"
    assert run(["toy-train", "--spec", collapse_spec, "--mode", "universal-nll-plus",
                "--epochs", "40", "--out", str(out)]) == 0
    for name in ("model.json", "trace.csv", "report.json"):
        assert (out / name).exists()
    report = json.loads((out / "report.json").read_text())
    assert report["mode"] == "universal-nll-plus"
    assert report["epochs"] == 40
    assert 0.0 <= report["universal_accuracy"] <= 1.0
    trace = (out / "trace.csv").read_text().strip().split("\n")
    assert trace[0] == "epoch,loss"
    assert len(trace) == 41


def test_toy_train_is_deterministic(tmp_path, collapse_spec):
    a = tmp_path / "a"
    b = tmp_path / "b"
    argv = ["toy-train", "--spec", collapse_spec, "--mode", "naive-concat",
            "--epochs", "30", "--seed", "7"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    for name in ("model.json", "trace.csv", "report.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def _concept(problem, **fields):
    """``problem`` with its first concept's fields replaced, or dropped
    where the value is None."""
    concept = {**problem["concepts"][0], **fields}
    concept = {k: v for k, v in concept.items() if v is not None}
    return {**problem, "concepts": [concept] + problem["concepts"][1:]}


@pytest.mark.parametrize("edit,field", [
    (lambda p: {k: v for k, v in p.items() if k != "concepts"}, "concepts"),
    (lambda p: _concept(p, std=None), "concepts[0].std"),
    (lambda p: _concept(p, std="wide"), "concepts[0].std"),
    (lambda p: _concept(p, std=float("nan")), "concepts[0].std"),
    (lambda p: _concept(p, center=[0.0, 1.0, 2.0]), "concepts[0].center"),
    (lambda p: _concept(p, center=5), "concepts[0].center"),
    (lambda p: _concept(p, center=[float("nan"), 0.0]), "concepts[0].center"),
    (lambda p: {**p, "seed": "x"}, "seed"),
    (lambda p: _concept(p, count="many"), "concepts[0].count"),
    (lambda p: _concept(p, count=0), "concepts[0].count"),
    (lambda p: _concept(p, count=-2), "concepts[0].count"),
    (lambda p: _concept(p, std=0), "concepts[0].std"),
    (lambda p: _concept(p, std=-1), "concepts[0].std"),
    (lambda p: _concept(p, std=float("inf")), "concepts[0].std"),
    (lambda p: _concept(p, center=[float("inf"), 0]), "concepts[0].center"),
    (lambda p: _concept(p, atom="nope"), "concepts[0].atom"),
    (lambda p: _concept(p, std=10**400), "concepts[0].std"),
    (lambda p: _concept(p, center=[10**400, 0]), "concepts[0].center"),
    (lambda p: _concept(p, count=10**12), "concepts[0].count"),
    (lambda p: _concept(p, center=[0, 1], std=1), None),  # ints are numbers
], ids=["no-concepts", "no-std", "std-string", "std-nan", "center-3", "center-int",
        "center-nan", "seed-string", "count-string", "count-zero", "count-negative",
        "std-zero", "std-negative", "std-inf", "center-inf", "unknown-atom", "std-huge-int",
        "center-huge-int", "count-huge", "int-numbers"])
def test_toy_train_rejects_malformed_problems(tmp_path, capsys, edit, field):
    path = write_json(tmp_path / "problem.json", edit(problems.collapse_problem(seed=0)))
    code = run(["toy-train", "--spec", path, "--mode", "oracle", "--epochs", "2",
                "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if field is None:
        assert code == 0, err
    else:
        assert code == 1 and repr(field) in err, err


@pytest.mark.parametrize("lr", ["nan", "inf", "0"])
def test_toy_train_rejects_a_non_finite_learning_rate(tmp_path, collapse_spec, capsys, lr):
    assert run(["toy-train", "--spec", collapse_spec, "--mode", "oracle", "--epochs", "2",
                f"--lr={lr}", "--out", str(tmp_path / "run")]) == 1
    assert "--lr" in capsys.readouterr().err


def test_eval_default_and_post_inference(tmp_path, collapse_spec):
    out = tmp_path / "run"
    assert run(["toy-train", "--spec", collapse_spec, "--mode", "naive-concat",
                "--epochs", "40", "--out", str(out)]) == 0
    model = str(out / "model.json")
    default_out = tmp_path / "eval_default.json"
    evalmap_out = tmp_path / "eval_map.json"
    base = ["eval", "--model", model, "--spec", collapse_spec,
            "--dataset", "CamVid"]
    assert run(base + ["--out", str(default_out)]) == 0
    assert run(base + ["--post-inference", "--out", str(evalmap_out)]) == 0
    default = json.loads(default_out.read_text())
    mapped = json.loads(evalmap_out.read_text())
    assert default["post_inference"] is False
    assert mapped["post_inference"] is True
    assert mapped["void_fraction"] <= default["void_fraction"]


def test_eval_post_inference_needs_entry_model(tmp_path, collapse_spec):
    out = tmp_path / "run"
    assert run(["toy-train", "--spec", collapse_spec, "--mode", "universal-nll-plus",
                "--epochs", "20", "--out", str(out)]) == 0
    assert run(["eval", "--model", str(out / "model.json"), "--spec", collapse_spec,
                "--dataset", "CamVid", "--post-inference",
                "--out", str(tmp_path / "e.json")]) == 1


def test_surface_grid(tmp_path, collapse_spec):
    out = tmp_path / "run"
    assert run(["toy-train", "--spec", collapse_spec, "--mode", "oracle",
                "--epochs", "20", "--out", str(out)]) == 0
    surface = tmp_path / "surface.csv"
    assert run(["surface", "--model", str(out / "model.json"),
                "--grid=-3,3,-3,3,4,4", "--out", str(surface)]) == 0
    lines = surface.read_text().strip().split("\n")
    assert lines[0].startswith("x,y,")
    assert len(lines) == 17
    # a malformed grid is a validation error
    assert run(["surface", "--model", str(out / "model.json"),
                "--grid=1,2,3", "--out", str(surface)]) == 1


def test_pseudo_label_subcommand(tmp_path, vehicle_file):
    records = tmp_path / "in.jsonl"
    records.write_text(json.dumps({
        "sample_id": "s1",
        "gt_dataset": "Vistas",
        "gt_class": "car",
        "foreign": {"VIPER": {"truck": 1.0}},
    }) + "\n")
    out = tmp_path / "out.jsonl"
    assert run(["pseudo-label", "--atoms", vehicle_file,
                "--in", str(records), "--out", str(out)]) == 0
    row = json.loads(out.read_text().strip())
    assert row["display_name"] == "pickup"
    # malformed input is a validation error
    records.write_text("not json\n")
    assert run(["pseudo-label", "--atoms", vehicle_file,
                "--in", str(records), "--out", str(out)]) == 1


def test_pseudo_label_rejects_nan_probability(tmp_path, vehicle_file, capsys):
    records = tmp_path / "in.jsonl"
    records.write_text(json.dumps({
        "gt_dataset": "Vistas",
        "gt_class": "car",
        "foreign": {"VIPER": {"truck": float("nan")}},
    }) + "\n")
    assert "NaN" in records.read_text()
    assert run(["pseudo-label", "--atoms", vehicle_file, "--in", str(records),
                "--out", str(tmp_path / "out.jsonl")]) == 1
    err = capsys.readouterr().err
    assert "line 1" in err and "'VIPER'" in err and "'truck'" in err
    assert "Traceback" not in err


def test_surface_rejects_malformed_model_json(tmp_path, collapse_spec, capsys):
    out = tmp_path / "run"
    assert run(["toy-train", "--spec", collapse_spec, "--mode", "naive-concat",
                "--epochs", "3", "--out", str(out)]) == 0
    good = json.loads((out / "model.json").read_text())

    def surface(data, name):
        path = write_json(tmp_path / name, data)
        code = run(["surface", "--model", path, "--grid=-1,1,-1,1,2,2",
                    "--out", str(tmp_path / "surface.csv")])
        return code, capsys.readouterr().err

    assert surface(good, "good.json")[0] == 0
    bad_weights = json.loads(json.dumps(good))
    bad_weights["model"]["weights"][1] = bad_weights["model"]["weights"][1][:-1]
    bad_sizes = json.loads(json.dumps(good))
    bad_sizes["model"]["sizes"][1] += 1
    nan_bias = json.loads(json.dumps(good))
    nan_bias["model"]["biases"][2][0] = float("nan")
    text_weight = json.loads(json.dumps(good))
    text_weight["model"]["weights"][0][1][3] = "0.5"
    wrong_width = json.loads(json.dumps(good))
    wrong_width["space"]["entries"].pop()
    cases = [
        ({"space": {}, "model": {}}, "model.sizes"),
        ({"model": good["model"]}, "space"),
        ({"space": {**good["space"], "mode": 3}, "model": good["model"]}, "space.mode"),
        (bad_weights, "model.weights[1]"),
        (bad_sizes, "model.weights[0]"),
        (nan_bias, "model.biases[2]"),
        (text_weight, "model.weights[0]"),
        (wrong_width, "model.sizes"),
    ]
    for i, (data, field) in enumerate(cases):
        code, err = surface(data, f"bad{i}.json")
        assert code == 1, field
        assert f"bad{i}.json" in err and repr(field) in err, err
        assert "Traceback" not in err


def test_pseudo_label_unknown_dataset_names_the_line(tmp_path, vehicle_file, capsys):
    records = tmp_path / "in.jsonl"
    good = {"gt_dataset": "Vistas", "gt_class": "car", "foreign": {"VIPER": {"truck": 1.0}}}
    lines = [good, {**good, "foreign": {"Nope": {"truck": 1.0}}}]
    records.write_text("".join(json.dumps(r) + "\n" for r in lines))
    assert run(["pseudo-label", "--atoms", vehicle_file, "--in", str(records),
                "--out", str(tmp_path / "out.jsonl")]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "unknown dataset 'Nope'" in err
    assert "Traceback" not in err


def test_malformed_label_space_files_name_the_field(tmp_path, capsys):
    def code_and_err(argv):
        code = run(argv)
        return code, capsys.readouterr().err

    cases = [
        (["check", "--in"], {**problems.vehicle_mini_collection(), "universal": [{}],
                             "mappings": {}}, "universal[0].id"),
        (["build", "--atoms"], {"atoms": "abc", "datasets": [{"name": "x"}]}, "atoms"),
        (["build", "--atoms"], {"atoms": ["a"], "datasets": [{"name": "x"}]},
         "datasets[0].classes"),
        (["build", "--atoms"], {"atoms": ["a"], "datasets": [
            {"name": "x", "classes": [{"name": "c", "atoms": [1]}]}]},
         "datasets[0].classes[0].atoms"),
    ]
    for i, (argv, data, field) in enumerate(cases):
        path = write_json(tmp_path / f"bad{i}.json", data)
        code, err = code_and_err(argv + [path, "--out", str(tmp_path / "out.json")]
                                 if argv[0] == "build" else argv + [path])
        assert code == 1, field
        assert repr(field) in err, err
        assert "Traceback" not in err


def test_check_rejects_malformed_universal_entries(tmp_path, vehicle_file, capsys):
    built = tmp_path / "tax.json"
    assert run(["build", "--atoms", vehicle_file, "--out", str(built)]) == 0
    good = json.loads(built.read_text())
    bad_signature = json.loads(built.read_text())
    bad_signature["universal"][0]["signature"] = [["VIPER", "nope"]]
    bad_id = json.loads(built.read_text())
    bad_id["universal"][1]["id"] = 7
    bad_mapping = json.loads(built.read_text())
    bad_mapping["mappings"]["VIPER"]["truck"] = ["0"]
    cases = [(bad_signature, "universal[0].signature"), (bad_id, "universal[1].id"),
             (bad_mapping, "mappings.VIPER.truck"),
             ({**good, "mappings": []}, "mappings")]
    for i, (data, field) in enumerate(cases):
        path = write_json(tmp_path / f"bad{i}.json", data)
        assert run(["check", "--in", path]) == 1, field
        err = capsys.readouterr().err
        assert repr(field) in err and "Traceback" not in err, err


def test_surface_rejects_unbounded_grids(tmp_path, collapse_spec, capsys):
    out = tmp_path / "run"
    assert run(["toy-train", "--spec", collapse_spec, "--mode", "oracle",
                "--epochs", "2", "--out", str(out)]) == 0
    surface = tmp_path / "surface.csv"

    def draw(grid):
        code = run(["surface", "--model", str(out / "model.json"), f"--grid={grid}",
                    "--out", str(surface)])
        return code, capsys.readouterr().err

    for grid, field in [("-1,1,-1,1,-1,2", "nx"), ("-1,1,-1,1,2,0", "ny"),
                        ("-1,1,-1,1,1001,2", "nx"), ("nan,1,-1,1,2,2", "xmin"),
                        ("-1,inf,-1,1,2,2", "xmax"), ("-1,1,-inf,1,2,2", "ymin")]:
        code, err = draw(grid)
        assert code == 1, grid
        assert f"--grid {field}" in err and "Traceback" not in err, err
        assert not surface.exists()
    # the smallest and the largest grids are accepted
    assert draw("-1,1,-1,1,1,1")[0] == 0
    assert len(surface.read_text().splitlines()) == 2
    assert draw("0,1,0,1,1000,1")[0] == 0
    assert len(surface.read_text().splitlines()) == 1001


# ---------------------------------------------------------------------------
# every malformed input ends in exit 1 or 2 with a message naming it


def _cross_eval_model(tmp_path, mode, edit=lambda space: None, field="space"):
    """An untrained ``mode`` model.json of the cross-eval problem whose
    ``field`` (the whole document for None) ``edit`` changes."""
    spec, tax, _ = problem_from_dict(problems.cross_eval_problem(0))
    space = build_space(mode, spec.collection, tax)
    path = tmp_path / "model.json"
    save_model(path, TrainResult(MlpModel([2, *HIDDEN, space.k], SplitMix64(0)), space, []))
    data = json.loads(path.read_text())
    edit(data if field is None else data[field])
    return write_json(path, data)


def _surface_of_an_edited_model(tmp_path, edit, field):
    """surface of a universal-nll-plus model of the cross-eval problem
    whose ``field`` ``edit`` changes."""
    return ["surface", "--model", _cross_eval_model(tmp_path, "universal-nll-plus", edit, field),
            "--grid=-1,1,-1,1,2,2", "--out", str(tmp_path / "s.csv")]


def _heads_model(tmp_path, edit):
    """A per-dataset-heads model.json whose space ``edit`` changes."""
    return _cross_eval_model(tmp_path, "per-dataset-heads", edit)


def _swap_first_and_last(space):
    entries = space["entries"]
    entries[0], entries[-1] = entries[-1], entries[0]


def _pseudo_label(tmp_path, vehicle_file, foreign):
    records = tmp_path / "in.jsonl"
    records.write_text(json.dumps({"gt_dataset": "Vistas", "gt_class": "car",
                                   "foreign": foreign}) + "\n")
    return ["pseudo-label", "--atoms", vehicle_file, "--in", str(records),
            "--out", str(tmp_path / "out.jsonl")]


def _vehicles_without_van(tmp_path):
    """The vehicles collection with ADE20k's class ``van`` renamed ``v``:
    a valid collection that lacks a class the fuzz records name."""
    collection = problems.vehicle_mini_collection()
    for ds in collection["datasets"]:
        for c in ds["classes"]:
            if (ds["name"], c["name"]) == ("ADE20k", "van"):
                c["name"] = "v"
    return write_json(tmp_path / "renamed.json", collection)


def _latin1(tmp_path, name, text):
    path = tmp_path / name
    path.write_bytes(text.encode("latin-1"))
    return str(path)


def _built_taxonomy(tmp_path, vehicle_file, edit, field="universal"):
    """The taxonomy built from the vehicles collection, its ``field``
    changed by ``edit``."""
    path = tmp_path / "tax.json"
    assert run(["build", "--atoms", vehicle_file, "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    edit(data[field])
    return write_json(path, data)


def _inputs(tmp_path, vehicle_file, command, *options):
    """``command`` given a valid file for each of the input ``options``
    (``--atoms``, ``--decls``, ``--in``), and valid other arguments."""
    decls = tmp_path / "program.decl"
    decls.write_text(DECLARATIONS)
    built = tmp_path / "taxonomy.json"
    assert run(["build", "--atoms", vehicle_file, "--out", str(built)]) == 0
    records = tmp_path / "records.jsonl"
    records.write_text(json.dumps({"gt_dataset": "Vistas", "gt_class": "car",
                                   "foreign": {"VIPER": {"truck": 1.0}}}) + "\n")
    paths = {"--atoms": vehicle_file, "--decls": str(decls), "--in": str(built)}
    extra = {"pseudo-label": ["--in", str(records)], "export-matrix": ["--dataset", "VIPER"]}
    return [command, *(a for option in options for a in (option, paths[option])),
            *extra.get(command, []), "--out", str(tmp_path / "out")]


def _eval_on_another_problem(tmp_path, mode):
    """eval on the collapse problem of a ``mode`` model trained on the
    intersection problem."""
    spec = write_json(tmp_path / "intersection.json", problems.intersection_problem(0))
    assert run(["toy-train", "--spec", spec, "--mode", mode, "--epochs", "3",
                "--out", str(tmp_path / "run")]) == 0
    return ["eval", "--model", str(tmp_path / "run" / "model.json"),
            "--spec", write_json(tmp_path / "collapse.json", problems.collapse_problem(0)),
            "--dataset", "CamVid", "--out", str(tmp_path / "eval.json")]


def _eval_with_a_renamed_class(tmp_path, mode):
    """eval of a ``mode`` model of the cross-eval problem on that problem
    with D2.b23, the space's entries[5], renamed."""
    problem = problems.cross_eval_problem(0)
    problem["datasets"][1]["classes"][1]["name"] = "b2+3"
    return ["eval", "--model", _cross_eval_model(tmp_path, mode),
            "--spec", write_json(tmp_path / "renamed.json", problem),
            "--dataset", "D2", "--out", str(tmp_path / "eval.json")]


def _surface_of_a_model_missing_an_output(tmp_path, mode, field):
    """surface of a ``mode`` model of the cross-eval problem whose space
    lost the last item of ``field``, so it has one output too few."""
    def drop_last(space):
        space[field].pop()
        space["n_universal"] = len(space["universal_atoms"])

    return ["surface", "--model", _cross_eval_model(tmp_path, mode, drop_last),
            "--grid=-1,1,-1,1,2,2", "--out", str(tmp_path / "s.csv")]


def _collapse_run(tmp_path, *options):
    """toy-train on the collapse problem in universal-nll-plus mode."""
    spec = write_json(tmp_path / "collapse.json", problems.collapse_problem(0))
    return ["toy-train", "--spec", spec, "--mode", "universal-nll-plus", *options,
            "--out", str(tmp_path / "run")]


def _toy_train_edited(tmp_path, problem, edit, mode="universal-nll-plus"):
    """toy-train for two epochs on ``problem`` after ``edit`` changed it."""
    edit(problem)
    spec = write_json(tmp_path / "p.json", problem)
    return ["toy-train", "--spec", spec, "--mode", mode, "--epochs", "2",
            "--out", str(tmp_path / "run")]


def _overflowing_model(tmp_path, command):
    """``command`` (surface or eval) on a universal-nll-plus model of the
    collapse problem whose weights, finite but near 1e300, overflow every
    logit."""
    problem = problems.collapse_problem(0)
    spec, tax, _ = problem_from_dict(problem)
    space = build_space("universal-nll-plus", spec.collection, tax)
    model = MlpModel([2, *HIDDEN, space.k], SplitMix64(0))
    for w in model.weights:
        w *= 1e300
    path = tmp_path / "model.json"
    save_model(path, TrainResult(model, space, []))
    if command == "surface":
        return ["surface", "--model", str(path), "--grid=-3,3,-3,3,4,4",
                "--out", str(tmp_path / "s.csv")]
    return ["eval", "--model", str(path), "--spec", write_json(tmp_path / "p.json", problem),
            "--dataset", "CamVid", "--out", str(tmp_path / "e.json")]


def _heads_model_overflowing_in_a_class_head(tmp_path):
    """eval of a per-dataset-heads model of the cross-eval problem whose
    finite last-layer weights overflow the logits of its last class head
    alone: the hidden units are non-negative, so every logit there is
    1e308 times their sum."""
    problem = problems.cross_eval_problem(0)
    spec, tax, _ = problem_from_dict(problem)
    space = build_space("per-dataset-heads", spec.collection, tax)
    model = MlpModel([2, *HIDDEN, space.k], SplitMix64(0))
    dataset, classes = space.blocks[-1]
    model.weights[-1][:, classes] = 1e308
    path = tmp_path / "model.json"
    save_model(path, TrainResult(model, space, []))
    return ["eval", "--model", str(path), "--spec", write_json(tmp_path / "p.json", problem),
            "--dataset", dataset, "--out", str(tmp_path / "e.json")]


LATIN1_COLLECTION = '{"atoms": ["caf\xe9"], "datasets": []}\n'
ORPHAN_COLLECTION = {"atoms": ["a", "b"],
                     "datasets": [{"name": "D", "classes": [{"name": "x", "atoms": ["a"]}]}]}

BAD_INPUTS = {
    "foreign-list": lambda tmp, vehicles: (
        _pseudo_label(tmp, vehicles, [1]), 1, ["in.jsonl", "line 1", "'foreign'"]),
    "foreign-text": lambda tmp, vehicles: (
        _pseudo_label(tmp, vehicles, {"VIPER": "x"}), 1,
        ["in.jsonl", "line 1", "'foreign.VIPER'"]),
    "foreign-null": lambda tmp, vehicles: (
        _pseudo_label(tmp, vehicles, None), 1, ["in.jsonl", "line 1", "'foreign'"]),
    "foreign-own-dataset-negative": lambda tmp, vehicles: (
        _pseudo_label(tmp, vehicles, {"VIPER": {"truck": 1.0}, "Vistas": {"car": -3.0}}), 1,
        ["in.jsonl", "line 1", "'Vistas'", "'car'", "-3.0"]),
    # the record, not the collection, is blamed: see
    # test_mutated_inputs_name_the_file_and_the_field
    "foreign-class-the-collection-lacks": lambda tmp, vehicles: (
        _pseudo_label(tmp, _vehicles_without_van(tmp), {"ADE20k": {"van": 1.0}}), 1,
        ["in.jsonl: line 1: ", "'ADE20k'", "['van']"]),
    "build-out-directory": lambda tmp, vehicles: (
        ["build", "--atoms", vehicles, "--out", str(tmp)], 2, [str(tmp)]),
    "surface-out-directory": lambda tmp, vehicles: (
        ["surface", "--model", _cross_eval_model(tmp, "universal-nll-plus"),
         "--grid=-1,1,-1,1,2,2", "--out", str(tmp)], 2, [str(tmp)]),
    "check-not-utf8": lambda tmp, vehicles: (
        ["check", "--in", _latin1(tmp, "c.json", LATIN1_COLLECTION)], 1, ["c.json"]),
    "build-atoms-not-utf8": lambda tmp, vehicles: (
        ["build", "--atoms", _latin1(tmp, "a.json", LATIN1_COLLECTION),
         "--out", str(tmp / "out.json")], 1, ["a.json"]),
    "build-decls-not-utf8": lambda tmp, vehicles: (
        ["build", "--decls", _latin1(tmp, "p.decl", "dataset A: caf\xe9 sky\n"),
         "--out", str(tmp / "out.json")], 1, ["p.decl"]),
    "pseudo-label-in-not-utf8": lambda tmp, vehicles: (
        ["pseudo-label", "--atoms", vehicles,
         "--in", _latin1(tmp, "r.jsonl", '{"gt_dataset": "Vistas", "gt_class": "caf\xe9"}\n'),
         "--out", str(tmp / "out.jsonl")], 1, ["r.jsonl"]),
    "trainable-text": lambda tmp, vehicles: (
        ["export-matrix", "--in", _built_taxonomy(
            tmp, vehicles, lambda u: u[0].update(trainable="false")),
         "--dataset", "VIPER", "--out", str(tmp / "m.csv")], 1,
        ["tax.json", "'universal[0].trainable'"]),
    "dominator-text": lambda tmp, vehicles: (
        ["check", "--in", _built_taxonomy(
            tmp, vehicles, lambda u: u[0].update(dominator="nonsense"))], 1,
        ["tax.json", "'universal[0].dominator'"]),
    "dominator-itself": lambda tmp, vehicles: (
        ["check", "--in", _built_taxonomy(
            tmp, vehicles, lambda u: u[1].update(trainable=False, dominator=1))], 1,
        ["tax.json", "'universal[1].dominator'"]),
    # on the vehicles taxonomy only pickup (universal[1]) is trainable, and
    # the truck (universal[0]) is dominated by it
    "trainable-with-dominator": lambda tmp, vehicles: (
        ["check", "--in", _built_taxonomy(tmp, vehicles, lambda u: u[1].update(dominator=0))],
        1, ["tax.json", "'universal[1].trainable'", "'universal[1].dominator'"]),
    "untrainable-without-dominator": lambda tmp, vehicles: (
        ["check", "--in", _built_taxonomy(tmp, vehicles, lambda u: u[0].update(dominator=None))],
        1, ["tax.json", "'universal[0].trainable'", "'universal[0].dominator'"]),
    "dominated-but-trainable": lambda tmp, vehicles: (
        ["export-matrix", "--in", _built_taxonomy(
            tmp, vehicles, lambda u: u[0].update(trainable=True)),
         "--dataset", "VIPER", "--out", str(tmp / "m.csv")], 1,
        ["tax.json", "'universal[0].trainable'"]),
    "universal-unknown-atom": lambda tmp, vehicles: (
        ["check", "--in", _built_taxonomy(tmp, vehicles, lambda u: u[0]["atoms"].append("nope"))],
        1, ["tax.json", "'universal[0].atoms'"]),
    "universal-unknown-class-pair": lambda tmp, vehicles: (
        ["check", "--in", _built_taxonomy(
            tmp, vehicles, lambda u: u[0]["signature"].append(["VIPER", "ghost"]))], 1,
        ["tax.json", "'universal[0].signature'"]),
    # the built vehicles taxonomy has four universal classes
    "universal-one-class-short": lambda tmp, vehicles: (
        ["check", "--in", _built_taxonomy(tmp, vehicles, lambda u: u.pop())], 1,
        ["tax.json", "field 'universal' must list the 4 universal classes of the collection, "
                     "not 3"]),
    "universal-one-class-long": lambda tmp, vehicles: (
        ["check", "--in", _built_taxonomy(tmp, vehicles, lambda u: u.append(dict(u[-1])))], 1,
        ["tax.json", "field 'universal' must list the 4 universal classes of the collection, "
                     "not 5"]),
    "build-orphan-atom": lambda tmp, vehicles: (
        ["build", "--atoms", write_json(tmp / "o.json", ORPHAN_COLLECTION),
         "--out", str(tmp / "out.json")], 1, ["o.json", "'atoms[1]'", "'b'"]),
    "mappings-unknown-dataset": lambda tmp, vehicles: (
        ["check", "--in", _built_taxonomy(
            tmp, vehicles, lambda m: m.update(Nope={"x": [0]}), "mappings")], 1,
        ["tax.json", "'mappings.Nope'"]),
    "mappings-unknown-class": lambda tmp, vehicles: (
        ["export-matrix", "--in", _built_taxonomy(
            tmp, vehicles, lambda m: m["VIPER"].update(ghost=[2]), "mappings"),
         "--dataset", "VIPER", "--out", str(tmp / "m.csv")], 1,
        ["tax.json", "'mappings.VIPER.ghost'"]),
    "mappings-class-missing": lambda tmp, vehicles: (
        ["check", "--in", _built_taxonomy(
            tmp, vehicles, lambda m: m["VIPER"].pop("truck"), "mappings")], 1,
        ["tax.json", "'mappings.VIPER.truck'"]),
    "eval-universal-model-of-another-problem": lambda tmp, vehicles: (
        _eval_on_another_problem(tmp, "universal-nll-plus"), 1, ["model.json", "'space'"]),
    "eval-concat-model-of-another-problem": lambda tmp, vehicles: (
        _eval_on_another_problem(tmp, "naive-concat"), 1, ["model.json", "'space'"]),
    "eval-universal-model-names-the-first-differing-class": lambda tmp, vehicles: (
        _eval_on_another_problem(tmp, "universal-nll-plus"), 1,
        ["model.json", "'space.universal_atoms[0]'"]),
    "eval-concat-model-names-the-renamed-entry": lambda tmp, vehicles: (
        _eval_with_a_renamed_class(tmp, "naive-concat"), 1, ["model.json", "'space.entries[5]'"]),
    "eval-heads-model-names-the-renamed-entry": lambda tmp, vehicles: (
        _eval_with_a_renamed_class(tmp, "per-dataset-heads"), 1,
        ["model.json", "'space.entries[5]'"]),
    "surface-concat-model-missing-an-entry": lambda tmp, vehicles: (
        _surface_of_a_model_missing_an_output(tmp, "naive-concat", "entries"), 1,
        ["model.json", "'model.sizes'", "'space.entries'"]),
    "surface-universal-model-missing-a-class": lambda tmp, vehicles: (
        _surface_of_a_model_missing_an_output(tmp, "universal-nll-plus", "universal_atoms"), 1,
        ["model.json", "'model.sizes'", "'space.universal_atoms'"]),
    "model-space-mode-unknown": lambda tmp, vehicles: (
        _surface_of_an_edited_model(tmp, lambda space: space.update(mode="bogus"), "space"), 1,
        ["model.json", "field 'space.mode' must be one of ('universal-nll-plus',"]),
    "model-sizes-not-starting-at-2": lambda tmp, vehicles: (
        _surface_of_an_edited_model(
            tmp, lambda model: model.update(sizes=[3, *model["sizes"][1:]]), "model"), 1,
        ["model.json", "field 'model.sizes' must start with the input width 2"]),
    "model-weights-layer-missing": lambda tmp, vehicles: (
        _surface_of_an_edited_model(tmp, lambda model: model["weights"].pop(), "model"), 1,
        ["model.json", "field 'model.weights' needs 3 layers for sizes [2, 64, 64, 5], not 2"]),
    "model-loss-trace-text": lambda tmp, vehicles: (
        _surface_of_an_edited_model(tmp, lambda data: data.update(loss_trace="0.5"), None), 1,
        ["model.json", "field 'loss_trace' is not list"]),
    "build-no-input": lambda tmp, vehicles: (
        _inputs(tmp, vehicles, "build"), 2,
        ["usage: unitax build", "one of the arguments --atoms --decls is required"]),
    "build-atoms-and-decls": lambda tmp, vehicles: (
        _inputs(tmp, vehicles, "build", "--atoms", "--decls"), 2,
        ["usage: unitax build", "argument --decls: not allowed with argument --atoms"]),
    "filter-no-input": lambda tmp, vehicles: (
        _inputs(tmp, vehicles, "filter"), 2,
        ["usage: unitax filter", "one of the arguments --atoms --decls is required"]),
    "filter-atoms-and-decls": lambda tmp, vehicles: (
        _inputs(tmp, vehicles, "filter", "--atoms", "--decls"), 2,
        ["usage: unitax filter", "argument --decls: not allowed with argument --atoms"]),
    "pseudo-label-no-input": lambda tmp, vehicles: (
        _inputs(tmp, vehicles, "pseudo-label"), 2,
        ["usage: unitax pseudo-label", "one of the arguments --atoms --decls is required"]),
    "pseudo-label-atoms-and-decls": lambda tmp, vehicles: (
        _inputs(tmp, vehicles, "pseudo-label", "--atoms", "--decls"), 2,
        ["usage: unitax pseudo-label", "argument --decls: not allowed with argument --atoms"]),
    "export-matrix-in-and-atoms": lambda tmp, vehicles: (
        _inputs(tmp, vehicles, "export-matrix", "--in", "--atoms"), 2,
        ["usage: unitax export-matrix", "argument --atoms: not allowed with argument --in"]),
    "toy-train-diverging-last-step": lambda tmp, vehicles: (
        _collapse_run(tmp, "--epochs", "1", "--lr", "1e308"), 1, ["--lr", "1e+308"]),
    "toy-train-epochs-above-max": lambda tmp, vehicles: (
        _collapse_run(tmp, "--epochs", "100001"), 1, ["--epochs must lie in 1..100000"]),
    # dataset 0 of the intersection problem covers every atom, so no atom
    # is orphaned when dataset 1 loses its classes
    "toy-train-dataset-without-classes": lambda tmp, vehicles: (
        _toy_train_edited(tmp, problems.intersection_problem(0),
                          lambda p: p["datasets"][1].update(classes=[]), "naive-concat"), 1,
        ["p.json", "'datasets[1].classes'"]),
    "build-decls-dataset-without-classes": lambda tmp, vehicles: (
        ["build", "--decls", _latin1(tmp, "p.decl", "dataset A:\n"),  # ASCII
         "--out", str(tmp / "out.json")], 1, ["p.decl", "'datasets[0].classes'"]),
    "toy-train-no-concepts": lambda tmp, vehicles: (
        _toy_train_edited(tmp, problems.collapse_problem(0), lambda p: p.update(concepts=[])),
        1, ["p.json", "'concepts'"]),
    "toy-train-nothing-held-out": lambda tmp, vehicles: (
        _toy_train_edited(tmp, problems.collapse_problem(0),
                          lambda p: [c.update(count=4) for c in p["concepts"]]), 1,
        ["p.json", "'concepts'"]),
    "surface-model-overflowing": lambda tmp, vehicles: (
        _overflowing_model(tmp, "surface"), 1, ["model.json", "'model'", "non-finite"]),
    "eval-model-overflowing": lambda tmp, vehicles: (
        _overflowing_model(tmp, "eval"), 1, ["model.json", "'model'", "non-finite"]),
    "eval-heads-model-overflowing-in-a-class-head": lambda tmp, vehicles: (
        _heads_model_overflowing_in_a_class_head(tmp), 1, ["model.json", "'model'", "non-finite"]),
    "heads-entries-swapped": lambda tmp, vehicles: (
        ["surface", "--model", _heads_model(tmp, _swap_first_and_last),
         "--grid=-1,1,-1,1,2,2", "--out", str(tmp / "s.csv")], 1,
        ["model.json", "'space.entries[1].dataset'"]),
    "heads-entry-unknown-dataset": lambda tmp, vehicles: (
        ["surface", "--model", _heads_model(tmp, lambda s: s["entries"][0].update(dataset="D9")),
         "--grid=-1,1,-1,1,2,2", "--out", str(tmp / "s.csv")], 1,
        ["model.json", "'space.entries[0].dataset'"]),
    "heads-dataset-without-entries": lambda tmp, vehicles: (
        ["surface", "--model", _heads_model(tmp, lambda s: s.update(
            entries=s["entries"][:-1], datasets=s["datasets"] + ["D3"])),
         "--grid=-1,1,-1,1,2,2", "--out", str(tmp / "s.csv")], 1,
        ["model.json", "'space.datasets'"]),
    "heads-dataset-twice": lambda tmp, vehicles: (
        ["surface", "--model", _heads_model(tmp, lambda s: s.update(datasets=["D1", "D1"])),
         "--grid=-1,1,-1,1,2,2", "--out", str(tmp / "s.csv")], 1,
        ["model.json", "'space.datasets'"]),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_inputs_exit_with_a_message_naming_them(case, tmp_path, vehicle_file, capsys):
    argv, expected, named = BAD_INPUTS[case](tmp_path, vehicle_file)
    assert run(argv) == expected
    err = capsys.readouterr().err
    assert all(name in err for name in named), err
    assert "Traceback" not in err


@pytest.mark.parametrize("case", ["toy-train-diverging-last-step", "surface-model-overflowing",
                                  "eval-model-overflowing"])
def test_non_finite_outputs_warn_nothing_and_write_nothing(case, tmp_path, vehicle_file):
    argv, expected, _ = BAD_INPUTS[case](tmp_path, vehicle_file)
    before = set(tmp_path.iterdir())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == expected
    assert set(tmp_path.iterdir()) == before
    assert not os.path.exists(argv[argv.index("--out") + 1])


@pytest.mark.parametrize("fixture", ["vehicles", "rider", "city", "two-split", "decls"])
def test_check_accepts_what_build_and_filter_write(tmp_path, fixture):
    if fixture == "decls":
        source = tmp_path / "program.decl"
        source.write_text(DECLARATIONS)
        inputs, commands = ["--decls", str(source)], ["build"]
    else:
        data = {"vehicles": problems.vehicle_mini_collection, "rider": problems.rider_collection,
                "city": problems.relabeled_city_collection,
                "two-split": problems.two_split_problem}[fixture]()
        source = write_json(tmp_path / "collection.json",
                            {"atoms": data["atoms"], "datasets": data["datasets"]})
        inputs, commands = ["--atoms", source], ["build", "filter"]
    for command in commands:
        out = tmp_path / f"{command}.json"
        assert run([command, *inputs, "--out", str(out)]) == 0
        assert run(["check", "--in", str(out)]) == 0, command
        for ds in json.loads(out.read_text())["datasets"]:
            assert run(["export-matrix", "--in", str(out), "--dataset", ds["name"],
                        "--out", str(tmp_path / "m.csv")]) == 0, (command, ds["name"])


def test_module_runs_the_command_line(tmp_path, vehicle_file):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    checked = subprocess.run([sys.executable, "-m", "unitax.cli", "check", "--in", vehicle_file],
                             capture_output=True, text=True, env=env)
    assert (checked.returncode, checked.stdout) == (0, f"{vehicle_file}: OK\n"), checked.stderr
    bare = subprocess.run([sys.executable, "-m", "unitax.cli"], capture_output=True, env=env)
    assert bare.returncode == 2


@pytest.mark.parametrize("mode", ["universal-nll-plus", "per-dataset-heads"])
def test_toy_train_bytes_do_not_depend_on_blas_threads(tmp_path, mode):
    # two-split has 1560 training points: enough rows for a multi-threaded
    # BLAS to split the reduction of backward()'s weight gradients
    spec = write_json(tmp_path / "two-split.json", problems.two_split_problem(0))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(ROOT / "src"),
               "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-m", "unitax.cli", "toy-train", "--spec", spec,
                               "--mode", mode, "--epochs", "3", "--out", str(out)],
                              capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr
        outputs.append({name: (out / name).read_bytes()
                        for name in ("model.json", "trace.csv", "report.json")})
    assert outputs[0] == outputs[1]


def test_run_keeps_no_state_between_calls(tmp_path, vehicle_file, collapse_spec, capsys,
                                          monkeypatch):
    """One process runs a usage error, eval with and without post-inference,
    surface and build, in that order and then in reverse; each call's exit
    code, output file and messages equal those of the command run alone in
    a fresh process."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to the terminal
    spec, tax, _ = problem_from_dict(problems.collapse_problem(0))
    space = build_space("naive-concat", spec.collection, tax)
    model = tmp_path / "model.json"
    save_model(model, TrainResult(MlpModel([2, *HIDDEN, space.k], SplitMix64(4)), space, []))
    evaluate = ["eval", "--model", str(model), "--spec", collapse_spec, "--dataset", "CamVid"]
    commands = [
        ["eval", "--model", str(model)],
        [*evaluate, "--post-inference"],
        evaluate,
        ["surface", "--model", str(model), "--grid=-3,3,-3,3,31,17"],
        ["build", "--atoms", vehicle_file],
    ]

    def outcome(argv, out, alone):
        argv = [*argv, "--out", str(out)]
        if alone:
            env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
            done = subprocess.run([sys.executable, "-m", "unitax.cli", *argv],
                                  capture_output=True, text=True, env=env)
            code, stdout, stderr = done.returncode, done.stdout, done.stderr
        else:
            code = run(argv)
            stdout, stderr = capsys.readouterr()
        return code, stdout, stderr, out.read_bytes() if out.exists() else None

    alone = [outcome(argv, tmp_path / f"alone-{i}", True) for i, argv in enumerate(commands)]
    assert [got[0] for got in alone] == [2, 0, 0, 0, 0]
    reports = [json.loads(got[3]) for got in alone[1:3]]
    assert [r["post_inference"] for r in reports] == [True, False]
    order = [*range(len(commands)), *reversed(range(len(commands)))]
    for k, i in enumerate(order):
        assert outcome(commands[i], tmp_path / f"shared-{k}", False) == alone[i], (k, commands[i])


def test_run_calls_the_command_function_of_the_module_at_each_call(
        tmp_path, vehicle_file, monkeypatch):
    """The shared parser binds no command function, so one replaced after
    the parser was built (as a profiler's wrapper is) is the one run."""
    _parser()
    calls = []
    monkeypatch.setattr(cli, "_cmd_check", lambda args: calls.append(args.input) or 7)
    assert run(["check", "--in", vehicle_file]) == 7
    assert calls == [vehicle_file]


def test_readme_command_lines_parse():
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    lines = [line.strip() for block in blocks
             for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("unitax ")]
    assert len(commands) >= 9  # the examples of the Command line section
    parser = _parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: unitax {shlex.join(argv)}")


# ---------------------------------------------------------------------------
# seeded fuzzing: mutated inputs of every kind end in exit 0, 1 or 2


# Values a mutation puts in place of a node.  No value exceeds the small
# counts, epochs and grid sizes of the fixtures, so no mutated run is slow.
FUZZ_VALUES = [float("nan"), float("inf"), -float("inf"), -1, 0, -0.5, "", "x",
               None, True, [], [1], {}]
# Integers beyond the float range and beyond every count bound, which a
# second stream of draws puts in place of numbers.
HUGE_VALUES = [10**400, -10**400, 10**12]
FUZZ_TOKENS = ["", "dataset", "equiv", "subset", "overlap", "name=", "A.", ".x", "A.x",
               ":", "#"]


def _fuzz_model(tmp_path, problem, mode):
    """A model.json document for ``problem`` with one hidden layer of 3
    units, so that most of its nodes are structure, not weights."""
    spec, tax, _ = problem_from_dict(problem)
    space = build_space(mode, spec.collection, tax)
    path = tmp_path / f"{mode}.json"
    save_model(path, TrainResult(MlpModel([2, 3, space.k], SplitMix64(0)), space, []))
    return json.loads(path.read_text())


def _as_json(doc):
    return json.dumps(doc).encode()


def _as_lines(doc, line):
    """Bytes of one line per item of the list ``doc``, each made by ``line``."""
    return "".join(line(item) + "\n" for item in doc).encode()


def _fuzz_inputs(tmp_path):
    """(cases, valid document, replacement values, render to bytes, argv
    lists with FUZZ in place of the mutated file's path) for each input
    kind.  The cheap inputs get more cases."""
    problem = problems.cross_eval_problem(0)
    vehicles = problems.vehicle_mini_collection()
    spec = write_json(tmp_path / "problem.json", problem)
    atoms = write_json(tmp_path / "vehicles.json", vehicles)
    built = tmp_path / "taxonomy.json"
    assert run(["build", "--atoms", atoms, "--out", str(built)]) == 0
    concat = _fuzz_model(tmp_path, problem, "naive-concat")
    model = write_json(tmp_path / "model.json", concat)
    records = [{"sample_id": "s1", "gt_dataset": "Vistas", "gt_class": "car",
                "foreign": {"VIPER": {"truck": 1.0}, "ADE20k": {"van": 1.0}}},
               {"gt_dataset": "VIPER", "gt_class": "truck", "foreign": {"Vistas": {"car": 1.0}}}]
    jsonl = tmp_path / "records.jsonl"
    jsonl.write_bytes(_as_lines(records, json.dumps))
    decls = [line.split() for line in ("dataset A: sky road", "dataset B: sky car",
                                       "equiv A.sky B.sky", "subset B.car A.road",
                                       "overlap A.sky C.sky name=haze")]
    out = str(tmp_path / "out")
    model_commands = [["surface", "--model", "FUZZ", "--grid=-1,1,-1,1,2,2", "--out", out],
                      ["eval", "--model", "FUZZ", "--spec", spec, "--dataset", "D2",
                       "--out", out]]
    return [
        (60, vehicles, FUZZ_VALUES, _as_json,
         [["build", "--atoms", "FUZZ", "--out", out],
          ["filter", "--atoms", "FUZZ", "--out", out],
          ["export-matrix", "--atoms", "FUZZ", "--dataset", "VIPER", "--include-void",
           "--out", out],
          ["check", "--in", "FUZZ"],
          ["pseudo-label", "--atoms", "FUZZ", "--in", str(jsonl), "--out", out]]),
        (60, json.loads(built.read_text()), FUZZ_VALUES, _as_json,
         [["check", "--in", "FUZZ"],
          ["export-matrix", "--in", "FUZZ", "--dataset", "VIPER", "--out", out]]),
        (40, problem, FUZZ_VALUES, _as_json,
         [["toy-train", "--spec", "FUZZ", "--mode", "per-dataset-heads", "--epochs", "2",
           "--out", str(tmp_path / "run")],
          ["eval", "--model", model, "--spec", "FUZZ", "--dataset", "D2",
           "--post-inference", "--out", out]]),
        (40, _fuzz_model(tmp_path, problem, "universal-nll-plus"), FUZZ_VALUES, _as_json,
         model_commands),
        (40, concat, FUZZ_VALUES, _as_json, model_commands),
        (40, _fuzz_model(tmp_path, problem, "per-dataset-heads"), FUZZ_VALUES, _as_json,
         model_commands),
        (120, records, FUZZ_VALUES, lambda doc: _as_lines(doc, json.dumps),
         [["pseudo-label", "--atoms", atoms, "--in", "FUZZ", "--out", out]]),
        (80, decls, FUZZ_TOKENS,
         lambda doc: _as_lines(doc, lambda line: " ".join(line) if isinstance(line, list)
                               else line),
         [["build", "--decls", "FUZZ", "--out", out],
          ["filter", "--decls", "FUZZ", "--out", out]]),
    ]


def _paths(doc, path=()):
    """The key path of every node below the root of ``doc``."""
    items = (doc.items() if isinstance(doc, dict) else
             enumerate(doc) if isinstance(doc, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _retype(value):
    """``value`` truncated, or as a value of another type: a container as
    its first key or item, a number as a string, a bool or null as 0."""
    if isinstance(value, dict):
        return next(iter(value), "")
    if isinstance(value, list):
        return value[0] if value else ""
    if isinstance(value, str):
        return value[:len(value) // 2]
    if isinstance(value, bool) or value is None:
        return 0
    return str(value)


def _copied(doc, path):
    """(a copy of ``doc``, the copy of the container holding the node at
    ``path``).  Only the containers on the path are copied, so ``doc``
    itself stays as it was."""
    root = node = copy.copy(doc)
    for key in path[:-1]:
        node[key] = node = copy.copy(node[key])
    return root, node


# the value _mutation gives a dropped node
DROPPED = object()


def _mutation(rng, doc, values):
    """(``doc`` with one node, drawn uniformly, dropped, retyped or
    replaced by one of ``values``; the key path of that node; its new
    value, or DROPPED)."""
    path = rng.choice(list(_paths(doc)))
    root, node = _copied(doc, path)
    key = path[-1]
    op = rng.random()
    if op < 0.25:
        del node[key]
        return root, path, DROPPED
    node[key] = _retype(node[key]) if op < 0.5 else rng.choice(values)
    return root, path, node[key]


def _enlarge(rng, doc):
    """(``doc`` with one number, drawn uniformly, replaced by one of
    HUGE_VALUES; the key path of that number; its new value), or None
    when ``doc`` holds no number."""
    numbers = []
    for path in _paths(doc):
        node = doc
        for key in path:
            node = node[key]
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            numbers.append(path)
    if not numbers:
        return None
    path = rng.choice(numbers)
    root, node = _copied(doc, path)
    node[path[-1]] = rng.choice(HUGE_VALUES)
    return root, path, node[path[-1]]


def _damage(rng, data):
    """``data`` truncated, emptied or made invalid UTF-8."""
    cut = rng.randrange(len(data) + 1)
    return rng.choice([data[:cut], b"", data[:cut] + b"\xff\xfe" + data[cut:]])


# the options of which each taxonomy command takes exactly one
INPUT_OPTIONS = {"build": ["--atoms", "--decls"], "filter": ["--atoms", "--decls"],
                 "pseudo-label": ["--atoms", "--decls"],
                 "export-matrix": ["--atoms", "--decls", "--in"]}


def _misuse_inputs(rng, argv):
    """``argv`` with its input option dropped, or with a second one added."""
    options = INPUT_OPTIONS[argv[0]]
    k = next(i for i, a in enumerate(argv) if a in options)
    if rng.random() < 0.5:
        return argv[:k] + argv[k + 2:]
    return argv + [rng.choice([o for o in options if o != argv[k]]), argv[k + 1]]


def _fuzz_cases(tmp_path, path):
    """The seeded cases of the fuzz tests, in order: (bytes to write to
    ``path``, argv, the exit codes allowed, the change) per case.  The
    change is None for an input left as it was or damaged, else (the
    document's kind, the key path of the changed node, its new value),
    the kind being "lines" for a file of one item per line."""
    rng = random.Random(2024)
    misuse = random.Random(7)  # its own stream, so that rng draws the same cases
    huge = random.Random(11)  # likewise
    for cases, doc, values, render, commands in _fuzz_inputs(tmp_path):
        kind = "lines" if isinstance(doc, list) else "json"
        for _ in range(cases):
            change = None
            if rng.random() < 0.85:
                mutated, key_path, value = _mutation(rng, doc, values)
                change = (kind, key_path, value)
            data = render(mutated if change else doc)
            if rng.random() < 0.2:
                data, change = _damage(rng, data), None
            argv = [str(path) if a == "FUZZ" else a for a in rng.choice(commands)]
            if argv[0] not in ("check", "toy-train") and rng.random() < 0.05:
                argv[argv.index("--out") + 1] = str(tmp_path)  # a directory
            codes = (0, 1, 2)
            if argv[0] in INPUT_OPTIONS and misuse.random() < 0.1:
                argv, codes = _misuse_inputs(misuse, argv), (2,)
            yield data, argv, codes, change
        for _ in range(cases // 4):
            enlarged = _enlarge(huge, doc)
            if enlarged is None:
                break
            argv = [str(path) if a == "FUZZ" else a for a in huge.choice(commands)]
            yield render(enlarged[0]), argv, (0, 1, 2), (kind, *enlarged[1:])


def test_mutated_inputs_exit_cleanly(tmp_path, capsys):
    path = tmp_path / "fuzz"
    for data, argv, codes, _ in _fuzz_cases(tmp_path, path):
        path.write_bytes(data)
        try:
            code = run(argv)
        except Exception as exc:
            pytest.fail(f"{argv} on {data[:300]!r} raised {exc!r}")
        err = capsys.readouterr().err
        assert code in codes and "Traceback" not in err, (argv, data[:300], err)


# Fields that refer to a dataset class: a class renamed or dropped is
# reported where the reference to it no longer resolves, in a model's
# output space or a taxonomy's signatures.  The signature check names the
# pair it cannot resolve, which holds the class's old name.
CLASS_REFERENCES = ("'space", "signature'")


def _names_the_change(err, kind, key_path, value):
    """Whether the message ``err``, stripped of file paths, names the
    changed node: its line, for a file of one item per line; otherwise a
    key on its path as a whole token, its new value (a string only as its
    repr or JSON text, so quoted), or a field that refers to the class it
    lies in."""
    if kind == "lines":
        return f"line {key_path[0] + 1}:" in err
    if any(isinstance(key, str) and re.search(rf"(?<![\w-]){re.escape(key)}(?![\w-])", err)
           for key in key_path):
        return True
    if value is not DROPPED:
        texts = {repr(value), json.dumps(value)}
        if not isinstance(value, str):
            texts.add(str(value))
        if any(text in err for text in texts):
            return True
    return "classes" in key_path and any(ref in err for ref in CLASS_REFERENCES)


def test_mutated_inputs_name_the_file_and_the_field(tmp_path, capsys):
    """The fuzz cases of test_mutated_inputs_exit_cleanly: every exit 1
    names the changed file, and then the changed field or value (its line,
    for a file of lines), or for a damaged file where its text breaks.

    A file that passes its own checks but disagrees with another input is
    reported against the input read against it: a pseudo-label record that
    names a class the --atoms collection lacks names the records file and
    its line, a model whose space is not the problem's names model.json
    and the problem file.
    """
    path = tmp_path / "fuzz"
    exits = 0
    for data, argv, _, change in _fuzz_cases(tmp_path, path):
        path.write_bytes(data)
        if run(argv) != 1:
            capsys.readouterr()
            continue
        exits += 1
        err = capsys.readouterr().err
        named = str(path) in err
        if not named and argv[0] == "pseudo-label":
            records = argv[argv.index("--in") + 1]
            named = re.search(rf"{re.escape(records)}: line \d+: ", err) is not None
        assert named, (argv, data[:300], err)
        bare = err.replace(str(tmp_path), "")
        if change is None:
            assert re.search(r"\b(line|byte) \d+", bare), (argv, data[:300], err)
        else:
            assert _names_the_change(bare, *change), (argv, change, err)
    assert exits > 300


def test_mutated_records_name_the_file_and_the_line(tmp_path, capsys):
    rng = random.Random(2026)
    atoms = write_json(tmp_path / "vehicles.json", problems.vehicle_mini_collection())
    path = tmp_path / "records.jsonl"
    argv = ["pseudo-label", "--atoms", atoms, "--in", str(path),
            "--out", str(tmp_path / "out.jsonl")]
    # Vistas car has three candidates, the others two; the first and last
    # records carry a posterior of their own dataset
    records = [{"sample_id": "s1", "gt_dataset": "Vistas", "gt_class": "car",
                "foreign": {"VIPER": {"truck": 1.0}, "ADE20k": {"van": 1.0},
                            "Vistas": {"car": 1.0}}},
               {"gt_dataset": "VIPER", "gt_class": "truck", "foreign": {"Vistas": {"car": 1.0}}},
               {"sample_id": 3, "gt_dataset": "ADE20k", "gt_class": "van",
                "foreign": {"VIPER": {"truck": 1.0}, "ADE20k": {"van": 1}}}]
    codes = []
    for _ in range(150):
        doc = _mutation(rng, records, FUZZ_VALUES)[0] if rng.random() < 0.9 else records
        data = _as_lines(doc, json.dumps)
        if rng.random() < 0.2:
            data = _damage(rng, data)
        path.write_bytes(data)
        try:
            code = run(argv)
        except Exception as exc:
            pytest.fail(f"pseudo-label on {data!r} raised {exc!r}")
        err = capsys.readouterr().err
        assert code in (0, 1) and "Traceback" not in err, (data, err)
        if code == 1:
            assert re.fullmatch(rf"error: {re.escape(str(path))}: "
                                r"(line \d+: .+|not UTF-8 text \(byte \d+\))\n", err), (data, err)
        codes.append(code)
    assert 0 in codes and 1 in codes
