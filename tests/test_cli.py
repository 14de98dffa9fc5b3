import json

import pytest

from unitax import problems
from unitax.cli import run


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
    (lambda p: _concept(p, center=[0, 1], std=1), None),  # ints are numbers
], ids=["no-concepts", "no-std", "std-string", "std-nan", "center-3", "center-int",
        "center-nan", "seed-string", "count-string", "int-numbers"])
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
    cases = [(bad_signature, "universal[0]"), (bad_id, "universal[1].id"),
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
