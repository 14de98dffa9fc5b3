"""Golden sha256 digests of CLI outputs.

The label-space commands (build from a collection or from declarations,
filter, export-matrix, pseudo-label) and the inference commands (eval,
surface) must keep writing these exact bytes.  The models are seeded and
untrained, written by ``save_model``, so the bytes depend only on the
label-space and inference code, not on training numerics.
"""

import hashlib
import json
import random

import pytest

from unitax import problems
from unitax.cli import run
from unitax.mlp import MlpModel
from unitax.rng import SplitMix64
from unitax.toyproblem import problem_from_dict
from unitax.training import HIDDEN, MODES, TrainResult, build_space, save_model

COLLECTIONS = {
    "vehicles": problems.vehicle_mini_collection,
    "two-split": problems.two_split_problem,
}
PROBLEMS = {
    "cross-eval": problems.cross_eval_problem,
    "two-split": problems.two_split_problem,
}
GRID = "--grid=-3,3,-2.5,2.5,9,7"

# Every statement kind; the later statements substitute atoms inside
# classes that already hold several.
DECLARATIONS = """\
dataset WD: sky road car truck
dataset City: sky road vehicle
equiv WD.sky City.sky
equiv ADE.road City.road
subset WD.car City.vehicle
subset WD.truck City.vehicle
overlap WD.truck ADE.truck name=pickup
equiv ADE.car WD.car
"""

VEHICLE_CLASSES = {"VIPER": "truck", "Vistas": "car", "ADE20k": "van"}


def vehicle_records():
    """Each vehicles class as ground truth under every set of foreign
    datasets (its own included, which the ensemble skips), and one record
    without a sample id."""
    return [
        {"sample_id": f"{gt}-{mask}", "gt_dataset": gt, "gt_class": VEHICLE_CLASSES[gt],
         "foreign": {ds: {cls: 1.0} for d, (ds, cls) in enumerate(VEHICLE_CLASSES.items())
                     if mask >> d & 1}}
        for gt in VEHICLE_CLASSES for mask in range(8)
    ] + [{"gt_dataset": "Vistas", "gt_class": "car"}]


def two_split_records():
    """Each class of one split as ground truth, with a seeded posterior
    over the classes of the other split, three times."""
    classes = {ds["name"]: [c["name"] for c in ds["classes"]]
               for ds in problems.two_split_problem()["datasets"]}
    rng = random.Random(0)
    records = []
    for gt, other in (("CityA", "CityB"), ("CityB", "CityA")):
        for name in classes[gt] * 3:
            weights = [rng.randint(0, 9) for _ in classes[other]]
            weights[rng.randrange(len(weights))] += 1
            posterior = {c: w / sum(weights) for c, w in zip(classes[other], weights)}
            records.append({"sample_id": len(records), "gt_dataset": gt, "gt_class": name,
                            "foreign": {other: posterior}})
    return records


PSEUDO_LABEL_INPUTS = {
    "vehicles": (problems.vehicle_mini_collection, vehicle_records),
    "two-split": (problems.two_split_problem, two_split_records),
}


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write(path, data):
    path.write_text(json.dumps(data) + "\n")
    return str(path)


def render_label_space(tmp_path, name):
    data = COLLECTIONS[name]()
    source = _write(tmp_path / "collection.json",
                    {"atoms": data["atoms"], "datasets": data["datasets"]})
    out = {}
    for command in ("build", "filter"):
        path = tmp_path / f"{command}.json"
        assert run([command, "--atoms", source, "--out", str(path)]) == 0
        out[command] = _digest(path)
    for ds in data["datasets"]:
        for void in (False, True):
            path = tmp_path / f"matrix-{ds['name']}-{int(void)}.csv"
            argv = ["export-matrix", "--atoms", source, "--dataset", ds["name"],
                    "--out", str(path)]
            assert run(argv + (["--include-void"] if void else [])) == 0
            out[path.stem] = _digest(path)
    return out


def render_declarations(tmp_path):
    decls = tmp_path / "program.decl"
    decls.write_text(DECLARATIONS)
    path = tmp_path / "build.json"
    assert run(["build", "--decls", str(decls), "--out", str(path)]) == 0
    return _digest(path)


def render_pseudo_labels(tmp_path, name):
    collection, records = PSEUDO_LABEL_INPUTS[name]
    data = collection()
    atoms = _write(tmp_path / "collection.json",
                   {"atoms": data["atoms"], "datasets": data["datasets"]})
    lines = [json.dumps(r) for r in records()]
    path = tmp_path / "records.jsonl"
    path.write_text("\n".join(lines[:3] + [""] + lines[3:]) + "\n")  # one blank line
    out = tmp_path / "labels.jsonl"
    assert run(["pseudo-label", "--atoms", atoms, "--in", str(path), "--out", str(out)]) == 0
    return _digest(out)


def _write_model(tmp_path, name, mode):
    """(spec, problem path, space, model path) of the seeded untrained
    model of ``mode`` on problem ``name``."""
    problem = PROBLEMS[name]()
    spec_path = _write(tmp_path / "problem.json", problem)
    spec, tax, _ = problem_from_dict(problem)
    space = build_space(mode, spec.collection, tax)
    model = MlpModel([2, *HIDDEN, space.k], SplitMix64(7))
    model_path = tmp_path / "model.json"
    save_model(model_path, TrainResult(model, space, []))
    return spec, spec_path, space, model_path


def render_surface(tmp_path, model_path, grid):
    path = tmp_path / "surface.csv"
    assert run(["surface", "--model", str(model_path), grid, "--out", str(path)]) == 0
    return _digest(path)


def render_model(tmp_path, name, mode):
    spec, spec_path, space, model_path = _write_model(tmp_path, name, mode)
    out = {"surface": render_surface(tmp_path, model_path, GRID)}
    for ds in spec.collection.datasets:
        for post in ((False, True) if space.entries else (False,)):
            path = tmp_path / f"eval-{ds.name}-{int(post)}.json"
            argv = ["eval", "--model", str(model_path), "--spec", spec_path,
                    "--dataset", ds.name, "--out", str(path)]
            assert run(argv + (["--post-inference"] if post else [])) == 0
            out[path.stem] = _digest(path)
    return out


GOLDEN_LABEL_SPACE = {
    "two-split": {
        "build":
            "3a3f51e5542f79facb568fb509a9f96af65bae23a1e977416641b750592fefd3",
        "filter":
            "20b29a31d6b80a4dd55cd2b2f2ea9d8d93284b72ee13e95688af01de597f4edc",
        "matrix-CityA-0":
            "56667ef461808774131f8ec859652a0d8ee1124efd8ef5debefcdc36f893c00d",
        "matrix-CityA-1":
            "7927216477ee1539614c4c96970ca0d31b1511e53601277b9652ede6cba7db09",
        "matrix-CityB-0":
            "5edc2c78ca9031caf719c15a7360bf4f4db4b404283e7936b3257178101b41d8",
        "matrix-CityB-1":
            "8f5dcf623970240c46b2f8592aec4323597b9e75330dc96cd3f16218a1986ab4",
    },
    "vehicles": {
        "build":
            "17edbec7f768a08d92b8290a94cc16ade2c73848d33f87149030f315b4abe0e4",
        "filter":
            "53f69fe560397c1bc5809497e728378281be8f6e8c5e0891a8d913019de4c828",
        "matrix-ADE20k-0":
            "2f8286638e4c3a250a02e05178a84b49c1ead64902a689b624c559271094b6a4",
        "matrix-ADE20k-1":
            "8141f9e83779ebe3fd1340395020863f13d5660904c92cbe74b99964bf2617f2",
        "matrix-VIPER-0":
            "48d8986a4e9c003b5ea2dc838556f915da80ed03e4a4d25c01c3e2b4952db483",
        "matrix-VIPER-1":
            "6fec0f1f176ccca37da42e5a570f771de62775bc5daa2d88fd826418c863999b",
        "matrix-Vistas-0":
            "fa4a8ad1089e0c5c192350e98bb3e7f28ee5410f25b60f33e1dfcbe1c1236f75",
        "matrix-Vistas-1":
            "16bc6558cd3f5247cb865eb4fc686c420619607162a4d39cecc82ba44e8871a5",
    },
}

GOLDEN_DECLARATIONS = "ab1361ac0e282553042195440592ed0dcef22a08c9b7b350527e2c978187e75b"

GOLDEN_PSEUDO_LABELS = {
    "two-split": "95929c37fe3afa4fb295a6271387c07f78582ada7ba571ef12edfd51d9ef5b23",
    "vehicles": "c5e18277b74565b820c97a7f5e58617f9520607359a4a00ec2eb5434a9142db4",
}

GOLDEN_MODELS = {
    ("cross-eval", "naive-concat"): {
        "eval-D1-0":
            "5a6b7b7e413bd87addd86988adf13115a70507b70e5d083580f375cb1f78d829",
        "eval-D1-1":
            "817c5c61cb299234a4323f26209908f87e3d0fff8d62eb33b2fe68ecb9c23890",
        "eval-D2-0":
            "b56a9b678330708517304763b6d80a54175ff2a05618dbc0cd263ee34757dc47",
        "eval-D2-1":
            "58295ac2f55b0a4235536f0009341aa22e474c32ad5f0a0b8cf00bb8f6404f85",
        "surface":
            "e5b456487fb38e13343022eed7d784541576a3064c74814441771f5ccc53455a",
    },
    ("cross-eval", "oracle"): {
        "eval-D1-0":
            "aa9bdf9e9992b3f0768edb389733eb4893f7643ced3f2ebb35961876993bbc9f",
        "eval-D2-0":
            "dc96765bbcb5ae3e31b237a660126474079407a014fc8fe175529dd602dca4f6",
        "surface":
            "06a12260ce188283553d21e80e09511eed5831258343fb71b5691e2bb68cc61e",
    },
    ("cross-eval", "partial-merge"): {
        "eval-D1-0":
            "06dbeb41b24fa8e7351382ea313d91062807dbbdc5df77c611b5d5e73ba536b3",
        "eval-D1-1":
            "e8dfd35f8c814819427ad37181eab7eac27df5f5d638f7626d57ac930fd2b639",
        "eval-D2-0":
            "0253623577e4309fcf8d6e055299a4056832b5db93f927137c8faf4f66189972",
        "eval-D2-1":
            "c153b87c6d4c6bf4d66be719b12c9446ffab68666994cd8358db920f9e2c8d03",
        "surface":
            "ba01ca86e1532cd6cf2786ca1be429812d12240a5e3bd356f0df6b6746d42687",
    },
    ("cross-eval", "per-dataset-heads"): {
        "eval-D1-0":
            "34f5a98aa9fe73aa134387eba6d5fe49137fe987b4f821e2644a3012a596d775",
        "eval-D1-1":
            "25b2b441f76af4b6d762d460c48e6ca92b8166e2ddc65a097964ceba3376f962",
        "eval-D2-0":
            "ec630e887cfee303c89f999d86bb9869ee6769b31e8f9e81c787902140a0d8c6",
        "eval-D2-1":
            "61b4f5ac6367eab13805578eb166b724b1f2a1e12a329a2484830c943ff13634",
        "surface":
            "9863fd269c777f1fb1af1cadc8cb310f1e54bc468f08ff856a2c3f20304ac6bf",
    },
    ("cross-eval", "universal-nll-max"): {
        "eval-D1-0":
            "aa9bdf9e9992b3f0768edb389733eb4893f7643ced3f2ebb35961876993bbc9f",
        "eval-D2-0":
            "dc96765bbcb5ae3e31b237a660126474079407a014fc8fe175529dd602dca4f6",
        "surface":
            "06a12260ce188283553d21e80e09511eed5831258343fb71b5691e2bb68cc61e",
    },
    ("cross-eval", "universal-nll-plus"): {
        "eval-D1-0":
            "aa9bdf9e9992b3f0768edb389733eb4893f7643ced3f2ebb35961876993bbc9f",
        "eval-D2-0":
            "dc96765bbcb5ae3e31b237a660126474079407a014fc8fe175529dd602dca4f6",
        "surface":
            "06a12260ce188283553d21e80e09511eed5831258343fb71b5691e2bb68cc61e",
    },
    ("two-split", "naive-concat"): {
        "eval-CityA-0":
            "c144ce7e51a4c9fec4268fc3e962a5c8a3684e9c4785c3e2816b57c2fc52c9cd",
        "eval-CityA-1":
            "d4bc40aa52a5d2d4bd7e124d34dfa93a0a08419871f7509d24c18f51d560005f",
        "eval-CityB-0":
            "014b75f20265a4f87352971b0152ae19ab4fefd3fc2c65cf7d1a1c8a8a8bbe54",
        "eval-CityB-1":
            "02c2e4680c7d29fe001193c07c813c49529aa0c61ff3b5ac0bd0fbeafb4a9245",
        "surface":
            "139b7e89a5fcc906b4bef73cd3f5575688149f20dccc5db6c53cd067d2ade642",
    },
    ("two-split", "oracle"): {
        "eval-CityA-0":
            "4b0690e5197d7715ffbbf079a3b53e8940ff82c7d56943d4b249f2700ce0670b",
        "eval-CityB-0":
            "04b09920d83b16be4110e540095f118f98db4ebb2abdd788a44b1e24be03ccc2",
        "surface":
            "a9fd7874c37ba320eadc5cb3217a2287694c36e7254305aba786fde442a637aa",
    },
    ("two-split", "partial-merge"): {
        "eval-CityA-0":
            "21aba82524cc741e31ee10e0ec47c3a4a274c7d7712112638dd0d1ae97683508",
        "eval-CityA-1":
            "050c8ec7c3fed3931861a21b96fdbc9224090d8b74e10f649d367324cca48d39",
        "eval-CityB-0":
            "b105d7ae7e1fd32e5aeb1e2579ce69200800749749bc216e41c2999213890a7b",
        "eval-CityB-1":
            "603d156c72c314affc5a83ff847fcb405897fac37cbc2fe3c2a01e0f12917e64",
        "surface":
            "23577ce1971db6273759302c5c3744a6907c325110e05945761121bd9b8a3ad9",
    },
    ("two-split", "per-dataset-heads"): {
        "eval-CityA-0":
            "de0c08940415f6d642e1290706e23f3471a50a6ff2e3c6f17a789ec945247196",
        "eval-CityA-1":
            "18155e79fc58bf72dc5f653f7520136fc2e1b8c463d6d9c309ffa7c7b56d6479",
        "eval-CityB-0":
            "950b973538c653435e6195aa979204bd41fb347370ac30ae03d1df6e974fb3a8",
        "eval-CityB-1":
            "2ce890aaf6ddf59201dadc449e9875b54e2d6b69aea1cb06d2abebe05bf22928",
        "surface":
            "24fc2d00849c047f4db32d28c1f3e2bc743053fab6c57a99e7d68e10e28b3101",
    },
    ("two-split", "universal-nll-max"): {
        "eval-CityA-0":
            "4b0690e5197d7715ffbbf079a3b53e8940ff82c7d56943d4b249f2700ce0670b",
        "eval-CityB-0":
            "04b09920d83b16be4110e540095f118f98db4ebb2abdd788a44b1e24be03ccc2",
        "surface":
            "a9fd7874c37ba320eadc5cb3217a2287694c36e7254305aba786fde442a637aa",
    },
    ("two-split", "universal-nll-plus"): {
        "eval-CityA-0":
            "4b0690e5197d7715ffbbf079a3b53e8940ff82c7d56943d4b249f2700ce0670b",
        "eval-CityB-0":
            "04b09920d83b16be4110e540095f118f98db4ebb2abdd788a44b1e24be03ccc2",
        "surface":
            "a9fd7874c37ba320eadc5cb3217a2287694c36e7254305aba786fde442a637aa",
    },
}

# More grids for one model: a single point, and 173 x 91 points whose x axis
# ends at 1e-3, so that the coordinates print with long reprs.
GOLDEN_SURFACES = {
    "--grid=-3,3,-2.5,2.5,1,1":
        "dc627ee195d6d394908f01fc4efc16ecb09198293caf1aa41f80b96b3a9d93ab",
    "--grid=-3,0.001,-2.5,2.5,173,91":
        "4ee9d7e8162aae399b08eaafab101ca78d284bc5fd6c63229812f93b57752286",
}


@pytest.mark.parametrize("name", sorted(COLLECTIONS))
def test_label_space_outputs_are_golden(tmp_path, name):
    assert render_label_space(tmp_path, name) == GOLDEN_LABEL_SPACE[name]


def test_declaration_build_is_golden(tmp_path):
    assert render_declarations(tmp_path) == GOLDEN_DECLARATIONS


@pytest.mark.parametrize("name", sorted(PSEUDO_LABEL_INPUTS))
def test_pseudo_labels_are_golden(tmp_path, name):
    assert render_pseudo_labels(tmp_path, name) == GOLDEN_PSEUDO_LABELS[name]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_inference_outputs_are_golden(tmp_path, name, mode):
    assert render_model(tmp_path, name, mode) == GOLDEN_MODELS[name, mode]


@pytest.mark.parametrize("grid", sorted(GOLDEN_SURFACES))
def test_surface_grids_are_golden(tmp_path, grid):
    *_, model_path = _write_model(tmp_path, "two-split", "per-dataset-heads")
    assert render_surface(tmp_path, model_path, grid) == GOLDEN_SURFACES[grid]
