"""Golden sha256 digests of CLI outputs.

The label-space commands (build from a collection or from declarations,
filter, export-matrix, pseudo-label) and the inference commands (eval,
surface) must keep writing these exact bytes.  The models are seeded and
untrained, written by ``save_model``, so the bytes depend only on the
label-space and inference code, not on training numerics.

Trained outputs (toy-train, then eval and surface of its model) depend on
the training numerics too, whose bits differ between OpenBLAS kernels;
their digests are kept per kernel, each computed in a process of its own.
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

from openblas_kernels import KERNELS, run_on_kernel

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


TRAINED_PROBLEMS = {
    "collapse": problems.collapse_problem,
    "cross-eval": problems.cross_eval_problem,
    "intersection": problems.intersection_problem,
    "two-split": problems.two_split_problem,
}
TRAINED_EPOCHS = "40"
TRAINED_GRID = "--grid=-3,3,-2.5,2.5,57,43"


def render_trained(tmp_path):
    """{"problem/mode": digest} for every mode on every TRAINED_PROBLEMS
    problem: one sha256 over the named digests of what toy-train writes
    (model.json, report.json, trace.csv) at TRAINED_EPOCHS, of eval of that
    model on each dataset, and of its surface on TRAINED_GRID."""
    out = {}
    for name, problem in TRAINED_PROBLEMS.items():
        data = problem()
        spec = _write(tmp_path / f"{name}.json", data)
        for mode in MODES:
            run_dir = tmp_path / name / mode
            model = str(run_dir / "model.json")
            assert run(["toy-train", "--spec", spec, "--mode", mode, "--epochs", TRAINED_EPOCHS,
                        "--out", str(run_dir)]) == 0
            for ds in data["datasets"]:
                assert run(["eval", "--model", model, "--spec", spec, "--dataset", ds["name"],
                            "--out", str(run_dir / f"eval-{ds['name']}.json")]) == 0
            assert run(["surface", "--model", model, TRAINED_GRID,
                        "--out", str(run_dir / "surface.csv")]) == 0
            digests = "".join(f"{path.name} {_digest(path)}\n"
                              for path in sorted(run_dir.iterdir()))
            out[f"{name}/{mode}"] = hashlib.sha256(digests.encode()).hexdigest()
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


# toy-train, eval and surface digests by the OpenBLAS kernel that trained the
# models (render_trained)
GOLDEN_TRAINED = {
    "SkylakeX": {
        "collapse/naive-concat":
            "6d1c457085a075ea4f58761fc1b01a71c69db641d22cfeb8336628100f3d1eba",
        "collapse/oracle":
            "00dece28914f15d46d7cc67acc0644a60d49dcc0798b0a534906928178c2f7f2",
        "collapse/partial-merge":
            "c39e2a3ba738ba0b87ebc7a2c01ea81aa39de6c40cd9cbb6cfa3d89e7a5ed848",
        "collapse/per-dataset-heads":
            "ab7cc8ba32c772852dd2db9e10dc45868228395016ff27729a960507722772aa",
        "collapse/universal-nll-max":
            "a6f06472d8726bd1ad4d5d63135d983f251bdbbc5a73373abf62e16a45bf14fc",
        "collapse/universal-nll-plus":
            "6f13f3b3aaff86b57225f72485804247fbc161a94e88e1565189a25d4c3c3616",
        "cross-eval/naive-concat":
            "fa2358f3e8178d6640b5acd746043b31ffe9013b97654af279140d234d07d470",
        "cross-eval/oracle":
            "2536358ed20267a65b1670799e2c85f28783d1e2e7d130c7e60986fd88eb38be",
        "cross-eval/partial-merge":
            "9a00fed0f7a5857d4097312f3301cc0fc27f1b2c8c5031ee7d9ff2f78cf634bd",
        "cross-eval/per-dataset-heads":
            "e80334f2164330b11a3e6b562b999d14e4d910d4b646e83b9430e4018a65e120",
        "cross-eval/universal-nll-max":
            "f093f9577e0affb7e4dc259fe8ce5690b53ea522db7a489ade592b9e47bcc0ea",
        "cross-eval/universal-nll-plus":
            "9e4c2533b19b9c57df90287530202c28f63f267002228b6cf99d545b40f74a23",
        "intersection/naive-concat":
            "e7632963537bd8c72675b000cccffa3d2f939ecc7d900642c6a5399bd20d5c3d",
        "intersection/oracle":
            "a238e75b57ae0e449285fdaf0bcc5d6f5dc63982bb9024ab231535209ab01ba6",
        "intersection/partial-merge":
            "d9a0ec239b16ea1198658d7f4c467c340878b9fd6c0e1bf688ac5f64aa28882e",
        "intersection/per-dataset-heads":
            "624086186b9843cb076d74134f9af7b98062a0c19b7d2bda273d4e4d9829fe7e",
        "intersection/universal-nll-max":
            "b3e184ae2dc9fd8deb98d609a621bb3aee15020beeb47a053a2103da4867eb64",
        "intersection/universal-nll-plus":
            "32122f117d5896159110e8ec584a4d10dfbc29389df75ccd610e57fd8fb20c26",
        "two-split/naive-concat":
            "d3f661f171dd0d012769ef9a7807f00f1066d832a12aef6ef9be7f70c06f7cec",
        "two-split/oracle":
            "d3bcb2c110ca95d52c01a52ea946d9f1738e286b83150616e5fc3ae8d37e28ef",
        "two-split/partial-merge":
            "919c8d92f62d07c4713eeae4327430fb818ed144d6d2b41088c63ced62fabb2b",
        "two-split/per-dataset-heads":
            "9abbdd4cc40e0a95485394666d21bacb4ef17ea1c291c2715bcfc3a2e9617f6f",
        "two-split/universal-nll-max":
            "e5824d43f72cba36b3137ad1de2790f4d3cd8adb8813055f93e2502393b5ec43",
        "two-split/universal-nll-plus":
            "60713b3984f10d6566ae5245e91497612c66f6d933aeae5d5d5f66a06d61059e",
    },
    "Haswell": {
        "collapse/naive-concat":
            "8ae11ecb5ebfd7e7a0bbd911ceceb4d439c04802192eb72d1accd856a04af6dc",
        "collapse/oracle":
            "f6013cacb1d587081c0c23fd345380f583e0d0d3edb40fdf128c2602282ef033",
        "collapse/partial-merge":
            "60d8d3623a07abd48f40cce0918d6187e4ae8d83a3ba3b5aaac19770e7f27316",
        "collapse/per-dataset-heads":
            "a634040c05301ffb115a0f3d2a138e89b746d4b9bf1f93932cc6305d7957d0ef",
        "collapse/universal-nll-max":
            "5deb5c7e3c9e4690834f81dfd7fb76975363bf57a8f6c3a7e38b27855eeff640",
        "collapse/universal-nll-plus":
            "84e5330e726df96dab7cf91e3bdc4f02c2a5550e9e727e97528d170dabd7c4f7",
        "cross-eval/naive-concat":
            "28a70a565d9c963e2b91ea3f0667b7c18ada7944cc96957b9064784247f25622",
        "cross-eval/oracle":
            "4a8e9e4b7b5f01af788468448ada5df288da9b78d4352529581410fb890e844a",
        "cross-eval/partial-merge":
            "47d2779cacc4ac8350859d020e09f31757be8e51fc825e86987e7e2d9dc378d1",
        "cross-eval/per-dataset-heads":
            "2215147e7070626d006675102d16af51ba01e967b22b43049ed3673d2eef67e8",
        "cross-eval/universal-nll-max":
            "2b76dff4df6c955e58a471656ee87da0b400a46819662fc6e052667cf096d880",
        "cross-eval/universal-nll-plus":
            "2a0f87493deb74becabdc3aaca99018e20f1c1461c0ce3ce381a0f30247f8694",
        "intersection/naive-concat":
            "abe48ca7c9e0dfdd70ae82f89086fd4c6d1f015087773cd994b8cbc666607e5d",
        "intersection/oracle":
            "53a2fbe051a6cdbba309838d291980f00642c69854c6138bcc741ddcc14eeb14",
        "intersection/partial-merge":
            "61634591467271cd505145e9454eb0c70ca777564c628259057b8a861b153ad4",
        "intersection/per-dataset-heads":
            "9fd9f0d0b12b0a3c35a6f8f51ef770f08070ec41184d5f57c993473c559e34c2",
        "intersection/universal-nll-max":
            "1f160764b1bc2aca3e5338976f6831e14ebab93e79c39995d9defb162cbadd5d",
        "intersection/universal-nll-plus":
            "b8b0be89b05c23b381aaa39831114a080eeb81d19fe77cba4ad1d658279e7043",
        "two-split/naive-concat":
            "8bba23e010715373cee99cc16cd6c06fe272d23eb9345e1e92e2f4f82b93d6cc",
        "two-split/oracle":
            "a8515edab12fad2e7368b034d213062110affda7a3c862977c04feb245a660b6",
        "two-split/partial-merge":
            "ae70d57ab4aba2ed43fc6c9bf3d7b069f289b85af45516a65f810da987b180ab",
        "two-split/per-dataset-heads":
            "72f034528e56c8fef05a6175819d5ee287143bf9df21d58b0388c9cf0e39e588",
        "two-split/universal-nll-max":
            "1450643e82e72bcdb95b5bc3ed0bc31a6b3fbb985fece9925b821dac111f249c",
        "two-split/universal-nll-plus":
            "31118d3b4ac92765c9f6b7ca95955d2a8a6262a2f90cc1407ae55c3c467dfba2",
    },
    "Sandybridge": {
        "collapse/naive-concat":
            "975768a6439435c137ab074efb9a0f51537f722f566e522a8f6ef7237a83d951",
        "collapse/oracle":
            "d39f60779fac96fc7252d22486cec10b2352f3590ca848b77946eea3897f81b2",
        "collapse/partial-merge":
            "014c570f43926dbb479694f9a318b809e1bf251d6b8b18780ed35dadf3cb41ca",
        "collapse/per-dataset-heads":
            "32442acfcd8bce660863e554898175d9cc868164e399ac4d42fe2b025b60bdf0",
        "collapse/universal-nll-max":
            "5dcd2e827f7bb19e645e4b8cd7a28a664cc2e343ffb38707ba0f4d016eca250a",
        "collapse/universal-nll-plus":
            "cf43432ce986e4cd3567d9a98e860ba5c7fcf5b00b95d99878e4f09588c6d880",
        "cross-eval/naive-concat":
            "bc80c30ecd34db84bedee7f5afa399d320cda3d8a6eb68b5c0d3781e506481c8",
        "cross-eval/oracle":
            "e1bee3cad1c19bd0cfe17383d2f6ed4a305e39888b1b23561eef9415cb892089",
        "cross-eval/partial-merge":
            "d9350737c31a236bc61a513a21932d4a537d2bd3cf324966d740c6583c0e0d96",
        "cross-eval/per-dataset-heads":
            "6a3ec06083f2f7006feaee445edad67ad13dbda60f7507eb0bc727bcfffe1849",
        "cross-eval/universal-nll-max":
            "4f09da411eef7cc52e0a637b3f8071d00b472ad8ed67ba2ae3847518688f575c",
        "cross-eval/universal-nll-plus":
            "c6b689572c3d34c3a0cfe3c66ba504c6b692c445000c804491320461c6d66bc0",
        "intersection/naive-concat":
            "54e20fe2b9e0977c6f014a95b14c6d2f4b72e68f8e73117e55e14d58fa2a306e",
        "intersection/oracle":
            "ab88ae90eb76829783cc626daab8d18ef4484a5c758fd28e2f74715367eac63d",
        "intersection/partial-merge":
            "2b33ceb37c9563085ac160be7d7b81043837b7d56ddc4fd90b8c97f6ad589c81",
        "intersection/per-dataset-heads":
            "4247c1b6ab7293df1230bc4001a334acc74c6fa37873c88d555e06a20bfcdee5",
        "intersection/universal-nll-max":
            "6c875b86f5a22aab99857e0c58433ad69ff635305dcd48362fb0208e3c38bcd2",
        "intersection/universal-nll-plus":
            "211ef8a47168f8e87d36d478c0f0648366a72810e79ea5468fdbedccbc96e88d",
        "two-split/naive-concat":
            "f36783877d59f1eb09686415924afe274ab6f2a48dfbde15d5449cba77e87866",
        "two-split/oracle":
            "31b46215615f635d5064cba6ac0bbdb75473b17d861057598b0f04031a518621",
        "two-split/partial-merge":
            "ca65071116cfdb9dff90c3eef1a941f84eaa75cea252f47d557faebba08f8313",
        "two-split/per-dataset-heads":
            "09881a661ed08b57e6245a848ff21e59c140adc43299257e7450e07eccc294b4",
        "two-split/universal-nll-max":
            "7eaf0efa531604bbaee551c878be571027dd19b3f1710f9a9755095312fab21f",
        "two-split/universal-nll-plus":
            "0dbf6413df6eb429a1cc2d44bad0d2dbd4710998da8dcf90e0cc0118a61ae56a",
    },
    "Nehalem": {
        "collapse/naive-concat":
            "56f7ded52d896c4ad386dddea1c30c083f545c70b909752d933e55876b778916",
        "collapse/oracle":
            "6e303f308629e107a34774533f62ea7953c927a8e69df90a72548b3dae173633",
        "collapse/partial-merge":
            "fabb55933a4c14f2a7c58c4e1be4b90956f4142adb57b75f18d4df7c6c807a5d",
        "collapse/per-dataset-heads":
            "e60858a2c33116ed0f84e26ac2294c37dba4a2d1a3025aaddce254f404266e3e",
        "collapse/universal-nll-max":
            "8f0466234819725bd0f37bdaa184a927f591e480495326c1bc49c2947dffc6b9",
        "collapse/universal-nll-plus":
            "9c403560aed8231586b347e5814288f4f1953012c01d48c062a340950e4c24b4",
        "cross-eval/naive-concat":
            "79f648c8570518c306d756183e893d8878fadc0c862c3ef32e3941ca94c27450",
        "cross-eval/oracle":
            "8e419501ec2e895896619e7a8f418c751266bbeb2d81fdc4f6648f556f9a2b93",
        "cross-eval/partial-merge":
            "0bdc9a94feabbe7b9685294baebc819c6ef9c5dd587bd21bd6d6c9f0bfaccd86",
        "cross-eval/per-dataset-heads":
            "a4a77d1bcd629778740726f914d6d7d2c473a3a375681df34e7b5d2ce2df17a6",
        "cross-eval/universal-nll-max":
            "2743f6fb2cf8faee5683fccda6211d58fb60a4086c3a4f1032b77b6a5520527c",
        "cross-eval/universal-nll-plus":
            "01aff01bea691b1d81edfaed72f45f0ae2cee162772a61a4bf86c5987f01297d",
        "intersection/naive-concat":
            "b32bbe0ddfcf25bf96289be33d8d31dbdcc10e862960ffd3260bba8f3babe376",
        "intersection/oracle":
            "93c075173aeafe6df9421206030e9c130aaa4e47338239a6cd32a8f9a02a68f4",
        "intersection/partial-merge":
            "a7ca84b2b04bb9a4d3434f28c1a89e9740fc9b8b3de9b99a68798246b022e71c",
        "intersection/per-dataset-heads":
            "0db7b43ce73283c800c82ccc9a3e78a96e9a15a4377f63b8a21c40c9c5f60a3f",
        "intersection/universal-nll-max":
            "3e996caddb588bdd198e275bc4f2a0e389c003e10c225bcfbab8373d45f1f860",
        "intersection/universal-nll-plus":
            "b95143cec77fa63dc6fd05ababf204e93a2386e2b9eafad6662aaf28fd5b7165",
        "two-split/naive-concat":
            "39116b5a65ed36ce7e9b0a7dc7fa0e01bda46716025d2a679a719931587b4bd8",
        "two-split/oracle":
            "6e40ec6ec90dad23c7ebb612817fad85f0498982b8a0018dce946d565a2c687c",
        "two-split/partial-merge":
            "5b1668e732347805942fd9f5a78374fe78fadd1718347f3994ab496af27983ae",
        "two-split/per-dataset-heads":
            "957d8f1f4223a64ccad6283a520e2fb3e5744f9e9b5de4dea30ed2db37272619",
        "two-split/universal-nll-max":
            "290d488c8e11a26f1c7c38ee71f3418bf47f79839e47f1877b98e4519672f16e",
        "two-split/universal-nll-plus":
            "1440fd4318140c3426b67bad63c4acfc1908c375d19a752b40363aa84110f957",
    },
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


@pytest.mark.parametrize("kernel", KERNELS)
def test_trained_outputs_are_golden_on_every_openblas_kernel(tmp_path, kernel):
    done = run_on_kernel(kernel, "import json, pathlib, test_golden\n"
                                 f"print(json.dumps(test_golden.render_trained("
                                 f"pathlib.Path({str(tmp_path)!r}))))\n")
    assert done.returncode == 0, done.stderr
    got, want = json.loads(done.stdout), GOLDEN_TRAINED[kernel]
    assert got == want, sorted(key for key in want if got.get(key) != want[key])
