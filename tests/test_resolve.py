import copy
import hashlib
import json
import random

import pytest

from unitax import problems, resolve
from unitax.errors import (
    AmbiguousDeclaration,
    InconsistentDeclaration,
    ValidationError,
)
from unitax.resolve import (
    DeclarationProgram,
    ResolutionState,
    RuleApplication,
    Statement,
    WorkingClass,
    build_universal_from_declarations,
    fixpoint_partition,
    initial_state,
    parse_declarations,
    resolve_fixpoint,
    resolve_step,
)
from unitax.rng import SplitMix64
from unitax.taxonomy import (
    Relation,
    build_universal_from_atoms,
    classify_relation,
    collection_from_dict,
    taxonomy_to_dict,
)

from helpers import random_collection


# ---------------------------------------------------------------------------
# rule-based fixpoint


def test_rule1_merges_equal_classes():
    col = collection_from_dict({
        "atoms": ["sky"],
        "datasets": [
            {"name": "WD", "classes": [{"name": "sky", "atoms": ["sky"]}]},
            {"name": "City", "classes": [{"name": "sky", "atoms": ["sky"]}]},
        ],
    })
    state = initial_state(col)
    state, applied = resolve_step(state)
    assert applied is not None and applied.rule == 1
    assert resolve_step(state)[1] is None  # already at the fixpoint
    parts, mappings = fixpoint_partition(col)
    assert parts == {frozenset({0})}
    assert mappings[("WD", "sky")] == mappings[("City", "sky")]


def test_rule2_splits_superset():
    # KITTI car contains vans, ADE20k car does not
    col = collection_from_dict({
        "atoms": ["car", "van"],
        "datasets": [
            {"name": "KITTI", "classes": [{"name": "car", "atoms": ["car", "van"]}]},
            {"name": "ADE20k", "classes": [{"name": "car", "atoms": ["car"]}]},
        ],
    })
    state = initial_state(col)
    state, applied = resolve_step(state)
    assert applied.rule == 2
    parts, mappings = fixpoint_partition(col)
    assert sorted(parts, key=sorted) == [frozenset({0}), frozenset({1})]
    assert len(mappings[("KITTI", "car")]) == 2
    assert len(mappings[("ADE20k", "car")]) == 1
    assert set(mappings[("ADE20k", "car")]) <= set(mappings[("KITTI", "car")])


def test_rule3_replaces_overlap_with_three_parts():
    # VIPER truck has pickups, ADE20k truck has trailers
    col = collection_from_dict({
        "atoms": ["truck", "pickup", "trailer"],
        "datasets": [
            {"name": "VIPER", "classes": [{"name": "truck", "atoms": ["truck", "pickup"]}]},
            {"name": "ADE20k", "classes": [{"name": "truck", "atoms": ["truck", "trailer"]}]},
        ],
    })
    state = initial_state(col)
    state, applied = resolve_step(state)
    assert applied.rule == 3
    parts, mappings = fixpoint_partition(col)
    assert sorted(parts, key=sorted) == [
        frozenset({0}), frozenset({1}), frozenset({2}),
    ]
    viper = set(mappings[("VIPER", "truck")])
    ade = set(mappings[("ADE20k", "truck")])
    assert len(viper) == 2 and len(ade) == 2
    assert len(viper & ade) == 1  # the shared truck part


def test_fixpoint_matches_signature_grouping_on_random_collections():
    rng = random.Random(7)
    for _ in range(20):
        col = random_collection(rng)
        tax, maps = build_universal_from_atoms(col)
        expected = sorted((u.atoms for u in tax.classes), key=sorted)
        parts, mappings = fixpoint_partition(col)
        assert sorted(parts, key=sorted) == expected
        for ds in col.datasets:
            for cls in ds.classes:
                got = sorted(mappings[(ds.name, cls.name)], key=sorted)
                want = sorted((tax.classes[u].atoms for u in maps.mapped(ds.name, cls.name)), key=sorted)
                assert got == want


# Brute-force reference: a full rescan of the working pairs for rule 1,
# then rule 2, then rule 3, and one rewrite function per rule.


def _ref_copy(state):
    return ResolutionState(list(state.classes),
                           {k: list(v) for k, v in state.mappings.items()},
                           state.next_uid)


def _ref_fresh(state, atoms):
    wc = WorkingClass(state.next_uid, atoms)
    state.next_uid += 1
    state.classes.append(wc)
    return wc


def _ref_remap(state, old_uids, new_uids):
    old = set(old_uids)
    for key, uids in state.mappings.items():
        if old & set(uids):
            kept = [u for u in uids if u not in old]
            state.mappings[key] = kept + [u for u in new_uids if u not in kept]


def _ref_rule1(state, ci, cj):
    new = _ref_copy(state)
    new.classes = [c for c in new.classes if c.uid not in (ci.uid, cj.uid)]
    merged = _ref_fresh(new, ci.atoms)
    _ref_remap(new, (ci.uid, cj.uid), (merged.uid,))
    return new, RuleApplication(1, (ci.uid, cj.uid), (merged.uid,))


def _ref_rule2(state, sup, sub):
    new = _ref_copy(state)
    new.classes = [c for c in new.classes if c.uid != sup.uid]
    remainder = _ref_fresh(new, sup.atoms - sub.atoms)
    _ref_remap(new, (sup.uid,), (sub.uid, remainder.uid))
    return new, RuleApplication(2, (sup.uid,), (remainder.uid,))


def _ref_rule3(state, ci, cj):
    new = _ref_copy(state)
    new.classes = [c for c in new.classes if c.uid not in (ci.uid, cj.uid)]
    inter = _ref_fresh(new, ci.atoms & cj.atoms)
    left = _ref_fresh(new, ci.atoms - cj.atoms)
    right = _ref_fresh(new, cj.atoms - ci.atoms)
    _ref_remap(new, (ci.uid,), (inter.uid, left.uid))
    for key, uids in new.mappings.items():
        if cj.uid in uids:
            kept = [u for u in uids if u != cj.uid]
            new.mappings[key] = kept + [u for u in (inter.uid, right.uid) if u not in kept]
    return new, RuleApplication(3, (ci.uid, cj.uid), (inter.uid, left.uid, right.uid))


def reference_step(state):
    classes = state.classes
    for rule in (1, 2, 3):
        for i in range(len(classes)):
            for j in range(i + 1, len(classes)):
                ci, cj = classes[i], classes[j]
                rel = classify_relation(ci.atoms, cj.atoms)
                if rule == 1 and rel is Relation.EQUAL:
                    return _ref_rule1(state, ci, cj)
                if rule == 2 and rel in (Relation.SUPERSET, Relation.SUBSET):
                    sup, sub = (ci, cj) if rel is Relation.SUPERSET else (cj, ci)
                    return _ref_rule2(state, sup, sub)
                if rule == 3 and rel is Relation.OVERLAP:
                    return _ref_rule3(state, ci, cj)
    return state, None


def step_like_the_reference(col):
    """Step resolve_step and reference_step side by side to the fixpoint,
    checking each step, then check resolve_fixpoint; returns the trace."""
    state = want = initial_state(col)
    trace = []
    while True:
        state, applied = resolve_step(state)
        want, expected = reference_step(want)
        assert applied == expected
        assert state == want  # classes, uids and mappings
        if applied is None:
            break
        trace.append(applied)
    assert resolve_fixpoint(col) == (state, trace)
    return trace


def test_resolution_matches_the_brute_force_reference():
    rng = random.Random(23)
    rules = set()
    for _ in range(200):
        rules |= {applied.rule for applied in step_like_the_reference(random_collection(rng))}
    assert rules == {1, 2, 3}


def test_resolution_of_large_collections_steps_like_the_fixpoint():
    # Larger draws leave many stale pairs in the rule heaps of the fixpoint;
    # stepping from a fresh state each time has none.
    rng = random.Random(31)
    for _ in range(20):
        col = random_collection(rng, max_datasets=8, max_classes=16, max_atoms=60)
        state, trace = initial_state(col), []
        while True:
            state, applied = resolve_step(state)
            if applied is None:
                break
            trace.append(applied)
        assert resolve_fixpoint(col) == (state, trace)


def test_fixpoint_classifies_each_pair_of_working_classes_at_most_once(monkeypatch):
    calls = 0
    mask_rule = resolve._mask_rule

    def counting(a, b):
        nonlocal calls
        calls += 1
        return mask_rule(a, b)

    monkeypatch.setattr(resolve, "_mask_rule", counting)
    rng = random.Random(37)
    for _ in range(100):
        calls = 0
        state, trace = resolve_fixpoint(
            random_collection(rng, max_datasets=8, max_classes=16, max_atoms=60))
        assert calls <= state.next_uid * (state.next_uid - 1) // 2
        if trace:
            assert calls > 0


def test_masks_wider_than_a_machine_word():
    # 70 to 200 atoms, so atom ids reach 64 and 128
    rng = random.Random(41)
    widest = 0
    for _ in range(12):
        col = random_collection(rng, max_datasets=4, max_classes=10, max_atoms=200,
                                min_atoms=70)
        widest = max(widest, len(col.atoms))
        step_like_the_reference(col)
        fixpoint, _ = resolve_fixpoint(col)
        assert all(type(wc.atoms) is frozenset and all(type(a) is int for a in wc.atoms)
                   for wc in fixpoint.classes)
        tax, maps = build_universal_from_atoms(col)
        parts, mappings = fixpoint_partition(col)
        assert parts == {u.atoms for u in tax.classes}
        for ds in col.datasets:
            for cls in ds.classes:
                assert mappings[(ds.name, cls.name)] == {
                    tax.classes[u].atoms for u in maps.mapped(ds.name, cls.name)}
    assert widest > 128


def test_resolve_step_leaves_its_input_unmodified():
    rng = random.Random(29)
    for _ in range(50):
        state, applied = initial_state(random_collection(rng)), True
        while applied is not None:
            before = copy.deepcopy(state)
            after, applied = resolve_step(state)
            assert state == before
            state = after


def test_fixpoint_terminates_and_is_disjoint():
    rng = random.Random(11)
    col = random_collection(rng)
    state, steps = resolve_fixpoint(col)
    seen = set()
    for wc in state.classes:
        assert not (seen & wc.atoms)
        seen |= wc.atoms
    assert resolve_step(state)[1] is None


def test_fixpoint_gives_up_after_max_steps_with_a_validation_error(monkeypatch):
    # the vehicles collection needs two rule applications
    monkeypatch.setattr(resolve, "MAX_STEPS", 1)
    col = collection_from_dict(problems.vehicle_mini_collection())
    with pytest.raises(ValidationError, match="MAX_STEPS = 1 "):
        resolve_fixpoint(col)


# ---------------------------------------------------------------------------
# declaration programs


def test_parse_declarations_basics():
    program = parse_declarations(
        """
        # comment only line
        dataset KITTI: car
        equiv WD.sky City.sky   # trailing comment
        subset ADE20k.car KITTI.car
        overlap VIPER.truck ADE20k.truck name=pickup
        """
    )
    assert [s.kind for s in program.statements] == ["equiv", "subset", "overlap"]
    assert program.statements[2].name == "pickup"
    assert program.datasets["KITTI"] == ["car"]
    assert "sky" in program.datasets["WD"]


@pytest.mark.parametrize("bad", [
    "merge A.x B.y",
    "equiv A.x",
    "subset A.x B.y name=z",
    "equiv A.x A.x",
])
def test_parse_declarations_rejects_malformed(bad):
    with pytest.raises(ValidationError):
        parse_declarations(bad)


@pytest.mark.parametrize("bad,message", [
    ("dataset A: x\nequiv A. B.x", "line 2: class reference 'A.' must be Dataset.class"),
    ("subset .x B.y", "line 1: class reference '.x' must be Dataset.class"),
    ("dataset : x", "line 1: expected 'dataset NAME: class ...'"),
])
def test_parse_declarations_rejects_empty_names(bad, message):
    with pytest.raises(ValidationError) as info:
        parse_declarations(bad)
    assert str(info.value) == message


def test_equiv_program_compiles_to_single_class():
    program = parse_declarations("equiv WD.sky City.sky")
    col, tax, maps = build_universal_from_declarations(program)
    assert len(tax.classes) == 1
    assert tax.classes[0].display_name == "sky"
    assert maps.mapped("WD", "sky") == maps.mapped("City", "sky") == (0,)


def test_empty_program_gives_naive_concatenation():
    program = parse_declarations("dataset A: x y\ndataset B: u v w")
    col, tax, maps = build_universal_from_declarations(program)
    assert len(tax.classes) == 5
    for ds, cls in [("A", "x"), ("A", "y"), ("B", "u"), ("B", "v"), ("B", "w")]:
        assert len(maps.mapped(ds, cls)) == 1


def test_subset_program_splits_host():
    program = parse_declarations("subset ADE20k.car KITTI.car")
    col, tax, maps = build_universal_from_declarations(program)
    assert len(tax.classes) == 2
    kitti = maps.mapped("KITTI", "car")
    ade = maps.mapped("ADE20k", "car")
    assert len(kitti) == 2 and len(ade) == 1
    assert set(ade) <= set(kitti)


def test_overlap_program_names_the_intersection():
    program = parse_declarations("overlap VIPER.truck ADE20k.truck name=pickup")
    col, tax, maps = build_universal_from_declarations(program)
    assert len(tax.classes) == 3
    viper = set(maps.mapped("VIPER", "truck"))
    ade = set(maps.mapped("ADE20k", "truck"))
    (shared,) = viper & ade
    assert tax.classes[shared].display_name == "pickup"


@pytest.mark.parametrize("text, atoms, mapped", [
    # a dotted dataset name and a dotted class name make the same atom name
    ("dataset A.b: c\ndataset A: b.c", ("A.b.c", "A.b.c#2"),
     {"A.b": {"c": (0,)}, "A": {"b.c": (1,)}}),
    ("dataset A: x\ndataset B: y\noverlap A.x B.y name=A.x",
     ("A.x#2", "A.x\u2216B.y", "B.y\u2216A.x"), {"A": {"x": (0, 1)}, "B": {"y": (1, 2)}}),
    ("dataset A.b: c\ndataset A: b.c\ndataset B: y\noverlap A.b.c B.y name=A.b.c",
     ("A.b.c", "A.b.c#3", "A.b.c\u2216B.y", "B.y\u2216A.b.c"),
     {"A.b": {"c": (0,)}, "A": {"b.c": (1, 2)}, "B": {"y": (2, 3)}}),
], ids=["dataset-and-class-names", "overlap-name", "third-of-a-name"])
def test_colliding_atom_names_get_the_next_free_number(text, atoms, mapped):
    col, _, maps = build_universal_from_declarations(parse_declarations(text))
    assert col.atoms == atoms
    assert maps.by_dataset == mapped


def test_subset_chain_resolves_nested_classes():
    program = parse_declarations(
        "subset B.car A.vehicle\n"
        "subset C.sportscar B.car\n"
    )
    col, tax, maps = build_universal_from_declarations(program)
    assert len(maps.mapped("A", "vehicle")) == 3
    assert len(maps.mapped("B", "car")) == 2
    assert len(maps.mapped("C", "sportscar")) == 1
    assert set(maps.mapped("C", "sportscar")) <= set(maps.mapped("B", "car"))
    assert set(maps.mapped("B", "car")) <= set(maps.mapped("A", "vehicle"))


# One minimal program per way a declaration program fails, with its message;
# test_equiv_after_subset_is_ambiguous pins equiv of nested classes.
DECLARATION_FAILURES = [
    ("equiv A.y B.x\noverlap A.y B.x", InconsistentDeclaration,
     "line 2: declared overlap but derived relation is equal"),
    ("subset B.y C.x\nsubset C.x B.y", InconsistentDeclaration,
     "line 2: declared subset but derived relation is superset"),
    ("equiv B.y C.x\nsubset B.y C.x", InconsistentDeclaration,
     "line 2: declared subset but derived relation is equal"),
    ("subset B.y A.x\noverlap B.y A.x", InconsistentDeclaration,
     "line 2: declared overlap but derived relation is subset"),
    ("subset B.y A.x\noverlap A.x B.y", InconsistentDeclaration,
     "line 2: declared overlap but derived relation is superset"),
    ("overlap A.x B.x\nsubset A.x B.x", AmbiguousDeclaration,
     "line 2: A.x partially intersects B.x"),
    ("overlap B.y A.x\nsubset C.y A.x\nequiv C.y B.y\nsubset C.x B.y", AmbiguousDeclaration,
     "line 4: subset(C.x, B.y) cannot pick a host part without guessing (2 candidates)"),
    ("overlap A.y C.y\nsubset B.x A.y\nequiv B.x C.y", InconsistentDeclaration,
     "line 1: declared overlap but derived relation is superset"),
]


@pytest.mark.parametrize("text,error,message", DECLARATION_FAILURES)
def test_declaration_failures_name_the_statement(text, error, message):
    with pytest.raises(error) as info:
        build_universal_from_declarations(parse_declarations(text))
    assert str(info.value) == message


def test_a_hand_built_program_naming_an_undeclared_class_is_rejected():
    # parse_declarations registers every class a statement names, so only
    # a program built by hand can name one its datasets lack
    program = DeclarationProgram({"A": ["x"], "B": []},
                                 [Statement("equiv", ("A", "x"), ("B", "y"), line=3)])
    with pytest.raises(ValidationError, match=r"^line 3: unknown class B\.y$"):
        build_universal_from_declarations(program)


def test_equiv_after_subset_is_ambiguous():
    program = parse_declarations(
        "subset B.car A.vehicle\n"
        "equiv B.car A.vehicle\n"
    )
    with pytest.raises(AmbiguousDeclaration,
                       match=r"^line 2: equiv\(B.car, A.vehicle\) targets already-split classes$"):
        build_universal_from_declarations(program)


def test_declarations_compiling_to_an_invalid_collection_are_inconsistent():
    # A.y hosts A.x, so the two classes of A overlap
    program = parse_declarations("subset A.x A.y\n")
    with pytest.raises(InconsistentDeclaration,
                       match="^declarations produce an invalid collection: "):
        build_universal_from_declarations(program)


def random_program(rng) -> str:
    """A declaration program over 2-3 datasets of classes x and y, with 1-6
    statements on two distinct classes of any datasets."""
    def draw(n):
        return rng.next_u64() % n

    datasets = "ABC"[:2 + draw(2)]
    lines = []
    for _ in range(1 + draw(6)):
        first = second = None
        while first == second:
            first, second = (f"{datasets[draw(len(datasets))]}.{'xy'[draw(2)]}"
                             for _ in range(2))
        lines.append(f"{('equiv', 'subset', 'overlap')[draw(3)]} {first} {second}")
    return "\n".join(lines)


def declaration_outcome(text: str) -> str:
    """The error type and message a program raises, or its taxonomy file."""
    try:
        col, tax, maps = build_universal_from_declarations(parse_declarations(text))
    except (AmbiguousDeclaration, InconsistentDeclaration) as exc:
        return f"{type(exc).__name__}: {exc}"
    return json.dumps(taxonomy_to_dict(col, tax, maps), sort_keys=True)


def test_random_declaration_programs_are_pinned():
    rng = SplitMix64(15)
    outcomes = [declaration_outcome(random_program(rng)) for _ in range(2000)]
    kinds = [o.split(":", 1)[0] for o in outcomes]
    assert {k: kinds.count(k) for k in ("AmbiguousDeclaration", "InconsistentDeclaration")} == {
        "AmbiguousDeclaration": 751, "InconsistentDeclaration": 884}
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "e215a62997648db4bd3d16441ca980e9b120b8730f6fe29a8671028804c656fa"
