"""Rule-based fixpoint construction of universal taxonomies.

The working multiset starts with every dataset-specific class and is
iteratively rewritten by three resolution rules until all members are
pairwise disjoint:

1. equal classes are merged into a fresh class,
2. a superset is split into the subset plus a fresh remainder,
3. two overlapping classes are replaced by three disjoint parts.

Rule and pair selection is deterministic: lowest rule number first, then
lowest position pair in the working list.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import AmbiguousDeclaration, InconsistentDeclaration, ValidationError
from .taxonomy import (
    Collection,
    ConceptAtom,
    DatasetClass,
    DatasetTaxonomy,
    MappingSet,
    Relation,
    UniversalTaxonomy,
    classify_relation,
    validate_collection,
)


@dataclass(frozen=True)
class WorkingClass:
    uid: int
    atoms: frozenset  # of atom ids


@dataclass(frozen=True)
class RuleApplication:
    rule: int
    removed: tuple  # uids taken out of the working multiset
    added: tuple  # uids appended


@dataclass
class ResolutionState:
    """Working multiset plus mappings from original classes to working uids."""

    atom_names: list
    classes: list  # of WorkingClass, in working order
    mappings: dict  # (dataset name, class name) -> list of uids
    next_uid: int = 0


def initial_state(col: Collection) -> ResolutionState:
    state = ResolutionState([a.name for a in col.atoms], [], {})
    for ds in col.datasets:
        for cls in ds.classes:
            wc = WorkingClass(state.next_uid, cls.atoms)
            state.next_uid += 1
            state.classes.append(wc)
            state.mappings[(ds.name, cls.name)] = [wc.uid]
    return state


def _remap(state: ResolutionState, old_uids, new_uids) -> None:
    old = set(old_uids)
    for key, uids in state.mappings.items():
        if old & set(uids):
            kept = [u for u in uids if u not in old]
            state.mappings[key] = kept + [u for u in new_uids if u not in kept]


def _fresh(state: ResolutionState, atoms: frozenset) -> WorkingClass:
    wc = WorkingClass(state.next_uid, atoms)
    state.next_uid += 1
    state.classes.append(wc)
    return wc


def resolve_step(state: ResolutionState):
    """Apply the first applicable resolution rule.

    Returns (state', RuleApplication) or (state, None) at the fixpoint.
    The input state is not modified.
    """
    classes = state.classes
    for rule in (1, 2, 3):
        for i in range(len(classes)):
            for j in range(i + 1, len(classes)):
                ci, cj = classes[i], classes[j]
                rel = classify_relation(ci.atoms, cj.atoms)
                if rule == 1 and rel is Relation.EQUAL:
                    new = _apply_rule1(state, ci, cj)
                    return new
                if rule == 2 and rel in (Relation.SUPERSET, Relation.SUBSET):
                    sup, sub = (ci, cj) if rel is Relation.SUPERSET else (cj, ci)
                    return _apply_rule2(state, sup, sub)
                if rule == 3 and rel is Relation.OVERLAP:
                    return _apply_rule3(state, ci, cj)
    return state, None


def _copy(state: ResolutionState) -> ResolutionState:
    return ResolutionState(
        list(state.atom_names),
        list(state.classes),
        {k: list(v) for k, v in state.mappings.items()},
        state.next_uid,
    )


def _apply_rule1(state, ci, cj):
    new = _copy(state)
    new.classes = [c for c in new.classes if c.uid not in (ci.uid, cj.uid)]
    merged = _fresh(new, ci.atoms)
    _remap(new, (ci.uid, cj.uid), (merged.uid,))
    return new, RuleApplication(1, (ci.uid, cj.uid), (merged.uid,))


def _apply_rule2(state, sup, sub):
    new = _copy(state)
    new.classes = [c for c in new.classes if c.uid != sup.uid]
    remainder = _fresh(new, sup.atoms - sub.atoms)
    _remap(new, (sup.uid,), (sub.uid, remainder.uid))
    return new, RuleApplication(2, (sup.uid,), (remainder.uid,))


def _apply_rule3(state, ci, cj):
    new = _copy(state)
    new.classes = [c for c in new.classes if c.uid not in (ci.uid, cj.uid)]
    inter = _fresh(new, ci.atoms & cj.atoms)
    left = _fresh(new, ci.atoms - cj.atoms)
    right = _fresh(new, cj.atoms - ci.atoms)
    _remap(new, (ci.uid,), (inter.uid, left.uid))
    # cj's entries were untouched by the first remap since ci.uid != cj.uid,
    # except for classes mapped to both; handle cj separately.
    for key, uids in new.mappings.items():
        if cj.uid in uids:
            kept = [u for u in uids if u != cj.uid]
            new.mappings[key] = kept + [u for u in (inter.uid, right.uid) if u not in kept]
    return new, RuleApplication(3, (ci.uid, cj.uid), (inter.uid, left.uid, right.uid))


def resolve_fixpoint(col: Collection, max_steps: int = 100000):
    """Iterate resolve_step from a collection until no rule applies.

    Returns (state, trace) where trace is the list of RuleApplications.
    """
    state = initial_state(col)
    trace = []
    for _ in range(max_steps):
        state, applied = resolve_step(state)
        if applied is None:
            return state, trace
        trace.append(applied)
    raise RuntimeError("resolution did not reach a fixpoint")


def fixpoint_partition(col: Collection):
    """Run resolve_fixpoint once and return (atom sets, mappings): the atom
    sets of the fixpoint working classes as a set of frozensets, and the
    mappings keyed by (dataset, class) with sets of atom sets as values."""
    state, _ = resolve_fixpoint(col)
    by_uid = {wc.uid: wc.atoms for wc in state.classes}
    mappings = {key: {by_uid[u] for u in uids} for key, uids in state.mappings.items()}
    return set(by_uid.values()), mappings


# ---------------------------------------------------------------------------
# Declaration programs


@dataclass(frozen=True)
class Statement:
    kind: str  # "equiv" | "subset" | "overlap"
    first: tuple  # (dataset, class); for subset this is the contained class
    second: tuple
    name: str = ""  # optional intersection name for overlap
    line: int = 0

    def operands(self):
        return (self.first, self.second)


@dataclass
class DeclarationProgram:
    datasets: dict  # dataset name -> list of class names, insertion ordered
    statements: list  # of Statement

    def validate(self):
        for stmt in self.statements:
            if stmt.first == stmt.second:
                raise ValidationError(
                    f"line {stmt.line}: a statement must not reference a class twice"
                )
            for ds, cls in stmt.operands():
                if ds not in self.datasets or cls not in self.datasets[ds]:
                    raise ValidationError(
                        f"line {stmt.line}: unknown class {ds}.{cls}"
                    )


def parse_declarations(text: str) -> DeclarationProgram:
    """Parse the line-oriented declaration format.

    Statements: ``equiv A.x B.y``, ``subset B.y A.x`` (first contained in
    second), ``overlap A.x B.y [name=...]``.  ``dataset A: x y z`` lines
    pre-declare classes; classes referenced by statements are registered on
    first use.  ``#`` starts a comment.
    """
    program = DeclarationProgram({}, [])

    def register(ref: str, line: int):
        if "." not in ref:
            raise ValidationError(f"line {line}: class reference {ref!r} must be Dataset.class")
        ds, cls = ref.split(".", 1)
        program.datasets.setdefault(ds, [])
        if cls not in program.datasets[ds]:
            program.datasets[ds].append(cls)
        return ds, cls

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "dataset":
            rest = " ".join(tokens[1:])
            if ":" not in rest:
                raise ValidationError(f"line {lineno}: expected 'dataset NAME: class ...'")
            name, classes = rest.split(":", 1)
            name = name.strip()
            program.datasets.setdefault(name, [])
            for cls in classes.split():
                if cls not in program.datasets[name]:
                    program.datasets[name].append(cls)
            continue
        if head not in ("equiv", "subset", "overlap"):
            raise ValidationError(f"line {lineno}: unknown statement {head!r}")
        args = tokens[1:]
        name = ""
        if args and args[-1].startswith("name="):
            if head != "overlap":
                raise ValidationError(f"line {lineno}: name= is only valid for overlap")
            name = args.pop()[len("name="):]
        if len(args) != 2:
            raise ValidationError(f"line {lineno}: {head} expects two class references")
        first = register(args[0], lineno)
        second = register(args[1], lineno)
        program.statements.append(Statement(head, first, second, name, lineno))
    program.validate()
    return program


class _Compiler:
    """Synthesizes atoms for a declaration program.

    Each class starts as one fresh atom named ``Dataset.class``; statements
    refine atoms in file order following the resolution-rule semantics.
    Undeclared cross-dataset pairs stay disjoint.
    """

    def __init__(self, program: DeclarationProgram):
        self.program = program
        self.atom_names = []
        self.class_atoms = {}  # (ds, cls) -> list of atom ids (ordered)
        for ds, classes in program.datasets.items():
            for cls in classes:
                self.class_atoms[(ds, cls)] = [self._new_atom(f"{ds}.{cls}")]

    def _new_atom(self, name: str) -> int:
        if name in self.atom_names:
            base = name
            k = 2
            while name in self.atom_names:
                name = f"{base}#{k}"
                k += 1
        self.atom_names.append(name)
        return len(self.atom_names) - 1

    def _substitute(self, atom: int, replacement) -> None:
        for key, atoms in self.class_atoms.items():
            if atom in atoms:
                kept = [a for a in atoms if a != atom]
                self.class_atoms[key] = kept + [a for a in replacement if a not in kept]

    def _atoms(self, ref) -> set:
        return set(self.class_atoms[ref])

    def _qual(self, ref) -> str:
        return f"{ref[0]}.{ref[1]}"

    def apply(self, stmt: Statement) -> None:
        handler = getattr(self, f"_apply_{stmt.kind}")
        handler(stmt)

    def _apply_equiv(self, stmt):
        a, b = self._atoms(stmt.first), self._atoms(stmt.second)
        if a == b:
            return
        for this, other, other_atoms in ((stmt.first, stmt.second, b), (stmt.second, stmt.first, a)):
            mine = self._atoms(this)
            if len(mine) == 1 and not mine & other_atoms:
                (alpha,) = mine
                self._substitute(alpha, self.class_atoms[other])
                self._maybe_rename_merged(stmt, other)
                return
        raise AmbiguousDeclaration(
            f"line {stmt.line}: equiv({self._qual(stmt.first)}, {self._qual(stmt.second)}) "
            f"targets already-split classes"
        )

    def _maybe_rename_merged(self, stmt, kept_ref):
        # Cosmetic: a merge of A.sky and B.sky yields an atom named "sky".
        atoms = self.class_atoms[kept_ref]
        if len(atoms) != 1:
            return
        x, y = stmt.first[1], stmt.second[1]
        candidate = x if x == y else f"{x}={y}"
        if candidate not in self.atom_names:
            self.atom_names[atoms[0]] = candidate

    def _apply_subset(self, stmt):
        sub, sup = stmt.first, stmt.second
        sub_atoms, sup_atoms = self._atoms(sub), self._atoms(sup)
        if sub_atoms <= sup_atoms:
            if sub_atoms == sup_atoms:
                raise InconsistentDeclaration(
                    f"line {stmt.line}: {self._qual(sub)} already equals {self._qual(sup)}"
                )
            return
        if sub_atoms & sup_atoms:
            raise AmbiguousDeclaration(
                f"line {stmt.line}: {self._qual(sub)} partially intersects {self._qual(sup)}"
            )
        # An atom of the superset may host the subset only if every class
        # containing it is the superset itself or one of its supersets;
        # anything else would force an undeclared relation.
        eligible = []
        for alpha in self.class_atoms[sup]:
            ok = True
            for key, atoms in self.class_atoms.items():
                if key != sup and alpha in atoms and not sup_atoms <= set(atoms):
                    ok = False
                    break
            if ok:
                eligible.append(alpha)
        if len(eligible) != 1:
            raise AmbiguousDeclaration(
                f"line {stmt.line}: subset({self._qual(sub)}, {self._qual(sup)}) cannot "
                f"pick a host part without guessing ({len(eligible)} candidates)"
            )
        alpha = eligible[0]
        remainder = self._new_atom(f"{self._qual(sup)}∖{self._qual(sub)}")
        self._substitute(alpha, self.class_atoms[sub] + [remainder])

    def _apply_overlap(self, stmt):
        a_ref, b_ref = stmt.first, stmt.second
        a, b = self._atoms(a_ref), self._atoms(b_ref)
        if a & b and not a <= b and not b <= a:
            return
        if len(a) != 1 or len(b) != 1 or a & b:
            raise AmbiguousDeclaration(
                f"line {stmt.line}: overlap({self._qual(a_ref)}, {self._qual(b_ref)}) "
                f"requires both operands to still be atomic"
            )
        qa, qb = self._qual(a_ref), self._qual(b_ref)
        inter = self._new_atom(stmt.name or f"{qa}∩{qb}")
        left = self._new_atom(f"{qa}∖{qb}")
        right = self._new_atom(f"{qb}∖{qa}")
        (alpha,) = a
        (beta,) = b
        self._substitute(alpha, [left, inter])
        self._substitute(beta, [right, inter])

    def collection(self) -> Collection:
        used = sorted({a for atoms in self.class_atoms.values() for a in atoms})
        dense = {a: i for i, a in enumerate(used)}
        atoms = tuple(ConceptAtom(i, self.atom_names[a]) for a, i in
                      sorted(dense.items(), key=lambda kv: kv[1]))
        taxonomies = []
        for ds, classes in self.program.datasets.items():
            ds_classes = tuple(
                DatasetClass(ds, cls, frozenset(dense[a] for a in self.class_atoms[(ds, cls)]))
                for cls in classes
            )
            taxonomies.append(DatasetTaxonomy(ds, ds_classes))
        return Collection(atoms, tuple(taxonomies))


_EXPECTED = {"equiv": Relation.EQUAL, "subset": Relation.SUBSET, "overlap": Relation.OVERLAP}


def build_universal_from_declarations(program: DeclarationProgram):
    """Compile a declaration program into a synthesized collection and build
    its universal taxonomy.

    Returns (Collection, UniversalTaxonomy, MappingSet).  Raises
    AmbiguousDeclaration when a statement cannot be applied without guessing
    and InconsistentDeclaration when post-hoc verification of a declared
    relation fails.
    """
    from .taxonomy import build_universal_from_atoms

    program.validate()
    compiler = _Compiler(program)
    for stmt in program.statements:
        compiler.apply(stmt)
    col = compiler.collection()
    try:
        validate_collection(col)
    except ValidationError as exc:
        raise InconsistentDeclaration(f"declarations produce an invalid collection: {exc}")
    lookup = {(ds.name, c.name): c.atoms for ds in col.datasets for c in ds.classes}
    for stmt in program.statements:
        rel = classify_relation(lookup[stmt.first], lookup[stmt.second])
        if rel is not _EXPECTED[stmt.kind]:
            raise InconsistentDeclaration(
                f"line {stmt.line}: declared {stmt.kind} but derived relation is {rel.value}"
            )
    tax, maps = build_universal_from_atoms(col)
    return col, tax, maps
