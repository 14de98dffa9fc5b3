"""Rule-based fixpoint construction of universal taxonomies.

The working multiset starts with every dataset-specific class and is
iteratively rewritten by three resolution rules until all members are
pairwise disjoint:

1. equal classes are merged into a fresh class,
2. a superset is split into the subset plus a fresh remainder,
3. two overlapping classes are replaced by three disjoint parts.

Rule and pair selection is deterministic: lowest rule number first, then
lowest position pair in the working list.  A pair's relation never
changes, and removal keeps the working order while fresh classes are
appended, so one engine keeps the selection incremental: it holds one
min-heap of (rule, position, position) entries, whose order is that
selection order, classifies each fresh class only against the live
classes it meets (one AND of bitmasks passes over the others), and drops
an entry whose classes are gone when it reaches the top of the heap.
Each pair of working classes is thus classified at most once per
fixpoint.  An index from each uid to the mapping keys that hold it lets a
rewrite touch only those keys; the engine and the declaration compiler
rewrite their mappings with one ordered substitution.  The engine holds
each live class's atoms as an int bitmask, so relating two classes and
making the fresh parts are a few int operations; atom sets are turned into
masks when the engine is built from a state, and back only in ``state()``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import AmbiguousDeclaration, InconsistentDeclaration, ValidationError
from .taxonomy import (
    Collection,
    DatasetClass,
    DatasetTaxonomy,
    Relation,
    build_universal_from_atoms,
    classify_relation,
)

# resolve_fixpoint gives up after this many rule applications
MAX_STEPS = 100000


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

    classes: list  # of WorkingClass, in working order
    mappings: dict  # (dataset name, class name) -> list of uids
    next_uid: int = 0


def initial_state(col: Collection) -> ResolutionState:
    state = ResolutionState([], {})
    for ds in col.datasets:
        for cls in ds.classes:
            wc = WorkingClass(state.next_uid, cls.atoms)
            state.next_uid += 1
            state.classes.append(wc)
            state.mappings[(ds.name, cls.name)] = [wc.uid]
    return state


def _substitute(lists: dict, old, new, keys=None) -> None:
    """Replace ``old`` in every list of ``lists`` that holds it: the list
    loses ``old`` and gains, in order, each item of ``new`` it lacks.  Only
    the lists under ``keys`` are looked at, when given.

    Each such list is replaced by a new one, never changed in place, so a
    shallow copy of ``lists`` leaves the original lists as they were.
    """
    for key in lists if keys is None else keys:
        items = lists[key]
        if old in items:
            kept = [x for x in items if x != old]
            for x in new:
                if x not in kept:
                    kept.append(x)
            lists[key] = kept


def _mask_rule(a: int, b: int) -> int:
    """The rule that applies to two working classes given as atom bitmasks:
    0 when they are disjoint, 1 when equal, 2 when one holds the other,
    else 3."""
    i = a & b
    if not i:
        return 0
    if a == b:
        return 1
    if i == a or i == b:
        return 2
    return 3


# An atom set as a bitmask and back: atom id i is bit i.
def _mask(atoms) -> int:
    return sum(1 << a for a in atoms)


def _atoms(mask: int) -> frozenset:
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(ids)


class _Engine:
    """The working multiset of a ResolutionState, rewritten in place.

    A class's rank is its position in the working list; fresh classes get
    rising ranks, so the live classes stay in rank order.  ``live`` holds
    each live class as (uid, atom bitmask), ``heap`` a (rule, rank, rank)
    entry for each pair to which a rule applies, stale ones included, and
    ``holders`` maps each uid to the mapping keys that hold it.  A class
    admitted is classified only against the live classes it meets.  The
    state given is not modified, and its classes are handed back as they are.
    """

    def __init__(self, state: ResolutionState):
        self.live = {}  # rank -> (uid, mask), in rank order
        self.next_rank = 0
        self.heap = []
        self.mappings = dict(state.mappings)
        self.next_uid = state.next_uid
        self.holders = {}
        for key, uids in self.mappings.items():
            for uid in uids:
                self.holders.setdefault(uid, {})[key] = None
        self.given = {wc.uid: wc for wc in state.classes}
        for wc in state.classes:
            self._admit(wc.uid, _mask(wc.atoms))

    def _admit(self, uid: int, mask: int) -> None:
        rank = self.next_rank
        self.next_rank += 1
        heap = self.heap
        for other, (_, known) in self.live.items():
            if known & mask:
                heapq.heappush(heap, (_mask_rule(known, mask), other, rank))
        self.live[rank] = (uid, mask)

    def state(self) -> ResolutionState:
        given = self.given
        classes = [given[uid] if uid in given else WorkingClass(uid, _atoms(mask))
                   for uid, mask in self.live.values()]
        return ResolutionState(classes, self.mappings, self.next_uid)

    def step(self):
        """Apply the lowest rule at its lowest live pair and return its
        RuleApplication, or None when the classes are pairwise disjoint."""
        live, heap = self.live, self.heap
        while heap:
            rule, i, j = heapq.heappop(heap)
            if i in live and j in live:
                break
        else:
            return None
        (ua, a), (ub, b) = live[i], live[j]
        if rule == 2 and a.bit_count() < b.bit_count():
            ua, a, ub, b = ub, b, ua, a  # a is the superset
        n = self.next_uid
        # The fresh parts get uids n, n + 1, ...; each removed uid maps to the
        # parts that lie inside it.
        if rule == 1:
            fresh = [a]
            parts = {ua: (n,), ub: (n,)}
        elif rule == 2:
            fresh = [a & ~b]
            parts = {ua: (ub, n)}
        else:
            fresh = [a & b, a & ~b, b & ~a]
            parts = {ua: (n, n + 1), ub: (n, n + 2)}
        added = tuple(range(n, n + len(fresh)))
        self.next_uid = n + len(fresh)
        for rank in (i, j):
            if live[rank][0] in parts:
                del live[rank]
        for uid, mask in zip(added, fresh):
            self._admit(uid, mask)
        for old, new in parts.items():
            keys = self.holders.pop(old, {})
            _substitute(self.mappings, old, new, keys)
            for uid in new:
                self.holders.setdefault(uid, {}).update(keys)
        return RuleApplication(rule, tuple(parts), added)


def resolve_step(state: ResolutionState):
    """Apply the first applicable resolution rule.

    Returns (state', RuleApplication) or (state, None) at the fixpoint.
    The input state is not modified.
    """
    engine = _Engine(state)
    applied = engine.step()
    if applied is None:
        return state, None
    return engine.state(), applied


def resolve_fixpoint(col: Collection):
    """Step one resolution engine from a collection until no rule applies.

    Returns (state, trace) where trace is the list of RuleApplications.
    Raises ValidationError, naming MAX_STEPS, when no fixpoint is reached
    within MAX_STEPS rule applications.
    """
    engine = _Engine(initial_state(col))
    trace = []
    for _ in range(MAX_STEPS):
        applied = engine.step()
        if applied is None:
            return engine.state(), trace
        trace.append(applied)
    raise ValidationError(f"resolution did not reach a fixpoint within MAX_STEPS = {MAX_STEPS} "
                          "rule applications")


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
            for ds, cls in (stmt.first, stmt.second):
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
        ds, _, cls = ref.partition(".")
        if not ds or not cls:
            raise ValidationError(f"line {line}: class reference {ref!r} must be Dataset.class")
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
            name, colon, classes = " ".join(tokens[1:]).partition(":")
            name = name.strip()
            if not colon or not name:
                raise ValidationError(f"line {lineno}: expected 'dataset NAME: class ...'")
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


# The relation each statement kind declares of its first class to its second.
_EXPECTED = {"equiv": Relation.EQUAL, "subset": Relation.SUBSET, "overlap": Relation.OVERLAP}

# The relations from which no refinement reaches the declared one: refining
# atoms keeps a superset a superset, so nested classes stay nested.
_NEVER = {"equiv": (),
          "subset": (Relation.EQUAL, Relation.SUPERSET),
          "overlap": (Relation.EQUAL, Relation.SUBSET, Relation.SUPERSET)}


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

    def apply(self, stmt: Statement) -> None:
        """Refine atoms so that ``stmt`` holds; a statement that already
        holds changes nothing.  Only disjoint operands are refined."""
        first, second = stmt.first, stmt.second
        a, b = self.class_atoms[first], self.class_atoms[second]
        rel = classify_relation(frozenset(a), frozenset(b))
        if rel is _EXPECTED[stmt.kind]:
            return
        if rel in _NEVER[stmt.kind]:
            raise InconsistentDeclaration(
                f"line {stmt.line}: declared {stmt.kind} but derived relation is {rel.value}"
            )
        qa, qb = f"{first[0]}.{first[1]}", f"{second[0]}.{second[1]}"
        call = f"line {stmt.line}: {stmt.kind}({qa}, {qb})"
        disjoint = rel is Relation.DISJOINT
        if stmt.kind == "equiv":
            # merge an atomic side into the other
            if not disjoint or (len(a) != 1 and len(b) != 1):
                raise AmbiguousDeclaration(f"{call} targets already-split classes")
            this, other = (first, second) if len(a) == 1 else (second, first)
            _substitute(self.class_atoms, self.class_atoms[this][0], self.class_atoms[other])
            self._maybe_rename_merged(stmt, other)
        elif stmt.kind == "overlap":
            # split two atomic classes into three parts
            if not disjoint or len(a) != 1 or len(b) != 1:
                raise AmbiguousDeclaration(f"{call} requires both operands to still be atomic")
            inter = self._new_atom(stmt.name or f"{qa}∩{qb}")
            left = self._new_atom(f"{qa}∖{qb}")
            right = self._new_atom(f"{qb}∖{qa}")
            _substitute(self.class_atoms, a[0], [left, inter])
            _substitute(self.class_atoms, b[0], [right, inter])
        else:
            if not disjoint:
                raise AmbiguousDeclaration(f"line {stmt.line}: {qa} partially intersects {qb}")
            # An atom of the superset may host the subset only if every class
            # containing it is the superset itself or one of its supersets;
            # anything else would force an undeclared relation.
            sup = set(b)
            eligible = [alpha for alpha in b
                        if all(key == second or alpha not in atoms or sup <= set(atoms)
                               for key, atoms in self.class_atoms.items())]
            if len(eligible) != 1:
                raise AmbiguousDeclaration(f"{call} cannot pick a host part without "
                                           f"guessing ({len(eligible)} candidates)")
            remainder = self._new_atom(f"{qb}∖{qa}")
            _substitute(self.class_atoms, eligible[0], a + [remainder])

    def _maybe_rename_merged(self, stmt, kept_ref):
        # Cosmetic: a merge of A.sky and B.sky yields an atom named "sky".
        atoms = self.class_atoms[kept_ref]
        if len(atoms) != 1:
            return
        x, y = stmt.first[1], stmt.second[1]
        candidate = x if x == y else f"{x}={y}"
        if candidate not in self.atom_names:
            self.atom_names[atoms[0]] = candidate

    def collection(self) -> Collection:
        used = sorted({a for atoms in self.class_atoms.values() for a in atoms})
        dense = {a: i for i, a in enumerate(used)}
        atoms = tuple(self.atom_names[a] for a in used)
        taxonomies = []
        for ds, classes in self.program.datasets.items():
            ds_classes = tuple(
                DatasetClass(cls, frozenset(dense[a] for a in self.class_atoms[(ds, cls)]))
                for cls in classes
            )
            taxonomies.append(DatasetTaxonomy(ds, ds_classes))
        return Collection(atoms, tuple(taxonomies))


def build_universal_from_declarations(program: DeclarationProgram):
    """Compile a declaration program into a synthesized collection and build
    its universal taxonomy.

    Returns (Collection, UniversalTaxonomy, MappingSet).  Raises
    AmbiguousDeclaration when a statement cannot be applied without guessing
    and InconsistentDeclaration when a declared relation cannot hold or no
    longer holds after the last statement.
    """
    program.validate()
    compiler = _Compiler(program)
    for stmt in program.statements:
        compiler.apply(stmt)
    try:
        col = compiler.collection()
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
