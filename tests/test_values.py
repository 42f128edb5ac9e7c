"""The value classes: constructors, field-wise equality and hashing, repr,
frozen fields, the mutable TheoryRecord, and CountReport's JSON form."""

import ast
import json
from pathlib import Path

import pytest

import supercharacters
from supercharacters import (
    AutMap,
    CountReport,
    GroupSpec,
    Partition,
    QuotientMap,
    Subgroup,
    SubgroupEmbedding,
    Theory,
    TheoryRecord,
    Violation,
    cli,
    groups,
    maximal_theory,
    minimal_theory,
    predicted_counts,
)


def _group():
    # not GroupSpec.of, which interns: each call builds a new object
    return GroupSpec((3, 2, 2))


# (class, field names, fresh field values): each call of the last builds
# new objects, so two instances built from them are equal but not identical
CASES = [
    (GroupSpec, ("factors",), lambda: (tuple([3, 2, 2]),)),
    (Subgroup, ("group", "members", "generators"),
     lambda: (_group(), tuple(range(4)), tuple([1, 2]))),
    (SubgroupEmbedding, ("group", "to_parent"), lambda: (GroupSpec((2, 2)), tuple(range(4)))),
    (QuotientMap, ("group", "projection"),
     lambda: (GroupSpec((3,)), tuple(i >> 2 for i in range(12)))),
    (AutMap, ("group", "gen_images"),
     lambda: (_group(), ((1, 0, 0), (0, 1, 0), (0, 0, 1)))),
    (Partition, ("size", "blocks"), lambda: (3, (tuple([0]), tuple([1, 2])))),
    (Theory, ("group", "classes", "charparts"),
     lambda: (_group(), Partition.discrete(12), Partition.discrete(12))),
    (Violation, ("condition", "witness", "message"),
     lambda: (3, tuple([0, 1, 2]), "sigma differs")),
    (CountReport, ("p", "k", "l", "n", "total", "automorphic", "direct", "overlap",
                   "wedge", "maximal", "predicted"),
     lambda: tuple(predicted_counts(5).to_json().values())),
    (TheoryRecord, ("theory", "tags", "provenance"),
     lambda: (maximal_theory(_group()), {"maximal"}, [{"construction": "maximal"}])),
]
FROZEN = [c for c in CASES if c[0] is not TheoryRecord]
HASHED = [c for c in FROZEN if c[0] is not CountReport]


def _ids(cases):
    return [c[0].__name__ for c in cases]


def _pair(cls, fields, values):
    """One instance built positionally, one by keyword, from separate values."""
    return cls(*values()), cls(**dict(zip(fields, values())))


@pytest.mark.parametrize("cls,fields,values", CASES, ids=_ids(CASES))
def test_constructors_and_fieldwise_equality(cls, fields, values):
    a, b = _pair(cls, fields, values)
    assert a is not b
    assert a == b and not a != b
    assert all(getattr(a, f) == v for f, v in zip(fields, values()))
    assert a != object() and a != values()
    # keywords in reverse order, and the first field by position, the rest by keyword
    first, *rest = values()
    assert cls(**dict(reversed(list(zip(fields, values()))))) == a
    assert cls(first, **dict(zip(fields[1:], rest))) == a


@pytest.mark.parametrize("cls,fields,values", CASES, ids=_ids(CASES))
def test_constructors_refuse_missing_extra_repeated_and_unknown_fields(cls, fields, values):
    # a TheoryRecord's tags and provenance default to empty
    required = fields[:1] if cls is TheoryRecord else fields
    for f in required:
        with pytest.raises(TypeError):
            cls(**{k: v for k, v in zip(fields, values()) if k != f})
    with pytest.raises(TypeError):
        cls(*values(), None)
    with pytest.raises(TypeError):
        cls(*values(), **{fields[0]: values()[0]})
    with pytest.raises(TypeError):
        cls(*values(), unknown=None)
    with pytest.raises(TypeError):
        cls(**dict(zip(fields, values())), unknown=None)


def test_only_checking_classes_write_their_own_constructor():
    # every other value class takes _Frozen's constructor, read from _fields
    own = {c[0] for c in CASES if "__init__" in vars(c[0])}
    assert own == {GroupSpec, Partition, Theory, AutMap, TheoryRecord}


def _calls_by_owner():
    """(owner, call) for every call in the package, owner being the
    module-level function or the method that holds it, as module.name or
    module.Class.name, or the module itself for code outside both."""
    out = []
    for f in Path(groups.__file__).parent.glob("*.py"):
        tree = ast.parse(f.read_text(encoding="utf-8"))
        owners = []
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                owners += [(f"{f.stem}.{node.name}.{m.name}", m) for m in node.body
                           if isinstance(m, ast.FunctionDef)]
            elif isinstance(node, ast.FunctionDef):
                owners.append((f"{f.stem}.{node.name}", node))
        owners.append((f.stem, ast.Module([n for n in tree.body if not isinstance(
            n, (ast.ClassDef, ast.FunctionDef))], [])))
        out += [(name, c) for name, node in owners for c in ast.walk(node)
                if isinstance(c, ast.Call)]
    return out


def test_partitions_have_one_checked_and_one_unchecked_way_in():
    # the checked Partition(...) runs only at the boundaries that take
    # blocks from outside (the JSONL reader's two paths and the blind
    # search); the program's own producers build through the
    # unchecked Partition._canonical; and only _canonical and _aut_map call
    # _Frozen.__init__ directly, past a class's own checks
    calls = _calls_by_owner()

    def owners(test):
        return {name for name, c in calls if test(c.func)}

    assert owners(lambda f: getattr(f, "id", None) == "Partition") == {
        "theories._partition_from_lists", "theories._partition_from_text",
        "bruteforce.brute_force_enumerate"}
    assert owners(lambda f: getattr(f, "attr", None) == "_canonical") == {
        "constructions._orbit_partition", "constructions._products", "constructions._lift",
        "theories.restriction", "theories.induced_character_partition",
        "theories.Partition.discrete", "theories.maximal_theory"}
    assert owners(lambda f: getattr(f, "attr", None) == "__init__"
                  and getattr(f.value, "id", None) == "_Frozen") == {
        "theories.Partition._canonical", "groups._aut_map"}


@pytest.mark.parametrize("cls,fields,values", CASES, ids=_ids(CASES))
def test_repr_names_every_field(cls, fields, values):
    # parametrized test ids render groups with str(), so this form is pinned
    args = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values()))
    assert str(cls(*values())) == repr(cls(*values())) == f"{cls.__name__}({args})"


@pytest.mark.parametrize("cls,fields,values", HASHED, ids=_ids(HASHED))
def test_equal_objects_hash_equal(cls, fields, values):
    a, b = _pair(cls, fields, values)
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    # the hash of the field tuple, on which the iteration order of sets rests
    assert hash(a) == hash(tuple(getattr(a, f) for f in fields))


def test_count_report_stays_unhashable_on_every_call():
    report = predicted_counts(5)
    for _ in range(2):
        with pytest.raises(TypeError):
            hash(report)
    assert "_hash" not in vars(report)


def test_every_value_class_is_covered():
    found, stack = set(), [groups._Value]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if not sub.__name__.startswith("_"):
                found.add(sub)
    assert found == {c[0] for c in CASES}


def test_exported_value_classes_are_the_cases():
    # a value class exported later must join CASES, and so every check here
    exported = {getattr(supercharacters, name) for name in supercharacters.__all__}
    value_classes = {c for c in exported if isinstance(c, type) and issubclass(c, groups._Value)}
    assert value_classes == {c[0] for c in CASES}


@pytest.mark.parametrize("cls,fields,values", FROZEN, ids=_ids(FROZEN))
def test_fields_cannot_be_assigned_or_deleted(cls, fields, values):
    a = cls(*values())
    for f, v in zip(fields, values()):
        with pytest.raises(AttributeError):
            setattr(a, f, v)
        with pytest.raises(AttributeError):
            delattr(a, f)
        assert getattr(a, f) == v


def test_unequal_values_and_classes_compare_unequal():
    g, image = GroupSpec((2, 2)), tuple(range(4))
    assert SubgroupEmbedding(g, image) != SubgroupEmbedding(g, image[::-1])
    # equal fields, different classes
    assert SubgroupEmbedding(g, image) != QuotientMap(g, image)
    assert Partition(3, ((0,), (1, 2))) != Partition(3, ((0,), (1,), (2,)))


def test_cached_properties_work_on_frozen_objects():
    part = Partition(3, [[0], [2, 1]])
    assert part.block_of == (0, 1, 1)
    assert part.block_of is part.block_of
    g = _group()
    assert g.elements is g.elements and len(g.elements) == 12


def test_count_report_with_a_dict_field_is_unhashable():
    report = predicted_counts(5)
    with pytest.raises(TypeError):
        hash(report)


def test_theory_record_is_mutable_and_unhashable():
    rec = TheoryRecord(maximal_theory(_group()))
    with pytest.raises(TypeError):
        hash(rec)
    # omitted tags and provenance are fresh per record
    other = TheoryRecord(rec.theory)
    assert rec.tags is not other.tags and rec.provenance is not other.provenance
    rec.tags.add("maximal")
    rec.theory = minimal_theory(_group())
    assert rec != other
    assert rec.theory == minimal_theory(_group()) and other.tags == set()


def test_count_report_json_keeps_the_printed_key_order(capsys):
    assert cli.main(["count", "--p", "5", "--json"]) == 0
    printed = json.loads(capsys.readouterr().out)
    report = predicted_counts(5)
    data = report.to_json()
    assert list(data) == list(printed) == [
        "p", "k", "l", "n", "total", "automorphic", "direct", "overlap",
        "wedge", "maximal", "predicted"]
    assert data == printed
    # the predicted counts are a copy, as the JSON form must not alias them
    assert data["predicted"] == report.predicted
    assert data["predicted"] is not report.predicted
