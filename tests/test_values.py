"""The value classes: constructors, field-wise equality and hashing, repr,
frozen fields, the mutable TheoryRecord, and CountReport's JSON form."""

import json

import pytest

from supercharacters import (
    AutMap,
    Character,
    CountReport,
    Element,
    GroupSpec,
    Partition,
    QuotientMap,
    Subgroup,
    SubgroupEmbedding,
    Theory,
    TheoryRecord,
    Violation,
    WedgeSpec,
    cli,
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
    (Element, ("exps",), lambda: (tuple([1, 0, 1]),)),
    (Character, ("exps",), lambda: (tuple([2, 1, 0]),)),
    (GroupSpec, ("factors",), lambda: (tuple([3, 2, 2]),)),
    (Subgroup, ("group", "members", "generators"),
     lambda: (_group(), tuple(range(4)), tuple([1, 2]))),
    (SubgroupEmbedding, ("parent", "group", "to_parent"),
     lambda: (_group(), GroupSpec((2, 2)), tuple(range(4)))),
    (QuotientMap, ("source", "group", "projection"),
     lambda: (_group(), GroupSpec((3,)), tuple(i >> 2 for i in range(12)))),
    (AutMap, ("group", "gen_images"),
     lambda: (_group(), ((1, 0, 0), (0, 1, 0), (0, 0, 1)))),
    (Partition, ("size", "blocks"), lambda: (3, (tuple([0]), tuple([1, 2])))),
    (Theory, ("group", "classes", "charparts"),
     lambda: (_group(), Partition.discrete(12), Partition.discrete(12))),
    (Violation, ("condition", "witness", "message"),
     lambda: (3, tuple([0, 1, 2]), "sigma differs")),
    (WedgeSpec, ("n", "inner", "outer"),
     lambda: (_group().subgroup(range(4)), minimal_theory(GroupSpec((2, 2))),
              maximal_theory(GroupSpec((3,))))),
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
    assert Element((1, 0, 1)) != Element((0, 0, 1))
    assert Element((1, 0, 1)) != Character((1, 0, 1))
    assert Partition(3, ((0,), (1, 2))) != Partition(3, ((0,), (1,), (2,)))


def test_cached_properties_work_on_frozen_objects():
    part = Partition.from_blocks([[0], [2, 1]], 3)
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
