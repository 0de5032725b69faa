"""The result records are frozen named tuples with fixed fields."""

import pytest

from girthbound import bounds, constructions, graphcore, search

# Field names in order, as they were when the records were dataclasses.
FIELDS = {
    bounds.CubicDiagnostics: ("s", "p", "D"),
    bounds.BoundReport: ("v", "w", "girth_target", "values", "binding"),
    graphcore.GirthReport: ("girth", "has_c4", "has_c6"),
    search.SearchCertificate: (
        "v", "w", "min_girth", "e_max", "witness", "exhaustive", "nodes_explored", "elapsed",
    ),
}


def records():
    return [
        bounds.cubic_discriminant(5, 5),
        bounds.bound_report(10, 4, 8),
        graphcore.girth(constructions.wq_incidence(2)),
        search.max_size(5, 5, 8),
    ]


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_fields_keep_their_order(record):
    assert type(record)._fields == FIELDS[type(record)]
    assert tuple(record._asdict()) == FIELDS[type(record)]
    assert tuple(record) == tuple(getattr(record, name) for name in FIELDS[type(record)])


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_records_are_frozen(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        record.extra = 0


def test_properties_still_work():
    report = bounds.bound_report(10, 4, 8)
    assert (report.binding, report.binding_value) == ("cap", 14)
    assert search.max_size(5, 5, 8).optimality == "bound"
    assert search.max_size(6, 7, 8).optimality == "exhaustive"
    assert search.max_size(6, 7, 8, max_nodes=50).optimality == "none"
