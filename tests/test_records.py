"""The result records and the graphs are frozen named tuples with fixed fields."""

import copy
import pickle

import pytest

from girthbound import bounds, constructions, graphcore, search

# Field names in order: the records' as they were when they were
# dataclasses, the graphs' as they were when they were slotted classes.
FIELDS = {
    bounds.CubicDiagnostics: ("s", "p", "D"),
    bounds.BoundReport: ("v", "w", "girth_target", "values", "binding"),
    graphcore.GirthReport: ("girth",),
    graphcore.Graph: ("n", "edges"),
    graphcore.BipartiteGraph: ("v", "w", "edges", "adj_v", "adj_w"),
    search.SearchCertificate: (
        "v", "w", "min_girth", "e_max", "witness", "exhaustive", "nodes_explored", "elapsed",
    ),
}


def graphs():
    return [graphcore.contract(constructions.wq_incidence(2)), constructions.wq_incidence(2)]


def records():
    return [
        bounds.cubic_discriminant(5, 5),
        bounds.bound_report(10, 4, 8),
        graphcore.girth(constructions.wq_incidence(2)),
        *graphs(),
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


@pytest.mark.parametrize("g", graphs(), ids=lambda g: type(g).__name__)
def test_graphs_round_trip_through_pickle_and_copy(g):
    # Pickle and copy rebuild a graph from its constructor's arguments.
    for twin in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
        assert type(twin) is type(g)
        assert (twin, hash(twin), repr(twin)) == (g, hash(g), repr(g))
