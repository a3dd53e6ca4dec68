"""A name the sources reuse reaches the view under its latest holder.

The everyday migration ``drop R; rename S -> R`` hands ``R`` to the
relation that was ``S``: VS rewrites a view over ``S`` to read ``R``,
and every later update on ``R`` must reach it.  A history that kept a
dropped name dead forever translated those updates to nothing.
"""

from repro.dyda import DyDaSystem
from repro.relational.schema import RelationSchema
from repro.relational.types import AttributeType
from repro.sources.messages import DataUpdate, DropRelation, RenameRelation
from tests.builders import free_cost_model

R = RelationSchema.of("R", [("k", AttributeType.INT), "a"])
S = RelationSchema.of("S", [("k", AttributeType.INT), "b"])


def test_an_update_on_a_relation_renamed_into_a_dropped_name_is_maintained():
    system = DyDaSystem(cost_model=free_cost_model())
    source = system.add_source("s")
    source.create_relation(R, [(1, "x"), (2, "y")])
    source.create_relation(S, [(1, "p"), (2, "q")])
    system.define_view("CREATE VIEW OverS AS SELECT S.k, S.b FROM s.S S")
    system.schedule(1.0, "s", DropRelation("R"))
    system.schedule(2.0, "s", RenameRelation("S", "R"))
    system.schedule(3.0, "s", DataUpdate.insert(S.renamed("R"), [(3, "r")]))
    system.run()
    report = system.check()
    assert report.consistent, report.summary()
    assert sorted(system.extent().rows()) == [(1, "p"), (2, "q"), (3, "r")]
    assert [ref.relation for ref in system.definition().query.relations] == [
        "R"
    ]
