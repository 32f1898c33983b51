"""Tests for MyriaL's imperative DO...WHILE loops."""

import pytest

from repro.engines.base import udf
from repro.engines.myria import MyriaConnection, MyriaQuery, Relation
from repro.engines.myria.myrial import DoWhile, MyriaLSyntaxError, parse
from repro.obs.spans import PSEUDO_OVERHEAD


@pytest.fixture
def conn(worker_cluster):
    connection = MyriaConnection(worker_cluster)
    rows = [(i, float(2 ** i)) for i in range(8)]
    connection.ingest_relation(
        Relation.from_rows("Values", ("id", "val"), rows), "id", op=PSEUDO_OVERHEAD
    )
    return connection


def test_parse_do_while():
    program = parse(
        """
        T = SCAN(Values);
        DO
            T = [SELECT T.id, T.val FROM T WHERE T.val < 10];
        WHILE T;
        """
    )
    loop = program.statements[1]
    assert isinstance(loop, DoWhile)
    assert loop.condition == "T"
    assert len(loop.body) == 1


def test_parse_do_without_while_rejected():
    with pytest.raises(MyriaLSyntaxError):
        parse("DO T = SCAN(Values);")


def test_parse_empty_do_rejected():
    with pytest.raises(MyriaLSyntaxError):
        parse("DO WHILE T;")


def test_loop_runs_until_empty(conn):
    """Iterative halving: keep rows above 1.0, shrinking each pass."""
    conn.create_function("Halve", udf(lambda v: v / 2.0))
    query = MyriaQuery.submit(
        conn,
        """
        T = SCAN(Values);
        Cur = [FROM T EMIT T.id, T.val];
        DO
            Cur = [FROM Cur EMIT Cur.id, PYUDF(Halve, Cur.val) AS val];
            Big = [SELECT Cur.id, Cur.val FROM Cur WHERE Cur.val >= 1.0];
        WHILE Big;
        """, op=PSEUDO_OVERHEAD,
    )
    rows = dict(query.relation("Cur").rows)
    # Every value was halved until all fell below 1.0.
    assert all(v < 1.0 for v in rows.values())
    assert len(rows) == 8


def test_loop_iteration_count_matches_math(conn):
    """2^7 = 128 needs 8 halvings to drop below 1: the loop's body
    charges simulated time on every iteration."""
    conn.create_function("Halve", udf(lambda v: v / 2.0, cost=lambda v: 0.5))
    t0 = conn.cluster.now
    MyriaQuery.submit(
        conn,
        """
        T = SCAN(Values);
        Cur = [FROM T EMIT T.id, T.val];
        DO
            Cur = [FROM Cur EMIT Cur.id, PYUDF(Halve, Cur.val) AS val];
            Big = [SELECT Cur.id, Cur.val FROM Cur WHERE Cur.val >= 1.0];
        WHILE Big;
        """, op=PSEUDO_OVERHEAD,
    )
    elapsed = conn.cluster.now - t0
    # At least 8 iterations x 0.5 s of per-row UDF time somewhere.
    assert elapsed > 3.0


def test_unknown_while_relation_rejected(conn):
    with pytest.raises(KeyError):
        MyriaQuery.submit(
            conn,
            """
            T = SCAN(Values);
            DO
                Cur = [FROM T EMIT T.id];
            WHILE Nope;
            """, op=PSEUDO_OVERHEAD,
        )


def test_runaway_loop_capped(conn):
    from repro.engines.myria.plan import MyriaServer

    conn.server.MAX_LOOP_ITERATIONS = 5
    with pytest.raises(RuntimeError):
        MyriaQuery.submit(
            conn,
            """
            T = SCAN(Values);
            DO
                Cur = [FROM T EMIT T.id, T.val];
            WHILE Cur;
            """, op=PSEUDO_OVERHEAD,
        )