"""Prepared statements: plan-once/re-bind, memoisation, generation invalidation."""

import pytest

import repro
from repro.api import connect
from repro.hermes.mod import MOD
from repro.sql.plan import QuTPlan, S2TPlan


@pytest.fixture
def conn(lanes_small):
    mod, _ = lanes_small
    connection = connect()
    connection.engine.load_mod("lanes", mod)
    return connection


class TestPrepare:
    def test_plan_built_once_and_parameterised(self, conn):
        stmt = conn.prepare("SELECT QUT(lanes, :wi, :we)")
        assert isinstance(stmt.plan, QuTPlan)
        assert stmt.parameters() == (":wi", ":we")

    def test_rebind_produces_fresh_results(self, conn, lanes_small):
        mod, _ = lanes_small
        period = mod.period
        stmt = conn.prepare("SELECT COUNT(*) FROM lanes WHERE t >= :t0")
        all_rows = stmt.execute({"t0": period.tmin - 1}).fetchall()
        late_rows = stmt.execute({"t0": (period.tmin + period.tmax) / 2}).fetchall()
        assert all_rows[0]["count"] == mod.total_points
        assert 0 < late_rows[0]["count"] < all_rows[0]["count"]

    def test_matches_one_shot_sql(self, conn, lanes_small):
        mod, _ = lanes_small
        period = mod.period
        stmt = conn.prepare("SELECT QUT(lanes, :wi, :we)")
        prepared = stmt.execute({"wi": period.tmin, "we": period.tmax}).fetchall()
        one_shot = conn.execute(
            f"SELECT QUT(lanes, {period.tmin}, {period.tmax})"
        ).fetchall()
        assert prepared == one_shot

    def test_identical_bindings_are_memoised(self, conn):
        stmt = conn.prepare("SELECT COUNT(*) FROM lanes WHERE t >= :t0")
        first = stmt.execute({"t0": 0.0}).fetchall()
        assert stmt._cache  # memoised
        again = stmt.execute({"t0": 0.0}).fetchall()
        assert again == first

    def test_ddl_statements_never_memoised(self, conn):
        stmt = conn.prepare("CREATE DATASET once")
        stmt.execute().fetchall()
        assert "once" in conn.engine.datasets()
        conn.engine.drop("once")
        stmt.execute().fetchall()  # re-executes, not served from cache
        assert "once" in conn.engine.datasets()

    def test_explain_renders_placeholders(self, conn):
        stmt = conn.prepare("SELECT S2T(lanes, :sigma)")
        text = stmt.explain()
        assert ":sigma" in text
        assert "artifacts[lanes]" in text

    def test_prepared_explain_statement_executes_unbound(self, conn):
        stmt = conn.prepare("EXPLAIN SELECT QUT(lanes, :wi, :we)")
        rows = stmt.execute().fetchall()
        assert ":wi" in rows[0]["plan"]

    def test_unhashable_binding_skips_memoisation_not_crash(self, conn):
        from repro.sql.errors import SQLExecutionError

        stmt = conn.prepare("SELECT S2T(lanes, :sigma)")
        # A list is unhashable (no cache key) and not numeric: the executor's
        # type validation must surface, never a TypeError from the cache.
        with pytest.raises(SQLExecutionError, match="numeric"):
            stmt.execute({"sigma": [1.0, 2.0]})
        assert not stmt._cache

    def test_mutating_fetched_rows_does_not_corrupt_cache(self, conn):
        stmt = conn.prepare("SELECT COUNT(*) FROM lanes WHERE t >= :t0")
        first = stmt.execute({"t0": 0.0}).fetchall()
        original = first[0]["count"]
        first[0]["count"] = -1  # caller mutates their copy
        again = stmt.execute({"t0": 0.0}).fetchall()
        assert again[0]["count"] == original

    def test_scans_stream_and_are_not_memoised(self, conn, lanes_small):
        mod, _ = lanes_small
        stmt = conn.prepare("SELECT obj_id, t FROM lanes WHERE t >= :t0")
        cur = stmt.execute({"t0": 0.0})
        total = 0
        while page := cur.fetchmany(25):
            total += len(page)
        assert total == mod.total_points
        assert cur.max_buffered <= 25  # streamed, not preloaded
        assert not stmt._cache

    def test_prepared_clustering_updates_last_result_like_one_shot(
        self, conn, lanes_small
    ):
        """A prepared S2T must re-execute (not cache): running it sets
        engine.last_result exactly like the uncached statement sequence."""
        mod, _ = lanes_small
        period = mod.period
        stmt = conn.prepare("SELECT S2T(lanes)")
        stmt.execute()
        conn.dataset("lanes").qut(
            period.tmin + 0.6 * period.duration, period.tmax
        ).run()
        stmt.execute()  # must run S2T again, making it the last result
        histogram = conn.execute("SELECT CLUSTER_HISTOGRAM(lanes, 8)").fetchall()
        conn.dataset("lanes").s2t().run()
        assert histogram == conn.execute("SELECT CLUSTER_HISTOGRAM(lanes, 8)").fetchall()

    def test_cluster_histogram_not_memoised_across_last_result_changes(
        self, conn, lanes_small
    ):
        mod, _ = lanes_small
        period = mod.period
        conn.dataset("lanes").s2t().run()
        stmt = conn.prepare("SELECT CLUSTER_HISTOGRAM(lanes, :bins)")
        s2t_histogram = stmt.execute({"bins": 8}).fetchall()
        # A QuT run replaces the dataset's last clustering result without
        # bumping the generation; the histogram must follow it.
        conn.dataset("lanes").qut(
            period.tmin + 0.6 * period.duration, period.tmax
        ).run()
        qut_histogram = stmt.execute({"bins": 8}).fetchall()
        assert qut_histogram != s2t_histogram

    def test_iterator_bindings_keyed_by_value_not_collapsed(self, conn, lanes_small):
        """One-shot iterables must be normalised before binding drains them."""
        mod, _ = lanes_small
        period = mod.period
        stmt = conn.prepare("SELECT COUNT(*) FROM lanes WHERE t >= ?")
        none = stmt.execute(iter([period.tmax + 1])).fetchall()
        everything = stmt.execute(iter([period.tmin - 1])).fetchall()
        assert none == [{"count": 0}]
        assert everything == [{"count": mod.total_points}]

    def test_cache_is_fifo_capped(self, conn):
        from repro.api import _PREPARED_CACHE_SIZE

        stmt = conn.prepare("SELECT COUNT(*) FROM lanes WHERE t >= :t0")
        for i in range(_PREPARED_CACHE_SIZE + 5):
            stmt.execute({"t0": float(i)})
        assert len(stmt._cache) <= _PREPARED_CACHE_SIZE


class TestGenerationInvalidation:
    def test_rebind_after_load_mod_replacement_recomputes(self, conn, lanes_small):
        """Replacing the dataset must invalidate memoised results."""
        mod, _ = lanes_small
        stmt = conn.prepare("SELECT COUNT(*) FROM lanes WHERE t >= :t0")
        before = stmt.execute({"t0": 0.0}).fetchall()
        assert before[0]["count"] == mod.total_points
        conn.engine.load_mod("lanes", MOD(name="lanes"))  # now empty
        after = stmt.execute({"t0": 0.0}).fetchall()
        assert after == [{"count": 0}]

    def test_rebind_after_drop_and_reload_recomputes(self, conn, lanes_small):
        mod, _ = lanes_small
        stmt = conn.prepare("SELECT COUNT(*) FROM lanes WHERE t >= :t0")
        full = stmt.execute({"t0": 0.0}).fetchall()
        conn.execute("DROP DATASET lanes")
        half = MOD(name="lanes", trajectories=mod.trajectories()[: len(mod) // 2])
        conn.engine.load_mod("lanes", half)
        recomputed = stmt.execute({"t0": 0.0}).fetchall()
        assert recomputed[0]["count"] == half.total_points
        assert recomputed != full

    def test_s2t_prepared_recomputes_after_replacement(self, conn, lanes_small):
        mod, _ = lanes_small
        stmt = conn.prepare("SELECT S2T(lanes, NULL, NULL, :gamma)")
        assert isinstance(stmt.plan, S2TPlan)
        before = stmt.execute({"gamma": 2}).fetchall()
        assert before[-1]["cluster_id"] == "outliers"
        half = MOD(name="lanes", trajectories=mod.trajectories()[: len(mod) // 3])
        conn.engine.load_mod("lanes", half)
        after = stmt.execute({"gamma": 2}).fetchall()
        # Recomputed over the smaller dataset: member totals must shrink.
        assert sum(r["members"] for r in after) < sum(r["members"] for r in before)


class TestWarmColdBitIdentity:
    def test_prepared_matches_one_shot_on_warm_and_cold_engines(
        self, tmp_path, lanes_small
    ):
        """Acceptance: prepared execution == one-shot SQL, warm and cold."""
        mod, _ = lanes_small
        period = mod.period
        wi = period.tmin + 0.2 * period.duration
        we = period.tmin + 0.8 * period.duration

        warm = repro.connect(tmp_path / "store")
        warm.engine.load_mod("lanes", mod)
        stmt = warm.prepare("SELECT QUT(lanes, :wi, :we)")
        warm_prepared = stmt.execute({"wi": wi, "we": we}).fetchall()
        warm_one_shot = warm.execute(f"SELECT QUT(lanes, {wi}, {we})").fetchall()
        assert warm_prepared == warm_one_shot
        warm.close()

        cold = repro.connect(tmp_path / "store")
        cold_stmt = cold.prepare("SELECT QUT(lanes, :wi, :we)")
        cold_prepared = cold_stmt.execute({"wi": wi, "we": we}).fetchall()
        cold_one_shot = cold.execute(f"SELECT QUT(lanes, {wi}, {we})").fetchall()
        assert cold_prepared == cold_one_shot
        assert cold_prepared == warm_prepared
        cold.close()
