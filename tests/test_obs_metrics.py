"""Counters, gauges, histograms, and the registry's rendering."""

import math

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("events")
        assert c.value == 0
        c.inc()
        c.inc(41)
        assert c.value == 42

    def test_rejects_negative_increments(self):
        with pytest.raises(ValueError):
            Counter("events").inc(-1)


class TestGauge:
    def test_starts_nan_then_tracks_last_set(self):
        g = Gauge("occupancy")
        assert math.isnan(g.value)
        g.set(3.5)
        g.set(2.0)
        assert g.value == 2.0


class TestHistogram:
    def test_bucketing_and_mean(self):
        h = Histogram("lat", bounds=(1, 10, 100))
        for v in (0.5, 5, 5, 50, 500):
            h.observe(v)
        assert h.count == 5
        assert h.mean == pytest.approx((0.5 + 5 + 5 + 50 + 500) / 5)

    def test_quantiles_have_bucket_resolution(self):
        h = Histogram("lat", bounds=(1, 10, 100))
        for _ in range(99):
            h.observe(5)
        h.observe(50)
        assert h.quantile(0.5) <= 10
        assert h.quantile(0.99) <= 10
        assert h.quantile(1.0) <= 100

    def test_empty_quantile_is_nan(self):
        assert math.isnan(Histogram("lat").quantile(0.5))


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")

    def test_name_collision_across_types_is_an_error(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_registry_rejects_whitespace_names(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name")
        with pytest.raises(ValueError):
            reg.gauge("")

    def test_snapshot_and_render(self):
        reg = MetricsRegistry()
        reg.counter("events.write").inc(10)
        reg.gauge("run.wa").set(3.5)
        reg.histogram("occ").observe(4)
        snap = reg.snapshot()
        assert snap["events.write"] == 10
        assert snap["run.wa"] == 3.5
        rendered = reg.render()
        assert "events.write" in rendered
        assert "run.wa" in rendered
        assert "occ" in rendered


class TestCounterEdges:
    def test_help_is_kept(self):
        assert Counter("events", help="store events").help == "store events"

    def test_fractional_and_zero_increments(self):
        c = Counter("bytes")
        c.inc(0)
        c.inc(0.25)
        assert c.snapshot() == 0.25

    def test_rejected_increment_leaves_value_unchanged(self):
        c = Counter("events")
        c.inc(3)
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-0.5)
        assert c.value == 3


class TestGaugeEdges:
    def test_goes_down_and_below_zero(self):
        g = Gauge("backlog")
        g.set(5.0)
        g.set(-2.0)
        assert g.snapshot() == -2.0

    def test_unset_snapshot_is_nan(self):
        assert math.isnan(Gauge("ratio").snapshot())


class TestHistogramEdges:
    @pytest.mark.parametrize("bounds", [(), (10.0, 1.0), (1.0, 5.0, 2.0)])
    def test_rejects_empty_or_unsorted_bounds(self, bounds):
        with pytest.raises(ValueError, match="sorted, non-empty"):
            Histogram("lat", bounds=bounds)

    def test_bounds_become_a_float_tuple(self):
        h = Histogram("lat", bounds=[1, 2, 3])
        assert h.bounds == (1.0, 2.0, 3.0)
        assert all(isinstance(b, float) for b in h.bounds)
        assert h.bucket_counts == [0, 0, 0, 0]

    def test_overflow_lands_in_the_implicit_inf_bucket(self):
        h = Histogram("lat", bounds=(1.0, 2.0))
        h.observe(0.5)
        h.observe(100.0)
        assert h.bucket_counts == [1, 0, 1]
        assert sum(h.bucket_counts) == h.count

    def test_quantile_above_the_last_bound_is_inf(self):
        h = Histogram("lat", bounds=(1.0,))
        h.observe(100.0)
        assert h.quantile(0.99) == math.inf
        assert h.snapshot()["p99"] == math.inf

    @pytest.mark.parametrize("q", [-0.01, 1.01])
    def test_quantile_outside_unit_interval_raises(self, q):
        with pytest.raises(ValueError, match="quantile"):
            Histogram("lat").quantile(q)

    def test_empty_snapshot_counts_zero_and_nan_statistics(self):
        snap = Histogram("lat").snapshot()
        assert set(snap) == {"count", "sum", "mean", "p50", "p99", "p999"}
        assert snap["count"] == 0.0 and snap["sum"] == 0.0
        assert all(math.isnan(snap[k]) for k in ("mean", "p50", "p99", "p999"))

    def test_snapshot_matches_observations(self):
        h = Histogram("lat", bounds=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 50.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4.0
        assert snap["sum"] == pytest.approx(105.5)
        assert snap["mean"] == pytest.approx(105.5 / 4)
        assert snap["p50"] == 10.0
        assert snap["p999"] == 100.0


class TestRegistryEdges:
    def test_get_contains_and_len(self):
        reg = MetricsRegistry()
        assert reg.get("a") is None and "a" not in reg and len(reg) == 0
        counter = reg.counter("a")
        reg.histogram("h")
        assert reg.get("a") is counter
        assert "a" in reg and "h" in reg
        assert len(reg) == 2

    def test_histogram_is_get_or_create_too(self):
        reg = MetricsRegistry()
        first = reg.histogram("h", bounds=(1.0, 2.0))
        assert reg.histogram("h") is first
        assert first.bounds == (1.0, 2.0)

    def test_histogram_collides_with_counter(self):
        reg = MetricsRegistry()
        reg.histogram("x")
        with pytest.raises(TypeError, match="Histogram"):
            reg.counter("x")

    @pytest.mark.parametrize("name", ["tab\tname", "line\nbreak", "nul\x00", " lead"])
    def test_unprintable_or_spaced_names_are_rejected(self, name):
        with pytest.raises(ValueError, match="invalid metric name"):
            MetricsRegistry().histogram(name)

    @pytest.mark.parametrize("name", ["events.write", "ns:metric", "9p.latency", "a_b"])
    def test_dotted_coloned_and_digit_names_are_accepted(self, name):
        reg = MetricsRegistry()
        reg.counter(name).inc()
        assert reg.snapshot() == {name: 1.0}

    def test_snapshot_is_sorted_and_stable(self):
        reg = MetricsRegistry()
        reg.gauge("z.last").set(1.0)
        reg.counter("a.first").inc(2)
        reg.histogram("m.mid", bounds=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert list(snap) == ["a.first", "m.mid", "z.last"]
        assert reg.snapshot() == snap
        assert reg.render() == reg.render()

    def test_render_formats_each_kind(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(1234.5)
        reg.gauge("g")
        h = reg.histogram("h", bounds=(1.0, 10.0))
        h.observe(5.0)
        lines = reg.render().splitlines()
        assert lines[0].split() == ["c", "1,234.50"]
        assert lines[1].split() == ["g", "nan"]
        assert lines[2].split() == ["h", "count=1", "mean=5.00", "p50=10", "p99=10", "p999=10"]
        assert all(len(line.split()[0]) <= 40 and line[40] == " " for line in lines)

    def test_render_of_an_empty_registry_is_empty(self):
        assert MetricsRegistry().render() == ""
        assert MetricsRegistry().snapshot() == {}
