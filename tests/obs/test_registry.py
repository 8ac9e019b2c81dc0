"""MetricsRegistry: families, labels, histograms, export schema."""

from __future__ import annotations

import json

import pytest

from repro.errors import HCompressError
from repro.obs import MetricsRegistry
from repro.obs.registry import (
    DEFAULT_BYTES_BUCKETS,
    DEFAULT_RATIO_BUCKETS,
)


class TestCounter:
    def test_unlabeled_inc(self) -> None:
        reg = MetricsRegistry()
        c = reg.counter("c_total", "help")
        c.inc()
        c.inc(2.5)
        assert reg.value("c_total") == 3.5

    def test_labeled_series_are_independent(self) -> None:
        reg = MetricsRegistry()
        c = reg.counter("tier_total", "", ("tier",))
        c.labels(tier="ram").inc(3)
        c.labels(tier="pfs").inc(1)
        assert reg.value("tier_total", tier="ram") == 3
        assert reg.value("tier_total", tier="pfs") == 1
        assert c.value == 4  # family total sums every series

    def test_negative_increment_rejected(self) -> None:
        c = MetricsRegistry().counter("c_total")
        with pytest.raises(HCompressError, match="only increase"):
            c.inc(-1)

    def test_set_supports_mirror_sync(self) -> None:
        reg = MetricsRegistry()
        c = reg.counter("mirrored_total")
        c.set(41)
        c.set(42)  # overwrite, not accumulate
        assert reg.value("mirrored_total") == 42

    def test_unlabeled_access_on_labeled_family_rejected(self) -> None:
        c = MetricsRegistry().counter("c_total", "", ("tier",))
        with pytest.raises(HCompressError, match="use .labels"):
            c.inc()

    def test_label_name_mismatch_rejected(self) -> None:
        c = MetricsRegistry().counter("c_total", "", ("tier",))
        with pytest.raises(HCompressError, match="do not match"):
            c.labels(codec="zlib")


class TestSeriesLookup:
    def test_positional_and_keyword_lookups_are_one_series(self) -> None:
        c = MetricsRegistry().counter("io_total", "", ("tier", "op"))
        series = c.labels("ram", "write")
        assert c.labels(tier="ram", op="write") is series
        assert c.labels(op="write", tier="ram") is series  # any kw order
        assert c.labels("write", "ram") is not series  # declared order rules
        assert [labels for labels, _ in c.series_items()] == [
            {"tier": "ram", "op": "write"},
            {"tier": "write", "op": "ram"},
        ]

    def test_int_and_str_values_land_on_one_series(self) -> None:
        reg = MetricsRegistry()
        c = reg.counter("shipped_total", "", ("shard",))
        c.labels(3).inc()
        c.labels("3").inc()
        c.labels(shard=3).inc()
        assert reg.value("shipped_total", shard="3") == 3
        assert len(list(c.series_items())) == 1

    def test_wrong_arity_rejected(self) -> None:
        c = MetricsRegistry().counter("io_total", "", ("tier", "op"))
        for values in ((), ("ram",), ("ram", "write", "extra")):
            with pytest.raises(HCompressError, match="do not match"):
                c.labels(*values)
        with pytest.raises(HCompressError, match="do not match"):
            c.labels("ram", op="write")  # positional or keyword, not both

    def test_wrong_label_name_rejected_even_after_first_use(self) -> None:
        reg = MetricsRegistry()
        labeled = reg.counter("c_total", "", ("tier",))
        labeled.labels("ram").inc()
        with pytest.raises(HCompressError, match="do not match"):
            labeled.labels(codec="ram")
        bare = reg.counter("bare_total")
        bare.inc()  # binds the only series
        with pytest.raises(HCompressError, match="do not match"):
            bare.labels(tier="ram")

    def test_label_less_family_binds_its_series_once(self) -> None:
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1.0,))
        assert reg.collect()["metrics"]["h"]["series"] == []  # not yet used
        h.observe(0.5)
        h.observe(2.0)
        assert h.labels() is h._default()
        assert h.labels().counts == [1, 1]

    def test_labeled_counter_series_refuses_negative(self) -> None:
        c = MetricsRegistry().counter("c_total", "", ("tier",))
        with pytest.raises(HCompressError, match="only increase"):
            c.labels("ram").inc(-1)


class TestGauge:
    def test_set_inc_dec(self) -> None:
        reg = MetricsRegistry()
        g = reg.gauge("g")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert reg.value("g") == 13


class TestHistogram:
    def test_bucket_counts_and_overflow(self) -> None:
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1.0, 10.0))
        for v in (0.5, 1.0, 5.0, 100.0):
            h.observe(v)
        series = h.labels()
        # 0.5 and 1.0 land in <=1.0, 5.0 in <=10.0, 100.0 overflows.
        assert series.counts == [2, 1, 1]
        assert series.count == 4
        assert series.sum == pytest.approx(106.5)
        assert series.mean == pytest.approx(106.5 / 4)

    def test_unsorted_buckets_rejected(self) -> None:
        with pytest.raises(HCompressError, match="sorted"):
            MetricsRegistry().histogram("h", buckets=(2.0, 1.0))

    def test_value_query_rejected(self) -> None:
        reg = MetricsRegistry()
        reg.histogram("h")
        with pytest.raises(HCompressError, match="histogram"):
            reg.value("h")

    def test_default_bucket_grids(self) -> None:
        assert DEFAULT_RATIO_BUCKETS[0] == 1.0  # incompressible floor
        assert DEFAULT_BYTES_BUCKETS[0] == 4096.0  # the split alignment
        assert list(DEFAULT_BYTES_BUCKETS) == sorted(DEFAULT_BYTES_BUCKETS)


class TestRegistration:
    def test_idempotent_same_declaration(self) -> None:
        reg = MetricsRegistry()
        a = reg.counter("c_total", "", ("tier",))
        b = reg.counter("c_total", "", ("tier",))
        assert a is b

    def test_kind_conflict_rejected(self) -> None:
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(HCompressError, match="re-declared"):
            reg.gauge("m")

    def test_label_conflict_rejected(self) -> None:
        reg = MetricsRegistry()
        reg.counter("m", "", ("tier",))
        with pytest.raises(HCompressError, match="re-declared"):
            reg.counter("m", "", ("codec",))

    def test_unknown_metric_query(self) -> None:
        with pytest.raises(HCompressError, match="no metric"):
            MetricsRegistry().value("nope")

    def test_contains_and_names(self) -> None:
        reg = MetricsRegistry()
        reg.counter("b_total")
        reg.counter("a_total")
        assert "a_total" in reg
        assert "nope" not in reg
        assert reg.names() == ["a_total", "b_total"]


class TestExport:
    def test_collect_schema(self) -> None:
        reg = MetricsRegistry()
        reg.counter("z_total", "zed", ("tier",)).labels(tier="ram").inc(7)
        reg.gauge("a_gauge", "ay").set(1.5)
        reg.histogram("h", "aitch", buckets=(1.0,)).observe(0.5)
        snap = reg.collect()
        assert snap["schema"] == "hcompress.metrics.v1"
        assert list(snap["metrics"]) == ["a_gauge", "h", "z_total"]  # sorted
        fam = snap["metrics"]["z_total"]
        assert fam["type"] == "counter"
        assert fam["labels"] == ["tier"]
        assert fam["series"] == [{"labels": {"tier": "ram"}, "value": 7.0}]
        hist = snap["metrics"]["h"]
        assert hist["buckets"] == [1.0]
        assert hist["series"][0]["counts"] == [1, 0]
        assert hist["series"][0]["count"] == 1

    def test_to_json_round_trips(self) -> None:
        reg = MetricsRegistry()
        reg.counter("c_total").inc()
        parsed = json.loads(reg.to_json())
        assert parsed == reg.collect()
