"""Units for the completed-result LRU and the canonical job keying."""

from __future__ import annotations

import json

import pytest

from repro.errors import ServeError
from repro.serve.cache import ResultCache
from repro.serve.jobspec import canonicalize_job
from tests.serve.conftest import FAST_OPTIONS, make_blif


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache(4)
        assert cache.get("k") is None
        cache.put("k", "{}")
        assert cache.get("k") == "{}"
        assert cache.stats() == {
            "entries": 1, "max_entries": 4,
            "hits": 1, "misses": 1, "hit_rate": 0.5,
        }

    def test_eviction_is_least_recently_used(self):
        cache = ResultCache(2)
        cache.put("a", "1")
        cache.put("b", "2")
        assert cache.get("a") == "1"  # refresh a's recency
        cache.put("c", "3")  # evicts b, not a
        assert "b" not in cache
        assert cache.peek("a") == "1"
        assert cache.peek("c") == "3"

    def test_peek_does_not_touch_counters_or_recency(self):
        cache = ResultCache(2)
        cache.put("a", "1")
        cache.put("b", "2")
        assert cache.peek("a") == "1"
        cache.put("c", "3")  # a is still oldest: peek kept recency
        assert "a" not in cache
        assert cache.hits == 0 and cache.misses == 0

    def test_zero_capacity_never_stores(self):
        cache = ResultCache(0)
        cache.put("a", "1")
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(-1)


class TestCanonicalKeying:
    def test_syntactic_variants_share_a_key(self):
        blif = make_blif(5)
        spec = canonicalize_job({"blif": blif, "options": FAST_OPTIONS})
        # Same netlist with noise: comments, blank lines, CRLF endings.
        noisy = "# a comment\n\n" + blif.replace("\n", "\n\n")
        spec2 = canonicalize_job({"blif": noisy, "options": FAST_OPTIONS})
        assert spec.key == spec2.key
        assert spec.blif == spec2.blif

    def test_default_options_are_filled_in(self):
        blif = make_blif(5)
        explicit = canonicalize_job({"blif": blif, "options": {}})
        implicit = canonicalize_job({"blif": blif})
        assert explicit.key == implicit.key
        assert json.loads(explicit.options_json)["num_patterns"] > 0

    def test_different_options_change_the_key(self):
        blif = make_blif(5)
        base = canonicalize_job({"blif": blif, "options": FAST_OPTIONS})
        other = canonicalize_job({"blif": blif, "options": dict(
            FAST_OPTIONS, num_patterns=FAST_OPTIONS["num_patterns"] * 2,
        )})
        assert base.key != other.key

    def test_spec_roundtrips_to_canonical_text(self):
        blif = make_blif(5)
        spec = canonicalize_job({
            "blif": blif,
            "spec": "  powder( max_rounds = 2 )  ",
            "options": FAST_OPTIONS,
        })
        tight = canonicalize_job({
            "blif": blif,
            "spec": "powder(max_rounds=2)",
            "options": FAST_OPTIONS,
        })
        assert spec.key == tight.key
        assert spec.spec == tight.spec

    @pytest.mark.parametrize("payload, code", [
        ({}, "bad-blif"),
        ({"blif": ""}, "bad-blif"),
        ({"blif": 7}, "bad-blif"),
        ({"blif": "not blif at all"}, "bad-blif"),
        ({"blif": "x", "options": {"bogus_knob": 1}}, "bad-options"),
        ({"blif": "x", "options": "nope"}, "bad-options"),
        ({"blif": "x", "spec": "no_such_pass()"}, "bad-spec"),
        ({"blif": "x", "spec": 9}, "bad-spec"),
        ({"blif": "x", "options": {"candidates": {"max_total": -3000}}},
         "bad-options"),
        ({"blif": "x", "options": {"candidates": {"max_per_target": -1}}},
         "bad-options"),
        ({"blif": "x",
          "options": {"candidates": {"pair_source_limit": -2}}},
         "bad-options"),
        ({"blif": "x", "options": {"num_patterns": 100}}, "bad-options"),
        ({"blif": "x", "options": {"max_moves": -2}}, "bad-options"),
        ({"blif": "x", "options": {"max_rounds": 0}}, "bad-options"),
        # Deleted option fields are unknown fields.
        ({"blif": "x", "options": {"backtrack_limit": 20000}},
         "bad-options"),
        ({"blif": "x", "options": {"self_check": True}}, "bad-options"),
        ({"blif": "x", "options": {"verbose": True}}, "bad-options"),
        ({"blif": "x", "options": {"dedupe_first": True}}, "bad-options"),
        ({"blif": "x", "options": {"window_verify": True}}, "bad-options"),
        # A net driven by two gates is malformed BLIF.
        ({"blif": ".inputs a b\n.outputs y\n.gate and2 a=a b=b O=y\n"
                  ".gate or2 a=a b=b O=y\n"}, "bad-blif"),
    ])
    def test_rejections_are_structured_400s(self, payload, code):
        with pytest.raises(ServeError) as excinfo:
            canonicalize_job(payload)
        assert excinfo.value.status == 400
        assert excinfo.value.code == code
