"""Per-rule fixtures for the determinism & contract analyzer.

Every shipped rule gets three fixtures, per the DESIGN §15 policy:

* a **true positive** — a minimal snippet the rule must fire on,
* a **suppressed** variant — the same snippet silenced with
  ``# lint: ignore[RULE]``,
* a **false-positive guard** — the closest *correct* idiom, which the
  rule must stay silent on.

Fixtures are linted in memory via :func:`repro.lint.lint_sources`, so
the tests are hermetic and fast.  The S-series cross-artifact rules get
miniature fake modules impersonating the real artifact paths.
"""

from __future__ import annotations

import textwrap

from repro.lint import lint_sources
from repro.lint.registry import all_rules, get_rule, rule_ids


def run(source, path="pkg/mod.py", module="repro.fake.mod", only=(), extra=None):
    sources = {path: textwrap.dedent(source)}
    modules = {path: module}
    if extra:
        for extra_path, (extra_src, extra_mod) in extra.items():
            sources[extra_path] = textwrap.dedent(extra_src)
            modules[extra_path] = extra_mod
    report = lint_sources(sources, only=only, modules=modules)
    assert not report.parse_errors, report.parse_errors
    return report.findings


def rules_fired(findings):
    return {f.rule for f in findings}


# ---------------------------------------------------------------------------
# registry basics
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_all_three_families_ship(self):
        ids = rule_ids()
        assert {"D101", "D102", "D103", "D104", "D105"} <= set(ids)
        assert {"P201", "P202"} <= set(ids)
        assert {"S302", "S303", "S304"} <= set(ids)
        assert "S301" not in ids

    def test_every_rule_has_summary_and_rationale(self):
        for rule in all_rules():
            assert rule.summary, rule.id
            assert rule.rationale, rule.id
            assert rule.scope in ("file", "project")

    def test_get_rule_unknown_raises(self):
        try:
            get_rule("Z999")
        except KeyError as err:
            assert "Z999" in str(err)
        else:  # pragma: no cover - failure path
            raise AssertionError("expected KeyError")


# ---------------------------------------------------------------------------
# D101: wall-clock
# ---------------------------------------------------------------------------


class TestD101WallClock:
    def test_fires_on_time_time(self):
        findings = run(
            """
            import time

            def step(sim):
                return time.time()
            """
        )
        assert "D101" in rules_fired(findings)

    def test_fires_on_datetime_now_and_from_import(self):
        findings = run(
            """
            from time import perf_counter
            import datetime

            def stamp():
                return datetime.datetime.now()
            """
        )
        d101 = [f for f in findings if f.rule == "D101"]
        assert len(d101) == 2  # the import and the call

    def test_suppressed(self):
        findings = run(
            """
            import time

            def measure():
                return time.perf_counter()  # lint: ignore[D101]
            """
        )
        assert "D101" not in rules_fired(findings)

    def test_allowed_in_transport_and_bench_modules(self):
        source = """
            import time

            def origin():
                return time.monotonic()
            """
        assert "D101" not in rules_fired(
            run(source, module="repro.transport.clock")
        )
        assert "D101" not in rules_fired(
            run(source, module="repro.perf.bench")
        )

    def test_false_positive_guard_virtual_clock(self):
        findings = run(
            """
            def fire(sim):
                now = sim.now  # virtual clock: the only legal time source
                sim.schedule(0.5, lambda: None)
                return now
            """
        )
        assert "D101" not in rules_fired(findings)


# ---------------------------------------------------------------------------
# D102: module-level randomness
# ---------------------------------------------------------------------------


class TestD102GlobalRandom:
    def test_fires_on_global_draw(self):
        findings = run(
            """
            import random

            def jitter():
                return random.uniform(0.0, 1.0)
            """
        )
        assert "D102" in rules_fired(findings)

    def test_fires_on_from_import_and_seed(self):
        findings = run(
            """
            from random import shuffle
            import random

            def reset():
                random.seed(0)
            """
        )
        assert len([f for f in findings if f.rule == "D102"]) == 2

    def test_suppressed(self):
        findings = run(
            """
            import random

            def jitter():
                return random.random()  # lint: ignore[D102]
            """
        )
        assert "D102" not in rules_fired(findings)

    def test_false_positive_guard_seeded_instance(self):
        findings = run(
            """
            import random

            def make_rng(seed):
                rng = random.Random(seed)
                return rng.uniform(0.0, 1.0)
            """
        )
        assert "D102" not in rules_fired(findings)

    def test_numpy_global_flagged_seeded_constructor_allowed(self):
        findings = run(
            """
            import numpy as np

            def draw(seed):
                good = np.random.RandomState(seed).random_sample(4)
                bad = np.random.random_sample(4)
                return good, bad
            """
        )
        assert len([f for f in findings if f.rule == "D102"]) == 1


# ---------------------------------------------------------------------------
# D103: set iteration
# ---------------------------------------------------------------------------


class TestD103SetIteration:
    def test_fires_on_for_over_set_literal(self):
        findings = run(
            """
            def drain(a, b, c):
                for item in {a, b, c}:
                    print(item)
            """
        )
        assert "D103" in rules_fired(findings)

    def test_fires_on_list_of_set_and_tracked_local(self):
        findings = run(
            """
            def emit(pending):
                ready = set(pending)
                return list(ready)
            """
        )
        assert "D103" in rules_fired(findings)

    def test_fires_on_comprehension_over_set_call(self):
        findings = run(
            """
            def order(xs):
                return [x + 1 for x in set(xs)]
            """
        )
        assert "D103" in rules_fired(findings)

    def test_suppressed(self):
        findings = run(
            """
            def drain(xs):
                for item in set(xs):  # lint: ignore[D103]
                    print(item)
            """
        )
        assert "D103" not in rules_fired(findings)

    def test_false_positive_guard_sorted_and_folds(self):
        findings = run(
            """
            def safe(xs, d):
                for item in sorted(set(xs)):
                    print(item)
                total = sum({x for x in xs})
                hit = 3 in set(xs)
                for key in d:  # dicts preserve insertion order
                    print(key)
                return total, hit, len(set(xs)), max(set(xs))
            """
        )
        assert "D103" not in rules_fired(findings)

    def test_false_positive_guard_reassigned_local(self):
        findings = run(
            """
            def safe(xs):
                items = set(xs)
                items = sorted(items)  # rebound to a list: no longer a set
                return list(items)
            """
        )
        assert "D103" not in rules_fired(findings)


# ---------------------------------------------------------------------------
# D104: float == on timestamps
# ---------------------------------------------------------------------------


class TestD104FloatTimeEquality:
    def test_fires_on_two_timestamps(self):
        findings = run(
            """
            def stale(timer, sim):
                return timer.deadline == sim.now
            """
        )
        assert "D104" in rules_fired(findings)

    def test_fires_on_timestamp_vs_fractional_literal(self):
        findings = run(
            """
            def at_checkpoint(sim):
                return sim.now != 2.5
            """
        )
        assert "D104" in rules_fired(findings)

    def test_suppressed(self):
        findings = run(
            """
            def stale(timer, sim):
                return timer.deadline == sim.now  # lint: ignore[D104]
            """
        )
        assert "D104" not in rules_fired(findings)

    def test_false_positive_guard_ordering_and_sentinels(self):
        findings = run(
            """
            def ok(timer, sim, count):
                before = timer.deadline <= sim.now
                fresh = sim.now == 0.0  # whole-number sentinel: exact
                n = count == 3  # ints compare exactly
                return before, fresh, n
            """
        )
        assert "D104" not in rules_fired(findings)


# ---------------------------------------------------------------------------
# D105: id()/hash() ordering
# ---------------------------------------------------------------------------


class TestD105IdHashOrder:
    def test_fires_on_id_sort_key(self):
        findings = run(
            """
            def order(events):
                return sorted(events, key=id)
            """
        )
        assert "D105" in rules_fired(findings)

    def test_fires_on_hash_in_key_lambda_and_comparison(self):
        findings = run(
            """
            def order(events, a, b):
                events.sort(key=lambda e: (hash(e), e))
                return id(a) < id(b)
            """
        )
        assert len([f for f in findings if f.rule == "D105"]) == 2

    def test_suppressed(self):
        findings = run(
            """
            def order(events):
                return sorted(events, key=id)  # lint: ignore[D105]
            """
        )
        assert "D105" not in rules_fired(findings)

    def test_false_positive_guard_stable_keys(self):
        findings = run(
            """
            def order(events, a, b):
                dedup = hash(a) == hash(b)  # equality is fine, order is not
                return sorted(events, key=lambda e: (e.time, e.seq)), dedup
            """
        )
        assert "D105" not in rules_fired(findings)


# ---------------------------------------------------------------------------
# P201: pool targets
# ---------------------------------------------------------------------------


class TestP201PoolTarget:
    def test_fires_on_lambda(self):
        findings = run(
            """
            def fan_out(pool, items):
                return pool.map(lambda x: x + 1, items)
            """
        )
        assert "P201" in rules_fired(findings)

    def test_fires_on_nested_function(self):
        findings = run(
            """
            def fan_out(executor, items):
                def work(x):
                    return x + 1
                return [executor.submit(work, x) for x in items]
            """
        )
        assert "P201" in rules_fired(findings)

    def test_fires_on_bound_method_and_lambda_name(self):
        findings = run(
            """
            run_one = lambda x: x  # noqa: E731

            class Sweep:
                def go(self, pool, items):
                    futures = [pool.submit(self.execute, x) for x in items]
                    return futures, pool.map(run_one, items)
            """
        )
        assert len([f for f in findings if f.rule == "P201"]) == 2

    def test_suppressed(self):
        findings = run(
            """
            def fan_out(pool, items):
                return pool.map(lambda x: x + 1, items)  # lint: ignore[P201]
            """
        )
        assert "P201" not in rules_fired(findings)

    def test_false_positive_guard_top_level_fn(self):
        findings = run(
            """
            import functools

            def work(x, scale):
                return x * scale

            def fan_out(pool, items):
                futures = [pool.submit(work, x) for x in items]
                mapped = pool.map(functools.partial(work, scale=2), items)
                return futures, mapped
            """
        )
        assert "P201" not in rules_fired(findings)

    def test_false_positive_guard_non_pool_receiver(self):
        findings = run(
            """
            def render(series, items):
                return series.map(lambda x: x + 1)  # not a process pool
            """
        )
        assert "P201" not in rules_fired(findings)


# ---------------------------------------------------------------------------
# P202: worker global mutation
# ---------------------------------------------------------------------------


class TestP202WorkerGlobals:
    def test_fires_on_global_statement(self):
        findings = run(
            """
            _HITS = 0

            def work(x):
                global _HITS
                _HITS += 1
                return x

            def fan_out(pool, items):
                return pool.map(work, items)
            """
        )
        assert "P202" in rules_fired(findings)

    def test_fires_on_module_dict_mutation(self):
        findings = run(
            """
            _CACHE = {}

            def work(x):
                _CACHE[x] = x + 1
                return _CACHE[x]

            def fan_out(pool, items):
                return pool.map(work, items)
            """
        )
        assert "P202" in rules_fired(findings)

    def test_suppressed(self):
        findings = run(
            """
            _CACHE = {}

            def work(x):
                _CACHE[x] = x + 1  # lint: ignore[P202]
                return _CACHE[x]

            def fan_out(pool, items):
                return pool.map(work, items)
            """
        )
        assert "P202" not in rules_fired(findings)

    def test_false_positive_guard_local_shadow_and_reads(self):
        findings = run(
            """
            _TABLE = {"a": 1}

            def work(x):
                table = {}
                table[x] = _TABLE["a"]  # reading a module global is fine
                return table

            def fan_out(pool, items):
                return pool.map(work, items)
            """
        )
        assert "P202" not in rules_fired(findings)

    def test_false_positive_guard_mutation_outside_worker(self):
        findings = run(
            """
            _CACHE = {}

            def work(x):
                return x + 1

            def fan_out(pool, items):
                results = pool.map(work, items)
                for key, value in zip(items, results):
                    _CACHE[key] = value  # parent-side memoization: fine
                return results
            """
        )
        assert "P202" not in rules_fired(findings)


# ---------------------------------------------------------------------------
# S302: timer seam duck-safety
# ---------------------------------------------------------------------------


class TestS302TimerSeam:
    def test_fires_on_direct_invocation(self):
        findings = run(
            """
            def arm(sim, timer):
                sim.timer_observer("arm", timer)
            """
        )
        assert "S302" in rules_fired(findings)

    def test_suppressed(self):
        findings = run(
            """
            def arm(sim, timer):
                sim.timer_observer("arm", timer)  # lint: ignore[S302]
            """
        )
        assert "S302" not in rules_fired(findings)

    def test_false_positive_guard_getattr_pattern_and_factory(self):
        findings = run(
            """
            def arm(sim, timer, recorder):
                observer = getattr(sim, "timer_observer", None)
                if observer is not None:
                    observer("arm", timer)
                sim.timer_observer = recorder.timer_observer()  # factory
            """
        )
        assert "S302" not in rules_fired(findings)


# ---------------------------------------------------------------------------
# S304: instance dicts stay unmaterialized
# ---------------------------------------------------------------------------


class TestS304InstanceDict:
    def test_fires_on_vars_and_dunder_dict(self):
        findings = run(
            """
            def snapshot(sender):
                patched = "submit" in vars(sender)
                sender.__dict__["schedule"] = None
                return patched
            """
        )
        s304 = [f for f in findings if f.rule == "S304"]
        assert [f.line for f in s304] == [3, 4]

    def test_suppressed(self):
        findings = run(
            """
            def snapshot(sender):
                patched = "submit" in vars(sender)  # lint: ignore[S304]
                sender.__dict__["schedule"] = None  # lint: ignore[S304]
                return patched
            """
        )
        assert "S304" not in rules_fired(findings)

    def test_false_positive_guard_class_namespace_and_bare_vars(self):
        findings = run(
            """
            def snapshot(sender):
                patched = "submit" in type(sender).__dict__
                local_names = vars()
                return patched, getattr(sender, "submit", None), local_names
            """
        )
        assert "S304" not in rules_fired(findings)


# ---------------------------------------------------------------------------
# S303: obs schema conformance (fake schema module fixtures)
# ---------------------------------------------------------------------------

_SCHEMA_PATH = "src/repro/obs/schema.py"
_SCHEMA_MOD = "repro.obs.schema"

_FAKE_SCHEMA = """
    _FIELDS = {
        "span": {
            "seq": (int, False),
            "state": (str, False),
        },
        "meta": {
            "schema": (str, False),
        },
    }
    _OPTIONAL_FIELDS = {
        "span": {
            "flow": (int, False),
        },
        "meta": {},
    }
    """


def run_emitter(source):
    return run(
        source,
        path="src/repro/obs/emitter.py",
        module="repro.obs.emitter",
        only=("S303",),
        extra={_SCHEMA_PATH: (_FAKE_SCHEMA, _SCHEMA_MOD)},
    )


class TestS303SchemaConformance:
    def test_fires_on_unpinned_literal_field(self):
        findings = run_emitter(
            """
            def as_record(span):
                return {"type": "span", "seq": span.seq, "wobble": 1}
            """
        )
        assert any(
            f.rule == "S303" and "wobble" in f.message for f in findings
        )

    def test_fires_on_unpinned_subscript_field(self):
        findings = run_emitter(
            """
            def as_record(span):
                record = {"type": "span", "seq": span.seq}
                record["surprise"] = 2
                return record
            """
        )
        assert any(
            f.rule == "S303" and "surprise" in f.message for f in findings
        )

    def test_suppressed(self):
        findings = run_emitter(
            """
            def as_record(span):
                return {"type": "span", "seq": span.seq, "wobble": 1}  # lint: ignore[S303]
            """
        )
        assert "S303" not in rules_fired(findings)

    def test_false_positive_guard_pinned_and_untyped_dicts(self):
        findings = run_emitter(
            """
            def as_record(span):
                record = {"type": "span", "seq": span.seq, "state": "acked"}
                record["flow"] = 1  # pinned as optional
                config = {"type": "calendar", "buckets": 8}  # not a record type
                return record, config
            """
        )
        assert "S303" not in rules_fired(findings)

    def test_silent_when_schema_module_absent(self):
        findings = run(
            """
            def as_record(span):
                return {"type": "span", "wobble": 1}
            """,
            only=("S303",),
        )
        assert not findings


# ---------------------------------------------------------------------------
# suppression mechanics
# ---------------------------------------------------------------------------


class TestSuppressions:
    def test_bare_ignore_silences_all_rules(self):
        findings = run(
            """
            import time

            def f(pool, xs):
                t = time.time()  # lint: ignore
                return t
            """
        )
        assert not findings

    def test_named_ignore_only_silences_named_rule(self):
        findings = run(
            """
            import time
            import random

            def f():
                return time.time() + random.random()  # lint: ignore[D101]
            """
        )
        assert rules_fired(findings) == {"D102"}

    def test_suppression_must_be_on_the_finding_line(self):
        findings = run(
            """
            import time

            # lint: ignore[D101]
            def f():
                return time.time()
            """
        )
        assert "D101" in rules_fired(findings)
