"""Property-based tests (hypothesis) for the content-addressed cache
key and the cache's eviction bound.

The invariants under test:

* the key is *stable* under specification re-printing — parsing a spec
  from its own canonical text and printing it again never changes the
  key (the printer is a fixpoint);
* the key is *sensitive* to everything that determines a result:
  partition assignment (including its order), model, protocol, seed
  and the code-version salt;
* eviction trims the population to exactly ``capacity`` — never below
  it (the capacity floor);
* a put scans the directory only on the cache's first put and when its
  entry count exceeds ``capacity``, and that scan also settles what
  other writers added.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exec import ResultCache, canonical_partition, canonical_spec_text, job_key
from repro.fuzz.generator import generate_case
from repro.lang.parser import parse

# spec generation dominates example cost; keep the budget small and
# remove the per-example deadline (CI machines vary wildly)
_SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

seeds = st.integers(min_value=0, max_value=2**20)


def _key_for(text, assignment, model="Model4", protocol="handshake", seed=0):
    return job_key(
        "cell",
        {
            "spec": text,
            "partition": assignment,
            "model": model,
            "protocol": protocol,
            "seed": seed,
        },
    )


class TestKeyStability:
    @given(seed=seeds)
    @settings(**_SETTINGS)
    def test_key_invariant_under_reprinting(self, seed):
        case = generate_case(seed)
        text = canonical_spec_text(case.spec)
        # the canonical form is a print fixpoint: text -> parse ->
        # print round-trips to identical bytes, hence identical keys
        assert canonical_spec_text(text) == text
        assert canonical_spec_text(parse(text)) == text
        assignment = canonical_partition(case.partition)
        assert _key_for(text, assignment) == _key_for(
            canonical_spec_text(parse(text)), assignment
        )

    @given(seed=seeds)
    @settings(**_SETTINGS)
    def test_canonical_partition_preserves_order(self, seed):
        case = generate_case(seed)
        pairs = canonical_partition(case.partition)
        assert [name for name, _ in pairs] == list(
            case.partition.assignment
        )


class TestKeySensitivity:
    @given(seed=seeds, other=seeds)
    @settings(**_SETTINGS)
    def test_seed_changes_the_key(self, seed, other):
        case = generate_case(0)
        text = canonical_spec_text(case.spec)
        assignment = canonical_partition(case.partition)
        same = seed == other
        keys_equal = _key_for(text, assignment, seed=seed) == _key_for(
            text, assignment, seed=other
        )
        assert keys_equal == same

    @given(
        model=st.sampled_from(["Model1", "Model2", "Model3", "Model4"]),
        protocol=st.sampled_from(["handshake", "handshake-timeout"]),
    )
    @settings(**_SETTINGS)
    def test_model_and_protocol_change_the_key(self, model, protocol):
        case = generate_case(3)
        text = canonical_spec_text(case.spec)
        assignment = canonical_partition(case.partition)
        base = _key_for(text, assignment, model="Model1", protocol="handshake")
        key = _key_for(text, assignment, model=model, protocol=protocol)
        assert (key == base) == (
            model == "Model1" and protocol == "handshake"
        )

    @given(seed=seeds)
    @settings(**_SETTINGS)
    def test_partition_order_changes_the_key(self, seed):
        """Assignment order steers refinement topology, so a reordered
        partition must key differently even with an equal mapping."""
        case = generate_case(seed)
        text = canonical_spec_text(case.spec)
        pairs = canonical_partition(case.partition)
        if len(pairs) < 2:
            return
        reordered = list(reversed(pairs))
        assert dict(map(tuple, reordered)) == dict(map(tuple, pairs))
        assert _key_for(text, reordered) != _key_for(text, pairs)

    @given(seed=seeds)
    @settings(**_SETTINGS)
    def test_reassignment_changes_the_key(self, seed):
        case = generate_case(seed)
        text = canonical_spec_text(case.spec)
        pairs = canonical_partition(case.partition)
        components = sorted({component for _, component in pairs})
        if len(components) < 2:
            return
        name, component = pairs[0]
        swapped = [[name, next(c for c in components if c != component)]]
        swapped += [list(pair) for pair in pairs[1:]]
        assert _key_for(text, swapped) != _key_for(text, pairs)


class TestEvictionFloor:
    # tempfile instead of the tmp_path fixture: hypothesis reruns the
    # test body per example, but a function-scoped fixture only resets
    # per test, so the directory must be created inside the body

    @given(
        capacity=st.integers(min_value=1, max_value=8),
        puts=st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=30, deadline=None)
    def test_population_never_drops_below_the_floor(self, capacity, puts):
        import tempfile

        with tempfile.TemporaryDirectory() as root:
            cache = ResultCache(root, capacity=capacity)
            for i in range(puts):
                cache.put(job_key("t", {"i": i}, salt="s"), "t", {"i": i})
                # eviction trims to exactly `capacity`, never below
                assert len(cache) == min(i + 1, capacity)
            assert len(cache) == min(puts, capacity)
            assert cache.stats.evictions == max(0, puts - capacity)

    @given(extra=st.integers(min_value=1, max_value=6))
    @settings(max_examples=10, deadline=None)
    def test_oldest_entries_are_the_ones_evicted(self, extra):
        import os
        import tempfile

        with tempfile.TemporaryDirectory() as root:
            cache = ResultCache(root, capacity=3)
            keys = [job_key("t", {"i": i}, salt="s") for i in range(3 + extra)]
            for i, key in enumerate(keys):
                cache.put(key, "t", {"i": i})
                # force a strictly increasing mtime ordering regardless
                # of filesystem timestamp resolution
                os.utime(cache._path(key), ns=(i * 10**9, i * 10**9))
                cache._enforce_capacity()
            assert set(cache.entries()) == set(keys[-3:])


def _counting_scans(cache):
    """Count directory scans: every one goes through ``_aged_entries``."""
    scans = []
    aged_entries = cache._aged_entries

    def counting():
        scans.append(True)
        return aged_entries()

    cache._aged_entries = counting
    return scans


class TestPutCost:
    def test_puts_below_capacity_scan_once(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        scans = _counting_scans(cache)
        for i in range(200):
            cache.put(job_key("t", {"i": i}, salt="s"), "t", {"i": i})
        assert len(scans) == 1
        assert len(cache) == 200
        assert cache.stats.evictions == 0

    def test_second_writer_settles_at_the_next_scan(self, tmp_path):
        root = str(tmp_path / "cache")
        first = ResultCache(root, capacity=4)
        scans = _counting_scans(first)
        first.put(job_key("t", {"i": 0}, salt="s"), "t", {"i": 0})
        second = ResultCache(root, capacity=100)
        for i in range(1, 7):
            second.put(job_key("t", {"i": i}, salt="s"), "t", {"i": i})
        assert len(first) == 7  # over capacity, unseen by `first`
        for i in range(7, 20):
            first.put(job_key("t", {"i": i}, salt="s"), "t", {"i": i})
            if len(scans) == 2:
                break
        assert len(scans) == 2
        assert len(first) == 4
