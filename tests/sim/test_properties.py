"""Property-based tests on the simulation kernel's core invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Kernel
from repro.sim.monitor import SampleSeries, TimeWeightedValue
from repro.sim.store import Store


@given(
    delays=st.lists(
        st.floats(
            min_value=0.0,
            max_value=1e6,
            allow_nan=False,
            allow_infinity=False,
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=60, deadline=None)
def test_time_is_monotone_for_any_timeout_set(delays):
    """Processing any set of timeouts never moves the clock backwards
    and ends at the maximum delay."""
    kernel = Kernel()
    observed = []

    def watcher(k, delay):
        yield k.timeout(delay)
        observed.append(k.now)

    for delay in delays:
        kernel.process(watcher(kernel, delay))
    kernel.run()
    assert observed == sorted(observed)
    assert kernel.now == max(delays)


@given(
    holds=st.lists(
        st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=25,
    ),
    capacity=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=60, deadline=None)
def test_resource_never_exceeds_capacity(holds, capacity):
    """Concurrent users of a capacity-N token store never exceed N;
    everyone eventually runs, and every token comes back."""
    kernel = Kernel()
    slots = Store(kernel)
    for token in range(capacity):
        slots.put(token)
    active = TimeWeightedValue(kernel)
    served = []
    peak = [0]

    def user(k, duration, tag):
        token = yield slots.get()
        active.add(1)
        peak[0] = max(peak[0], int(active.value))
        yield k.timeout(duration)
        active.add(-1)
        slots.put(token)
        served.append(tag)

    for index, duration in enumerate(holds):
        kernel.process(user(kernel, duration, index))
    kernel.run()
    assert peak[0] <= capacity
    assert sorted(served) == list(range(len(holds)))
    assert sorted(slots.items) == list(range(capacity))


@given(
    items=st.lists(st.integers(), min_size=0, max_size=50),
)
@settings(max_examples=60, deadline=None)
def test_store_conserves_items(items):
    """Everything put into a store comes out exactly once, in order."""
    kernel = Kernel()
    store = Store(kernel)
    received = []

    def producer(k):
        for item in items:
            yield store.put(item)

    def consumer(k):
        for _ in range(len(items)):
            value = yield store.get()
            received.append(value)

    kernel.process(producer(kernel))
    kernel.process(consumer(kernel))
    kernel.run()
    assert received == items
    assert store.size == 0


@given(
    ops=st.lists(st.booleans(), min_size=0, max_size=40),
    capacity=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
)
@settings(max_examples=80, deadline=None)
def test_store_never_idles_a_waiter_it_could_serve(ops, capacity):
    """Under any interleaving of puts (True) and gets (False): the store
    stays within capacity, gets receive items in put order, and no put
    or get is left waiting while the store could serve it."""
    kernel = Kernel()
    store = Store(kernel, capacity=capacity)
    puts = []
    gets = []

    def check():
        assert capacity is None or store.size <= capacity
        waiting_puts = [put for put in puts if not put.triggered]
        waiting_gets = [get for get in gets if not get.triggered]
        assert not (waiting_gets and store.size)
        assert not (waiting_puts and waiting_gets)
        if capacity is not None and waiting_puts:
            assert store.size == capacity

    def driver(k):
        for index, is_put in enumerate(ops):
            if is_put:
                puts.append(store.put(index))
            else:
                gets.append(store.get())
            check()
            yield k.timeout(1.0)

    kernel.process(driver(kernel))
    kernel.run()
    check()
    put_items = [index for index, is_put in enumerate(ops) if is_put]
    received = [get.value for get in gets if get.triggered]
    assert received == put_items[: len(received)]
    assert len(received) == min(len(put_items), len(gets))
    accepted = [put.item for put in puts if put.triggered]
    assert received + store.items == accepted


@given(
    holds=st.lists(
        st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
        min_size=1,
        max_size=20,
    ),
    capacity=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_token_store_never_hands_out_a_held_token(holds, capacity):
    """In a capacity-N token store no token is held by two users at
    once: a token is handed out again only after it was put back."""
    kernel = Kernel()
    slots = Store(kernel)
    for token in range(capacity):
        slots.put(token)
    held = set()

    def user(k, duration):
        token = yield slots.get()
        assert token not in held
        held.add(token)
        yield k.timeout(duration)
        held.discard(token)
        slots.put(token)

    for duration in holds:
        kernel.process(user(kernel, duration))
    kernel.run()
    assert held == set()
    assert sorted(slots.items) == list(range(capacity))


@given(
    steps=st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
            st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=60, deadline=None)
def test_time_weighted_integral_matches_manual_sum(steps):
    """The monitored integral equals the hand-computed rectangle sum."""
    kernel = Kernel()
    monitor = TimeWeightedValue(kernel, initial=0.0)
    expected = 0.0
    current = 0.0
    now = 0.0

    def proc(k):
        for delay, value in steps:
            yield k.timeout(delay)
            monitor.set(value)

    kernel.process(proc(kernel))
    kernel.run()
    for delay, value in steps:
        expected += current * delay
        current = value
        now += delay
    assert abs(monitor.integral() - expected) <= 1e-6 * max(
        1.0, abs(expected)
    )


@given(
    samples=st.lists(
        st.floats(
            min_value=-1e6,
            max_value=1e6,
            allow_nan=False,
            allow_infinity=False,
        ),
        min_size=1,
        max_size=100,
    ),
    q=st.floats(min_value=0.0, max_value=100.0),
)
@settings(max_examples=80, deadline=None)
def test_percentile_within_sample_range(samples, q):
    """Percentiles always lie inside [min, max] and are monotone in q."""
    series = SampleSeries()
    for sample in samples:
        series.record(sample)
    value = series.percentile(q)
    assert min(samples) <= value <= max(samples)
    assert series.percentile(0) == min(samples)
    assert series.percentile(100) == max(samples)
