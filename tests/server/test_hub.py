"""EventHub contract: sequencing, resume, bounded queues, thread safety."""

import asyncio
import contextlib
import threading

import pytest

from repro.server.hub import EventHub


def _drain(subscription):
    got = []
    while True:
        try:
            entry = subscription.get_nowait()
        except asyncio.QueueEmpty:
            return got
        if entry is None:
            return got
        got.append(entry)


@contextlib.contextmanager
def _counting_wakeups(loop):
    """Record every callback handed to ``loop.call_soon_threadsafe``."""
    scheduled = []
    real = loop.call_soon_threadsafe

    def counting(callback, *args, **kwargs):
        scheduled.append(callback)
        return real(callback, *args, **kwargs)

    loop.call_soon_threadsafe = counting
    try:
        yield scheduled
    finally:
        del loop.call_soon_threadsafe


class TestSequencing:
    def test_publish_stamps_monotonic_sequences(self):
        async def main():
            hub = EventHub()
            hub.bind(asyncio.get_running_loop())
            assert [hub.publish({"n": i}) for i in range(5)] == [1, 2, 3, 4, 5]
            assert hub.latest_seq == 5

        asyncio.run(main())

    def test_live_delivery_in_order(self):
        async def main():
            hub = EventHub()
            hub.bind(asyncio.get_running_loop())
            sub = hub.subscribe()
            for i in range(4):
                hub.publish({"n": i})
            got = [await asyncio.wait_for(sub.get(), 5) for _ in range(4)]
            assert [seq for seq, _ in got] == [1, 2, 3, 4]
            assert [event["n"] for _, event in got] == [0, 1, 2, 3]
            sub.close()

        asyncio.run(main())


class TestResume:
    def test_subscribe_since_replays_only_newer(self):
        async def main():
            hub = EventHub()
            hub.bind(asyncio.get_running_loop())
            for i in range(6):
                hub.publish({"n": i})
            sub = hub.subscribe(since=4)
            got = [await sub.get() for _ in range(2)]
            assert [seq for seq, _ in got] == [5, 6]
            # ...and live events continue after the backlog.
            hub.publish({"n": 6})
            seq, _ = await asyncio.wait_for(sub.get(), 5)
            assert seq == 7
            sub.close()

        asyncio.run(main())

    def test_resume_older_than_history_starts_at_oldest_retained(self):
        async def main():
            hub = EventHub(history=3)
            hub.bind(asyncio.get_running_loop())
            for i in range(10):
                hub.publish({"n": i})
            sub = hub.subscribe(since=0)
            got = [await sub.get() for _ in range(3)]
            assert [seq for seq, _ in got] == [8, 9, 10]
            sub.close()

        asyncio.run(main())

    def test_since_inside_a_wrapped_history_replays_only_newer(self):
        async def main():
            hub = EventHub(history=3)
            hub.bind(asyncio.get_running_loop())
            for i in range(10):
                hub.publish({"n": i})
            sub = hub.subscribe(since=8)
            got = _drain(sub)
            assert [seq for seq, _ in got] == [9, 10]
            assert [event["n"] for _, event in got] == [8, 9]
            sub.close()

        asyncio.run(main())

    @pytest.mark.parametrize("since", [5, 6, 50])
    def test_since_at_or_past_the_latest_replays_nothing(self, since):
        async def main():
            hub = EventHub(history=3)
            hub.bind(asyncio.get_running_loop())
            for i in range(5):
                hub.publish({"n": i})
            sub = hub.subscribe(since=since)
            assert _drain(sub) == []
            # Live delivery still starts right after the latest.
            hub.publish({"n": 5})
            seq, _ = await asyncio.wait_for(sub.get(), 5)
            assert seq == 6
            sub.close()

        asyncio.run(main())

    def test_no_gap_between_snapshot_and_live(self):
        # Subscribing while a publisher thread hammers the hub must not
        # lose or duplicate any sequence number at the backlog/live seam.
        async def main():
            hub = EventHub(history=10_000, queue_maxsize=10_000)
            loop = asyncio.get_running_loop()
            hub.bind(loop)
            total = 3000

            def pump():
                for _ in range(total):
                    hub.publish({"x": 1})

            thread = threading.Thread(target=pump)
            thread.start()
            try:
                await asyncio.sleep(0.005)
                sub = hub.subscribe(since=0)
            finally:
                await loop.run_in_executor(None, thread.join)
            await asyncio.sleep(0.05)  # let queued fan-out callbacks run
            seqs = [seq for seq, _ in _drain(sub)]
            assert seqs, "nothing delivered"
            assert seqs == sorted(set(seqs)), "duplicates or disorder"
            assert seqs == list(range(seqs[0], seqs[-1] + 1)), "gap at seam"
            assert seqs[-1] == total
            sub.close()

        asyncio.run(main())


class TestBoundedQueues:
    def test_slow_consumer_drops_oldest_first(self):
        async def main():
            hub = EventHub(queue_maxsize=3)
            loop = asyncio.get_running_loop()
            hub.bind(loop)
            sub = hub.subscribe()
            with _counting_wakeups(loop) as scheduled:
                for i in range(10):
                    hub.publish({"n": i})
                await asyncio.sleep(0.05)
            assert len(scheduled) == 1  # one burst, over 3x the bound
            got = _drain(sub)
            assert [seq for seq, _ in got] == [8, 9, 10]
            assert sub.dropped == 7
            assert hub.stats()["dropped"] == 7
            sub.close()

        asyncio.run(main())

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            EventHub(history=0)
        with pytest.raises(ValueError):
            EventHub(queue_maxsize=0)


def _batch(n, first=0):
    """A ``candidates`` event carrying ``n`` stand-in summaries."""
    return {
        "type": "candidates",
        "job_id": "job-0001",
        "candidates": [{"si": float(i)} for i in range(first, first + n)],
    }


def _retained_candidates(entries):
    return sum(
        len(event["candidates"]) if event.get("type") == "candidates" else 1
        for _, event in entries
    )


class TestWeightedHistory:
    def test_history_counts_candidates_across_batches(self):
        async def main():
            hub = EventHub(history=10)
            hub.bind(asyncio.get_running_loop())
            for i in range(5):
                hub.publish(_batch(4, first=4 * i))
                hub.publish({"type": "iteration", "n": i})
            retained = _drain(hub.subscribe(since=0))
            assert _retained_candidates(retained) <= 10
            # Oldest first: what is left is the newest tail, contiguous.
            assert [seq for seq, _ in retained] == [7, 8, 9, 10]
            assert hub.stats()["retained"] == 4
            hub.close()

        asyncio.run(main())

    def test_newest_entry_is_kept_when_one_batch_exceeds_the_bound(self):
        async def main():
            hub = EventHub(history=10)
            hub.bind(asyncio.get_running_loop())
            hub.publish({"type": "iteration", "n": 0})
            hub.publish(_batch(25))
            retained = _drain(hub.subscribe(since=0))
            assert [seq for seq, _ in retained] == [2]
            assert len(retained[0][1]["candidates"]) == 25
            # The next event evicts the oversized batch again.
            hub.publish({"type": "iteration", "n": 1})
            assert [seq for seq, _ in _drain(hub.subscribe(since=0))] == [3]
            hub.close()

        asyncio.run(main())

    @pytest.mark.parametrize("since", [0, 7, 8, 10, 11])
    def test_since_replays_exactly_the_retained_newer_entries(self, since):
        async def main():
            hub = EventHub(history=10)
            hub.bind(asyncio.get_running_loop())
            for i in range(4):  # seqs 1-8: batches of 3, then iterations
                hub.publish(_batch(3))
                hub.publish({"type": "iteration", "n": i})
            hub.publish(_batch(6))  # seq 9
            hub.publish({"type": "iteration", "n": 4})
            hub.publish({"type": "job", "n": 5})
            # Weights from the newest: 1 + 1 + 6 + 1 = 9; seq 7's batch
            # of 3 would make 12, so seqs 8-11 are what is retained.
            sub = hub.subscribe(since=since)
            replayed = [seq for seq, _ in _drain(sub)]
            assert replayed == [seq for seq in (8, 9, 10, 11) if seq > since]
            # Live delivery continues right after the latest.
            hub.publish({"type": "iteration", "n": 6})
            seq, _ = await asyncio.wait_for(sub.get(), 5)
            assert seq == 12
            sub.close()
            hub.close()

        asyncio.run(main())


class TestThreadSafety:
    def test_concurrent_publishers_never_tear_the_sequence(self):
        async def main():
            hub = EventHub(history=10_000, queue_maxsize=10_000)
            hub.bind(asyncio.get_running_loop())
            sub = hub.subscribe()

            def worker(k):
                for i in range(100):
                    hub.publish({"k": k, "i": i})

            threads = [
                threading.Thread(target=worker, args=(k,)) for k in range(4)
            ]
            for thread in threads:
                thread.start()
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: [t.join() for t in threads]
            )
            await asyncio.sleep(0.1)
            got = _drain(sub)
            seqs = [seq for seq, _ in got]
            assert len(got) == 400
            assert seqs == list(range(1, 401))
            assert hub.latest_seq == 400
            sub.close()

        asyncio.run(main())


class TestShutdown:
    def test_close_wakes_blocked_subscribers(self):
        async def main():
            hub = EventHub()
            hub.bind(asyncio.get_running_loop())
            sub = hub.subscribe()

            async def closer():
                await asyncio.sleep(0.02)
                hub.close()

            task = asyncio.ensure_future(closer())
            assert await asyncio.wait_for(sub.get(), 5) is None
            await task

        asyncio.run(main())

    def test_publish_after_close_is_inert(self):
        async def main():
            hub = EventHub()
            hub.bind(asyncio.get_running_loop())
            latest = hub.publish({"n": 0})
            hub.close()
            assert hub.publish({"n": 1}) == latest
            assert hub.latest_seq == latest

        asyncio.run(main())

    def test_subscribe_after_close_ends_immediately(self):
        async def main():
            hub = EventHub()
            hub.bind(asyncio.get_running_loop())
            hub.close()
            sub = hub.subscribe()
            assert await asyncio.wait_for(sub.get(), 5) is None

        asyncio.run(main())


class TestJobFilteredSubscriptions:
    def test_foreign_floods_cannot_evict_a_filtered_jobs_events(self):
        async def main():
            hub = EventHub(queue_maxsize=3)
            hub.bind(asyncio.get_running_loop())
            sub = hub.subscribe(job_id="job-0002")
            # A flood from another job far beyond the queue bound...
            for i in range(50):
                hub.publish({"job_id": "job-0001", "n": i})
            # ...then this job's few events.
            mine = [hub.publish({"job_id": "job-0002", "n": i}) for i in range(2)]
            await asyncio.sleep(0.05)
            got = _drain(sub)
            # Only the filtered job's events entered the queue: nothing
            # was dropped, despite 50 foreign events against maxsize 3.
            assert [seq for seq, _ in got] == mine
            assert sub.dropped == 0
            sub.close()

        asyncio.run(main())

    def test_filtered_backlog_replay(self):
        async def main():
            hub = EventHub()
            hub.bind(asyncio.get_running_loop())
            hub.publish({"job_id": "a", "n": 0})
            keep = hub.publish({"job_id": "b", "n": 1})
            hub.publish({"job_id": "a", "n": 2})
            sub = hub.subscribe(since=0, job_id="b")
            seq, event = await sub.get()
            assert (seq, event["n"]) == (keep, 1)
            sub.close()

        asyncio.run(main())


class TestBursts:
    def test_back_to_back_publishes_wake_the_loop_once(self):
        async def main():
            hub = EventHub()
            loop = asyncio.get_running_loop()
            hub.bind(loop)
            sub = hub.subscribe()
            with _counting_wakeups(loop) as scheduled:
                # The loop thread blocks in join(), so nothing flushes
                # while the worker publishes: all 50 form one burst.
                thread = threading.Thread(
                    target=lambda: [hub.publish({"n": i}) for i in range(50)]
                )
                thread.start()
                thread.join(10)
                assert not thread.is_alive()
                await asyncio.sleep(0.05)
            assert len(scheduled) == 1
            got = _drain(sub)
            assert [seq for seq, _ in got] == list(range(1, 51))
            assert [event["n"] for _, event in got] == list(range(50))
            sub.close()

        asyncio.run(main())

    def test_subscriber_joining_before_the_flush_gets_the_entry_once(self):
        async def main():
            hub = EventHub()
            hub.bind(asyncio.get_running_loop())
            early = hub.subscribe()
            seq = hub.publish({"n": 0})  # in the outbox, not yet flushed
            asking = hub.subscribe(since=seq - 1)
            fresh = hub.subscribe()
            await asyncio.sleep(0.05)  # the flush runs
            # From the backlog only: never a second time live.
            assert [s for s, _ in _drain(asking)] == [seq]
            assert _drain(fresh) == []
            assert [s for s, _ in _drain(early)] == [seq]
            later = hub.publish({"n": 1})
            await asyncio.sleep(0.05)
            for sub in (early, asking, fresh):
                assert [s for s, _ in _drain(sub)] == [later]
                sub.close()

        asyncio.run(main())

    def test_close_between_publish_and_its_wakeup_still_delivers_first(self):
        async def main():
            hub = EventHub()
            loop = asyncio.get_running_loop()
            hub.bind(loop)
            sub = hub.subscribe()
            real = loop.call_soon_threadsafe

            def close_first(callback, *args):
                # close() lands after publish queued its entry but before
                # publish woke the loop, so the loop gets close's
                # callback first.
                if callback == hub._flush:
                    loop.call_soon_threadsafe = real
                    hub.close()
                return real(callback, *args)

            loop.call_soon_threadsafe = close_first
            try:
                seq = hub.publish({"n": 0})
            finally:
                del loop.call_soon_threadsafe
            assert await asyncio.wait_for(sub.get(), 5) == (seq, {"n": 0})
            assert await asyncio.wait_for(sub.get(), 5) is None

        asyncio.run(main())
