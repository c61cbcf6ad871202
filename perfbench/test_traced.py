"""Checks of the traced run's recorder and of the span reduction."""

import sys
import threading

import layers
import traced


def test_recorder_loses_no_update_across_threads():
    recorder = traced.Recorder()
    work = recorder.counted("calls", recorder.spanned("layer", lambda: None))
    threads_n, calls_n = 8, 2000

    # All threads alive at once, so no two of them share a thread id.
    start = threading.Barrier(threads_n)

    def hammer():
        start.wait(timeout=30)
        for _ in range(calls_n):
            work()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    dump = recorder.dump()
    assert dump["counters"]["calls"] == threads_n * calls_n
    assert len(dump["spans"]) == threads_n * calls_n
    assert len({span[1] for span in dump["spans"]}) == threads_n
    assert all(span[3] is not None for span in dump["spans"])


def test_nested_calls_into_one_layer_record_one_span():
    recorder = traced.Recorder()
    inner = recorder.spanned("layer", lambda: None)
    outer = recorder.spanned("layer", lambda: inner())
    child = recorder.spanned("other", lambda: None)
    recorder.spanned("layer", lambda: (outer(), child()))()
    names = [(span[0], span[4]) for span in recorder.dump()["spans"]]
    assert names == [("layer", None), ("other", 0)]


def test_classmethods_stay_classmethods_when_wrapped():
    class Parser:
        @classmethod
        def parse(cls, text):
            return cls, text

    recorder = traced.Recorder()
    traced._patch_own(recorder, Parser, "parse",
                      lambda f: recorder.spanned("parse", f), "Parser")
    assert Parser.parse("x") == (Parser, "x")
    assert [span[0] for span in recorder.dump()["spans"]] == ["parse"]


def test_summarize_self_time_and_unattributed_share():
    trace = {
        "command": [0.0, 10.0],
        "spans": [
            ["core.iter", 1, 1.0, 9.0, None],
            ["engine.transport.wait", 1, 2.0, 5.0, 0],
            ["setsystem.shards.decode", 2, 2.0, 4.0, None],
            ["offline.solve", 1, 6.0, 7.0, 0],
        ],
    }
    summary = layers.summarize(trace)
    assert summary["self"]["core.iter"] == 4.0
    assert summary["busy"]["setsystem.shards.decode"] == 2.0
    assert abs(summary["unattributed_frac"] - 0.2) < 1e-12
