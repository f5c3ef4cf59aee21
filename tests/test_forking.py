"""forking.stream: one forked child whose arrays come back down a pipe."""

import os
import time

import numpy as np
import pytest

from pesinlab.forking import stream

_fork = os.fork


def _record_forks(monkeypatch):
    """The pids of the children forked from now on."""
    pids = []

    def fork():
        pid = _fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, 0)


def test_no_child_forks_nothing_and_receives_empty_arrays(monkeypatch):
    def fork():
        raise AssertionError("stream forked")

    monkeypatch.setattr(os, "fork", fork)
    with stream(None) as receive:
        for dtype in (np.int64, float, complex):
            arr = receive(dtype)
            assert arr.dtype == dtype and arr.shape == (0,)
        assert receive().dtype == np.int64


def _arrays(seed):
    """int64, float64 and complex128 arrays of several lengths, 0 among
    them, of random bits: NaN payloads, infinities and -0.0 included."""
    rng = np.random.default_rng(seed)
    out = []
    for n in (0, 1, 7, 4096, 100_003):
        bits = rng.integers(-2 ** 63, 2 ** 63 - 1, size=2 * n, dtype=np.int64)
        out += [bits[:n].copy(), bits[n:].view(float),
                bits.view(complex)]
    return out


def test_arrays_of_each_dtype_round_trip_bit_for_bit(monkeypatch):
    forks = _record_forks(monkeypatch)
    sent = _arrays(0)

    def child():
        # two steps, the second in the reverse order
        yield sent
        yield sent[::-1]

    with stream(child) as receive:
        got = [receive(arr.dtype) for arr in sent]
        got += [receive(arr.dtype) for arr in sent[::-1]]
    assert len(forks) == 1
    for a, b in zip(sent + sent[::-1], got):
        assert b.dtype == a.dtype and b.shape == (a.size,)
        assert b.tobytes() == a.tobytes()
    _assert_reaped(forks)


def test_two_dimensional_arrays_arrive_flat(monkeypatch):
    forks = _record_forks(monkeypatch)
    sent = np.arange(12.0).reshape(4, 3)

    def child():
        yield [sent[1:]]

    with stream(child) as receive:
        got = receive(float)
    assert got.tobytes() == sent[1:].tobytes() and got.shape == (9,)
    _assert_reaped(forks)


class _Planted(Exception):
    pass


def test_a_child_failing_after_two_steps_fails_the_block(monkeypatch, capfd):
    forks = _record_forks(monkeypatch)

    def child():
        yield [np.arange(3)]
        yield [np.arange(5)]
        raise _Planted("planted failure")

    with pytest.raises(RuntimeError, match="worker process failed"):
        with stream(child) as receive:
            assert receive().tolist() == [0, 1, 2]
            assert receive().tolist() == [0, 1, 2, 3, 4]
            receive()
    assert "_Planted: planted failure" in capfd.readouterr().err
    assert len(forks) == 1
    _assert_reaped(forks)


def test_a_child_failing_unread_fails_on_leaving_the_block(monkeypatch, capfd):
    forks = _record_forks(monkeypatch)

    def child():
        raise _Planted("planted failure")
        yield

    with pytest.raises(RuntimeError, match="failed with exit status 1"):
        with stream(child):
            pass
    assert "_Planted: planted failure" in capfd.readouterr().err
    _assert_reaped(forks)


def test_closing_a_generator_suspended_in_the_block_kills_the_child(
        monkeypatch):
    # the child would sleep for a minute after its first step
    forks = _record_forks(monkeypatch)

    def child():
        yield [np.arange(4)]
        time.sleep(60)
        yield [np.arange(4)]

    def steps():
        with stream(child) as receive:
            while True:
                yield receive()

    start = time.perf_counter()
    gen = steps()
    assert next(gen).tolist() == [0, 1, 2, 3]
    gen.close()
    assert time.perf_counter() - start < 30
    assert len(forks) == 1
    _assert_reaped(forks)


def test_a_raising_block_kills_the_child(monkeypatch):
    forks = _record_forks(monkeypatch)

    def child():
        time.sleep(60)
        yield []

    start = time.perf_counter()
    with pytest.raises(_Planted):
        with stream(child):
            raise _Planted("planted failure")
    assert time.perf_counter() - start < 30
    _assert_reaped(forks)

