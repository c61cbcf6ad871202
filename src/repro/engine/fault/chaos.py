"""Fault injection: a TCP chaos proxy for the remote scan protocol.

A :class:`ChaosProxy` sits between a driver and one worker, relaying the
wire protocol of :mod:`repro.engine.transport.remote` while injecting
exactly one failure family per proxy:

=========== ===========================================================
mode        what happens on a sabotaged connection
=========== ===========================================================
drop        after forwarding ``after_frames`` worker frames, both
            sockets close abruptly (a crash / unplugged peer)
delay       every worker frame is delayed by a seeded-random fraction
            of ``delay`` seconds (a slow or congested peer; results
            must still be identical — this mode corrupts nothing)
truncate    after ``after_frames`` frames, half of the next frame is
            forwarded and the connection closes mid-frame
corrupt     one payload byte of frame ``after_frames`` is XOR-flipped
            (the driver's frame checksum must catch it, loudly)
blackhole   after ``after_frames`` frames the proxy swallows all
            further worker bytes but keeps the connection open — the
            silent-stall case only an idle timeout can detect
=========== ===========================================================

Chaos is applied to the worker→driver direction (where the bulk results
flow); driver→worker bytes relay verbatim.  ``times`` bounds how many
connections are sabotaged (later connections relay transparently), which
is what lets retry tests recover deterministically; ``prob`` + ``seed``
make probabilistic sabotage reproducible.

Usable from tests (wrap a :class:`WorkerServer` address) and from the
``REPRO_CHAOS`` environment knob
(``REPRO_CHAOS="drop,after=2,times=1,seed=7"``), which makes
:class:`~repro.engine.transport.remote.RemoteScanExecutor` interpose one
proxy per worker — so any remote solve, including CI's chaos-smoke job,
can run under injected faults without code changes.
"""

from __future__ import annotations

import random
import socket
import struct
import threading

__all__ = [
    "CHAOS_ENV",
    "CHAOS_MODES",
    "ChaosProxy",
    "chaos_spec_from_env",
    "parse_chaos_spec",
]

#: Environment knob: a :func:`parse_chaos_spec` string.
CHAOS_ENV = "REPRO_CHAOS"

#: The failure families :class:`ChaosProxy` can inject.
CHAOS_MODES = ("drop", "delay", "truncate", "corrupt", "blackhole")

#: Mirrors ``repro.engine.transport.remote._FRAME_HEADER`` (tag byte,
#: u32 length, u32 crc32) — duplicated here so the chaos layer never
#: imports the transport it sabotages (tests assert the two agree).
_FRAME_HEADER = struct.Struct(">cII")

_RELAY_CHUNK = 1 << 16


def parse_chaos_spec(text: str) -> dict:
    """Parse a ``REPRO_CHAOS`` spec into :class:`ChaosProxy` kwargs.

    Format: ``mode[,key=value...]`` with keys ``after`` (frames before
    the fault fires), ``times`` (connections sabotaged), ``prob``,
    ``seed``, ``delay`` (seconds, delay mode).

    >>> parse_chaos_spec("drop,after=3,times=1,seed=7") == {
    ...     "mode": "drop", "after_frames": 3, "times": 1, "seed": 7}
    True
    >>> parse_chaos_spec("nonsense")
    Traceback (most recent call last):
        ...
    ValueError: unknown chaos mode 'nonsense'; expected one of ('drop', 'delay', 'truncate', 'corrupt', 'blackhole') (the REPRO_CHAOS knob takes 'mode[,key=value...]')
    """
    parts = [part.strip() for part in str(text).split(",") if part.strip()]
    if not parts or parts[0] not in CHAOS_MODES:
        mode = parts[0] if parts else text
        raise ValueError(
            f"unknown chaos mode {mode!r}; expected one of {CHAOS_MODES} "
            f"(the {CHAOS_ENV} knob takes 'mode[,key=value...]')"
        )
    spec: dict = {"mode": parts[0]}
    converters = {
        "after": ("after_frames", int),
        "times": ("times", int),
        "seed": ("seed", int),
        "prob": ("prob", float),
        "delay": ("delay", float),
    }
    for part in parts[1:]:
        key, eq, value = part.partition("=")
        key = key.strip()
        if not eq or key not in converters:
            raise ValueError(
                f"bad chaos option {part!r}; expected key=value with key in "
                f"{sorted(converters)} (the {CHAOS_ENV} knob takes the same "
                "syntax)"
            )
        name, convert = converters[key]
        try:
            spec[name] = convert(value.strip())
        except ValueError:
            raise ValueError(
                f"bad chaos option {part!r}: {value.strip()!r} is not a "
                f"{convert.__name__} (the {CHAOS_ENV} knob takes the same "
                "syntax)"
            ) from None
    return spec


def chaos_spec_from_env(environ) -> "dict | None":
    """The parsed ``REPRO_CHAOS`` spec, or ``None`` when unset/empty."""
    text = environ.get(CHAOS_ENV, "").strip()
    return parse_chaos_spec(text) if text else None


class ChaosProxy:
    """One seeded TCP fault injector in front of one worker.

    Lifecycle mirrors :class:`~repro.engine.transport.remote.WorkerServer`:
    constructing binds an ephemeral loopback port (so :attr:`address` is
    final immediately), :meth:`start` serves on a daemon thread,
    :meth:`stop` closes the listener and every live relay.  Context
    manager supported.

    >>> ChaosProxy(("127.0.0.1", 1), mode="nope")
    Traceback (most recent call last):
        ...
    ValueError: unknown chaos mode 'nope'; expected one of ('drop', 'delay', 'truncate', 'corrupt', 'blackhole') (the REPRO_CHAOS knob takes 'mode[,key=value...]')
    """

    def __init__(
        self,
        upstream: tuple,
        mode: str,
        seed: int = 0,
        prob: float = 1.0,
        delay: float = 0.02,
        after_frames: int = 2,
        times: "int | None" = None,
        host: str = "127.0.0.1",
    ):
        if mode not in CHAOS_MODES:
            raise ValueError(
                f"unknown chaos mode {mode!r}; expected one of {CHAOS_MODES} "
                f"(the {CHAOS_ENV} knob takes 'mode[,key=value...]')"
            )
        if after_frames < 0:
            raise ValueError(f"after_frames must be >= 0, got {after_frames}")
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"prob must be in [0, 1], got {prob}")
        self.upstream = (str(upstream[0]), int(upstream[1]))
        self.mode = mode
        self.seed = int(seed)
        self.prob = float(prob)
        self.delay = float(delay)
        self.after_frames = int(after_frames)
        self.times = times if times is None else int(times)
        self._connections = 0
        self._sabotaged = 0
        self._lock = threading.Lock()
        self._stopped = threading.Event()
        self._live: set = set()
        self._thread: "threading.Thread | None" = None
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, 0))
        self._listener.listen(16)

    # -- lifecycle ------------------------------------------------------
    @property
    def address(self) -> tuple:
        """The ``(host, port)`` drivers should dial instead of the worker."""
        host, port = self._listener.getsockname()[:2]
        return host, port

    @property
    def sabotaged_connections(self) -> int:
        """How many connections have had the fault applied so far."""
        with self._lock:
            return self._sabotaged

    def start(self) -> "ChaosProxy":
        self._thread = threading.Thread(
            target=self._serve, name=f"repro-chaos-{self.mode}", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stopped.set()
        try:
            # Closing a listening socket does not reliably wake a thread
            # blocked in accept(); poke it so _serve re-checks the flag.
            with socket.create_connection(self.address, timeout=1.0):
                pass
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - double close
            pass
        with self._lock:
            live = list(self._live)
        for sock in live:
            _close_quietly(sock)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- relay ----------------------------------------------------------
    def _serve(self) -> None:
        while not self._stopped.is_set():
            try:
                client, _ = self._listener.accept()
            except OSError:
                break  # listener closed by stop()
            with self._lock:
                index = self._connections
                self._connections += 1
            threading.Thread(
                target=self._handle,
                args=(client, index),
                name=f"repro-chaos-conn-{index}",
                daemon=True,
            ).start()

    def _handle(self, client: socket.socket, index: int) -> None:
        rng = random.Random(self.seed * 1_000_003 + index)
        sabotage = (
            (self.times is None or index < self.times)
            and rng.random() < self.prob
        )
        if sabotage:
            with self._lock:
                self._sabotaged += 1
        upstream = None
        try:
            upstream = socket.create_connection(self.upstream, timeout=10.0)
            # Both legs without Nagle, as the transport's own sockets
            # (``remote._nodelay``): the chaos jobs must measure the fault
            # they inject, not delayed-ACK stalls the proxy added.
            for leg in (client, upstream):
                leg.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            _close_quietly(client)
            if upstream is not None:
                _close_quietly(upstream)
            return
        with self._lock:
            self._live.update((client, upstream))
        # Driver→worker relays verbatim; chaos rides the result stream.
        up = threading.Thread(
            target=self._relay_raw,
            args=(client, upstream),
            name=f"repro-chaos-up-{index}",
            daemon=True,
        )
        up.start()
        try:
            self._relay_frames(upstream, client, rng, sabotage)
        finally:
            _close_quietly(client)
            _close_quietly(upstream)
            up.join(timeout=5.0)
            with self._lock:
                self._live.difference_update((client, upstream))

    def _relay_raw(self, source: socket.socket, sink: socket.socket) -> None:
        try:
            while True:
                chunk = source.recv(_RELAY_CHUNK)
                if not chunk:
                    break
                sink.sendall(chunk)
        except OSError:
            pass
        # Half-close so the worker sees EOF when the driver is done, but
        # keep the worker→driver direction open for in-flight results.
        try:
            sink.shutdown(socket.SHUT_WR)
        except OSError:
            pass

    def _relay_frames(
        self, source: socket.socket, sink: socket.socket, rng, sabotage: bool
    ) -> None:
        """Worker→driver: frame-aware forwarding with the proxy's fault."""
        forwarded = 0
        try:
            while not self._stopped.is_set():
                header = _read_exact(source, _FRAME_HEADER.size)
                if header is None:
                    break
                _, length, _ = _FRAME_HEADER.unpack(header)
                payload = _read_exact(source, length) if length else b""
                if payload is None:
                    break
                if sabotage and self.mode == "delay":
                    self._stopped.wait(self.delay * rng.random())
                if sabotage and forwarded >= self.after_frames:
                    if self.mode == "drop":
                        return  # finally closes both sockets abruptly
                    if self.mode == "truncate":
                        half = header + payload[: max(0, length // 2)]
                        sink.sendall(half[: max(1, len(half) // 2)])
                        return
                    if self.mode == "corrupt" and length:
                        position = rng.randrange(length)
                        flip = rng.randrange(1, 256)
                        payload = (
                            payload[:position]
                            + bytes((payload[position] ^ flip,))
                            + payload[position + 1:]
                        )
                        sabotage = False  # one flipped byte is plenty
                    elif self.mode == "blackhole":
                        # Swallow everything until the driver gives up;
                        # the connection stays open — the silent stall.
                        while _read_exact(source, _RELAY_CHUNK, partial=True):
                            pass
                        return
                sink.sendall(header + payload)
                forwarded += 1
        except OSError:
            pass


def _read_exact(sock: socket.socket, count: int, partial: bool = False):
    """Read ``count`` bytes (or, with ``partial``, whatever arrives)."""
    parts = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(remaining if not partial else count)
        except OSError:
            return None
        if not chunk:
            return None
        if partial:
            return chunk
        parts.append(chunk)
        remaining -= len(chunk)
    return b"".join(parts)


def _close_quietly(sock: socket.socket) -> None:
    # shutdown() before close(): a close alone does not send FIN while
    # another thread is still blocked in recv on the same socket (the
    # file description stays referenced by the in-flight syscall), so a
    # dropped connection would leave both peers waiting out their full
    # timeouts instead of waking immediately.
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # never connected, or the peer is already gone
    try:
        sock.close()
    except OSError:  # pragma: no cover - already dead
        pass
