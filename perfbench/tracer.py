"""Span wrappers installed from outside the program for the traced run.

Each wrapper times one call into a layer's public entry point.  A span's
*self time* is its duration minus the time its child spans cover, so the
self times of all layers add up to the part of the run the spans
explain (``trace.coverage``).  Generator entry points (routing, log
replay) are timed per step, since their work runs as the consumer pulls.
"""

import functools
import time
from collections import defaultdict, deque

from repro.apps.tps.pipeline import (
    BufferedDelivery,
    DeliveryPipeline,
    ReplicationStage,
)
from repro.apps.tps.routing import RoutingIndex
from repro.apps.tps.broker import TpsPeer
from repro.core.rules import ConformanceChecker
from repro.net.network import SimulatedNetwork
from repro.net.socket_transport import SocketHub
from repro.persistence.log import EventLog
from repro.remoting.dynamic import DynamicProxy
from repro.serialization.binary import BinarySerializer
from repro.serialization.envelope import EnvelopeCodec, LazyBatch
from repro.transport import protocol
from repro.transport.protocol import InteropPeer

#: (owner, attribute, span name, is-generator) for every traced entry
#: point.  The subscriber's batch handler is patched on ``TpsPeer`` so
#: the shards' own (``TpsBroker``) admission stays out of it.
ENTRY_POINTS = (
    (EnvelopeCodec, "parse", "serialization.parse", False),
    (EnvelopeCodec, "encode_batch", "serialization.encode", False),
    (BinarySerializer, "deserialize_batch", "serialization.decode", False),
    (LazyBatch, "value", "serialization.decode", False),
    (ConformanceChecker, "conforms", "core.conforms", False),
    (protocol, "wrap_with_result", "remoting.wrap", False),
    (DynamicProxy, "_repro_invoke", "remoting.invoke", False),
    (RoutingIndex, "route", "routing.route", True),
    (DeliveryPipeline, "process", "pipeline.process", False),
    (DeliveryPipeline, "replay", "pipeline.replay", False),
    (BufferedDelivery, "flush", "pipeline.flush", False),
    (ReplicationStage, "flush", "replication.flush", False),
    (EventLog, "append", "persistence.append", False),
    (EventLog, "append_at", "persistence.append", False),
    (EventLog, "replay", "persistence.read", True),
    (SimulatedNetwork, "request", "net.request", False),
    (SimulatedNetwork, "post_async", "net.post", False),
    (SocketHub, "poll", "net.socket.poll", False),
)


class Tracer:
    """Collects per-span self time, inclusive time and call counts while
    :attr:`active`; installed wrappers cost one flag test otherwise."""

    def __init__(self):
        self.active = False
        self._stack = []
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.queue_wait_s = 0.0
        self.queue_waits = 0
        self._enqueued = defaultdict(deque)
        self._saved = []

    # -- spans -------------------------------------------------------------

    def _enter(self) -> float:
        self._stack.append(0.0)
        return time.perf_counter()

    def _exit(self, name: str, start: float, count: bool) -> None:
        duration = time.perf_counter() - start
        child = self._stack.pop()
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        if count:
            self.calls[name] += 1
        if self._stack:
            self._stack[-1] += duration

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            start = tracer._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(name, start, True)
        return span

    def _wrap_generator(self, name: str, fn):
        tracer = self

        def steps(generator):
            counted = False
            while True:
                start = tracer._enter()
                try:
                    item = next(generator)
                except StopIteration:
                    tracer._exit(name, start, not counted)
                    return
                except BaseException:
                    tracer._exit(name, start, not counted)
                    raise
                tracer._exit(name, start, not counted)
                counted = True
                yield item

        @functools.wraps(fn)
        def span(*args, **kwargs):
            generator = fn(*args, **kwargs)
            return steps(generator) if tracer.active else generator
        return span

    # -- queue wait on the simulated fabric ---------------------------------

    def _wrap_enqueue(self, fn):
        tracer = self

        @functools.wraps(fn)
        def post_async(network, src, dst, kind, payload):
            fn(network, src, dst, kind, payload)
            tracer._enqueued[(id(network), src, dst)].append(
                time.perf_counter())
        return post_async

    def _wrap_dequeue(self, fn):
        tracer = self

        @functools.wraps(fn)
        def deliver(network, src, dst, kind, payload):
            stamps = tracer._enqueued.get((id(network), src, dst))
            if stamps:
                waited = time.perf_counter() - stamps.popleft()
                if tracer.active:
                    tracer.queue_wait_s += waited
                    tracer.queue_waits += 1
            return fn(network, src, dst, kind, payload)
        return deliver

    # -- install -----------------------------------------------------------

    def _patch(self, owner, attribute: str, wrapper) -> None:
        self._saved.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def install(self) -> None:
        """Wrap every entry point; peers built afterwards bind the wrapped
        handlers.  Undo with :meth:`uninstall`."""
        for owner, attribute, name, generator in ENTRY_POINTS:
            fn = getattr(owner, attribute)
            wrap = self._wrap_generator if generator else self._wrap
            self._patch(owner, attribute, wrap(name, fn))
        self._patch(TpsPeer, "_handle_object_batch",
                    self._wrap("transport.admit",
                               InteropPeer._handle_object_batch))
        # Queue wait is stamped outside the post span, so it never counts
        # as network self time.
        self._patch(SimulatedNetwork, "post_async",
                    self._wrap_enqueue(SimulatedNetwork.post_async))
        self._patch(SimulatedNetwork, "_deliver_queued",
                    self._wrap_dequeue(SimulatedNetwork._deliver_queued))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()

    def forget_queues(self) -> None:
        """Drop enqueue stamps of a torn-down fabric."""
        self._enqueued.clear()

    # -- results -----------------------------------------------------------

    def mean_us(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.total_s[name] / calls * 1e6 if calls else 0.0

    def layer_self_s(self) -> dict:
        layers = defaultdict(float)
        for name, seconds in self.self_s.items():
            layers[name.rpartition(".")[0]] += seconds
        return layers
