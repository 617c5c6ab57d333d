"""Go-style channels.

Channels are the paper's trusted-callback mechanism: "the enclosure
forwards requests to a trusted handler goroutine via go channels"
(FastHTTP, §6.2; wiki app, §6.3).  Channel state is runtime-internal —
like Go's hchan it is managed by the (trusted) runtime, so a channel
is a safe communication capability across environments while the
*values* sent through it (often pointers) remain subject to the
receiver's and sender's own memory views when dereferenced.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import ConfigError, WouldBlock


@dataclass
class Channel:
    """One buffered channel of 64-bit values."""

    id: int
    capacity: int
    buffer: deque = field(default_factory=deque)
    closed: bool = False

    @property
    def send_key(self) -> tuple:
        return ("chan_send", self.id)

    @property
    def recv_key(self) -> tuple:
        return ("chan_recv", self.id)


class ChannelTable:
    """Registry of live channels, keyed by integer handle."""

    def __init__(self, waker) -> None:
        self._channels: dict[int, Channel] = {}
        self._next_id = 1
        self._wake = waker
        #: Observer spine (repro.trace.Observers), machine-wired.  The
        #: send/recv events fire after the buffer mutation (WouldBlock is
        #: raised before any state changes), so the span recorder's
        #: shadow FIFO stays in lockstep with the value buffer — also
        #: under the JIT, whose traces call send/recv as services.
        self.obs = None

    def new(self, capacity: int) -> int:
        if capacity < 0:
            raise ConfigError("negative channel capacity")
        channel = Channel(self._next_id, max(1, capacity))
        self._channels[channel.id] = channel
        self._next_id += 1
        return channel.id

    def get(self, handle: int) -> Channel:
        channel = self._channels.get(handle)
        if channel is None:
            raise ConfigError(f"bad channel handle {handle}")
        return channel

    def send(self, handle: int, value: int) -> None:
        channel = self.get(handle)
        if channel.closed:
            raise ConfigError("send on closed channel")
        if len(channel.buffer) >= channel.capacity:
            raise WouldBlock(channel.send_key)
        channel.buffer.append(value)
        if self.obs is not None:
            self.obs.chan_send(handle)
        self._wake(channel.recv_key)

    def recv(self, handle: int) -> int:
        """Receive one value; on a closed, drained channel returns 0
        (the zero value), as Go does."""
        channel = self.get(handle)
        if channel.buffer:
            value = channel.buffer.popleft()
            if self.obs is not None:
                self.obs.chan_recv(handle)
            self._wake(channel.send_key)
            return value
        if channel.closed:
            return 0
        raise WouldBlock(channel.recv_key)

    def close(self, handle: int) -> None:
        channel = self.get(handle)
        channel.closed = True
        self._wake(channel.recv_key)
        self._wake(channel.send_key)

    def pending(self, handle: int) -> int:
        return len(self.get(handle).buffer)
