"""Endpoint emulation around the mock backend.

The mock backend answers at once. To measure how well the gateway overlaps
requests, the benchmark makes each ``MockBackend.send`` take the mock's own
synthetic ``duration_ms`` times a fixed scale, and lets a seeded share of
requests fail their first attempt with ``TransientBackendError``. Neither
changes a reply or its reported duration, so outputs must stay identical to
a run without emulation.
"""

from __future__ import annotations

import hashlib
import threading
import time
from typing import Callable, Optional

from litrag.gateway import MockBackend, TransientBackendError


class EndpointEmulation:
    def __init__(self, scale: float, fault_rate: float, seed: int) -> None:
        if scale < 0 or not 0 <= fault_rate < 1:
            raise ValueError("scale must be >= 0 and fault_rate in [0, 1)")
        self.scale = scale
        self.fault_rate = fault_rate
        self.seed = seed
        self.overshoot_s = 0.0
        self.faults = 0
        self._failed_once: set[str] = set()
        self._lock = threading.Lock()
        self._original: Optional[Callable] = None

    def faults_first_attempt(self, request_id: str) -> bool:
        digest = hashlib.sha256(f"{self.seed}:{request_id}".encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "big") < self.fault_rate * 2 ** 32

    def reset(self) -> None:
        """Forget which requests already failed, so a rerun faults them again."""
        with self._lock:
            self._failed_once.clear()

    def install(self) -> None:
        original = self._original = MockBackend.send
        emulation = self

        def send(backend, endpoint, request):
            if emulation.fault_rate and emulation.faults_first_attempt(request.request_id):
                with emulation._lock:
                    first = request.request_id not in emulation._failed_once
                    emulation._failed_once.add(request.request_id)
                    if first:
                        emulation.faults += 1
                if first:
                    raise TransientBackendError("emulated transient failure")
            text, duration_ms = original(backend, endpoint, request)
            delay = duration_ms * emulation.scale / 1000.0
            started = time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            late = time.perf_counter() - started - delay
            with emulation._lock:
                emulation.overshoot_s += late
            return text, duration_ms

        MockBackend.send = send

    def uninstall(self) -> None:
        if self._original is not None:
            MockBackend.send = self._original
            self._original = None
