"""Per-layer spans recorded from outside the program.

:func:`install` wraps the public entry points of each ``repro`` layer in
a :class:`Ledger` span.  It must run after ``import repro`` and before
the deployment is built: classes are patched in place, and functions are
replaced in every module that imported them by name, so bound methods
cached at construction and ``from x import f`` bindings both see the
wrapper.  A wrapper that something still bypasses shows up as a
mismatch between ``network.send_calls`` and the network's own message
counter rather than as a silent undercount.

Spans stay in memory (four flat arrays) and are written out at exit by
:meth:`Ledger.dump`.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from typing import Callable

#: (span name, module, owner, attribute): owner None wraps a module function
ENTRY_POINTS: tuple[tuple[str, str, str | None, str], ...] = (
    ("api.create_object", "repro.api.oceanstore", "OceanStoreHandle", "create_object"),
    ("api.write", "repro.api.oceanstore", "OceanStoreHandle", "write"),
    ("api.read", "repro.api.oceanstore", "OceanStoreHandle", "read"),
    ("api.decode", "repro.data.ciphertext_ops", "ClientCodec", "read_document"),
    ("build.total", "repro.core.system", "OceanStoreSystem", "__init__"),
    ("build.topology", "repro.sim.network", None, "build_transit_stub_topology"),
    ("build.keygen", "repro.crypto.keys", None, "make_principal"),
    ("build.plaxton", "repro.routing.plaxton", "PlaxtonMesh", "populate"),
    ("network.dijkstra", "networkx", None, "single_source_dijkstra_path_length"),
    ("network.send", "repro.sim.network", "Network", "send"),
    ("kernel.run", "repro.sim.kernel", "Kernel", "run"),
    ("routing.converge", "repro.routing.probabilistic", "ProbabilisticLocator", "converge"),
    ("routing.refresh", "repro.routing.probabilistic", "ProbabilisticLocator", "refresh_round"),
    ("routing.locate", "repro.routing.service", "LocationService", "locate"),
    ("data.update_build", "repro.data.ciphertext_ops", "UpdateBuilder", "build"),
    ("crypto.sign", "repro.crypto.rsa", "PrivateKey", "sign"),
    ("crypto.verify", "repro.crypto.rsa", "PublicKey", "verify"),
    ("consistency.submit_update", "repro.core.system", "OceanStoreSystem", "submit_update"),
    ("consistency.submit", "repro.consistency.pbft", "InnerRing", "submit"),
    ("archival.archive", "repro.core.system", "OceanStoreSystem", "archive_object"),
    ("archival.encode_archival", "repro.archival.fragments", None, "encode_archival"),
    ("archival.encode", "repro.archival.reed_solomon", "ReedSolomonCode", "encode"),
    ("recovery.read_degraded", "repro.core.system", "OceanStoreSystem", "read_degraded"),
    ("telemetry.flight", "repro.telemetry.flightrec", "FlightRecorder", "record"),
    ("telemetry.metric", "repro.telemetry.metrics", "MetricsRegistry", "inc"),
)

#: observer(args, result) hooks, by span name
Observer = Callable[[tuple, object], None]


class Ledger:
    """Span recorder with online per-name call, total and self time."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict[str, int] = {}
        #: inclusive seconds, counted once per outermost same-name call
        self.total_s: dict[str, float] = {}
        #: inclusive seconds minus the time child spans cover
        self.self_s: dict[str, float] = {}
        self._depth: dict[str, int] = {}
        #: open spans: [span index, seconds covered by children]
        self._stack: list[list] = []
        self.observers: dict[str, Observer] = {}
        self.origin = time.perf_counter()

    def wrap(self, name: str, fn: Callable) -> Callable:
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        for table in (self.calls, self.total_s, self.self_s, self._depth):
            table.setdefault(name, 0)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.span_name)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            self._depth[name] += 1
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                duration = ended - started
                self.span_start[index] = started - self.origin
                self.span_end[index] = ended - self.origin
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                self._depth[name] -= 1
                if not self._depth[name]:
                    self.total_s[name] += duration
                if stack:
                    stack[-1][1] += duration
            observer = self.observers.get(name)
            if observer is not None:
                observer(args, result)
            return result

        return wrapper

    def dump(self, path: str) -> int:
        """Write every span as gzip'd TSV; returns the span count."""
        count = len(self.span_name)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\tname\tstart_us\tend_us\n")
            for i in range(count):
                out.write(
                    f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i] * 1e6:.1f}\t{self.span_end[i] * 1e6:.1f}\n"
                )
        return count


def _replace_everywhere(original: object, wrapper: object) -> None:
    """Rebind every module-level name bound to ``original``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "networkx" or mod_name.startswith("repro")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(ledger: Ledger) -> None:
    """Wrap every entry point in :data:`ENTRY_POINTS` with a ledger span."""
    for name, module_name, owner, attr in ENTRY_POINTS:
        module = sys.modules[module_name]
        if owner is None:
            original = getattr(module, attr)
            _replace_everywhere(original, ledger.wrap(name, original))
        else:
            cls = getattr(module, owner)
            setattr(cls, attr, ledger.wrap(name, cls.__dict__[attr]))
