"""In-memory span recorder used by the traced run.

A span is one call the benchmark makes into a layer of ss3: its layer
(module name), call name, start and end on the perf_counter clock, the
span that was open when it started, the request id of the curve or child
call it belongs to, and how many calls it covers (micro-probes time a
batch as one span). Nothing is written until the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

LAYERS = ("cli", "field", "factor", "curve", "classify", "count", "verify")


class Tracer:
    """Records spans when enabled; otherwise only counts layer failures."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: list[dict] = []
        self.failed = {layer: 0 for layer in LAYERS}
        self.phase = "setup"
        self.rid = None
        self._open: list[int] = []

    @contextmanager
    def span(self, layer: str, name: str, calls: int = 1):
        if not self.enabled:
            try:
                yield
            except Exception:
                self.fail(layer)
                raise
            return
        sid = len(self.records)
        rec = {
            "id": sid,
            "parent": self._open[-1] if self._open else None,
            "rid": self.rid,
            "phase": self.phase,
            "layer": layer,
            "name": name,
            "calls": calls,
            "start": time.perf_counter(),
            "end": None,
            "ok": False,
        }
        self.records.append(rec)
        self._open.append(sid)
        try:
            yield
            rec["ok"] = True
        except Exception:
            self.fail(layer)
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def fail(self, layer: str) -> None:
        """Charge a call that raised, or an output that failed a check."""
        self.failed[layer] = self.failed.get(layer, 0) + 1

    def layer_spans(self, phase: str | None = None) -> list[dict]:
        return [
            r for r in self.records
            if r["layer"] in LAYERS and (phase is None or r["phase"] == phase)
        ]

    def layer_totals(self) -> dict[str, float]:
        """<layer>.calls, .busy_s and .failed over every span of the run.

        Spans are recorded only around the benchmark's own calls into a
        layer, which never nest inside one another, so a layer's busy time
        is the plain sum of its span durations.
        """
        out: dict[str, float] = {}
        for layer in LAYERS:
            spans = [r for r in self.records if r["layer"] == layer]
            out[f"{layer}.calls"] = sum(r["calls"] for r in spans)
            out[f"{layer}.busy_s"] = sum(r["end"] - r["start"] for r in spans)
            out[f"{layer}.failed"] = self.failed[layer]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
