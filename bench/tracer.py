"""Outside-in span tracer for the `ddr` layers.

The tracer times calls into the library's public functions from the
benchmark's own code; nothing under `src/` reports into it.  `install`
replaces each target with a timing wrapper, and because `cli`, `lot`,
`smallcancel` and `weights` bind functions such as `search_weights` or
`build_whitehead` by name at import time, it patches every loaded `ddr`
module attribute that is the original object, not only the defining
module.  `remove` puts every original object back.

Spans live in memory: name, parent index, start, end, optional attributes.
A span stack gives each span its parent, so self time is the span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

# (module, attribute path, span name, attribute extractor(args, kwargs, result))
Target = tuple[str, str, str, Optional[Callable]]


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    children_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children_time


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.active = True  # wrappers record spans only while active
        self._patches: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------
    def open(self, name: str, **attrs) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, parent, time.perf_counter(), attrs=dict(attrs)))
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        """Close span `index` and any span left open above it (a budget
        exception can unwind through wrappers without closing them)."""
        now = time.perf_counter()
        while self.stack:
            top = self.stack.pop()
            span = self.spans[top]
            span.end = now
            if span.parent >= 0:
                self.spans[span.parent].children_time += span.duration
            if top == index:
                return

    def wrap(self, fn: Callable, name: str, extract: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.spans[index].attrs["error"] = getattr(exc, "code", type(exc).__name__)
                raise
            finally:
                tracer.close(index)
            if extract is not None:
                tracer.spans[index].attrs.update(extract(args, kwargs, result))
            return result

        return traced

    # --- patching ------------------------------------------------------
    def install(self, targets: Iterable[Target]) -> None:
        """Wrap each target and rebind every loaded `ddr` module attribute
        that refers to the original function."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ddr" or n.startswith("ddr."))]
        for module_name, attr_path, span_name, extract in targets:
            owner = sys.modules[module_name]
            *owner_path, attr = attr_path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(original, span_name, extract)
            if owner_path:  # a method: patch the class only
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def remove(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # --- output --------------------------------------------------------
    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for i, span in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": span.name, "parent": span.parent,
                    "start": span.start, "end": span.end,
                    "self": span.self_time, "attrs": span.attrs,
                }, default=str) + "\n")
