"""In-memory spans around the library's public functions.

A `Tracer` replaces each traced function at every place it is looked
up: the module that defines it and every `spilloverfree` module (the
package namespace included) that imported it by name. Calls made
between library modules are therefore caught without editing the
library. Leaving `installed` puts the original objects back, so traced
and untraced jobs can alternate in one process.

Each span records its name, start, end, parent span and the job it
belongs to. Self time is a span's duration minus the durations of its
children; the library is single-threaded, so children never overlap.
"""

import contextlib
import functools
import importlib
import itertools
import json
import sys
import time
from collections import defaultdict

_PACKAGE = "spilloverfree"


class Tracer:
    def __init__(self):
        # (span id, name, job id, parent span id or None, start, end)
        self.spans = []
        # job id -> counter name -> accumulated value
        self.counters = defaultdict(lambda: defaultdict(float))
        self._stack = []
        self._ids = itertools.count()
        self._job = None
        self._patches = []

    # -- recording -------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, name, self._job, parent, start, end))

    @contextlib.contextmanager
    def job(self, job_id):
        """Root span of one job; every span opened inside shares job_id."""
        self._job = job_id
        try:
            with self.span("job"):
                yield
        finally:
            self._job = None

    def count(self, name, value):
        self.counters[self._job][name] += value

    # -- patching --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self, targets):
        """Wrap every target for the duration of the block. `targets` holds
        (span name, module, attribute, observer) tuples; an attribute
        "Class.method" wraps the method on the class. The observer, if
        any, is called as observer(tracer, args, kwargs, result) after a
        successful call."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == _PACKAGE or n.startswith(_PACKAGE + "."))]
        try:
            for name, module_name, attr, observer in targets:
                owner = importlib.import_module(module_name)
                cls_name, _, method = attr.rpartition(".")
                if cls_name:
                    owner = getattr(owner, cls_name)
                    self._patch(owner, method, self._wrap(name, owner.__dict__[method], observer))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, observer)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
            yield
        finally:
            while self._patches:
                owner, key, original = self._patches.pop()
                setattr(owner, key, original)

    def _patch(self, owner, key, wrapper):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name, fn, observer):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observer is not None:
                observer(self, args, kwargs, result)
            return result

        return traced

    # -- analysis --------------------------------------------------------

    def per_job(self):
        """job id -> span name -> [self seconds, total seconds, calls]."""
        child_time = defaultdict(float)
        for _, _, _, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        table = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0]))
        for span_id, name, job, _, start, end in self.spans:
            row = table[job][name]
            row[0] += end - start - child_time[span_id]
            row[1] += end - start
            row[2] += 1
        return table

    def write(self, path, header):
        """Write the header, then one JSON object per span and per job
        counter set."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for span_id, name, job, parent, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "job": job,
                                     "parent": parent, "start": start, "end": end}) + "\n")
            for job, counters in self.counters.items():
                fh.write(json.dumps({"job": job, "counters": dict(counters)}) + "\n")
