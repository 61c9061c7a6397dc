"""Spans recorded by the benchmark around its own calls into lorentz_lab.

A span has a name (``<module>.<function>`` of the public call, or
``bench.glue`` for the benchmark's own input preparation), an optional size
tag, a start, an end, a parent and a job id.  Layer spans are children of the
job span, whose id is the job index.  Spans stay in memory and are written
out when the run ends.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from time import perf_counter


class NullTracer:
    """Untraced jobs: calls go straight through and counts are dropped."""

    def call(self, name, fn, *args, tag=None, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value):
        pass


class Tracer:
    """Records one span per call and sums work counts per name."""

    def __init__(self):
        self.spans = []        # (span id, name, tag, start, end, job id)
        self.jobs = []         # (job id, start, end, time scale)
        self.counts = defaultdict(float)
        self._job = None

    def begin_job(self, job_id):
        self._job = job_id

    def end_job(self, job_id, start, end, scale):
        """Close the job span; ``scale`` converts its wall times into the
        calibrated times of the layer table."""
        self.jobs.append((job_id, start, end, scale))
        self._job = None

    def call(self, name, fn, *args, tag=None, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.spans.append((len(self.spans), name, tag, start, end,
                               self._job))

    def count(self, name, value):
        self.counts[name] += value

    def write_spans(self, path):
        """One JSON object per line: the job spans first, then the layer
        spans.  Job spans have no parent."""
        with open(path, "w") as fh:
            for job_id, start, end, _ in self.jobs:
                fh.write(json.dumps({"id": f"job{job_id}", "name": "job",
                                     "start": start, "end": end,
                                     "parent": None, "job": job_id}) + "\n")
            for sid, name, tag, start, end, job in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "tag": tag,
                                     "start": start, "end": end,
                                     "parent": f"job{job}", "job": job})
                         + "\n")

    def layer_table(self, calls, sized, per_call, counts):
        """Per-layer metrics, each as (value, unit).

        Times (calibrated), call numbers and work counts are per traced
        job; ``s_<tag>`` entries are the median duration of one call at that
        tagged input size.  ``counts`` maps each work count name to its unit.
        """
        n_jobs = len(self.jobs)
        scale = {job_id: k for job_id, _, _, k in self.jobs}
        job_time = sum((end - start) * k for _, start, end, k in self.jobs)
        busy = defaultdict(float)
        n_calls = defaultdict(int)
        by_tag = defaultdict(list)
        for _, name, tag, start, end, job in self.spans:
            duration = (end - start) * scale[job]
            busy[name] += duration
            n_calls[name] += 1
            if tag is not None:
                by_tag[(name, tag)].append(duration)

        out = {}
        for name in calls:
            out[f"{name}.busy_s"] = (busy[name] / n_jobs, "s")
            out[f"{name}.calls"] = (n_calls[name] / n_jobs, "count")
        for name, tags in sized.items():
            for tag in tags:
                durations = by_tag[(name, tag)]
                out[f"{name}.s_{tag}"] = (
                    statistics.median(durations) if durations else 0.0, "s")
        for name in per_call:
            out[f"{name}.s_per_call"] = (
                busy[name] / n_calls[name] if n_calls[name] else 0.0, "s")
        for name, unit in counts.items():
            out[name] = (self.counts[name] / n_jobs, unit)
        modules = sorted({name.split(".")[0] for name in calls})
        for module in modules:
            module_busy = sum(v for k, v in busy.items()
                              if k.split(".")[0] == module)
            out[f"{module}.busy_s"] = (module_busy / n_jobs, "s")
            out[f"{module}.share"] = (module_busy / job_time, "ratio")
        covered = sum(busy.values())
        out["trace.uncovered_ratio"] = (1.0 - covered / job_time, "ratio")
        return out
