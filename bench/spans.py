"""In-memory span recorder for the traced benchmark run.

A span is (name, start_ns, end_ns, parent, op): parent is the index of the
span that caused it (-1 for none) and op the operation it belongs to (-1
for set-up). Spans are kept in flat arrays until the run ends and are then
written out in one go, so recording one costs two clock reads and a few
appends, and a run of a few hundred thousand spans stays near 40 bytes each.
"""

import gzip
import json
from array import array
from collections import defaultdict
from time import perf_counter_ns

COLUMNS = ("name", "start_ns", "end_ns", "parent", "op")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end_ = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.counts = defaultdict(int)

    def __len__(self):
        return len(self.start)

    def add(self, name, t0, t1, parent=-1, op=-1):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(nid)
        self.start.append(t0)
        self.end_.append(t1)
        self.parent.append(parent)
        self.op.append(op)

    def call(self, name, fn, *args, parent=-1, op=-1):
        t0 = perf_counter_ns()
        out = fn(*args)
        self.add(name, t0, perf_counter_ns(), parent, op)
        return out

    def begin(self, name, op=-1):
        """Open a root span and return its index, the parent of the spans
        recorded under it until end() closes it."""
        self.add(name, perf_counter_ns(), 0, -1, op)
        return len(self.start) - 1

    def end(self, idx):
        self.end_[idx] = perf_counter_ns()

    def count(self, name, n=1):
        self.counts[name] += n

    def totals(self, since=0):
        """{span name: [calls, busy_ns]} over spans recorded from index
        `since` on. The benchmark's own bench.* spans are left out."""
        per_id = defaultdict(lambda: [0, 0])
        for nid, t0, t1 in zip(self.name_id[since:], self.start[since:],
                               self.end_[since:]):
            agg = per_id[nid]
            agg[0] += 1
            agg[1] += t1 - t0
        return {self.names[nid]: agg for nid, agg in per_id.items()
                if not self.names[nid].startswith("bench.")}

    def durations_ns(self, name):
        nid = self._ids.get(name)
        return [t1 - t0 for i, t0, t1 in zip(self.name_id, self.start, self.end_)
                if i == nid]

    def busy_ns(self, since=0):
        return sum(busy for _, busy in self.totals(since).values())

    def write(self, path, **header):
        """Write a gzipped file: one JSON header line (run details, span
        names, counts), then one comma-separated line per span with the
        name as an index into the header's names and times in ns from the
        first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        base = self.start[0] if self.start else 0
        head = {**header, "columns": COLUMNS, "names": self.names,
                "counts": dict(self.counts)}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(head) + "\n")
            for nid, t0, t1, par, op in zip(self.name_id, self.start,
                                            self.end_, self.parent, self.op):
                fh.write(f"{nid},{t0 - base},{t1 - base},{par},{op}\n")
