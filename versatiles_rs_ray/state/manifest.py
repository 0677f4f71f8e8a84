"""Per-partition checkpoint manifest: lineage + metrics + resume.

The reference has no checkpointing (SURVEY.md §4 "checkpoint/resume:
none"); the north rule demands it. Contract:

- output is a directory of partitions, one sub-directory per partition
  id (e.g. pyramid level, or pk range), each written ATOMICALLY by
  writing to `<part>.tmp-<nonce>` and renaming;
- `_manifest.jsonl` appends one record per completed partition:
  {partition, rows, lineage, wall_s, finished_at} where `lineage` is a
  content hash of the input fragment list + pipeline params;
- on resume, partitions whose manifest record matches the current
  lineage are skipped; a lineage mismatch invalidates the whole output
  (input changed -> stale partitions would silently mix).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time


def lineage_hash(input_files: list, params: dict) -> str:
    """Content hash of (sorted input file list w/ size+mtime, params)."""
    h = hashlib.sha256()
    for f in sorted(input_files):
        st = os.stat(f)
        h.update(f"{f}:{st.st_size}:{int(st.st_mtime)}".encode())
    h.update(json.dumps(params, sort_keys=True, default=str).encode())
    return h.hexdigest()[:16]


class Manifest:
    def __init__(self, out_dir: str, lineage: str):
        self.out_dir = out_dir
        self.lineage = lineage
        self.path = os.path.join(out_dir, "_manifest.jsonl")
        os.makedirs(out_dir, exist_ok=True)

    def load(self) -> dict:
        """partition -> record, for records matching the current lineage."""
        done = {}
        if os.path.exists(self.path):
            with open(self.path) as f:
                for line in f:
                    line = line.strip()
                    if not line:
                        continue
                    rec = json.loads(line)
                    if rec.get("lineage") == self.lineage:
                        done[rec["partition"]] = rec
        return done

    def _all_records(self) -> dict:
        """partition -> LATEST record, regardless of lineage."""
        recs = {}
        if os.path.exists(self.path):
            with open(self.path) as f:
                for line in f:
                    line = line.strip()
                    if line:
                        rec = json.loads(line)
                        recs[rec["partition"]] = rec
        return recs

    def invalidate_stale(self) -> list:
        """Delete partition dirs whose latest record carries a DIFFERENT
        lineage (input/params changed) and rewrite the manifest with
        only current-lineage records — otherwise an interrupted rebuild
        would silently mix old- and new-lineage partitions in reads.
        Returns the removed partition ids."""
        recs = self._all_records()
        stale = [p for p, r in recs.items() if r.get("lineage") != self.lineage]
        if not stale:
            return []
        for p in stale:
            d = self.partition_dir(p)
            if os.path.exists(d):
                shutil.rmtree(d)
        keep = [r for r in recs.values() if r.get("lineage") == self.lineage]
        tmp = self.path + ".tmp"
        with open(tmp, "w") as f:
            for r in keep:
                f.write(json.dumps(r) + "\n")
        os.replace(tmp, self.path)
        return stale

    def partition_dir(self, partition: str) -> str:
        return os.path.join(self.out_dir, partition)

    def begin(self, partition: str) -> str:
        """Temp dir for an atomic partition write."""
        tmp = os.path.join(self.out_dir, f"{partition}.tmp-{os.getpid()}")
        if os.path.exists(tmp):
            shutil.rmtree(tmp)
        os.makedirs(tmp)
        return tmp

    def commit(self, partition: str, tmp_dir: str, rows: int, wall_s: float, extra=None):
        final = self.partition_dir(partition)
        if os.path.exists(final):
            shutil.rmtree(final)
        os.rename(tmp_dir, final)
        rec = {
            "partition": partition,
            "rows": int(rows),
            "lineage": self.lineage,
            "wall_s": round(float(wall_s), 3),
            "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        }
        if extra:
            rec.update(extra)
        with open(self.path, "a") as f:
            f.write(json.dumps(rec) + "\n")
        return rec
