"""Append-only, checksummed run journal.

One line per record::

    <sha256(body)[:12]> <compact-json-body>\n

The journal is the run's durable progress log: every completed study
cell appends one fsync'd record holding its full ``ExperimentResult``
payload.  Crash safety rests on three rules:

* **Append-only.**  Records are never rewritten; resuming a run means
  replaying the journal, not editing it.
* **Checksummed tail recovery.**  A SIGKILL (or power cut) can land
  mid-append, leaving a truncated or garbled last line.  On open, the
  journal replays records until the first line whose checksum or JSON
  fails, then truncates the file back to the last good record --
  replay-to-last-good, exactly like a database redo log.  Corruption
  is only ever expected at the tail; if an earlier record is damaged
  (bit rot), everything after it is dropped too, because records
  after a torn region cannot be trusted to be complete.
* **Degrade on ENOSPC.**  A full disk must not kill an hours-long
  sweep: the first failed append warns and flips the journal into
  memory-only mode (the run continues, it just stops being
  resumable from that point).
"""

import hashlib
import json
import os
import warnings


def _checksum(body):
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:12]


def encode_record(record):
    """One journal line (with trailing newline) for ``record``."""
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return "%s %s\n" % (_checksum(body), body)


def decode_line(raw):
    """Decode one journal line; returns the record or ``None`` if the
    line is truncated, garbled, or fails its checksum."""
    if not raw.endswith(b"\n"):
        return None  # torn tail: the append died mid-write
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        return None
    checksum, sep, body = text.rstrip("\n").partition(" ")
    if not sep or _checksum(body) != checksum:
        return None
    try:
        record = json.loads(body)
    except ValueError:
        return None
    if not isinstance(record, dict):
        return None
    return record


class RunJournal:
    """The journal of one run directory.

    ``open`` recovers and appends; ``load`` replays read-only.  Cell
    records are indexed by cache key in :attr:`cells` so a resuming
    sweep can answer "was this cell already executed?" in O(1).
    """

    def __init__(self, path):
        self.path = path
        self._fh = None
        self.records = []
        self.cells = {}  # cache key -> cell record
        self.truncated_bytes = 0
        self.degraded = False
        self._warned = False

    # -- construction ---------------------------------------------------

    @classmethod
    def open(cls, path):
        """Open for append, recovering a corrupt tail first."""
        journal = cls(path)
        good = journal._replay()
        if journal.truncated_bytes:
            warnings.warn(
                "journal %s: dropping %d corrupt trailing byte(s) "
                "(recovered %d good record(s))"
                % (path, journal.truncated_bytes, len(journal.records)),
                RuntimeWarning,
                stacklevel=2,
            )
            with open(path, "r+b") as fh:
                fh.truncate(good)
        journal._fh = open(path, "a", encoding="utf-8")
        return journal

    @classmethod
    def load(cls, path):
        """Replay read-only (no truncation, no append handle)."""
        journal = cls(path)
        journal._replay()
        return journal

    def _replay(self):
        """Ingest good records; returns the byte offset of the last
        good record and sets :attr:`truncated_bytes` past it."""
        self.records = []
        self.cells = {}
        good = 0
        try:
            fh = open(self.path, "rb")
        except FileNotFoundError:
            return 0
        with fh:
            data = fh.read()
        offset = 0
        while offset < len(data):
            end = data.find(b"\n", offset)
            raw = data[offset:] if end < 0 else data[offset:end + 1]
            record = decode_line(raw)
            if record is None:
                break
            self._ingest(record)
            offset += len(raw)
            good = offset
        self.truncated_bytes = len(data) - good
        return good

    def _ingest(self, record):
        # Cells are the only records read back.  Older journals also
        # hold diagnosis ``wave`` checkpoints: they stay in ``records``
        # and are otherwise ignored.
        self.records.append(record)
        if record.get("type") == "cell":
            self.cells[record["key"]] = record

    # -- appending ------------------------------------------------------

    def append(self, record):
        """Durably append one record (write + flush + fsync).

        On ``OSError`` (disk full, read-only fs) the journal warns
        once and degrades to memory-only: the sweep keeps its results
        for this process, it just loses resumability from here on.
        """
        if self._fh is None:
            raise RuntimeError("journal %s not open for append"
                               % self.path)
        if not self.degraded:
            try:
                self._fh.write(encode_record(record))
                self._fh.flush()
                os.fsync(self._fh.fileno())
            except OSError as exc:
                self.degraded = True
                if not self._warned:
                    self._warned = True
                    warnings.warn(
                        "journal append to %s failed (%s); continuing "
                        "without crash-safety -- this run can no "
                        "longer be resumed past this point"
                        % (self.path, exc),
                        RuntimeWarning,
                        stacklevel=2,
                    )
        self._ingest(record)

    def close(self):
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None

    # -- queries --------------------------------------------------------

    @property
    def n_cells(self):
        return len(self.cells)

    def cell_payload(self, key):
        """The journaled result payload for ``key``, or ``None``."""
        record = self.cells.get(key)
        return None if record is None else record["payload"]
