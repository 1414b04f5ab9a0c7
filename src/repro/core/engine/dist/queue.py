"""A filesystem-backed lease queue: coordination without a server.

The queue is a directory -- shareable over any POSIX filesystem two
hosts can both mount -- whose subdirectories *are* the lease states::

    queue/
      manifest.json            plan identity + the full lease id list
      pending/<id>.json        posted, unclaimed leases
      leased/<id>.json--<w>    claimed by worker <w>; mtime = heartbeat
      quarantine/<id>.json     poison leases, with a diagnostic payload
      quarantine/*.damaged     unparseable lease files, moved aside
      shards/seg-<id>--<w>.jsonl
                               lease <id>'s records as worker <w> ran
                               them; its existence settles the lease
      FINISHED                 coordinator's end-of-campaign marker

Every transition is one atomic ``rename``: a claim moves a pending file
into ``leased/`` (losers of the race get ``FileNotFoundError`` and move
on), publishing the lease's segment into ``shards/`` settles it -- the
claim is released afterwards only as cleanup, and expiry drops a
settled lease's claim instead of re-posting it -- and expiry re-posts
an unsettled lease with its attempt bumped.  No state lives anywhere
else, so a SIGKILL at *any* point leaves the queue in a position some
later scan can repair.  A lease runs twice only under a live worker
that outran its TTL, which the shard merger deduplicates by design.

Two hardening layers sit under every transition (the paper's own
methodology, turned on this engine):

* all filesystem calls go through an injectable
  :class:`~repro.core.engine.dist.chaos.QueueIO` seam, so the chaos
  suite can schedule ENOSPC/EIO/torn-write/stale-scandir faults into
  any site deterministically;
* transient errnos are retried with bounded, deterministically
  jittered backoff (:mod:`repro.core.engine.dist.retry`); persistent
  faults propagate to the coordinator's degradation ladder.

A lease that keeps failing -- its attempt count reaches the queue's
``quarantine_after`` budget -- is *quarantined* rather than reassigned
forever: the lease value plus a diagnostic payload moves to
``quarantine/``, the campaign settles around the hole, and the merge
step reports it instead of silently dropping the cell.

Worker liveness is the ``leased/`` file's mtime: workers touch it per
completed run (:meth:`FileQueue.heartbeat`), the coordinator compares
it against the lease TTL.  Workers never read a clock -- ``utime(None)``
stamps kernel time -- so the engine's no-wall-clock rule holds: nothing
time-derived can leak into a record.
"""

from __future__ import annotations

import json
import os
import re
import time
import warnings
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.engine.dist.chaos import QueueIO
from repro.core.engine.dist.lease import (
    Lease,
    plan_manifest,
    verify_manifest,
)
from repro.core.engine.dist.retry import RetryPolicy, retry_io
from repro.errors import FFISError

#: Separates the lease filename from the claiming worker's id in
#: ``leased/`` entries; therefore banned inside worker ids.
_CLAIM_SEP = "--"

#: How many attempts a lease gets before it is declared poison and
#: quarantined instead of reassigned.  Three grants tolerate two
#: unlucky deaths (host reboot, OOM kill) while still bounding the harm
#: a deterministically crashing cell can do to the fleet.
DEFAULT_QUARANTINE_AFTER = 3

#: Suffix quarantined *unparseable* files carry, distinguishing damage
#: (re-postable from the manifest on resume) from diagnosed poison
#: (kept quarantined until a human deletes the diagnosis).
_DAMAGED_SUFFIX = ".damaged"

#: Published segments are ``seg-<lease id>--<worker id>.jsonl`` (their
#: ``.tmp`` siblings settle nothing).
_SEGMENT_PREFIX = "seg-"
_SEGMENT_SUFFIX = ".jsonl"

_WORKER_ID_RE = re.compile(r"^[A-Za-z0-9._-]+$")


def _check_worker_id(worker_id: str) -> str:
    if not _WORKER_ID_RE.match(worker_id) or _CLAIM_SEP in worker_id:
        raise FFISError(
            f"worker id {worker_id!r} must match [A-Za-z0-9._-]+ and "
            f"not contain {_CLAIM_SEP!r} (it becomes part of queue "
            "filenames)")
    return worker_id


def _published_leases(names: Iterable[str]) -> Set[str]:
    """The settled set: lease filenames (``<id>.json``) that have a
    published segment among *names*, a listing of ``shards/``."""
    return {name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
            .rsplit(_CLAIM_SEP, 1)[0] + ".json"
            for name in names
            if name.startswith(_SEGMENT_PREFIX)
            and name.endswith(_SEGMENT_SUFFIX)}


def _read_json(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


@dataclass(frozen=True)
class Claim:
    """A successfully claimed lease plus the file that proves it."""

    lease: Lease
    path: str        # the leased/ entry this worker owns
    worker_id: str


class FileQueue:
    """One campaign's lease queue rooted at a directory.

    ``io`` is the filesystem seam -- every queue syscall goes through
    it, which is how the chaos suite injects faults; ``retry`` governs
    how transient errnos at each site are retried.  Both default to
    the real filesystem and the default bounded-backoff policy.
    """

    def __init__(self, root: str, io: Optional[QueueIO] = None,
                 retry: Optional[RetryPolicy] = None) -> None:
        self.root = root
        self.io = io if io is not None else QueueIO()
        self.retry = retry
        self.manifest_path = os.path.join(root, "manifest.json")
        self.pending_dir = os.path.join(root, "pending")
        self.leased_dir = os.path.join(root, "leased")
        self.quarantine_dir = os.path.join(root, "quarantine")
        self.shards_dir = os.path.join(root, "shards")
        self.finished_path = os.path.join(root, "FINISHED")
        if not os.path.exists(self.manifest_path):
            raise FFISError(
                f"{root} is not a lease queue (no manifest.json); the "
                "coordinator creates it -- `repro study serve`")
        self.manifest = _read_json(self.manifest_path)
        self.lease_ids: Tuple[str, ...] = tuple(
            self.manifest.get("lease_ids", ()))
        self.quarantine_after: int = int(
            self.manifest.get("quarantine_after", DEFAULT_QUARANTINE_AFTER))

    # -- injected I/O helpers ---------------------------------------------------

    def _io_call(self, site: str, op):
        """One queue syscall through the seam, with transient retry."""
        return retry_io(self.retry, site, op)

    def _write_json(self, site: str, path: str,
                    data: Dict[str, Any]) -> None:
        """Durable, atomic JSON publish through the seam.

        Tmp-sibling write + fsync + atomic rename, so a crash (or an
        injected torn write) at any point leaves either the old file or
        the new one -- never a half-written payload at the final path.
        """
        payload = (json.dumps(data, indent=2, sort_keys=True) + "\n") \
            .encode("utf-8")
        tmp = path + ".tmp"

        def publish() -> None:
            f = self.io.open_w(tmp)
            try:
                self.io.write(f, payload)
                self.io.fsync(f)
            finally:
                f.close()
            self.io.replace(tmp, path)

        self._io_call(site, publish)

    def _read_payload(self, site: str, path: str) -> Dict[str, Any]:
        raw = self._io_call(site, lambda: self.io.read_bytes(path))
        return json.loads(raw.decode("utf-8"))

    # -- creation ---------------------------------------------------------------

    @classmethod
    def create(cls, root: str, plan, leases: Sequence[Lease],
               reuse: bool = False, io: Optional[QueueIO] = None,
               retry: Optional[RetryPolicy] = None,
               quarantine_after: int = DEFAULT_QUARANTINE_AFTER,
               ) -> "FileQueue":
        """Post a new queue for *plan*, or re-open a matching one.

        ``reuse=True`` resumes an interrupted campaign in place:
        settled leases stay settled, orphaned claims are re-posted,
        damaged (unparseable) lease files are quarantined with a
        warning and re-posted pristine, and any lease missing from
        every state directory is posted fresh.  Without ``reuse``, an
        already-populated root is refused -- overwriting it would
        discard the shards' paid-for runs, the same contract the
        checkpoint writer enforces.
        """
        manifest_path = os.path.join(root, "manifest.json")
        if os.path.exists(manifest_path):
            if not reuse:
                raise FFISError(
                    f"{root} already holds a lease queue; resume it "
                    "(reuse=True / --resume) or serve from a fresh "
                    "--queue directory instead of overwriting its "
                    "shards")
            queue = cls(root, io=io, retry=retry)
            verify_manifest(plan, queue.manifest, where=root)
            queue._repair(leases)
            try:
                # A stale end-of-campaign marker would make resumed
                # workers exit before claiming anything.
                os.unlink(queue.finished_path)
            except FileNotFoundError:
                pass
            return queue
        if quarantine_after < 1:
            raise FFISError(
                f"quarantine_after must be >= 1, got {quarantine_after}")
        for sub in ("pending", "leased", "quarantine", "shards"):
            os.makedirs(os.path.join(root, sub), exist_ok=True)
        manifest = plan_manifest(plan)
        manifest["lease_ids"] = [lease.lease_id for lease in leases]
        manifest["quarantine_after"] = quarantine_after
        # The manifest must exist before __init__ will open the root.
        _bootstrap_manifest(manifest_path, manifest)
        queue = cls(root, io=io, retry=retry)
        for lease in leases:
            queue._post(lease)
        return queue

    def _post(self, lease: Lease) -> None:
        self._write_json(
            "post",
            os.path.join(self.pending_dir, f"{lease.lease_id}.json"),
            lease.to_dict())

    def _quarantine_damaged(self, path: str, exc: Exception) -> None:
        """Move an unparseable lease file aside instead of crashing.

        The campaign's integrity does not depend on the file's content
        -- leases are re-postable from the plan -- so damage is a
        diagnostic event, not a fatal one.
        """
        name = os.path.basename(path).split(_CLAIM_SEP, 1)[0]
        target = os.path.join(self.quarantine_dir,
                              name + _DAMAGED_SUFFIX)
        self._io_call("quarantine",
                      lambda: self.io.makedirs(self.quarantine_dir))
        try:
            self._io_call("quarantine",
                          lambda: self.io.replace(path, target))
        except FileNotFoundError:
            return  # vanished mid-scan: someone else settled it
        warnings.warn(
            f"lease file {path} was unparseable ({exc}); moved to "
            f"{target} -- resume will re-post the lease from the plan",
            stacklevel=2)

    def _quarantine_poison(self, lease: Lease, reason: str,
                           worker_id: Optional[str] = None) -> None:
        """Declare a lease poison: park it with a diagnosis instead of
        reassigning it forever."""
        diag = lease.to_dict()
        diag["reason"] = reason
        diag["worker"] = worker_id
        self._io_call("quarantine",
                      lambda: self.io.makedirs(self.quarantine_dir))
        self._write_json(
            "quarantine",
            os.path.join(self.quarantine_dir, f"{lease.lease_id}.json"),
            diag)
        warnings.warn(
            f"lease {lease.lease_id} quarantined after attempt "
            f"{lease.attempt} (budget {self.quarantine_after}): {reason}",
            stacklevel=2)

    def _repair(self, leases: Sequence[Lease]) -> None:
        """Resume repair: every lease must be pending, leased, settled,
        or poison-quarantined; orphaned claims go back to pending with
        their attempt bumped (or are dropped, if their lease is
        settled); damaged files are quarantined and the lease re-posted
        pristine."""
        published = self._published("claim-scan")
        for name in sorted(self._io_call(
                "expire", lambda: self.io.listdir(self.leased_dir))):
            self._requeue(os.path.join(self.leased_dir, name), published)
        for name in sorted(self._io_call(
                "claim-scan", lambda: self.io.listdir(self.pending_dir))):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.pending_dir, name)
            try:
                Lease.from_dict(self._read_payload("claim-read", path))
            except FileNotFoundError:
                continue
            except (FFISError, ValueError) as exc:
                self._quarantine_damaged(path, exc)
        settled = set(self._io_call(
            "claim-scan", lambda: self.io.listdir(self.pending_dir)))
        settled |= published
        settled |= self._quarantined_poison_names()
        for lease in leases:
            if f"{lease.lease_id}.json" not in settled:
                self._post(lease)

    # -- worker side ------------------------------------------------------------

    def verify_plan(self, plan) -> None:
        verify_manifest(plan, self.manifest, where=self.root)

    def claim(self, worker_id: str) -> Optional[Claim]:
        """Atomically claim one pending lease, oldest-posted first.

        Returns ``None`` when nothing is pending right now -- which
        does **not** mean the campaign is over: a claimed lease may yet
        expire back into ``pending/``.  Callers poll until
        :meth:`finished` or :meth:`settled`.

        A pending file whose payload turns out to be unparseable is
        quarantined with a warning and skipped -- one corrupt entry
        must not kill the worker that happened to claim it.
        """
        _check_worker_id(worker_id)
        try:
            names = [name for name in sorted(self._io_call(
                "claim-scan", lambda: self.io.listdir(self.pending_dir)))
                if name.endswith(".json")]
        except FileNotFoundError:
            return None
        if not names:
            return None
        published = _published_leases(self._io_call(
            "claim-scan", lambda: self.io.listdir(self.shards_dir)))
        for name in names:
            source = os.path.join(self.pending_dir, name)
            if name in published:
                # A worker that outran its TTL published after expiry
                # re-posted its lease: the lease is settled, the
                # pending copy is noise.
                try:
                    self.io.unlink(source)
                except FileNotFoundError:
                    pass
                continue
            target = os.path.join(self.leased_dir,
                                  f"{name}{_CLAIM_SEP}{worker_id}")
            try:
                self._io_call("claim-rename",
                              lambda: self.io.replace(source, target))
            except (FileNotFoundError, OSError):
                continue  # another worker won this lease; try the next
            self._io_call("heartbeat", lambda: self.io.utime(target))
            try:
                lease = Lease.from_dict(
                    self._read_payload("claim-read", target))
            except FileNotFoundError:
                continue  # expired out from under us already
            except (FFISError, ValueError, OSError) as exc:
                self._quarantine_damaged(target, exc)
                continue
            return Claim(lease=lease, path=target, worker_id=worker_id)
        return None

    def heartbeat(self, claim: Claim) -> None:
        """Refresh the claim's liveness stamp (kernel time; the worker
        itself never reads a clock)."""
        try:
            self._io_call("heartbeat", lambda: self.io.utime(claim.path))
        except FileNotFoundError:
            pass  # expired out from under us; completion will notice

    def complete(self, claim: Claim) -> None:
        """Release the claim of a lease whose segment is published.

        The publish already settled the lease; this is cleanup, so a
        SIGKILL before it leaves a claim that expiry drops rather than
        re-posts.
        """
        try:
            self.io.unlink(claim.path)
        except FileNotFoundError:
            pass  # expiry dropped or re-posted it first; dedup absorbs it

    def fail(self, claim: Claim, reason: str) -> None:
        """Give up on a claim after an infrastructure failure.

        The lease goes straight back to pending with its attempt
        bumped (no TTL wait), unless the bump would reach the
        quarantine budget -- then it is declared poison with *reason*
        as the diagnosis.  Either way the claiming worker is free to
        take other work, which is what keeps one bad lease from
        pinning a fleet.
        """
        lease = claim.lease.reassigned()
        if lease.attempt >= self.quarantine_after:
            self._quarantine_poison(lease, reason,
                                    worker_id=claim.worker_id)
        else:
            self._write_json(
                "post",
                os.path.join(self.pending_dir,
                             f"{lease.lease_id}.json"),
                lease.to_dict())
        try:
            self.io.unlink(claim.path)
        except FileNotFoundError:
            pass  # expired concurrently; the re-post wins either way

    # -- shards -----------------------------------------------------------------

    def segment_path(self, worker_id: str, lease_id: str) -> str:
        """Where the records of one (lease, worker) execution land.

        Per-lease segments (rather than one append-mode file per
        worker) mean a crashed execution's partial output never enters
        the merge set: only segments published whole via
        :meth:`publish_segment` carry the ``.jsonl`` suffix.
        """
        return os.path.join(
            self.shards_dir,
            f"{_SEGMENT_PREFIX}{lease_id}{_CLAIM_SEP}"
            f"{_check_worker_id(worker_id)}{_SEGMENT_SUFFIX}")

    def publish_segment(self, path: str) -> None:
        """Atomically publish the finished segment written at
        ``path + '.tmp'`` (the writer has already flushed + fsynced).

        This rename is the lease's one settle point: from here on the
        lease counts as done, whatever becomes of its claim.
        """
        self._io_call("segment-publish",
                      lambda: self.io.replace(path + ".tmp", path))

    def shard_paths(self) -> List[str]:
        try:
            names = sorted(self._io_call(
                "merge-scan", lambda: self.io.listdir(self.shards_dir)))
        except FileNotFoundError:
            return []
        return [os.path.join(self.shards_dir, name)
                for name in names if name.endswith(_SEGMENT_SUFFIX)]

    def _published(self, site: str) -> Set[str]:
        """The settled set: lease filenames with a published segment."""
        return _published_leases(self._io_call(
            site, lambda: self.io.listdir(self.shards_dir)))

    # -- coordinator side -------------------------------------------------------

    def _requeue(self, path: str, published: Set[str]) -> Optional[Lease]:
        """Move one leased entry back to pending (attempt bumped), or
        quarantine it if the bump exhausts the attempt budget; only
        drop it if its lease is *published* (settled)."""
        name = os.path.basename(path).rsplit(_CLAIM_SEP, 1)[0]
        if name in published:
            try:
                self.io.unlink(path)
            except FileNotFoundError:
                pass
            return None
        try:
            lease = Lease.from_dict(
                self._read_payload("expire-read", path)).reassigned()
        except FileNotFoundError:
            return None  # claim vanished mid-scan (completed or expired)
        except (FFISError, ValueError, OSError) as exc:
            self._quarantine_damaged(path, exc)
            return None
        if lease.attempt >= self.quarantine_after:
            self._quarantine_poison(
                lease, "lease expired past its attempt budget; the "
                "assigned workers keep dying on it")
            try:
                self.io.unlink(path)
            except FileNotFoundError:
                pass
            return None
        self._write_json(
            "post", os.path.join(self.pending_dir, name), lease.to_dict())
        try:
            self.io.unlink(path)
        except FileNotFoundError:
            pass
        return lease

    def expire_stale(self, ttl_seconds: float,
                     now: Optional[float] = None) -> List[Lease]:
        """Re-post every claim whose heartbeat is older than the TTL.

        The re-executed range may duplicate records a dead (or merely
        slow) worker already wrote -- the merge step deduplicates by
        ``(campaign, run index)``, so reassignment is always safe, just
        potentially wasteful.  A claim unlinked between the scan and
        the stat (its worker released it) is skipped, never an error; a
        claim whose lease has a published segment is dropped whatever
        its age, never re-posted.  Returns the re-posted leases.
        """
        if now is None:
            # repro: allow[R001] lease liveness vs file mtimes; never recorded
            now = time.time()
        requeued: List[Lease] = []
        try:
            names = sorted(self._io_call(
                "expire", lambda: self.io.listdir(self.leased_dir)))
        except FileNotFoundError:
            return requeued
        published = self._published("expire")
        for name in names:
            path = os.path.join(self.leased_dir, name)
            try:
                age = now - self.io.getmtime(path)
            except OSError:
                continue  # released or already expired mid-scan
            if age > ttl_seconds or \
                    name.rsplit(_CLAIM_SEP, 1)[0] in published:
                lease = self._requeue(path, published)
                if lease is not None:
                    requeued.append(lease)
        return requeued

    # -- progress ---------------------------------------------------------------

    def _count(self, directory: str) -> int:
        try:
            return sum(1 for name in self.io.listdir(directory)
                       if name.endswith(".json"))
        except (FileNotFoundError, OSError):
            return 0

    def counts(self) -> Dict[str, int]:
        return {"pending": self._count(self.pending_dir),
                "leased": len(self._leased_names()),
                "done": len(self._settled_names()),
                "quarantined": self._quarantined_count(),
                "total": len(self.lease_ids)}

    def _leased_names(self) -> List[str]:
        try:
            return [name for name in self.io.listdir(self.leased_dir)
                    if _CLAIM_SEP in name]
        except (FileNotFoundError, OSError):
            return []

    def _quarantined_count(self) -> int:
        try:
            return len(self.io.listdir(self.quarantine_dir))
        except (FileNotFoundError, OSError):
            return 0

    def _quarantined_poison_names(self) -> set:
        """Lease filenames parked with a poison diagnosis (resume does
        not re-post these -- delete the diagnosis file to retry)."""
        try:
            names = self.io.listdir(self.quarantine_dir)
        except (FileNotFoundError, OSError):
            return set()
        return {name for name in names if name.endswith(".json")}

    def _quarantined_lease_names(self) -> set:
        """Every lease filename with *any* quarantine entry (poison or
        damaged) -- the holes the campaign settles around."""
        try:
            names = self.io.listdir(self.quarantine_dir)
        except (FileNotFoundError, OSError):
            return set()
        settled = set()
        for name in names:
            if name.endswith(_DAMAGED_SUFFIX):
                # A damaged *claim* keeps its --worker suffix; strip it
                # so the entry maps back to its lease filename.
                stem = name[:-len(_DAMAGED_SUFFIX)]
                settled.add(stem.rsplit(_CLAIM_SEP, 1)[0])
            elif name.endswith(".json"):
                settled.add(name)
        return settled

    def quarantined(self) -> List[Dict[str, Any]]:
        """Diagnostic payloads of every quarantined lease, in lease-id
        order; damaged (unparseable) entries report as such."""
        out: List[Dict[str, Any]] = []
        try:
            names = sorted(self.io.listdir(self.quarantine_dir))
        except (FileNotFoundError, OSError):
            return out
        for name in names:
            path = os.path.join(self.quarantine_dir, name)
            if name.endswith(".json"):
                try:
                    out.append(self._read_payload("quarantine", path))
                    continue
                except (OSError, ValueError):
                    pass
            stem = name[:-len(_DAMAGED_SUFFIX)] \
                if name.endswith(_DAMAGED_SUFFIX) else name
            stem = stem.rsplit(_CLAIM_SEP, 1)[0]
            if stem.endswith(".json"):
                stem = stem[:-len(".json")]
            out.append({"lease_id": stem,
                        "reason": "unparseable lease file quarantined"})
        return out

    def _settled_names(self) -> Set[str]:
        """:meth:`_published` for polls: no retries; empty while
        ``shards/`` cannot be listed."""
        try:
            return _published_leases(self.io.listdir(self.shards_dir))
        except OSError:
            return set()

    def all_done(self) -> bool:
        """Every manifest lease has a published segment."""
        done = self._settled_names()
        return all(f"{lease_id}.json" in done for lease_id in self.lease_ids)

    def settled(self) -> bool:
        """Every manifest lease is either done or quarantined: the
        campaign cannot make further progress and should wrap up
        (fully if ``all_done``, partially otherwise)."""
        done = self._settled_names() | self._quarantined_lease_names()
        return all(f"{lease_id}.json" in done for lease_id in self.lease_ids)

    def idle(self) -> bool:
        """Nothing pending and nothing claimed (not necessarily done --
        a crashed queue can be idle with work missing)."""
        return self._count(self.pending_dir) == 0 \
            and not self._leased_names()

    def mark_finished(self) -> None:
        def publish() -> None:
            f = self.io.open_w(self.finished_path)
            try:
                self.io.write(f, b"finished\n")
            finally:
                f.close()

        self._io_call("finish", publish)

    def finished(self) -> bool:
        return self.io.exists(self.finished_path)


def _bootstrap_manifest(path: str, manifest: Dict[str, Any]) -> None:
    """First write of a fresh queue's manifest (plain filesystem: the
    queue object that would carry the seam cannot exist before the
    manifest does)."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
