"""Communicators: process groups, point-to-point calls, collectives.

A :class:`Communicator` is a group of global ranks plus a context id.
Like in MPI, all addressing inside a communicator uses *local* ranks;
trace events translate to global ranks so the analyzer can localize
findings in the world (as EXPERT does in figure 3.5, where a
communicator-local root 1 is reported as global rank 9).
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from ..simkernel import current_process
from ..trace.api import current_instrumentation, region
from . import collectives as _coll
from .buffers import MpiBuf, MpiVBuf
from .datatypes import MPI_LONG, Datatype, Op
from .errors import InvalidRankError, InvalidTagError, MpiError
from .request import Request
from .status import ANY_SOURCE, ANY_TAG, PROC_NULL, Status

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import MpiWorld

#: number of internal tag slots reserved per collective instance
_COLL_TAG_SLOTS = 64


class Communicator:
    """A simulated MPI communicator."""

    def __init__(
        self,
        world: "MpiWorld",
        group: Sequence[int],
        comm_id: int,
        name: str,
    ):
        if len(set(group)) != len(group):
            raise MpiError(f"duplicate ranks in communicator group: {group}")
        self.world = world
        self.group = tuple(group)
        self.comm_id = comm_id
        self.name = name
        self._g2l = {g: i for i, g in enumerate(self.group)}
        # Per-local-rank collective sequence numbers.  MPI requires all
        # ranks of a communicator to issue collectives in the same
        # order, so independently-kept counters always agree.
        self._coll_seq: dict[int, int] = defaultdict(int)

    # ------------------------------------------------------------------
    # group queries
    # ------------------------------------------------------------------

    def rank(self) -> int:
        """Local rank of the calling process (``MPI_Comm_rank``)."""
        g = current_process().context.get("mpi_rank")
        if g is None:
            raise MpiError("not inside an MPI rank process")
        try:
            return self._g2l[g]
        except KeyError:
            raise MpiError(
                f"global rank {g} is not a member of {self.name}"
            ) from None

    def size(self) -> int:
        """Number of processes in the communicator (``MPI_Comm_size``)."""
        return len(self.group)

    def global_rank(self, local: int) -> int:
        """Translate a local rank to the world rank."""
        self._check_rank(local)
        return self.group[local]

    def contains_global(self, g: int) -> bool:
        return g in self._g2l

    def _check_rank(self, r: int) -> None:
        if not 0 <= r < len(self.group):
            raise InvalidRankError(
                f"rank {r} out of range for {self.name} "
                f"(size {len(self.group)})"
            )

    # ------------------------------------------------------------------
    # point-to-point: nonblocking core
    # ------------------------------------------------------------------

    def _null_request(self, kind: str) -> Request:
        """An immediately-complete request (``MPI_PROC_NULL`` peer)."""
        proc = current_process()
        req = Request(kind, self, proc)
        req.status.source = PROC_NULL
        req._complete(proc.sim.now)
        return req

    def _post_isend(
        self,
        buf: MpiBuf,
        dest: int,
        tag: int,
        internal: bool = False,
    ) -> Request:
        buf.check_usable()
        if dest == PROC_NULL:
            return self._null_request("send")
        self._check_rank(dest)
        if not internal and tag < 0:
            raise InvalidTagError(f"user message tags must be >= 0: {tag}")
        proc = current_process()
        me = self.rank()
        req = Request("send", self, proc)
        msg_id = self.world.new_msg_id()
        rec, loc = current_instrumentation()
        if rec is not None:
            rec.send(
                proc.sim.now,
                loc,
                peer=self.global_rank(dest),
                tag=tag,
                comm_id=self.comm_id,
                nbytes=buf.nbytes,
                msg_id=msg_id,
                internal=internal,
            )
        self.world.engine.post_send(
            self,
            src=me,
            dst=dest,
            tag=tag,
            data=buf.data,
            count=buf.cnt,
            dtype=buf.type,
            internal=internal,
            request=req,
            msg_id=msg_id,
        )
        return req

    def _post_irecv(
        self,
        buf: MpiBuf,
        source: int,
        tag: int,
        internal: bool = False,
    ) -> Request:
        buf.check_usable()
        if source == PROC_NULL:
            return self._null_request("recv")
        if source != ANY_SOURCE:
            self._check_rank(source)
        if not internal and tag < 0 and tag != ANY_TAG:
            raise InvalidTagError(f"user message tags must be >= 0: {tag}")
        proc = current_process()
        me = self.rank()
        req = Request("recv", self, proc)
        post_time = proc.sim.now
        rec, loc = current_instrumentation()
        if rec is not None:

            def _record(at: float, req: Request = req) -> None:
                rec.recv(
                    at,
                    loc,
                    peer=self.global_rank(req.status.source),
                    tag=req.status.tag,
                    comm_id=self.comm_id,
                    nbytes=req.status.nbytes,
                    msg_id=req.status.msg_id,
                    post_time=post_time,
                    internal=internal,
                )

            req._on_complete = _record
        self.world.engine.post_recv(
            self,
            dst=me,
            src_spec=source,
            tag_spec=tag,
            buf_data=buf.data,
            buf_count=buf.cnt,
            dtype=buf.type,
            internal=internal,
            request=req,
        )
        return req

    # ------------------------------------------------------------------
    # point-to-point: public API
    # ------------------------------------------------------------------

    def isend(self, buf: MpiBuf, dest: int, tag: int = 0) -> Request:
        """Nonblocking send (``MPI_Isend``)."""
        with region("MPI_Isend"):
            req = self._post_isend(buf, dest, tag)
            proc = current_process()
            proc.sim.hold(self.world.transport.send_overhead)
        return req

    def irecv(
        self, buf: MpiBuf, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Request:
        """Nonblocking receive (``MPI_Irecv``)."""
        with region("MPI_Irecv"):
            req = self._post_irecv(buf, source, tag)
        return req

    def send(self, buf: MpiBuf, dest: int, tag: int = 0) -> None:
        """Blocking send (``MPI_Send``).

        With the eager protocol this returns after the local send
        overhead; with rendezvous it blocks until the receiver arrives
        -- the *late receiver* situation.
        """
        with region("MPI_Send"):
            req = self._post_isend(buf, dest, tag)
            req.wait()

    def recv(
        self,
        buf: MpiBuf,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
    ) -> Status:
        """Blocking receive (``MPI_Recv``).

        Blocks until a matching message has fully arrived; if the
        sender has not even started yet, the blocked time is the *late
        sender* pattern.
        """
        with region("MPI_Recv"):
            req = self._post_irecv(buf, source, tag)
            status = req.wait()
        return status

    def wait(self, request: Request) -> Status:
        """Complete one nonblocking operation (``MPI_Wait``)."""
        with region("MPI_Wait"):
            status = request.wait()
        return status

    def waitall(self, requests: Sequence[Request]) -> list[Status]:
        """Complete several nonblocking operations (``MPI_Waitall``)."""
        with region("MPI_Waitall"):
            statuses = [req.wait() for req in requests]
        return statuses

    def waitany(
        self, requests: Sequence[Request]
    ) -> tuple[int, Status]:
        """Complete the earliest-finishing request (``MPI_Waitany``).

        Returns ``(index, status)``.  Requests already consumed by a
        prior wait are skipped; it is an error if every request has
        already been waited on.
        """
        if not requests:
            raise MpiError("waitany on an empty request list")
        proc = current_process()
        with region("MPI_Waitany"):
            while True:
                pending = [
                    (req.completion_time, i)
                    for i, req in enumerate(requests)
                    if not req.waited
                ]
                if not pending:
                    raise MpiError(
                        "waitany: every request already completed"
                    )
                ready = [
                    (t, i) for t, i in pending if t is not None
                ]
                if ready:
                    t, i = min(ready)
                    status = requests[i].wait()
                    return i, status
                for _, i in pending:
                    requests[i]._waiters.append(proc)
                try:
                    proc.sim.passivate("MPI_Waitany")
                finally:
                    for _, i in pending:
                        requests[i]._remove_waiter(proc)

    def testall(self, requests: Sequence[Request]) -> bool:
        """True iff every request has completed by now (``MPI_Testall``).

        Unlike MPI, partially-completed requests are *not* consumed on
        a False result (our requests are idempotent handles), which
        keeps retry loops simple.
        """
        results = [req.test() for req in requests]  # no short-circuit:
        # each test() may consume a completed request and emit its
        # trace event, so every request gets polled exactly once.
        return all(results)

    def sendrecv(
        self,
        sendbuf: MpiBuf,
        dest: int,
        sendtag: int,
        recvbuf: MpiBuf,
        source: int = ANY_SOURCE,
        recvtag: int = ANY_TAG,
    ) -> Status:
        """Combined send and receive (``MPI_Sendrecv``), deadlock-free."""
        with region("MPI_Sendrecv"):
            rreq = self._post_irecv(recvbuf, source, recvtag)
            sreq = self._post_isend(sendbuf, dest, sendtag)
            sreq.wait()
            status = rreq.wait()
        return status

    def iprobe(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Optional[Status]:
        """Non-blocking envelope check (``MPI_Iprobe``).

        Returns the pending message's status if one is *available to
        receive now* (i.e. has arrived on the wire), else ``None``.
        The message stays queued.
        """
        proc = current_process()
        item = self.world.engine.find_send(
            self.comm_id, self.rank(), source, tag
        )
        if item is None:
            return None
        available = item.arrival if item.eager else item.send_start
        if available > proc.sim.now:
            return None
        return Status(
            source=item.src,
            tag=item.tag,
            count=item.count,
            nbytes=item.nbytes,
            msg_id=item.msg_id,
        )

    def probe(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Status:
        """Blocking envelope check (``MPI_Probe``).

        Blocks until a matching message is available to receive, then
        returns its status without consuming it.
        """
        proc = current_process()
        me = self.rank()
        engine = self.world.engine
        with region("MPI_Probe"):
            while True:
                item = engine.find_send(self.comm_id, me, source, tag)
                if item is not None:
                    available = (
                        item.arrival if item.eager else item.send_start
                    )
                    if available > proc.sim.now:
                        proc.sim.hold(available - proc.sim.now)
                    return Status(
                        source=item.src,
                        tag=item.tag,
                        count=item.count,
                        nbytes=item.nbytes,
                        msg_id=item.msg_id,
                    )
                engine.register_prober(self.comm_id, me, proc)
                try:
                    proc.sim.passivate("MPI_Probe")
                finally:
                    engine.unregister_prober(self.comm_id, me, proc)

    # ------------------------------------------------------------------
    # internal p2p used by collective algorithms
    # ------------------------------------------------------------------

    def _int_isend(
        self, data: np.ndarray, dtype: Datatype, dst: int, tag: int
    ) -> Request:
        buf = MpiBuf(type=dtype, cnt=len(data), data=np.asarray(data))
        return self._post_isend(buf, dst, tag, internal=True)

    def _int_irecv(
        self, data: np.ndarray, dtype: Datatype, src: int, tag: int
    ) -> Request:
        buf = MpiBuf(type=dtype, cnt=len(data), data=np.asarray(data))
        return self._post_irecv(buf, src, tag, internal=True)

    def _int_send(
        self, data: np.ndarray, dtype: Datatype, dst: int, tag: int
    ) -> None:
        self._int_isend(data, dtype, dst, tag).wait()

    def _int_recv(
        self, data: np.ndarray, dtype: Datatype, src: int, tag: int
    ) -> Status:
        return self._int_irecv(data, dtype, src, tag).wait()

    @staticmethod
    def _coll_tag(instance: int, step: int) -> int:
        if not 0 <= step < _COLL_TAG_SLOTS:
            raise MpiError(f"collective step {step} out of tag slots")
        return instance * _COLL_TAG_SLOTS + step

    def _next_instance(self) -> int:
        me = self.rank()
        seq = self._coll_seq[me]
        self._coll_seq[me] = seq + 1
        return seq

    # ------------------------------------------------------------------
    # collective operations
    # ------------------------------------------------------------------

    def _run_collective(
        self,
        op_name: str,
        algo,
        root: int = -1,
        bytes_sent: int = 0,
        bytes_recv: int = 0,
    ):
        """Shared wrapper: trace region + instance + CollExit event.

        ``enter_time`` is read before the region opens, and the
        CollExit event is recorded inside it, so it precedes the Exit.
        """
        instance = self._next_instance()
        rec, loc = current_instrumentation()
        proc = current_process()
        enter_time = proc.sim.now
        with region(op_name):
            try:
                return algo(instance)
            finally:
                if rec is not None:
                    rec.coll_exit(
                        proc.sim.now,
                        loc,
                        op=op_name,
                        comm_id=self.comm_id,
                        instance=instance,
                        root=self.global_rank(root) if root >= 0 else -1,
                        enter_time=enter_time,
                        bytes_sent=bytes_sent,
                        bytes_recv=bytes_recv,
                    )

    def barrier(self) -> None:
        """``MPI_Barrier`` (dissemination algorithm)."""
        self._run_collective(
            "MPI_Barrier", lambda inst: _coll.barrier(self, inst)
        )

    def bcast(self, buf: MpiBuf, root: int = 0) -> None:
        """``MPI_Bcast`` (binomial tree).

        Non-root ranks cannot complete before the root has entered --
        the dependence exploited by the *late broadcast* property.
        """
        buf.check_usable()
        self._check_rank(root)
        self._run_collective(
            "MPI_Bcast",
            lambda inst: _coll.bcast(self, buf, root, inst),
            root=root,
            bytes_sent=buf.nbytes,
        )

    def reduce(
        self,
        sendbuf: MpiBuf,
        recvbuf: Optional[MpiBuf],
        op: Op,
        root: int = 0,
    ) -> None:
        """``MPI_Reduce`` (binomial tree).

        The root's completion depends on every contributor -- the basis
        of the *early reduce* property (root enters long before the
        data can arrive).
        """
        sendbuf.check_usable()
        self._check_rank(root)
        if self.rank() == root and recvbuf is None:
            raise MpiError("root must supply a receive buffer to reduce")
        self._run_collective(
            "MPI_Reduce",
            lambda inst: _coll.reduce(self, sendbuf, recvbuf, op, root, inst),
            root=root,
            bytes_sent=sendbuf.nbytes,
        )

    def allreduce(self, sendbuf: MpiBuf, recvbuf: MpiBuf, op: Op) -> None:
        """``MPI_Allreduce`` (reduce to 0, then broadcast)."""
        sendbuf.check_usable()
        recvbuf.check_usable()
        self._run_collective(
            "MPI_Allreduce",
            lambda inst: _coll.allreduce(self, sendbuf, recvbuf, op, inst),
            bytes_sent=sendbuf.nbytes,
            bytes_recv=recvbuf.nbytes,
        )

    def scatter(
        self, sendbuf: Optional[MpiBuf], recvbuf: MpiBuf, root: int = 0
    ) -> None:
        """``MPI_Scatter`` (linear from root).

        ``sendbuf`` at the root holds ``size * recvbuf.cnt`` elements.
        """
        recvbuf.check_usable()
        self._check_rank(root)
        if self.rank() == root:
            if sendbuf is None:
                raise MpiError("root must supply a send buffer to scatter")
            sendbuf.check_usable()
            if sendbuf.cnt < recvbuf.cnt * self.size():
                raise MpiError("scatter send buffer too small at root")
        self._run_collective(
            "MPI_Scatter",
            lambda inst: _coll.scatter(self, sendbuf, recvbuf, root, inst),
            root=root,
            bytes_recv=recvbuf.nbytes,
        )

    def scatterv(self, vbuf: MpiVBuf, root: int = 0) -> None:
        """``MPI_Scatterv``: irregular scatter driven by a v-buffer."""
        vbuf.check_usable()
        self._check_rank(root)
        self._run_collective(
            "MPI_Scatterv",
            lambda inst: _coll.scatterv(self, vbuf, root, inst),
            root=root,
            bytes_recv=vbuf.buf.nbytes,
        )

    def gather(
        self, sendbuf: MpiBuf, recvbuf: Optional[MpiBuf], root: int = 0
    ) -> None:
        """``MPI_Gather`` (linear to root)."""
        sendbuf.check_usable()
        self._check_rank(root)
        if self.rank() == root:
            if recvbuf is None:
                raise MpiError("root must supply a receive buffer to gather")
            recvbuf.check_usable()
            if recvbuf.cnt < sendbuf.cnt * self.size():
                raise MpiError("gather receive buffer too small at root")
        self._run_collective(
            "MPI_Gather",
            lambda inst: _coll.gather(self, sendbuf, recvbuf, root, inst),
            root=root,
            bytes_sent=sendbuf.nbytes,
        )

    def gatherv(self, vbuf: MpiVBuf, root: int = 0) -> None:
        """``MPI_Gatherv``: irregular gather driven by a v-buffer."""
        vbuf.check_usable()
        self._check_rank(root)
        self._run_collective(
            "MPI_Gatherv",
            lambda inst: _coll.gatherv(self, vbuf, root, inst),
            root=root,
            bytes_sent=vbuf.buf.nbytes,
        )

    def allgather(self, sendbuf: MpiBuf, recvbuf: MpiBuf) -> None:
        """``MPI_Allgather`` (ring algorithm)."""
        sendbuf.check_usable()
        recvbuf.check_usable()
        if recvbuf.cnt < sendbuf.cnt * self.size():
            raise MpiError("allgather receive buffer too small")
        self._run_collective(
            "MPI_Allgather",
            lambda inst: _coll.allgather(self, sendbuf, recvbuf, inst),
            bytes_sent=sendbuf.nbytes,
            bytes_recv=recvbuf.nbytes,
        )

    def alltoall(self, sendbuf: MpiBuf, recvbuf: MpiBuf) -> None:
        """``MPI_Alltoall`` (pairwise exchange).

        Both buffers hold ``size * chunk`` elements; rank ``i`` receives
        chunk ``i`` of every peer.  As an NxN operation it synchronizes
        everyone with everyone -- the *imbalance at alltoall / wait at
        NxN* property.
        """
        sendbuf.check_usable()
        recvbuf.check_usable()
        sz = self.size()
        if sendbuf.cnt % sz or recvbuf.cnt < sendbuf.cnt:
            raise MpiError(
                "alltoall buffers must hold size*chunk elements"
            )
        self._run_collective(
            "MPI_Alltoall",
            lambda inst: _coll.alltoall(self, sendbuf, recvbuf, inst),
            bytes_sent=sendbuf.nbytes,
            bytes_recv=recvbuf.nbytes,
        )

    def scan(self, sendbuf: MpiBuf, recvbuf: MpiBuf, op: Op) -> None:
        """``MPI_Scan`` (linear chain prefix reduction)."""
        sendbuf.check_usable()
        recvbuf.check_usable()
        self._run_collective(
            "MPI_Scan",
            lambda inst: _coll.scan(self, sendbuf, recvbuf, op, inst),
            bytes_sent=sendbuf.nbytes,
        )

    def exscan(self, sendbuf: MpiBuf, recvbuf: MpiBuf, op: Op) -> None:
        """``MPI_Exscan`` (exclusive prefix; rank 0 gets zeros)."""
        sendbuf.check_usable()
        recvbuf.check_usable()
        self._run_collective(
            "MPI_Exscan",
            lambda inst: _coll.exscan(self, sendbuf, recvbuf, op, inst),
            bytes_sent=sendbuf.nbytes,
        )

    def reduce_scatter_block(
        self, sendbuf: MpiBuf, recvbuf: MpiBuf, op: Op
    ) -> None:
        """``MPI_Reduce_scatter_block``: reduce, then scatter equal
        blocks.  ``sendbuf`` holds ``size * recvbuf.cnt`` elements."""
        sendbuf.check_usable()
        recvbuf.check_usable()
        if sendbuf.cnt != recvbuf.cnt * self.size():
            raise MpiError(
                "reduce_scatter_block needs sendbuf of size*recv count"
            )
        self._run_collective(
            "MPI_Reduce_scatter",
            lambda inst: _coll.reduce_scatter_block(
                self, sendbuf, recvbuf, op, inst
            ),
            bytes_sent=sendbuf.nbytes,
            bytes_recv=recvbuf.nbytes,
        )

    # ------------------------------------------------------------------
    # communicator management
    # ------------------------------------------------------------------

    def split(self, color: int, key: int = 0) -> Optional["Communicator"]:
        """``MPI_Comm_split``: partition into sub-communicators by color.

        Ranks passing a negative color receive ``None`` (the analogue
        of ``MPI_UNDEFINED``).  Within a color, new ranks are ordered by
        ``(key, old rank)``.
        """

        def algo(instance: int) -> Optional["Communicator"]:
            me = self.rank()
            sz = self.size()
            record = np.array(
                [color, key, self.global_rank(me)], dtype=np.int64
            )
            table = np.zeros(3 * sz, dtype=np.int64)
            _coll.allgather_raw(self, record, table, instance, step_base=0)
            rows = table.reshape(sz, 3)
            if color < 0:
                return None
            members = sorted(
                (
                    (int(k), int(g))
                    for c, k, g in rows
                    if int(c) == color
                ),
            )
            group = tuple(g for _, g in members)
            comm_id = self.world.comm_id_for(
                (self.comm_id, instance, color), group
            )
            return Communicator(
                self.world,
                group,
                comm_id,
                f"{self.name}.split({color})",
            )

        return self._run_collective("MPI_Comm_split", algo)

    def dup(self) -> "Communicator":
        """``MPI_Comm_dup``: a congruent communicator in a new context."""

        def algo(instance: int) -> "Communicator":
            # Synchronize like a barrier; context creation is collective.
            _coll.barrier(self, instance)
            comm_id = self.world.comm_id_for(
                (self.comm_id, instance, "dup"), self.group
            )
            return Communicator(
                self.world, self.group, comm_id, f"{self.name}.dup"
            )

        return self._run_collective("MPI_Comm_dup", algo)

    def __repr__(self) -> str:
        return (
            f"<Communicator {self.name} id={self.comm_id} "
            f"size={len(self.group)}>"
        )
