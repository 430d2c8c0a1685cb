//! RDMA queue pairs: the verbs-layer substrate under NVMf.
//!
//! The paper's data plane "can take advantage of fast Remote Direct Memory
//! Access (RDMA) enabled networks" with userspace polling instead of
//! interrupts (§III-A Principle 1). This module provides that layer as real
//! code: bounded send/receive queues, work requests with IDs, and a
//! completion queue the owner **polls** — there is no blocking wait, by
//! design. A [`QueuePair`] is connected to a peer; posting a send delivers
//! the payload into the peer's posted receive buffers and generates
//! completions on both sides, exactly the discipline an SPDK NVMf
//! initiator/target pair uses.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::sg::SgList;

/// Work-request identifier, echoed in the matching completion.
pub type WrId = u64;

/// Verbs-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QpError {
    /// The send queue is full (caller must poll the CQ and retry).
    SendQueueFull,
    /// The peer has no posted receive for an incoming message.
    ReceiverNotReady,
    /// The queue pair is not connected.
    NotConnected,
}

impl fmt::Display for QpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QpError::SendQueueFull => write!(f, "send queue full"),
            QpError::ReceiverNotReady => write!(f, "receiver not ready (RNR)"),
            QpError::NotConnected => write!(f, "queue pair not connected"),
        }
    }
}

impl std::error::Error for QpError {}

/// A work completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// The work request this completes.
    pub wr_id: WrId,
    /// Send or receive side.
    pub opcode: CompletionOp,
    /// For receives: the delivered scatter-gather payload. Segments are
    /// the sender's refcounted buffers — delivery never copies.
    pub payload: Option<SgList>,
}

/// Which verb completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionOp {
    /// A posted send finished (payload is on the peer).
    Send,
    /// A posted receive was filled.
    Recv,
}

/// Shared state of one QP endpoint.
struct Endpoint {
    /// Receive buffers posted by the owner, FIFO.
    recv_queue: VecDeque<WrId>,
    /// Completions awaiting a poll.
    cq: VecDeque<Completion>,
}

/// One side of a connected RDMA queue pair.
pub struct QueuePair {
    /// Bounded send-queue depth (SPDK default-ish).
    sq_depth: usize,
    /// Sends posted but not yet completed (completions are generated at
    /// post time in this functional model, so this tracks CQ backlog).
    local: Arc<Mutex<Endpoint>>,
    peer: Arc<Mutex<Endpoint>>,
    connected: bool,
    posted_sends: u64,
    posted_recvs: u64,
}

impl QueuePair {
    /// Create a connected pair of endpoints with the given queue depths.
    pub fn connected_pair(sq_depth: usize, rq_depth: usize) -> (QueuePair, QueuePair) {
        assert!(sq_depth > 0 && rq_depth > 0);
        let a = Arc::new(Mutex::new(Endpoint {
            recv_queue: VecDeque::with_capacity(rq_depth),
            cq: VecDeque::new(),
        }));
        let b = Arc::new(Mutex::new(Endpoint {
            recv_queue: VecDeque::with_capacity(rq_depth),
            cq: VecDeque::new(),
        }));
        (
            QueuePair {
                sq_depth,
                local: Arc::clone(&a),
                peer: Arc::clone(&b),
                connected: true,
                posted_sends: 0,
                posted_recvs: 0,
            },
            QueuePair {
                sq_depth,
                local: b,
                peer: a,
                connected: true,
                posted_sends: 0,
                posted_recvs: 0,
            },
        )
    }

    /// Post a receive buffer; it will be filled by a future peer send.
    pub fn post_recv(&mut self, wr_id: WrId) {
        self.local.lock().recv_queue.push_back(wr_id);
        self.posted_recvs += 1;
    }

    /// Post a send of one or more scatter-gather segments. Consumes one of
    /// the peer's posted receives; the payload lands in the peer's CQ
    /// (segments shared by refcount, never copied) and a send completion
    /// lands in ours.
    pub fn post_send(&mut self, wr_id: WrId, payload: impl Into<SgList>) -> Result<(), QpError> {
        let payload: SgList = payload.into();
        if !self.connected {
            return Err(QpError::NotConnected);
        }
        {
            let local = self.local.lock();
            // CQ backlog models outstanding sends: polling drains it.
            let outstanding = local
                .cq
                .iter()
                .filter(|c| c.opcode == CompletionOp::Send)
                .count();
            if outstanding >= self.sq_depth {
                return Err(QpError::SendQueueFull);
            }
        }
        {
            let mut peer = self.peer.lock();
            let Some(recv_wr) = peer.recv_queue.pop_front() else {
                return Err(QpError::ReceiverNotReady);
            };
            peer.cq.push_back(Completion {
                wr_id: recv_wr,
                opcode: CompletionOp::Recv,
                payload: Some(payload),
            });
        }
        self.local.lock().cq.push_back(Completion {
            wr_id,
            opcode: CompletionOp::Send,
            payload: None,
        });
        self.posted_sends += 1;
        Ok(())
    }

    /// Poll up to `max` completions — never blocks (Principle 1: polling,
    /// not interrupts).
    pub fn poll_cq(&mut self, max: usize) -> Vec<Completion> {
        let mut local = self.local.lock();
        let n = max.min(local.cq.len());
        local.cq.drain(..n).collect()
    }

    /// Send-queue slots currently free: `sq_depth` minus unpolled send
    /// completions. A pipelining initiator checks this before posting so a
    /// deep submission window degrades into a CQ drain instead of an error.
    pub fn send_slots_free(&self) -> usize {
        let local = self.local.lock();
        let outstanding = local
            .cq
            .iter()
            .filter(|c| c.opcode == CompletionOp::Send)
            .count();
        self.sq_depth.saturating_sub(outstanding)
    }

    /// Lifetime `(sends, recvs)` posted.
    pub fn counters(&self) -> (u64, u64) {
        (self.posted_sends, self.posted_recvs)
    }

    /// Tear the connection down; further sends fail.
    pub fn disconnect(&mut self) {
        self.connected = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn send_recv_roundtrip_by_polling() {
        let (mut client, mut server) = QueuePair::connected_pair(16, 16);
        server.post_recv(100);
        client.post_send(1, Bytes::from_static(b"capsule")).unwrap();
        // Server polls its CQ and finds the delivery.
        let got = server.poll_cq(8);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].wr_id, 100);
        assert_eq!(got[0].opcode, CompletionOp::Recv);
        assert_eq!(got[0].payload.as_deref(), Some(b"capsule".as_ref()));
        // Client sees its send completion.
        let got = client.poll_cq(8);
        assert_eq!(got[0].wr_id, 1);
        assert_eq!(got[0].opcode, CompletionOp::Send);
    }

    #[test]
    fn rnr_when_no_receive_posted() {
        let (mut client, _server) = QueuePair::connected_pair(16, 16);
        let err = client.post_send(1, Bytes::from_static(b"x")).unwrap_err();
        assert_eq!(err, QpError::ReceiverNotReady);
    }

    #[test]
    fn send_queue_depth_backpressure() {
        let (mut client, mut server) = QueuePair::connected_pair(2, 16);
        for i in 0..4 {
            server.post_recv(i);
        }
        client.post_send(1, Bytes::from_static(b"a")).unwrap();
        client.post_send(2, Bytes::from_static(b"b")).unwrap();
        // Two unpolled send completions = SQ full.
        assert_eq!(
            client.post_send(3, Bytes::from_static(b"c")).unwrap_err(),
            QpError::SendQueueFull
        );
        // Polling frees slots (run-to-completion style).
        client.poll_cq(8);
        client.post_send(3, Bytes::from_static(b"c")).unwrap();
    }

    #[test]
    fn send_slots_track_cq_backlog() {
        let (mut client, mut server) = QueuePair::connected_pair(2, 16);
        for i in 0..4 {
            server.post_recv(i);
        }
        assert_eq!(client.send_slots_free(), 2);
        client.post_send(1, Bytes::from_static(b"a")).unwrap();
        assert_eq!(client.send_slots_free(), 1);
        client.post_send(2, Bytes::from_static(b"b")).unwrap();
        assert_eq!(client.send_slots_free(), 0);
        client.poll_cq(8);
        assert_eq!(client.send_slots_free(), 2);
    }

    #[test]
    fn fifo_receive_matching() {
        let (mut client, mut server) = QueuePair::connected_pair(16, 16);
        server.post_recv(10);
        server.post_recv(11);
        client.post_send(1, Bytes::from_static(b"first")).unwrap();
        client.post_send(2, Bytes::from_static(b"second")).unwrap();
        let got = server.poll_cq(8);
        assert_eq!(got[0].wr_id, 10);
        assert_eq!(got[0].payload.as_deref(), Some(b"first".as_ref()));
        assert_eq!(got[1].wr_id, 11);
        assert_eq!(got[1].payload.as_deref(), Some(b"second".as_ref()));
    }

    #[test]
    fn bidirectional_traffic() {
        let (mut a, mut b) = QueuePair::connected_pair(16, 16);
        a.post_recv(500);
        b.post_recv(600);
        a.post_send(1, Bytes::from_static(b"request")).unwrap();
        let req = b.poll_cq(8);
        assert_eq!(req[0].payload.as_deref(), Some(b"request".as_ref()));
        b.post_send(2, Bytes::from_static(b"response")).unwrap();
        let resp: Vec<_> = a
            .poll_cq(8)
            .into_iter()
            .filter(|c| c.opcode == CompletionOp::Recv)
            .collect();
        assert_eq!(resp[0].wr_id, 500);
        assert_eq!(resp[0].payload.as_deref(), Some(b"response".as_ref()));
    }

    #[test]
    fn disconnect_fails_sends() {
        let (mut a, mut b) = QueuePair::connected_pair(16, 16);
        b.post_recv(1);
        a.disconnect();
        assert_eq!(
            a.post_send(1, Bytes::from_static(b"x")).unwrap_err(),
            QpError::NotConnected
        );
    }

    #[test]
    fn capsules_travel_over_queue_pairs() {
        // An NVMf exchange expressed at the verbs layer: the full wire
        // discipline of Figure 4's userspace path.
        use crate::capsule::{Capsule, Completion as NvmfCompletion, Status};
        let (mut init, mut tgt) = QueuePair::connected_pair(16, 16);
        tgt.post_recv(0);
        init.post_recv(0);
        let cmd = Capsule::write(7, 1, 4096, Bytes::from_static(b"data"));
        init.post_send(1, cmd.encode_sg()).unwrap();
        // Target polls, decodes, "executes", responds. The write payload
        // rode as its own SGE: same refcounted buffer, no wire copy.
        let wire = tgt.poll_cq(1).pop().unwrap().payload.unwrap();
        assert_eq!(wire.segment_count(), 2);
        let decoded = Capsule::decode_sg(wire).unwrap();
        assert_eq!(decoded.cid, 7);
        assert_eq!(&decoded.data[..], b"data");
        tgt.post_send(2, NvmfCompletion::ok(decoded.cid, Bytes::new()).encode_sg())
            .unwrap();
        let resp_wire = init
            .poll_cq(8)
            .into_iter()
            .find(|c| c.opcode == CompletionOp::Recv)
            .unwrap()
            .payload
            .unwrap();
        let resp = NvmfCompletion::decode_sg(resp_wire).unwrap();
        assert_eq!(resp.cid, 7);
        assert_eq!(resp.status, Status::Success);
    }
}
