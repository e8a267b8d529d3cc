//! Server-side endpoint: listening, token demux, and connection ownership.
//!
//! A [`MptcpListener`] plays the role of the kernel's listen socket plus
//! connection hash tables: MP_CAPABLE SYNs create connections (drawing
//! unique tokens from the shared [`TokenTable`], §5.2), MP_JOIN SYNs are
//! demuxed *by token* — the five-tuple cannot identify the connection
//! across NATs (§3.2) — and everything else is routed by four-tuple.
//!
//! Connections live in a [`ConnTable`] of reusable slots, so the listener's
//! state and per-event cost scale with live connections, not with every
//! connection ever accepted. A finished connection is freed: its slot,
//! four-tuples and token are released, and its telemetry is folded into a
//! closed-connections total.

use std::collections::HashMap;
use std::ops::{Index, IndexMut};

use mptcp_netsim::{SimRng, SimTime};
use mptcp_packet::{FourTuple, MptcpOption, TcpSegment};
use mptcp_telemetry::TelemetrySnapshot;

use crate::config::MptcpConfig;
use crate::conn::MptcpConnection;
use crate::token::TokenTable;

/// Handle to a listener connection: its slot plus the slot's generation
/// when the connection was created. A slot's generation advances when its
/// connection is freed, so an id kept past the free reaches nothing, never
/// the slot's next occupant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ConnId {
    slot: u32,
    gen: u32,
}

impl ConnId {
    /// The slot index (dense, reused after a free).
    pub fn slot(self) -> usize {
        self.slot as usize
    }
}

struct Slot {
    gen: u32,
    conn: Option<MptcpConnection>,
    created: SimTime,
}

/// The listener's connections: a slot table with a free list.
///
/// Iteration yields live connections in slot order. Indexing by `usize`
/// addresses a slot and panics if it is free; indexing by [`ConnId`]
/// panics if the id is stale.
#[derive(Default)]
pub struct ConnTable {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
}

impl ConnTable {
    /// Live connections.
    pub fn len(&self) -> usize {
        self.live
    }

    /// No live connection?
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slots allocated so far, live or free: the most connections ever
    /// held at once.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    fn insert(&mut self, conn: MptcpConnection, now: SimTime) -> ConnId {
        self.live += 1;
        if let Some(slot) = self.free.pop() {
            let s = &mut self.slots[slot as usize];
            s.conn = Some(conn);
            s.created = now;
            return ConnId { slot, gen: s.gen };
        }
        let slot = self.slots.len() as u32;
        self.slots.push(Slot {
            gen: 0,
            conn: Some(conn),
            created: now,
        });
        ConnId { slot, gen: 0 }
    }

    fn remove(&mut self, id: ConnId) -> Option<MptcpConnection> {
        let s = self.slots.get_mut(id.slot())?;
        if s.gen != id.gen {
            return None;
        }
        let conn = s.conn.take()?;
        s.gen = s.gen.wrapping_add(1);
        self.free.push(id.slot);
        self.live -= 1;
        Some(conn)
    }

    /// The id of the connection in `slot`, if the slot is live.
    pub fn id_at(&self, slot: usize) -> Option<ConnId> {
        let s = self.slots.get(slot)?;
        s.conn.as_ref().map(|_| ConnId {
            slot: slot as u32,
            gen: s.gen,
        })
    }

    /// The connection `id` names, unless it was freed.
    pub fn get(&self, id: ConnId) -> Option<&MptcpConnection> {
        self.slots
            .get(id.slot())
            .filter(|s| s.gen == id.gen)
            .and_then(|s| s.conn.as_ref())
    }

    /// The connection `id` names, mutably, unless it was freed.
    pub fn get_mut(&mut self, id: ConnId) -> Option<&mut MptcpConnection> {
        self.slots
            .get_mut(id.slot())
            .filter(|s| s.gen == id.gen)
            .and_then(|s| s.conn.as_mut())
    }

    /// When the connection `id` names was accepted.
    pub fn created(&self, id: ConnId) -> Option<SimTime> {
        self.get(id).map(|_| self.slots[id.slot()].created)
    }

    /// Live connections in slot order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            slots: self.slots.iter(),
        }
    }

    /// Live connections with their ids, in slot order.
    pub fn entries(&self) -> impl DoubleEndedIterator<Item = (ConnId, &MptcpConnection)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            let id = ConnId {
                slot: i as u32,
                gen: s.gen,
            };
            Some((id, s.conn.as_ref()?))
        })
    }

    /// Live connections with their ids, in slot order, mutably.
    pub fn entries_mut(
        &mut self,
    ) -> impl DoubleEndedIterator<Item = (ConnId, &mut MptcpConnection)> {
        self.slots.iter_mut().enumerate().filter_map(|(i, s)| {
            let id = ConnId {
                slot: i as u32,
                gen: s.gen,
            };
            Some((id, s.conn.as_mut()?))
        })
    }
}

/// Iterator over a [`ConnTable`]'s live connections.
pub struct Iter<'a> {
    slots: std::slice::Iter<'a, Slot>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a MptcpConnection;

    fn next(&mut self) -> Option<Self::Item> {
        self.slots.find_map(|s| s.conn.as_ref())
    }
}

impl DoubleEndedIterator for Iter<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        self.slots.rfind(|s| s.conn.is_some())?.conn.as_ref()
    }
}

impl<'a> IntoIterator for &'a ConnTable {
    type Item = &'a MptcpConnection;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl Index<ConnId> for ConnTable {
    type Output = MptcpConnection;

    fn index(&self, id: ConnId) -> &MptcpConnection {
        self.get(id).expect("stale ConnId")
    }
}

impl IndexMut<ConnId> for ConnTable {
    fn index_mut(&mut self, id: ConnId) -> &mut MptcpConnection {
        self.get_mut(id).expect("stale ConnId")
    }
}

impl Index<usize> for ConnTable {
    type Output = MptcpConnection;

    fn index(&self, slot: usize) -> &MptcpConnection {
        self.slots[slot].conn.as_ref().expect("free slot")
    }
}

impl IndexMut<usize> for ConnTable {
    fn index_mut(&mut self, slot: usize) -> &mut MptcpConnection {
        self.slots[slot].conn.as_mut().expect("free slot")
    }
}

/// A passive MPTCP endpoint managing many connections.
pub struct MptcpListener {
    cfg: MptcpConfig,
    /// Connections held: live ones, plus finished ones whose owner has
    /// not freed them yet.
    pub conns: ConnTable,
    /// Tuple-based demux (fast path); held connections only.
    by_tuple: HashMap<FourTuple, ConnId>,
    /// Token table shared across connections (uniqueness + join demux).
    pub tokens: TokenTable,
    rng: SimRng,
    /// SYNs that failed validation (bad token/MAC) — silently dropped.
    pub rejected_syns: u64,
    accepted: u64,
    /// Counters and gauge peaks of every connection freed so far.
    closed: TelemetrySnapshot,
}

impl MptcpListener {
    /// New listener with an RNG seed for keys and ISNs.
    pub fn new(cfg: MptcpConfig, seed: u64) -> MptcpListener {
        MptcpListener {
            cfg,
            conns: ConnTable::default(),
            by_tuple: HashMap::new(),
            tokens: TokenTable::new(),
            rng: SimRng::new(seed),
            rejected_syns: 0,
            accepted: 0,
            closed: TelemetrySnapshot::default(),
        }
    }

    /// Connections held now: live ones plus finished ones not yet freed.
    /// Freed connections are not counted; see [`MptcpListener::accepted`].
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// Is the endpoint connection-free?
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// Connections ever accepted, including freed ones.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Counters and gauge high-water marks summed over every freed
    /// connection. Adding the live connections' snapshots gives totals
    /// that never go backwards when a connection is freed.
    pub fn closed_telemetry(&self) -> &TelemetrySnapshot {
        &self.closed
    }

    /// Feed an incoming segment. Returns the id of the connection that
    /// consumed it (possibly newly created), or `None` if dropped.
    pub fn handle_segment(&mut self, now: SimTime, seg: &TcpSegment) -> Option<ConnId> {
        let key = seg.tuple.reversed(); // our local tuple view

        // Existing subflow?
        if let Some(&id) = self.by_tuple.get(&key) {
            self.conns[id].handle_segment(now, seg);
            return Some(id);
        }

        if !seg.flags.syn || seg.flags.ack {
            return None; // stray non-SYN for an unknown (or freed) flow
        }

        // MP_JOIN: demux by token (§3.2).
        if let Some(MptcpOption::MpJoinSyn { token, .. }) = seg
            .mptcp_options()
            .find(|m| matches!(m, MptcpOption::MpJoinSyn { .. }))
        {
            let Some(id) = self.tokens.owner(*token).and_then(|s| self.conns.id_at(s)) else {
                self.rejected_syns += 1;
                return None;
            };
            if self.conns[id].accept_join(seg, now).is_err() {
                self.rejected_syns += 1;
                return None;
            }
            self.by_tuple.insert(key, id);
            return Some(id);
        }

        // Fresh connection (MP_CAPABLE or plain TCP).
        let conn = MptcpConnection::server_accept(
            self.cfg.clone(),
            seg,
            now,
            self.rng.fork(),
            &mut self.tokens,
        );
        let token = conn.local_token();
        let id = self.conns.insert(conn, now);
        self.accepted += 1;
        self.tokens.set_owner(token, id.slot());
        self.by_tuple.insert(key, id);
        Some(id)
    }

    /// Feed a batch of segments that arrived together (one socket drain).
    ///
    /// Contiguous runs destined for the same existing connection are
    /// handed to [`MptcpConnection::handle_segments`], which drains the
    /// subflow stream once per run instead of once per segment. SYNs and
    /// strays fall through to the per-segment path. Ids of touched
    /// connections are appended (deduplicated) to `touched`.
    pub fn handle_segments(
        &mut self,
        now: SimTime,
        segs: &[TcpSegment],
        touched: &mut Vec<ConnId>,
    ) {
        let mut i = 0;
        while i < segs.len() {
            let Some(&id) = self.by_tuple.get(&segs[i].tuple.reversed()) else {
                if let Some(id) = self.handle_segment(now, &segs[i]) {
                    if !touched.contains(&id) {
                        touched.push(id);
                    }
                }
                i += 1;
                continue;
            };
            // Extend the run while segments keep resolving to `id`.
            let mut j = i + 1;
            while j < segs.len() && self.by_tuple.get(&segs[j].tuple.reversed()) == Some(&id) {
                j += 1;
            }
            self.conns[id].handle_segments(now, &segs[i..j]);
            if !touched.contains(&id) {
                touched.push(id);
            }
            i = j;
        }
    }

    /// Free a connection: release its slot, four-tuples and token, and
    /// fold its telemetry into [`MptcpListener::closed_telemetry`].
    /// Segments that later arrive on its four-tuples are dropped as
    /// strays, and a SYN on one opens a new connection. Returns the
    /// connection, or `None` if `id` was already freed.
    pub fn free(&mut self, id: ConnId) -> Option<MptcpConnection> {
        let conn = self.conns.remove(id)?;
        for sf in conn.subflows() {
            let tuple = sf.sock.tuple();
            if self.by_tuple.get(&tuple) == Some(&id) {
                self.by_tuple.remove(&tuple);
            }
        }
        let token = conn.local_token();
        if self.tokens.owner(token) == Some(id.slot()) {
            self.tokens.remove(token);
        }
        self.closed.add_finished(&conn.telemetry());
        Some(conn)
    }

    /// Poll every held connection for output, emitting into `out`. A
    /// connection that is finished once polled (see
    /// [`MptcpConnection::is_finished`]) has just emitted its last
    /// segment, such as the final ACK of a subflow entering TIME_WAIT,
    /// and is freed.
    pub fn poll(&mut self, now: SimTime, out: &mut Vec<TcpSegment>) {
        for slot in 0..self.conns.slot_count() {
            let Some(id) = self.conns.id_at(slot) else {
                continue;
            };
            let c = &mut self.conns[id];
            while let Some(seg) = c.poll(now) {
                out.push(seg);
            }
            if c.is_finished() {
                self.free(id);
            }
        }
    }

    /// Earliest deadline across held connections whose subflows are not
    /// all closed (TIME_WAIT's own timer is never waited for: a finished
    /// connection is freed instead).
    pub fn poll_at(&self, now: SimTime) -> Option<SimTime> {
        self.conns
            .iter()
            .filter(|c| !c.fully_closed())
            .filter_map(|c| c.poll_at(now))
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mptcp_packet::{Endpoint, SeqNum, TcpFlags, TcpOption};

    fn syn_plain() -> TcpSegment {
        TcpSegment::new(
            FourTuple {
                src: Endpoint::new(1, 1000),
                dst: Endpoint::new(2, 80),
            },
            SeqNum(100),
            SeqNum(0),
            TcpFlags::SYN,
        )
    }

    #[test]
    fn plain_syn_creates_fallback_conn() {
        let mut l = MptcpListener::new(MptcpConfig::default(), 7);
        let idx = l.handle_segment(SimTime::ZERO, &syn_plain()).unwrap();
        assert!(l.conns[idx].is_fallback());
    }

    #[test]
    fn capable_syn_creates_mptcp_conn_with_token() {
        let mut l = MptcpListener::new(MptcpConfig::default(), 7);
        let mut syn = syn_plain();
        syn.options.push(TcpOption::Mptcp(MptcpOption::MpCapable {
            version: 0,
            checksum_required: true,
            sender_key: 0xabc,
            receiver_key: None,
        }));
        let idx = l.handle_segment(SimTime::ZERO, &syn).unwrap();
        assert!(!l.conns[idx].is_fallback());
        let token = l.conns[idx].local_token();
        assert_eq!(l.tokens.owner(token), Some(idx.slot()));
    }

    #[test]
    fn join_with_unknown_token_rejected() {
        let mut l = MptcpListener::new(MptcpConfig::default(), 7);
        let mut syn = syn_plain();
        syn.options.push(TcpOption::Mptcp(MptcpOption::MpJoinSyn {
            token: 0xdeadbeef,
            nonce: 1,
            addr_id: 1,
            backup: false,
        }));
        assert!(l.handle_segment(SimTime::ZERO, &syn).is_none());
        assert_eq!(l.rejected_syns, 1);
    }

    #[test]
    fn stray_data_segment_dropped() {
        let mut l = MptcpListener::new(MptcpConfig::default(), 7);
        let mut seg = syn_plain();
        seg.flags = TcpFlags::ACK;
        assert!(l.handle_segment(SimTime::ZERO, &seg).is_none());
    }
}
