//! Server-side event loop: a listener multiplexing many connections over
//! shared UDP sockets.
//!
//! Demux is entirely the core's: [`mptcp::MptcpListener`] routes segments
//! to connections by virtual four-tuple and MP_JOIN token, so the runtime
//! only moves datagrams. The loop maintains a *dirty set* — connections
//! touched by ingress, an expired deadline, or backlogged egress — and
//! drives exactly those, so idle connections cost nothing per iteration.
//!
//! A connection is *served* once its app has finished and the data-level
//! close is done both ways. It is freed from the listener at the start of
//! the next iteration, so its state stays readable right after the step
//! that served it, and the loop's tables hold live connections only.

use std::io;
use std::net::SocketAddr;
use std::time::Instant;

use mptcp::{ConnId, MptcpConfig, MptcpListener};
use mptcp_netsim::SimTime;
use mptcp_packet::{BufPool, TcpSegment};
use mptcp_telemetry::CounterId;

use crate::admin::{AdminCtx, AdminServer};
use crate::clock::{Clock, WallClock};
use crate::egress::Egress;
use crate::paths::PathSet;
use crate::profile::{lap_into, LoopProfiler, Phase};
use crate::proto::ConnApp;
use crate::stats::RuntimeStats;
use crate::timers::DeadlineHeap;
use crate::{LoopConfig, RuntimeError};

/// Creates the application attached to each accepted connection.
pub type AppFactory = Box<dyn FnMut() -> Box<dyn ConnApp + Send> + Send>;

/// The loop's state for the connection in one listener slot.
struct Slot {
    id: ConnId,
    app: Box<dyn ConnApp + Send>,
    egress: Egress,
    /// Queued in `dirty` for the next drive.
    dirty: bool,
}

/// Listener, per-slot apps and egress queues, and the deadline heap.
pub struct ServerRuntime {
    clock: WallClock,
    listener: MptcpListener,
    /// Indexed by listener slot; `None` once the slot's connection is freed.
    slots: Vec<Option<Slot>>,
    /// Served in the last iteration; freed at the start of the next one.
    reaped: Vec<ConnId>,
    paths: PathSet,
    /// Datagram buffers, shared with `paths`' ingress side.
    pool: BufPool,
    stats: RuntimeStats,
    cfg: LoopConfig,
    timers: DeadlineHeap,
    factory: AppFactory,
    ingress: Vec<TcpSegment>,
    touched: Vec<ConnId>,
    /// Slots to drive this iteration.
    dirty: Vec<usize>,
    due: Vec<usize>,
    served: u64,
    promised: Option<SimTime>,
    profiler: LoopProfiler,
    /// Live introspection plane, polled from this same loop when enabled.
    admin: Option<AdminServer>,
}

impl ServerRuntime {
    /// Bind the given addresses (one socket per path) and serve.
    pub fn bind(
        mptcp: MptcpConfig,
        seed: u64,
        binds: &[SocketAddr],
        factory: AppFactory,
        cfg: LoopConfig,
    ) -> io::Result<ServerRuntime> {
        assert!(!binds.is_empty(), "at least one path");
        let paths = PathSet::bind(binds)?;
        let pool = paths.pool();
        Ok(ServerRuntime {
            clock: WallClock::new(),
            listener: MptcpListener::new(mptcp, seed),
            slots: Vec::new(),
            reaped: Vec::new(),
            paths,
            pool,
            stats: RuntimeStats::new(),
            cfg,
            timers: DeadlineHeap::new(),
            factory,
            ingress: Vec::new(),
            touched: Vec::new(),
            dirty: Vec::new(),
            due: Vec::new(),
            served: 0,
            promised: None,
            profiler: LoopProfiler::new(cfg.profile),
            admin: None,
        })
    }

    /// Bind the admin introspection socket (intended for localhost) and
    /// start answering stat-protocol and `GET /metrics` requests from this
    /// loop. Returns the bound address (useful with port 0).
    pub fn enable_admin(&mut self, addr: SocketAddr) -> io::Result<SocketAddr> {
        let admin = AdminServer::bind(addr)?;
        let local = admin.local_addr()?;
        self.admin = Some(admin);
        Ok(local)
    }

    /// Real local address of path `i`.
    pub fn local_addr(&self, i: usize) -> io::Result<SocketAddr> {
        self.paths.local_addr(i)
    }

    /// Give connection `id` a slot entry, fresh if the slot is new or
    /// held an earlier connection.
    fn ensure(&mut self, id: ConnId) {
        let i = id.slot();
        if self.slots.len() <= i {
            self.slots.resize_with(i + 1, || None);
        }
        if self.slots[i].as_ref().map(|s| s.id) != Some(id) {
            self.slots[i] = Some(Slot {
                id,
                app: (self.factory)(),
                egress: Egress::new(self.cfg.egress_cap),
                dirty: false,
            });
        }
    }

    fn mark(dirty: &mut Vec<usize>, slot: &mut Slot) {
        if !slot.dirty {
            slot.dirty = true;
            dirty.push(slot.id.slot());
        }
    }

    /// One loop iteration. Returns whether any datagram or segment moved.
    pub fn step(&mut self) -> bool {
        let mut lap = self.profiler.start();
        let now = self.clock.now();
        self.stats.rec.count(CounterId::RtLoopIterations);
        if let Some(d) = self.promised.take() {
            if d > SimTime::ZERO && now > d {
                self.stats.record_late_tick(now.0 - d.0);
            }
        }
        for id in self.reaped.drain(..) {
            self.listener.free(id);
            self.slots[id.slot()] = None;
        }

        // Ingress on every path; demux marks connections dirty.
        let mut rx = 0;
        for i in 0..self.paths.len() {
            rx += self
                .paths
                .drain(i, self.cfg.recv_batch, &mut self.stats, &mut self.ingress);
        }
        if rx > 0 {
            self.stats.rec.count(CounterId::RtRecvBatches);
        }
        lap = self.profiler.lap(lap, Phase::RecvDrain);
        // Whole-batch handoff: contiguous same-connection runs cost one
        // subflow-stream drain each instead of one per datagram.
        let mut touched = std::mem::take(&mut self.touched);
        self.listener
            .handle_segments(now, &self.ingress, &mut touched);
        self.ingress.clear();
        for id in touched.drain(..) {
            self.ensure(id);
            let slot = self.slots[id.slot()].as_mut().expect("ensured");
            Self::mark(&mut self.dirty, slot);
        }
        self.touched = touched;

        // Expired deadlines join the dirty set.
        let mut due = std::mem::take(&mut self.due);
        self.timers.pop_due(now, &mut due);
        for i in due.drain(..) {
            if let Some(slot) = self.slots[i].as_mut() {
                Self::mark(&mut self.dirty, slot);
            }
        }
        self.due = due;
        self.profiler.lap(lap, Phase::Demux);

        // Drive exactly the dirty connections. Drive / poll-encode / flush
        // interleave per connection, so their laps accumulate across the
        // loop and are recorded once per iteration.
        let work = std::mem::take(&mut self.dirty);
        let mut polled = 0;
        let mut tx_total = 0;
        let mut acc = [0u64; 3];
        for &i in &work {
            if let Some(slot) = self.slots[i].as_mut() {
                slot.dirty = false;
            }
        }
        for i in work {
            // Served connections are never marked, so every dirty slot is
            // live; a slot freed anyway is skipped.
            let Some(slot) = self.slots[i].as_mut() else {
                continue;
            };
            let mut t = self.profiler.start();
            let conn = &mut self.listener.conns[slot.id];
            slot.app.drive(conn, now);
            lap_into(&mut t, &mut acc[0]);
            loop {
                if !slot.egress.has_room() {
                    self.stats.rec.count(CounterId::RtEgressBackpressure);
                    break;
                }
                let Some(seg) = conn.poll(now) else { break };
                polled += 1;
                if let Some(route) = self.paths.route(seg.tuple) {
                    let mut frame = self.pool.checkout();
                    crate::wire::encode_datagram_into(&seg, &mut frame);
                    slot.egress.push(route.path, route.peer, frame);
                }
            }
            lap_into(&mut t, &mut acc[1]);
            tx_total += slot.egress.flush(&mut self.paths, &mut self.stats);
            lap_into(&mut t, &mut acc[2]);
            // A connection is served once the app is done and the
            // data-level close completed both ways. Waiting for every
            // subflow socket to finish dying would hostage completion to a
            // blackholed path's FIN retransmissions.
            let closed = conn.fully_closed() || (conn.send_closed() && conn.at_eof());
            if slot.app.finished() && closed {
                self.reaped.push(slot.id);
                self.served += 1;
                self.timers.schedule(i, None);
            } else {
                if !slot.egress.is_empty() {
                    // Kernel pushback: retry the flush next iteration.
                    Self::mark(&mut self.dirty, slot);
                }
                self.timers.schedule(i, conn.poll_at(now));
            }
        }
        if tx_total > 0 {
            self.stats.rec.count(CounterId::RtSendBatches);
        }
        if self.profiler.enabled() {
            self.profiler.record(Phase::Drive, acc[0]);
            self.profiler.record(Phase::PollEncode, acc[1]);
            self.profiler.record(Phase::Flush, acc[2]);
        }
        self.stats.sync_pool(self.pool.stats());

        if let Some(admin) = self.admin.as_mut() {
            let ctx = AdminCtx {
                listener: &self.listener,
                profiler: &self.profiler,
                paths: &self.paths,
                reaped: &self.reaped,
                now,
                served: self.served,
            };
            admin.poll(&mut self.stats, &ctx);
        }

        self.promised = self.timers.next_deadline();
        rx > 0 || polled > 0 || tx_total > 0 || !self.dirty.is_empty()
    }

    /// Sleep until the earliest connection deadline, capped at the idle
    /// cap (see [`crate::client::ClientRuntime::idle_wait`]).
    pub fn idle_wait(&mut self) {
        let now = self.clock.now();
        let cap = self.cfg.idle_sleep;
        let sleep = match self.promised {
            Some(d) if d <= now => return,
            Some(d) => std::time::Duration::from_nanos(d.0 - now.0).min(cap),
            None => cap,
        };
        if !sleep.is_zero() {
            let t = self.profiler.start();
            std::thread::sleep(sleep);
            self.profiler.lap(t, Phase::Idle);
        }
    }

    /// Serve until `n` connections have finished and closed, or time out.
    pub fn run_until_served(
        &mut self,
        n: u64,
        timeout: std::time::Duration,
    ) -> Result<(), RuntimeError> {
        let hard = Instant::now() + timeout;
        while self.served < n {
            if !self.step() {
                self.idle_wait();
            }
            if Instant::now() > hard {
                return Err(RuntimeError::Timeout);
            }
        }
        Ok(())
    }

    /// Connections that finished their app and fully closed.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Connections ever accepted, including served and freed ones.
    pub fn accepted(&self) -> usize {
        self.listener.accepted() as usize
    }

    /// The listener (connection table, token table, reject counters).
    pub fn listener(&self) -> &MptcpListener {
        &self.listener
    }

    /// Loop instrumentation.
    pub fn stats(&self) -> &RuntimeStats {
        &self.stats
    }

    /// Loop-phase timing histograms (inert unless `cfg.profile`).
    pub fn profiler(&self) -> &LoopProfiler {
        &self.profiler
    }

    /// Bound admin-socket address, when the admin plane is enabled.
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin.as_ref().and_then(|a| a.local_addr().ok())
    }
}
