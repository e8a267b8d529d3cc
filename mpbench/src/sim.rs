//! The simulator workloads, `sim_bulk` and `sim_http`, and the traced
//! host wrapper that times each call from netsim into a host.
//!
//! Untraced runs drive the harness [`Scenario`] exactly as the figure
//! experiments do. A traced run builds the same scenario, moves its hosts
//! and paths into a fresh [`Sim`] of [`TracedNode`]s with the same routes,
//! address bindings and seed, and runs the same schedule; its
//! deterministic outputs must equal the untraced run's exactly.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration as Wall, Instant};

use mptcp::{MptcpConfig, MptcpConnection, PathSnapshot, PathState, ReorderAlgo};
use mptcp_harness::experiments::common::{wifi_3g_paths, Variant};
use mptcp_harness::hosts::Node;
use mptcp_harness::{ClientApp, Endpoints, Scenario, ServerApp, Transport, TransportKind};
use mptcp_netsim::{Dir, Duration, Host, LinkCfg, Outbox, Path, Sim, SimRng, SimTime};
use mptcp_packet::{MptcpOption, TcpOption, TcpSegment};
use mptcp_telemetry::{CounterId, GaugeId, TelemetrySnapshot};

use crate::kernels::{self, Capture};
use crate::report::{median, quantile, ratio, Outcome};
use crate::spans::{Tracer, NONE};

/// sim_bulk: the paper's warm-up and measurement windows (Figs 4, 7).
const BULK_WARMUP: Duration = Duration::from_secs(3);
const BULK_MEASURE: Duration = Duration::from_secs(5);
/// sim_bulk: Fig 4's 200 KB send and receive buffers, which make the
/// WiFi+3G pair receive-window limited.
const BULK_BUF: usize = 200_000;
/// sim_http: Fig 11's smallest transfer, four closed-loop clients, and a
/// simulated window long enough that the listener's growth shows, yet
/// short enough that its connection table stays cache-sized (NOTES.md).
const HTTP_FILE: usize = 4096;
const HTTP_CLIENTS: usize = 4;
const HTTP_WINDOW: Duration = Duration::from_millis(40);

/// Seeded inputs of a simulator run: the scenario seed (keys, ISNs) and
/// each link's rate and delay, each drawn within ±1% of the paper's value
/// so that seeds differ in timing while the regime stays the same.
pub struct SimInputs {
    pub seed: u64,
    links: Vec<LinkCfg>,
}

fn jitter(rng: &mut SimRng, l: LinkCfg) -> LinkCfg {
    let f = |rng: &mut SimRng| 0.99 + 0.02 * rng.next_f64();
    LinkCfg {
        rate_bps: (l.rate_bps as f64 * f(rng)) as u64,
        delay: Duration::from_nanos((l.delay.as_nanos() as f64 * f(rng)) as u64),
        ..l
    }
}

impl SimInputs {
    #[cfg(test)]
    pub fn links(&self) -> Vec<(u64, u64)> {
        self.links
            .iter()
            .map(|l| (l.rate_bps, l.delay.as_nanos() as u64))
            .collect()
    }

    pub fn bulk(seed: u64) -> SimInputs {
        let mut rng = SimRng::new(seed ^ 0xb01c);
        let links = wifi_3g_paths()
            .into_iter()
            .map(|p| jitter(&mut rng, p.fwd.cfg))
            .collect();
        SimInputs { seed, links }
    }

    pub fn http(seed: u64) -> SimInputs {
        let mut rng = SimRng::new(seed ^ 0x4770);
        // Fig 11's fleet link: 100 Mbps, 100 µs one way, 256-packet queue.
        let base = LinkCfg {
            rate_bps: 100_000_000,
            delay: Duration::from_micros(100),
            queue_bytes: 256 * 1500,
            loss: 0.0,
        };
        SimInputs {
            seed,
            links: vec![jitter(&mut rng, base)],
        }
    }
}

fn bulk_scenario(inp: &SimInputs) -> Scenario {
    Scenario::new(
        Variant::MptcpM12.kind(BULK_BUF),
        ClientApp::Bulk {
            total: usize::MAX / 2,
            written: 0,
            close_when_done: false,
        },
        ServerApp::Sink,
        inp.links.iter().map(|l| Path::symmetric(*l)).collect(),
        inp.seed,
    )
}

/// Fig 11's MPTCP configuration.
fn http_config() -> MptcpConfig {
    MptcpConfig::builder()
        .buffers(512 * 1024)
        .mechanisms(mptcp::Mechanisms::M1_2)
        .checksum(false)
        .build()
        .expect("fig11 config is valid")
}

fn http_scenario(inp: &SimInputs) -> Scenario {
    let link = inp.links[0];
    Scenario::http_fleet(
        TransportKind::Mptcp(http_config()),
        HTTP_CLIENTS,
        HTTP_FILE,
        || Path::symmetric(link),
        inp.seed,
    )
}

// ---------------------------------------------------------------------------
// Traced hosts.
// ---------------------------------------------------------------------------

/// Access to the harness node behind a host, traced or not.
pub trait AsNode: Host {
    fn node(&self) -> &Node;
    fn node_mut(&mut self) -> &mut Node;
}

impl AsNode for Node {
    fn node(&self) -> &Node {
        self
    }
    fn node_mut(&mut self) -> &mut Node {
        self
    }
}

/// Spans stored per traced run (totals cover every span).
pub const SPAN_CAP: usize = 50_000;

/// What a traced run records besides spans.
pub struct Probe {
    pub tracer: Tracer,
    pub capture: Capture,
    /// Host whose connection sends the bulk of the data; its subflow state
    /// is sampled as scheduler input.
    pub sender: usize,
    pub data_segs: u64,
    pub payload_bytes: u64,
    polls_seen: u64,
}

pub type Shared = Rc<RefCell<Probe>>;

impl Probe {
    pub fn new(epoch: Instant, sender: usize) -> Shared {
        Rc::new(RefCell::new(Probe {
            tracer: Tracer::new(epoch, SPAN_CAP),
            capture: Capture::default(),
            sender,
            data_segs: 0,
            payload_bytes: 0,
            polls_seen: 0,
        }))
    }
}

/// A harness node whose every call from netsim is timed as a span.
pub struct TracedNode {
    inner: Node,
    host: usize,
    probe: Shared,
}

fn names(node: &Node) -> [&'static str; 3] {
    match node {
        Node::Client(_) => ["client.handle_segment", "client.poll", "client.poll_at"],
        Node::Server(_) => ["server.handle_segment", "server.poll", "server.poll_at"],
    }
}

/// Spans of one client request share an id: host index and request
/// number. Server work cannot be told apart per request from outside.
fn req_id(node: &Node, host: usize) -> u32 {
    match node {
        Node::Client(c) => (host as u32) << 20 | (c.http_completed() as u32 & 0xf_ffff),
        Node::Server(_) => NONE,
    }
}

fn data_mapping(seg: &TcpSegment) -> Option<(u64, u16)> {
    seg.options.iter().find_map(|o| match o {
        TcpOption::Mptcp(MptcpOption::Dss {
            mapping: Some(m), ..
        }) => Some((m.dsn, m.len)),
        _ => None,
    })
}

/// The usable subflows of `conn`, as the scheduler would see them.
pub fn snapshot(conn: &MptcpConnection) -> Vec<PathSnapshot> {
    conn.subflows()
        .iter()
        .enumerate()
        .filter(|(_, sf)| sf.usable())
        .map(|(id, sf)| PathSnapshot {
            id,
            srtt: sf.srtt_or_default(),
            cwnd: sf.sock.cwnd(),
            mss: sf.sock.mss(),
            headroom: sf.tx_headroom(),
            send_space: sf.sock.send_space(),
            in_flight: sf.sock.bytes_in_flight(),
            backup: sf.backup,
            suspect: sf.path_state == PathState::Suspect,
        })
        .collect()
}

fn sender_conn(node: &Node) -> Option<&MptcpConnection> {
    match node {
        Node::Client(c) => match &c.transport {
            Transport::Mptcp(m) => Some(m),
            Transport::Tcp(_) => None,
        },
        Node::Server(s) => s.listener.conns.iter().rev().find(|c| c.is_established()),
    }
}

impl Host for TracedNode {
    fn handle_segment(&mut self, now: SimTime, seg: TcpSegment, out: &mut Outbox) {
        {
            let mut p = self.probe.borrow_mut();
            let len = seg.payload.len();
            if len > 0 {
                p.data_segs += 1;
                p.payload_bytes += len as u64;
                if let Some((dsn, mlen)) = data_mapping(&seg) {
                    p.capture.arrival(self.host, dsn, mlen);
                }
            }
            p.capture.segment(&seg);
        }
        let name = names(&self.inner)[0];
        let req = req_id(&self.inner, self.host);
        let t0 = Instant::now();
        self.inner.handle_segment(now, seg, out);
        let t1 = Instant::now();
        self.probe.borrow_mut().tracer.leaf(name, req, t0, t1);
    }

    fn poll(&mut self, now: SimTime, out: &mut Outbox) {
        let name = names(&self.inner)[1];
        let req = req_id(&self.inner, self.host);
        let t0 = Instant::now();
        self.inner.poll(now, out);
        let t1 = Instant::now();
        let mut p = self.probe.borrow_mut();
        p.tracer.leaf(name, req, t0, t1);
        if p.sender == self.host {
            p.polls_seen += 1;
            if p.polls_seen.is_multiple_of(16) {
                if let Some(conn) = sender_conn(&self.inner) {
                    let paths = snapshot(conn);
                    p.capture.sched_input(paths, conn.snd_window_room());
                }
            }
        }
    }

    fn poll_at(&self, now: SimTime) -> Option<SimTime> {
        let name = names(&self.inner)[2];
        let t0 = Instant::now();
        let at = self.inner.poll_at(now);
        let t1 = Instant::now();
        self.probe.borrow_mut().tracer.leaf(name, NONE, t0, t1);
        at
    }

    fn addr_event(&mut self, now: SimTime, addr: u32, up: bool, out: &mut Outbox) {
        self.inner.addr_event(now, addr, up, out);
    }
}

impl AsNode for TracedNode {
    fn node(&self) -> &Node {
        &self.inner
    }
    fn node_mut(&mut self) -> &mut Node {
        &mut self.inner
    }
}

/// How a scenario's addresses and paths are wired (the harness's fixed
/// address plan, see `Scenario::new` and `Scenario::http_fleet`).
#[derive(Clone, Copy)]
pub enum Topology {
    /// One client, one server, path *i* joins interface *i* of each.
    Pair { paths: usize },
    /// `clients` clients, each with two addresses and two paths.
    Fleet { clients: usize },
}

/// Rebuild `sc` as a simulation of traced hosts with identical wiring.
pub fn retrace(sc: Scenario, seed: u64, topo: Topology, probe: &Shared) -> Traced {
    let Scenario {
        mut sim,
        clients,
        server,
    } = sc;
    let mut t: Sim<TracedNode> = Sim::new(seed);
    for (host, inner) in sim.hosts.drain(..).enumerate() {
        t.add_host(TracedNode {
            inner,
            host,
            probe: probe.clone(),
        });
    }
    for p in sim.paths.drain(..) {
        t.add_path(p);
    }
    let (c, s) = (Endpoints::CLIENT, Endpoints::SERVER);
    match topo {
        Topology::Pair { paths } => {
            for i in 0..paths {
                t.add_route(c[i], s[i], i, Dir::Fwd);
                t.add_route(s[i], c[i], i, Dir::Rev);
                t.bind_addr(s[i], server);
                t.bind_addr(c[i], clients[0]);
            }
        }
        Topology::Fleet { clients: n } => {
            t.bind_addr(s[0], server);
            t.bind_addr(s[1], server);
            for (k, &id) in clients.iter().enumerate().take(n) {
                let a1 = 0x0b00_0000 + (k as u32) * 2;
                let a2 = a1 + 1;
                t.add_route(a1, s[0], 2 * k, Dir::Fwd);
                t.add_route(s[0], a1, 2 * k, Dir::Rev);
                t.add_route(a2, s[1], 2 * k + 1, Dir::Fwd);
                t.add_route(s[1], a2, 2 * k + 1, Dir::Rev);
                t.bind_addr(a1, id);
                t.bind_addr(a2, id);
            }
        }
    }
    Traced {
        sim: t,
        clients,
        server,
    }
}

pub struct Traced {
    pub sim: Sim<TracedNode>,
    pub clients: Vec<usize>,
    pub server: usize,
}

/// Run to `until`, calling `observe` after every batch of host work, and
/// return the wall time taken. A traced run wraps it in a span.
fn run_slice<H: Host + AsNode>(
    sim: &mut Sim<H>,
    until: SimTime,
    probe: Option<&Shared>,
    mut observe: impl FnMut(&Sim<H>),
) -> Wall {
    if let Some(p) = probe {
        p.borrow_mut().tracer.begin("netsim.run_until", NONE);
    }
    let t0 = Instant::now();
    sim.run_while(until, |s| {
        observe(s);
        true
    });
    let dt = t0.elapsed();
    if let Some(p) = probe {
        p.borrow_mut().tracer.end();
    }
    dt
}

fn client(sim: &Sim<impl AsNode>, id: usize) -> &mptcp_harness::ClientHost {
    sim.hosts[id].node().as_client().expect("client host")
}

fn server(sim: &Sim<impl AsNode>, id: usize) -> &mptcp_harness::ServerHost {
    sim.hosts[id].node().as_server().expect("server host")
}

/// Everything a simulator unit produces that must repeat exactly for the
/// same seed, traced or not.
#[derive(Clone, Debug, PartialEq)]
pub struct Digest {
    pub app_bytes: u64,
    pub requests: u64,
    pub failed: u64,
    pub link_packets: u64,
    pub goodput_mbps: f64,
    pub latency_p50_ms: f64,
    pub latency_p90_ms: f64,
}

/// One simulator unit's measurements.
pub struct Unit {
    pub setup: Wall,
    pub wall: Wall,
    pub cpu_ns: u64,
    /// Wall time per request in each quarter of the run.
    pub quarter_cost: [f64; 4],
    pub digest: Digest,
    pub problems: Vec<String>,
    /// Protocol counters of every connection the run still holds.
    pub conns: ConnTotals,
    pub joins: u64,
    pub listener_held: usize,
    pub rejected_syns: u64,
    pub tokens: usize,
    pub queue_drops: u64,
}

fn link_packets<H: Host>(sim: &Sim<H>) -> u64 {
    sim.paths
        .iter()
        .map(|p| p.fwd.stats.tx_packets + p.rev.stats.tx_packets)
        .sum()
}

fn queue_drops<H: Host>(sim: &Sim<H>) -> u64 {
    sim.paths
        .iter()
        .map(|p| p.fwd.stats.queue_drops + p.rev.stats.queue_drops)
        .sum()
}

fn conn_totals(sim: &Sim<impl AsNode>, clients: &[usize], srv: usize) -> ConnTotals {
    let mut t = ConnTotals::default();
    for &id in clients {
        t.add(&client(sim, id).transport.telemetry());
    }
    for c in &server(sim, srv).listener.conns {
        t.add(&c.telemetry());
    }
    t
}

#[allow(clippy::too_many_arguments)] // the measurements both unit kinds take
fn finish_unit(
    sim: &Sim<impl AsNode>,
    clients: &[usize],
    srv: usize,
    setup: Wall,
    wall: Wall,
    cpu_ns: u64,
    quarter_cost: [f64; 4],
    digest: Digest,
    problems: Vec<String>,
) -> Unit {
    let l = &server(sim, srv).listener;
    Unit {
        setup,
        wall,
        cpu_ns,
        quarter_cost,
        digest,
        problems,
        conns: conn_totals(sim, clients, srv),
        joins: joined_subflows(l.conns.iter()),
        listener_held: l.len(),
        rejected_syns: l.rejected_syns,
        tokens: l.tokens.len(),
        queue_drops: queue_drops(sim),
    }
}

/// sim_bulk: one unit is the paper's 3 s warm-up plus 5 s of measurement,
/// then (untimed) the writer stops and the run drains, so that every byte
/// written is checked to have been delivered.
pub fn bulk_unit<H: Host + AsNode>(
    sim: &mut Sim<H>,
    clients: &[usize],
    srv: usize,
    setup: Wall,
    probe: Option<&Shared>,
) -> Unit {
    let cl = clients[0];
    let cpu0 = crate::report::process_cpu_ns();
    let mut walls = [Wall::ZERO; 4];
    // Four equal slices of the measurement window, after the warm-up.
    let warm = run_slice(sim, SimTime::ZERO + BULK_WARMUP, probe, |_| {});
    let t0 = sim.now;
    let rx0 = server(sim, srv).app_bytes_received;
    let mut blocks_q = [0u64; 4];
    for (q, w) in walls.iter_mut().enumerate() {
        let before = server(sim, srv).block_received.len() as u64;
        let until = t0 + BULK_MEASURE * (q as u32 + 1) / 4;
        *w = run_slice(sim, until, probe, |_| {});
        blocks_q[q] = server(sim, srv).block_received.len() as u64 - before;
    }
    let wall = warm + walls.iter().sum::<Wall>();
    let cpu_ns = crate::report::process_cpu_ns() - cpu0;
    let measured = server(sim, srv).app_bytes_received - rx0;
    let app_bytes = server(sim, srv).app_bytes_received;

    // Fig 7's application delay of every block delivered in the window.
    let (sent, got) = (
        &client(sim, cl).block_sent,
        &server(sim, srv).block_received,
    );
    let lat: Vec<f64> = got
        .iter()
        .zip(sent)
        .filter(|(r, _)| **r > t0)
        .map(|(r, s)| (r.0 - s.0) as f64 / 1e6)
        .collect();
    let quarter_cost = std::array::from_fn(|q| ratio(walls[q].as_secs_f64(), blocks_q[q] as f64));
    let mut digest = Digest {
        app_bytes,
        requests: got.len() as u64,
        failed: 0,
        link_packets: link_packets(sim),
        goodput_mbps: measured as f64 * 8.0 / BULK_MEASURE.as_secs_f64() / 1e6,
        latency_p50_ms: quantile(&lat, 0.5),
        latency_p90_ms: quantile(&lat, 0.90),
    };

    // Stop writing and drain: every accepted byte must arrive, on an
    // MPTCP connection that neither fell back nor aborted.
    let mut problems = Vec::new();
    if let ClientApp::Bulk { total, written, .. } = &mut sim.hosts[cl]
        .node_mut()
        .as_client_mut()
        .expect("client")
        .app
    {
        *total = *written;
    }
    let written = client(sim, cl).app_bytes_sent;
    let deadline = sim.now + Duration::from_secs(60);
    if let Some(p) = probe {
        p.borrow_mut().tracer.begin("netsim.run_until", NONE);
    }
    sim.run_while(deadline, |s| server(s, srv).app_bytes_received < written);
    if let Some(p) = probe {
        p.borrow_mut().tracer.end();
    }
    let delivered = server(sim, srv).app_bytes_received;
    match &client(sim, cl).transport {
        Transport::Mptcp(c) => {
            if c.is_fallback() {
                problems.push("sim_bulk connection fell back to TCP".into());
            }
            if let Some(r) = c.abort_reason() {
                problems.push(format!("sim_bulk connection aborted: {r:?}"));
            }
        }
        Transport::Tcp(_) => problems.push("sim_bulk ran plain TCP".into()),
    }
    if delivered != written {
        problems.push(format!(
            "sim_bulk delivered {delivered} of {written} bytes written"
        ));
    }
    if lat.is_empty() {
        problems.push("sim_bulk delivered no block in the window".into());
    }
    digest.failed = problems.len() as u64;
    finish_unit(
        sim,
        clients,
        srv,
        setup,
        wall,
        cpu_ns,
        quarter_cost,
        digest,
        problems,
    )
}

/// sim_http: one unit is the Fig 11 closed loop over a fixed simulated
/// window, observed after every batch of host work so each request's
/// latency (connect to EOF, simulated time) and every re-opened
/// connection are seen.
pub fn http_unit<H: Host + AsNode>(
    sim: &mut Sim<H>,
    clients: &[usize],
    srv: usize,
    setup: Wall,
    probe: Option<&Shared>,
) -> Unit {
    let n = clients.len();
    let mut start = vec![SimTime::ZERO; n];
    let mut done = vec![0u64; n];
    let mut token: Vec<Option<u32>> = vec![None; n];
    let mut lat_ns: Vec<u64> = Vec::new();
    let mut reopened = 0u64;
    let mut observe = |s: &Sim<H>| {
        for (k, &id) in clients.iter().enumerate() {
            let c = client(s, id);
            let now_done = c.http_completed();
            let tok = match &c.transport {
                Transport::Mptcp(m) => Some(m.local_token()),
                Transport::Tcp(_) => None,
            };
            if now_done != done[k] {
                for _ in done[k]..now_done {
                    lat_ns.push(s.now.0 - start[k].0);
                }
                start[k] = s.now;
                done[k] = now_done;
                token[k] = tok;
            } else if tok != token[k] {
                if token[k].is_some() {
                    reopened += 1;
                }
                token[k] = tok;
            }
        }
    };
    let cpu0 = crate::report::process_cpu_ns();
    let mut walls = [Wall::ZERO; 4];
    let mut reqs_q = [0u64; 4];
    for (q, w) in walls.iter_mut().enumerate() {
        let before: u64 = clients
            .iter()
            .map(|&id| client(sim, id).http_completed())
            .sum();
        let until = SimTime::ZERO + HTTP_WINDOW * (q as u32 + 1) / 4;
        *w = run_slice(sim, until, probe, &mut observe);
        let after: u64 = clients
            .iter()
            .map(|&id| client(sim, id).http_completed())
            .sum();
        reqs_q[q] = after - before;
    }
    let wall: Wall = walls.iter().sum();
    let cpu_ns = crate::report::process_cpu_ns() - cpu0;
    let completed: u64 = clients
        .iter()
        .map(|&id| client(sim, id).http_completed())
        .sum();
    let app_bytes: u64 = clients
        .iter()
        .map(|&id| client(sim, id).app_bytes_received)
        .sum();

    let mut problems = Vec::new();
    // Each completed request read exactly one response; the bytes beyond
    // that belong to the requests still in flight (at most one response
    // per connection ever opened but not completed).
    let floor = completed * HTTP_FILE as u64;
    let ceil = floor + (n as u64 + reopened) * HTTP_FILE as u64;
    if app_bytes < floor || app_bytes > ceil {
        problems.push(format!(
            "sim_http read {app_bytes} bytes for {completed} responses of {HTTP_FILE}"
        ));
    }
    if lat_ns.len() as u64 != completed {
        problems.push("sim_http observer missed a completion".into());
    }
    if completed == 0 {
        problems.push("sim_http completed no request".into());
    }
    let lat: Vec<f64> = lat_ns.iter().map(|&v| v as f64 / 1e6).collect();
    let digest = Digest {
        app_bytes,
        requests: completed,
        failed: reopened,
        link_packets: link_packets(sim),
        goodput_mbps: app_bytes as f64 * 8.0 / HTTP_WINDOW.as_secs_f64() / 1e6,
        latency_p50_ms: quantile(&lat, 0.5),
        latency_p90_ms: quantile(&lat, 0.90),
    };
    let quarter_cost = std::array::from_fn(|q| ratio(walls[q].as_secs_f64(), reqs_q[q] as f64));
    finish_unit(
        sim,
        clients,
        srv,
        setup,
        wall,
        cpu_ns,
        quarter_cost,
        digest,
        problems,
    )
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    Bulk,
    Http,
}

impl SimWorkload {
    /// Independent trajectories per run: one upload varies by a few
    /// percent in goodput with the seed, so the run reports the median of
    /// several.
    fn trajectories(self) -> usize {
        match self {
            SimWorkload::Bulk => 8,
            SimWorkload::Http => 4,
        }
    }

    fn inputs(self, seed: u64) -> SimInputs {
        match self {
            SimWorkload::Bulk => SimInputs::bulk(seed),
            SimWorkload::Http => SimInputs::http(seed),
        }
    }

    fn build(self, inp: &SimInputs) -> Scenario {
        match self {
            SimWorkload::Bulk => bulk_scenario(inp),
            SimWorkload::Http => http_scenario(inp),
        }
    }

    fn topology(self) -> Topology {
        match self {
            SimWorkload::Bulk => Topology::Pair { paths: 2 },
            SimWorkload::Http => Topology::Fleet {
                clients: HTTP_CLIENTS,
            },
        }
    }

    fn reorder_algo(self) -> ReorderAlgo {
        let kind = match self {
            SimWorkload::Bulk => Variant::MptcpM12.kind(BULK_BUF),
            SimWorkload::Http => TransportKind::Mptcp(http_config()),
        };
        match kind {
            TransportKind::Mptcp(cfg) => cfg.reorder(),
            _ => unreachable!("both simulator workloads run MPTCP"),
        }
    }

    fn run<H: Host + AsNode>(
        self,
        sim: &mut Sim<H>,
        clients: &[usize],
        srv: usize,
        setup: Wall,
        probe: Option<&Shared>,
    ) -> Unit {
        match self {
            SimWorkload::Bulk => bulk_unit(sim, clients, srv, setup, probe),
            SimWorkload::Http => http_unit(sim, clients, srv, setup, probe),
        }
    }
}

/// Scenario builds timed per unit; set-up time is their median, since a
/// single build takes only tens of microseconds.
const SETUP_BUILDS: usize = 15;

/// One untraced unit: build the scenario (timed as set-up) and run it.
fn untraced_unit(w: SimWorkload, inp: &SimInputs) -> Unit {
    let mut times = Vec::with_capacity(SETUP_BUILDS);
    let mut sc = None;
    for _ in 0..SETUP_BUILDS {
        let t0 = Instant::now();
        let built = w.build(inp);
        times.push(t0.elapsed().as_secs_f64());
        sc = Some(built);
    }
    let mut sc = sc.expect("at least one build");
    let setup = Wall::from_secs_f64(median(&times));
    w.run(&mut sc.sim, &sc.clients.clone(), sc.server, setup, None)
}

fn check_repeat(out: &mut Outcome, first: &Digest, d: &Digest, what: &str) {
    out.check(first == d, || {
        format!("{what} differs from the first unit of the same seed: {first:?} vs {d:?}")
    });
}

/// Which quantile of a trajectory's repeated wall and CPU times is its
/// cost: the fast decile.
const FAST: f64 = 0.1;

/// Untraced run: one unit per trajectory (sub-seeds drawn from the
/// seed), then repeats in the same order until `seconds` are spent, each
/// checked to reproduce its trajectory's first unit. Protocol outputs are
/// medians over the trajectories. The repeats of a trajectory do exactly
/// the same work and differ only by how much other tenants of the machine
/// slow it, so its wall and CPU times are the fast decile of its repeats;
/// wall-clock rates are medians over the trajectories.
pub fn run(w: SimWorkload, seed: u64, seconds: f64) -> Outcome {
    let subs: Vec<SimInputs> = (0..w.trajectories())
        .map(|i| w.inputs(sub_seed(seed, i)))
        .collect();
    let mut out = Outcome::new();
    let begin = Instant::now();
    let mut firsts: Vec<Digest> = Vec::new();
    let mut units: Vec<Unit> = Vec::new();
    for i in 0.. {
        let k = i % subs.len();
        let u = untraced_unit(w, &subs[k]);
        if i < subs.len() {
            firsts.push(u.digest.clone());
        } else {
            check_repeat(&mut out, &firsts[k], &u.digest, "a repeated unit");
        }
        for p in &u.problems {
            out.check(false, || p.clone());
        }
        units.push(u);
        let spent = begin.elapsed().as_secs_f64();
        let per = spent / units.len() as f64;
        if units.len() > subs.len() && spent + per > seconds {
            break;
        }
    }
    let across = |f: &dyn Fn(&Digest) -> f64| median(&firsts.iter().map(f).collect::<Vec<_>>());
    let per_unit = |f: &dyn Fn(&Unit) -> f64| median(&units.iter().map(f).collect::<Vec<_>>());
    // Per trajectory, `f` of its digest over its fast-decile time `t`.
    let fast = |t: &dyn Fn(&Unit) -> f64, f: &dyn Fn(&Digest, f64) -> f64| {
        let per: Vec<f64> = firsts
            .iter()
            .enumerate()
            .map(|(k, d)| {
                let times: Vec<f64> = units.iter().skip(k).step_by(subs.len()).map(t).collect();
                f(d, quantile(&times, FAST))
            })
            .collect();
        median(&per)
    };
    let wall = |u: &Unit| u.wall.as_secs_f64();
    out.attempted = firsts.iter().map(|d| d.requests + d.failed).sum();
    out.failed = firsts.iter().map(|d| d.failed).sum();
    out.set("setup_s", per_unit(&|u| u.setup.as_secs_f64()));
    out.set("peak_rss_mib", crate::report::peak_rss_mib());
    out.set(
        "ok_share",
        ratio((out.attempted - out.failed) as f64, out.attempted as f64),
    );
    out.set(
        "app_mb_per_s",
        fast(&wall, &|d, t| d.app_bytes as f64 / 1e6 / t),
    );
    out.set("req_per_s", fast(&wall, &|d, t| d.requests as f64 / t));
    out.set("goodput_mbps", across(&|d| d.goodput_mbps));
    out.set(
        "cpu_ns_per_byte",
        fast(&|u| u.cpu_ns as f64, &|d, t| ratio(t, d.app_bytes as f64)),
    );
    out.set("latency_p50_ms", across(&|d| d.latency_p50_ms));
    out.set("latency_p90_ms", across(&|d| d.latency_p90_ms));
    out
}

/// The seed of trajectory `i` of a run.
fn sub_seed(seed: u64, i: usize) -> u64 {
    SimRng::new(seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// Traced run: one untraced unit for reference, then the same seed on
/// traced hosts; per-layer metrics come from the traced unit and the
/// replay kernels fed with what it observed.
pub fn run_traced(w: SimWorkload, seed: u64, spans_out: &std::path::Path) -> Outcome {
    let inp = w.inputs(sub_seed(seed, 0));
    let mut out = Outcome::new();
    // The first unit of a process runs cold; the reference is the second.
    untraced_unit(w, &inp);
    let plain = untraced_unit(w, &inp);

    let epoch = Instant::now();
    let sc = w.build(&inp);
    let setup = epoch.elapsed();
    let sender = match w {
        SimWorkload::Bulk => sc.clients[0],
        SimWorkload::Http => sc.server,
    };
    let probe = Probe::new(epoch, sender);
    let mut tr = retrace(sc, inp.seed, w.topology(), &probe);
    let clients = tr.clients.clone();
    let t_run = Instant::now();
    let traced = w.run(&mut tr.sim, &clients, tr.server, setup, Some(&probe));
    let traced_wall = t_run.elapsed().as_secs_f64();

    check_repeat(&mut out, &plain.digest, &traced.digest, "the traced unit");
    for p in plain.problems.iter().chain(&traced.problems) {
        out.check(false, || p.clone());
    }
    let d = &traced.digest;
    out.attempted = d.requests + d.failed;
    out.failed = d.failed;

    let p = probe.borrow();
    let tr_ = &p.tracer;
    let run_until = tr_.totals("netsim.run_until");
    let host_names = [
        "client.handle_segment",
        "server.handle_segment",
        "client.poll",
        "server.poll",
        "client.poll_at",
        "server.poll_at",
    ];
    let [ch, sh, cp, sp, ca, sa] = host_names.map(|n| tr_.totals(n));
    let input_segs = ch.count + sh.count;
    let polls = cp.count + sp.count;
    // netsim asks every host for its next deadline once per event-loop
    // iteration.
    let events = (ca.count + sa.count) / (clients.len() as u64 + 1);
    out.set("requests.samples", d.requests as f64);
    out.set("netsim.events", events as f64);
    out.set(
        "netsim.self_ns_per_event",
        ratio(run_until.self_ns() as f64, events as f64),
    );
    out.set(
        "netsim.wakeups_per_data_seg",
        ratio(events as f64, p.data_segs as f64),
    );
    out.set("netsim.queue_drops", traced.queue_drops as f64);
    out.set("conn.input_segs", input_segs as f64);
    out.set(
        "conn.input_ns_per_seg",
        ratio((ch.total_ns + sh.total_ns) as f64, input_segs as f64),
    );
    out.set("conn.output_polls", polls as f64);
    out.set(
        "conn.output_ns_per_poll",
        ratio((cp.total_ns + sp.total_ns) as f64, polls as f64),
    );
    out.set(
        "conn.polls_per_data_seg",
        ratio(polls as f64, p.data_segs as f64),
    );
    out.set(
        "conn.poll_at_ns",
        ratio(
            (ca.total_ns + sa.total_ns) as f64,
            (ca.count + sa.count) as f64,
        ),
    );
    out.set(
        "conn.payload_bytes_per_data_seg",
        ratio(p.payload_bytes as f64, p.data_segs as f64),
    );
    traced.conns.report(&mut out, traced.joins);
    out.set("listener.conns_held", traced.listener_held as f64);
    out.set(
        "listener.held_per_live",
        // The workload keeps one connection open per client.
        ratio(traced.listener_held as f64, clients.len() as f64),
    );
    out.set("listener.rejected_syns", traced.rejected_syns as f64);
    out.set(
        "host.cost_growth",
        ratio(traced.quarter_cost[3], traced.quarter_cost[0]),
    );
    out.set(
        "trace.overhead_share",
        traced.wall.as_secs_f64() / plain.wall.as_secs_f64() - 1.0,
    );
    out.set(
        "trace.unattributed_share",
        1.0 - ratio(tr_.attributed_ns() as f64, traced_wall * 1e9),
    );
    kernels::replay(&p.capture, w.reorder_algo(), traced.tokens, seed, &mut out);
    if let Err(e) = tr_.write_jsonl(spans_out) {
        out.check(false, || {
            format!("writing spans to {}: {e}", spans_out.display())
        });
    }
    out
}

/// Protocol counters summed over connections, shared by the simulator
/// and wire reports.
pub struct ConnTotals {
    sums: [u64; CONN_COUNTERS.len()],
    ofo_peak: u64,
}

const CONN_COUNTERS: [CounterId; 14] = [
    CounterId::M1Reinjections,
    CounterId::M2Penalizations,
    CounterId::DataRtos,
    CounterId::DupDataBytes,
    CounterId::TcpRetransmittedSegs,
    CounterId::TcpRtos,
    CounterId::TcpFastRetransmits,
    CounterId::SchedulerPicks,
    CounterId::SchedulerStalls,
    CounterId::SchedulerDefers,
    CounterId::ReorderInserts,
    CounterId::ReorderOps,
    CounterId::ReorderShortcutHits,
    CounterId::AddAddrRetransmits,
];

impl Default for ConnTotals {
    fn default() -> Self {
        ConnTotals {
            sums: [0; CONN_COUNTERS.len()],
            ofo_peak: 0,
        }
    }
}

impl ConnTotals {
    pub fn add(&mut self, t: &TelemetrySnapshot) {
        for (sum, id) in self.sums.iter_mut().zip(CONN_COUNTERS) {
            *sum += t.counter(id);
        }
        self.ofo_peak = self.ofo_peak.max(t.gauge(GaugeId::OfoQueueSegs).max);
    }

    pub fn merge(&mut self, other: &ConnTotals) {
        for (a, b) in self.sums.iter_mut().zip(other.sums) {
            *a += b;
        }
        self.ofo_peak = self.ofo_peak.max(other.ofo_peak);
    }

    pub fn get(&self, id: CounterId) -> u64 {
        let i = CONN_COUNTERS
            .iter()
            .position(|c| *c == id)
            .expect("counter is summed");
        self.sums[i]
    }

    /// Report the per-connection layer metrics. `joins` is the number of
    /// subflows beyond the first on the connections the listener holds.
    pub fn report(&self, out: &mut Outcome, joins: u64) {
        let c = |id| self.get(id) as f64;
        out.set("conn.m1_reinjections", c(CounterId::M1Reinjections));
        out.set("conn.m2_penalizations", c(CounterId::M2Penalizations));
        out.set("conn.data_rtos", c(CounterId::DataRtos));
        out.set("conn.dup_data_bytes", c(CounterId::DupDataBytes));
        out.set(
            "tcpstack.retransmitted_segs",
            c(CounterId::TcpRetransmittedSegs),
        );
        out.set("tcpstack.rtos", c(CounterId::TcpRtos));
        out.set(
            "tcpstack.fast_retransmits",
            c(CounterId::TcpFastRetransmits),
        );
        let picks = c(CounterId::SchedulerPicks);
        let stalls = c(CounterId::SchedulerStalls);
        let defers = c(CounterId::SchedulerDefers);
        out.set("sched.picks", picks);
        out.set("sched.stall_ratio", ratio(stalls, picks + stalls + defers));
        let inserts = c(CounterId::ReorderInserts);
        out.set("reorder.inserts", inserts);
        out.set(
            "reorder.ops_per_insert",
            ratio(c(CounterId::ReorderOps), inserts),
        );
        out.set(
            "reorder.shortcut_hit_ratio",
            ratio(c(CounterId::ReorderShortcutHits), inserts),
        );
        out.set("reorder.ofo_peak_segs", self.ofo_peak as f64);
        out.set("pm.subflows_opened", joins as f64);
        out.set("pm.add_addr_retransmits", c(CounterId::AddAddrRetransmits));
    }
}

/// Subflows beyond the first on each connection the listener holds.
pub fn joined_subflows<'a>(conns: impl Iterator<Item = &'a MptcpConnection>) -> u64 {
    conns
        .map(|c| c.subflows().len().saturating_sub(1) as u64)
        .sum()
}

/// The segment mix of the deployed configuration (`MptcpConfig::default()`,
/// DSS checksum on) fetching `file_size`-byte responses over two
/// loopback-like paths, captured from a traced simulation. The wire
/// workloads replay it in the layer kernels: the UDP runtime exposes no
/// per-segment hook, and the state machines it drives are these.
pub fn deployed_capture(file_size: usize, seed: u64) -> Capture {
    let link = LinkCfg {
        rate_bps: 1_000_000_000,
        delay: Duration::from_micros(50),
        queue_bytes: 256 * 1500,
        loss: 0.0,
    };
    let sc = Scenario::http_fleet(
        TransportKind::Mptcp(MptcpConfig::default()),
        1,
        file_size,
        || Path::symmetric(link),
        seed,
    );
    let probe = Probe::new(Instant::now(), sc.server);
    let mut tr = retrace(sc, seed, Topology::Fleet { clients: 1 }, &probe);
    tr.sim.run_until(SimTime::ZERO + Duration::from_millis(100));
    drop(tr);
    let probe = Rc::try_unwrap(probe)
        .ok()
        .expect("the simulation that shared the probe is gone");
    probe.into_inner().capture
}
