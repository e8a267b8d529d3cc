//! The wire workload, `wire_rr`: the UDP runtime over
//! kernel loopback, one `ServerRuntime` on its own thread and the client
//! on the calling thread, both with the deployed `MptcpConfig::default()`
//! and `LoopConfig::default()` as `repro serve`/`fetch` use them. The
//! benchmark drives `step()`/`idle_wait()` on both ends itself, stops the
//! clock on the last verified byte, and never runs `ClientRuntime::run`'s
//! fixed close linger.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mptcp::MptcpConfig;
use mptcp_netsim::SimRng;
use mptcp_runtime::{
    AppFactory, ClientRuntime, ConnApp, FetchClient, FetchServer, LoopConfig, LoopProfiler, Phase,
    RuntimeStats, ServerRuntime,
};
use mptcp_telemetry::{CounterId, GaugeId, LogHistogram};

use crate::kernels;
use crate::report::{median, process_cpu_ns, quantile, ratio, Outcome};
use crate::sim::{deployed_capture, joined_subflows, ConnTotals, SPAN_CAP};
use crate::spans::Tracer;

const PATHS: usize = 2;
/// Object size and per-fetch deadline. The deadline is far above any
/// healthy fetch (p90 is a few ms), so scheduler noise cannot fail one.
pub const RR_SIZE: u64 = 16 * 1024;
const RR_DEADLINE: Duration = Duration::from_secs(1);
/// Latency percentiles are taken per window of this length.
const WINDOW: Duration = Duration::from_secs(2);
/// The client's pause between fetches (see NOTES.md).
const THINK: Duration = Duration::from_millis(10);
/// wire_rr reads peak memory after this many fetches: the server holds
/// every connection it served, so memory grows with the fetch count, and
/// a fixed count keeps the machine's speed out of the reading.
const RSS_FETCHES: usize = 1000;
/// Server binds timed per run.
const SETUP_BINDS: usize = 25;
/// wire_rr traced runs end with this many fetches that linger until the
/// connection fully closes, or for at most `CLOSE_CAP`.
const CLOSE_PROBES: usize = 8;
const CLOSE_CAP: Duration = Duration::from_millis(200);
/// wire_rr traced runs also make this many fetches from the client ports
/// of fetches the server has already served, each with this deadline.
const REUSE_PROBES: usize = 4;
const REUSE_DEADLINE: Duration = Duration::from_millis(100);

fn loopback() -> Vec<SocketAddr> {
    vec![SocketAddr::from(([127, 0, 0, 1], 0)); PATHS]
}

/// Client ports for wire_rr, below the kernel's ephemeral range: every
/// fetch of one server's life binds ports no earlier fetch used. The
/// server keeps the tuples of connections it has served (see NOTES.md),
/// so a kernel-chosen port that happens to repeat one gets no reply; that
/// defect is measured on purpose by the traced run's reuse probes
/// (`listener.port_reuse_failed_share`), not left to chance.
pub struct ClientPorts {
    next: u16,
}

impl ClientPorts {
    const FIRST: u16 = 10_000;
    const END: u16 = 32_768;

    pub fn new() -> ClientPorts {
        ClientPorts { next: Self::FIRST }
    }

    /// Fresh local addresses for one client, one per path.
    pub fn take(&mut self) -> Result<Vec<SocketAddr>, String> {
        let first = self.next;
        if first as usize + PATHS > Self::END as usize {
            return Err(format!(
                "wire_rr used every client port in {}..{}; run for less time",
                Self::FIRST,
                Self::END
            ));
        }
        self.next += PATHS as u16;
        Ok((first..self.next)
            .map(|p| SocketAddr::from(([127, 0, 0, 1], p)))
            .collect())
    }

    /// Connect a fetch client from the next unused ports, skipping ports
    /// that another process on the machine holds. A `ClientPorts` made
    /// afresh hands out the same ports again, in the same order.
    fn connect(
        &mut self,
        seed: u64,
        addrs: &[SocketAddr],
        app: impl Fn() -> FetchClient,
        cfg: LoopConfig,
    ) -> Result<ClientRuntime<FetchClient>, String> {
        loop {
            let local = self.take()?;
            match ClientRuntime::connect(MptcpConfig::default(), seed, &local, addrs, app(), cfg) {
                Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => continue,
                r => return r.map_err(|e| format!("client bind: {e}")),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Loop instrumentation summed over runtimes.
// ---------------------------------------------------------------------------

/// Counters and phase times of one side's event loops.
pub struct LoopTotals {
    phase_ns: [u64; 6],
    iters: u64,
    pool_hits: u64,
    pool_misses: u64,
    dgrams_rx: u64,
    recv_batches: u64,
    backpressure: u64,
    egress_peak: u64,
    late_ticks: u64,
    skew: LogHistogram,
}

impl Default for LoopTotals {
    fn default() -> Self {
        LoopTotals {
            phase_ns: [0; 6],
            iters: 0,
            pool_hits: 0,
            pool_misses: 0,
            dgrams_rx: 0,
            recv_batches: 0,
            backpressure: 0,
            egress_peak: 0,
            late_ticks: 0,
            skew: LogHistogram::new(),
        }
    }
}

impl LoopTotals {
    fn add(&mut self, stats: &RuntimeStats, prof: &LoopProfiler) {
        for (ns, phase) in self.phase_ns.iter_mut().zip(Phase::ALL) {
            *ns += prof.hist(phase).map_or(0, |h| h.sum());
        }
        let c = |id| stats.rec.counter(id);
        self.iters += c(CounterId::RtLoopIterations);
        self.pool_hits += c(CounterId::RtPoolHits);
        self.pool_misses += c(CounterId::RtPoolMisses);
        self.dgrams_rx += c(CounterId::RtDatagramsRx);
        self.recv_batches += c(CounterId::RtRecvBatches);
        self.backpressure += c(CounterId::RtEgressBackpressure);
        self.late_ticks += c(CounterId::RtLateTicks);
        self.egress_peak = self
            .egress_peak
            .max(stats.rec.gauge(GaugeId::RtEgressQueueDepth).max);
        self.skew.merge(stats.skew_hist());
    }

    fn report(&self, out: &mut Outcome, side: &str, mib: f64) {
        let total: u64 = self.phase_ns.iter().sum();
        for (ns, phase) in self.phase_ns.iter().zip(Phase::ALL) {
            out.set(
                registered(format!("runtime.{side}.{}_share", phase.name())),
                ratio(*ns as f64, total as f64),
            );
        }
        out.set(
            registered(format!("runtime.{side}.loop_iters_per_mib")),
            ratio(self.iters as f64, mib),
        );
        out.set(
            registered(format!("pool.{side}_miss_ratio")),
            ratio(
                self.pool_misses as f64,
                (self.pool_hits + self.pool_misses) as f64,
            ),
        );
    }
}

/// Metric names are registry constants; find the registry's copy.
fn registered(name: String) -> &'static str {
    crate::report::PER_LAYER
        .iter()
        .find(|d| d.name == name)
        .map(|d| d.name)
        .unwrap_or_else(|| panic!("{name} is not a registered per-layer metric"))
}

fn report_loops(out: &mut Outcome, client: &LoopTotals, server: &LoopTotals, mib: f64) {
    client.report(out, "client", mib);
    server.report(out, "server", mib);
    out.set(
        "runtime.dgrams_per_recv_batch",
        ratio(
            (client.dgrams_rx + server.dgrams_rx) as f64,
            (client.recv_batches + server.recv_batches) as f64,
        ),
    );
    out.set(
        "runtime.egress_backpressure",
        (client.backpressure + server.backpressure) as f64,
    );
    out.set(
        "runtime.egress_depth_peak",
        client.egress_peak.max(server.egress_peak) as f64,
    );
    out.set(
        "runtime.late_ticks",
        (client.late_ticks + server.late_ticks) as f64,
    );
    let mut skew = client.skew.clone();
    skew.merge(&server.skew);
    out.set("runtime.tick_skew_p99_us", skew.quantile(0.99) as f64 / 1e3);
}

// ---------------------------------------------------------------------------
// Server thread.
// ---------------------------------------------------------------------------

/// What the server thread hands back when stopped.
pub struct ServerReport {
    pub loops: LoopTotals,
    pub conns: ConnTotals,
    pub joins: u64,
    pub held: usize,
    pub rejected_syns: u64,
    pub tokens: usize,
    pub tracer: Option<Tracer>,
}

pub struct Server {
    pub addrs: Vec<SocketAddr>,
    stop: Arc<AtomicBool>,
    join: JoinHandle<ServerReport>,
}

impl Server {
    /// Bind the server's sockets (one per path) on the calling thread.
    pub fn bind(seed: u64, factory: AppFactory, profile: bool) -> Result<ServerRuntime, String> {
        let cfg = LoopConfig {
            profile,
            ..LoopConfig::default()
        };
        ServerRuntime::bind(MptcpConfig::default(), seed, &loopback(), factory, cfg)
            .map_err(|e| format!("server bind: {e}"))
    }

    /// Run `srv`'s loop on a thread of its own until stopped. With
    /// `epoch`, every step and idle wait is recorded as a span.
    pub fn start(srv: ServerRuntime, epoch: Option<Instant>) -> Result<Server, String> {
        let addrs = (0..PATHS)
            .map(|i| srv.local_addr(i))
            .collect::<std::io::Result<Vec<_>>>()
            .map_err(|e| format!("server address: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let mut srv = srv;
        let join = std::thread::Builder::new()
            .name("mpbench-server".into())
            .spawn(move || {
                let mut tracer = epoch.map(|e| Tracer::new(e, SPAN_CAP));
                while !stop_flag.load(Ordering::SeqCst) {
                    let req = srv.accepted() as u32;
                    let t0 = Instant::now();
                    let moved = srv.step();
                    let t1 = Instant::now();
                    if let Some(t) = tracer.as_mut() {
                        t.leaf("server.step", req, t0, t1);
                    }
                    if !moved {
                        srv.idle_wait();
                        if let Some(t) = tracer.as_mut() {
                            t.leaf("server.idle", req, t1, Instant::now());
                        }
                    }
                }
                server_report(&srv, tracer)
            })
            .map_err(|e| format!("spawn server thread: {e}"))?;
        Ok(Server { addrs, stop, join })
    }

    /// Stop the loop, join the thread and collect its report.
    pub fn stop(self) -> Result<ServerReport, String> {
        self.stop.store(true, Ordering::SeqCst);
        self.join
            .join()
            .map_err(|_| "server thread panicked".to_string())
    }
}

fn server_report(srv: &ServerRuntime, tracer: Option<Tracer>) -> ServerReport {
    let mut loops = LoopTotals::default();
    loops.add(srv.stats(), srv.profiler());
    let l = srv.listener();
    let mut conns = ConnTotals::default();
    for c in &l.conns {
        conns.add(&c.telemetry());
    }
    ServerReport {
        loops,
        conns,
        joins: joined_subflows(l.conns.iter()),
        held: l.len(),
        rejected_syns: l.rejected_syns,
        tokens: l.tokens.len(),
        tracer,
    }
}

/// Bind the server several times, timing each bind as set-up (the
/// median is reported: one bind takes tens of microseconds), then run
/// the last one. Thread start-up is left out of set-up time: on a shared
/// two-vCPU machine its wake-up latency is scheduler noise.
fn start_measured(
    seed: u64,
    mut factory: impl FnMut() -> AppFactory,
    profile: bool,
    epoch: Option<Instant>,
) -> Result<(Server, f64), String> {
    let mut times = Vec::with_capacity(SETUP_BINDS);
    let mut srv = None;
    for _ in 0..SETUP_BINDS {
        let t0 = Instant::now();
        let bound = Server::bind(seed, factory(), profile)?;
        times.push(t0.elapsed().as_secs_f64());
        srv = Some(bound);
    }
    let srv = srv.expect("at least one bind");
    Ok((Server::start(srv, epoch)?, median(&times)))
}

/// One loop iteration on the client, recorded as spans when traced.
fn client_turn<A: ConnApp>(cl: &mut ClientRuntime<A>, tracer: &mut Option<Tracer>, req: u32) {
    let t0 = Instant::now();
    let moved = cl.step();
    let t1 = Instant::now();
    if let Some(t) = tracer.as_mut() {
        t.leaf("client.step", req, t0, t1);
    }
    if !moved {
        cl.idle_wait();
        if let Some(t) = tracer.as_mut() {
            t.leaf("client.idle", req, t1, Instant::now());
        }
    }
}

fn fetch_factory() -> AppFactory {
    Box::new(|| Box::new(FetchServer::new()))
}

fn report_listener(out: &mut Outcome, s: &ServerReport) {
    out.set("listener.conns_held", s.held as f64);
    // wire_rr keeps one connection open at a time.
    out.set("listener.held_per_live", s.held as f64);
    out.set("listener.rejected_syns", s.rejected_syns as f64);
}

/// The client thread's spans must account for its wall time; the rest
/// is reported as unattributed. The server's spans run concurrently on
/// their own thread and are stored alongside.
fn finish_spans(
    out: &mut Outcome,
    client: Option<Tracer>,
    server: Option<Tracer>,
    client_wall_s: f64,
    path: &Path,
) {
    let Some(mut t) = client else { return };
    let attributed = [
        "client.connect",
        "client.step",
        "client.idle",
        "client.think",
    ]
    .iter()
    .map(|n| t.totals(n).self_ns())
    .sum::<u64>();
    out.set(
        "trace.unattributed_share",
        1.0 - ratio(attributed as f64, client_wall_s * 1e9),
    );
    if let Some(s) = server {
        t.merge(s);
    }
    if let Err(e) = t.write_jsonl(path) {
        out.check(false, || {
            format!("writing spans to {}: {e}", path.display())
        });
    }
}

// ---------------------------------------------------------------------------
// wire_rr.
// ---------------------------------------------------------------------------

/// What a fetch is for. Only measured fetches count in the metrics of
/// the result line; the traced run adds the two kinds of probes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Measured,
    /// Linger after the last byte until the connection fully closes.
    Close,
    /// Connect from the ports of an earlier, served fetch.
    Reuse,
}

impl Kind {
    fn deadline(self) -> Duration {
        match self {
            Kind::Reuse => REUSE_DEADLINE,
            Kind::Measured | Kind::Close => RR_DEADLINE,
        }
    }
}

/// One fetch's outcome. Times run from before `ClientRuntime::connect`.
pub struct Fetch {
    pub kind: Kind,
    /// When the fetch started, from the start of the run.
    pub start: Duration,
    pub ok: bool,
    /// A byte failed keystream verification.
    pub corrupt: bool,
    pub latency: Duration,
    pub ttfb: Option<Duration>,
    pub handshake: Option<Duration>,
    /// Close probes: time from the last byte to a fully closed
    /// connection, `None` if it did not close within `CLOSE_CAP`.
    pub close: Option<Duration>,
    pub bytes: u64,
}

pub struct RrSide {
    pub loops: LoopTotals,
    pub conns: ConnTotals,
}

/// Fetch `RR_SIZE` keystream bytes over a two-path client bound to the
/// next ports of `ports`, stopping the clock on the last verified byte.
/// Afterwards the client keeps stepping, untimed, until its app has seen
/// EOF and sent its own close (so the server can reap the connection),
/// or for a close probe until the connection fully closes.
#[allow(clippy::too_many_arguments)] // one fetch's inputs and sinks
pub fn fetch_once(
    addrs: &[SocketAddr],
    ports: &mut ClientPorts,
    (seed, ks_seed): (u64, u64),
    kind: Kind,
    tracer: &mut Option<Tracer>,
    req: u32,
    side: Option<&mut RrSide>,
) -> Result<Fetch, String> {
    // Loop totals are collected only where the profiler runs.
    let cfg = LoopConfig {
        profile: side.is_some(),
        ..LoopConfig::default()
    };
    let deadline = kind.deadline();
    let t0 = Instant::now();
    let mut cl = ports.connect(seed, addrs, || FetchClient::new(RR_SIZE, ks_seed), cfg)?;
    if let Some(t) = tracer.as_mut() {
        t.leaf("client.connect", req, t0, Instant::now());
    }
    let mut f = Fetch {
        kind,
        start: Duration::ZERO,
        ok: false,
        corrupt: false,
        latency: deadline,
        ttfb: None,
        handshake: None,
        close: None,
        bytes: 0,
    };
    loop {
        client_turn(&mut cl, tracer, req);
        let now = Instant::now();
        let app = cl.app();
        if f.handshake.is_none() && cl.conn().is_established() {
            f.handshake = Some(now - t0);
        }
        if f.ttfb.is_none() && app.received() > 0 {
            f.ttfb = Some(now - t0);
        }
        if app.mismatch_at().is_some() {
            f.corrupt = true;
            break;
        }
        if app.received() == RR_SIZE {
            f.ok = true;
            f.latency = now - t0;
            break;
        }
        // A stream that ended short, or no full reply by the deadline.
        if app.finished() || now - t0 > deadline {
            break;
        }
    }
    f.bytes = cl.app().received();
    if f.ok {
        let last = Instant::now();
        let linger = kind == Kind::Close;
        let cap = if linger {
            CLOSE_CAP
        } else {
            Duration::from_millis(20)
        };
        while Instant::now() - last < cap {
            if linger {
                if cl.conn().fully_closed() {
                    break;
                }
            } else if cl.app().finished() {
                // One more turn flushes our DATA_FIN.
                client_turn(&mut cl, tracer, req);
                break;
            }
            client_turn(&mut cl, tracer, req);
        }
        if linger {
            f.close = cl.conn().fully_closed().then(|| Instant::now() - last);
        }
    }
    if let Some(s) = side {
        s.loops.add(cl.stats(), cl.profiler());
        s.conns.add(&cl.conn().telemetry());
    }
    Ok(f)
}

/// The seeded inputs of wire_rr: per fetch, the connection's key seed
/// and the keystream seed of the requested object.
struct FetchSeeds(SimRng);

impl FetchSeeds {
    fn next_pair(&mut self) -> (u64, u64) {
        (self.0.next_u64(), self.0.next_u64())
    }
}

/// The first `n` fetch input pairs of a wire_rr run with `seed`.
#[cfg(test)]
pub fn fetch_seeds(seed: u64, n: usize) -> Vec<(u64, u64)> {
    let mut s = FetchSeeds(SimRng::new(seed ^ 0x4242));
    (0..n).map(|_| s.next_pair()).collect()
}

pub struct RrRun {
    pub setup_s: f64,
    /// Peak RSS after `RSS_FETCHES` fetches, or at the end of a run that
    /// made fewer.
    pub rss_mib: f64,
    pub fetches: Vec<Fetch>,
    pub elapsed: f64,
    pub cpu_ns: u64,
    pub client: RrSide,
    pub server: ServerReport,
    pub client_wall_s: f64,
    pub tracer: Option<Tracer>,
}

/// Sequential closed-loop fetches for `seconds`, against one server
/// started by `factory` (the fetch server, or a faulty one in tests).
pub fn rr_run(
    seed: u64,
    seconds: f64,
    traced: bool,
    mut factory: impl FnMut() -> AppFactory,
) -> Result<RrRun, String> {
    let epoch = Instant::now();
    let (server, setup_s) = start_measured(seed, &mut factory, traced, traced.then_some(epoch))?;
    let mut seeds = FetchSeeds(SimRng::new(seed ^ 0x4242));
    let mut tracer = traced.then(|| Tracer::new(epoch, SPAN_CAP));
    let mut side = RrSide {
        loops: LoopTotals::default(),
        conns: ConnTotals::default(),
    };
    let mut fetches = Vec::new();
    let mut rss_mib = None;
    let mut ports = ClientPorts::new();
    let t0 = Instant::now();
    let cpu0 = process_cpu_ns();
    let end = t0 + Duration::from_secs_f64(seconds);
    while Instant::now() < end {
        let req = fetches.len() as u32;
        let start = t0.elapsed();
        let mut f = fetch_once(
            &server.addrs,
            &mut ports,
            seeds.next_pair(),
            Kind::Measured,
            &mut tracer,
            req,
            traced.then_some(&mut side),
        )?;
        f.start = start;
        fetches.push(f);
        if fetches.len() == RSS_FETCHES {
            rss_mib = Some(crate::report::peak_rss_mib());
        }
        let t = Instant::now();
        std::thread::sleep(THINK);
        if let Some(tr) = tracer.as_mut() {
            tr.leaf("client.think", req, t, Instant::now());
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let cpu_ns = process_cpu_ns() - cpu0;
    if traced {
        // Probes, outside the measured window. Close probes linger until
        // the connection fully closes, as `ClientRuntime::run` would.
        // Reuse probes connect again from the ports of the first served
        // fetches, as a kernel-chosen port sometimes does.
        let mut reused = ClientPorts::new();
        let probes = [(Kind::Close, CLOSE_PROBES), (Kind::Reuse, REUSE_PROBES)];
        for (kind, n) in probes {
            for _ in 0..n {
                let req = fetches.len() as u32;
                let from = if kind == Kind::Reuse {
                    &mut reused
                } else {
                    &mut ports
                };
                let f = fetch_once(
                    &server.addrs,
                    from,
                    seeds.next_pair(),
                    kind,
                    &mut None,
                    req,
                    None,
                )?;
                fetches.push(f);
            }
        }
    }
    let client_wall_s = elapsed;
    let server = server.stop()?;
    Ok(RrRun {
        setup_s,
        rss_mib: rss_mib.unwrap_or_else(crate::report::peak_rss_mib),
        fetches,
        elapsed,
        cpu_ns,
        client: side,
        server,
        client_wall_s,
        tracer,
    })
}

impl RrRun {
    fn of(&self, kind: Kind) -> impl Iterator<Item = &Fetch> + Clone {
        self.fetches.iter().filter(move |f| f.kind == kind)
    }
}

pub fn rr_outcome(r: &RrRun) -> Outcome {
    let mut out = Outcome::new();
    let measured = r.of(Kind::Measured);
    let corrupt = measured.clone().filter(|f| f.corrupt).count();
    out.check(corrupt == 0, || {
        format!("wire_rr: {corrupt} fetches failed keystream verification")
    });
    out.attempted = measured.clone().count() as u64;
    out.failed = measured.filter(|f| !f.ok).count() as u64;
    out
}

fn rr_latencies(r: &RrRun) -> Vec<f64> {
    // A failed fetch counts at the deadline, over any latency limit.
    r.of(Kind::Measured)
        .map(|f| f.latency.as_secs_f64() * 1e3)
        .collect()
}

/// Latency quantile `q` of each `WINDOW` of the run, by fetch start, and
/// the median over windows: a few seconds of hypervisor steal move one
/// window's tail, not the reported one.
fn windowed_quantile(r: &RrRun, q: f64) -> f64 {
    let mut windows: std::collections::BTreeMap<u128, Vec<f64>> = Default::default();
    for f in r.of(Kind::Measured) {
        windows
            .entry(f.start.as_nanos() / WINDOW.as_nanos())
            .or_default()
            .push(f.latency.as_secs_f64() * 1e3);
    }
    let per: Vec<f64> = windows.values().map(|v| quantile(v, q)).collect();
    median(&per)
}

pub fn rr(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let r = rr_run(seed, seconds, false, fetch_factory)?;
    let mut out = rr_outcome(&r);
    let ok = out.attempted - out.failed;
    let bytes: u64 = r.fetches.iter().filter(|f| f.ok).map(|f| f.bytes).sum();
    out.set("setup_s", r.setup_s);
    out.set("peak_rss_mib", r.rss_mib);
    out.set("ok_share", ratio(ok as f64, out.attempted as f64));
    out.set("app_mb_per_s", bytes as f64 / 1e6 / r.elapsed);
    out.set("req_per_s", ok as f64 / r.elapsed);
    out.set("goodput_mbps", bytes as f64 * 8.0 / 1e6 / r.elapsed);
    out.set("cpu_ns_per_byte", ratio(r.cpu_ns as f64, bytes as f64));
    out.set("latency_p50_ms", windowed_quantile(&r, 0.5));
    out.set("latency_p90_ms", windowed_quantile(&r, 0.9));
    Ok(out)
}

/// Traced wire_rr: half the time untraced for reference, half traced,
/// then the close probes.
pub fn rr_traced(seed: u64, seconds: f64, spans: &Path) -> Result<Outcome, String> {
    let plain = rr_run(seed, seconds / 2.0, false, fetch_factory)?;
    let r = rr_run(seed, seconds / 2.0, true, fetch_factory)?;
    let mut out = rr_outcome(&r);
    let plain_out = rr_outcome(&plain);
    for p in plain_out.problems {
        out.check(false, || p);
    }
    let bytes: u64 = r.fetches.iter().filter(|f| f.ok).map(|f| f.bytes).sum();
    report_loops(
        &mut out,
        &r.client.loops,
        &r.server.loops,
        bytes as f64 / (1u64 << 20) as f64,
    );
    let mut conns = ConnTotals::default();
    conns.merge(&r.client.conns);
    conns.merge(&r.server.conns);
    conns.report(&mut out, r.server.joins);
    report_listener(&mut out, &r.server);
    let measured: Vec<&Fetch> = r.of(Kind::Measured).collect();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let pick = |f: &dyn Fn(&Fetch) -> Option<Duration>| -> Vec<f64> {
        measured.iter().filter_map(|x| f(x)).map(ms).collect()
    };
    out.set("requests.samples", measured.len() as f64);
    out.set("runtime.handshake_ms_p50", median(&pick(&|f| f.handshake)));
    out.set("runtime.ttfb_ms_p50", median(&pick(&|f| f.ttfb)));
    let probes: Vec<&Fetch> = r.of(Kind::Close).filter(|f| f.ok).collect();
    // An unclosed connection counts at the cap.
    let close: Vec<f64> = probes
        .iter()
        .map(|f| ms(f.close.unwrap_or(CLOSE_CAP)))
        .collect();
    out.set("runtime.close_ms_p50", median(&close));
    out.set(
        "runtime.unclosed_share",
        ratio(
            probes.iter().filter(|f| f.close.is_none()).count() as f64,
            probes.len() as f64,
        ),
    );
    let reuse: Vec<&Fetch> = r.of(Kind::Reuse).collect();
    out.set(
        "listener.port_reuse_failed_share",
        ratio(
            reuse.iter().filter(|f| !f.ok).count() as f64,
            reuse.len() as f64,
        ),
    );
    let lat = rr_latencies(&r);
    let q = lat.len() / 4;
    if q > 0 {
        out.set(
            "host.cost_growth",
            median(&lat[lat.len() - q..]) / median(&lat[..q]),
        );
    }
    out.set(
        "trace.overhead_share",
        median(&lat) / median(&rr_latencies(&plain)) - 1.0,
    );
    kernels::replay(
        &deployed_capture(RR_SIZE as usize, seed),
        MptcpConfig::default().reorder(),
        r.server.tokens,
        seed,
        &mut out,
    );
    finish_spans(&mut out, r.tracer, r.server.tracer, r.client_wall_s, spans);
    Ok(out)
}
