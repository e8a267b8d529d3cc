//! Metric registry, the result line, and the measurement helpers every
//! workload shares (quantiles, process CPU time, peak RSS).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric's name and unit, as `BENCHMARK.json` lists it.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, printed by every untraced run. Every workload
/// defines each of them on its own unit of work (see NOTES.md): a
/// "request" is an 8 KB block (sim_bulk), an HTTP request (sim_http) or
/// a whole fetch (wire_rr).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("peak_rss_mib", "MiB"),
    m("ok_share", "ratio"),
    m("app_mb_per_s", "MB/s"),
    m("req_per_s", "1/s"),
    m("goodput_mbps", "Mbps"),
    m("cpu_ns_per_byte", "ns/B"),
    m("latency_p50_ms", "ms"),
    m("latency_p90_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// does not exercise reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("requests.samples", "count"),
    m("netsim.events", "count"),
    m("netsim.self_ns_per_event", "ns"),
    m("netsim.wakeups_per_data_seg", "ratio"),
    m("netsim.queue_drops", "count"),
    m("conn.input_segs", "count"),
    m("conn.input_ns_per_seg", "ns"),
    m("conn.output_polls", "count"),
    m("conn.output_ns_per_poll", "ns"),
    m("conn.polls_per_data_seg", "ratio"),
    m("conn.poll_at_ns", "ns"),
    m("conn.payload_bytes_per_data_seg", "B"),
    m("conn.m1_reinjections", "count"),
    m("conn.m2_penalizations", "count"),
    m("conn.data_rtos", "count"),
    m("conn.dup_data_bytes", "B"),
    m("tcpstack.retransmitted_segs", "count"),
    m("tcpstack.rtos", "count"),
    m("tcpstack.fast_retransmits", "count"),
    m("sched.picks", "count"),
    m("sched.stall_ratio", "ratio"),
    m("sched.pick_ns", "ns"),
    m("reorder.inserts", "count"),
    m("reorder.ops_per_insert", "ratio"),
    m("reorder.shortcut_hit_ratio", "ratio"),
    m("reorder.ofo_peak_segs", "count"),
    m("reorder.insert_ns", "ns"),
    m("cc.on_ack_ns", "ns"),
    m("pm.subflows_opened", "count"),
    m("pm.add_addr_retransmits", "count"),
    m("listener.conns_held", "count"),
    m("listener.held_per_live", "ratio"),
    m("listener.rejected_syns", "count"),
    m("listener.port_reuse_failed_share", "ratio"),
    m("host.cost_growth", "ratio"),
    m("token.generate_ns", "ns"),
    m("crypto.hmac_ns", "ns"),
    m("codec.encode_ns_per_seg", "ns"),
    m("codec.decode_ns_per_seg", "ns"),
    m("checksum.ns_per_kib", "ns"),
    m("pool.client_miss_ratio", "ratio"),
    m("pool.server_miss_ratio", "ratio"),
    m("runtime.client.recv_drain_share", "ratio"),
    m("runtime.client.demux_share", "ratio"),
    m("runtime.client.drive_share", "ratio"),
    m("runtime.client.poll_encode_share", "ratio"),
    m("runtime.client.flush_share", "ratio"),
    m("runtime.client.idle_share", "ratio"),
    m("runtime.server.recv_drain_share", "ratio"),
    m("runtime.server.demux_share", "ratio"),
    m("runtime.server.drive_share", "ratio"),
    m("runtime.server.poll_encode_share", "ratio"),
    m("runtime.server.flush_share", "ratio"),
    m("runtime.server.idle_share", "ratio"),
    m("runtime.client.loop_iters_per_mib", "1/MiB"),
    m("runtime.server.loop_iters_per_mib", "1/MiB"),
    m("runtime.dgrams_per_recv_batch", "ratio"),
    m("runtime.egress_backpressure", "count"),
    m("runtime.egress_depth_peak", "count"),
    m("runtime.late_ticks", "count"),
    m("runtime.tick_skew_p99_us", "us"),
    m("runtime.handshake_ms_p50", "ms"),
    m("runtime.ttfb_ms_p50", "ms"),
    m("runtime.close_ms_p50", "ms"),
    m("runtime.unclosed_share", "ratio"),
    m("trace.overhead_share", "ratio"),
    m("trace.unattributed_share", "ratio"),
];

/// What one invocation reports: the correctness verdict, the operation
/// counts, and the metric values by name.
#[derive(Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Why `correct` is false, for the human-readable lines.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a failed correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.problems.push(what());
        }
    }

    /// The result line: exactly the registry's metrics for this mode, each
    /// with its unit. End-to-end metrics must all have been set; a
    /// per-layer metric the workload never touched reads 0.
    pub fn json(&self, traced: bool) -> Result<String, String> {
        let defs = if traced { PER_LAYER } else { END_TO_END };
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        )
        .expect("write to String");
        for (i, d) in defs.iter().enumerate() {
            let v = match self.metrics.get(d.name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {} was not measured", d.name)),
            };
            if !v.is_finite() {
                return Err(format!("metric {} is not finite ({v})", d.name));
            }
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name, v, d.unit
            )
            .expect("write to String");
        }
        out.push_str("}}");
        Ok(out)
    }

    /// One `name value unit` line per reported metric, for people.
    pub fn table(&self, traced: bool) -> String {
        let defs = if traced { PER_LAYER } else { END_TO_END };
        let mut out = String::new();
        for d in defs {
            let v = self.metrics.get(d.name).copied().unwrap_or(0.0);
            writeln!(out, "{:<36} {:>16.6} {}", d.name, v, d.unit).expect("write to String");
        }
        out
    }
}

/// Quantile `q` of `v` by linear interpolation between order statistics;
/// 0 for an empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Cumulative (steal, total) CPU ticks of the machine from `/proc/stat`.
/// Steal is time the hypervisor ran something else while a vCPU wanted to
/// run; it inflates every wall-clock metric of a run it overlaps.
pub fn cpu_steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU time consumed by every thread of this process.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and
    // CLOCK_PROCESS_CPUTIME_ID is a clock every Linux kernel provides.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}
