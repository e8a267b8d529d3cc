//! Layer kernels below the connection's public API, timed by replaying
//! what a traced run observed through each layer's public functions:
//! the segment mix (codec, DSS checksum), the data-sequence arrival
//! order at the receiver (reorder queue), the subflow states the sender
//! saw (scheduler), the acked-byte sequence with the run's subflow count
//! (coupled congestion control), the listener's token-table size (token
//! generation) and the MP_JOIN MAC (HMAC-SHA1).

use std::time::{Duration, Instant};

use bytes::Bytes;
use mptcp::reorder::make_queue;
use mptcp::{
    CcAlgorithm, CoupledState, FlowView, PathSnapshot, ReorderAlgo, SchedCtx, SchedulerKind,
    TokenTable,
};
use mptcp_netsim::{SimRng, SimTime};
use mptcp_packet::{checksum, crypto, SeqNum, TcpFlags, TcpSegment};

use crate::report::{ratio, Outcome};

/// Window-scale shift used for the codec replay (the stack's default).
const WSCALE: u8 = 7;
/// Time budget per kernel.
const BUDGET: Duration = Duration::from_millis(60);
const MAX_SEGS: usize = 8192;
const MAX_ARRIVALS: usize = 200_000;
const MAX_SCHED: usize = 4096;

/// What a traced run saw, kept for the replays.
#[derive(Default)]
pub struct Capture {
    /// Every 8th segment delivered to a host, in order.
    pub segs: Vec<TcpSegment>,
    seen: u64,
    /// (receiving host, DSN, mapping length) of data segments, in
    /// arrival order.
    pub arrivals: Vec<(usize, u64, u16)>,
    /// Sampled scheduler inputs: usable subflows and connection-level
    /// send-window room.
    pub sched: Vec<(Vec<PathSnapshot>, u64)>,
}

impl Capture {
    pub fn segment(&mut self, seg: &TcpSegment) {
        if self.seen.is_multiple_of(8) && self.segs.len() < MAX_SEGS {
            self.segs.push(seg.clone());
        }
        self.seen += 1;
    }

    pub fn arrival(&mut self, host: usize, dsn: u64, len: u16) {
        if self.arrivals.len() < MAX_ARRIVALS {
            self.arrivals.push((host, dsn, len));
        }
    }

    pub fn sched_input(&mut self, paths: Vec<PathSnapshot>, room: u64) {
        if !paths.is_empty() && self.sched.len() < MAX_SCHED {
            self.sched.push((paths, room));
        }
    }
}

/// Nanoseconds per operation of `pass`, which performs some operations
/// and returns how many; passes repeat until the budget is spent.
fn ns_per_op(mut pass: impl FnMut() -> u64) -> f64 {
    let mut ops = 0u64;
    let t0 = Instant::now();
    loop {
        ops += pass();
        let dt = t0.elapsed();
        if dt >= BUDGET || ops == 0 {
            return ratio(dt.as_nanos() as f64, ops as f64);
        }
    }
}

/// Encode and decode every captured segment that the codec accepts.
fn codec(segs: &[TcpSegment]) -> (f64, f64) {
    let mut buf = Vec::with_capacity(2048);
    let ok: Vec<&TcpSegment> = segs
        .iter()
        .filter(|s| {
            buf.clear();
            s.encode_into(WSCALE, &mut buf).is_ok()
        })
        .collect();
    let encode = ns_per_op(|| {
        for s in &ok {
            buf.clear();
            s.encode_into(WSCALE, &mut buf).expect("encoded before");
            std::hint::black_box(buf.len());
        }
        ok.len() as u64
    });
    let wires: Vec<(Bytes, u32, u32)> = ok
        .iter()
        .map(|s| {
            let w = s.encode(WSCALE).expect("encoded before");
            (Bytes::from(w), s.tuple.src.addr, s.tuple.dst.addr)
        })
        .collect();
    let Some(first) = ok.first() else {
        return (0.0, 0.0);
    };
    let mut dec = TcpSegment::new(first.tuple, SeqNum(0), SeqNum(0), TcpFlags::ACK);
    let decode = ns_per_op(|| {
        for (w, src, dst) in &wires {
            TcpSegment::decode_verified_view_into(w, *src, *dst, WSCALE, &mut dec)
                .expect("a segment the codec encoded decodes");
            std::hint::black_box(dec.payload.len());
        }
        wires.len() as u64
    });
    (encode, decode)
}

fn checksum_per_kib(segs: &[TcpSegment]) -> f64 {
    let payloads: Vec<&Bytes> = segs
        .iter()
        .map(|s| &s.payload)
        .filter(|p| !p.is_empty())
        .collect();
    let bytes: u64 = payloads.iter().map(|p| p.len() as u64).sum();
    if bytes == 0 {
        return 0.0;
    }
    // ns per pass over all payloads, scaled to one KiB.
    let per_pass = ns_per_op(|| {
        for p in &payloads {
            std::hint::black_box(checksum::ones_complement_add(0, p));
        }
        1
    });
    per_pass * 1024.0 / bytes as f64
}

/// Replay the arrival order of the receiver that got the most data
/// segments. An arrival far from the expected DSN starts a new
/// connection's stream. Reports replay time per out-of-order insert.
fn reorder(arrivals: &[(usize, u64, u16)], algo: ReorderAlgo) -> f64 {
    let mut per_host = std::collections::BTreeMap::<usize, u64>::new();
    for (h, _, _) in arrivals {
        *per_host.entry(*h).or_default() += 1;
    }
    let Some((&host, _)) = per_host.iter().max_by_key(|(_, n)| **n) else {
        return 0.0;
    };
    let stream: Vec<(u64, u16)> = arrivals
        .iter()
        .filter(|(h, _, len)| *h == host && *len > 0)
        .map(|(_, d, l)| (*d, *l))
        .collect();
    let chunk = Bytes::from(vec![0u8; 65536]);
    let mut total_inserts = 0u64;
    let mut total_ns = 0u128;
    let t0 = Instant::now();
    while t0.elapsed() < BUDGET {
        let mut q = make_queue(algo);
        let mut rcv: Option<u64> = None;
        let mut inserts = 0u64;
        let t = Instant::now();
        for &(dsn, len) in &stream {
            let next = *rcv.get_or_insert(dsn);
            let end = dsn + u64::from(len);
            if dsn.abs_diff(next) > 1 << 24 {
                q = make_queue(algo);
                rcv = Some(end);
                continue;
            }
            if end <= next {
                continue;
            }
            if dsn <= next {
                let mut r = end;
                while let Some((d, b)) = q.pop_ready(r) {
                    r = r.max(d + b.len() as u64);
                }
                rcv = Some(r);
            } else {
                q.insert(dsn, chunk.slice(..usize::from(len)), 0);
                inserts += 1;
            }
        }
        total_ns += t.elapsed().as_nanos();
        total_inserts += inserts;
        if inserts == 0 {
            break;
        }
    }
    ratio(total_ns as f64, total_inserts as f64)
}

fn sched(inputs: &[(Vec<PathSnapshot>, u64)]) -> f64 {
    if inputs.is_empty() {
        return 0.0;
    }
    let mut s = SchedulerKind::MinRtt.build();
    ns_per_op(|| {
        for (paths, room) in inputs {
            let ctx = SchedCtx {
                paths,
                send_window_free: *room,
                pending_bytes: 64 * 1024,
                is_reinject: false,
                avoid: None,
            };
            std::hint::black_box(s.pick(&ctx));
        }
        inputs.len() as u64
    })
}

/// LIA on-ACK plus the coupled recompute for `n` subflows, fed the
/// captured payload sizes as acked bytes and the captured RTTs.
fn cc(segs: &[TcpSegment], inputs: &[(Vec<PathSnapshot>, u64)]) -> f64 {
    let acked: Vec<u32> = segs
        .iter()
        .map(|s| s.payload.len() as u32)
        .filter(|&n| n > 0)
        .collect();
    if acked.is_empty() {
        return 0.0;
    }
    let rtts: Vec<mptcp_netsim::Duration> = inputs
        .iter()
        .max_by_key(|(p, _)| p.len())
        .map(|(p, _)| p.iter().map(|s| s.srtt).collect())
        .unwrap_or_else(|| vec![mptcp_netsim::Duration::from_millis(1)]);
    let n = rtts.len();
    let mss = 1400;
    let mut flows: Vec<Box<dyn mptcp_tcpstack::cc::CongestionControl>> =
        (0..n).map(|_| CcAlgorithm::Lia.build(mss, 10)).collect();
    let mut coupled = CoupledState::new(CcAlgorithm::Lia);
    let mut views: Vec<FlowView> = Vec::with_capacity(n);
    let mut k = 0usize;
    ns_per_op(|| {
        for &bytes in &acked {
            let i = k % n;
            k += 1;
            views.clear();
            views.extend(flows.iter().zip(&rtts).map(|(f, r)| FlowView {
                cwnd: f.cwnd(),
                srtt: *r,
            }));
            let signal = coupled.recompute(&views)[i];
            let f = &mut flows[i];
            f.set_coupled(signal);
            f.on_ack(SimTime(k as u64 * 1000), bytes, Some(rtts[i]));
            if f.cwnd() > 1 << 24 {
                // Keep the replay in the window range a real run sees.
                f.on_retransmit_timeout(SimTime(k as u64 * 1000), f.cwnd());
            }
        }
        acked.len() as u64
    })
}

fn token(table_size: usize, seed: u64) -> f64 {
    let mut rng = SimRng::new(seed ^ 0x70c3);
    let mut t = TokenTable::new();
    for i in 0..table_size {
        t.insert(rng.next_u32(), i);
    }
    ns_per_op(|| {
        for _ in 0..256 {
            std::hint::black_box(t.generate(&mut rng));
        }
        256
    })
}

fn hmac(seed: u64) -> f64 {
    let mut rng = SimRng::new(seed ^ 0x4ac);
    let (ka, kb) = (rng.next_u64(), rng.next_u64());
    let mut nonce = rng.next_u32();
    ns_per_op(|| {
        for _ in 0..256 {
            nonce = nonce.wrapping_add(1);
            std::hint::black_box(crypto::join_synack_mac(ka, kb, nonce, !nonce));
        }
        256
    })
}

/// Time every kernel on what `cap` holds and report the results.
pub fn replay(cap: &Capture, algo: ReorderAlgo, tokens: usize, seed: u64, out: &mut Outcome) {
    let (encode_ns, decode_ns) = codec(&cap.segs);
    out.set("codec.encode_ns_per_seg", encode_ns);
    out.set("codec.decode_ns_per_seg", decode_ns);
    out.set("checksum.ns_per_kib", checksum_per_kib(&cap.segs));
    out.set("reorder.insert_ns", reorder(&cap.arrivals, algo));
    out.set("sched.pick_ns", sched(&cap.sched));
    out.set("cc.on_ack_ns", cc(&cap.segs, &cap.sched));
    out.set("token.generate_ns", token(tokens, seed));
    out.set("crypto.hmac_ns", hmac(seed));
}
