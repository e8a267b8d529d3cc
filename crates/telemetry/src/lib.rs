//! Telemetry substrate for the MPTCP stack.
//!
//! The paper's evaluation hinges on *why* throughput moved: which of the
//! M1-M4 mechanisms fired, whether a connection fell back to regular TCP
//! (and what middlebox behaviour caused it), and how deep the receive-side
//! reorder structures grew. This crate gives every layer a uniform way to
//! record those internals without pulling in dependencies or wall-clock
//! time: a [`Recorder`] holds fixed-size counter and gauge arrays plus a
//! bounded [`EventRing`], all timestamped by the caller from the simulated
//! clock. A [`TelemetrySnapshot`] is a cheap, immutable copy that renders
//! itself as JSON (for harness reports) or a text table (for the repro
//! binary).
//!
//! Design constraints:
//! - no `std::time` anywhere: timestamps are caller-supplied sim-clock
//!   nanoseconds, so runs stay deterministic;
//! - zero dependencies: JSON and table output are hand-rolled;
//! - bounded memory: the event ring drops the oldest events past its
//!   capacity and reports how many were dropped, so long runs can't bloat.

mod hist;
mod trace;

pub use hist::LogHistogram;
pub use trace::{
    TraceConfig, TraceRecord, TraceSnapshot, TraceWriter, Tracer, DEFAULT_SAMPLE_INTERVAL_NS,
    DEFAULT_TRACE_CAPACITY, SPAN_CONN_LEVEL,
};

/// Monotone counters, one slot per variant, held in a fixed array inside
/// [`Recorder`]. Grouped by the layer that increments them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum CounterId {
    // -- core::conn: the paper's M1-M4 mechanisms --------------------------
    /// M1: segments opportunistically re-injected on another subflow.
    M1Reinjections,
    /// M2: times a slow subflow's cwnd was halved to unclog the send window.
    M2Penalizations,
    /// M3: receive/send buffer autotune growth steps.
    M3BufferGrowths,
    /// M4: times a subflow cwnd was capped to bound bufferbloat.
    M4CwndCaps,
    // -- core::conn: data-level machinery ----------------------------------
    /// Segments handed to a subflow by the scheduler.
    SchedulerPicks,
    /// Times the scheduler found every subflow blocked (no cwnd/rwnd room).
    SchedulerStalls,
    /// Times the scheduler deliberately waited for a faster path (BLEST).
    SchedulerDefers,
    /// Data-level retransmissions triggered by the data-level RTO.
    DataRtos,
    /// Progress stalls observed at DATA_ACK level (snd_una unmoved too long).
    DataAckStalls,
    /// Duplicate data bytes discarded at the connection-level receiver.
    DupDataBytes,
    // -- core::conn: fallback (§3.3.6) and handshake rejections -------------
    /// DSS checksum verification failures.
    ChecksumFailures,
    /// Connections that fell back to regular TCP, by cause (see events too).
    Fallbacks,
    /// MP_JOIN attempts rejected (bad HMAC, unknown token, limit, state).
    JoinsRejected,
    /// Subflows torn down with RST while the connection survived.
    SubflowResets,
    // -- core::conn: path management (§3.2, §3.4) ----------------------------
    /// ADD_ADDR advertisements sent to the peer.
    AddAddrsSent,
    /// ADD_ADDR advertisements received from the peer.
    AddAddrsReceived,
    /// REMOVE_ADDR withdrawals sent to the peer.
    RemoveAddrsSent,
    /// REMOVE_ADDR withdrawals received from the peer.
    RemoveAddrsReceived,
    /// REMOVE_ADDR withdrawals rejected: the addr_id was never advertised
    /// and no subflow uses it.
    RemoveAddrUnknown,
    /// ADD_ADDR advertisements retransmitted (unechoed past the interval).
    AddAddrRetransmits,
    /// Subflows opened by a path-manager decision.
    PmSubflowsOpened,
    /// Backup subflows promoted to regular priority by the path manager.
    PmBackupPromotions,
    // -- core::conn: path-failure detection and recovery ---------------------
    /// Subflows demoted Active -> Suspect (consecutive RTOs / no progress).
    PathSuspects,
    /// Subflows declared Failed (in-flight data reinjected elsewhere).
    PathFailures,
    /// Suspect/Failed subflows that resumed progress and returned to Active.
    PathRecoveries,
    /// Connections aborted (all paths failed past the deadline, last
    /// subflow removed, FastClose...).
    ConnAborts,
    // -- core::reorder -------------------------------------------------------
    /// Segments inserted into the out-of-order queue.
    ReorderInserts,
    /// Pointer/node visits performed by the reorder algorithm.
    ReorderOps,
    /// Inserts satisfied by a shortcut (Shortcuts/AllShortcuts algorithms).
    ReorderShortcutHits,
    // -- tcpstack: per-subflow TCP internals --------------------------------
    /// Retransmission timer fires.
    TcpRtos,
    /// Fast retransmits (triple-dup-ACK).
    TcpFastRetransmits,
    /// Segments retransmitted (either path).
    TcpRetransmittedSegs,
    /// Zero-window probes sent.
    TcpZeroWindowProbes,
    // -- netsim / middlebox --------------------------------------------------
    /// Packets dropped by a full link queue.
    LinkQueueDrops,
    /// Packets dropped by configured random loss.
    LinkRandomDrops,
    /// TCP options removed by a middlebox.
    MboxOptionStrips,
    /// Payload bytes rewritten by a middlebox (e.g. ALG "fixups").
    MboxPayloadMutations,
    /// Segments split or coalesced by a middlebox/segmentation offload.
    MboxResegmentations,
    /// ACKs manufactured by a proactive-ACKing middlebox.
    MboxProactiveAcks,
    /// Sequence numbers rewritten by a randomizing middlebox.
    MboxSeqRewrites,
    /// Segments swallowed outright by a middlebox (hole droppers,
    /// option-sensitive SYN droppers).
    MboxSegmentDrops,
    /// Scheduled fault events applied by the simulator's fault schedule.
    FaultsInjected,
    /// Packets silently discarded because a fault forced the link down.
    LinkFaultDrops,
    // -- runtime: real-I/O event loop (crates/runtime) -----------------------
    /// Event-loop iterations executed.
    RtLoopIterations,
    /// recv-drain rounds that harvested at least one datagram (one batch of
    /// recv syscalls).
    RtRecvBatches,
    /// egress-flush rounds that pushed at least one datagram to a socket
    /// (one batch of send syscalls).
    RtSendBatches,
    /// UDP datagrams received and decoded into segments.
    RtDatagramsRx,
    /// UDP datagrams encoded and handed to the kernel.
    RtDatagramsTx,
    /// Inbound datagrams rejected by framing/decode/TCP-checksum checks.
    RtDecodeErrors,
    /// Times a connection's output poll was skipped because its bounded
    /// egress queue was full (backpressure applied).
    RtEgressBackpressure,
    /// Timer deadlines that were processed after they had already expired
    /// (wall-clock jitter; skew tracked by the `rt_tick_skew_ns` gauge).
    RtLateTicks,
    /// Egress buffer-pool checkouts satisfied by a recycled buffer.
    RtPoolHits,
    /// Egress buffer-pool checkouts that had to allocate a fresh buffer
    /// (pool cold, or every pooled buffer still pinned by a live view).
    RtPoolMisses,
    /// Admin-socket commands served (stat protocol lines + HTTP scrapes).
    RtAdminRequests,
}

impl CounterId {
    /// Every variant, in declaration order (the array layout).
    pub const ALL: [CounterId; NUM_COUNTERS] = [
        CounterId::M1Reinjections,
        CounterId::M2Penalizations,
        CounterId::M3BufferGrowths,
        CounterId::M4CwndCaps,
        CounterId::SchedulerPicks,
        CounterId::SchedulerStalls,
        CounterId::SchedulerDefers,
        CounterId::DataRtos,
        CounterId::DataAckStalls,
        CounterId::DupDataBytes,
        CounterId::ChecksumFailures,
        CounterId::Fallbacks,
        CounterId::JoinsRejected,
        CounterId::SubflowResets,
        CounterId::AddAddrsSent,
        CounterId::AddAddrsReceived,
        CounterId::RemoveAddrsSent,
        CounterId::RemoveAddrsReceived,
        CounterId::RemoveAddrUnknown,
        CounterId::AddAddrRetransmits,
        CounterId::PmSubflowsOpened,
        CounterId::PmBackupPromotions,
        CounterId::PathSuspects,
        CounterId::PathFailures,
        CounterId::PathRecoveries,
        CounterId::ConnAborts,
        CounterId::ReorderInserts,
        CounterId::ReorderOps,
        CounterId::ReorderShortcutHits,
        CounterId::TcpRtos,
        CounterId::TcpFastRetransmits,
        CounterId::TcpRetransmittedSegs,
        CounterId::TcpZeroWindowProbes,
        CounterId::LinkQueueDrops,
        CounterId::LinkRandomDrops,
        CounterId::MboxOptionStrips,
        CounterId::MboxPayloadMutations,
        CounterId::MboxResegmentations,
        CounterId::MboxProactiveAcks,
        CounterId::MboxSeqRewrites,
        CounterId::MboxSegmentDrops,
        CounterId::FaultsInjected,
        CounterId::LinkFaultDrops,
        CounterId::RtLoopIterations,
        CounterId::RtRecvBatches,
        CounterId::RtSendBatches,
        CounterId::RtDatagramsRx,
        CounterId::RtDatagramsTx,
        CounterId::RtDecodeErrors,
        CounterId::RtEgressBackpressure,
        CounterId::RtLateTicks,
        CounterId::RtPoolHits,
        CounterId::RtPoolMisses,
        CounterId::RtAdminRequests,
    ];

    /// Stable snake_case name used in JSON and table output.
    pub fn name(self) -> &'static str {
        match self {
            CounterId::M1Reinjections => "m1_reinjections",
            CounterId::M2Penalizations => "m2_penalizations",
            CounterId::M3BufferGrowths => "m3_buffer_growths",
            CounterId::M4CwndCaps => "m4_cwnd_caps",
            CounterId::SchedulerPicks => "scheduler_picks",
            CounterId::SchedulerStalls => "scheduler_stalls",
            CounterId::SchedulerDefers => "scheduler_defers",
            CounterId::DataRtos => "data_rtos",
            CounterId::DataAckStalls => "data_ack_stalls",
            CounterId::DupDataBytes => "dup_data_bytes",
            CounterId::ChecksumFailures => "checksum_failures",
            CounterId::Fallbacks => "fallbacks",
            CounterId::JoinsRejected => "joins_rejected",
            CounterId::SubflowResets => "subflow_resets",
            CounterId::AddAddrsSent => "add_addrs_sent",
            CounterId::AddAddrsReceived => "add_addrs_received",
            CounterId::RemoveAddrsSent => "remove_addrs_sent",
            CounterId::RemoveAddrsReceived => "remove_addrs_received",
            CounterId::RemoveAddrUnknown => "remove_addr_unknown",
            CounterId::AddAddrRetransmits => "add_addr_retransmits",
            CounterId::PmSubflowsOpened => "pm_subflows_opened",
            CounterId::PmBackupPromotions => "pm_backup_promotions",
            CounterId::PathSuspects => "path_suspects",
            CounterId::PathFailures => "path_failures",
            CounterId::PathRecoveries => "path_recoveries",
            CounterId::ConnAborts => "conn_aborts",
            CounterId::ReorderInserts => "reorder_inserts",
            CounterId::ReorderOps => "reorder_ops",
            CounterId::ReorderShortcutHits => "reorder_shortcut_hits",
            CounterId::TcpRtos => "tcp_rtos",
            CounterId::TcpFastRetransmits => "tcp_fast_retransmits",
            CounterId::TcpRetransmittedSegs => "tcp_retransmitted_segs",
            CounterId::TcpZeroWindowProbes => "tcp_zero_window_probes",
            CounterId::LinkQueueDrops => "link_queue_drops",
            CounterId::LinkRandomDrops => "link_random_drops",
            CounterId::MboxOptionStrips => "mbox_option_strips",
            CounterId::MboxPayloadMutations => "mbox_payload_mutations",
            CounterId::MboxResegmentations => "mbox_resegmentations",
            CounterId::MboxProactiveAcks => "mbox_proactive_acks",
            CounterId::MboxSeqRewrites => "mbox_seq_rewrites",
            CounterId::MboxSegmentDrops => "mbox_segment_drops",
            CounterId::FaultsInjected => "faults_injected",
            CounterId::LinkFaultDrops => "link_fault_drops",
            CounterId::RtLoopIterations => "rt_loop_iterations",
            CounterId::RtRecvBatches => "rt_recv_batches",
            CounterId::RtSendBatches => "rt_send_batches",
            CounterId::RtDatagramsRx => "rt_datagrams_rx",
            CounterId::RtDatagramsTx => "rt_datagrams_tx",
            CounterId::RtDecodeErrors => "rt_decode_errors",
            CounterId::RtEgressBackpressure => "rt_egress_backpressure",
            CounterId::RtLateTicks => "rt_late_ticks",
            CounterId::RtPoolHits => "rt_pool_hits",
            CounterId::RtPoolMisses => "rt_pool_misses",
            CounterId::RtAdminRequests => "rt_admin_requests",
        }
    }

    /// One-line human description, used as the Prometheus `# HELP` text.
    pub fn help(self) -> &'static str {
        match self {
            CounterId::M1Reinjections => "M1 opportunistic reinjections onto another subflow",
            CounterId::M2Penalizations => "M2 slow-subflow cwnd penalizations",
            CounterId::M3BufferGrowths => "M3 receive/send buffer autotune growth steps",
            CounterId::M4CwndCaps => "M4 subflow cwnd caps applied to bound bufferbloat",
            CounterId::SchedulerPicks => "segments handed to a subflow by the scheduler",
            CounterId::SchedulerStalls => "times the scheduler found every subflow blocked",
            CounterId::SchedulerDefers => "times the scheduler waited for a faster path (BLEST)",
            CounterId::DataRtos => "data-level retransmission timeouts",
            CounterId::DataAckStalls => "DATA_ACK-level progress stalls",
            CounterId::DupDataBytes => "duplicate data bytes discarded by the receiver",
            CounterId::ChecksumFailures => "DSS checksum verification failures",
            CounterId::Fallbacks => "connections that fell back to regular TCP",
            CounterId::JoinsRejected => "MP_JOIN attempts rejected",
            CounterId::SubflowResets => "subflows reset while the connection survived",
            CounterId::AddAddrsSent => "ADD_ADDR advertisements sent",
            CounterId::AddAddrsReceived => "ADD_ADDR advertisements received",
            CounterId::RemoveAddrsSent => "REMOVE_ADDR withdrawals sent",
            CounterId::RemoveAddrsReceived => "REMOVE_ADDR withdrawals received",
            CounterId::RemoveAddrUnknown => "REMOVE_ADDR withdrawals rejected for unknown addr_id",
            CounterId::AddAddrRetransmits => "ADD_ADDR advertisements retransmitted until echoed",
            CounterId::PmSubflowsOpened => "subflows opened by a path-manager decision",
            CounterId::PmBackupPromotions => "backup subflows promoted by the path manager",
            CounterId::PathSuspects => "subflows demoted Active to Suspect",
            CounterId::PathFailures => "subflows declared Failed",
            CounterId::PathRecoveries => "subflows recovered back to Active",
            CounterId::ConnAborts => "connections aborted",
            CounterId::ReorderInserts => "segments inserted into the out-of-order queue",
            CounterId::ReorderOps => "pointer visits performed by the reorder algorithm",
            CounterId::ReorderShortcutHits => "reorder inserts satisfied by a shortcut",
            CounterId::TcpRtos => "subflow TCP retransmission timer fires",
            CounterId::TcpFastRetransmits => "subflow TCP fast retransmits",
            CounterId::TcpRetransmittedSegs => "subflow TCP segments retransmitted",
            CounterId::TcpZeroWindowProbes => "subflow TCP zero-window probes sent",
            CounterId::LinkQueueDrops => "packets dropped by a full simulated link queue",
            CounterId::LinkRandomDrops => "packets dropped by configured random loss",
            CounterId::MboxOptionStrips => "TCP options removed by a middlebox",
            CounterId::MboxPayloadMutations => "payload bytes rewritten by a middlebox",
            CounterId::MboxResegmentations => "segments split or coalesced by a middlebox",
            CounterId::MboxProactiveAcks => "ACKs manufactured by a proactive-ACKing middlebox",
            CounterId::MboxSeqRewrites => "sequence numbers rewritten by a middlebox",
            CounterId::MboxSegmentDrops => "segments swallowed outright by a middlebox",
            CounterId::FaultsInjected => "scheduled fault events applied by the simulator",
            CounterId::LinkFaultDrops => "packets discarded by a fault-forced link outage",
            CounterId::RtLoopIterations => "event-loop iterations executed",
            CounterId::RtRecvBatches => "recv-drain rounds that harvested at least one datagram",
            CounterId::RtSendBatches => "egress-flush rounds that pushed at least one datagram",
            CounterId::RtDatagramsRx => "UDP datagrams received and decoded",
            CounterId::RtDatagramsTx => "UDP datagrams handed to the kernel",
            CounterId::RtDecodeErrors => "inbound datagrams rejected by framing or checksum checks",
            CounterId::RtEgressBackpressure => "polls skipped because the egress queue was full",
            CounterId::RtLateTicks => "timer deadlines processed after they expired",
            CounterId::RtPoolHits => "buffer-pool checkouts satisfied by a recycled buffer",
            CounterId::RtPoolMisses => "buffer-pool checkouts that allocated a fresh buffer",
            CounterId::RtAdminRequests => "admin-socket commands served",
        }
    }
}

/// Number of counter slots in a [`Recorder`].
pub const NUM_COUNTERS: usize = 54;

/// Instantaneous values tracked with a high-water mark.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum GaugeId {
    /// Out-of-order queue depth, in segments.
    OfoQueueSegs,
    /// Out-of-order queue occupancy, in bytes.
    OfoQueueBytes,
    /// Connection-level send buffer capacity (M3 grows this).
    SndBufCap,
    /// Connection-level receive buffer capacity (M3 grows this).
    RcvBufCap,
    /// Established subflows.
    Subflows,
    /// Bytes queued at the connection level awaiting scheduling.
    SendQueueBytes,
    /// Runtime egress queue depth, in segments (`max` is the high-water
    /// mark the backpressure bound was sized against).
    RtEgressQueueDepth,
    /// Wall-clock lateness of the most recent timer tick, in nanoseconds
    /// (`max` is the worst skew observed; see the `rt_late_ticks` counter).
    RtTickSkewNs,
    /// Egress buffer-pool buffers currently checked out.
    RtPoolOutstanding,
    /// Egress buffer-pool peak working set (the pool's own atomically
    /// tracked high-water mark, exact even between sync points).
    RtPoolHighWater,
}

impl GaugeId {
    /// Every variant, in declaration order (the array layout).
    pub const ALL: [GaugeId; NUM_GAUGES] = [
        GaugeId::OfoQueueSegs,
        GaugeId::OfoQueueBytes,
        GaugeId::SndBufCap,
        GaugeId::RcvBufCap,
        GaugeId::Subflows,
        GaugeId::SendQueueBytes,
        GaugeId::RtEgressQueueDepth,
        GaugeId::RtTickSkewNs,
        GaugeId::RtPoolOutstanding,
        GaugeId::RtPoolHighWater,
    ];

    /// Stable snake_case name used in JSON and table output.
    pub fn name(self) -> &'static str {
        match self {
            GaugeId::OfoQueueSegs => "ofo_queue_segs",
            GaugeId::OfoQueueBytes => "ofo_queue_bytes",
            GaugeId::SndBufCap => "snd_buf_cap",
            GaugeId::RcvBufCap => "rcv_buf_cap",
            GaugeId::Subflows => "subflows",
            GaugeId::SendQueueBytes => "send_queue_bytes",
            GaugeId::RtEgressQueueDepth => "rt_egress_queue_depth",
            GaugeId::RtTickSkewNs => "rt_tick_skew_ns",
            GaugeId::RtPoolOutstanding => "rt_pool_outstanding",
            GaugeId::RtPoolHighWater => "rt_pool_high_water",
        }
    }

    /// One-line human description, used as the Prometheus `# HELP` text.
    pub fn help(self) -> &'static str {
        match self {
            GaugeId::OfoQueueSegs => "out-of-order queue depth in segments",
            GaugeId::OfoQueueBytes => "out-of-order queue occupancy in bytes",
            GaugeId::SndBufCap => "connection-level send buffer capacity in bytes",
            GaugeId::RcvBufCap => "connection-level receive buffer capacity in bytes",
            GaugeId::Subflows => "established subflows",
            GaugeId::SendQueueBytes => "bytes queued awaiting scheduling",
            GaugeId::RtEgressQueueDepth => "runtime egress queue depth in segments",
            GaugeId::RtTickSkewNs => "lateness of the most recent timer tick in nanoseconds",
            GaugeId::RtPoolOutstanding => "buffer-pool buffers currently checked out",
            GaugeId::RtPoolHighWater => "buffer-pool peak working set",
        }
    }
}

/// Number of gauge slots in a [`Recorder`].
pub const NUM_GAUGES: usize = 10;

/// Current value plus high-water mark for one gauge.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Gauge {
    /// Most recently set value.
    pub current: u64,
    /// Largest value ever set.
    pub max: u64,
}

/// Why a connection abandoned MPTCP signalling and fell back to plain TCP
/// (paper §3.3.6), or refused to start it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FallbackCause {
    /// A DSS checksum failed: a middlebox rewrote the payload under us.
    ChecksumFail,
    /// MPTCP options were stripped by a middlebox (SYN or data path).
    OptionStripped,
    /// Data arrived with no covering DSS mapping: payload was altered
    /// or re-segmented in a way the mappings cannot describe.
    PayloadMutation,
    /// The data-level RTO fired with the mapping never confirmed; the
    /// path is presumed MPTCP-hostile.
    DataRtoUnconfirmed,
    /// The peer sent MP_FAIL.
    MpFail,
}

impl FallbackCause {
    /// Stable snake_case name used in JSON and table output.
    pub fn name(self) -> &'static str {
        match self {
            FallbackCause::ChecksumFail => "checksum_fail",
            FallbackCause::OptionStripped => "option_stripped",
            FallbackCause::PayloadMutation => "payload_mutation",
            FallbackCause::DataRtoUnconfirmed => "data_rto_unconfirmed",
            FallbackCause::MpFail => "mp_fail",
        }
    }
}

/// One recorded occurrence. The numeric payloads are variant-specific and
/// documented per variant; keeping them as plain integers keeps `Event`
/// `Copy` and the ring allocation-free.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// M1: `dsn` re-injected from subflow `from` onto subflow `to`.
    M1Reinject { dsn: u64, from: u32, to: u32 },
    /// M2: subflow `subflow` penalized, cwnd `before` -> `after` bytes.
    M2Penalize {
        subflow: u32,
        before: u32,
        after: u32,
    },
    /// M3: buffers grown to `snd_cap`/`rcv_cap` bytes.
    M3Grow { snd_cap: u64, rcv_cap: u64 },
    /// M4: subflow `subflow` cwnd capped at `cap` bytes.
    M4Cap { subflow: u32, cap: u32 },
    /// Fell back to regular TCP.
    Fallback { cause: FallbackCause },
    /// DSS checksum failed on subflow `subflow` covering `dsn`.
    ChecksumFail { subflow: u32, dsn: u64 },
    /// Data-level RTO fired; `dsn` is the oldest unacked mapping.
    DataRto { dsn: u64 },
    /// DATA_ACK progress stalled at `dsn` for `stalled_ns`.
    DataAckStall { dsn: u64, stalled_ns: u64 },
    /// MP_JOIN rejected (see `JoinsRejected`); `token` is the peer's.
    JoinRejected { token: u32 },
    /// Subflow `subflow` reset while the connection survived.
    SubflowReset { subflow: u32 },
    /// Reorder queue reached a new high-water mark of `segs`/`bytes`.
    ReorderHighWater { segs: u64, bytes: u64 },
    /// Subflow-level RTO on subflow `subflow`, `backoff` doublings deep.
    TcpRto { subflow: u32, backoff: u32 },
    /// Subflow-level fast retransmit of `seq` on subflow `subflow`.
    TcpFastRetransmit { subflow: u32, seq: u32 },
    /// ADD_ADDR: address `addr` with identifier `id` advertised.
    /// `sent` is 1 when we advertised, 0 when the peer did.
    AddAddr { addr: u32, id: u32, sent: u32 },
    /// REMOVE_ADDR: address identifier `id` withdrawn.
    /// `sent` is 1 when we withdrew, 0 when the peer did.
    RemoveAddr { id: u32, sent: u32 },
    /// REMOVE_ADDR for an unknown address identifier `id` was rejected.
    RemoveAddrUnknown { id: u32 },
    /// The path manager opened a subflow `local` -> `remote`
    /// (`backup` is 1 for backup-priority joins).
    PmOpenSubflow {
        local: u32,
        remote: u32,
        backup: u32,
    },
    /// The path manager advertised local address `addr` as `id`.
    PmAdvertise { addr: u32, id: u32 },
    /// The path manager promoted backup subflow `subflow` to regular
    /// priority (MP_PRIO sent to the peer).
    PmBackupPromoted { subflow: u32 },
    /// The scheduler entered a stall: work was queued but no subflow had
    /// cwnd or send-buffer headroom. Recorded on the transition only.
    SchedulerStall {
        pending_bytes: u64,
        reinject_queued: u64,
    },
    /// Subflow `subflow` demoted Active -> Suspect after `rtos` consecutive
    /// RTOs (or a no-progress timeout when `rtos` is 0).
    PathSuspect { subflow: u32, rtos: u32 },
    /// Subflow `subflow` declared Failed; `reinjected` in-flight DSN chunks
    /// were queued for delivery on surviving subflows.
    PathFailed { subflow: u32, reinjected: u64 },
    /// Subflow `subflow` resumed DATA_ACK progress and returned to Active.
    PathRecovered { subflow: u32 },
    /// The fault schedule took simulator path `path` down (blackout or
    /// silent blackhole).
    BlackoutInjected { path: u32 },
    /// The connection aborted; `code` is the `AbortReason` discriminant
    /// (0 = all paths failed, 1 = last subflow removed, 2 = peer FastClose).
    ConnAborted { code: u32 },
}

impl EventKind {
    /// Stable snake_case name used in JSON and table output.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::M1Reinject { .. } => "m1_reinject",
            EventKind::M2Penalize { .. } => "m2_penalize",
            EventKind::M3Grow { .. } => "m3_grow",
            EventKind::M4Cap { .. } => "m4_cap",
            EventKind::Fallback { .. } => "fallback",
            EventKind::ChecksumFail { .. } => "checksum_fail",
            EventKind::DataRto { .. } => "data_rto",
            EventKind::DataAckStall { .. } => "data_ack_stall",
            EventKind::JoinRejected { .. } => "join_rejected",
            EventKind::SubflowReset { .. } => "subflow_reset",
            EventKind::ReorderHighWater { .. } => "reorder_high_water",
            EventKind::TcpRto { .. } => "tcp_rto",
            EventKind::TcpFastRetransmit { .. } => "tcp_fast_retransmit",
            EventKind::AddAddr { .. } => "add_addr",
            EventKind::RemoveAddr { .. } => "remove_addr",
            EventKind::RemoveAddrUnknown { .. } => "remove_addr_unknown",
            EventKind::PmOpenSubflow { .. } => "pm_open_subflow",
            EventKind::PmAdvertise { .. } => "pm_advertise",
            EventKind::PmBackupPromoted { .. } => "pm_backup_promoted",
            EventKind::SchedulerStall { .. } => "scheduler_stall",
            EventKind::PathSuspect { .. } => "path_suspect",
            EventKind::PathFailed { .. } => "path_failed",
            EventKind::PathRecovered { .. } => "path_recovered",
            EventKind::BlackoutInjected { .. } => "blackout_injected",
            EventKind::ConnAborted { .. } => "conn_aborted",
        }
    }

    /// Variant payload as `(name, value)` pairs for serialization.
    pub(crate) fn fields(self) -> Vec<(&'static str, u64)> {
        match self {
            EventKind::M1Reinject { dsn, from, to } => {
                vec![("dsn", dsn), ("from", from as u64), ("to", to as u64)]
            }
            EventKind::M2Penalize {
                subflow,
                before,
                after,
            } => vec![
                ("subflow", subflow as u64),
                ("before", before as u64),
                ("after", after as u64),
            ],
            EventKind::M3Grow { snd_cap, rcv_cap } => {
                vec![("snd_cap", snd_cap), ("rcv_cap", rcv_cap)]
            }
            EventKind::M4Cap { subflow, cap } => {
                vec![("subflow", subflow as u64), ("cap", cap as u64)]
            }
            EventKind::Fallback { .. } => vec![],
            EventKind::ChecksumFail { subflow, dsn } => {
                vec![("subflow", subflow as u64), ("dsn", dsn)]
            }
            EventKind::DataRto { dsn } => vec![("dsn", dsn)],
            EventKind::DataAckStall { dsn, stalled_ns } => {
                vec![("dsn", dsn), ("stalled_ns", stalled_ns)]
            }
            EventKind::JoinRejected { token } => vec![("token", token as u64)],
            EventKind::SubflowReset { subflow } => vec![("subflow", subflow as u64)],
            EventKind::ReorderHighWater { segs, bytes } => {
                vec![("segs", segs), ("bytes", bytes)]
            }
            EventKind::TcpRto { subflow, backoff } => {
                vec![("subflow", subflow as u64), ("backoff", backoff as u64)]
            }
            EventKind::TcpFastRetransmit { subflow, seq } => {
                vec![("subflow", subflow as u64), ("seq", seq as u64)]
            }
            EventKind::AddAddr { addr, id, sent } => vec![
                ("addr", addr as u64),
                ("id", id as u64),
                ("sent", sent as u64),
            ],
            EventKind::RemoveAddr { id, sent } => {
                vec![("id", id as u64), ("sent", sent as u64)]
            }
            EventKind::RemoveAddrUnknown { id } => vec![("id", id as u64)],
            EventKind::PmOpenSubflow {
                local,
                remote,
                backup,
            } => vec![
                ("local", local as u64),
                ("remote", remote as u64),
                ("backup", backup as u64),
            ],
            EventKind::PmAdvertise { addr, id } => {
                vec![("addr", addr as u64), ("id", id as u64)]
            }
            EventKind::PmBackupPromoted { subflow } => vec![("subflow", subflow as u64)],
            EventKind::SchedulerStall {
                pending_bytes,
                reinject_queued,
            } => vec![
                ("pending_bytes", pending_bytes),
                ("reinject_queued", reinject_queued),
            ],
            EventKind::PathSuspect { subflow, rtos } => {
                vec![("subflow", subflow as u64), ("rtos", rtos as u64)]
            }
            EventKind::PathFailed {
                subflow,
                reinjected,
            } => vec![("subflow", subflow as u64), ("reinjected", reinjected)],
            EventKind::PathRecovered { subflow } => vec![("subflow", subflow as u64)],
            EventKind::BlackoutInjected { path } => vec![("path", path as u64)],
            EventKind::ConnAborted { code } => vec![("code", code as u64)],
        }
    }
}

/// A timestamped [`EventKind`]. `at_ns` is simulated-clock nanoseconds
/// supplied by the caller; this crate never reads a real clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Simulated time the event was recorded, in nanoseconds.
    pub at_ns: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Fixed-capacity ring of the most recent events. Older events are
/// overwritten once full; `total`/`dropped` keep the bookkeeping honest.
#[derive(Clone, Debug)]
pub struct EventRing {
    buf: Vec<Event>,
    capacity: usize,
    /// Index of the oldest retained event within `buf`.
    head: usize,
    /// Events ever offered, including dropped ones.
    total: u64,
}

impl EventRing {
    /// An empty ring retaining at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> EventRing {
        EventRing {
            buf: Vec::new(),
            capacity: capacity.max(1),
            head: 0,
            total: 0,
        }
    }

    /// Record an event, evicting the oldest if full.
    pub fn push(&mut self, ev: Event) {
        self.total += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Events ever offered to the ring.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Events evicted to make room.
    pub fn dropped(&self) -> u64 {
        self.total - self.buf.len() as u64
    }

    /// Retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }
}

/// Default event-ring capacity for a [`Recorder`].
pub const DEFAULT_EVENT_CAPACITY: usize = 256;

/// Accumulates telemetry for one component (a connection, a TCP socket, a
/// simulated link...). Recording is plain field arithmetic — no locking,
/// no allocation beyond the bounded ring.
#[derive(Clone, Debug)]
pub struct Recorder {
    counters: [u64; NUM_COUNTERS],
    gauges: [Gauge; NUM_GAUGES],
    ring: EventRing,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder with the default event capacity.
    pub fn new() -> Recorder {
        Recorder::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// A recorder retaining at most `capacity` events.
    pub fn with_event_capacity(capacity: usize) -> Recorder {
        Recorder {
            counters: [0; NUM_COUNTERS],
            gauges: [Gauge::default(); NUM_GAUGES],
            ring: EventRing::new(capacity),
        }
    }

    /// Increment `id` by one.
    pub fn count(&mut self, id: CounterId) {
        self.counters[id as usize] += 1;
    }

    /// Increment `id` by `n`.
    pub fn count_n(&mut self, id: CounterId, n: u64) {
        self.counters[id as usize] += n;
    }

    /// Current value of counter `id`.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id as usize]
    }

    /// Set gauge `id`, updating its high-water mark.
    pub fn gauge_set(&mut self, id: GaugeId, value: u64) {
        let g = &mut self.gauges[id as usize];
        g.current = value;
        g.max = g.max.max(value);
    }

    /// Current state of gauge `id`.
    pub fn gauge(&self, id: GaugeId) -> Gauge {
        self.gauges[id as usize]
    }

    /// Record an event at sim-time `at_ns`.
    pub fn event(&mut self, at_ns: u64, kind: EventKind) {
        self.ring.push(Event { at_ns, kind });
    }

    /// Fold another recorder's state into this one: counters add, gauge
    /// maxima merge (currents take the other's as more recent), and the
    /// other's retained events are replayed into this ring. Used by the
    /// connection to absorb per-subflow socket telemetry.
    pub fn absorb(&mut self, other: &Recorder) {
        for i in 0..NUM_COUNTERS {
            self.counters[i] += other.counters[i];
        }
        for i in 0..NUM_GAUGES {
            self.gauges[i].max = self.gauges[i].max.max(other.gauges[i].max);
            self.gauges[i].current = other.gauges[i].current;
        }
        for ev in other.ring.iter() {
            self.ring.push(*ev);
        }
        // Events dropped upstream are still events offered.
        self.ring.total += other.ring.dropped();
    }

    /// An immutable copy of everything recorded so far.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: self.counters,
            gauges: self.gauges,
            events: self.ring.iter().copied().collect(),
            events_total: self.ring.total(),
            events_dropped: self.ring.dropped(),
        }
    }
}

/// Immutable copy of a [`Recorder`]'s state, suitable for embedding in
/// stats structs and report output.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetrySnapshot {
    counters: [u64; NUM_COUNTERS],
    gauges: [Gauge; NUM_GAUGES],
    /// Retained events, oldest first.
    pub events: Vec<Event>,
    /// Events ever recorded, including those evicted from the ring.
    pub events_total: u64,
    /// Events evicted from the ring before this snapshot.
    pub events_dropped: u64,
}

// Manual impl: derived `Default` stops at 32-element arrays.
impl Default for TelemetrySnapshot {
    fn default() -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: [0; NUM_COUNTERS],
            gauges: [Gauge::default(); NUM_GAUGES],
            events: Vec::new(),
            events_total: 0,
            events_dropped: 0,
        }
    }
}

impl TelemetrySnapshot {
    /// Value of counter `id`.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id as usize]
    }

    /// State of gauge `id`.
    pub fn gauge(&self, id: GaugeId) -> Gauge {
        self.gauges[id as usize]
    }

    /// Fold in the totals of a component that has finished: counters add
    /// and gauge high-water marks merge. Gauge currents are left alone,
    /// since a finished component holds nothing, and events are not kept.
    pub fn add_finished(&mut self, other: &TelemetrySnapshot) {
        for (c, o) in self.counters.iter_mut().zip(&other.counters) {
            *c += o;
        }
        for (g, o) in self.gauges.iter_mut().zip(&other.gauges) {
            g.max = g.max.max(o.max);
        }
    }

    /// Causes of recorded fallbacks, oldest first (from retained events).
    pub fn fallback_causes(&self) -> Vec<FallbackCause> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Fallback { cause } => Some(cause),
                _ => None,
            })
            .collect()
    }

    /// True if nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.events_total == 0
            && self.counters.iter().all(|&c| c == 0)
            && self.gauges.iter().all(|g| g.max == 0)
    }

    /// Render as a JSON object. Zero counters and untouched gauges are
    /// skipped to keep harness reports readable; events carry their
    /// variant name, sim-time, and payload fields.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str("\"counters\":{");
        let mut first = true;
        for id in CounterId::ALL {
            let v = self.counter(id);
            if v != 0 {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!("\"{}\":{}", id.name(), v));
            }
        }
        out.push_str("},\"gauges\":{");
        let mut first = true;
        for id in GaugeId::ALL {
            let g = self.gauge(id);
            if g.max != 0 {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!(
                    "\"{}\":{{\"current\":{},\"max\":{}}}",
                    id.name(),
                    g.current,
                    g.max
                ));
            }
        }
        out.push_str(&format!(
            "}},\"events_total\":{},\"events_dropped\":{},\"events\":[",
            self.events_total, self.events_dropped
        ));
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"at_ns\":{},\"kind\":\"{}\"",
                ev.at_ns,
                ev.kind.name()
            ));
            if let EventKind::Fallback { cause } = ev.kind {
                out.push_str(&format!(",\"cause\":\"{}\"", cause.name()));
            }
            for (name, value) in ev.kind.fields() {
                out.push_str(&format!(",\"{name}\":{value}"));
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Render nonzero counters and touched gauges as an aligned two-column
    /// text table, one line per entry, for terminal summaries.
    pub fn render_table(&self) -> String {
        let mut rows: Vec<(String, String)> = Vec::new();
        for id in CounterId::ALL {
            let v = self.counter(id);
            if v != 0 {
                rows.push((id.name().to_string(), v.to_string()));
            }
        }
        for id in GaugeId::ALL {
            let g = self.gauge(id);
            if g.max != 0 {
                rows.push((format!("{} (max)", id.name()), g.max.to_string()));
            }
        }
        let causes = self.fallback_causes();
        if !causes.is_empty() {
            let list: Vec<&str> = causes.iter().map(|c| c.name()).collect();
            rows.push(("fallback_causes".to_string(), list.join(",")));
        }
        if self.events_dropped != 0 {
            rows.push((
                "events_dropped".to_string(),
                self.events_dropped.to_string(),
            ));
        }
        if rows.is_empty() {
            return "  (no telemetry recorded)\n".to_string();
        }
        let width = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (k, v) in rows {
            out.push_str(&format!("  {k:<width$}  {v}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = Recorder::new();
        r.count(CounterId::M1Reinjections);
        r.count_n(CounterId::M1Reinjections, 2);
        r.count(CounterId::TcpRtos);
        let s = r.snapshot();
        assert_eq!(s.counter(CounterId::M1Reinjections), 3);
        assert_eq!(s.counter(CounterId::TcpRtos), 1);
        assert_eq!(s.counter(CounterId::M2Penalizations), 0);
    }

    #[test]
    fn gauges_track_high_water() {
        let mut r = Recorder::new();
        r.gauge_set(GaugeId::OfoQueueSegs, 5);
        r.gauge_set(GaugeId::OfoQueueSegs, 12);
        r.gauge_set(GaugeId::OfoQueueSegs, 3);
        let g = r.snapshot().gauge(GaugeId::OfoQueueSegs);
        assert_eq!(g.current, 3);
        assert_eq!(g.max, 12);
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let mut r = Recorder::with_event_capacity(3);
        for i in 0..5u64 {
            r.event(i, EventKind::DataRto { dsn: i });
        }
        let s = r.snapshot();
        assert_eq!(s.events_total, 5);
        assert_eq!(s.events_dropped, 2);
        let times: Vec<u64> = s.events.iter().map(|e| e.at_ns).collect();
        assert_eq!(times, vec![2, 3, 4]);
    }

    #[test]
    fn absorb_merges_counters_gauges_events() {
        let mut a = Recorder::new();
        a.count(CounterId::TcpRtos);
        a.gauge_set(GaugeId::Subflows, 2);
        let mut b = Recorder::new();
        b.count_n(CounterId::TcpRtos, 4);
        b.gauge_set(GaugeId::Subflows, 7);
        b.event(
            9,
            EventKind::TcpRto {
                subflow: 1,
                backoff: 0,
            },
        );
        a.absorb(&b);
        let s = a.snapshot();
        assert_eq!(s.counter(CounterId::TcpRtos), 5);
        assert_eq!(s.gauge(GaugeId::Subflows).max, 7);
        assert_eq!(s.events.len(), 1);
        assert_eq!(s.events_total, 1);
    }

    #[test]
    fn fallback_causes_extracted() {
        let mut r = Recorder::new();
        r.count(CounterId::Fallbacks);
        r.event(
            100,
            EventKind::Fallback {
                cause: FallbackCause::ChecksumFail,
            },
        );
        let s = r.snapshot();
        assert_eq!(s.fallback_causes(), vec![FallbackCause::ChecksumFail]);
    }

    #[test]
    fn json_skips_zeros_and_names_events() {
        let mut r = Recorder::new();
        r.count(CounterId::M2Penalizations);
        r.event(
            7,
            EventKind::M2Penalize {
                subflow: 1,
                before: 20,
                after: 10,
            },
        );
        let j = r.snapshot().to_json();
        assert!(j.contains("\"m2_penalizations\":1"));
        assert!(!j.contains("m1_reinjections"));
        assert!(j.contains("\"kind\":\"m2_penalize\""));
        assert!(j.contains("\"before\":20"));
        assert!(j.contains("\"at_ns\":7"));
    }

    #[test]
    fn table_renders_nonzero_rows() {
        let mut r = Recorder::new();
        r.count_n(CounterId::ReorderInserts, 42);
        r.gauge_set(GaugeId::OfoQueueBytes, 9000);
        let t = r.snapshot().render_table();
        assert!(t.contains("reorder_inserts"));
        assert!(t.contains("42"));
        assert!(t.contains("ofo_queue_bytes (max)"));
        assert!(!t.contains("tcp_rtos"));
    }

    #[test]
    fn empty_snapshot_is_empty() {
        assert!(Recorder::new().snapshot().is_empty());
        let mut r = Recorder::new();
        r.gauge_set(GaugeId::RcvBufCap, 1);
        assert!(!r.snapshot().is_empty());
    }
}
