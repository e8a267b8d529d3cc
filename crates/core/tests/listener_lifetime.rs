//! Connection lifetime on the listener: a finished connection sends its
//! last segment and is then freed.
//!
//! Each test runs one short request/response exchange over a zero-delay
//! client↔listener pair in which the server closes first, the Fig 11
//! pattern. The server's subflow therefore ends in TIME_WAIT and the
//! client's in LAST_ACK, waiting for the server's final ACK.

use mptcp::{ConnId, MptcpConfig, MptcpConnection, MptcpListener};
use mptcp_netsim::{SimRng, SimTime};
use mptcp_packet::{Endpoint, FourTuple, TcpSegment};
use mptcp_tcpstack::TcpState;

const CLIENT: u32 = 0x0a000002;
const SERVER: u32 = 0x0a000001;

fn tuple() -> FourTuple {
    FourTuple {
        src: Endpoint::new(CLIENT, 4000),
        dst: Endpoint::new(SERVER, 80),
    }
}

/// Exchange segments at `now` until both sides are quiescent.
fn pump(client: &mut MptcpConnection, listener: &mut MptcpListener, now: SimTime) {
    for _ in 0..100 {
        let mut c_out = Vec::new();
        while let Some(seg) = client.poll(now) {
            c_out.push(seg);
        }
        for seg in &c_out {
            listener.handle_segment(now, seg);
        }
        let mut s_out: Vec<TcpSegment> = Vec::new();
        listener.poll(now, &mut s_out);
        for seg in &s_out {
            client.handle_segment(now, seg);
        }
        if c_out.is_empty() && s_out.is_empty() {
            return;
        }
    }
    panic!("pump never quiesced");
}

/// Pump, then walk time forward deadline by deadline (delayed ACKs need
/// their timers), for at most one simulated second: far less than any
/// retransmission back-off gives up after.
fn settle(client: &mut MptcpConnection, listener: &mut MptcpListener, now: &mut SimTime) {
    let end = *now + mptcp_netsim::Duration::from_secs(1);
    loop {
        pump(client, listener, *now);
        match [client.poll_at(*now), listener.poll_at(*now)]
            .into_iter()
            .flatten()
            .min()
        {
            Some(t) if t <= end => *now = t.max(*now),
            _ => return,
        }
    }
}

/// Connect, send a request, answer it, and close both ways, the server
/// first. Returns the id the server's connection had.
fn exchange(
    client: &mut MptcpConnection,
    listener: &mut MptcpListener,
    now: &mut SimTime,
) -> ConnId {
    settle(client, listener, now);
    assert!(client.is_established());
    assert_eq!(client.write(b"GET /").accepted(), 5);
    settle(client, listener, now);

    let (id, conn) = listener.conns.entries_mut().next().expect("accepted");
    assert_eq!(
        conn.read(usize::MAX).into_data().as_deref(),
        Some(&b"GET /"[..])
    );
    assert_eq!(conn.write(&[0x52; 4096]).accepted(), 4096);
    conn.close();
    settle(client, listener, now);

    let mut got = 0;
    while let Some(b) = client.read(usize::MAX).into_data() {
        got += b.len();
    }
    assert_eq!(got, 4096);
    assert!(client.at_eof(), "client sees the server's DATA_FIN");
    client.close();
    settle(client, listener, now);
    id
}

#[test]
fn time_wait_connection_sends_its_final_ack() {
    let cfg = MptcpConfig::default();
    let mut now = SimTime::from_millis(1);
    let mut client = MptcpConnection::client(cfg.clone(), tuple(), now, SimRng::new(1));
    let mut listener = MptcpListener::new(cfg, 2);
    exchange(&mut client, &mut listener, &mut now);

    assert!(
        client.send_closed(),
        "server acknowledged the client's DATA_FIN"
    );
    for sf in client.subflows() {
        assert_eq!(
            sf.sock.state(),
            TcpState::Closed,
            "the server's final ACK must take the client's subflow out of LAST_ACK"
        );
        assert!(
            !sf.sock.is_error(),
            "closed by the handshake, not by giving up"
        );
    }
    assert!(listener.is_empty(), "the finished connection is freed");
    assert_eq!(listener.accepted(), 1);
    assert!(listener.tokens.is_empty(), "its token is released");
}

#[test]
fn freed_four_tuple_accepts_a_new_connection() {
    let cfg = MptcpConfig::default();
    let mut now = SimTime::from_millis(1);
    let mut first = MptcpConnection::client(cfg.clone(), tuple(), now, SimRng::new(1));
    let mut listener = MptcpListener::new(cfg.clone(), 2);
    let old = exchange(&mut first, &mut listener, &mut now);
    assert!(listener.is_empty());

    // The same client port again, as a kernel-chosen port sometimes is.
    let mut second = MptcpConnection::client(cfg, tuple(), now, SimRng::new(3));
    let new = exchange(&mut second, &mut listener, &mut now);
    assert_eq!(listener.accepted(), 2, "the SYN opened a new connection");
    assert_eq!(new.slot(), old.slot(), "the freed slot is reused");
    assert_ne!(new, old);
    assert!(
        listener.conns.get(old).is_none(),
        "a stale id reaches nothing"
    );
}
