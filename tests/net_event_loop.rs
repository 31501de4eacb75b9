//! Tests that pin veil-net's node loop as event-driven: it wakes for
//! bytes and for its own timers, not on a clock tick, and the helper
//! threads that make that possible (one reader per connection) are
//! bounded against peers that say nothing or say it slowly.
//!
//! Every assertion is a count or an outcome — a wake-up count, a reaped
//! connection, a response that arrives — never a latency, so the suite
//! holds on a loaded host.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, SystemTime, UNIX_EPOCH};
use veil_net::frame::HEADER_LEN;
use veil_net::{
    decode_msg, encode_msg, hello, run_node_with, FrameDecoder, NetScenario, NodeOptions,
    NodeOutput, WireMsg,
};

fn free_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().unwrap().port())
        .collect()
}

fn scenario(horizon: f64, period_ms: u64) -> NetScenario {
    let now_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock after 1970")
        .as_millis() as u64;
    NetScenario {
        nodes: 2,
        seed: 5,
        horizon,
        period_ms,
        loss: 0.0,
        ports: free_ports(2),
        start_at_ms: now_ms + 300,
    }
}

const TELEMETRY: NodeOptions = NodeOptions {
    telemetry: true,
    metrics_port: None,
};

fn spawn_node(sc: &NetScenario, id: u32) -> std::thread::JoinHandle<NodeOutput> {
    let sc = sc.clone();
    std::thread::spawn(move || run_node_with(&sc, id, &TELEMETRY).expect("node runs"))
}

fn counter(out: &NodeOutput, name: &str) -> u64 {
    let metrics = out.metrics.as_ref().expect("telemetry is on");
    metrics.counters.get(name).copied().unwrap_or(0)
}

/// Connects to a node that is still binding its listener.
fn connect_when_listening(port: u16) -> TcpStream {
    let addr = SocketAddr::from(([127, 0, 0, 1], port));
    for _ in 0..200 {
        if let Ok(stream) = TcpStream::connect(addr) {
            return stream;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("node on port {port} never listened");
}

/// (a) The loop's wake-ups scale with what happened — exchanges and
/// periods — not with elapsed milliseconds. A loop that polled on a 1 ms
/// sleep would count ≈ 600 here.
#[test]
fn loop_wakeups_scale_with_exchanges_not_with_wall_time() {
    let sc = scenario(5.0, 100);
    let nodes: Vec<_> = (0..2).map(|id| spawn_node(&sc, id)).collect();
    for node in nodes {
        let out = node.join().expect("node thread");
        assert_eq!(out.summary.shuffles_completed, 5, "{:?}", out.summary);
        // One unit of work per exchange this node took part in (either
        // role) and per period it lived through (horizon + linger); each
        // costs a wake-up or two: a timer or an accept, a read, an end of
        // stream, a telemetry sample (≈ 2 per unit measured; 4 allowed).
        let exchanges = out.summary.requests_sent + out.summary.responses_sent;
        let periods = sc.horizon as u64 + 1;
        let wakeups = counter(&out, "net.loop_wakeups");
        assert!(wakeups > 0, "the counter is wired");
        assert!(
            wakeups <= 4 * (exchanges + periods),
            "{wakeups} wake-ups for {exchanges} exchanges over {periods} periods"
        );
    }
}

/// (c) A peer that connects and says nothing is closed after one shuffle
/// timeout, and meanwhile costs the node nothing: it serves its real peer
/// and finishes on time.
#[test]
fn silent_connection_is_reaped_and_starves_nobody() {
    let sc = scenario(8.0, 40);
    let nodes: Vec<_> = (0..2).map(|id| spawn_node(&sc, id)).collect();
    let mut silent = connect_when_listening(sc.ports[0]);
    // The node hangs up on us (a clean end of stream, or a reset if it
    // got there first); the timeout only keeps a regression from hanging
    // the suite.
    silent
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    match silent.read(&mut [0u8; 16]) {
        Ok(0) => {}
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        other => panic!("expected the node to close the silent connection, got {other:?}"),
    }
    let outs: Vec<NodeOutput> = nodes.into_iter().map(|n| n.join().unwrap()).collect();
    assert_eq!(counter(&outs[0], "net.conns_reaped"), 1);
    assert_eq!(counter(&outs[1], "net.conns_reaped"), 0);
    for out in &outs {
        assert_eq!(out.summary.shuffles_started, 8, "{:?}", out.summary);
        assert_eq!(out.summary.shuffles_completed, 8, "{:?}", out.summary);
        assert_eq!(out.summary.handshake_failures, 0, "{:?}", out.summary);
    }
}

/// (d) The seam between a connection's reader thread and its decoder: a
/// `Hello` + request cut at any byte, the halves 30 ms apart, is still
/// one handshake and one answered request.
#[test]
fn request_split_across_two_writes_is_still_answered() {
    // Node 1 is played by this test; node 0's own dials to it fail and
    // are recovered by its timeouts, which is not what is under test.
    let sc = scenario(25.0, 40);
    let node = spawn_node(&sc, 0);
    let mut wire = encode_msg(&hello(sc.seed, 1));
    let first_frame = wire.len();
    wire.extend(encode_msg(&WireMsg::ShuffleRequest {
        exchange: (2 << 32) | 1,
        from: 1,
        offer: vec![],
        trusted_link: true,
        attempt: 0,
    }));
    // Inside a length prefix, at a frame boundary, inside a payload, and
    // one byte short of everything.
    let cuts = [
        1,
        HEADER_LEN,
        first_frame - 1,
        first_frame,
        first_frame + 2,
        wire.len() - 1,
    ];
    for cut in cuts {
        let mut client = connect_when_listening(sc.ports[0]);
        client.set_nodelay(true).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        client.write_all(&wire[..cut]).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        client.write_all(&wire[cut..]).unwrap();
        let mut decoder = FrameDecoder::new();
        let mut got = Vec::new();
        let mut buf = [0u8; 4096];
        while got.len() < 2 {
            let n = client.read(&mut buf).expect("the node answers");
            assert!(n > 0, "cut at {cut}: closed after {got:?}");
            decoder.push(&buf[..n]);
            while let Some(payload) = decoder.next_frame().expect("well-formed frames") {
                got.push(decode_msg(&payload).expect("valid message"));
            }
        }
        assert_eq!(got[0], WireMsg::HelloAck { node: 0 }, "cut at {cut}");
        assert!(
            matches!(got[1], WireMsg::ShuffleResponse { from: 0, .. }),
            "cut at {cut}: {got:?}"
        );
    }
    let out = node.join().expect("node thread");
    assert_eq!(out.summary.responses_sent, cuts.len() as u64);
    assert_eq!(out.summary.decode_errors + out.summary.frame_errors, 0);
    assert_eq!(counter(&out, "net.conns_reaped"), 0);
}
