//! Kernels of veil-net's wire path: JSON encode/decode, framing, and one
//! dial + handshake over loopback.

use std::hint::black_box;
use std::time::{Duration, Instant};
use veil_benchmark::report::Outcome;
use veil_benchmark::stats;
use veil_core::pseudonym::{Pseudonym, PseudonymService};
use veil_net::frame::HEADER_LEN;
use veil_net::sock::{accept_ready, bind_listener, dial};
use veil_net::wire::{decode_msg, encode_msg, hello, validate_hello, WireMsg};
use veil_net::FrameDecoder;
use veil_sim::SimTime;

/// Calls per timed batch.
const CALLS: u64 = 2_000;
/// Entries in the offers a two-node ring exchanges: the node's own
/// pseudonym and its peer's — all such an overlay can hold.
pub const PAIR_OFFER_LEN: usize = 2;

/// Median over the kernel batches of ns per `call()`.
fn median_ns(mut call: impl FnMut()) -> f64 {
    crate::kernels::median_ns(|_| {
        for _ in 0..CALLS {
            call();
        }
        CALLS
    })
}

fn request(seed: u64, entries: usize) -> WireMsg {
    let mut svc = PseudonymService::new_keyed(seed);
    let offer: Vec<Pseudonym> = (0..entries as u32)
        .map(|owner| svc.mint(owner, SimTime::ZERO, Some(90.0)))
        .collect();
    WireMsg::ShuffleRequest {
        exchange: (1 << 32) | 7,
        from: 0,
        offer,
        trusted_link: true,
        attempt: 0,
    }
}

/// `(encode_ns, decode_ns, frame_roundtrip_ns)` for a shuffle request of
/// `entries` pseudonyms.
fn wire_ns(seed: u64, entries: usize) -> (f64, f64, f64) {
    let msg = request(seed, entries);
    let framed = encode_msg(&msg);
    let payload = &framed[HEADER_LEN..];
    assert_eq!(
        decode_msg(payload).as_ref(),
        Ok(&msg),
        "round trip is exact"
    );
    let encode = median_ns(|| {
        black_box(encode_msg(black_box(&msg)));
    });
    let decode = median_ns(|| {
        black_box(decode_msg(black_box(payload)).expect("payload decodes"));
    });
    // Framing alone: bytes into the decoder, one whole frame out.
    let mut decoder = FrameDecoder::new();
    let frame = median_ns(|| {
        decoder.push(black_box(&framed));
        black_box(decoder.next_frame().expect("frame is well formed"));
    });
    (encode, decode, frame)
}

/// Microseconds from `dial` to a validated `HelloAck`, both ends polled
/// from this thread: median over `rounds` fresh connections.
fn dial_handshake_us(seed: u64, rounds: usize) -> f64 {
    let listener = bind_listener("127.0.0.1:0".parse().expect("loopback address"))
        .expect("bind an ephemeral loopback port");
    let addr = listener.local_addr().expect("bound address");
    let deadline = Duration::from_secs(2);
    let times: Vec<f64> = (0..rounds)
        .map(|_| {
            let start = Instant::now();
            let mut client = dial(addr, 1).expect("dial loopback");
            client.queue(&hello(seed, 0));
            client.flush();
            let mut server = None;
            let mut acked = false;
            while !acked {
                assert!(start.elapsed() < deadline, "handshake stalled");
                if server.is_none() {
                    server = accept_ready(&listener).into_iter().next();
                }
                if let Some(conn) = server.as_mut() {
                    for msg in conn.poll_read() {
                        let node = validate_hello(&msg, seed).expect("hello is valid");
                        conn.queue(&WireMsg::HelloAck { node });
                    }
                    conn.flush();
                }
                acked = client
                    .poll_read()
                    .iter()
                    .any(|m| matches!(m, WireMsg::HelloAck { .. }));
            }
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&times)
}

/// Per-message nanoseconds at the pair's own offer size, for the share
/// estimate: `(encode, decode, frame)`.
pub fn run(seed: u64, ell: usize, out: &mut Outcome) -> (f64, f64, f64) {
    let (encode, decode, frame) = wire_ns(seed, ell);
    out.metric("net.wire.encode_ns", encode);
    out.metric("net.wire.decode_ns", decode);
    out.metric("net.frame.roundtrip_ns", frame);
    let pair = wire_ns(seed, PAIR_OFFER_LEN);
    out.metric("net.wire.encode_pair_ns", pair.0);
    out.metric("net.wire.decode_pair_ns", pair.1);
    out.metric("net.frame.roundtrip_pair_ns", pair.2);
    out.metric("net.sock.dial_handshake_us", dial_handshake_us(seed, 200));
    pair
}
