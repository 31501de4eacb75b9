//! The veil-net wire protocol: message types and the handshake contract.
//!
//! Every connection starts with a handshake: the dialer sends
//! [`WireMsg::Hello`] carrying the protocol magic, the wire-protocol and
//! trace-schema versions, the scenario's master seed, and its own node id;
//! the listener validates all four and answers [`WireMsg::HelloAck`]. A
//! mismatch is a *handshake failure*: the listener closes the connection
//! without an acknowledgment and counts it, because two processes that
//! disagree on the protocol version, the trace version, or the scenario
//! seed would produce traces that cannot honestly be merged or compared
//! against one simulator oracle.
//!
//! After the handshake the dialer sends one [`WireMsg::ShuffleRequest`]
//! and the listener answers one [`WireMsg::ShuffleResponse`] — the same
//! request/response exchange the simulator's faulty link layer models.
//! Messages are JSON payloads inside [`crate::frame`] frames.

use serde::{Deserialize, Serialize};
use veil_core::Pseudonym;

/// Protocol magic, `"VEIL"` as a big-endian u32. A connection from
/// anything else fails the handshake immediately.
pub const NET_MAGIC: u32 = 0x5645_494C;

/// Version of this wire protocol. Bumped on any incompatible change to
/// the frame layout or message set.
pub const NET_PROTO_VERSION: u32 = 1;

/// One framed protocol message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireMsg {
    /// Dialer's opening message; the listener validates every field.
    Hello {
        /// Must equal [`NET_MAGIC`].
        magic: u32,
        /// Must equal [`NET_PROTO_VERSION`].
        version: u32,
        /// Must equal [`veil_obs::TRACE_SCHEMA_VERSION`] — both processes
        /// emit traces that will be merged into one file.
        trace_version: u32,
        /// The scenario's master seed; both processes must run the same
        /// scenario for the oracle comparison to be meaningful.
        seed: u64,
        /// The dialer's overlay node id.
        node: u32,
    },
    /// Listener's acknowledgment of a valid [`WireMsg::Hello`].
    HelloAck {
        /// The listener's overlay node id.
        node: u32,
    },
    /// A shuffle request: the initiator's offer.
    ShuffleRequest {
        /// Initiator-local exchange id, echoed by the response.
        exchange: u64,
        /// The initiating node.
        from: u32,
        /// Offered pseudonyms (own pseudonym first, then cache picks).
        offer: Vec<Pseudonym>,
        /// Whether the initiator reached this peer over a trusted link.
        trusted_link: bool,
        /// Zero-based transmission attempt; keys the responder's
        /// drop-injection RNG so both ends (and the simulator oracle)
        /// derive the identical fate for the response.
        attempt: u32,
    },
    /// The responder's answering offer.
    ShuffleResponse {
        /// Echo of the request's exchange id.
        exchange: u64,
        /// The responding node.
        from: u32,
        /// The response offer.
        offer: Vec<Pseudonym>,
    },
}

/// Encodes a message as a framed JSON payload ready for the socket.
pub fn encode_msg(msg: &WireMsg) -> Vec<u8> {
    let payload = serde_json::to_string(msg).expect("wire message serializes");
    crate::frame::encode_frame(payload.as_bytes())
}

/// Decodes one frame payload into a message.
pub fn decode_msg(payload: &[u8]) -> Result<WireMsg, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("non-UTF-8 payload: {e}"))?;
    serde_json::from_str(text).map_err(|e| format!("malformed wire message: {e}"))
}

/// Why a [`WireMsg::Hello`] was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakeError {
    /// The first message was not a `Hello` at all.
    NotHello,
    /// Wrong protocol magic.
    BadMagic {
        /// The magic received.
        got: u32,
    },
    /// Incompatible wire-protocol version.
    Version {
        /// The version received.
        got: u32,
    },
    /// Incompatible trace-schema version: merged traces would be invalid.
    TraceVersion {
        /// The trace version received.
        got: u32,
    },
    /// Different scenario seed: the peers are not running the same
    /// scenario, so their traces cannot share one oracle.
    Seed {
        /// The seed received.
        got: u64,
    },
}

impl std::fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HandshakeError::NotHello => write!(f, "first message was not Hello"),
            HandshakeError::BadMagic { got } => {
                write!(f, "bad protocol magic {got:#x} (expected {NET_MAGIC:#x})")
            }
            HandshakeError::Version { got } => write!(
                f,
                "wire-protocol version {got} (this build speaks {NET_PROTO_VERSION})"
            ),
            HandshakeError::TraceVersion { got } => write!(
                f,
                "trace-schema version {got} (this build writes {})",
                veil_obs::TRACE_SCHEMA_VERSION
            ),
            HandshakeError::Seed { got } => {
                write!(f, "scenario seed {got} differs from ours")
            }
        }
    }
}

impl std::error::Error for HandshakeError {}

/// Builds the `Hello` this build sends for a scenario.
pub fn hello(seed: u64, node: u32) -> WireMsg {
    WireMsg::Hello {
        magic: NET_MAGIC,
        version: NET_PROTO_VERSION,
        trace_version: veil_obs::TRACE_SCHEMA_VERSION,
        seed,
        node,
    }
}

/// Validates a peer's opening message against this process's scenario.
/// Returns the peer's node id on success.
pub fn validate_hello(msg: &WireMsg, expected_seed: u64) -> Result<u32, HandshakeError> {
    let WireMsg::Hello {
        magic,
        version,
        trace_version,
        seed,
        node,
    } = msg
    else {
        return Err(HandshakeError::NotHello);
    };
    if *magic != NET_MAGIC {
        return Err(HandshakeError::BadMagic { got: *magic });
    }
    if *version != NET_PROTO_VERSION {
        return Err(HandshakeError::Version { got: *version });
    }
    if *trace_version != veil_obs::TRACE_SCHEMA_VERSION {
        return Err(HandshakeError::TraceVersion {
            got: *trace_version,
        });
    }
    if *seed != expected_seed {
        return Err(HandshakeError::Seed { got: *seed });
    }
    Ok(*node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_frame, FrameDecoder, MAX_FRAME_LEN};

    #[test]
    fn messages_round_trip_through_frames() {
        let exchange = veil_core::protocol::exchange_id(3, 1);
        let msgs = [
            hello(42, 3),
            WireMsg::HelloAck { node: 7 },
            WireMsg::ShuffleRequest {
                exchange,
                from: 3,
                offer: vec![],
                trusted_link: true,
                attempt: 0,
            },
            WireMsg::ShuffleResponse {
                exchange,
                from: 7,
                offer: vec![],
            },
        ];
        let mut d = FrameDecoder::new();
        for m in &msgs {
            d.push(&encode_msg(m));
        }
        for m in &msgs {
            let payload = d.next_frame().unwrap().expect("frame available");
            assert_eq!(&decode_msg(&payload).unwrap(), m);
        }
    }

    #[test]
    fn handshake_accepts_a_matching_hello() {
        assert_eq!(validate_hello(&hello(42, 9), 42), Ok(9));
    }

    #[test]
    fn handshake_rejects_every_mismatch() {
        let base = hello(42, 9);
        assert_eq!(
            validate_hello(&WireMsg::HelloAck { node: 0 }, 42),
            Err(HandshakeError::NotHello)
        );
        let mutate = |f: &dyn Fn(&mut WireMsg)| {
            let mut m = base.clone();
            f(&mut m);
            validate_hello(&m, 42)
        };
        assert_eq!(
            mutate(&|m| {
                if let WireMsg::Hello { magic, .. } = m {
                    *magic = 0xdead;
                }
            }),
            Err(HandshakeError::BadMagic { got: 0xdead })
        );
        assert_eq!(
            mutate(&|m| {
                if let WireMsg::Hello { version, .. } = m {
                    *version = 99;
                }
            }),
            Err(HandshakeError::Version { got: 99 })
        );
        assert_eq!(
            mutate(&|m| {
                if let WireMsg::Hello { trace_version, .. } = m {
                    *trace_version = 0;
                }
            }),
            Err(HandshakeError::TraceVersion { got: 0 })
        );
        assert_eq!(
            validate_hello(&base, 43),
            Err(HandshakeError::Seed { got: 42 })
        );
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_msg(b"not json").is_err());
        assert!(decode_msg(&[0xff, 0xfe]).is_err());
    }

    #[test]
    fn a_maximal_frame_of_open_brackets_is_an_error_not_a_crash() {
        let payload = vec![b'['; MAX_FRAME_LEN];
        let mut d = FrameDecoder::new();
        d.push(&encode_frame(&payload));
        let frame = d.next_frame().unwrap().expect("frame available");
        let err = decode_msg(&frame).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
    }
}
