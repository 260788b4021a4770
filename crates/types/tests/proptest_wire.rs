//! Hostile-input properties of the peer-facing decoders: the peer frame
//! codec (`decode_peer_frame_ctx`), the view-change codec
//! (`decode_view_msg`) and the placement-spec parser
//! (`ShardMap::parse_spec`, which also parses the map inside a
//! `ViewMsg::InstallMap`). Arbitrary input must come back `Ok` or `Err`,
//! never a panic; encoded values must round-trip; and every truncation of
//! a valid encoding must be rejected as truncated.

use minos_types::wire::{
    decode_peer_frame_ctx, decode_view_msg, encode_peer_frame_ctx, encode_view_msg, TraceCtx,
    WireError,
};
use minos_types::{Key, Message, NodeId, ScopeId, ShardMap, Ts, Value, ViewMsg};
use proptest::prelude::*;

fn message() -> impl Strategy<Value = Message> {
    (
        0u8..12,
        any::<u64>(),
        (any::<u16>(), any::<u32>()),
        proptest::collection::vec(any::<u8>(), 0..24),
        any::<u64>(),
    )
        .prop_map(|(tag, key, (node, version), value, aux)| {
            let key = Key(key);
            let ts = Ts::new(NodeId(node), version);
            let value = Value::from(value);
            let scope = (aux % 2 == 1).then_some(ScopeId((aux >> 1) as u32));
            let sc = ScopeId(aux as u32);
            match tag {
                0 => Message::Inv {
                    key,
                    ts,
                    value,
                    scope,
                },
                1 => Message::Ack { key, ts },
                2 => Message::AckC { key, ts, scope },
                3 => Message::AckP { key, ts },
                4 => Message::Val { key, ts },
                5 => Message::ValC { key, ts, scope },
                6 => Message::ValP { key, ts },
                7 => Message::Persist { scope: sc },
                8 => Message::PersistAckP { scope: sc },
                9 => Message::PersistValP { scope: sc },
                10 => Message::ReadReq { key, token: aux },
                _ => Message::ReadResp {
                    key,
                    token: aux,
                    value,
                    ts,
                },
            }
        })
}

fn trace_ctx() -> impl Strategy<Value = Option<TraceCtx>> {
    (any::<bool>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
        |(present, trace_id, span, origin_ns)| {
            present.then_some(TraceCtx {
                trace_id,
                span,
                origin_ns,
            })
        },
    )
}

/// A valid placement map: 1–6 groups of distinct nodes out of 1–8, at
/// epoch 1–4.
fn shard_map() -> impl Strategy<Value = ShardMap> {
    (
        1usize..9,
        proptest::collection::vec(proptest::collection::vec(any::<u16>(), 1..4), 1..7),
        0u8..4,
    )
        .prop_map(|(nodes, raw, bumps)| {
            let groups = raw
                .into_iter()
                .map(|g| {
                    let mut g: Vec<NodeId> = g.iter().map(|n| NodeId(n % nodes as u16)).collect();
                    g.sort_unstable();
                    g.dedup();
                    g
                })
                .collect();
            let mut map = ShardMap::explicit(nodes, groups);
            for _ in 0..bumps {
                map.bump_epoch();
            }
            map
        })
}

fn view_msg() -> impl Strategy<Value = ViewMsg> {
    (0u8..5, any::<u16>(), any::<u64>(), shard_map()).prop_map(|(tag, node, n, map)| {
        let node = NodeId(node);
        match tag {
            0 => ViewMsg::LeaseRenew {
                node,
                expires_at_ns: n,
            },
            1 => ViewMsg::NodeDown { node, epoch: n },
            2 => ViewMsg::RejoinStart { node, epoch: n },
            3 => ViewMsg::RejoinDone { node, epoch: n },
            _ => ViewMsg::InstallMap { map },
        }
    })
}

/// Placement-spec text built from the codec's own vocabulary, so that
/// random draws reach the field parsers (duplicates, out-of-range ids,
/// missing or unknown fields) rather than failing at the first byte.
fn spec_text() -> impl Strategy<Value = String> {
    const PIECES: [&str; 16] = [
        "epoch=", "nodes=", "groups=", ";", "|", ",", "x", "=", "0", "1", "2", "3", "7", " ", "99",
        "bogus",
    ];
    proptest::collection::vec(0usize..PIECES.len(), 0..20)
        .prop_map(|ix| ix.into_iter().map(|i| PIECES[i]).collect())
}

/// Well-formed codec text whose groups may repeat a node or name one
/// past the node count — inputs a hostile peer can put inside an
/// `InstallMap`.
fn codec_text() -> impl Strategy<Value = String> {
    (
        any::<u64>(),
        0usize..5,
        proptest::collection::vec(proptest::collection::vec(0u16..6, 1..4), 1..4),
    )
        .prop_map(|(epoch, nodes, groups)| {
            let groups: Vec<String> = groups
                .iter()
                .map(|g| g.iter().map(u16::to_string).collect::<Vec<_>>().join(","))
                .collect();
            format!("epoch={epoch};nodes={nodes};groups={}", groups.join("|"))
        })
}

/// Any byte string as text, invalid UTF-8 replaced.
fn raw_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 0..40)
        .prop_map(|b| String::from_utf8_lossy(&b).into_owned())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn peer_frame_decoder_never_panics_on_bytes(
        buf in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let _ = decode_peer_frame_ctx(&buf);
    }

    #[test]
    fn peer_frame_decoder_survives_corrupted_frames(
        from in any::<u16>(),
        msgs in proptest::collection::vec(message(), 0..4),
        ctx in trace_ctx(),
        flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..4),
    ) {
        let mut buf = encode_peer_frame_ctx(NodeId(from), &msgs, ctx);
        for (at, byte) in flips {
            let i = at % buf.len();
            buf[i] ^= byte;
        }
        let _ = decode_peer_frame_ctx(&buf);
    }

    #[test]
    fn peer_frames_round_trip_and_reject_every_truncation(
        from in any::<u16>(),
        msgs in proptest::collection::vec(message(), 0..4),
        ctx in trace_ctx(),
    ) {
        let buf = encode_peer_frame_ctx(NodeId(from), &msgs, ctx);
        let ctx = ctx.filter(|c| !c.is_empty());
        prop_assert_eq!(
            decode_peer_frame_ctx(&buf),
            Ok((NodeId(from), msgs.clone(), ctx))
        );
        for cut in 0..buf.len() {
            prop_assert_eq!(decode_peer_frame_ctx(&buf[..cut]), Err(WireError::Truncated));
        }
        let mut long = buf.clone();
        long.push(0);
        prop_assert_eq!(decode_peer_frame_ctx(&long), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn view_decoder_never_panics_on_bytes(
        buf in proptest::collection::vec(any::<u8>(), 0..64),
        tag in 0x20u8..0x26,
    ) {
        let _ = decode_view_msg(&buf);
        // Also with a valid tag in front, so the payload parsers run.
        let mut tagged = vec![tag];
        tagged.extend_from_slice(&buf);
        let _ = decode_view_msg(&tagged);
    }

    #[test]
    fn view_decoder_never_panics_on_install_map_text(
        vocab in spec_text(),
        codec in codec_text(),
    ) {
        for text in [vocab, codec] {
            let mut buf = vec![0x24];
            buf.extend_from_slice(&(text.len() as u32).to_le_bytes());
            buf.extend_from_slice(text.as_bytes());
            let _ = decode_view_msg(&buf);
        }
    }

    #[test]
    fn view_msgs_round_trip_and_reject_every_truncation(msg in view_msg()) {
        let buf = encode_view_msg(&msg);
        prop_assert_eq!(decode_view_msg(&buf), Ok(msg.clone()));
        for cut in 0..buf.len() {
            prop_assert_eq!(decode_view_msg(&buf[..cut]), Err(WireError::Truncated));
        }
        let mut long = buf.clone();
        long.push(0);
        prop_assert_eq!(decode_view_msg(&long), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn parse_spec_never_panics(
        vocab in spec_text(),
        codec in codec_text(),
        raw in raw_text(),
        n_nodes in 0usize..10,
    ) {
        for text in [vocab, codec, raw] {
            let _ = ShardMap::parse_spec(&text, n_nodes);
        }
    }

    #[test]
    fn parse_spec_round_trips_and_survives_truncation(map in shard_map()) {
        let text = map.to_string();
        prop_assert_eq!(ShardMap::parse_spec(&text, map.n_nodes()), Ok(map.clone()));
        // The codec is ASCII, so every byte offset is a char boundary.
        for cut in 0..text.len() {
            let _ = ShardMap::parse_spec(&text[..cut], map.n_nodes());
        }
    }

    #[test]
    fn uniform_spec_matches_uniform_map(
        shards in 1u32..17,
        nodes in 1usize..17,
        replicas in 1u16..17,
    ) {
        let got = ShardMap::parse_spec(&format!("{shards}x{replicas}"), nodes);
        if replicas as usize <= nodes {
            prop_assert_eq!(got, Ok(ShardMap::uniform(shards, nodes, replicas)));
        } else {
            prop_assert!(got.is_err());
        }
    }
}

/// Regression case the `*_never_panics*` properties found: a placement
/// codec naming one node twice in a group reached `ShardMap::explicit`'s
/// assertion, so one hostile `InstallMap` frame panicked the receiver.
#[test]
fn repeated_node_in_a_group_is_an_error_not_a_panic() {
    let text = "epoch=1;nodes=3;groups=1,1";
    assert!(ShardMap::parse_spec(text, 3).is_err());
    let mut buf = vec![0x24];
    buf.extend_from_slice(&(text.len() as u32).to_le_bytes());
    buf.extend_from_slice(text.as_bytes());
    assert!(matches!(
        decode_view_msg(&buf),
        Err(WireError::BadPayload(_))
    ));
}
