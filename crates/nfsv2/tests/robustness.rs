//! Server robustness: the engine and its RPC dispatch under malformed
//! and hostile traffic. A user-level NFS daemon faces the raw network;
//! no input may crash it or corrupt the volume.
//!
//! All wire traffic is framed (`onc_rpc::frame`). A well-formed frame
//! whose payload is not a valid RPC call is *skipped* and the
//! connection survives; a malformed frame (bad length or checksum)
//! condemns the connection.

use std::sync::Arc;

use bytes::Bytes;
use discfs_crypto::ed25519::SigningKey;
use ffs::{Ffs, FsConfig};
use ipsec::{PlainChannel, SecureTransport};
use netsim::{Link, SimClock, Transport};
use nfsv2::{Engine, EngineConfig, FfsService, NfsClient, RemoteFs};
use onc_rpc::frame::{self, FrameDecoder};
use onc_rpc::{AcceptStat, ReplyBody, RpcCall, RpcReply};
use proptest::prelude::*;

fn spawn_server() -> (netsim::Endpoint, Arc<Ffs>, Engine) {
    let clock = SimClock::new();
    let (client_end, server_end) = Link::loopback(&clock);
    let fs = Arc::new(Ffs::format_in_memory(FsConfig::small()));
    let service = Arc::new(FfsService::new(fs.clone(), 1));
    let key = SigningKey::from_seed(&[2; 32]);
    let engine = Engine::start(service, key, EngineConfig::default());
    engine.accept_channel(Box::new(PlainChannel::new(server_end)));
    (client_end, fs, engine)
}

/// Sends one RPC call as a single framed message.
fn send_call(endpoint: &netsim::Endpoint, call: &RpcCall) {
    endpoint.send(frame::encode_frame(&call.encode())).unwrap();
}

/// Pulls framed replies off an endpoint, skipping non-reply frames.
struct Replies<'a> {
    endpoint: &'a netsim::Endpoint,
    decoder: FrameDecoder,
}

impl<'a> Replies<'a> {
    fn new(endpoint: &'a netsim::Endpoint) -> Replies<'a> {
        Replies {
            endpoint,
            decoder: FrameDecoder::new(),
        }
    }

    fn next(&mut self) -> RpcReply {
        loop {
            if let Some(payload) = self.decoder.pop_frame() {
                if let Ok(reply) = RpcReply::decode(&payload) {
                    return reply;
                }
                continue;
            }
            let msg = self.endpoint.recv().unwrap();
            self.decoder.feed(Bytes::from(msg)).unwrap();
        }
    }
}

fn recv_reply(endpoint: &netsim::Endpoint) -> RpcReply {
    Replies::new(endpoint).next()
}

#[test]
fn unknown_program_rejected() {
    let (endpoint, _, _engine) = spawn_server();
    let call = RpcCall::new(1, 424242, 1, 0, vec![]);
    send_call(&endpoint, &call);
    let reply = recv_reply(&endpoint);
    assert_eq!(reply.body, ReplyBody::Error(AcceptStat::ProgUnavail));
}

#[test]
fn wrong_nfs_version_rejected() {
    let (endpoint, _, _engine) = spawn_server();
    let call = RpcCall::new(2, nfsv2::NFS_PROGRAM, 3, 0, vec![]);
    send_call(&endpoint, &call);
    let reply = recv_reply(&endpoint);
    assert_eq!(reply.body, ReplyBody::Error(AcceptStat::ProgMismatch));
}

#[test]
fn unknown_procedure_rejected() {
    let (endpoint, _, _engine) = spawn_server();
    let call = RpcCall::new(3, nfsv2::NFS_PROGRAM, 2, 99, vec![]);
    send_call(&endpoint, &call);
    let reply = recv_reply(&endpoint);
    assert_eq!(reply.body, ReplyBody::Error(AcceptStat::ProcUnavail));
}

#[test]
fn truncated_args_are_garbage() {
    let (endpoint, _, _engine) = spawn_server();
    // GETATTR with a 3-byte handle instead of 32.
    let call = RpcCall::new(4, nfsv2::NFS_PROGRAM, 2, 1, vec![1, 2, 3]);
    send_call(&endpoint, &call);
    let reply = recv_reply(&endpoint);
    assert_eq!(reply.body, ReplyBody::Error(AcceptStat::GarbageArgs));
}

#[test]
fn non_rpc_bytes_ignored_connection_survives() {
    let (endpoint, _, _engine) = spawn_server();
    // A well-formed frame carrying garbage: server must skip it, not die.
    endpoint
        .send(frame::encode_frame(&[0xde, 0xad, 0xbe, 0xef]))
        .unwrap();
    // A valid NULL call afterwards still works.
    let call = RpcCall::new(5, nfsv2::NFS_PROGRAM, 2, 0, vec![]);
    send_call(&endpoint, &call);
    let reply = recv_reply(&endpoint);
    assert_eq!(reply.xid, 5);
    assert!(matches!(reply.body, ReplyBody::Success(_)));
}

#[test]
fn malformed_frame_drops_connection() {
    let (endpoint, fs, _engine) = spawn_server();
    // A frame whose checksum does not match its payload condemns the
    // connection: the server cannot trust anything after it.
    let mut bad = frame::encode_frame(b"some payload");
    let last = bad.len() - 1;
    bad[last] ^= 0xff;
    endpoint.send(bad).unwrap();
    // The server closes its end; our next blocking recv observes it.
    assert!(endpoint.recv().is_err());
    fs.check().expect("volume consistent after malformed frame");
}

#[test]
fn pipelined_calls_one_message() {
    let (endpoint, _, _engine) = spawn_server();
    // Many calls packed into one transport message: the server decodes
    // them all and batches the replies.
    let mut burst = Vec::new();
    for xid in 10..20u32 {
        let call = RpcCall::new(xid, nfsv2::NFS_PROGRAM, 2, 0, vec![]);
        let start = frame::begin_frame(&mut burst);
        burst.extend_from_slice(&call.encode());
        frame::end_frame(&mut burst, start);
    }
    endpoint.send(burst).unwrap();
    let mut replies = Replies::new(&endpoint);
    for xid in 10..20u32 {
        let reply = replies.next();
        assert_eq!(reply.xid, xid);
        assert!(matches!(reply.body, ReplyBody::Success(_)));
    }
}

#[test]
fn volume_intact_after_garbage_storm() {
    let (endpoint, fs, _engine) = spawn_server();
    // Write a real file first.
    let client = NfsClient::new(Box::new(WrapEndpoint(endpoint)));
    let remote = RemoteFs::mount(client, "/").unwrap();
    remote.write_file("precious.txt", b"survives").unwrap();

    // Storm the server with malformed calls on the same connection.
    for i in 0..200u32 {
        let junk = RpcCall::new(
            1000 + i,
            nfsv2::NFS_PROGRAM,
            2,
            (i % 18) + 1,
            vec![i as u8; (i % 40) as usize],
        );
        let _ = remote
            .client()
            .call_raw(nfsv2::NFS_PROGRAM, 2, (i % 18) + 1, junk.args.clone());
    }

    // The data and the filesystem invariants are untouched.
    assert_eq!(remote.read_file("precious.txt").unwrap(), b"survives");
    fs.check().expect("volume consistent after garbage storm");
}

/// Wraps a bare endpoint as a SecureTransport for the client side.
struct WrapEndpoint(netsim::Endpoint);

impl SecureTransport for WrapEndpoint {
    fn send(&self, msg: Vec<u8>) -> Result<(), ipsec::IpsecError> {
        Ok(self.0.send(msg)?)
    }
    fn recv(&self) -> Result<Vec<u8>, ipsec::IpsecError> {
        Ok(self.0.recv()?)
    }
    fn peer_identity(&self) -> Option<discfs_crypto::ed25519::VerifyingKey> {
        None
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random payloads in well-formed frames never kill the connection:
    /// a valid NULL call always succeeds afterwards.
    #[test]
    fn survives_random_frames(payloads in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..200), 1..10
    )) {
        let (endpoint, _, _engine) = spawn_server();
        for payload in payloads {
            endpoint.send(frame::encode_frame(&payload)).unwrap();
        }
        let call = RpcCall::new(77, nfsv2::NFS_PROGRAM, 2, 0, vec![]);
        send_call(&endpoint, &call);
        // Skip any replies the garbage may have provoked until xid 77.
        let mut replies = Replies::new(&endpoint);
        loop {
            let reply = replies.next();
            if reply.xid == 77 {
                prop_assert!(matches!(reply.body, ReplyBody::Success(_)));
                break;
            }
        }
    }

    /// Random args to every NFS procedure produce clean errors, never
    /// hangs or panics.
    #[test]
    fn random_args_yield_clean_errors(
        proc_num in 1u32..18,
        args in proptest::collection::vec(any::<u8>(), 0..120),
    ) {
        let (endpoint, fs, _engine) = spawn_server();
        let call = RpcCall::new(9, nfsv2::NFS_PROGRAM, 2, proc_num, args);
        send_call(&endpoint, &call);
        let reply = recv_reply(&endpoint);
        prop_assert_eq!(reply.xid, 9);
        // Either an RPC-level error or an NFS status reply; both fine.
        fs.check().expect("volume stays consistent");
    }
}
