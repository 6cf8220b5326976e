//! CFS: a Blaze-style cryptographic filesystem layer, and **CFS-NE** —
//! the paper's baseline (CFS with encryption turned off, modified to
//! run remotely).
//!
//! The DisCFS prototype was "built by modifying the existing user-level
//! daemon of the cryptographic file system CFS, replacing the
//! encryption functionality with the access control mechanism" (§5).
//! This crate supplies that lineage: a layered NFS service over `ffs`
//! whose cipher hooks can be
//!
//! * **on** ([`CfsService::encrypting`]) — file contents, names and
//!   symlink targets are encrypted on the server with per-attach keys
//!   (ChaCha20 content streams, SIV-style deterministic name
//!   encryption), or
//! * **off** ([`CfsService::passthrough`]) — the CFS-NE baseline used
//!   in Figures 7–12: the same code path, with a null cipher.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use cfs::{CfsCipher, CfsService};
//! use discfs_crypto::ed25519::SigningKey;
//! use ffs::{Ffs, FsConfig};
//! use ipsec::PlainChannel;
//! use netsim::{Link, SimClock};
//! use nfsv2::{Engine, EngineConfig, NfsClient, RemoteFs};
//!
//! let clock = SimClock::new();
//! let (client_end, server_end) = Link::loopback(&clock);
//! let fs = Arc::new(Ffs::format_in_memory(FsConfig::small()));
//! let service = Arc::new(CfsService::encrypting(fs, 1, CfsCipher::new(&[7; 32])));
//! let key = SigningKey::from_seed(&[2; 32]);
//! let engine = Engine::start(service, key, EngineConfig::default());
//! engine.accept_channel(Box::new(PlainChannel::new(server_end)));
//!
//! let client = NfsClient::new(Box::new(PlainChannel::new(client_end)));
//! let remote = RemoteFs::mount(client, "/").unwrap();
//! remote.write_file("secret.txt", b"the plans").unwrap();
//! assert_eq!(remote.read_file("secret.txt").unwrap(), b"the plans");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cipher;
mod service;

pub use cipher::CfsCipher;
pub use service::CfsService;
