//! Block-device layer: re-exports of the pluggable [`store`]
//! subsystem. A volume's backend is selected through
//! [`store::StoreBackend`] and [`crate::Ffs::format_backend`], or
//! handed over as any [`store::BlockStore`] to [`crate::Ffs::format_on`].

pub use store::{
    zero_block, BlockStore, Bytes, CachedStore, RemoteOptions, ShardedStore, StoreBackend,
    StoreStats, TimedStore, BLOCK_SIZE,
};
