#![warn(missing_docs)]

//! # dda-mem — the data memory hierarchy
//!
//! Cycle-level models of the caches and memory of the paper's base machine
//! (Table 1):
//!
//! * a lockup-free, write-back/write-allocate, set-associative
//!   [`DataCache`] with LRU replacement and a finite pool of MSHRs — used
//!   both for the 32 KB 2-way L1 D-cache and for the small direct-mapped
//!   **local variable cache** (LVC);
//! * a unified [`L2`] (512 KB, 4-way, 12-cycle) behind a single-issue bus,
//!   shared by the L1 and the LVC exactly as in the paper ("the LVC ...
//!   will be attached to the memory bus connecting to the L2 cache",
//!   §2.2.2), backed by a fully interleaved 50-cycle main memory;
//! * a [`Hierarchy`] bundling the above, the unit the out-of-order core
//!   talks to;
//! * a [`PortMeter`] implementing the paper's *ideal port* model: an
//!   N-port cache can service any combination of N requests per cycle
//!   (§4, footnote 8).
//!
//! Timing is analytic rather than event-driven: callers present accesses
//! in non-decreasing cycle order (which a cycle-stepped pipeline does
//! naturally) and get back the absolute cycle at which the access
//! completes.
//!
//! ```
//! use dda_mem::{CacheConfig, Hierarchy, HierarchyConfig};
//!
//! let mut h = Hierarchy::new(HierarchyConfig::iscapaper_base());
//! let a = h.l1_access(0, 0x2000_0000, false); // cold miss -> L2 miss
//! assert!(!a.hit);
//! let b = h.l1_access(a.complete_at, 0x2000_0000, false); // now a hit
//! assert!(b.hit);
//! assert_eq!(b.complete_at - a.complete_at, 2); // 2-cycle L1 hit
//! let _ = CacheConfig::lvc_2k();
//! ```

mod cache_core;
mod config;
mod data_cache;
mod hierarchy;
mod l2;
mod mshr;
mod port;
mod tags;

pub use cache_core::{CacheCore, CacheCoreStats, Victim};
pub use config::{
    CacheConfig, CacheConfigError, CacheId, HierarchyConfig, HierarchyConfigError, L2Config,
};
pub use data_cache::{Completion, DataCache, DataCacheStats};
pub use hierarchy::Hierarchy;
pub use l2::{L2Source, L2Stats, L2};
pub use mshr::MshrFile;
pub use port::PortMeter;
pub use tags::{CacheTags, FunctionalWarmup, HierarchyTags, TagLine};
