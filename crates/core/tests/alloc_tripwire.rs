//! Allocation tripwire for the bulk data path. Wall-clock is noisy on a
//! shared box; the number and size of the large allocations a 1 MiB
//! transfer makes repeat exactly, and they are what the byte-bound path
//! costs: one buffer per encode, one per received frame, none for the
//! checksum, none of twice the payload. A binary of its own, one test:
//! the counters are process-wide.

use bytes::Bytes;
use diet_core::dagda::ReplicaCatalog;
use diet_core::data::{DietValue, Persistence};
use diet_core::hierarchy::serve_sed_over_tcp;
use diet_core::profile::{ArgTag, Profile, ProfileDesc};
use diet_core::sed::{SedConfig, SedHandle, ServiceTable, SolveFn};
use diet_core::transport::TcpSedPool;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const MIB: usize = 1 << 20;
/// Allocations at least this big are counted.
const LARGE: usize = 512 << 10;

static LARGE_COUNT: AtomicUsize = AtomicUsize::new(0);
static LARGE_BYTES: AtomicUsize = AtomicUsize::new(0);
static LARGE_MAX: AtomicUsize = AtomicUsize::new(0);
static LARGE_LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn took(size: usize) {
        if size >= LARGE {
            LARGE_COUNT.fetch_add(1, Ordering::Relaxed);
            LARGE_BYTES.fetch_add(size, Ordering::Relaxed);
            LARGE_MAX.fetch_max(size, Ordering::Relaxed);
            LARGE_LIVE.fetch_add(size, Ordering::Relaxed);
        }
    }

    fn gave(size: usize) {
        if size >= LARGE {
            LARGE_LIVE.fetch_sub(size, Ordering::Relaxed);
        }
    }
}

// SAFETY: every request is passed to `System` unchanged, so its guarantees
// are this allocator's; the counters touch no memory but their own.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::took(layout.size());
        // SAFETY: the caller's contract for `alloc`, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::took(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed`, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::gave(layout.size());
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::gave(layout.size());
        Self::took(new_size);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `len`: a file in (by reference here), its length out — nothing large in
/// the reply.
fn len_table() -> ServiceTable {
    let mut d = ProfileDesc::alloc("len", 0, 0, 1);
    d.set_arg(0, ArgTag::File).unwrap();
    let solve: SolveFn = Arc::new(|p: &mut Profile| {
        let n = p.get_file(0)?.1.len() as i64;
        p.set(1, DietValue::ScalarI64(n), Persistence::Volatile)?;
        Ok(0)
    });
    let mut t = ServiceTable::init(1);
    t.add(d, solve).unwrap();
    t
}

#[test]
fn a_mebibyte_costs_one_buffer_per_encode_and_one_per_frame() {
    let pool = Arc::new(TcpSedPool::new());
    let catalog = Arc::new(ReplicaCatalog::new());
    let mut servers = Vec::new();
    let seds: Vec<_> = ["home", "away"]
        .into_iter()
        .map(|label| {
            let sed = SedHandle::spawn(SedConfig::new(label, 1.0), len_table());
            let server = serve_sed_over_tcp(sed.clone()).unwrap();
            pool.register(label, server.local_addr);
            sed.set_resolver(pool.clone());
            sed.attach_catalog(catalog.clone());
            servers.push(server);
            sed
        })
        .collect();
    let deadline = Duration::from_secs(10);
    let blob = Bytes::from((0..MIB).map(|i| (i * 13) as u8).collect::<Vec<u8>>());
    let file = |name: &str| DietValue::File {
        name: name.into(),
        data: blob.clone(),
    };
    let by_ref = |id: &str| {
        let mut p = Profile::alloc(&ProfileDesc::alloc("len", 0, 0, 1));
        p.set(0, DietValue::data_ref(id), Persistence::Persistent)
            .unwrap();
        p
    };
    // Dial both connections and run every code path once before counting.
    pool.put_data(
        "home",
        "warm",
        file("warm"),
        Persistence::Persistent,
        deadline,
    )
    .unwrap();
    pool.call("away", by_ref("warm"), deadline).unwrap();

    let (count, bytes) = (
        LARGE_COUNT.load(Ordering::Relaxed),
        LARGE_BYTES.load(Ordering::Relaxed),
    );
    LARGE_MAX.store(0, Ordering::Relaxed);
    pool.put_data(
        "home",
        "blob",
        file("blob"),
        Persistence::Persistent,
        deadline,
    )
    .unwrap();
    let reply = pool.call("away", by_ref("blob"), deadline).unwrap();
    assert_eq!(reply.values[1], DietValue::ScalarI64(MIB as i64));
    let count = LARGE_COUNT.load(Ordering::Relaxed) - count;
    let bytes = LARGE_BYTES.load(Ordering::Relaxed) - bytes;
    // The put: the client's encode, the home SeD's receive buffer. The
    // pull: the home SeD's encode of the DataReply, the away SeD's receive
    // buffer. The two checksums (at publish, at pull) allocate nothing.
    assert_eq!(count, 4, "{count} large allocations, {bytes} bytes");
    let largest = LARGE_MAX.load(Ordering::Relaxed);
    assert!(largest <= MIB + 8192, "a {largest}-byte buffer for 1 MiB");

    // What a stored blob pins is its frame, not a doubled receive buffer.
    let live = LARGE_LIVE.load(Ordering::Relaxed);
    let k = 6;
    for i in 0..k {
        let id = format!("kept-{i}");
        pool.put_data("home", &id, file(&id), Persistence::Persistent, deadline)
            .unwrap();
    }
    let pinned = LARGE_LIVE.load(Ordering::Relaxed) - live;
    assert_eq!(seds[0].datamgr.len(), 2 + k);
    assert!(
        pinned <= k * (MIB + 4096),
        "{k} stored blobs pin {pinned} bytes"
    );
    for sed in seds {
        sed.shutdown();
    }
}
