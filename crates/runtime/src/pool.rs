//! A process-wide recycler for large dense buffers.
//!
//! Every functional-mode request allocates the same few dozen megabytes
//! of tiles — runtime instance buffers, rank-VM home/scratch/accumulator
//! buffers, message payloads, the assembled output, and the gathered copy
//! of an operand face that no single buffer contains (the usual face is
//! read where it lies and has no buffer of its own) — and frees them
//! again when its [`Runtime`](crate::Runtime), binding or rank stores drop. Left to
//! the system allocator, whether that memory comes back mapped or has to
//! be page-faulted in afresh depends on trim and mmap thresholds that move
//! with the order of earlier frees — the same 640² SUMMA request then
//! costs 40 ms or 48 ms (5 600 page faults) for spells of seconds. Buffers
//! taken here and given back when their owner drops keep a steady request
//! stream off the system allocator.
//!
//! Only buffers of [`MIN_POOLED`] to [`MAX_POOLED`] elements are kept.
//! Below that the allocator neither maps nor trims. Above it a buffer is
//! a whole tensor rather than one of the tiles that make up a request
//! (the dense staging copy of a bound 2048² operand is 32 MiB): keeping
//! two or three of those would spend the whole budget and evict every
//! tile, so they stay with the system allocator. At most
//! [`MAX_POOLED_BYTES`] are retained in total; past that the least
//! recently used length is released.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Buffers shorter than this many elements (32 KiB) are never pooled.
pub const MIN_POOLED: usize = 4096;
/// Buffers longer than this many elements (4 MiB) are never pooled.
pub const MAX_POOLED: usize = 512 * 1024;
/// Upper bound on the bytes the pool retains.
pub const MAX_POOLED_BYTES: usize = 128 << 20;

const ELEM: usize = std::mem::size_of::<f64>();

/// The free buffers of one capacity (never empty), and when the class was
/// last used.
struct SizeClass {
    free: Vec<Vec<f64>>,
    used: u64,
}

struct Pool {
    classes: BTreeMap<usize, SizeClass>,
    bytes: usize,
    tick: u64,
    limit: usize,
}

impl Pool {
    const fn new(limit: usize) -> Self {
        Pool {
            classes: BTreeMap::new(),
            bytes: 0,
            tick: 0,
            limit,
        }
    }

    fn take(&mut self, len: usize) -> Option<Vec<f64>> {
        self.tick += 1;
        let class = self.classes.get_mut(&len)?;
        class.used = self.tick;
        let buf = class.free.pop().expect("classes are never empty");
        if class.free.is_empty() {
            self.classes.remove(&len);
        }
        self.bytes -= len * ELEM;
        Some(buf)
    }

    /// Keeps `buf`; returns the buffers released to stay under the limit
    /// (for the caller to drop outside the lock).
    fn give(&mut self, buf: Vec<f64>) -> Vec<Vec<f64>> {
        self.tick += 1;
        let cap = buf.capacity();
        let class = self.classes.entry(cap).or_insert_with(|| SizeClass {
            free: Vec::new(),
            used: 0,
        });
        class.used = self.tick;
        class.free.push(buf);
        self.bytes += cap * ELEM;
        let mut released = Vec::new();
        while self.bytes > self.limit {
            let (&cap, _) = self
                .classes
                .iter()
                .min_by_key(|(_, c)| c.used)
                .expect("a pool over its limit holds a buffer");
            let class = self.classes.remove(&cap).expect("class exists");
            self.bytes -= cap * ELEM * class.free.len();
            released.extend(class.free);
        }
        released
    }
}

static POOL: Mutex<Pool> = Mutex::new(Pool::new(MAX_POOLED_BYTES));

fn pool() -> MutexGuard<'static, Pool> {
    POOL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn recycled(len: usize) -> Option<Vec<f64>> {
    if !(MIN_POOLED..=MAX_POOLED).contains(&len) {
        return None;
    }
    pool().take(len)
}

/// A buffer of `len` elements whose contents are unspecified (whatever its
/// last owner left, or zeros): for buffers about to be overwritten whole.
pub fn take(len: usize) -> Vec<f64> {
    match recycled(len) {
        Some(mut buf) => {
            buf.resize(len, 0.0);
            buf
        }
        None => vec![0.0; len],
    }
}

/// A buffer of `len` zeros.
pub fn take_zeroed(len: usize) -> Vec<f64> {
    match recycled(len) {
        Some(mut buf) => {
            buf.clear();
            buf.resize(len, 0.0);
            buf
        }
        None => vec![0.0; len],
    }
}

/// Returns a buffer for later [`take`]s; one outside the pooled range is
/// simply dropped.
pub fn give(buf: Vec<f64>) {
    give_all([buf]);
}

/// [`give`] for a batch, under one lock acquisition.
pub fn give_all(bufs: impl IntoIterator<Item = Vec<f64>>) {
    let mut keep = bufs
        .into_iter()
        .filter(|b| (MIN_POOLED..=MAX_POOLED).contains(&b.capacity()))
        .peekable();
    if keep.peek().is_none() {
        return;
    }
    let mut released = Vec::new();
    {
        let mut pool = pool();
        for buf in keep {
            released.extend(pool.give(buf));
        }
    }
    drop(released);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_given_buffer_is_taken_again_and_zeroed_on_request() {
        let mut pool = Pool::new(1 << 20);
        let buf = vec![7.0; 5000];
        let addr = buf.as_ptr();
        assert!(pool.give(buf).is_empty());
        assert!(pool.take(4999).is_none(), "classes are exact capacities");
        let again = pool.take(5000).expect("recycled");
        assert_eq!(again.as_ptr(), addr);
        assert_eq!(pool.bytes, 0);
        assert!(pool.take(5000).is_none());

        // Through the global entry points: stale contents never leak out
        // of `take_zeroed`, and a truncated buffer comes back full length.
        let len = MIN_POOLED + 13;
        let mut dirty = vec![3.0; len];
        dirty.truncate(10);
        give(dirty);
        let zeros = take_zeroed(len);
        assert_eq!(zeros.len(), len);
        assert!(zeros.iter().all(|v| v.to_bits() == 0));
        assert_eq!(take(3).len(), 3);
        give(vec![1.0; MAX_POOLED + 1]);
        assert!(take(MAX_POOLED + 1).iter().all(|v| v.to_bits() == 0));
    }

    #[test]
    fn the_least_recently_used_class_is_released_past_the_limit() {
        let mut pool = Pool::new(3 * 4096 * ELEM);
        assert!(pool.give(vec![0.0; 4096]).is_empty());
        assert!(pool.give(vec![0.0; 4097]).is_empty());
        // Touch the older class so the other one becomes the eviction victim.
        let buf = pool.take(4096).unwrap();
        assert!(pool.give(buf).is_empty());
        let released = pool.give(vec![0.0; 4098]);
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].capacity(), 4097);
        assert_eq!(pool.bytes, (4096 + 4098) * ELEM);
        assert!(pool.take(4097).is_none());
        assert!(pool.take(4096).is_some() && pool.take(4098).is_some());
    }
}
