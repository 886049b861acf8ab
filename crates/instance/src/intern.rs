//! Global string interner backing [`Value::Str`](crate::Value::Str).
//!
//! Datalog evaluation compares and hashes string constants constantly:
//! every join key, every deduplication probe, every negation check. With
//! `Arc<str>` payloads each of those walks the string bytes; interning
//! replaces the payload with a dense `u32` [`Symbol`] so tuples compare
//! and hash wordwise and `Value` becomes `Copy`.
//!
//! The interner is process-global (symbols must mean the same string in
//! every [`Database`](crate::Database), or cross-database comparison would
//! be unsound) and append-only: interned strings are leaked once and live
//! for the process lifetime, which is exactly the lifetime the synthesis
//! workload needs — the same benchmark constants are re-used by hundreds
//! of candidate evaluations.

use std::fmt;
use std::hash::Hasher;
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::hash::{FxHashMap, FxHasher};

/// An interned string: a dense index into the global intern table.
///
/// Equality and hashing are on the `u32` index; ordering resolves the
/// underlying strings so sort order matches the pre-interning `Arc<str>`
/// behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

// Resolution (`Symbol::as_str`) is on the hot path of ordered
// comparisons (`FlatTable`'s BTreeSets), `Display`, and the writers, so
// it must not take a lock. Symbols index into a chunked, append-only
// side table: a fixed array of chunk pointers, each chunk a fixed array
// of slots holding a pointer to a leaked [`Slot`]. Chunks and slots are
// only ever written under the intern mutex and published with release
// stores, so a reader holding a `Symbol` (whose id it can only have
// received after the slot was written) loads the slot with acquire and
// dereferences without synchronization.
const CHUNK_SIZE: usize = 1 << 12;
const NUM_CHUNKS: usize = 1 << 12; // 16.7M distinct strings max

/// Per-symbol side-table entry: the leaked string plus a *stable* hash of
/// its bytes, computed once at intern time. The stable hash is a pure
/// function of the string content — unlike the symbol index, which
/// depends on process-local intern order — so consumers that must be
/// deterministic across processes (the planner's column statistics) key
/// on it instead of the index.
struct Slot {
    text: &'static str,
    stable: u64,
}

type Chunk = [AtomicPtr<Slot>; CHUNK_SIZE];

static CHUNKS: [AtomicPtr<Chunk>; NUM_CHUNKS] =
    [const { AtomicPtr::new(ptr::null_mut()) }; NUM_CHUNKS];

/// Deterministic, seedless hash of a string's bytes. Must agree across
/// processes and runs: it feeds [`Symbol::stable_hash`], which the column
/// statistics use as the canonical `Str` pattern for planner estimates.
fn stable_str_hash(s: &str) -> u64 {
    let mut h = FxHasher::default();
    // Length first: the byte stream is zero-padded to word granularity,
    // so without it "a" and "a\0" would collide.
    h.write_usize(s.len());
    h.write(s.as_bytes());
    h.finish()
}

/// Writer-side state: the string→id map (ids are allocated densely).
fn interner() -> &'static Mutex<FxHashMap<&'static str, u32>> {
    static INTERNER: OnceLock<Mutex<FxHashMap<&'static str, u32>>> = OnceLock::new();
    INTERNER.get_or_init(|| Mutex::new(FxHashMap::default()))
}

impl Symbol {
    /// Interns `s`, returning its symbol. Idempotent: the same string
    /// always yields the same symbol.
    pub fn intern(s: &str) -> Symbol {
        // A panic under the lock leaves the map valid: it is written last,
        // after the slot is published, so a poisoned lock is recovered.
        let mut map = interner().lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&id) = map.get(s) {
            return Symbol(id);
        }
        let id = u32::try_from(map.len()).expect("interner overflow");
        let (chunk_i, slot_i) = (id as usize / CHUNK_SIZE, id as usize % CHUNK_SIZE);
        assert!(chunk_i < NUM_CHUNKS, "interner overflow");
        let mut chunk_ptr = CHUNKS[chunk_i].load(Ordering::Acquire);
        if chunk_ptr.is_null() {
            // Only writers allocate chunks, and we hold the intern lock.
            let fresh: Box<Chunk> =
                Box::new([const { AtomicPtr::new(ptr::null_mut()) }; CHUNK_SIZE]);
            chunk_ptr = Box::leak(fresh);
            CHUNKS[chunk_i].store(chunk_ptr, Ordering::Release);
        }
        let leaked: &'static str = Box::leak(s.into());
        let slot: &'static Slot = Box::leak(Box::new(Slot {
            text: leaked,
            stable: stable_str_hash(leaked),
        }));
        // SAFETY: chunk_ptr is non-null and points to a leaked Chunk.
        let chunk: &Chunk = unsafe { &*chunk_ptr };
        chunk[slot_i].store(slot as *const Slot as *mut Slot, Ordering::Release);
        map.insert(leaked, id);
        Symbol(id)
    }

    /// The interned string, resolved lock-free. Interned strings live for
    /// the process lifetime, hence the `'static` borrow.
    pub fn as_str(self) -> &'static str {
        self.slot().text
    }

    /// A hash of the interned string's **bytes**, computed once at intern
    /// time and resolved lock-free. Two symbols for the same string hash
    /// identically in every process, regardless of intern order — the
    /// property the planner's column statistics need for cross-process
    /// deterministic plans (distinct strings may collide, which can only
    /// weaken estimates, never soundness).
    #[inline]
    pub fn stable_hash(self) -> u64 {
        self.slot().stable
    }

    #[inline]
    fn slot(self) -> &'static Slot {
        let (chunk_i, slot_i) = (self.0 as usize / CHUNK_SIZE, self.0 as usize % CHUNK_SIZE);
        let chunk_ptr = CHUNKS[chunk_i].load(Ordering::Acquire);
        // SAFETY: a `Symbol` can only be obtained from `intern`, which
        // published this chunk and slot (release) before returning the id;
        // receiving the Symbol on another thread implies the necessary
        // happens-before edge, and the acquire loads pair with the
        // release stores for direct racing access.
        let slots: &Chunk = unsafe { &*chunk_ptr };
        let slot = slots[slot_i].load(Ordering::Acquire);
        unsafe { &*slot.cast_const() }
    }

    /// The raw index (useful for dense side tables).
    pub fn index(self) -> u32 {
        self.0
    }

    /// Rebuilds a symbol from an index previously obtained via
    /// [`Symbol::index`]. Crate-internal: an index that never came out of
    /// `intern` has no table entry behind it, and resolving such a symbol
    /// would read unpublished slots. The columnar store's payload streams
    /// only ever hold indices of real symbols, which is the one caller.
    #[inline(always)]
    pub(crate) fn from_index(index: u32) -> Symbol {
        Symbol(index)
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Symbol) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Symbol) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl std::ops::Deref for Symbol {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_survives_a_poisoned_lock() {
        let old = Symbol::intern("interned before the poisoning");
        std::thread::spawn(|| {
            let _map = interner().lock().unwrap_or_else(PoisonError::into_inner);
            panic!("poisoning the interner");
        })
        .join()
        .expect_err("the thread panics");
        assert!(interner().is_poisoned());
        let new = Symbol::intern("interned after the poisoning");
        assert_eq!(new.as_str(), "interned after the poisoning");
        assert_eq!(Symbol::intern("interned after the poisoning"), new);
        assert_eq!(Symbol::intern("interned before the poisoning"), old);
        assert_eq!(old.as_str(), "interned before the poisoning");
    }

    #[test]
    fn intern_is_idempotent() {
        let a = Symbol::intern("hello-intern-test");
        let b = Symbol::intern("hello-intern-test");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "hello-intern-test");
    }

    #[test]
    fn distinct_strings_distinct_symbols() {
        assert_ne!(Symbol::intern("alpha-x"), Symbol::intern("alpha-y"));
    }

    #[test]
    fn ordering_is_string_order() {
        // Intern in reverse lexicographic order so index order and string
        // order disagree.
        let b = Symbol::intern("zz-order-test");
        let a = Symbol::intern("aa-order-test");
        assert!(a < b);
        assert!(a <= a);
    }

    #[test]
    fn stable_hash_is_content_derived() {
        let a = Symbol::intern("stable-hash-a");
        let b = Symbol::intern("stable-hash-a");
        let c = Symbol::intern("stable-hash-c");
        assert_eq!(a.stable_hash(), b.stable_hash());
        assert_ne!(a.stable_hash(), c.stable_hash());
        // Pure function of the bytes, not the intern-order index.
        assert_eq!(a.stable_hash(), stable_str_hash("stable-hash-a"));
        // Prefix-padding does not collide with the padded word.
        assert_ne!(
            stable_str_hash("p"),
            stable_str_hash("p\0"),
            "length must participate in the stable hash"
        );
    }

    #[test]
    fn deref_gives_str_methods() {
        let s = Symbol::intern("has,comma");
        assert!(s.contains(','));
        assert_eq!(&*s, "has,comma");
    }

    #[test]
    fn cross_thread_resolution() {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..500 {
                        let s = format!("thread-{}-{}", t % 2, i);
                        let sym = Symbol::intern(&s);
                        assert_eq!(sym.as_str(), s);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no panics");
        }
        // Duplicate interning across threads converged on one id.
        assert_eq!(Symbol::intern("thread-0-0"), Symbol::intern("thread-0-0"));
    }
}
