//! Binary serialization for [`Value`], [`Relation`], and [`Database`] —
//! the codec underneath the durability layer's checkpoints and write-ahead
//! log (`dynamite_datalog::durable`).
//!
//! # Design constraints
//!
//! - **Strings serialize by text, never by interner id.**
//!   [`Symbol`](crate::Symbol) indices are dense handles into a
//!   *process-global* append-only table; the table's layout depends on
//!   interning order, so a raw index written by one process is garbage
//!   to the next.
//!   [`write_value`] therefore emits the UTF-8 bytes and [`read_value`]
//!   re-interns them, which also guarantees a decoded store's per-column
//!   statistics match a live store's (statistics are a function of the
//!   current distinct-value set).
//! - **Deterministic bytes.** Encoding a database twice — or encoding the
//!   result of a decode — produces identical bytes: relations serialize
//!   in [`Database`]'s name order (a `BTreeMap`) and rows in insertion
//!   order, which the decoder reproduces by re-inserting in sequence.
//! - **Fail closed.** Every decoder returns a typed, position-carrying
//!   [`BinError`] instead of panicking; the durability layer maps any
//!   decode error to "this checkpoint/frame is corrupt" and falls back.
//!
//! All integers are little-endian fixed width. The checkpoint/WAL *file*
//! framing (magic numbers, CRC placement, fsync discipline) lives with
//! the durability layer; this module is only the payload codec plus the
//! shared [`crc32`] routine.

use std::fmt;

use crate::{Database, Relation, Value};

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) of `bytes` —
/// the checksum framing every WAL frame and checkpoint payload.
pub fn crc32(bytes: &[u8]) -> u32 {
    // Table built on first use; 1 KiB, shared process-wide.
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        table
    });
    let mut crc = !0u32;
    for &b in bytes {
        crc = table[usize::from((crc as u8) ^ b)] ^ (crc >> 8);
    }
    !crc
}

/// A decode failure: what went wrong and the byte offset (within the
/// buffer handed to the [`Reader`]) where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinError {
    /// Byte offset at which the error was detected.
    pub at: usize,
    /// What went wrong.
    pub kind: BinErrorKind,
}

/// The kinds of [`BinError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinErrorKind {
    /// The buffer ended mid-field (`needed` more bytes).
    UnexpectedEof {
        /// How many more bytes the field required.
        needed: usize,
    },
    /// A value tag byte outside the known variants.
    BadValueTag(u8),
    /// A string field that is not valid UTF-8.
    BadUtf8,
    /// A structural invariant failed (duplicate row, out-of-order
    /// relation name, length overflow, …).
    Corrupt(&'static str),
}

impl fmt::Display for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            BinErrorKind::UnexpectedEof { needed } => {
                write!(
                    f,
                    "unexpected end of input at byte {} ({needed} more bytes needed)",
                    self.at
                )
            }
            BinErrorKind::BadValueTag(tag) => {
                write!(f, "invalid value tag {tag} at byte {}", self.at)
            }
            BinErrorKind::BadUtf8 => write!(f, "invalid UTF-8 in string at byte {}", self.at),
            BinErrorKind::Corrupt(what) => {
                write!(f, "corrupt encoding at byte {}: {what}", self.at)
            }
        }
    }
}

impl std::error::Error for BinError {}

/// A position-tracked reader over a byte buffer. Every read either
/// consumes exactly its field or returns a [`BinError`] carrying the
/// offset it failed at; nothing panics on malformed input.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps `buf` with the cursor at offset 0.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// The current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes remaining after the cursor.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Returns `true` once the whole buffer is consumed.
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn err(&self, kind: BinErrorKind) -> BinError {
        BinError { at: self.pos, kind }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], BinError> {
        if self.remaining() < n {
            return Err(self.err(BinErrorKind::UnexpectedEof {
                needed: n - self.remaining(),
            }));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn read_u8(&mut self) -> Result<u8, BinError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&mut self) -> Result<u32, BinError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self) -> Result<u64, BinError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn read_i64(&mut self) -> Result<i64, BinError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn read_str(&mut self) -> Result<&'a str, BinError> {
        let len = self.read_u32()? as usize;
        let start = self.pos;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| BinError {
            at: start,
            kind: BinErrorKind::BadUtf8,
        })
    }
}

/// Appends one byte.
pub fn write_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u32`.
pub fn write_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn write_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `i64`.
pub fn write_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32`-length-prefixed UTF-8 string.
///
/// # Panics
/// Panics if the string exceeds `u32::MAX` bytes.
pub fn write_str(out: &mut Vec<u8>, s: &str) {
    let len = u32::try_from(s.len()).expect("string longer than u32::MAX bytes");
    write_u32(out, len);
    out.extend_from_slice(s.as_bytes());
}

// Value tags. Deliberately the same numbering as `Value::to_raw` so the
// on-disk and in-memory tag streams read alike in a hex dump, but the
// payloads differ: `Str` is the text here, never the interner index.
const TAG_INT: u8 = 0;
const TAG_STR: u8 = 1;
const TAG_BOOL: u8 = 2;
const TAG_ID: u8 = 3;

/// Widest relation the codec writes or reads. Far above any schema's
/// record width, and low enough that a corrupt arity prefix cannot make
/// the decoder allocate more than a few hundred KiB of empty columns.
const MAX_ARITY: usize = 4096;

/// Appends one [`Value`]: a tag byte followed by the variant payload.
/// Strings are written as text (see the module docs for why).
pub fn write_value(out: &mut Vec<u8>, v: Value) {
    match v {
        Value::Int(i) => {
            write_u8(out, TAG_INT);
            write_i64(out, i);
        }
        Value::Str(s) => {
            write_u8(out, TAG_STR);
            write_str(out, s.as_str());
        }
        Value::Bool(b) => {
            write_u8(out, TAG_BOOL);
            write_u8(out, u8::from(b));
        }
        Value::Id(i) => {
            write_u8(out, TAG_ID);
            write_u64(out, i);
        }
    }
}

/// Reads one [`Value`], re-interning string payloads.
pub fn read_value(r: &mut Reader<'_>) -> Result<Value, BinError> {
    let at = r.position();
    match r.read_u8()? {
        TAG_INT => Ok(Value::Int(r.read_i64()?)),
        TAG_STR => Ok(Value::str(r.read_str()?)),
        TAG_BOOL => match r.read_u8()? {
            0 => Ok(Value::Bool(false)),
            1 => Ok(Value::Bool(true)),
            _ => Err(BinError {
                at,
                kind: BinErrorKind::Corrupt("boolean payload not 0/1"),
            }),
        },
        TAG_ID => Ok(Value::Id(r.read_u64()?)),
        tag => Err(BinError {
            at,
            kind: BinErrorKind::BadValueTag(tag),
        }),
    }
}

/// Appends one [`Relation`]: a tracked flag (whether the store maintains
/// per-column statistics), arity, row count, then rows in insertion order.
///
/// # Panics
/// Panics if the relation is wider than the codec's arity bound (4096).
pub fn write_relation(out: &mut Vec<u8>, rel: &Relation) {
    let tracked = rel.column_stats(0).is_some() || rel.arity() == 0;
    assert!(rel.arity() <= MAX_ARITY, "arity exceeds {MAX_ARITY}");
    write_u8(out, u8::from(tracked));
    write_u32(out, rel.arity() as u32);
    write_u64(out, rel.len() as u64);
    for row in rel.iter() {
        for v in row.iter() {
            write_value(out, v);
        }
    }
}

/// Reads one [`Relation`], rebuilding it row by row so insertion order —
/// and therefore iteration order — matches the store that was encoded.
/// A duplicate row is a structural corruption ([`write_relation`] never
/// emits one, since stores deduplicate on insert).
pub fn read_relation(r: &mut Reader<'_>) -> Result<Relation, BinError> {
    let at = r.position();
    let tracked = match r.read_u8()? {
        0 => false,
        1 => true,
        _ => {
            return Err(BinError {
                at,
                kind: BinErrorKind::Corrupt("tracked flag not 0/1"),
            })
        }
    };
    let arity = r.read_u32()? as usize;
    if arity > MAX_ARITY {
        return Err(BinError {
            at,
            kind: BinErrorKind::Corrupt("arity exceeds bound"),
        });
    }
    let rows = r.read_u64()?;
    // Reject row counts that could not possibly fit in the remaining
    // buffer (each row needs at least `arity` tag bytes, and a row of
    // arity 0 still needs the count to be 0 or 1 after dedup) before
    // attempting a huge allocation.
    let min_row_bytes = arity.max(1);
    if rows > (r.remaining() / min_row_bytes).max(1) as u64 {
        return Err(BinError {
            at,
            kind: BinErrorKind::Corrupt("row count exceeds buffer"),
        });
    }
    let mut rel = if tracked {
        Relation::new(arity)
    } else {
        Relation::new_untracked(arity)
    };
    let mut row = Vec::with_capacity(arity);
    for _ in 0..rows {
        row.clear();
        for _ in 0..arity {
            row.push(read_value(r)?);
        }
        let at = r.position();
        if !rel.insert(&row) {
            return Err(BinError {
                at,
                kind: BinErrorKind::Corrupt("duplicate row"),
            });
        }
    }
    Ok(rel)
}

/// Appends one [`Database`]: a relation count followed by `(name,
/// relation)` pairs in name order (the database's own `BTreeMap` order,
/// so encoding is deterministic).
pub fn write_database(out: &mut Vec<u8>, db: &Database) {
    let rels: Vec<_> = db.iter().collect();
    write_u32(
        out,
        u32::try_from(rels.len()).expect("relation count exceeds u32"),
    );
    for (name, rel) in rels {
        write_str(out, name);
        write_relation(out, rel);
    }
}

/// Reads one [`Database`], requiring names in strictly ascending order
/// (what [`write_database`] emits; anything else is corruption).
pub fn read_database(r: &mut Reader<'_>) -> Result<Database, BinError> {
    let count = r.read_u32()?;
    let mut rels = Vec::with_capacity(count.min(1024) as usize);
    let mut prev: Option<String> = None;
    for _ in 0..count {
        let at = r.position();
        let name = r.read_str()?.to_string();
        if prev.as_deref().is_some_and(|p| p >= name.as_str()) {
            return Err(BinError {
                at,
                kind: BinErrorKind::Corrupt("relation names out of order"),
            });
        }
        let rel = read_relation(r)?;
        prev = Some(name.clone());
        rels.push((name, rel));
    }
    Ok(Database::from_relations(rels))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn primitive_round_trips() {
        let mut buf = Vec::new();
        write_u8(&mut buf, 0xAB);
        write_u32(&mut buf, 0xDEAD_BEEF);
        write_u64(&mut buf, u64::MAX - 1);
        write_i64(&mut buf, -42);
        write_str(&mut buf, "héllo");
        let mut r = Reader::new(&buf);
        assert_eq!(r.read_u8().unwrap(), 0xAB);
        assert_eq!(r.read_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.read_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.read_i64().unwrap(), -42);
        assert_eq!(r.read_str().unwrap(), "héllo");
        assert!(r.is_empty());
    }

    #[test]
    fn value_round_trips() {
        let values = [
            Value::Int(i64::MIN),
            Value::Int(0),
            Value::str("binio-α"),
            Value::str(""),
            Value::Bool(true),
            Value::Bool(false),
            Value::Id(u64::MAX),
        ];
        let mut buf = Vec::new();
        for v in values {
            write_value(&mut buf, v);
        }
        let mut r = Reader::new(&buf);
        for v in values {
            assert_eq!(read_value(&mut r).unwrap(), v);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn relation_round_trip_preserves_row_order() {
        let mut rel = Relation::new(2);
        rel.insert(&[Value::str("z-order"), Value::Int(1)]);
        rel.insert(&[Value::str("a-order"), Value::Int(2)]);
        rel.insert(&[Value::Int(3), Value::Id(9)]);
        let mut buf = Vec::new();
        write_relation(&mut buf, &rel);
        let back = read_relation(&mut Reader::new(&buf)).unwrap();
        assert_eq!(back.arity(), 2);
        assert_eq!(back.len(), rel.len());
        // Order, not just set equality.
        let rows = |r: &Relation| -> Vec<Vec<Value>> {
            r.iter().map(|row| row.iter().collect()).collect()
        };
        assert_eq!(rows(&back), rows(&rel));
        // Tracked store comes back tracked, with equal statistics.
        assert!(back.column_stats(0).is_some());
        assert_eq!(
            back.column_stats(0).unwrap().distinct_estimate(back.len()),
            rel.column_stats(0).unwrap().distinct_estimate(rel.len())
        );
    }

    #[test]
    fn untracked_relation_round_trips_untracked() {
        let mut rel = Relation::new_untracked(1);
        rel.insert(&[Value::Int(7)]);
        let mut buf = Vec::new();
        write_relation(&mut buf, &rel);
        let back = read_relation(&mut Reader::new(&buf)).unwrap();
        assert!(back.column_stats(0).is_none());
        assert_eq!(back.len(), 1);
    }

    #[test]
    fn database_round_trip_is_deterministic() {
        let mut db = Database::new();
        db.insert("Edge", vec![Value::Int(1), Value::Int(2)]);
        db.insert("Edge", vec![Value::Int(2), Value::Int(3)]);
        db.insert("Name", vec![Value::Int(1), Value::str("one")]);
        db.relation_mut("Empty", 3);
        let mut buf = Vec::new();
        write_database(&mut buf, &db);
        let back = read_database(&mut Reader::new(&buf)).unwrap();
        assert_eq!(back, db);
        // Empty relations survive (the durability layer depends on the
        // derived overlay carrying every intensional relation, even
        // empty ones).
        assert_eq!(back.relation("Empty").map(Relation::arity), Some(3));
        // Re-encoding the decode yields identical bytes.
        let mut buf2 = Vec::new();
        write_database(&mut buf2, &back);
        assert_eq!(buf, buf2);
    }

    #[test]
    fn truncated_buffers_error_at_every_prefix() {
        let mut db = Database::new();
        db.insert(
            "R",
            vec![Value::str("torn"), Value::Int(-1), Value::Bool(true)],
        );
        db.insert(
            "R",
            vec![Value::str("tail"), Value::Int(2), Value::Bool(false)],
        );
        let mut buf = Vec::new();
        write_database(&mut buf, &db);
        for cut in 0..buf.len() {
            let err = read_database(&mut Reader::new(&buf[..cut]))
                .expect_err("truncated buffer must not decode");
            assert!(err.at <= cut, "error offset {} past cut {cut}", err.at);
        }
        // The full buffer still decodes.
        assert_eq!(read_database(&mut Reader::new(&buf)).unwrap(), db);
    }

    #[test]
    fn corrupt_structures_are_rejected() {
        // Bad value tag.
        let mut r = Reader::new(&[9u8]);
        assert!(matches!(
            read_value(&mut r).unwrap_err().kind,
            BinErrorKind::BadValueTag(9)
        ));
        // Bad boolean payload.
        let mut r = Reader::new(&[TAG_BOOL, 7]);
        assert!(matches!(
            read_value(&mut r).unwrap_err().kind,
            BinErrorKind::Corrupt(_)
        ));
        // Non-UTF-8 string.
        let mut buf = Vec::new();
        write_u8(&mut buf, TAG_STR);
        write_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(
            read_value(&mut Reader::new(&buf)).unwrap_err().kind,
            BinErrorKind::BadUtf8
        ));
        // Duplicate row.
        let mut buf = Vec::new();
        write_u8(&mut buf, 1); // tracked
        write_u32(&mut buf, 1); // arity
        write_u64(&mut buf, 2); // rows
        write_value(&mut buf, Value::Int(5));
        write_value(&mut buf, Value::Int(5));
        assert!(matches!(
            read_relation(&mut Reader::new(&buf)).unwrap_err().kind,
            BinErrorKind::Corrupt("duplicate row")
        ));
        // Absurd row count fails fast instead of allocating.
        let mut buf = Vec::new();
        write_u8(&mut buf, 1);
        write_u32(&mut buf, 2);
        write_u64(&mut buf, u64::MAX);
        assert!(matches!(
            read_relation(&mut Reader::new(&buf)).unwrap_err().kind,
            BinErrorKind::Corrupt("row count exceeds buffer")
        ));
        // Absurd arity on an empty relation fails instead of allocating
        // one column per position.
        let mut buf = Vec::new();
        write_u8(&mut buf, 1);
        write_u32(&mut buf, u32::MAX);
        write_u64(&mut buf, 0);
        assert!(matches!(
            read_relation(&mut Reader::new(&buf)).unwrap_err().kind,
            BinErrorKind::Corrupt("arity exceeds bound")
        ));
        // Out-of-order relation names.
        let mut buf = Vec::new();
        write_u32(&mut buf, 2);
        for name in ["B", "A"] {
            write_str(&mut buf, name);
            write_relation(&mut buf, &Relation::new(0));
        }
        assert!(matches!(
            read_database(&mut Reader::new(&buf)).unwrap_err().kind,
            BinErrorKind::Corrupt("relation names out of order")
        ));
    }
}
