use std::fmt;

use crate::intern::Symbol;

/// A Datalog constant / primitive field value.
///
/// Synthetic record identifiers ([`Value::Id`]) are generated during the
/// instance→facts translation (§3.3) and deliberately form a type of their
/// own so that they can never collide with integer data.
///
/// Strings are interned ([`Symbol`]): every `Value` is a `Copy` word pair,
/// so tuples compare and hash without touching string bytes — the property
/// the evaluator's join keys and deduplication sets rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Value {
    /// A 64-bit integer.
    Int(i64),
    /// An interned UTF-8 string.
    Str(Symbol),
    /// A boolean.
    Bool(bool),
    /// A synthetic record identifier (`Id(r)` in §3.3).
    Id(u64),
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Symbol::intern(s.as_ref()))
    }

    /// Returns the inner string if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Returns the inner integer if this is an integer value.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns `true` for synthetic identifiers.
    pub fn is_id(&self) -> bool {
        matches!(self, Value::Id(_))
    }

    /// The primitive type of this value, if it is primitive data
    /// (identifiers have no primitive type).
    pub fn prim_type(&self) -> Option<dynamite_schema::PrimType> {
        use dynamite_schema::PrimType;
        match self {
            Value::Int(_) => Some(PrimType::Int),
            Value::Str(_) => Some(PrimType::Str),
            Value::Bool(_) => Some(PrimType::Bool),
            Value::Id(_) => None,
        }
    }

    /// The canonical `(tag, payload)` decomposition of this value — the
    /// unit of the structure-of-arrays column layout
    /// ([`ColumnSlices`](crate::ColumnSlices)): the tag is the variant
    /// (0 = `Int`, 1 = `Str`, 2 = `Bool`, 3 = `Id`), the payload the
    /// variant's canonical 64-bit pattern. Two values are equal **iff**
    /// their tags and payloads are both equal, and both comparisons are
    /// plain integer compares — no discriminant branch, no string
    /// resolution — which is what lets [`TupleStore`](crate::TupleStore)'s
    /// dedup probe compare raw stream words.
    #[inline(always)]
    pub fn to_raw(self) -> (u8, u64) {
        match self {
            Value::Int(i) => (0, i as u64),
            Value::Str(s) => (1, u64::from(s.index())),
            Value::Bool(b) => (2, u64::from(b)),
            Value::Id(i) => (3, i),
        }
    }

    /// Reassembles a value from a [`Value::to_raw`] decomposition.
    ///
    /// Crate-internal on purpose: the pair must originate from a real
    /// value (a garbage string payload would produce a [`Symbol`] with no
    /// intern-table entry behind it), and the columnar store only ever
    /// stores pairs produced by `to_raw`.
    #[inline(always)]
    pub(crate) fn from_raw(tag: u8, payload: u64) -> Value {
        match tag {
            0 => Value::Int(payload as i64),
            1 => Value::Str(Symbol::from_index(payload as u32)),
            2 => Value::Bool(payload != 0),
            3 => Value::Id(payload),
            _ => unreachable!("invalid value tag {tag}"),
        }
    }

    /// The canonical bit pattern of this value: [`Value::to_raw`]'s tag in
    /// the high word, its payload in the low word. Two values are equal
    /// **iff** their bit patterns are equal — the property the statistics
    /// layer ([`ColumnStats`](crate::ColumnStats)) relies on.
    ///
    /// The *ordering* of bit patterns is a total order consistent with
    /// equality but deliberately **not** [`Value`]'s semantic `Ord`
    /// (interned strings order by table index here, integers by raw
    /// two's-complement bits): it is only suitable for membership
    /// pruning and hashing, never for user-visible sorting.
    #[inline(always)]
    pub fn to_bits(self) -> u128 {
        let (tag, payload) = self.to_raw();
        (u128::from(tag) << 64) | u128::from(payload)
    }

    /// Like [`Value::to_bits`], but **stable across processes**: the `Str`
    /// payload is the content-derived [`Symbol::stable_hash`] instead of
    /// the process-local intern index. Equal values always map to equal
    /// patterns; distinct strings may collide (hash), so this pattern is
    /// *one-sided* — suitable for conservative membership pruning and
    /// sketching ([`ColumnStats`](crate::ColumnStats)), where a collision
    /// only weakens an estimate, and required wherever the derived
    /// quantity must be identical in every process (the planner's join
    /// orders, hence durable recovery's bit-identical replay).
    #[inline(always)]
    pub fn to_stable_bits(self) -> u128 {
        match self {
            Value::Str(s) => (1u128 << 64) | u128::from(s.stable_hash()),
            other => other.to_bits(),
        }
    }

    /// Variant rank used to keep the `Ord` impl aligned with the historic
    /// derive order (`Int < Str < Bool < Id`).
    fn rank(&self) -> u8 {
        match self {
            Value::Int(_) => 0,
            Value::Str(_) => 1,
            Value::Bool(_) => 2,
            Value::Id(_) => 3,
        }
    }
}

// Ordering is implemented by hand because interned symbols order by table
// index, while `Value` ordering must stay observable-equivalent to the
// previous `Str(Arc<str>)` representation (lexicographic on the string).
impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Value) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Value) -> std::cmp::Ordering {
        self.rank()
            .cmp(&other.rank())
            .then_with(|| match (self, other) {
                (Value::Int(a), Value::Int(b)) => a.cmp(b),
                (Value::Str(a), Value::Str(b)) => a.cmp(b),
                (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
                (Value::Id(a), Value::Id(b)) => a.cmp(b),
                _ => unreachable!("equal ranks imply equal variants"),
            })
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Value {
        Value::Int(i64::from(i))
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::str(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{:?}", s.as_str()),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Id(i) => write!(f, "#{i}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3), Value::Int(3));
        assert_eq!(Value::from("x"), Value::str("x"));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(3).as_int(), Some(3));
        assert_eq!(Value::str("x").as_str(), Some("x"));
    }

    #[test]
    fn ids_are_distinct_from_ints() {
        assert_ne!(Value::Id(3), Value::Int(3));
        assert!(Value::Id(3).is_id());
        assert!(!Value::Int(3).is_id());
        assert_eq!(Value::Id(3).prim_type(), None);
    }

    #[test]
    fn display() {
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::str("a\"b").to_string(), "\"a\\\"b\"");
        assert_eq!(Value::Id(7).to_string(), "#7");
        assert_eq!(Value::Bool(false).to_string(), "false");
    }

    #[test]
    fn ordering_matches_pre_interning_semantics() {
        // Within strings: lexicographic, regardless of intern order.
        let z = Value::str("z-value-ord");
        let a = Value::str("a-value-ord");
        assert!(a < z);
        // Across variants: Int < Str < Bool < Id (historic derive order).
        assert!(Value::Int(i64::MAX) < Value::str("a"));
        assert!(Value::str("z") < Value::Bool(false));
        assert!(Value::Bool(true) < Value::Id(0));
    }

    #[test]
    fn bit_patterns_agree_with_equality() {
        let values = [
            Value::Int(0),
            Value::Int(-1),
            Value::Int(i64::MAX),
            Value::str("bits-a"),
            Value::str("bits-b"),
            Value::Bool(false),
            Value::Bool(true),
            Value::Id(0),
            Value::Id(u64::MAX),
        ];
        for a in values {
            for b in values {
                assert_eq!(a == b, a.to_bits() == b.to_bits(), "{a} vs {b}");
            }
        }
        // Cross-variant payload collisions stay distinct via the tag word.
        assert_ne!(Value::Int(3).to_bits(), Value::Id(3).to_bits());
        assert_ne!(Value::Bool(true).to_bits(), Value::Int(1).to_bits());
    }

    #[test]
    fn stable_bits_agree_with_equality_and_ignore_intern_order() {
        let values = [
            Value::Int(-1),
            Value::str("stable-bits-a"),
            Value::str("stable-bits-b"),
            Value::Bool(true),
            Value::Id(9),
        ];
        for a in values {
            for b in values {
                assert_eq!(
                    a == b,
                    a.to_stable_bits() == b.to_stable_bits(),
                    "{a} vs {b}"
                );
            }
        }
        // Non-string variants: stable bits are exactly the canonical bits.
        assert_eq!(Value::Int(-1).to_stable_bits(), Value::Int(-1).to_bits());
        assert_eq!(Value::Id(9).to_stable_bits(), Value::Id(9).to_bits());
        // Strings keep the Str tag word (cross-variant disjointness).
        assert_eq!(Value::str("x").to_stable_bits() >> 64, 1);
    }

    #[test]
    fn interned_equality_is_string_equality() {
        assert_eq!(Value::str(String::from("dup")), Value::str("dup"));
        assert_ne!(Value::str("dup"), Value::str("dup2"));
    }
}
