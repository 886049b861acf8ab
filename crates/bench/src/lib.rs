//! Experiment harness library: the durable workload shared by the crash
//! harness and its child binary. The table/figure binaries are the
//! `bin/` targets; DESIGN.md indexes the experiments.

#![forbid(unsafe_code)]

pub mod crash_stream {
    //! The deterministic durable workload shared by the out-of-process
    //! crash harness (`tests/crash_harness.rs`) and its child binary
    //! (`bin/crash_child.rs`).
    //!
    //! Parent and child are **separate processes** that must compute the
    //! identical batch stream from first principles: the parent pins the
    //! recovered on-disk state bit-identically (contents *and* row
    //! order) against its own uninterrupted reference timeline, so any
    //! ambient randomness or process-local state leaking in here would
    //! be indistinguishable from a recovery bug. String data rides along
    //! deliberately — interner ids differ across processes (and can be
    //! skewed further with [`skew_intern`]), and recovery must not care.

    use dynamite_datalog::durable::DurableOptions;
    use dynamite_datalog::Program;
    use dynamite_instance::{Database, Value};

    /// Batches in the canonical stream.
    pub const STREAM_LEN: usize = 12;
    /// Seed of the canonical stream.
    pub const SEED: u64 = 0x5EED_CAB1E;

    /// Deterministic LCG — same constants as the in-process durability
    /// tests; the stream must not depend on ambient randomness.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }

    /// Recursive reachability with labeled sources: recursion stresses
    /// the replan-at-checkpoint path, strings stress the by-content
    /// serialization path.
    pub fn program() -> Program {
        Program::parse(
            "Path(x, y) :- Edge(x, y).
             Path(x, z) :- Path(x, y), Edge(y, z).
             Reach(y) :- Source(x), Path(x, y).",
        )
        .unwrap()
    }

    fn edge(a: u64, b: u64) -> Vec<Value> {
        vec![Value::Int(a as i64), Value::Int(b as i64)]
    }

    /// The seed EDB: chain graphs plus labeled sources with string data.
    pub fn seed_edb() -> Database {
        let mut edb = Database::new();
        for c in 0..20u64 {
            let base = c * 10;
            for i in 0..6 {
                edb.insert("Edge", edge(base + i, base + i + 1));
            }
            edb.insert("Source", vec![Value::Int(base as i64)]);
            edb.insert(
                "Label",
                vec![Value::Int(base as i64), Value::str(format!("chain-{c}"))],
            );
        }
        edb
    }

    /// A deterministic stream of insert/delete batches over the chain
    /// graph.
    pub fn batches(n: usize, seed: u64) -> Vec<(Database, Database)> {
        let mut rng = Lcg(seed);
        (0..n)
            .map(|_| {
                let mut ins = Database::new();
                let mut dels = Database::new();
                for _ in 0..6 {
                    let a = rng.next() % 200;
                    ins.insert("Edge", edge(a, rng.next() % 200));
                    dels.insert("Edge", edge(rng.next() % 200, rng.next() % 200));
                }
                (ins, dels)
            })
            .collect()
    }

    /// Durability profiles the harness drives cells under.
    ///
    /// * `"aggressive"` — compaction after essentially every batch, so
    ///   checkpoint-write and WAL-rotation fault points fire early and
    ///   often;
    /// * `"walheavy"` — no automatic compaction, so every batch stays a
    ///   replayable WAL frame and append/torn-tail points dominate.
    pub fn options(profile: &str) -> DurableOptions {
        match profile {
            "aggressive" => DurableOptions {
                compact_wal_ratio: 0.0,
                compact_min_wal_bytes: 256,
                ..DurableOptions::default()
            },
            "walheavy" => DurableOptions {
                compact_min_wal_bytes: u64::MAX,
                ..DurableOptions::default()
            },
            other => panic!("unknown crash-stream profile {other:?}"),
        }
    }

    /// Bit-identity projection: relation contents *in row order*.
    pub fn ordered_rows(db: &Database) -> Vec<(String, Vec<Vec<Value>>)> {
        db.iter()
            .map(|(name, rel)| {
                (
                    name.to_string(),
                    rel.iter().map(|r| r.iter().collect()).collect(),
                )
            })
            .collect()
    }

    /// Perturbs the process-global interner with `tag`-derived strings
    /// so this process's interner ids diverge wildly from any other
    /// process's. Recovery bit-identity must survive this — column
    /// statistics (and therefore join plans) are a function of string
    /// *content*, never of interner ids.
    pub fn skew_intern(tag: &str) {
        for i in 0..512 {
            let _ = Value::str(format!("skew-{tag}-{i}"));
        }
    }
}
