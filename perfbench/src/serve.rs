//! `serve-live`: one long-lived Yelp-2 (document → graph) session over a
//! seeded generated source of ~36 k facts, under a closed-loop stream of
//! one write per 20 reads from a single client.
//!
//! - A write is a batch of 32 deletes, sampled from the live source
//!   facts, and 32 inserts, taken from a second-seed instance. It is
//!   acknowledged once `DurableMigration::apply_delta` (default options:
//!   fsync on, auto-checkpoint on) and `ServedMigration::apply_delta`
//!   have both returned — the composition read-your-writes needs.
//! - A read is `ServedMigration::query(relation, key)` with one bound key
//!   drawn with Zipf skew, so both cache hits and cold fixpoints occur.
//! - The stream ends with a forced checkpoint, a drop and a
//!   `DurableMigration::open`, repeated to take their median.
//!
//! Every read is compared with a filter of the durable session's
//! maintained output; at the end `audit()` must be clean and each
//! reopened state must equal the state before the close.

use std::collections::{BTreeSet, HashMap};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dynamite_bench_suite::by_name;
use dynamite_datalog::Program;
use dynamite_instance::{to_facts, Database, Field, Instance, Value};
use dynamite_migrate::{DurableMigration, MigrateError, ServedMigration};
use dynamite_perfbench::trace::{self, span};
use dynamite_perfbench::util::{facts_set_eq, median, percentile, Rng, Zipf};
use dynamite_schema::Schema;

use crate::report::{end_to_end, trace_layers, write_spans, Outcome, Pass};

/// Dataset scale: 8 000 businesses, ~36 k source facts.
pub const SCALE: u64 = 200;
const SCENARIO: &str = "Yelp-2";
const READS_PER_WRITE: usize = 20;
const BATCH_DELETES: usize = 32;
const BATCH_INSERTS: usize = 32;
/// Zipf exponent of read keys. The query cache is cleared by every
/// write, so about a quarter of reads hit it.
const ZIPF_S: f64 = 1.4;
const SETUP_REPEATS: usize = 5;
const END_REPEATS: usize = 3;

const DURABLE: &str = "datalog.durable";
const QUERY: &str = "datalog.query";

/// Target relations read, each keyed by its first column, and the source
/// relation and column its keys are drawn from.
const READS: [(&str, &str, usize); 3] = [
    ("BizN", "Business", 0),
    ("HasRev", "Business", 0),
    ("RevN", "Review", 1),
];

/// The live source facts, mirrored so deletes can be sampled from them.
struct Live {
    facts: Vec<(String, Vec<Value>)>,
    pos: HashMap<(String, Vec<Value>), usize>,
}

impl Live {
    fn new(db: &Database) -> Live {
        let mut live = Live {
            facts: Vec::new(),
            pos: HashMap::new(),
        };
        for (name, rel) in db.iter() {
            for row in rel.iter() {
                live.add(name.to_string(), row.to_vec());
            }
        }
        live
    }

    fn add(&mut self, rel: String, row: Vec<Value>) {
        let key = (rel, row);
        if !self.pos.contains_key(&key) {
            self.pos.insert(key.clone(), self.facts.len());
            self.facts.push(key);
        }
    }

    fn remove_at(&mut self, i: usize) -> (String, Vec<Value>) {
        let fact = self.facts.swap_remove(i);
        self.pos.remove(&fact);
        if let Some(moved) = self.facts.get(i) {
            self.pos.insert(moved.clone(), i);
        }
        fact
    }
}

/// The seeded operation stream.
struct Stream {
    rng: Rng,
    live: Live,
    inserts: Vec<(String, Vec<Value>)>,
    next_insert: usize,
    keys: Vec<Vec<Value>>,
    zipf: Vec<Zipf>,
}

impl Stream {
    fn new(seed: u64, edb: &Database, inserts: &Database) -> Stream {
        let mut rng = Rng::new(seed);
        let mut keys = Vec::new();
        for &(_, src, col) in &READS {
            let distinct: BTreeSet<Value> = edb
                .relation(src)
                .map(|r| r.iter().map(|row| row.to_vec()[col]).collect())
                .unwrap_or_default();
            let mut ks: Vec<Value> = distinct.into_iter().collect();
            for i in (1..ks.len()).rev() {
                ks.swap(i, rng.below(i + 1));
            }
            keys.push(ks);
        }
        let zipf = keys.iter().map(|k| Zipf::new(k.len(), ZIPF_S)).collect();
        let mut pool: Vec<(String, Vec<Value>)> = inserts
            .iter()
            .flat_map(|(n, r)| r.iter().map(move |row| (n.to_string(), row.to_vec())))
            .collect();
        for i in (1..pool.len()).rev() {
            pool.swap(i, rng.below(i + 1));
        }
        Stream {
            rng,
            live: Live::new(edb),
            inserts: pool,
            next_insert: 0,
            keys,
            zipf,
        }
    }

    /// The next write: `(inserts, deletes)`.
    fn write(&mut self) -> (Database, Database) {
        let mut del = Database::new();
        for _ in 0..BATCH_DELETES.min(self.live.facts.len()) {
            let (rel, row) = self.live.remove_at(self.rng.below(self.live.facts.len()));
            del.insert(&rel, row);
        }
        let mut ins = Database::new();
        for _ in 0..BATCH_INSERTS {
            let (rel, row) = self.inserts[self.next_insert % self.inserts.len()].clone();
            self.next_insert += 1;
            ins.insert(&rel, row.clone());
            self.live.add(rel, row);
        }
        (ins, del)
    }

    /// The next read: `(read index, key)`.
    fn read(&mut self) -> (usize, Value) {
        let r = self.rng.below(READS.len());
        let rank = self.zipf[r].sample(&mut self.rng);
        (r, self.keys[r][rank])
    }
}

/// `db` with its record identifiers shifted past every identifier in
/// `taken`, so inserted nested records do not alias live ones.
fn fresh_ids(db: &Database, taken: &Database) -> Database {
    let max_id = |db: &Database| {
        db.iter()
            .flat_map(|(_, r)| r.iter().flat_map(|row| row.to_vec()))
            .filter_map(|v| match v {
                Value::Id(i) => Some(i),
                _ => None,
            })
            .max()
    };
    let offset = max_id(taken).map_or(0, |m| m + 1);
    let mut out = Database::new();
    for (name, rel) in db.iter() {
        out.extend_rows(
            name,
            rel.arity(),
            rel.iter().map(|row| {
                row.to_vec()
                    .into_iter()
                    .map(|v| match v {
                        Value::Id(i) => Value::Id(i + offset),
                        v => v,
                    })
                    .collect()
            }),
        );
    }
    out
}

/// A read awaiting its check: read index, key, rows returned.
type Pending = Vec<(usize, Value, BTreeSet<Vec<Value>>)>;

/// Checks each pending read against a filter of the durable session's
/// maintained output (which no write has changed since the reads).
fn verify_reads(dm: &mut DurableMigration, pending: &mut Pending, out: &mut Outcome) {
    if pending.is_empty() {
        return;
    }
    let target: Instance = match dm.target() {
        Ok(t) => t,
        Err(e) => {
            for _ in pending.drain(..) {
                out.fail(format!("maintained output unavailable: {e}"));
            }
            return;
        }
    };
    let mut want: HashMap<(usize, Value), BTreeSet<Vec<Value>>> = pending
        .iter()
        .map(|(r, key, _)| ((*r, *key), BTreeSet::new()))
        .collect();
    for (r, &(rel, _, _)) in READS.iter().enumerate() {
        for rec in target.records(rel) {
            let Some(Field::Prim(key)) = rec.fields().first() else {
                continue;
            };
            if let Some(rows) = want.get_mut(&(r, *key)) {
                rows.insert(
                    rec.fields()
                        .iter()
                        .filter_map(|f| match f {
                            Field::Prim(v) => Some(*v),
                            Field::Children(_) => None,
                        })
                        .collect(),
                );
            }
        }
    }
    for (r, key, got) in pending.drain(..) {
        if got == want[&(r, key)] {
            out.check(true);
        } else {
            out.fail(format!(
                "read {}({key:?}, _) differs from the maintained output",
                READS[r].0
            ));
        }
    }
}

struct Session {
    dir: PathBuf,
    durable: DurableMigration,
    served: ServedMigration,
}

fn state_dir(k: usize) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("state")
        .join(format!("{}-{k}", std::process::id()))
}

fn open_session(
    dir: &Path,
    program: &Program,
    source: &Instance,
    target: &Arc<Schema>,
) -> Result<Session, MigrateError> {
    let _ = fs::remove_dir_all(dir);
    let durable = DurableMigration::create(dir, program, source, target.clone())?;
    let served = ServedMigration::new(program, source, target.clone())?;
    Ok(Session {
        dir: dir.to_path_buf(),
        durable,
        served,
    })
}

fn remove_state(dir: &Path) {
    let _ = fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        let _ = fs::remove_dir(parent);
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let b = by_name(SCENARIO).expect("scenario exists");
    let program = b.golden().clone();
    let target = b.target().clone();

    // Set-up, several times: generation, then the two sessions.
    let (mut gen_s, mut session_s, mut setup) = (Vec::new(), Vec::new(), Vec::new());
    let mut prepared: Option<(Stream, Session)> = None;
    for k in 0..SETUP_REPEATS {
        if let Some((_, old)) = prepared.take() {
            drop(old.durable);
            remove_state(&old.dir);
        }
        let t = Instant::now();
        let source = b.generate_source(SCALE, seed);
        let extra = b.generate_source(SCALE, seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));
        let edb = to_facts(&source);
        let inserts = fresh_ids(&to_facts(&extra), &edb);
        let stream = Stream::new(seed, &edb, &inserts);
        let g = t.elapsed();
        let t = Instant::now();
        let dir = state_dir(k);
        let session = match open_session(&dir, &program, &source, &target) {
            Ok(s) => s,
            Err(e) => {
                remove_state(&dir);
                out.fail(format!("session set-up failed: {e}"));
                return out;
            }
        };
        let s = t.elapsed();
        gen_s.push(g.as_secs_f64());
        session_s.push(s.as_secs_f64());
        setup.push((g + s).as_secs_f64());
        prepared = Some((stream, session));
    }
    let (
        mut stream,
        Session {
            dir,
            mut durable,
            mut served,
        },
    ) = prepared.expect("at least one set-up");

    let mut write_ms = Vec::new();
    let mut read_ms = Vec::new();
    let (mut durable_apply, mut served_apply) = (Duration::ZERO, Duration::ZERO);
    let (mut hit_time, mut miss_time) = (Duration::ZERO, Duration::ZERO);
    let (mut hits, mut wal_bytes, mut auto_checkpoints) = (0u64, 0u64, 0u64);
    let stats0 = served.stats();
    let mut excluded = Duration::ZERO;
    let mut pending = Pending::new();
    if traced {
        trace::enable();
    }
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        verify_reads(&mut durable, &mut pending, &mut out);
        excluded += t.elapsed();
        let (ins, del) = stream.write();
        let (gen0, wal0) = (
            durable.evaluator().generation(),
            durable.evaluator().wal_bytes(),
        );
        let t = Instant::now();
        let (applied, mid) = span("bench", "write", || {
            let d = span(DURABLE, "apply_delta", || durable.apply_delta(&ins, &del));
            let mid = Instant::now();
            let s = span(QUERY, "apply_delta", || served.apply_delta(&ins, &del));
            (d.and(s), mid)
        });
        let end = Instant::now();
        write_ms.push((end - t).as_secs_f64() * 1e3);
        durable_apply += mid - t;
        served_apply += end - mid;
        // An automatic checkpoint rotates the WAL to a fresh segment
        // whose 16-byte header precedes this write's frame.
        let ev = durable.evaluator();
        if ev.generation() != gen0 {
            auto_checkpoints += 1;
            wal_bytes += ev.wal_bytes().saturating_sub(16);
        } else {
            wal_bytes += ev.wal_bytes().saturating_sub(wal0);
        }
        match applied {
            Ok(()) => out.check(true),
            Err(e) => out.fail(format!("write failed: {e}")),
        }

        for _ in 0..READS_PER_WRITE {
            let (r, key) = stream.read();
            let bindings = [Some(key), None];
            let before = served.stats().cache_hits;
            let t = Instant::now();
            let rows = span("bench", "read", || {
                span(QUERY, "query", || served.query(READS[r].0, &bindings))
            });
            let dt = t.elapsed();
            read_ms.push(dt.as_secs_f64() * 1e3);
            if served.stats().cache_hits > before {
                hits += 1;
                hit_time += dt;
            } else {
                miss_time += dt;
            }
            let t = Instant::now();
            match rows {
                Ok(rows) => pending.push((r, key, rows.iter().map(|row| row.to_vec()).collect())),
                Err(e) => out.fail(format!("read failed: {e}")),
            }
            excluded += t.elapsed();
        }
    }
    let wall = start.elapsed() - excluded;
    let spans = trace::finish();
    let stats = served.stats();
    verify_reads(&mut durable, &mut pending, &mut out);

    // End of stream: audit, then checkpoint / drop / open, repeated.
    match durable.audit() {
        Ok(()) => out.check(true),
        Err(e) => out.fail(format!("audit not clean: {e}")),
    }
    out.check(facts_set_eq(durable.facts(), served.facts()));
    let (mut checkpoint_s, mut open_s, mut frames) = (Vec::new(), Vec::new(), 0u64);
    for _ in 0..END_REPEATS {
        let before = (durable.facts().clone(), durable.target());
        let t = Instant::now();
        let done = durable.checkpoint();
        checkpoint_s.push(t.elapsed().as_secs_f64());
        if let Err(e) = done {
            out.fail(format!("checkpoint failed: {e}"));
            break;
        }
        out.check(true);
        drop(durable);
        let t = Instant::now();
        let reopened = DurableMigration::open(&dir, target.clone());
        open_s.push(t.elapsed().as_secs_f64());
        durable = match reopened {
            Ok(d) => d,
            Err(e) => {
                out.fail(format!("open failed: {e}"));
                remove_state(&dir);
                return out;
            }
        };
        frames += durable.recovery_report().map_or(0, |r| r.frames_replayed);
        let same = match (before, durable.target()) {
            ((edb, Ok(pre)), Ok(post)) => {
                facts_set_eq(&edb, durable.facts()) && pre.canon_eq(&post)
            }
            _ => false,
        };
        if same {
            out.check(true);
        } else {
            out.fail("reopened state differs from the state before the close");
        }
    }
    drop(durable);
    remove_state(&dir);

    let reads = read_ms.len() as f64;
    let writes = write_ms.len() as f64;
    let mut op_ms = write_ms.clone();
    op_ms.extend_from_slice(&read_ms);
    let busy: f64 = op_ms.iter().sum::<f64>() / 1e3;
    let ops_per_s = op_ms.len() as f64 / busy;
    out.lines.push(format!(
        "serve-live: writes {writes}, reads {reads}, write_p50_ms {:.4} ms, write_p90_ms {:.4} ms, \
         read_p50_us {:.2} us, read_p99_us {:.2} us, serve_ops_per_s {ops_per_s:.1} 1/s, \
         checkpoint_s {:.4} s, recover_s {:.4} s, cache hits {hits}, auto checkpoints {auto_checkpoints}",
        percentile(&write_ms, 50.0),
        percentile(&write_ms, 90.0),
        percentile(&read_ms, 50.0) * 1e3,
        percentile(&read_ms, 99.0) * 1e3,
        median(&checkpoint_s),
        median(&open_s),
    ));
    out.end_to_end = end_to_end(
        &setup,
        &[Pass {
            throughput: ops_per_s,
            op_ms,
        }],
    );
    if traced {
        let l = &mut out.layers;
        trace_layers(&spans, wall, l);
        l.insert("setup.generate_s", median(&gen_s));
        l.insert("setup.session_s", median(&session_s));
        l.insert("durable.apply_s", durable_apply.as_secs_f64());
        l.insert("durable.wal_bytes", wal_bytes as f64);
        l.insert("durable.checkpoints_auto", auto_checkpoints as f64);
        l.insert("served.apply_s", served_apply.as_secs_f64());
        l.insert("served.query_hit_s", hit_time.as_secs_f64());
        l.insert("served.query_miss_s", miss_time.as_secs_f64());
        l.insert("query.cache_hit_ratio", hits as f64 / reads.max(1.0));
        l.insert(
            "query.fixpoints",
            (stats.fixpoints - stats0.fixpoints) as f64,
        );
        l.insert(
            "query.fallbacks",
            (stats.fallbacks - stats0.fallbacks) as f64,
        );
        l.insert("durable.checkpoint_s", median(&checkpoint_s));
        l.insert("durable.open_s", median(&open_s));
        l.insert("durable.frames_replayed", frames as f64);
        out.lines.push(format!(
            "trace: stream {:.4} s, coverage {:.4}",
            wall.as_secs_f64(),
            out.layers["trace.coverage"]
        ));
        out.lines.push(write_spans("serve-live", seed, &spans));
    }
    out
}
