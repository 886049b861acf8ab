//! The 28 migration benchmarks of Table 2.
//!
//! Each benchmark pairs a dataset's source schema with a target schema and
//! a manually written *golden* program (the paper's "optimal" mapping,
//! §6.1). Expected outputs — for the curated example, for sensitivity
//! trials, and for migration validation — are produced by running the
//! golden program, exactly as the paper generates outputs for randomly
//! generated inputs with its "golden" programs (§6.2).

use std::sync::Arc;

use dynamite_core::Example;
use dynamite_datalog::{Evaluator, Program};
use dynamite_instance::{from_facts, to_facts, Instance};
use dynamite_schema::{DbKind, Schema};

use crate::curated::curated_input;
use crate::datasets::{self, Dataset};

/// One benchmark scenario.
pub struct Benchmark {
    /// Table 2 name, e.g. `Yelp-1`.
    pub name: &'static str,
    /// Dataset name (Table 1).
    pub dataset: &'static str,
    /// Target schema DSL.
    target_dsl: &'static str,
    /// Golden program text.
    golden_text: &'static str,
    source: Arc<Schema>,
    target: Arc<Schema>,
    golden: Program,
}

impl Benchmark {
    fn new(
        name: &'static str,
        dataset: &Dataset,
        target_dsl: &'static str,
        golden_text: &'static str,
    ) -> Benchmark {
        let target = datasets::schema(target_dsl);
        let golden = Program::parse(golden_text)
            .unwrap_or_else(|e| panic!("golden program for {name} does not parse: {e}"));
        Benchmark {
            name,
            dataset: dataset.name,
            target_dsl,
            golden_text,
            source: dataset.source.clone(),
            target,
            golden,
        }
    }

    /// The source schema.
    pub fn source(&self) -> &Arc<Schema> {
        &self.source
    }

    /// The target schema.
    pub fn target(&self) -> &Arc<Schema> {
        &self.target
    }

    /// The manually written golden program.
    pub fn golden(&self) -> &Program {
        &self.golden
    }

    /// The golden program's text (for docs and reports).
    pub fn golden_text(&self) -> &'static str {
        self.golden_text
    }

    /// The target schema DSL (for docs and reports).
    pub fn target_dsl(&self) -> &'static str {
        self.target_dsl
    }

    /// Source/target database kinds (Table 2's Type columns).
    pub fn kinds(&self) -> (DbKind, DbKind) {
        (self.source.kind(), self.target.kind())
    }

    /// Runs the golden program on `input`, producing the expected target
    /// instance.
    pub fn expected_output(&self, input: &Instance) -> Instance {
        let facts = to_facts(input);
        let out = Evaluator::new(facts)
            .eval(&self.golden)
            .unwrap_or_else(|e| panic!("golden program for {} fails to evaluate: {e}", self.name));
        from_facts(&out, self.target.clone())
            .unwrap_or_else(|e| panic!("golden output for {} does not rebuild: {e}", self.name))
    }

    /// The curated input-output example (Table 3's examples).
    ///
    /// Retina-2 instead uses a dense slice of a generated instance (12
    /// neurons plus the contacts among them): the paper singles this
    /// benchmark out as pathologically sensitive to example choice (§6.2),
    /// and hand-sized examples keep admitting coincidence-exploiting
    /// candidates — every column-pattern coincidence among contacts must
    /// be non-injective in the example, which only value density provides.
    pub fn example(&self) -> Example {
        let input = if self.name == "Retina-2" {
            retina_slice_input(self, 18)
        } else {
            curated_input(self.dataset)
        };
        let output = self.expected_output(&input);
        Example::new(input, output)
    }

    /// Generates the full source instance at `scale` (Table 1 datasets).
    pub fn generate_source(&self, scale: u64, seed: u64) -> Instance {
        let ds = datasets::all()
            .into_iter()
            .find(|d| d.name == self.dataset)
            .expect("benchmark dataset exists");
        (ds.generate)(scale, seed)
    }
}

/// All 28 benchmarks in Table 2 order.
pub fn all() -> Vec<Benchmark> {
    let ds: Vec<Dataset> = datasets::all();
    let d =
        |name: &str| -> &Dataset { ds.iter().find(|x| x.name == name).expect("dataset exists") };
    vec![
        // ---- Document → Relational ------------------------------------
        Benchmark::new(
            "Yelp-1",
            d("Yelp"),
            "@relational
             BizT { bt_id: Int, bt_name: String, bt_city: String }
             RevT { rt_biz: Int, rt_id: Int, rt_stars: Int, rt_user: String }
             CatT { ct_biz: Int, ct_name: String }",
            "BizT(b, n, c) :- Business(b, n, c, _, _, _).
             RevT(b, r, st, u) :- Business(b, _, _, _, v, _), Review(v, r, st, u).
             CatT(b, cn) :- Business(b, _, _, _, _, v), Category(v, cn).",
        ),
        Benchmark::new(
            "IMDB-1",
            d("IMDB"),
            "@relational
             MovT { mt_id: Int, mt_title: String, mt_year: Int }
             CastT { ca_mid: Int, ca_actor: String, ca_role: String }
             RateT { rr_mid: Int, rr_score: Int, rr_votes: Int }",
            "MovT(m, t, y) :- Movie(m, t, y, _, _).
             CastT(m, a, ro) :- Movie(m, _, _, v, _), Cast(v, a, ro).
             RateT(m, sc, vo) :- Movie(m, _, _, _, v), Rating(v, sc, vo).",
        ),
        Benchmark::new(
            "DBLP-1",
            d("DBLP"),
            "@relational
             PubT { pt_id: Int, pt_title: String, pt_venue: String }
             AuthT { at_pub: Int, at_name: String, at_pos: Int }",
            "PubT(p, t, ve) :- Article(p, t, _, ve, _).
             AuthT(p, n, po) :- Article(p, _, _, _, v), Author(v, n, po).",
        ),
        Benchmark::new(
            "Mondial-1",
            d("Mondial"),
            "@relational
             CtyT { kt_id: Int, kt_name: String, kt_pop: Int }
             ProvT { pv_cty: Int, pv_name: String, pv_pop: Int }
             CityT { cy_cty: Int, cy_prov: String, cy_name: String, cy_pop: Int }
             LangT { ln_cty: Int, ln_name: String, ln_pct: Int }",
            "CtyT(c, n, p) :- Country(c, n, p, _, _).
             ProvT(c, pn, pp) :- Country(c, _, _, v, _), Province(v, pn, pp, _).
             CityT(c, pn, cn, cp) :- Country(c, _, _, v, _), Province(v, pn, _, w), City(w, cn, cp).
             LangT(c, la, pc) :- Country(c, _, _, _, v), Language(v, la, pc).",
        ),
        // ---- Relational → Document ------------------------------------
        Benchmark::new(
            "MLB-1",
            d("MLB"),
            "@document
             TeamD { td_name: String, td_league: String,
                     RosterD { ro_name: String, ro_avg: Int } }",
            "TeamD(tn, lg, t), RosterD(t, pn, av) :- Teams(t, tn, lg), Players(_, t, pn, av).",
        ),
        Benchmark::new(
            "Airbnb-1",
            d("Airbnb"),
            "@document
             HostD { hd_name: String,
                     ListD { li_name: String, li_price: Int } }",
            "HostD(hn, h), ListD(h, ln, pr) :- Hosts(h, hn), Listings(_, h, ln, _, pr).",
        ),
        Benchmark::new(
            "Patent-1",
            d("Patent"),
            "@document
             PatD { pd_title: String, pd_year: Int,
                    SuitD { su_case: Int, su_year: Int } }",
            "PatD(t, y, p), SuitD(p, c, cy) :- Patents(p, t, y), Cases(c, p, _, _, cy).",
        ),
        Benchmark::new(
            "Bike-1",
            d("Bike"),
            "@document
             StaD { sa_name: String, sa_city: String,
                    DepD { de_trip: Int, de_dur: Int } }",
            "StaD(sn, sc, st), DepD(st, t, du) :- Stations(st, sn, sc, _), Trips(t, st, _, du).",
        ),
        // ---- Graph → Relational ----------------------------------------
        Benchmark::new(
            "Tencent-1",
            d("Tencent"),
            "@relational
             FollowT { ft_src: Int, ft_src_name: String, ft_dst_name: String }",
            "FollowT(a, an, bn) :- Follows(a, b, _, _), WUser(a, an, _, _), WUser(b, bn, _, _).",
        ),
        Benchmark::new(
            "Retina-1",
            d("Retina"),
            "@relational
             NeuT { nt_id: Int, nt_type: String, nt_layer: Int }
             SynT { sy_pre: String, sy_post: String, sy_weight: Int }",
            "NeuT(n, t, l) :- Neuron(n, t, l, _).
             SynT(ta, tb, w) :- Contact(x, y, w, _), Neuron(x, ta, _, _), Neuron(y, tb, _, _).",
        ),
        Benchmark::new(
            "Movie-1",
            d("Movie"),
            "@relational
             FilmT { fm_id: Int, fm_title: String }
             RatT { rx_user: Int, rx_movie: Int, rx_stars: Int }
             GenT { gn_movie: Int, gn_name: String }",
            "FilmT(m, t) :- MlMovie(m, t, _).
             RatT(u, m, st) :- Rated(u, m, st).
             GenT(m, gn) :- HasGenre(m, g), Genre(g, gn).",
        ),
        Benchmark::new(
            "Soccer-1",
            d("Soccer"),
            "@relational
             TransT { tx_player: String, tx_from: String, tx_to: String, tx_fee: Int }
             ClubT { cb_id: Int, cb_name: String }",
            "TransT(pn, fn, tn, fee) :- TransferE(f, t, p, fee, _), SoPlayer(p, pn, _), Club(f, fn, _), Club(t, tn, _).
             ClubT(c, cn) :- Club(c, cn, _).",
        ),
        // ---- Graph → Document ------------------------------------------
        Benchmark::new(
            "Tencent-2",
            d("Tencent"),
            "@document
             FollowD { fd_src_name: String, fd_dst_name: String, fd_weight: Int }",
            "FollowD(an, bn, w) :- Follows(a, b, w, _), WUser(a, an, _, _), WUser(b, bn, _, _).",
        ),
        Benchmark::new(
            "Retina-2",
            d("Retina"),
            "@document
             NeuD { nd_id: Int, nd_type: String,
                    LinkD { lk_post: Int, lk_weight: Int } }",
            "NeuD(n, t, n), LinkD(n, q, w) :- Neuron(n, t, _, _), Contact(n, q, w, _).",
        ),
        Benchmark::new(
            "Movie-2",
            d("Movie"),
            "@document
             FilmD { fd_title: String,
                     RateD { rd_user: Int, rd_stars: Int } }",
            "FilmD(t, m), RateD(m, u, st) :- MlMovie(m, t, _), Rated(u, m, st).",
        ),
        Benchmark::new(
            "Soccer-2",
            d("Soccer"),
            "@document
             ClubD { cd_name: String,
                     SignD { sg_player: String, sg_fee: Int } }",
            "ClubD(cn, c), SignD(c, pn, fee) :- Club(c, cn, _), TransferE(_, c, p, fee, _), SoPlayer(p, pn, _).",
        ),
        // ---- Document → Graph ------------------------------------------
        Benchmark::new(
            "Yelp-2",
            d("Yelp"),
            "@graph
             BizN { gb_id: Int, gb_name: String }
             RevN { gr_id: Int, gr_stars: Int }
             HasRev { hr_biz: Int, hr_rev: Int }",
            "BizN(b, n) :- Business(b, n, _, _, _, _).
             RevN(r, st) :- Review(_, r, st, _).
             HasRev(b, r) :- Business(b, _, _, _, v, _), Review(v, r, _, _).",
        ),
        Benchmark::new(
            "IMDB-2",
            d("IMDB"),
            "@graph
             FilmN { gf_id: Int, gf_title: String }
             ActorN { ga_name: String }
             ActsIn { ai_actor: String, ai_film: Int, ai_role: String }",
            "FilmN(m, t) :- Movie(m, t, _, _, _).
             ActorN(a) :- Cast(_, a, _).
             ActsIn(a, m, ro) :- Movie(m, _, _, v, _), Cast(v, a, ro).",
        ),
        Benchmark::new(
            "DBLP-2",
            d("DBLP"),
            "@graph
             PapN { gp_id: Int, gp_title: String }
             PersN { gq_name: String }
             Wrote { wr_person: String, wr_paper: Int }",
            "PapN(p, t) :- Article(p, t, _, _, _).
             PersN(n) :- Author(_, n, _).
             Wrote(n, p) :- Article(p, _, _, _, v), Author(v, n, _).",
        ),
        Benchmark::new(
            "Mondial-2",
            d("Mondial"),
            "@graph
             CtryN { gc_id: Int, gc_name: String }
             CityN { gy_name: String, gy_pop: Int }
             LocIn { lo_city: String, lo_ctry: Int }",
            "CtryN(c, n) :- Country(c, n, _, _, _).
             CityN(cn, cp) :- City(_, cn, cp).
             LocIn(cn, c) :- Country(c, _, _, v, _), Province(v, _, _, w), City(w, cn, _).",
        ),
        // ---- Relational → Graph ----------------------------------------
        Benchmark::new(
            "MLB-2",
            d("MLB"),
            "@graph
             TeamN { gt_id: Int, gt_name: String }
             PlayN { gp2_id: Int, gp2_name: String }
             PlaysFor { pf_player: Int, pf_team: Int }",
            "TeamN(t, n) :- Teams(t, n, _).
             PlayN(p, n) :- Players(p, _, n, _).
             PlaysFor(p, t) :- Players(p, t, _, _).",
        ),
        Benchmark::new(
            "Airbnb-2",
            d("Airbnb"),
            "@graph
             HostN { gh_id: Int, gh_name: String }
             ListN { gl_id: Int, gl_name: String }
             Owns { ow_host: Int, ow_listing: Int }",
            "HostN(h, n) :- Hosts(h, n).
             ListN(l, n) :- Listings(l, _, n, _, _).
             Owns(h, l) :- Listings(l, h, _, _, _).",
        ),
        Benchmark::new(
            "Patent-2",
            d("Patent"),
            "@graph
             PatN { gx_id: Int, gx_title: String }
             PartyN { gz_id: Int, gz_name: String }
             Sued { sd_plaintiff: Int, sd_defendant: Int, sd_patent: Int }",
            "PatN(p, t) :- Patents(p, t, _).
             PartyN(q, n) :- Parties(q, n).
             Sued(a, b, p) :- Cases(_, p, a, b, _).",
        ),
        Benchmark::new(
            "Bike-2",
            d("Bike"),
            "@graph
             StaN { gs_id: Int, gs_name: String }
             TripE { tp_start: Int, tp_end: Int, tp_dur: Int }",
            "StaN(st, n) :- Stations(st, n, _, _).
             TripE(a, b, du) :- Trips(_, a, b, du).",
        ),
        // ---- Relational → Relational ------------------------------------
        Benchmark::new(
            "MLB-3",
            d("MLB"),
            "@relational
             RosterFlat { rf_team: String, rf_league: String, rf_player: String, rf_avg: Int }",
            "RosterFlat(tn, lg, pn, av) :- Teams(t, tn, lg), Players(_, t, pn, av).",
        ),
        Benchmark::new(
            "Airbnb-3",
            d("Airbnb"),
            "@relational
             ListFlat { lf_listing: String, lf_host: String, lf_nbhd: String, lf_price: Int }",
            "ListFlat(ln, hn, nb, pr) :- Listings(_, h, ln, nb, pr), Hosts(h, hn).",
        ),
        Benchmark::new(
            "Patent-3",
            d("Patent"),
            "@relational
             CaseFlat { cf_case: Int, cf_title: String, cf_plaintiff: String, cf_defendant: String }",
            "CaseFlat(c, t, an, bn) :- Cases(c, p, a, b, _), Patents(p, t, _), Parties(a, an), Parties(b, bn).",
        ),
        Benchmark::new(
            "Bike-3",
            d("Bike"),
            "@relational
             TripFlat { tf_id: Int, tf_start_name: String, tf_end_name: String, tf_dur: Int }",
            "TripFlat(t, sn, en, du) :- Trips(t, a, b, du), Stations(a, sn, _, _), Stations(b, en, _, _).",
        ),
    ]
}

/// Looks up a benchmark by its Table 2 name.
pub fn by_name(name: &str) -> Option<Benchmark> {
    all().into_iter().find(|b| b.name == name)
}

/// A dense retina example: the first `n` neurons of a generated instance
/// plus the contacts between them, shaped so that one neuron is a pure
/// source (no incoming contacts) and one a pure sink (no outgoing). The
/// density makes column-pattern coincidences non-injective, while the
/// pure source/sink refute candidates that require every link-bearing
/// neuron to also appear in the opposite edge role.
fn retina_slice_input(b: &Benchmark, n: usize) -> Instance {
    use dynamite_instance::{Record, Value};
    // The slice seed is tuned to the workspace's deterministic RNG: the
    // example must witness every column-pattern coincidence among the
    // kept contacts non-injectively or synthesis latches onto it (§6.2).
    let full = b.generate_source(1, 0x02);
    let mut kept: Vec<Value> = Vec::new();
    let mut neurons: Vec<Record> = Vec::new();
    for rec in full.records("Neuron").iter().take(n) {
        kept.push(*rec.prim(0).expect("neuron id"));
        neurons.push(rec.clone());
    }
    let mut contacts: Vec<Record> = full
        .records("Contact")
        .iter()
        .filter(|rec| {
            kept.contains(rec.prim(0).expect("src")) && kept.contains(rec.prim(1).expect("dst"))
        })
        .cloned()
        .collect();
    // Shape: first neuron with an outgoing contact becomes a pure source…
    if let Some(u) = kept
        .iter()
        .find(|id| contacts.iter().any(|c| c.prim(0) == Some(id)))
        .cloned()
    {
        contacts.retain(|c| c.prim(1) != Some(&u));
        // …and the last neuron with an incoming contact (≠ u) a pure sink.
        if let Some(v) = kept
            .iter()
            .rev()
            .find(|id| **id != u && contacts.iter().any(|c| c.prim(1) == Some(id)))
            .cloned()
        {
            contacts.retain(|c| c.prim(0) != Some(&v));
        }
    }
    let mut input = Instance::new(b.source().clone());
    for rec in neurons {
        input.insert("Neuron", rec).expect("valid neuron");
    }
    for rec in contacts {
        input.insert("Contact", rec).expect("valid contact");
    }
    input
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_eight_benchmarks_in_table2_order() {
        let bs = all();
        assert_eq!(bs.len(), 28);
        assert_eq!(bs[0].name, "Yelp-1");
        assert_eq!(bs[27].name, "Bike-3");
    }

    #[test]
    fn kinds_match_table2() {
        use DbKind::{Document as D, Graph as G, Relational as R};
        let expect = [
            ("Yelp-1", D, R),
            ("IMDB-1", D, R),
            ("DBLP-1", D, R),
            ("Mondial-1", D, R),
            ("MLB-1", R, D),
            ("Airbnb-1", R, D),
            ("Patent-1", R, D),
            ("Bike-1", R, D),
            ("Tencent-1", G, R),
            ("Retina-1", G, R),
            ("Movie-1", G, R),
            ("Soccer-1", G, R),
            ("Tencent-2", G, D),
            ("Retina-2", G, D),
            ("Movie-2", G, D),
            ("Soccer-2", G, D),
            ("Yelp-2", D, G),
            ("IMDB-2", D, G),
            ("DBLP-2", D, G),
            ("Mondial-2", D, G),
            ("MLB-2", R, G),
            ("Airbnb-2", R, G),
            ("Patent-2", R, G),
            ("Bike-2", R, G),
            ("MLB-3", R, R),
            ("Airbnb-3", R, R),
            ("Patent-3", R, R),
            ("Bike-3", R, R),
        ];
        for (b, (name, sk, tk)) in all().iter().zip(expect) {
            assert_eq!(b.name, name);
            assert_eq!(b.kinds(), (sk, tk), "{name}");
        }
    }

    #[test]
    fn golden_programs_are_well_formed_and_produce_output() {
        for b in all() {
            b.golden().check_well_formed().unwrap_or_else(|e| {
                panic!("golden for {} ill-formed: {e}", b.name);
            });
            let ex = b.example();
            assert!(
                !ex.output.is_empty(),
                "{}: golden produces empty output on the curated input",
                b.name
            );
        }
    }

    #[test]
    fn schemas_are_name_disjoint() {
        use std::collections::HashSet;
        for b in all() {
            let src: HashSet<&str> = b
                .source()
                .records()
                .chain(b.source().prim_attrs())
                .collect();
            for n in b.target().records().chain(b.target().prim_attrs()) {
                assert!(!src.contains(n), "{}: shared name `{n}`", b.name);
            }
        }
    }
}
