//! Cache-key sensitivity and cache-hit bit-identity.
//!
//! The service's correctness rests on two properties proved here:
//!
//! * **Invalidation**: changing any single field of [`PassConfig`] or
//!   [`MachineConfig`] produces a distinct cache key, so a stale entry
//!   can never answer for a different configuration.
//! * **Bit-identity**: a cache hit returns exactly the bytes the cold
//!   path produced.

use phloem_benchsuite::runner::compile_options;
use phloem_benchsuite::{apps, candidate_outcome, pgo_search, Variant};
use phloem_compiler::search::{CandidateProfile, SearchOptions};
use phloem_compiler::PassConfig;
use phloem_ir::LoadId;
use phloem_service::batch::run_one;
use phloem_service::key::{machine_config_digest, pass_config_digest};
use phloem_service::proto::{parse, Json};
use phloem_service::{PreparedInputs, Service, ServiceConfig, SimRequest};
use phloem_workloads::catalog::Scale;
use pipette_sim::MachineConfig;
use proptest::prelude::*;
use std::collections::HashSet;

/// One named single-field mutation of a [`MachineConfig`].
type Mutator = (&'static str, fn(&mut MachineConfig));

/// Every leaf field of [`MachineConfig`], each mutated in isolation and
/// named by its dotted path. `the_sweep_covers_every_machine_field`
/// checks the names against the struct itself, so a new field fails
/// that test until it has a row here.
fn machine_mutators() -> Vec<Mutator> {
    vec![
        ("cores", |m| m.cores += 1),
        ("smt_threads", |m| m.smt_threads += 1),
        ("issue_width", |m| m.issue_width += 1),
        ("rob_size", |m| m.rob_size += 1),
        ("mshrs", |m| m.mshrs += 1),
        ("mispredict_penalty", |m| m.mispredict_penalty += 1),
        ("queue_capacity", |m| m.queue_capacity += 1),
        ("max_queues", |m| m.max_queues += 1),
        ("ras_per_core", |m| m.ras_per_core += 1),
        ("ra_concurrency", |m| m.ra_concurrency += 1),
        ("ra_op_latency", |m| m.ra_op_latency += 1),
        ("queue_latency", |m| m.queue_latency += 1),
        ("inter_core_queue_latency", |m| {
            m.inter_core_queue_latency += 1
        }),
        ("l1.kb", |m| m.l1.kb += 1),
        ("l1.ways", |m| m.l1.ways += 1),
        ("l1.latency", |m| m.l1.latency += 1),
        ("l2.kb", |m| m.l2.kb += 1),
        ("l2.ways", |m| m.l2.ways += 1),
        ("l2.latency", |m| m.l2.latency += 1),
        ("l3_kb_per_core", |m| m.l3_kb_per_core += 1),
        ("l3_ways", |m| m.l3_ways += 1),
        ("l3_latency", |m| m.l3_latency += 1),
        ("dram_latency", |m| m.dram_latency += 1),
        ("dram_controllers", |m| m.dram_controllers += 1),
        ("dram_cycles_per_line", |m| m.dram_cycles_per_line += 1),
        ("prefetch", |m| m.prefetch = !m.prefetch),
        ("prefetch_degree", |m| m.prefetch_degree += 1),
        ("launch_overhead", |m| m.launch_overhead += 1),
        ("watchdog.cycle_cap", |m| {
            m.watchdog.cycle_cap = m.watchdog.cycle_cap.wrapping_sub(1)
        }),
        ("watchdog.livelock_window", |m| {
            m.watchdog.livelock_window = m.watchdog.livelock_window.wrapping_sub(1)
        }),
    ]
}

type PassMutator = (&'static str, fn(&mut PassConfig));

fn pass_mutators() -> Vec<PassMutator> {
    vec![
        ("recompute", |p| p.recompute = !p.recompute),
        ("use_ra", |p| p.use_ra = !p.use_ra),
        ("use_cv", |p| p.use_cv = !p.use_cv),
        ("use_handlers", |p| p.use_handlers = !p.use_handlers),
        ("isdce", |p| p.isdce = !p.isdce),
        ("stream_consumers", |p| {
            p.stream_consumers = !p.stream_consumers
        }),
        ("validate_between_passes", |p| {
            p.validate_between_passes = !p.validate_between_passes
        }),
    ]
}

/// Dotted paths of every leaf field of the config, read off its derived
/// pretty `Debug` rendering (one `name: value,` line per scalar field,
/// `name: Type {` / `},` around a nested struct).
fn machine_leaf_fields() -> Vec<String> {
    let rendered = format!("{:#?}", MachineConfig::paper_1core());
    let mut path: Vec<&str> = Vec::new();
    let mut leaves = Vec::new();
    for line in rendered.lines().skip(1).map(str::trim) {
        match line.split_once(": ") {
            Some((name, value)) if value.ends_with('{') => path.push(name),
            Some((name, _)) => leaves.push([&path[..], &[name]].concat().join(".")),
            None => {
                path.pop();
            }
        }
    }
    leaves
}

#[test]
fn the_sweep_covers_every_machine_field() {
    let rows: Vec<String> = machine_mutators()
        .iter()
        .map(|(name, _)| name.to_string())
        .collect();
    assert_eq!(rows, machine_leaf_fields());
}

#[test]
fn every_machine_field_has_its_own_key() {
    let base = MachineConfig::paper_1core();
    let base_key = machine_config_digest(&base);
    let mut seen: HashSet<u64> = HashSet::from([base_key]);
    for (name, mutate) in machine_mutators() {
        let mut m = base.clone();
        mutate(&mut m);
        let key = machine_config_digest(&m);
        assert_ne!(key, base_key, "mutating {name} did not change the key");
        assert!(
            seen.insert(key),
            "mutating {name} collided with another single-field mutation"
        );
    }
}

#[test]
fn every_pass_switch_has_its_own_key() {
    let base = PassConfig::all();
    let base_key = pass_config_digest(&base);
    let mut seen: HashSet<u64> = HashSet::from([base_key]);
    for (name, mutate) in pass_mutators() {
        let mut p = base;
        mutate(&mut p);
        let key = pass_config_digest(&p);
        assert_ne!(key, base_key, "toggling {name} did not change the key");
        assert!(seen.insert(key), "toggling {name} collided");
    }
    // The named presets are pairwise distinct too.
    let presets = [
        PassConfig::all(),
        PassConfig::queues_only(),
        PassConfig::with_recompute(),
        PassConfig::with_cv(),
        PassConfig::with_dce(),
        PassConfig::with_handlers(),
        PassConfig::all_streaming(),
    ];
    let keys: HashSet<u64> = presets.iter().map(pass_config_digest).collect();
    assert_eq!(keys.len(), presets.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any random non-empty combination of single-field mutations moves
    /// the key away from the base config (mutations touch disjoint
    /// fields, so they cannot cancel), and two different combinations
    /// produce different keys.
    #[test]
    fn random_mutation_sets_change_the_machine_key(
        picks in proptest::collection::vec(0usize..30, 1..6),
        other in proptest::collection::vec(0usize..30, 1..6),
    ) {
        let muts = machine_mutators();
        let apply = |set: &[usize]| {
            let mut m = MachineConfig::paper_1core();
            let mut used: Vec<usize> = set.to_vec();
            used.sort_unstable();
            used.dedup();
            for &i in &used {
                (muts[i % muts.len()].1)(&mut m);
            }
            (used, machine_config_digest(&m))
        };
        let base = machine_config_digest(&MachineConfig::paper_1core());
        let (used_a, key_a) = apply(&picks);
        let (used_b, key_b) = apply(&other);
        prop_assert!(key_a != base, "mutations {:?} left the key unchanged", used_a);
        if used_a != used_b {
            prop_assert!(key_a != key_b,
                "mutation sets {:?} and {:?} collided", used_a, used_b);
        } else {
            prop_assert_eq!(key_a, key_b);
        }
    }
}

// ---------------------------------------------------------------------
// Cache-hit bit-identity
// ---------------------------------------------------------------------

fn tiny_service() -> Service {
    Service::new(ServiceConfig {
        scale: Scale::Tiny,
        workers: 2,
        default_cycle_cap: 50_000_000,
        ..ServiceConfig::default()
    })
}

#[test]
fn cache_hits_are_bit_identical_to_the_cold_path() {
    let batch = vec![
        r#"{"id":1,"op":"compile","app":"bfs","passes":"all","stages":3}"#.to_string(),
        r#"{"id":2,"op":"trace","app":"bfs","input":"internet-s","variant":"phloem","stages":2}"#
            .to_string(),
    ];
    let svc = tiny_service();
    let cold = svc.handle_batch(&batch);
    let warm = svc.handle_batch(&batch);
    for (c, w) in cold.responses.iter().zip(&warm.responses) {
        assert!(c.contains(r#""cache":"miss""#), "cold run should miss: {c}");
        assert!(w.contains(r#""cache":"hit""#), "warm run should hit: {w}");
        // The hit is the miss, byte for byte, modulo provenance.
        assert_eq!(&c.replace(r#""cache":"miss""#, r#""cache":"hit""#), w);
    }
    let trace = parse(&warm.responses[1]).unwrap();
    assert_eq!(trace.get("ok").and_then(|v| v.as_bool()), Some(true));
    let (compile, search) = svc.counters();
    assert_eq!((compile.hits, compile.misses), (1, 1));
    assert_eq!((search.hits, search.misses), (1, 1));
}

/// The `profile` a `search` answer carries, field by field, to the
/// digits the frame prints.
fn assert_served_profile(answer: &Json, profile: &CandidateProfile) {
    let served = answer.get("profile").expect("the winner's profile");
    let field = |name| served.get(name).and_then(|j| j.as_str()).unwrap();
    assert_eq!(field("critical_stage"), profile.critical_stage);
    assert_eq!(field("dominant_stall"), profile.dominant_stall);
    let Some(Json::Arr(served)) = served.get("stage_utilization") else {
        panic!("no utilization: {served:?}");
    };
    let compute_stages = answer.get("compute_stages").and_then(|j| j.as_usize());
    assert!(compute_stages.unwrap() < served.len(), "no RA stage listed");
    assert_eq!(served.len(), profile.stage_utilization.len());
    for (s, (name, util)) in served.iter().zip(&profile.stage_utilization) {
        let want = Json::Arr(vec![
            Json::str(name.clone()),
            Json::Num((util * 1e4).round() / 1e4),
        ]);
        assert_eq!(s, &want);
    }
}

/// One derivation, two callers: the `profile` (and `train_cycles`) a
/// `search` answers with is `candidate_outcome` of its winner's one run,
/// so a direct run of the winner on the same input, read by the same
/// function, says the same — to the digits the frame prints.
#[test]
fn a_search_answers_with_the_shared_evaluation_of_its_winners_run() {
    let svc = tiny_service();
    let ask = r#"{"id":1,"op":"search","app":"bfs","input":"internet-s","max_stages":4}"#;
    let answer = parse(&svc.handle_batch(&[ask.to_string()]).responses[0]).unwrap();
    let cuts = match answer.get("best_cuts") {
        Some(Json::Arr(cuts)) => cuts.iter().map(|c| LoadId(c.as_u64().unwrap() as u32)),
        _ => panic!("no winner: {answer:?}"),
    };
    let winner = SimRequest {
        app: "bfs".into(),
        variant: Variant::Phloem {
            passes: PassConfig::all(),
            stages: 4,
            cuts: cuts.collect(),
        },
        input: "internet-s".into(),
        cycle_cap: None,
    };
    let inputs = PreparedInputs::new(Scale::Tiny);
    let direct = run_one(&inputs, &MachineConfig::paper_1core(), &winner);
    let (outcome, profile) = candidate_outcome([direct]);

    assert_eq!(
        answer.get("train_cycles"),
        outcome.cycles().map(Json::Num).as_ref()
    );
    assert_served_profile(&answer, &profile.expect("the winner runs"));
}

/// One driver: a daemon `search` is `phloem_benchsuite::pgo_search`
/// with the named input as its one training input, under the options
/// the daemon plans for a request that sets none.
#[test]
fn a_daemon_search_is_the_figures_search_over_its_one_input() {
    let svc = tiny_service();
    let ask = r#"{"id":1,"op":"search","app":"cc","input":"road-ny-s"}"#;
    let answer = parse(&svc.handle_batch(&[ask.to_string()]).responses[0]).unwrap();

    let (cc, machine) = (apps::app_by_id("cc").unwrap(), MachineConfig::paper_1core());
    let mut training = cc.training_inputs(Scale::Tiny);
    training.retain(|i| i.name() == "road-ny-s");
    let opts = SearchOptions {
        max_stages: 3,
        top_k: 4,
        compile: compile_options(&machine, PassConfig::all()),
        workers: 1,
        profile_cycle_cap: svc.config().default_cycle_cap,
        retry_cap_factor: 2,
    };
    let report = pgo_search(&cc.kernel(), &opts, &machine, &training, |v, i, cfg| {
        cc.run(v, i.input(), cfg, i.name(), None).0
    })
    .expect("CC has viable candidates");
    let best = &report.candidates[report.best];

    let cuts = best.cuts.iter().map(|c| Json::u64(c.0 as u64)).collect();
    assert_eq!(
        answer.get("best_cuts"),
        Some(&Json::Arr(cuts)),
        "{answer:?}"
    );
    let count = answer.get("candidates").and_then(|j| j.as_usize());
    assert_eq!(count, Some(report.candidates.len()));
    let cycles = best.train_cycles().map(Json::Num);
    assert_eq!(answer.get("train_cycles"), cycles.as_ref());
    assert_served_profile(&answer, best.profile.as_ref().expect("the winner ran"));
}

/// A search resolves its input as `simulate` does, so an unknown name,
/// or a name from the other app family, is the same `trap` (not a
/// search whose every candidate failed), and an error is never cached.
#[test]
fn a_search_on_a_bad_input_is_the_trap_simulate_gives() {
    let svc = tiny_service();
    for (app, input) in [("bfs", "no-such-graph"), ("spmm", "internet-s")] {
        let line = |op| format!(r#"{{"id":1,"op":"{op}","app":"{app}","input":"{input}"}}"#);
        let out = svc.handle_batch(&[line("simulate"), line("search"), line("search")]);
        let error = |resp: &String| {
            let v = parse(resp).unwrap();
            let e = v.get("error").unwrap_or_else(|| panic!("{resp}"));
            let field = |k| e.get(k).and_then(|j| j.as_str()).unwrap().to_string();
            (field("kind"), field("message"))
        };
        let simulate = error(&out.responses[0]);
        assert_eq!(simulate.0, "trap");
        assert!(simulate.1.contains(input), "{simulate:?}");
        for resp in &out.responses[1..] {
            assert_eq!(error(resp), simulate, "{resp}");
            assert!(resp.contains(r#""cache":"miss""#), "{resp}");
        }
    }
    let (_, search) = svc.counters();
    assert_eq!((search.hits, search.insertions), (0, 0));
}

#[test]
fn machine_config_change_invalidates_service_responses() {
    // The same request against two services differing in ONE machine
    // field must not share cache state — prove it end-to-end by
    // checking both services miss on first contact.
    let a = tiny_service();
    let req = vec![r#"{"id":1,"op":"compile","app":"cc"}"#.to_string()];
    let first = a.handle_batch(&req);
    assert!(first.responses[0].contains(r#""cache":"miss""#));
    // Same service, mutated config would be a different service value;
    // keys embed the machine digest, so a fresh service with a bumped
    // queue capacity starts cold even if caches were shared by design.
    let mut machine = MachineConfig::paper_1core();
    machine.queue_capacity += 1;
    let b = Service::new(ServiceConfig {
        machine,
        scale: Scale::Tiny,
        workers: 1,
        ..ServiceConfig::default()
    });
    let second = b.handle_batch(&req);
    assert!(second.responses[0].contains(r#""cache":"miss""#));
}

// ---------------------------------------------------------------------
// Trace/search key sensitivity, through the service
// ---------------------------------------------------------------------

/// `{"id":<id>,"op":<op>,<fields...>}` with the fields of `base`
/// overridden (or extended) by `change`.
fn request(id: u64, op: &str, base: &[(&str, &str)], change: Option<(&str, &str)>) -> String {
    let mut fields: Vec<(&str, &str)> = base.to_vec();
    if let Some((k, v)) = change {
        match fields.iter_mut().find(|(name, _)| *name == k) {
            Some(slot) => slot.1 = v,
            None => fields.push((k, v)),
        }
    }
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{\"id\":{id},\"op\":\"{op}\",{}}}", body.join(","))
}

#[test]
fn trace_and_search_keys_see_every_semantic_field_and_only_those() {
    let trace: &[(&str, &str)] = &[
        ("app", r#""bfs""#),
        ("input", r#""internet-s""#),
        ("variant", r#""phloem""#),
        ("stages", "2"),
        ("passes", r#""all""#),
        ("cycle_cap", "40000000"),
    ];
    let trace_dp: &[(&str, &str)] = &[
        ("app", r#""bfs""#),
        ("input", r#""internet-s""#),
        ("variant", r#""dp""#),
        ("threads", "2"),
    ];
    let search: &[(&str, &str)] = &[
        ("app", r#""bfs""#),
        ("input", r#""internet-s""#),
        ("top_k", "2"),
        ("max_stages", "2"),
        ("passes", r#""all""#),
        ("cycle_cap", "40000000"),
    ];
    // (op, base request, single-field changes that must move the key)
    type Row<'a> = (&'a str, &'a [(&'a str, &'a str)], &'a [(&'a str, &'a str)]);
    let table: [Row; 3] = [
        (
            "trace",
            trace,
            &[
                ("variant", r#""serial""#),
                ("stages", "3"),
                ("passes", r#""queues-only""#),
                ("input", r#""road-ny-s""#),
                ("cycle_cap", "40000001"),
            ],
        ),
        ("trace", trace_dp, &[("threads", "3")]),
        (
            "search",
            search,
            &[
                ("top_k", "3"),
                ("max_stages", "3"),
                ("passes", r#""queues-only""#),
                ("input", r#""road-ny-s""#),
                ("cycle_cap", "40000001"),
            ],
        ),
    ];
    let svc = tiny_service();
    let ask = |line: String| {
        let resp = svc
            .handle_batch(std::slice::from_ref(&line))
            .responses
            .remove(0);
        let v = parse(&resp).unwrap();
        assert_eq!(
            v.get("ok").and_then(|j| j.as_bool()),
            Some(true),
            "{line} -> {resp}"
        );
        v.get("cache").and_then(|j| j.as_str()).unwrap().to_string()
    };
    for (op, base, changes) in table {
        assert_eq!(ask(request(1, op, base, None)), "miss", "{op}: cold base");
        for &change in changes {
            let line = request(2, op, base, Some(change));
            assert_eq!(
                ask(line.clone()),
                "miss",
                "{} must be keyed: {line}",
                change.0
            );
        }
        // Envelope-only fields never reach the key.
        assert_eq!(
            ask(request(77, op, base, None)),
            "hit",
            "{op}: id is not keyed"
        );
        let line = request(1, op, base, Some(("deadline_ms", "600000")));
        assert_eq!(ask(line.clone()), "hit", "deadline_ms is not keyed: {line}");
    }
}
