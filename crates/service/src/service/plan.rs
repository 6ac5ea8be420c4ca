//! Request planning: validation and cache-key derivation.
//!
//! [`plan`] turns one parsed [`Request`] into the [`Work`] to execute
//! and, for cacheable ops, the content-addressed key it is stored
//! under. It is the only place that knows which fields an op reads;
//! everything downstream (admission, execution fan-out, caching,
//! rendering) is op-agnostic. The digests a key folds in that do not
//! depend on the request — each app's program, the machine — come from
//! the [`KeyTable`] the service builds once.

use super::ServiceConfig;
use crate::batch::SimRequest;
use crate::key::{self, KeyHasher};
use crate::persist::Sel;
use crate::proto::{Op, Request};
use phloem_benchsuite::apps::{self, App};
use phloem_benchsuite::runner::compile_options;
use phloem_benchsuite::Variant;
use phloem_compiler::search::SearchOptions;
use phloem_compiler::{CompileOptions, PassConfig};
use phloem_ir::Function;
use pipette_sim::{MachineConfig, NativeConfig};
use std::sync::Arc;

/// Every app's kernel and program digest, and the machine digest,
/// built once per service: a request's key costs a lookup here and a
/// hash of the request's own fields.
pub(crate) struct KeyTable {
    apps: Vec<AppKey>,
    machine: u64,
}

/// One row of the [`KeyTable`].
pub(crate) struct AppKey {
    app: &'static App,
    kernel: Arc<Function>,
    /// [`key::program_digest`] of `kernel`.
    program: u64,
}

impl KeyTable {
    pub(crate) fn new(machine: &MachineConfig) -> KeyTable {
        let apps = apps::APPS
            .iter()
            .map(|a| {
                let kernel = Arc::new(a.kernel());
                AppKey {
                    app: a,
                    program: key::program_digest(&kernel),
                    kernel,
                }
            })
            .collect();
        KeyTable {
            apps,
            machine: key::machine_config_digest(machine),
        }
    }

    /// The row of the app `req` names.
    fn app(&self, req: &Request) -> Result<&AppKey, String> {
        let id = required(&req.app, "app")?;
        self.apps
            .iter()
            .find(|a| a.app.id() == id)
            .ok_or_else(|| format!("unknown app {id:?}"))
    }
}

/// One unit of compute, ready for a pool task.
pub(crate) enum Work {
    Compile(CompileWork),
    Simulate(SimRequest),
    SimulateNative(SimRequest, NativeConfig),
    Search(SearchWork),
    Trace(SimRequest),
}

pub(crate) struct CompileWork {
    pub(crate) kernel: Arc<Function>,
    /// The key's program digest, echoed as the answer's `"program"`.
    pub(crate) program: u64,
    pub(crate) app: &'static str,
    pub(crate) opts: CompileOptions,
    pub(crate) stages: usize,
}

pub(crate) struct SearchWork {
    pub(crate) kernel: Arc<Function>,
    pub(crate) app: &'static App,
    pub(crate) input: String,
    pub(crate) opts: SearchOptions,
}

/// A validated request: its work, and where its result is cached
/// (`None` = uncacheable, answered `bypass`).
pub(crate) struct Planned {
    pub(crate) work: Work,
    pub(crate) key: Option<(Sel, u64)>,
}

/// Estimated cost units one work item occupies in the admission
/// budget. Coarse by design: a search profiles `top_k` candidate
/// pipelines plus baselines, so it weighs roughly `top_k` simulates.
pub(crate) fn work_cost(w: &Work) -> u64 {
    match w {
        Work::Compile(_) => 1,
        Work::Simulate(_) | Work::Trace(_) => 2,
        // Native runs finish in real time rather than simulated time,
        // but they occupy real OS threads while they do — same weight
        // as a simulate so a flood of them still sheds.
        Work::SimulateNative(..) => 2,
        Work::Search(s) => 2 * (1 + s.opts.top_k as u64),
    }
}

/// Validates `req` and derives its work and cache key. The `Err` text
/// is the message of a `bad_request` frame.
pub(crate) fn plan(cfg: &ServiceConfig, keys: &KeyTable, req: &Request) -> Result<Planned, String> {
    match req.op {
        Op::Compile => {
            let app = keys.app(req)?;
            let opts = compile_options(&cfg.machine, parse_passes(req.passes.as_deref())?);
            let stages = req.stages.unwrap_or(4);
            let mut h = KeyHasher::new();
            h.u64(1) // op tag
                .u64(app.program)
                .u64(key::compile_options_digest(&opts))
                .usize(stages)
                .u64(keys.machine);
            Ok(Planned {
                key: Some((Sel::Compile, h.finish())),
                work: Work::Compile(CompileWork {
                    kernel: Arc::clone(&app.kernel),
                    program: app.program,
                    app: app.app.id(),
                    opts,
                    stages,
                }),
            })
        }
        Op::Simulate => Ok(Planned {
            work: Work::Simulate(plan_sim(cfg, keys, req)?.0),
            key: None,
        }),
        Op::SimulateNative => {
            let (sim, _) = plan_sim(cfg, keys, req)?;
            // `threads` doubles as the data-parallel width in the
            // variant; for the native op it is also the worker count
            // (0 = one thread per stage).
            let native = NativeConfig {
                threads: req.threads.unwrap_or(0),
            };
            Ok(Planned {
                work: Work::SimulateNative(sim, native),
                key: None,
            })
        }
        Op::Search => {
            let app = keys.app(req)?;
            let input = required(&req.input, "input")?;
            let opts = SearchOptions {
                max_stages: req.max_stages.unwrap_or(3),
                top_k: req.top_k.unwrap_or(4),
                compile: compile_options(&cfg.machine, parse_passes(req.passes.as_deref())?),
                // Searches run inside pool tasks; the inner candidate sweep
                // is serial and the batch provides the parallelism (a
                // nested candidate fleet would only fight the batch for the
                // same cores).
                workers: 1,
                profile_cycle_cap: req.cycle_cap.unwrap_or(cfg.default_cycle_cap),
                retry_cap_factor: 2,
            };
            let mut h = KeyHasher::new();
            h.u64(2)
                .u64(app.program)
                .str(input)
                .u64(key::search_options_digest(&opts))
                .u64(keys.machine);
            Ok(Planned {
                key: Some((Sel::Search, h.finish())),
                work: Work::Search(SearchWork {
                    kernel: Arc::clone(&app.kernel),
                    app: app.app,
                    input: input.to_string(),
                    opts,
                }),
            })
        }
        Op::Trace => {
            let (sim, program) = plan_sim(cfg, keys, req)?;
            let mut h = KeyHasher::new();
            h.u64(3)
                .u64(program)
                .str(&sim.input)
                .u64(key::variant_digest(&sim.variant))
                .u64(sim.cycle_cap.unwrap_or(u64::MAX))
                .u64(keys.machine);
            Ok(Planned {
                key: Some((Sel::Search, h.finish())),
                work: Work::Trace(sim),
            })
        }
        Op::Stats | Op::Shutdown => Err(format!("{:?} is not a compute op", req.op.name())),
    }
}

fn required<'r>(field: &'r Option<String>, name: &str) -> Result<&'r str, String> {
    field
        .as_deref()
        .ok_or_else(|| format!("missing required field {name:?}"))
}

/// What `simulate`, `simulate_native` and `trace` share: the run to
/// perform, and the app's program digest (what a trace key folds in).
fn plan_sim(
    cfg: &ServiceConfig,
    keys: &KeyTable,
    req: &Request,
) -> Result<(SimRequest, u64), String> {
    let app = keys.app(req)?;
    let input = required(&req.input, "input")?;
    let variant = match req.variant.as_deref().unwrap_or("phloem") {
        "serial" => Variant::Serial,
        "manual" => Variant::Manual,
        "data-parallel" | "data_parallel" | "dp" => {
            // A zero-wide partition has no kernel to run; downstream it
            // would trip the app's oracle assert inside a pool task.
            match req.threads.unwrap_or(cfg.machine.smt_threads) {
                0 => {
                    return Err(
                        "field \"threads\" must be at least 1 for the data-parallel variant".into(),
                    )
                }
                n => Variant::DataParallel(n),
            }
        }
        "phloem" => Variant::Phloem {
            passes: parse_passes(req.passes.as_deref())?,
            stages: req.stages.unwrap_or(4),
            cuts: Vec::new(),
        },
        other => return Err(format!("unknown variant {other:?}")),
    };
    let sim = SimRequest {
        app: app.app.id().to_string(),
        variant,
        input: input.to_string(),
        cycle_cap: Some(req.cycle_cap.unwrap_or(cfg.default_cycle_cap)),
    };
    Ok((sim, app.program))
}

/// Parses a pass-preset name; `None` means `all`.
fn parse_passes(name: Option<&str>) -> Result<PassConfig, String> {
    match name.map(|s| s.replace('_', "-")).as_deref() {
        None | Some("all") => Ok(PassConfig::all()),
        Some("queues-only") => Ok(PassConfig::queues_only()),
        Some("with-recompute") => Ok(PassConfig::with_recompute()),
        Some("with-cv") => Ok(PassConfig::with_cv()),
        Some("with-dce") => Ok(PassConfig::with_dce()),
        Some("with-handlers") => Ok(PassConfig::with_handlers()),
        Some("all-streaming") => Ok(PassConfig::all_streaming()),
        Some(other) => Err(format!("unknown pass preset {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::tiny_service;
    use super::{apps, key, plan, Arc, Planned, Sel, Work};
    use crate::batch::app_kernel;
    use crate::proto::parse_request;

    /// Plans one request line on the service's own config and table.
    fn planned(svc: &super::super::Service, line: &str) -> Planned {
        let req = parse_request(line).unwrap();
        plan(&svc.cfg, &svc.keys, &req).unwrap()
    }

    #[test]
    fn cache_keys_match_the_values_recorded_before_the_key_table() {
        // Recorded when every plan rebuilt and printed its kernel: a
        // drifted key would cold-start every persisted snapshot.
        let svc = tiny_service();
        for (line, want) in [
            (
                r#"{"id":1,"op":"compile","app":"bfs","passes":"with-cv","stages":3}"#,
                (Sel::Compile, 0xb77d_6ee2_16c7_825d),
            ),
            (
                r#"{"id":2,"op":"search","app":"cc","input":"internet-s","max_stages":2,"top_k":2}"#,
                (Sel::Search, 0x4191_f32b_7bb8_c6d2),
            ),
            (
                r#"{"id":3,"op":"trace","app":"radii","input":"internet-s","variant":"phloem","stages":2}"#,
                (Sel::Search, 0x04a6_4b0b_3c01_76dd),
            ),
        ] {
            assert_eq!(planned(&svc, line).key, Some(want), "{line}");
        }
    }

    #[test]
    fn the_key_table_holds_each_apps_digest_and_one_shared_kernel() {
        let svc = tiny_service();
        assert_eq!(svc.keys.apps.len(), apps::APPS.len());
        for a in &apps::APPS {
            let row = svc.keys.apps.iter().find(|r| r.app.id() == a.id()).unwrap();
            let kernel = app_kernel(a.id()).unwrap();
            assert_eq!(row.program, key::program_digest(&kernel), "{}", a.id());
        }
        assert_eq!(
            svc.keys.machine,
            key::machine_config_digest(&svc.cfg.machine)
        );
        let kernel = |line| match planned(&svc, line).work {
            Work::Compile(c) => c.kernel,
            Work::Search(s) => s.kernel,
            _ => unreachable!("{line} plans no kernel"),
        };
        assert!(Arc::ptr_eq(
            &kernel(r#"{"id":1,"op":"compile","app":"bfs"}"#),
            &kernel(r#"{"id":2,"op":"search","app":"bfs","input":"internet-s"}"#),
        ));
    }

    #[test]
    fn parse_and_validation_errors_are_structured() {
        let svc = tiny_service();
        let out = svc.handle_batch(&[
            "nonsense".to_string(),
            r#"{"id":1,"op":"compile"}"#.to_string(),
            r#"{"id":2,"op":"compile","app":"nosuch"}"#.to_string(),
            r#"{"id":3,"op":"simulate","app":"bfs","input":"internet-s","variant":"warp"}"#
                .to_string(),
        ]);
        assert_eq!(out.responses.len(), 4);
        assert!(!out.shutdown);
        assert!(out.responses[0].contains(r#""kind":"parse""#));
        assert!(out.responses[1].contains(r#""kind":"bad_request""#));
        assert!(out.responses[1].contains("missing required field"));
        assert!(out.responses[2].contains("unknown app"));
        assert!(out.responses[3].contains("unknown variant"));
    }

    #[test]
    fn a_zero_wide_data_parallel_variant_is_a_bad_request_not_a_panic() {
        let svc = tiny_service();
        let out = svc.handle_batch(&[
            r#"{"id":1,"op":"simulate","app":"bfs","input":"internet-s","variant":"dp","threads":0}"#
                .to_string(),
            r#"{"id":2,"op":"simulate_native","app":"bfs","input":"internet-s","variant":"dp","threads":0}"#
                .to_string(),
            r#"{"id":3,"op":"trace","app":"cc","input":"internet-s","variant":"data-parallel","threads":0}"#
                .to_string(),
            // `threads: 0` stays legal where it is the native worker
            // count ("one thread per stage"), not a partition width.
            r#"{"id":4,"op":"simulate_native","app":"bfs","input":"internet-s","variant":"serial","threads":0}"#
                .to_string(),
        ]);
        for resp in &out.responses[..3] {
            assert!(resp.contains(r#""kind":"bad_request""#), "{resp}");
            assert!(resp.contains(r#"\"threads\""#), "{resp}");
            assert!(resp.len() < 1024, "{} bytes", resp.len());
        }
        assert!(
            out.responses[3].contains(r#""ok":true"#),
            "{}",
            out.responses[3]
        );
    }
}
