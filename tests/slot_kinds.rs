//! Which registers of the compiled SpMM and Radii stages are word slots.
//!
//! `FlatInterp` runs arithmetic over a word slot as a typed instruction
//! and over a tagged slot through the dynamic path. The bytecode
//! compiler's whole-pipeline analysis keeps a variable tagged only if a
//! control value can reach it: a handler's `bind`, or a dequeue target
//! on a queue that carries a tag no handler of the stage catches. This
//! file pins the resulting tagged set per stage, so a classifier that
//! regresses to "everything tagged" (a correct but slow answer) fails
//! here loudly, and so does one that types a control-capable target.

use phloem_benchsuite::{radii, spmm, Variant};
use phloem_compiler::PassConfig;
use phloem_ir::{compile_pipeline, Pipeline, VarId};
use pipette_sim::MachineConfig;

/// Per stage: its name and the names of its tagged variables.
fn tagged(p: &Pipeline) -> Vec<(String, Vec<String>)> {
    let progs = compile_pipeline(p).expect("compiles");
    p.stages
        .iter()
        .zip(&progs)
        .map(|(s, prog)| {
            let f = &s.program.func;
            let names = (0..f.vars.len())
                .filter(|&v| prog.word_type(VarId(v as u32)).is_none())
                .map(|v| f.vars[v].name.to_string())
                .collect();
            (f.name.clone(), names)
        })
        .collect()
}

fn stage(name: &str, vars: &[&str]) -> (String, Vec<String>) {
    (name.into(), vars.iter().map(|v| v.to_string()).collect())
}

#[test]
fn manual_pipelines_tag_only_their_control_capable_registers() {
    let ra = |name: &str| stage(name, &["ra_cv"]);
    assert_eq!(
        tagged(&spmm::manual_pipeline()),
        [
            stage("pairs", &[]),
            ra("ra:aci"),
            ra("ra:avl"),
            ra("ra:btci"),
            ra("ra:btvl"),
            // The merge stage checks `is_control` inline on all four
            // streams: no handler, so their targets hold NEXT and DONE.
            stage("merge", &["ca", "cb", "va", "vb"]),
        ]
    );
    assert_eq!(
        tagged(&radii::manual_pipeline()),
        [
            stage("fetch", &[]),
            ra("ra:nodes"),
            ra("ra:edges"),
            stage("update", &["ngh"]),
        ]
    );
}

/// Phloem's handlers catch every control value they send, so every
/// register of a compiled SpMM or Radii pipeline is a word.
#[test]
fn compiled_pipelines_are_all_words() {
    let cfg = MachineConfig::paper_1core();
    for stages in 2..=4 {
        let v = Variant::Phloem {
            passes: PassConfig::all(),
            stages,
            cuts: vec![],
        };
        for p in [
            spmm::pipeline_for(&v, &cfg).expect("SpMM compiles"),
            radii::pipeline_for(&v, 8, &cfg).expect("Radii compiles"),
        ] {
            let progs = compile_pipeline(&p).expect("compiles");
            for prog in &progs {
                assert_eq!(prog.tagged_slots(), 0, "{} has a tagged slot", prog.name());
            }
        }
    }
}
