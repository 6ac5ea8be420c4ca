//! Tables I, III, IV, and V: the Pipette programming interface, the
//! simulated system configuration, and the input catalogs (with the
//! paper inputs each synthetic instance stands in for) — plus the
//! scheduler observability table (per-stage stall reasons and per-queue
//! occupancy) the event-driven core exposes.

use phloem_bench::{header, machine, scale};
use phloem_benchsuite::{bfs, Variant};
use phloem_workloads::{
    graph, spmm_test_matrices, spmm_training_matrices, taco_test_matrices, test_graphs,
    training_graphs,
};

fn main() {
    header("Table I: Pipette programming interface (implemented operations)");
    for (name, what) in [
        ("enq(q, v)", "Stmt::Enq — enqueue value v into queue q"),
        ("deq(q)", "Stmt::Deq — dequeue a value from queue q"),
        (
            "peek(q)",
            "subsumed by deq + handler dispatch in this model",
        ),
        (
            "setup_reference_accelerator(q, mode, base)",
            "RaConfig { mode: Indirect | Scan, base, in/out queues }",
        ),
        ("enq_ctrl(q, cv)", "Stmt::EnqCtrl — in-band control value"),
        (
            "is_control(v)",
            "UnOp::IsCtrl (plus UnOp::CtrlTag for tags)",
        ),
        (
            "setup_control_value_handler(q, f)",
            "CtrlHandler { queue, ctrl, body, end } per stage",
        ),
    ] {
        println!("  {name:<44} {what}");
    }

    header("Table III: simulated system configuration");
    let c = machine();
    println!(
        "  cores: {} (x{} SMT), {}-wide issue, ROB {}",
        c.cores, c.smt_threads, c.issue_width, c.rob_size
    );
    println!(
        "  Pipette: {} queues max (per core), {} RAs, queues {} deep",
        c.max_queues, c.ras_per_core, c.queue_capacity
    );
    println!(
        "  L1 {} KB {}-way {}cyc | L2 {} KB {}-way {}cyc | L3 {} MB {}-way {}cyc",
        c.l1.kb,
        c.l1.ways,
        c.l1.latency,
        c.l2.kb,
        c.l2.ways,
        c.l2.latency,
        c.l3_kb_per_core / 1024,
        c.l3_ways,
        c.l3_latency
    );
    println!(
        "  DRAM: {} cyc min latency, {} controllers, {} cyc/line each",
        c.dram_latency, c.dram_controllers, c.dram_cycles_per_line
    );

    header("Table IV: input graphs (synthetic analogues, scaled)");
    println!(
        "  {:<14}{:>10}{:>10}{:>10}  stands in for",
        "name", "vertices", "edges", "avg.deg"
    );
    for gi in training_graphs(scale()).iter().chain(&test_graphs(scale())) {
        println!(
            "  {:<14}{:>10}{:>10}{:>10.1}  {}",
            gi.name,
            gi.graph.num_vertices,
            gi.graph.num_edges(),
            gi.graph.avg_degree(),
            gi.paper_analogue
        );
    }

    header("Table V: input matrices (synthetic analogues, scaled)");
    println!(
        "  {:<14}{:>8}{:>10}{:>12}  stands in for",
        "name", "n", "nnz", "avg nnz/row"
    );
    for mi in spmm_training_matrices(scale())
        .iter()
        .chain(&spmm_test_matrices(scale()))
        .chain(&taco_test_matrices(scale()))
    {
        println!(
            "  {:<14}{:>8}{:>10}{:>12.1}  {}",
            mi.name,
            mi.matrix.rows,
            mi.matrix.nnz(),
            mi.matrix.avg_nnz_per_row(),
            mi.paper_analogue
        );
    }

    header("Scheduler observability: BFS/Phloem on power_law(500)");
    let g = graph::power_law(500, 3, 3);
    let m = bfs::run(&Variant::phloem(), &g, 0, &machine(), "power_law_500")
        .expect("BFS phloem on power_law_500");
    println!(
        "  {:<16}{:>12}{:>12}{:>10}{:>10}",
        "stage", "full-stall", "empty-stall", "wakeups", "spurious"
    );
    for t in &m.stats.threads {
        println!(
            "  {:<16}{:>12}{:>12}{:>10}{:>10}",
            t.name,
            t.queue_full_stall_cycles,
            t.queue_empty_stall_cycles,
            t.wakeups,
            t.spurious_wakeups
        );
    }
    println!();
    println!(
        "  {:<8}{:>6}{:>10}{:>10}{:>10}{:>10}",
        "queue", "cap", "enqs", "deqs", "max-occ", "mean-occ"
    );
    for (qi, q) in m.stats.queues.iter().enumerate() {
        if q.enqs == 0 && q.deqs == 0 {
            continue;
        }
        println!(
            "  q{:<7}{:>6}{:>10}{:>10}{:>10}{:>10.2}",
            qi,
            q.capacity,
            q.enqs,
            q.deqs,
            q.max_occupancy,
            q.mean_occupancy()
        );
    }
}
