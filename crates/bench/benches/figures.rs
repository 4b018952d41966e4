//! Regenerates scaled-down versions of every figure under `cargo bench`,
//! so the standard command exercises the full experiment flow: one sweep
//! over the paper grid, from which Figure 5 and each Figure 6 depth are
//! assembled, as `experiments` does. For the full-window artifacts use
//! the `experiments` binary.

use arvi_bench::{full_grid, paper_tables, GridRun, Resilience, Spec, TraceSet, Workload};
use arvi_sim::{Depth, PredictorConfig};
use arvi_trace::par::cores;

fn main() {
    let spec = Spec::quick();
    println!(
        "== regenerating paper artifacts (quick windows: {}k warm + {}k measured) ==\n",
        spec.warmup / 1000,
        spec.measure / 1000
    );

    for (title, table) in paper_tables() {
        println!("-- {title} --\n{}", table.to_text());
    }

    let workloads = Workload::suite();
    let threads = cores();
    let traces = TraceSet::record(&workloads, spec, threads, None);
    let res = Resilience::new();
    let run = GridRun::run(full_grid(), spec, threads, false, &traces, &res, None);

    let (fig5a, fig5b) = run.fig5_tables(&workloads).expect("every cell ran");
    println!(
        "-- Figure 5(a): load-branch fraction --\n{}",
        fig5a.to_text()
    );
    println!(
        "-- Figure 5(b): calculated vs load accuracy --\n{}",
        fig5b.to_text()
    );

    for depth in Depth::all() {
        let data = run.fig6_data(&workloads, depth).expect("every cell ran");
        println!(
            "-- Figure 6 accuracy, {depth} --\n{}",
            data.accuracy_table().to_text()
        );
        println!(
            "-- Figure 6 normalized IPC, {depth} --\n{}",
            data.normalized_ipc_table().to_text()
        );
        println!(
            "mean normalized IPC: current {:.3}, load-back {:.3}, perfect {:.3}\n",
            data.mean_normalized_ipc(PredictorConfig::ArviCurrent),
            data.mean_normalized_ipc(PredictorConfig::ArviLoadBack),
            data.mean_normalized_ipc(PredictorConfig::ArviPerfect),
        );
    }
    println!("figures bench complete (quick windows; see `experiments` for full runs)");
}
