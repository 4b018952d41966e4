//! Regenerates the paper's configuration tables (Tables 1-4).
//!
//! Usage: `tables` — it takes no argument; any flag or positional exits
//! 2 with nothing on stdout.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = arvi_bench::check_flags(&args, &[]) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    for (title, table) in arvi_bench::paper_tables() {
        println!("== {title} ==\n{}\n", table.to_text());
    }
}
