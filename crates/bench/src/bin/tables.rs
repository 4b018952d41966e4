//! Regenerates the paper's configuration tables (Tables 1-4).
//!
//! Usage: `tables` — it takes no argument; any flag or positional exits
//! 2 with nothing on stdout.

use arvi_bench::{outln, paper_tables, CommandLine};

fn main() {
    CommandLine::from_env(&[], 0);
    for (title, table) in paper_tables() {
        outln!("== {title} ==\n{}\n", table.to_text());
    }
}
