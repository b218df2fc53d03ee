//! Regenerate the paper's tables and figures.
//!
//! ```text
//! figures            # list experiment ids
//! figures all        # run everything (paper order)
//! figures fig8       # run one experiment
//! ```

use cannikin_bench::experiments;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => {
            eprintln!("usage: figures <experiment-id>|all");
            eprintln!("available experiments:");
            for id in experiments::ids() {
                eprintln!("  {id}");
            }
            std::process::exit(2);
        }
        Some("all") => {
            for (id, output) in experiments::all() {
                println!("==================== {id} ====================");
                println!("{output}");
            }
        }
        Some(id) => match experiments::by_id(id) {
            Some(run) => println!("{}", run()),
            None => {
                eprintln!("unknown experiment `{id}`; known ids: {}", experiments::ids().join(", "));
                std::process::exit(2);
            }
        },
    }
}
