//! Client-scaling sweep (PR 7): aggregate scan/point-mix throughput of N
//! concurrent clients over one shared engine, on the virtual clock.
//!
//! The client counts are 1/2/4/8 (up to 32 with `--full`), the device has 8
//! dies, per-die queue depth 8.
//!
//! Usage:
//!   `cargo run --release -p noftl-bench --bin client_scaling [--full]`

use noftl_bench::client_scaling::{render_table, run_client_scaling};

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let per_client: u64 = if full { 200 } else { 48 };
    let client_counts: &[usize] = if full {
        &[1, 2, 4, 8, 16, 32]
    } else {
        &[1, 2, 4, 8]
    };
    eprintln!(
        "running client-scaling sweep over {client_counts:?} clients ({per_client} txns/client)..."
    );
    let result = run_client_scaling(client_counts, 8, per_client);
    println!("{}", render_table(&result));
}
