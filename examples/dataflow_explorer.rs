//! Dataflow explorer: sweep off-chip bandwidth for a chosen benchmark and
//! compare every *registered* scheduling strategy, reproducing one panel of
//! the paper's Figure 4 from the command line. Strategies are resolved
//! through the session's [`StrategyRegistry`](ciflow::api::StrategyRegistry)
//! via [`try_bandwidth_sweep_in`], so a custom strategy registered on the
//! session below shows up in the output automatically.
//!
//! Run with, e.g.:
//! `cargo run -p ciflow --release --example dataflow_explorer -- ARK`
//! `cargo run -p ciflow --release --example dataflow_explorer -- BTS3 streamed`

use ciflow::api::Session;
use ciflow::benchmark::HksBenchmark;
use ciflow::report::{render_sweep_ascii, render_sweep_csv};
use ciflow::sweep::{baseline_runtime_ms, try_bandwidth_sweep_in};
use rpu::EvkPolicy;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // `streamed` is a flag; any other argument names the benchmark (ARK when
    // none is given).
    let (flags, names): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a == "streamed");
    let benchmark = match names.as_slice() {
        [] => HksBenchmark::ARK,
        [name] => HksBenchmark::by_name(name).unwrap_or_else(|| {
            let known: Vec<&str> = HksBenchmark::all().iter().map(|b| b.name).collect();
            eprintln!(
                "error: unknown benchmark {name:?} (expected one of {})",
                known.join(", ")
            );
            std::process::exit(2);
        }),
        [_, extra, ..] => {
            eprintln!("error: unexpected argument {extra:?}: pass one benchmark name");
            std::process::exit(2);
        }
    };
    let evk_policy = if flags.is_empty() {
        EvkPolicy::OnChip
    } else {
        EvkPolicy::Streamed
    };
    let bandwidths = [
        8.0, 12.8, 16.0, 25.6, 32.0, 48.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
    ];

    println!("benchmark: {benchmark}");
    println!("evk policy: {evk_policy}\n");
    // Register additional strategies here (`.register(Arc::new(...))?`) and
    // they join the comparison with no further changes.
    let session = Session::new();
    let series = session
        .registry()
        .short_names()
        .into_iter()
        .map(|name| try_bandwidth_sweep_in(&session, benchmark, name, &bandwidths, evk_policy, 1.0))
        .collect::<Result<Vec<_>, _>>()?;
    print!("{}", render_sweep_csv(&series));
    println!();
    print!("{}", render_sweep_ascii(&series, 66, 14));
    println!(
        "\nbaseline (MP @ 64 GB/s, evks on-chip): {:.2} ms",
        baseline_runtime_ms(benchmark)
    );
    Ok(())
}
