//! `demos-benchmark run …` / `demos-benchmark agree A.json B.json`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(demos_benchmark::cli::main(&args));
}
