//! `planar-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints a record line and then, last, the result
//! line: `{"correct", "attempted", "failed", "metrics"}`. Bad arguments
//! exit with code 2 and print no result.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let plan = match planar_e2ebench::cli::parse(&args) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("{e}\n{}", planar_e2ebench::cli::USAGE);
            std::process::exit(2);
        }
    };
    planar_e2ebench::run(&plan).print(&plan);
}
