//! Thin shell over the command library.

use regmutex_cli::args::usage;
use regmutex_cli::commands::{self, CommandError};
use regmutex_cli::{parse, Command};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = parse(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}\n\n{}", usage(args.first().map(String::as_str)));
        std::process::exit(2)
    });
    let output = match &cmd {
        Command::Help => Ok(usage(None)),
        Command::List(json) => Ok(commands::list(*json)),
        Command::Disasm(a) => commands::disasm(a),
        Command::Run(a) => commands::run(a),
        Command::Compare(a) => commands::compare(a),
        Command::Trace(a) => commands::trace(a),
        Command::Serve(cfg) => commands::serve(cfg),
        Command::Loadgen(a) => commands::loadgen(a),
        Command::BenchLoop(a) => exit_with(commands::bench_loop(a)),
        Command::Sweep(a) => exit_with(commands::sweep(a)),
        Command::Chaos(a) => exit_with(commands::chaos(a)),
        Command::Figures(a) => exit_with(commands::figures(a)),
        Command::Coordinator(a) => exit_with(commands::coordinator(a)),
        Command::ChaosFleet(spec) => exit_with(commands::chaos_fleet(spec)),
        Command::Fuzz(a) => exit_with(commands::fuzz(a)),
    };
    exit_with(output.map(|out| (out, 0)))
}

/// Print a command's output and exit with its code: 1 for an error,
/// otherwise the code the command chose (commands whose exit status
/// encodes partial failure rather than all-or-nothing success).
fn exit_with(result: Result<(String, i32), CommandError>) -> ! {
    match result {
        Ok((out, code)) => {
            print!("{out}");
            std::process::exit(code);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
