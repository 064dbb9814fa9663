//! Thin shell over the command library.

use regmutex_cli::{commands, parse, Command};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", regmutex_cli::args::USAGE);
            std::process::exit(2);
        }
    };
    let result = match cmd {
        Command::Help => {
            print!("{}", regmutex_cli::args::USAGE);
            return;
        }
        Command::List { json } => Ok(commands::list(json)),
        Command::Disasm {
            app,
            transformed,
            liveness,
        } => commands::disasm(&app, transformed, liveness),
        Command::Run {
            app,
            technique,
            half_rf,
            ctas,
            force_es,
            watchdog_cycles,
            stall_multiplier,
            no_cycle_skip,
        } => commands::run(
            &app,
            technique,
            half_rf,
            ctas,
            force_es,
            watchdog_cycles,
            stall_multiplier,
            no_cycle_skip,
        ),
        Command::BenchLoop { apps, iters, out } => {
            exit_with(commands::bench_loop(&apps, iters, &out));
        }
        Command::Compare { app, half_rf, jobs } => commands::compare(&app, half_rf, jobs),
        Command::Serve {
            addr,
            workers,
            queue,
            cache_mb,
            cycle_budget,
            max_connections,
            client_rate,
            client_burst,
            cache_dir,
        } => {
            match commands::serve(
                addr,
                workers,
                queue,
                cache_mb,
                cycle_budget,
                max_connections,
                client_rate,
                client_burst,
                cache_dir,
            ) {
                Ok(()) => return,
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        }
        Command::Loadgen {
            addr,
            threads,
            requests,
            seed,
            apps,
            fleet,
            workers,
            cycle_budget,
            keep_alive,
            pipeline,
        } => {
            if fleet {
                commands::fleet_loadgen(workers, threads, requests, seed, apps, cycle_budget)
            } else {
                commands::loadgen(addr, threads, requests, seed, apps, keep_alive, pipeline)
            }
        }
        Command::Coordinator {
            workers,
            seed,
            threads,
            max_attempts,
            cycle_budget,
            journal,
            resume,
        } => match commands::coordinator(
            workers,
            seed,
            threads,
            max_attempts,
            cycle_budget,
            journal.as_deref(),
            resume,
        ) {
            Ok((out, metrics, code)) => {
                print!("{out}");
                eprint!("{metrics}");
                std::process::exit(code);
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        },
        Command::ChaosFleet {
            seeds,
            apps,
            cycle_budget,
            trigger_after,
            sim_workers,
        } => {
            exit_with(commands::chaos_fleet(
                seeds,
                apps,
                cycle_budget,
                trigger_after,
                sim_workers,
            ));
        }
        Command::Fuzz {
            seed,
            iters,
            duration_secs,
            jobs,
            cycle_budget,
            max_divergences,
            stats,
            replay,
            fault,
            no_minimize,
            fleet,
            workers,
            journal,
            resume,
        } => {
            exit_with(commands::fuzz(
                seed,
                iters,
                duration_secs,
                jobs,
                cycle_budget,
                max_divergences,
                stats,
                replay,
                fault,
                no_minimize,
                fleet,
                workers,
                journal.as_deref(),
                resume,
            ));
        }
        Command::Trace { app, max_steps } => commands::trace(&app, max_steps),
        Command::Sweep {
            app,
            jobs,
            journal,
            resume,
        } => {
            exit_with(commands::sweep(&app, jobs, journal.as_deref(), resume));
        }
        Command::Chaos {
            apps,
            seeds,
            technique,
            jobs,
            watchdog_cycles,
            stall_multiplier,
            expect_detections,
            journal,
            resume,
        } => {
            exit_with(commands::chaos(
                &apps,
                seeds,
                technique,
                jobs,
                watchdog_cycles,
                stall_multiplier,
                expect_detections,
                journal.as_deref(),
                resume,
            ));
        }
    };
    match result {
        Ok(out) => print!("{out}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Print a command's output and exit with its code (commands whose exit
/// status encodes partial failure rather than all-or-nothing success).
fn exit_with(result: Result<(String, i32), commands::CommandError>) -> ! {
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
