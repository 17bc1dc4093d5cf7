//! The `netanom` binary: argument dispatch for the subcommands in
//! `netanom_cli::commands`; see the library crate docs for the full
//! usage reference.

use std::process::ExitCode;

use netanom_cli::commands;

fn usage() {
    eprintln!(
        "usage:\n  netanom simulate --dataset <sprint1|sprint2|abilene|mini> --out-dir DIR\n  \
         netanom detect   --links FILE [--confidence C] [--train-bins N]\n  \
         netanom diagnose --links FILE --paths FILE [--method NAME] [--confidence C]\n           \
         [--train-bins N] [--out FILE]\n  \
         netanom stream   --links FILE|- --train-bins N [--method NAME] [--paths FILE]\n           \
         [--confidence C] [--window N] [--refit-every K]\n           \
         [--refit full|incremental|truncated] [--chunk B]\n  \
         netanom shard    --links FILE|- --train-bins N --shards K [--method NAME] [--paths FILE]\n           \
         [--confidence C] [--window N] [--refit-every K]\n           \
         [--refit full|incremental|truncated] [--chunk B]\n  \
         netanom tracker  --listen ADDR --links FILE|- --train-bins N --workers K [--paths FILE]\n           \
         [--confidence C] [--window N] [--refit-every K]\n           \
         [--refit full|incremental|truncated] [--chunk B]\n           \
         [--join-timeout S] [--read-timeout S]\n  \
         netanom worker   --connect ADDR --links FILE|- --train-bins N --workers K --shard S\n           \
         [--checkpoint FILE] [--retries N] [--read-timeout S]\n  \
         netanom serve    [--listen ADDR] [--read-timeout S] [--max-conns N]\n  \
         netanom eval     --list | ID... [--out DIR]\n  \
         netanom --list-methods | --version\n\
         \n\
         shard/tracker/worker also accept --partition round-robin|per-pop|explicit\n           \
         [--dataset NAME] [--partition-file FILE]"
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        usage();
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "simulate" => commands::simulate(rest),
        "detect" => commands::detect(rest),
        "diagnose" => commands::diagnose(rest),
        "stream" => commands::stream(rest),
        "shard" => commands::shard(rest),
        "tracker" => commands::tracker(rest),
        "worker" => commands::worker(rest),
        "serve" => commands::serve(rest),
        "eval" => commands::eval(rest),
        "--list-methods" => {
            commands::list_methods();
            return ExitCode::SUCCESS;
        }
        "--version" | "-V" => {
            commands::version();
            return ExitCode::SUCCESS;
        }
        "--help" | "-h" | "help" => {
            usage();
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            ExitCode::FAILURE
        }
    }
}
