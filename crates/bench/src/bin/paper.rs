//! `paper` — regenerates the VIX paper's tables and figures.
//!
//! `paper [--jobs <n>] <figure>... | all` prints the named figures, in
//! the order given, to stdout; `paper` alone lists them.

use std::process::ExitCode;

use vix_bench::{Figure, Paper, FIGURES};

fn usage() -> String {
    let mut text = String::from(
        "usage: paper [--jobs <n>] <figure>... | all
  --jobs, -j <n>   worker threads; 0 = all cores (default 0; output
                   identical for any value)

figures (`all` runs every one, in this order):
",
    );
    for (name, about, _) in FIGURES {
        text += &format!("  {name:<24} {about}\n");
    }
    text
}

/// The worker count and the figures to print, in order.
fn parse(args: &[String]) -> Result<(usize, Vec<Figure>), String> {
    let mut jobs = 0;
    let mut figures = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--jobs" | "-j" => {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                jobs = value.parse().map_err(|e| format!("bad {arg} value {value:?}: {e}"))?;
            }
            "all" => figures.extend(FIGURES),
            flag if flag.starts_with('-') => return Err(format!("unknown option {flag}")),
            name => match FIGURES.iter().find(|(n, ..)| *n == name) {
                Some(&figure) => figures.push(figure),
                None => return Err(format!("unknown figure {name}")),
            },
        }
    }
    Ok((jobs, figures))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (jobs, figures) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprint!("error: {msg}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    if figures.is_empty() {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let mut paper = Paper::new(jobs);
    for (.., print) in figures {
        print(&mut paper);
    }
    let (requested, simulated) = paper.saturation_counts();
    if requested > 0 {
        eprintln!("saturation searches: {requested} requested, {simulated} simulated");
    }
    ExitCode::SUCCESS
}
