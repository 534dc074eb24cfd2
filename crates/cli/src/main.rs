//! Thin binary wrapper over the testable CLI library.

use std::io::{self, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = dmig_cli::run(&args);
    let mut stdout = io::stdout().lock();
    match stdout
        .write_all(outcome.stdout.as_bytes())
        .and_then(|()| stdout.flush())
    {
        // A reader that closed early (`dmig solve x | head`) wants no more
        // output; the command itself still finished.
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {}
        Err(e) => {
            eprintln!("dmig: cannot write to stdout: {e}");
            std::process::exit(1);
        }
    }
    std::process::exit(outcome.code);
}
