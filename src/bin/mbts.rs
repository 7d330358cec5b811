//! `mbts` — generate traces, run sites, and run market economies from the
//! command line. See `mbts::cli` for the full grammar.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match mbts::cli::parse(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = mbts::cli::execute(cmd, &mut stdout) {
        eprintln!("error: {e}");
        std::process::exit(e.exit_code());
    }
}
