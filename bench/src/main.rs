fn main() -> std::process::ExitCode {
    kspot_benchmark::cli::main()
}
