fn main() -> std::process::ExitCode {
    unistore_benchmark::cli::main()
}
