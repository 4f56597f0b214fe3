fn main() -> std::process::ExitCode {
    mindgap_bench::main(mindgap_bench::exp::fig09::run)
}
