//! The benchmark package is read for references, not linted.

fn main() {
    println!("{}", alpha::called_from_bench());
}
